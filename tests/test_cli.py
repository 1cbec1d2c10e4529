import gc
import itertools
import json

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper

from temporeach.cli import main
from temporeach.solvers import xp_work_estimate
from temporeach.testkit import enumeration_size
from temporeach.tgraph import parse_graph

PATH_TG = "n 3\ne 0 1 2\ne 1 2 1\n"
CHAIN4_TG = "n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2\n"
FIG_STATIC = "n 5\ne 0 1\ne 0 3\ne 1 3\ne 1 4\ne 2 4\n"
# labels >= 2 (= delta+1), so shifting them never meets the floor of 1
DP_TREE_TG = "n 6\ne 0 1 4 20\ne 1 2 3\ne 1 3 21\ne 3 4 20\ne 4 5 9 40\n"
DP_CYCLE_TG = "n 5\ne 0 1 3\ne 0 4 2\ne 1 2 3\ne 2 3 12\ne 3 4 12\n"
# a width-2 decomposition of DP_CYCLE_TG with node ids that are not 0..k-1
DP_CYCLE_DECOMP = "b 7 0 1 4\nb 3 1 3 4\nb 5 1 2 3\nt 7 3\nt 3 5\n"


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_trlp_yes_exit_zero(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "1", "--h", "3"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "ANSWER yes"
    assert any(l.startswith("SOURCE ") for l in lines)
    assert any(l.startswith("REACH ") for l in lines)
    assert lines[-1].startswith("STRATEGY ")


def test_trlp_no_exit_one(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", CHAIN4_TG)
    res = runner.invoke(main, ["trlp", "-g", gpath, "--delta", "0", "--zeta", "0", "--h", "4"])
    assert res.exit_code == 1
    assert res.output.splitlines()[0] == "ANSWER no"


def test_trlp_refusal_exit_two(runner, tmp_path):
    # K10, one label per edge: XP would need 1 + 45 + ... + C(45, 6) subset
    # sweeps, about 5.2e8 operations, over the default cap of 1e8
    k10 = "n 10\n" + "".join(f"e {u} {v} 1\n" for u, v in itertools.combinations(range(10), 2))
    gpath = write(tmp_path, "g.tg", k10)
    res = runner.invoke(
        main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "6", "--h", "10", "--strategy", "xp"]
    )
    assert res.exit_code == 2
    assert res.output.startswith("REFUSED ")


def test_auto_refusal_names_every_cap(runner, tmp_path):
    # n = 21, each vertex joined to the three next ones around a circle
    # (degree 6, no tree), h = 8 > 6 + 1 and zeta = 6 < h - 1: degree,
    # treewidth (n > 20), xp and the oracle each refuse, bigzeta and tree do
    # not apply
    edges = sorted({tuple(sorted((v, (v + d) % 21))) for v in range(21) for d in (1, 2, 3)})
    text = "n 21\n" + "".join(f"e {u} {v} 5\n" for u, v in edges)
    gpath = write(tmp_path, "g.tg", text)
    g = parse_graph(text)
    xp_ops = xp_work_estimate(g, 6)
    space = enumeration_size(g.num_time_edges(), 1, 6)
    res = runner.invoke(main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "6", "--h", "8"])
    assert res.exit_code == 2, res.output
    assert res.output == (
        "REFUSED instance too large for exact solve ("
        "degree: degree bound does not apply: h > max degree + 1; "
        "treewidth: exact treewidth guard: at most 20 vertices; "
        f"xp: xp enumeration needs ~{xp_ops} sweep operations, cap is 100000000; "
        f"oracle: oracle space ~{space} exceeds cap 10000000)\n"
    )


def test_trlp_json_mirrors_text(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    txt = runner.invoke(main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "2", "--h", "3"])
    js = runner.invoke(
        main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "2", "--h", "3", "--json"]
    )
    assert js.exit_code == txt.exit_code == 0
    obj = json.loads(js.output)
    lines = dict()
    perturbs = []
    for line in txt.output.splitlines():
        key, _, rest = line.partition(" ")
        if key == "PERTURB":
            perturbs.append([int(x) for x in rest.split()])
        else:
            lines[key.lower()] = rest
    assert obj["answer"] == lines["answer"]
    assert str(obj["source"]) == lines["source"]
    assert str(obj["reach"]) == lines["reach"]
    assert obj["strategy"] == lines["strategy"]
    assert obj.get("perturb", []) == perturbs


def test_reach_json_keeps_every_arrival(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    for source in range(3):
        args = ["reach", "-g", gpath, "--source", str(source)]
        txt = runner.invoke(main, args)
        js = runner.invoke(main, args + ["--json"])
        assert js.exit_code == txt.exit_code == 0
        arrivals = [
            [int(v), a if a == "inf" else int(a)]
            for key, v, a in (l.split() for l in txt.output.splitlines() if l.startswith("ARRIVAL "))
        ]
        assert len(arrivals) == 3
        assert json.loads(js.output)["arrival"] == arrivals


def test_trp_command(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["trp", "-g", gpath, "--delta", "1", "--h", "3"])
    assert res.exit_code == 0
    assert "STRATEGY trp" in res.output


@pytest.mark.parametrize("h", ["1", "3"])
def test_trp_negative_delta_refused(runner, tmp_path, h):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["trp", "-g", gpath, "--delta", "-1", "--h", h])
    assert res.exit_code == 2
    assert res.output == "REFUSED delta must be nonnegative\n"


def test_verify_roundtrip_from_solver_output(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(
        main,
        ["trlp", "-g", gpath, "--delta", "1", "--zeta", "2", "--h", "3", "--json"],
    )
    obj = json.loads(res.output)
    pert = ["delta 1", "zeta 2"] + [
        f"p {u} {v} {old} {new}" for u, v, old, new in obj.get("perturb", [])
    ]
    ppath = write(tmp_path, "p.txt", "\n".join(pert) + "\n")
    ver = runner.invoke(
        main,
        ["verify", "-g", gpath, "-p", ppath, "--source", str(obj["source"]), "--h", "3"],
    )
    assert ver.exit_code == 0, ver.output
    lines = ver.output.splitlines()
    assert lines[0] == "RESULT VALID"
    reach = next(l for l in lines if l.startswith("REACH "))
    assert int(reach.split()[1]) == obj["reach"]


def test_verify_rejects_bad_certificate(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", "delta 1\nzeta 0\np 0 1 2 1\n")
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", "--h", "3"])
    assert res.exit_code == 2  # over budget is a malformed certificate
    ppath2 = write(tmp_path, "p2.txt", "delta 1\nzeta 1\np 0 1 2 1\n")
    res2 = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath2, "--source", "0", "--h", "3"])
    assert res2.exit_code == 1
    assert "INVALID" in res2.output


def test_verify_refuses_repeated_delta(runner, tmp_path):
    # the moves are checked under one declared delta, not the last of two
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", "delta 1\nzeta 2\ndelta 5\np 0 1 2 1\n")
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", "--h", "3"])
    assert res.exit_code == 2, res.output
    assert res.output == "REFUSED line 3: repeated 'delta' line\n"


@pytest.mark.parametrize("header, line", [
    ("delta -1\nzeta 1\n", "line 1: delta must be nonnegative"),
    ("delta 1\nzeta -2\n", "line 2: zeta must be nonnegative"),
], ids=["delta", "zeta"])
def test_verify_refuses_negative_header(runner, tmp_path, header, line):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", header + "p 0 1 2 1\n")
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", "--h", "3"])
    assert res.exit_code == 2, res.output
    assert res.output == f"REFUSED {line}\n"


def test_ecc_command_both_exits(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    yes = runner.invoke(
        main,
        ["ecc", "-g", gpath, "--source", "0", "--variant", "shortest", "-k", "2",
         "--delta", "2", "--zeta", "2"],
    )
    assert yes.exit_code == 0 and "STRATEGY large-delta" in yes.output
    no = runner.invoke(
        main,
        ["ecc", "-g", gpath, "--source", "0", "--variant", "fastest", "-k", "0",
         "--delta", "2", "--zeta", "2"],
    )
    assert no.exit_code == 1


@pytest.mark.parametrize(
    "argv, code, output",
    [
        (["ecc", "--source", "0", "--variant", "shortest", "-k", "44"], 1,
         "ANSWER no\nSTRATEGY exhaustive\n"),
        (["ecc", "--source", "0", "--variant", "shortest", "-k", "45"], 0,
         "ANSWER yes\nSOURCE 0\nECC 45\nREACH 46\nSTRATEGY exhaustive\n"),
        (["trlp", "--strategy", "oracle", "--h", "46"], 0,
         "ANSWER yes\nSOURCE 0\nREACH 46\nSTRATEGY oracle\n"),
    ],
    ids=["ecc-no", "ecc-yes", "trlp-oracle-yes"],
)
def test_oracle_answers_the_one_perturbation_at_delta_zero(runner, tmp_path, argv, code, output):
    # a 45-edge path at increasing times, zeta 10: counting every moved set,
    # ~4.3e9 of them, would refuse, but at delta 0 nothing can move
    gpath = write(tmp_path, "g.tg", "n 46\n" + "".join(f"e {v} {v + 1} {v + 1}\n" for v in range(45)))
    res = runner.invoke(main, [argv[0], "-g", gpath, "--delta", "0", "--zeta", "10", *argv[1:]])
    assert (res.exit_code, res.output) == (code, output)


def test_gen_domset(runner, tmp_path):
    gpath = write(tmp_path, "static.txt", FIG_STATIC)
    out = str(tmp_path / "inst.tg")
    res = runner.invoke(main, ["gen", "domset", "-g", gpath, "-r", "2", "-o", out])
    assert res.exit_code == 0
    text = (tmp_path / "inst.tg").read_text()
    assert text.startswith("n 11\n")
    assert "delta 1" in text and "zeta 2" in text and "h 11" in text
    solve = runner.invoke(
        main, ["trlp", "-g", out, "--delta", "1", "--zeta", "2", "--h", "11"]
    )
    assert solve.exit_code == 0


def test_gen_sat_and_oracle_agreement(runner, tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    out = str(tmp_path / "tsep.tg")
    res = runner.invoke(main, ["gen", "sat-tsep", "-f", cnf, "-k", "4", "--delta", "1", "-o", out])
    assert res.exit_code == 0
    text = (tmp_path / "tsep.tg").read_text()
    assert "variant shortest" in text and "k 4" in text


def test_gen_sat_tsep_reads_clauses_across_lines(runner, tmp_path):
    # the clauses (1 2 -1) and (-2), split across lines and one clause a line
    split = write(tmp_path, "split.cnf", "p cnf 2 2\n1 2\n-1 0\n-2 0\n")
    plain = write(tmp_path, "plain.cnf", "p cnf 2 2\n1 2 -1 0\n-2 0\n")
    a = runner.invoke(main, ["gen", "sat-tsep", "-f", split])
    b = runner.invoke(main, ["gen", "sat-tsep", "-f", plain])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    one_line = write(tmp_path, "line.cnf", "p cnf 2 2\n1 0 -2 0\n")
    two_lines = write(tmp_path, "lines.cnf", "p cnf 2 2\n1 0\n-2 0\n")
    c = runner.invoke(main, ["gen", "sat-tsep", "-f", one_line])
    d = runner.invoke(main, ["gen", "sat-tsep", "-f", two_lines])
    assert c.exit_code == d.exit_code == 0
    assert c.output == d.output


@pytest.mark.parametrize(
    "command, text, extra, reason",
    [
        ("domset", "n 3\ne 0 1\nx 1 2\n", ["-r", "1"], "line 3: unknown line kind 'x'"),
        ("domset", "n 3\ne 0\n", ["-r", "1"], "line 2: 'e' line too short"),
        ("domset", "n 3\ne 1 1\n", ["-r", "1"], "line 2: self-loop on vertex 1"),
        ("domset", "n 3\ne 0 1\ne 1 0\n", ["-r", "1"], "line 3: duplicate edge (0,1)"),
        ("domset", "n 3\ne 0 1\ne 2 3\n", ["-r", "1"], "line 3: vertex id out of range on edge (2,3)"),
        ("domset", "n 3\ne -1 2\n", ["-r", "1"], "line 2: vertex id out of range on edge (-1,2)"),
        ("domset", "e 0 1\nn 3\n", ["-r", "1"], "line 1: edge before 'n' line"),
        ("domset", "n 3\ne 0 1\nn 4\n", ["-r", "1"], "line 3: repeated 'n' line"),
        ("domset", "# static\nn -1\n", ["-r", "1"], "line 2: vertex count must be nonnegative"),
        ("domset", FIG_STATIC, ["-r", "0"], "r must be >= 1"),
        ("sat-tsep", "p cnf 1 1\n1 x 0\n", [], "invalid literal for int() with base 10: 'x'"),
        ("sat-tfaep", "p cnf\n1 0\n", [], "problem line 'p cnf' has no variable count"),
    ],
    ids=[
        "domset-kind", "domset-short", "domset-loop", "domset-duplicate", "domset-range",
        "domset-negative", "domset-edge-first", "domset-repeated-n", "domset-negative-n",
        "domset-r0",
        "tsep-literal", "tfaep-problem-line",
    ],
)
def test_gen_malformed_input_refused(runner, tmp_path, command, text, extra, reason):
    flag = "-g" if command == "domset" else "-f"
    res = runner.invoke(main, ["gen", command, flag, write(tmp_path, "in.txt", text), *extra])
    assert res.exit_code == 2
    assert res.output == f"REFUSED {reason}\n"


def test_gen_domset_ignores_labels(runner, tmp_path):
    plain = runner.invoke(main, ["gen", "domset", "-g", write(tmp_path, "a.txt", FIG_STATIC), "-r", "2"])
    labelled = FIG_STATIC.replace("e 0 1\n", "e 0 1 5 x\n")
    res = runner.invoke(main, ["gen", "domset", "-g", write(tmp_path, "b.txt", labelled), "-r", "2"])
    assert res.exit_code == plain.exit_code == 0
    assert res.output == plain.output


def test_gen_random_deterministic(runner, tmp_path):
    a = runner.invoke(main, ["gen", "random", "--profile", "tree", "--seed", "5"])
    b = runner.invoke(main, ["gen", "random", "--profile", "tree", "--seed", "5"])
    assert a.output == b.output and a.exit_code == 0


def test_oracle_matches_solver(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", CHAIN4_TG)
    args = ["-g", gpath, "--delta", "1", "--zeta", "1", "--h", "4"]
    a = runner.invoke(main, ["oracle", "trlp", *args])
    b = runner.invoke(main, ["trlp", *args, "--strategy", "xp"])
    assert a.output.splitlines()[0] == b.output.splitlines()[0]
    assert a.exit_code == b.exit_code


def test_reach_command(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["reach", "-g", gpath, "--source", "1"])
    assert res.exit_code == 0
    assert "REACH 3" in res.output
    rmax = runner.invoke(main, ["reach", "-g", gpath])
    assert "RMAX 3" in rmax.output and "SOURCE 1" in rmax.output


def test_parse_error_exit_two(runner, tmp_path):
    gpath = write(tmp_path, "bad.tg", "n 2\ne 0 1 3 3\n")
    res = runner.invoke(main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "1", "--h", "2"])
    assert res.exit_code == 2
    assert "REFUSED" in res.output


@pytest.mark.parametrize("zeta, code", [(0, 1), (1, 0)])
def test_trlp_decomp_file_answers_like_exact(runner, tmp_path, zeta, code):
    args = ["trlp", "-g", write(tmp_path, "c.tg", DP_CYCLE_TG), "--delta", "1",
            "--zeta", str(zeta), "--h", "5", "--strategy", "treewidth"]
    exact = runner.invoke(main, args)
    given = runner.invoke(main, [*args, "--decomp", write(tmp_path, "d.txt", DP_CYCLE_DECOMP)])
    assert exact.exit_code == given.exit_code == code
    assert given.output == exact.output


@pytest.mark.parametrize(
    "text, reason",
    [
        (DP_CYCLE_DECOMP + "t 0\n", "line 6: 't' line needs exactly two node ids"),
        ("b\n", "line 1: 'b' line needs a node id"),
        ("b 0 0 x\n", "line 1: non-integer field on 'b' line"),
        ("b 0 0 1 2 3 4\nt 0 y\n", "line 2: non-integer field on 't' line"),
        ("b 0 0 1 2\nb 0 0 2 3 4\n", "line 2: repeated bag id 0"),
        ("q 1\n", "line 1: unknown line kind 'q'"),
    ],
    ids=["short-t", "short-b", "b-field", "t-field", "repeated-b", "kind"],
)
def test_trlp_malformed_decomp_refused(runner, tmp_path, text, reason):
    args = ["trlp", "-g", write(tmp_path, "c.tg", DP_CYCLE_TG), "--delta", "1", "--zeta", "1",
            "--h", "5", "--strategy", "treewidth", "--decomp", write(tmp_path, "d.txt", text)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.output == f"REFUSED {reason}\n"


@pytest.mark.parametrize(
    "text, strategy, zeta, h, reason",
    [
        (CHAIN4_TG, "degree", 1, 4, "degree bound does not apply: h > max degree + 1"),
        (CHAIN4_TG, "bigzeta", 1, 4, "big-zeta route requires zeta >= h - 1"),
        (DP_CYCLE_TG, "tree", 1, 5, "underlying graph is not a connected tree"),
    ],
    ids=["degree", "bigzeta", "tree"],
)
def test_forced_strategy_that_does_not_apply_refused(runner, tmp_path, text, strategy, zeta, h, reason):
    args = ["trlp", "-g", write(tmp_path, "g.tg", text), "--delta", "1", "--zeta", str(zeta),
            "--h", str(h), "--strategy", strategy]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.output == f"REFUSED {reason}\n"


def test_reach_empty_graph_refused(runner, tmp_path):
    gpath = write(tmp_path, "empty.tg", "n 0\n")
    res = runner.invoke(main, ["reach", "-g", gpath])
    assert res.exit_code == 2
    assert res.output.startswith("REFUSED ")


@pytest.mark.parametrize("extra", [[], ["--source", "0"]], ids=["rmax", "source"])
def test_reach_non_utf8_graph_refused(runner, tmp_path, extra):
    gpath = tmp_path / "bin.tg"
    gpath.write_bytes(b"\xff\xfe\x00n 2\n")
    res = runner.invoke(main, ["reach", "-g", str(gpath), *extra])
    assert res.exit_code == 2
    assert res.output.startswith("REFUSED 'utf-8' codec can't decode")


# every existing-file option; "{dir}" marks the one given a directory
_FILE_OPTION_CALLS = {
    "trlp-g": ["trlp", "-g", "{dir}", "--delta", "1", "--zeta", "1", "--h", "1"],
    "trlp-decomp": ["trlp", "-g", "{g}", "--delta", "1", "--zeta", "1", "--h", "1", "--decomp", "{dir}"],
    "trp-g": ["trp", "-g", "{dir}", "--delta", "1", "--h", "1"],
    "ecc-g": ["ecc", "-g", "{dir}", "--source", "0", "--variant", "shortest", "-k", "1",
              "--delta", "1", "--zeta", "1"],
    "reach-g": ["reach", "-g", "{dir}"],
    "domset-g": ["gen", "domset", "-g", "{dir}", "-r", "1"],
    "sat-tsep-f": ["gen", "sat-tsep", "-f", "{dir}"],
    "sat-tfaep-f": ["gen", "sat-tfaep", "-f", "{dir}"],
    "verify-g": ["verify", "-g", "{dir}", "-p", "{p}", "--source", "0", "--h", "1"],
    "verify-p": ["verify", "-g", "{g}", "-p", "{dir}", "--source", "0", "--h", "1"],
    "oracle-trlp-g": ["oracle", "trlp", "-g", "{dir}", "--delta", "1", "--zeta", "1", "--h", "1"],
    "oracle-ecc-g": ["oracle", "ecc", "-g", "{dir}", "--source", "0", "--variant", "shortest",
                     "-k", "1", "--delta", "1", "--zeta", "1"],
}


@pytest.mark.parametrize("name", sorted(_FILE_OPTION_CALLS))
def test_directory_for_file_option_is_usage_error(runner, tmp_path, name):
    paths = {
        "dir": str(tmp_path),
        "g": write(tmp_path, "g.tg", PATH_TG),
        "p": write(tmp_path, "p.txt", "delta 0\nzeta 0\n"),
    }
    res = runner.invoke(main, [arg.format(**paths) for arg in _FILE_OPTION_CALLS[name]])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert f"'{tmp_path}' is a directory" in res.output


@pytest.mark.parametrize(
    "source, check",
    [
        ("7", ["--h", "1"]),
        ("-1", ["--h", "3"]),
        ("-1", ["--variant", "shortest", "-k", "5"]),
    ],
)
def test_verify_source_out_of_range_refused(runner, tmp_path, source, check):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", "delta 0\nzeta 0\n")
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", source, *check])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("REFUSED ")


@pytest.mark.parametrize(
    "check, reason",
    [
        (["--h", "0"], "h must be in [1, n], got 0"),
        (["--h", "9"], "h must be in [1, n], got 9"),
        (["--variant", "shortest", "-k", "-1"], "k must be nonnegative"),
    ],
)
def test_verify_threshold_out_of_range_refused(runner, tmp_path, check, reason):
    # the thresholds trlp and ecc refuse are refused here too, not judged
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", "delta 0\nzeta 0\n")
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", *check])
    assert res.exit_code == 2, res.output
    assert res.output == f"REFUSED {reason}\n"


def test_every_input_file_may_start_with_a_utf8_bom(runner, tmp_path):
    texts = {
        "g": PATH_TG,
        "p": "delta 1\nzeta 1\np 0 1 2 1\n",
        "c": DP_CYCLE_TG,
        "d": DP_CYCLE_DECOMP,
        "f": "p cnf 2 2\n1 2 0\n-1 0\n",
    }
    calls = [
        ["reach", "-g", "{g}"],
        ["verify", "-g", "{g}", "-p", "{p}", "--source", "0", "--h", "3"],
        ["trlp", "-g", "{c}", "--delta", "1", "--zeta", "1", "--h", "4", "--decomp", "{d}"],
        ["gen", "sat-tsep", "-f", "{f}"],
        ["gen", "domset", "-g", "{g}", "-r", "1"],
    ]
    plain = {k: write(tmp_path, f"plain-{k}", t) for k, t in texts.items()}
    for k, t in texts.items():
        (tmp_path / f"bom-{k}").write_bytes(b"\xef\xbb\xbf" + t.encode())
    bommed = {k: str(tmp_path / f"bom-{k}") for k in texts}
    for call in calls:
        want = runner.invoke(main, [a.format(**plain) for a in call])
        res = runner.invoke(main, [a.format(**bommed) for a in call])
        assert want.exit_code in (0, 1), want.output
        assert (res.exit_code, res.output) == (want.exit_code, want.output)


def test_invocations_leave_no_output_stream_alive(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)

    def live_wrappers():
        gc.collect()
        return sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())

    before = live_wrappers()
    for args in (["reach", "-g", gpath], ["trp", "-g", gpath, "--delta", "1", "--h", "3"]) * 3:
        assert runner.invoke(main, args).exit_code == 0
    assert live_wrappers() == before


def shift_labels(text, offset):
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "e":
            parts[3:] = [str(int(t) + offset) for t in parts[3:]]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, strategy, zeta, h",
    [
        (DP_TREE_TG, "tree", 2, 6),
        (DP_TREE_TG, "tree", 1, 6),
        (DP_CYCLE_TG, "treewidth", 1, 5),
        (DP_CYCLE_TG, "treewidth", 0, 5),
    ],
    ids=["tree-yes", "tree-no", "cycle-yes", "cycle-no"],
)
def test_dp_answers_follow_shifted_labels(runner, tmp_path, text, strategy, zeta, h):
    # labels near a Unix timestamp: the DPs run on compressed time, so the
    # output is the same apart from PERTURB times, shifted by the offset
    offset = 1_700_000_000
    outs = []
    for name, body in (("base.tg", text), ("shifted.tg", shift_labels(text, offset))):
        args = ["trlp", "-g", write(tmp_path, name, body), "--delta", "1",
                "--zeta", str(zeta), "--h", str(h), "--strategy", strategy]
        res = runner.invoke(main, args)
        assert res.exit_code in (0, 1) and not isinstance(res.exception, Exception), res.output
        outs.append(res.output.splitlines())
    base, shifted = outs
    moved = [l for l in base if l.startswith("PERTURB ")]
    assert bool(moved) == (base[0] == "ANSWER yes")
    unshifted = []
    for line in shifted:
        parts = line.split()
        if parts[0] == "PERTURB":
            parts[3:] = [str(int(t) - offset) for t in parts[3:]]
        unshifted.append(" ".join(parts))
    assert unshifted == base


def test_internal_error_exits_two(runner, tmp_path, monkeypatch):
    # exit 1 means "no": an exception that is not a refusal must not read as one
    def broken(*args, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr("temporeach.cli.solve_trlp", broken)
    args = ["trlp", "-g", write(tmp_path, "g.tg", PATH_TG), "--delta", "1", "--zeta", "1", "--h", "3"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Traceback" in res.stderr and "RuntimeError: broken solver" in res.stderr


@pytest.mark.parametrize(
    "text", [PATH_TG, CHAIN4_TG, DP_TREE_TG, DP_CYCLE_TG, "n 3\ne 0 1 5\ne 1 2 3\n"],
    ids=["path", "chain4", "tree", "cycle", "late-first"],
)
def test_delta_past_lifetime_plus_n_answers_as_at_it(runner, tmp_path, text):
    # every time in [1, T+n+1] lies in every window at delta = T+n, so a
    # larger delta reaches nothing more; the sweeps must not grow with it
    gpath = write(tmp_path, "g.tg", text)
    g = parse_graph(text)
    for h in range(1, g.n + 1):
        calls = [["trp", "--h", str(h)]] + [
            ["trlp", "--zeta", str(z), "--h", str(h), "--strategy", "xp"] for z in (0, 1, 2)
        ]
        for call in calls:
            at_cap, huge = (
                runner.invoke(main, [*call, "-g", gpath, "--delta", str(d)])
                for d in (g.lifetime + g.n, 10**9)
            )
            assert (at_cap.exit_code, at_cap.output) == (huge.exit_code, huge.output), call


@pytest.mark.parametrize(
    "text, reason",
    [
        ("delta 1 2\nzeta 1\n", "line 1: 'delta' line needs exactly one value"),
        ("delta 1\nzeta x\n", "line 2: bad zeta value"),
        ("delta 1\nzeta 1\np 0 1 2\n", "line 3: 'p' line needs u v old new"),
        ("delta 1\nzeta 1\np 0 1 2 x\n", "line 3: non-integer field on 'p' line"),
        ("delta 1\nzeta 1\nq 1\n", "line 3: unknown line kind 'q'"),
        ("delta 1\np 0 1 2 1\n", "line 0: missing delta/zeta header"),
        ("delta 1\nzeta 1\np 0 2 1 2\n", "record (0, 2) 1->2: no such edge"),
        ("delta 1\nzeta 1\np 0 1 3 2\n", "record (0, 1) 3->2: 3 is not a label of (0, 1)"),
        ("delta 1\nzeta 2\np 0 1 2 1\np 0 1 2 3\n",
         "record (0, 1) 2->3: duplicate record for this appearance"),
    ],
    ids=["header-values", "header-value", "p-short", "p-field", "kind", "no-header",
         "no-edge", "not-a-label", "duplicate"],
)
def test_verify_refuses_malformed_perturbation(runner, tmp_path, text, reason):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", text)
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", "--h", "3"])
    assert res.exit_code == 2, res.output
    assert res.output == f"REFUSED {reason}\n"


def test_verify_reads_a_record_with_u_above_v(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    outputs = []
    for record in ("p 2 1 1 3", "p 1 2 1 3"):
        ppath = write(tmp_path, "p.txt", f"delta 2\nzeta 1\n{record}\n")
        res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", "--h", "3"])
        outputs.append((res.exit_code, res.output))
    assert outputs[0] == outputs[1] == (0, "RESULT VALID\nREACH 3\n")


def test_verify_eccentricity_above_k_is_invalid(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", "n 3\ne 0 1 1\ne 1 2 2\n")
    ppath = write(tmp_path, "p.txt", "delta 0\nzeta 0\n")
    args = ["verify", "-g", gpath, "-p", ppath, "--source", "0", "--variant", "shortest"]
    res = runner.invoke(main, [*args, "-k", "1"])
    assert res.exit_code == 1
    assert res.output == "RESULT INVALID\nREASON eccentricity above k=1\nECC 2\n"
    res = runner.invoke(main, [*args, "-k", "2"])
    assert (res.exit_code, res.output) == (0, "RESULT VALID\nECC 2\n")


@pytest.mark.parametrize("check", [[], ["--variant", "shortest"], ["-k", "2"]],
                         ids=["neither", "no-k", "no-variant"])
def test_verify_without_a_threshold_refused(runner, tmp_path, check):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    ppath = write(tmp_path, "p.txt", "delta 0\nzeta 0\n")
    res = runner.invoke(main, ["verify", "-g", gpath, "-p", ppath, "--source", "0", *check])
    assert res.exit_code == 2
    assert res.output == "REFUSED need --h or (--variant and -k)\n"


def test_json_refusal_line(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["trlp", "-g", gpath, "--delta", "1", "--zeta", "1", "--h", "9", "--json"])
    assert res.exit_code == 2
    assert res.output == '{"refused": "h must be in [1, n], got 9"}\n'


@pytest.mark.parametrize(
    "variant, k, code, output",
    [
        ("shortest", 2, 0,
         "ANSWER yes\nSOURCE 0\nECC 2\nREACH 3\nPERTURB 1 2 1 3\nSTRATEGY oracle\n"),
        ("fastest", 1, 0,
         "ANSWER yes\nSOURCE 0\nECC 1\nREACH 3\nPERTURB 1 2 1 3\nSTRATEGY oracle\n"),
        ("shortest", 1, 1, "ANSWER no\nSTRATEGY oracle\n"),
    ],
    ids=["shortest-yes", "fastest-yes", "no"],
)
def test_oracle_ecc_command(runner, tmp_path, variant, k, code, output):
    # (1,2) must move from 1 to 3 for 0 to reach 2
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["oracle", "ecc", "-g", gpath, "--source", "0", "--variant", variant,
                               "-k", str(k), "--delta", "2", "--zeta", "1"])
    assert (res.exit_code, res.output) == (code, output)
