import gc
import itertools
import json

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper

from temporeach.cli import main

PATH_TG = "n 3\ne 0 1 2\ne 1 2 1\n"
CHAIN4_TG = "n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2\n"
FIG_STATIC = "n 5\ne 0 1\ne 0 3\ne 1 3\ne 1 4\ne 2 4\n"
# labels >= 2 (= delta+1), so shifting them never meets the floor of 1
DP_TREE_TG = "n 6\ne 0 1 4 20\ne 1 2 3\ne 1 3 21\ne 3 4 20\ne 4 5 9 40\n"
DP_CYCLE_TG = "n 5\ne 0 1 3\ne 0 4 2\ne 1 2 3\ne 2 3 12\ne 3 4 12\n"


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


def test_trp_command(runner, tmp_path):
    gpath = write(tmp_path, "g.tg", PATH_TG)
    res = runner.invoke(main, ["trp", "-g", gpath, "--delta", "1", "--h", "3"])
    assert res.exit_code == 0
    assert "STRATEGY trp" in res.output


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


def test_gen_domset(runner, tmp_path):
    gpath = write(tmp_path, "static.txt", FIG_STATIC)
    out = str(tmp_path / "inst.tg")
    res = runner.invoke(main, ["gen", "domset", "-g", gpath, "-r", "2", "-o", out])
    assert res.exit_code == 0
    text = open(out).read()
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
    text = open(out).read()
    assert "variant shortest" in text and "k 4" in text


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


def test_reach_empty_graph_refused(runner, tmp_path):
    gpath = write(tmp_path, "empty.tg", "n 0\n")
    res = runner.invoke(main, ["reach", "-g", gpath])
    assert res.exit_code == 2
    assert res.output.startswith("REFUSED ")


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
