import itertools

import pytest

from temporeach.limits import CapExceeded, WorkCaps
from temporeach.ecc import EccInstance, measure
from temporeach.reach import arrivals, reach_set
from temporeach.solvers import TrlpInstance
from temporeach.tgraph import TemporalGraph, apply_perturbation, parse_graph
from temporeach.testkit import (
    CnfFormula,
    StaticGraph,
    brute_domset,
    brute_sat,
    domset_to_trlp,
    enumerate_perturbations,
    oracle_ecc,
    oracle_ecc_min,
    oracle_trlp,
    oracle_trlp_max_reach,
    parse_dimacs,
    random_instance,
    sat_to_tfaep,
    sat_to_tsep,
)


def serialize_dimacs(f):
    """DIMACS text of ``f``, for the round trip through ``parse_dimacs``."""
    out = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        out.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(out) + "\n"


FIG_GRAPH = StaticGraph(5, ((0, 1), (0, 3), (1, 3), (1, 4), (2, 4)))


def naive_space(g, delta, zeta):
    """Independent enumeration: all per-edge injective target assignments."""
    per_edge = []
    for ts in g.labels:
        windows = [range(max(1, t - delta), t + delta + 1) for t in ts]
        options = []
        for targets in itertools.product(*windows):
            if len(set(targets)) == len(targets):
                moves = sum(1 for a, b in zip(ts, targets) if a != b)
                options.append((tuple(sorted(targets)), moves))
        per_edge.append(options)
    out = set()
    for combo in itertools.product(*per_edge):
        if sum(m for _lab, m in combo) <= zeta:
            out.add(tuple(lab for lab, _m in combo))
    return out


@pytest.mark.parametrize("delta,zeta", [(1, 0), (1, 1), (1, 2), (2, 1), (0, 2)])
def test_enumeration_covers_whole_space(delta, zeta):
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1 3")
    got = set()
    for p, pg in enumerate_perturbations(g, delta, zeta):
        assert p.perturbed_count <= zeta
        assert apply_perturbation(g, p) == pg
        got.add(pg.labels)
    assert got == naive_space(g, delta, zeta)


def test_enumeration_counts_each_assignment_once():
    g = parse_graph("n 2\ne 0 1 2")
    records = [p.records for p, _ in enumerate_perturbations(g, 1, 1)]
    assert len(records) == len(set(records))
    assert records[0] == ()  # identity first


def test_scan_first_witness_follows_enumeration_order():
    """The pruned scan's first witness is the first accepted perturbation of
    the unpruned enumeration, for both oracles."""
    compared = 0
    for seed in range(60):
        for profile in ("tree", "sparse", "treewidth2"):
            inst = random_instance(seed, profile)
            g, delta, zeta, h = inst.graph, inst.delta, max(inst.zeta, 2), inst.h
            space = list(enumerate_perturbations(g, delta, zeta))

            def reaching(pg):
                return next((s for s in range(g.n) if len(reach_set(pg, s)) >= h), None)

            want = next(((p, reaching(pg)) for p, pg in space if reaching(pg) is not None), None)
            got = oracle_trlp(TrlpInstance(g, delta, zeta, h))
            assert (got.perturbation, got.source) == (want or (None, None)), (seed, profile)
            compared += want is not None and want[0].perturbed_count > 0
            for variant in ("shortest", "fastest"):
                k = seed % 4

                def within(pg):
                    val = measure(pg, 0, variant)
                    return val is not None and val <= k

                want = next((p for p, pg in space if within(pg)), None)
                got = oracle_ecc(EccInstance(g, 0, k, delta, zeta, variant))
                assert got.perturbation == want, (seed, profile, variant)
                compared += want is not None and want.perturbed_count > 0
    assert compared >= 40  # witnesses that move something


def test_oracle_path_example():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    res = oracle_trlp(TrlpInstance(g, 1, 1, 3))
    assert res.answer
    # five single-record options exist; reach 3 already holds from vertex 1
    assert res.source == 1 and res.perturbation.perturbed_count == 0


def test_oracle_delta_zero_is_plain_reachability():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    assert oracle_trlp(TrlpInstance(g, 0, 3, 3)).answer
    g2 = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    assert not oracle_trlp(TrlpInstance(g2, 0, 5, 4)).answer


def test_oracle_zeta_zero_is_plain_reachability():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    assert not oracle_trlp(TrlpInstance(g, 2, 0, 4)).answer
    assert oracle_trlp(TrlpInstance(g, 2, 1, 4)).answer


def test_oracle_certificate_is_sound():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    inst = TrlpInstance(g, 1, 2, 4)
    res = oracle_trlp(inst)
    if res.answer:
        pg = apply_perturbation(g, res.perturbation)
        count = sum(1 for a in arrivals(pg, res.source) if a is not None)
        assert count >= inst.h


def test_oracle_cap():
    g = parse_graph("n 6\n" + "\n".join(f"e {u} {v} 3" for u, v in itertools.combinations(range(6), 2)))
    with pytest.raises(CapExceeded):
        oracle_trlp(TrlpInstance(g, 3, 15, 6), caps=WorkCaps(oracle_evals=10))


def test_oracle_max_reach_matches_decisions():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    best = oracle_trlp_max_reach(g, 1, 2)
    for h in range(1, 5):
        assert oracle_trlp(TrlpInstance(g, 1, 2, h)).answer == (h <= best)


def test_brute_sat():
    assert not brute_sat(CnfFormula(1, ((1,), (-1,))))
    assert brute_sat(CnfFormula(1, ((1, -1),)))
    assert brute_sat(CnfFormula(2, ((1, 2), (-1,), (-2, 1)))) is False


def test_brute_domset_fig_graph():
    assert brute_domset(FIG_GRAPH, 2)
    assert not brute_domset(FIG_GRAPH, 1)


def test_domset_reduction_shape():
    inst = domset_to_trlp(FIG_GRAPH, 2)
    g = inst.graph
    assert g.n == 11
    assert len(g.edges) == 20
    assert all(ts == (2,) for ts in g.labels)
    assert (inst.delta, inst.zeta, inst.h) == (1, 2, 11)


def test_domset_reduction_answers():
    yes = oracle_trlp(domset_to_trlp(FIG_GRAPH, 2))
    assert yes.answer
    no = oracle_trlp(domset_to_trlp(FIG_GRAPH, 1))
    assert not no.answer


def test_sat_tsep_gadget_times():
    f = CnfFormula(1, ((1,), (-1,)))
    inst = sat_to_tsep(f, 4, 1)
    g = inst.graph
    labelled = dict(zip(g.edges, g.labels))
    # v_s=0, v_{1,1..4} = 1..4, clause vertices 5, 6
    assert labelled[(0, 1)] == (1,)
    assert labelled[(0, 2)] == (5,)
    assert labelled[(1, 2)] == (2,)
    assert labelled[(2, 3)] == (4,)
    assert labelled[(3, 4)] == (7,)
    assert labelled[(3, 5)] == (4,)
    assert labelled[(4, 6)] == (8,)
    assert len(g.edges) == 7
    assert inst.zeta == 7 and inst.k == 4 and inst.variant == "shortest"


def test_sat_tfaep_gadget_times():
    f = CnfFormula(1, ((1,), (-1,)))
    inst = sat_to_tfaep(f, 2, 1)
    g = inst.graph
    labelled = dict(zip(g.edges, g.labels))
    assert labelled[(0, 1)] == (1,)
    assert labelled[(1, 2)] == (4,)  # positive literal clause
    assert labelled[(1, 3)] == (1,)  # negative literal clause
    assert inst.variant == "fastest" and inst.k == 1
    # x and ~x is unsatisfiable, so no perturbation may reach the threshold
    got = oracle_ecc_min(g, inst.source, inst.delta, inst.zeta, inst.variant)
    assert got is not None and got > inst.k


def test_gen_rejects_bad_parameters():
    f = CnfFormula(1, ((1,),))
    with pytest.raises(ValueError):
        sat_to_tsep(f, 3, 1)
    with pytest.raises(ValueError):
        sat_to_tfaep(f, 1, 1)
    with pytest.raises(ValueError):
        domset_to_trlp(FIG_GRAPH, 0)


def test_random_instance_deterministic():
    for profile in ("tree", "sparse", "treewidth2"):
        a = random_instance(7, profile)
        b = random_instance(7, profile)
        assert a == b
        c = random_instance(8, profile)
        assert a != c or profile != "tree"


def test_random_tree_profile_is_tree():
    for seed in range(20):
        inst = random_instance(seed, "tree")
        assert len(inst.graph.edges) == inst.graph.n - 1


def test_random_treewidth2_profile_width():
    from temporeach.twdp import decompose_exact_small

    for seed in range(10):
        inst = random_instance(seed, "treewidth2")
        d = decompose_exact_small(inst.graph.n, inst.graph.edges)
        assert d.width() <= 2


def test_dimacs_roundtrip():
    f = CnfFormula(3, ((1, -2), (3,), (-1, -3)))
    assert parse_dimacs(serialize_dimacs(f)) == f
