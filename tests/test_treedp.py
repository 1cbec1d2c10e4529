import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporeach.reach import arrivals
from temporeach.solvers import TrlpInstance
from temporeach.tgraph import TemporalGraph, apply_perturbation, parse_graph
from temporeach.testkit import oracle_trlp_max_reach, random_instance
from temporeach.treedp import (
    MckpInstance,
    _reconstruct,
    _value_tables,
    mckp_solve,
    solve_trlp_tree,
    solve_trlp_tree_all_sources,
)


# --- MCKP --------------------------------------------------------------------


def exhaustive_mckp(classes, cap):
    best = [None] * (cap + 1)
    for combo in itertools.product(*classes):
        w = sum(x[0] for x in combo)
        p = sum(x[1] for x in combo)
        for c in range(w, cap + 1):
            if best[c] is None or p > best[c]:
                best[c] = p
    return best


def test_mckp_example():
    inst = MckpInstance(2, (((0, 0), (1, 3)), ((0, 0), (2, 4))))
    assert mckp_solve(inst) == [0, 3, 4]


def test_mckp_all_weight_zero():
    inst = MckpInstance(3, (((0, 1), (0, 5)), ((0, 2),)))
    assert mckp_solve(inst) == [7, 7, 7, 7]


def test_mckp_forced_single_choice():
    inst = MckpInstance(2, (((0, 0),),))
    assert mckp_solve(inst) == [0, 0, 0]


def test_mckp_infeasible_marker():
    inst = MckpInstance(2, (((3, 9),),))
    assert mckp_solve(inst) == [None, None, None]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 6),
)
def test_mckp_matches_exhaustive(classes, cap):
    inst = MckpInstance(cap, tuple(tuple(c) for c in classes))
    assert mckp_solve(inst) == exhaustive_mckp(classes, cap)


# --- tree DP ------------------------------------------------------------------


def random_tree_instances(count, seed0=0):
    return [random_instance(seed0 + i, "tree") for i in range(count)]


def test_tree_example_star_no_budget():
    star = parse_graph("n 5\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 0 4 1")
    res = solve_trlp_tree(TrlpInstance(star, 1, 0, 5), 0)
    assert res.answer and res.perturbation.perturbed_count == 0


def test_tree_example_strictness_blocks():
    g = parse_graph("n 4\ne 0 1 1\ne 1 2 1\ne 2 3 1")
    res = solve_trlp_tree_all_sources(TrlpInstance(g, 0, 3, 4))
    assert not res.answer


def test_tree_path_per_source():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    inst = TrlpInstance(g, 1, 1, 3)
    assert not solve_trlp_tree(inst, 0).answer  # only source 1 works here
    assert solve_trlp_tree(inst, 1).answer
    allres = solve_trlp_tree_all_sources(inst)
    assert allres.answer and allres.source == 1


def test_tree_certificate_uses_fewest_moves():
    # source 0 reaches 0, 1, 2 with no move, so the certificate must move nothing
    g = parse_graph("n 6\ne 0 1 4 20\ne 1 2 3\ne 1 3 21\ne 3 4 20\ne 4 5 9 40")
    res = solve_trlp_tree_all_sources(TrlpInstance(g, 1, 2, 3))
    assert res.answer and res.source == 0
    assert res.perturbation.moved_records() == ()
    assert res.reach_count == 3


def test_tree_rejects_non_tree():
    g = parse_graph("n 3\ne 0 1 1\ne 0 2 1\ne 1 2 1")
    with pytest.raises(ValueError):
        solve_trlp_tree(TrlpInstance(g, 1, 1, 3), 0)
    g2 = TemporalGraph(4, ((0, 1), (2, 3)), ((1,), (1,)))
    with pytest.raises(ValueError):
        solve_trlp_tree(TrlpInstance(g2, 1, 1, 2), 0)


def test_tree_state_monotonicity_and_maximality():
    inst = random_instance(3, "tree")
    g = inst.graph
    horizon = g.lifetime + inst.delta
    for source in range(g.n):
        value, _post, _children = _value_tables(inst, source)
        for v in range(g.n):
            table = value[v]
            for z in range(inst.zeta + 1):
                for t in range(horizon):
                    assert table[z][t] >= table[z][t + 1]
                if z < inst.zeta:
                    for t in range(horizon + 1):
                        assert table[z + 1][t] >= table[z][t]


def subtree_vertices(g, source, v):
    # vertices of v's subtree when the tree is rooted at source
    parent = {source: None}
    order = [source]
    stack = [source]
    while stack:
        x = stack.pop()
        for w, _ in g.adjacency[x]:
            if w not in parent:
                parent[w] = x
                order.append(w)
                stack.append(w)
    sub = {v}
    for x in order:
        if parent[x] in sub:
            sub.add(x)
    return sub


def test_tree_state_witness_soundness():
    # every stored state is witnessed by a reconstructible subtree perturbation
    for seed in range(8):
        inst = random_instance(seed, "tree")
        g = inst.graph
        horizon = g.lifetime + inst.delta
        for source in range(g.n):
            value, _post, children = _value_tables(inst, source)
            for v in range(g.n):
                sub = subtree_vertices(g, source, v)
                sub_edges = {
                    e for e in g.edges if e[0] in sub and e[1] in sub
                }
                restricted = TemporalGraph(
                    g.n,
                    tuple(sorted(sub_edges)),
                    tuple(g.labels[g.edge_index[e]] for e in sorted(sub_edges)),
                )
                for z in range(inst.zeta + 1):
                    for t in (0, horizon // 2, horizon):
                        records = []
                        _reconstruct(inst, value, children, v, z, t, records)
                        from temporeach.tgraph import Perturbation

                        p = Perturbation(inst.delta, inst.zeta, tuple(sorted(records)))
                        pg = apply_perturbation(restricted, p)
                        count = sum(
                            1 for a in arrivals(pg, v, min_departure=t) if a is not None
                        )
                        assert count >= value[v][z][t]


def test_tree_matches_oracle_sweep():
    for seed in range(25):
        inst = random_instance(seed, "tree")
        g = inst.graph
        best = oracle_trlp_max_reach(g, inst.delta, inst.zeta)
        for h in range(1, g.n + 1):
            probe = TrlpInstance(g, inst.delta, inst.zeta, h)
            res = solve_trlp_tree_all_sources(probe)
            assert res.answer == (h <= best), (seed, h, best)
            if res.answer:
                pg = apply_perturbation(g, res.perturbation)
                count = sum(1 for a in arrivals(pg, res.source) if a is not None)
                assert count >= h
                assert res.perturbation.perturbed_count <= inst.zeta
