import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporeach.reach import arrivals
from temporeach.solvers import TrlpInstance
from temporeach import treedp
from temporeach.tgraph import (
    Perturbation,
    TemporalGraph,
    apply_perturbation,
    compress_time,
    parse_graph,
)
from temporeach.testkit import oracle_trlp_max_reach, random_instance
from temporeach.treedp import _merge, _reconstruct, _table, solve_trlp_tree


# --- max-plus merge of child rows -----------------------------------------------


def merged_budgets(picks, w):
    # the budget each child takes when the children share w, first child first
    budgets = []
    for pick in reversed(picks):
        budgets.append(pick[w])
        w -= pick[w]
    return budgets[::-1]


def test_merge_example():
    rows = [[(0, None, False), (3, 1, True)], [(0, None, False), (0, 2, False), (4, 2, True)]]
    totals, picks = _merge(rows, 2)
    assert totals == [0, 3, 4]
    assert [merged_budgets(picks, w) for w in range(3)] == [[0, 0], [1, 0], [0, 2]]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda cap: st.tuples(
            st.just(cap),
            st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=cap + 1), max_size=4),
        )
    )
)
def test_merge_matches_exhaustive_choice(case):
    # small gains make ties common: among the best splits within budget w, the
    # merge takes the smallest budget for the last child, then for the one
    # before it, and so on
    cap, gains = case
    rows = [[(gain, b, b % 2 == 1) for b, gain in enumerate(row)] for row in gains]
    totals, picks = _merge(rows, cap)
    for w in range(cap + 1):
        best = None
        for split in itertools.product(*(range(len(row)) for row in gains)):
            if sum(split) > w:
                continue
            key = (-sum(row[b] for row, b in zip(gains, split)), split[::-1])
            if best is None or key < best:
                best = key
        assert totals[w] == -best[0]
        assert merged_budgets(picks, w) == list(best[1][::-1])


# --- tree DP ------------------------------------------------------------------


def random_tree_instances(count, seed0=0):
    return [random_instance(seed0 + i, "tree") for i in range(count)]


def all_tables(inst):
    # every source's root table and every table below it, in one memo
    tables = {}
    for source in range(inst.graph.n):
        _table(inst, tables, source, -1)
    return tables


def test_tree_example_star_no_budget():
    star = parse_graph("n 5\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 0 4 1")
    res = solve_trlp_tree(TrlpInstance(star, 1, 0, 5))
    assert res.answer and res.source == 0 and res.perturbation.perturbed_count == 0


def test_tree_example_strictness_blocks():
    g = parse_graph("n 4\ne 0 1 1\ne 1 2 1\ne 2 3 1")
    res = solve_trlp_tree(TrlpInstance(g, 0, 3, 4))
    assert not res.answer


def test_tree_path_per_source():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    inst = TrlpInstance(g, 1, 1, 3)
    tables = {}
    assert _table(inst, tables, 0, -1)[1][0] < 3  # only source 1 works here
    assert _table(inst, tables, 1, -1)[1][0] == 3
    res = solve_trlp_tree(inst)
    assert res.answer and res.source == 1 and res.reach_count == 3


def test_tree_certificate_uses_fewest_moves():
    # source 0 reaches 0, 1, 2 with no move, so the certificate must move nothing
    g = parse_graph("n 6\ne 0 1 4 20\ne 1 2 3\ne 1 3 21\ne 3 4 20\ne 4 5 9 40")
    res = solve_trlp_tree(TrlpInstance(g, 1, 2, 3))
    assert res.answer and res.source == 0
    assert res.perturbation.moved_records() == ()
    assert res.reach_count == 3


def test_tree_rejects_non_tree():
    g = parse_graph("n 3\ne 0 1 1\ne 0 2 1\ne 1 2 1")
    g2 = TemporalGraph(4, ((0, 1), (2, 3)), ((1,), (1,)))
    g3 = TemporalGraph(4, ((0, 1), (0, 2), (1, 2)), ((1,), (1,), (1,)))  # n - 1 edges
    for bad, h in ((g, 3), (g2, 2), (g3, 2)):
        with pytest.raises(ValueError, match="^underlying graph is not a connected tree$"):
            solve_trlp_tree(TrlpInstance(bad, 1, 1, h))


def test_tree_state_monotonicity_and_maximality():
    inst = random_instance(3, "tree")
    g = inst.graph
    horizon = g.lifetime + inst.delta
    tables = all_tables(inst)
    assert len(tables) == 3 * g.n - 2
    for table in tables.values():
        for z in range(inst.zeta + 1):
            for t in range(horizon):
                assert table[z][t] >= table[z][t + 1]
            if z < inst.zeta:
                for t in range(horizon + 1):
                    assert table[z + 1][t] >= table[z][t]


def seeded_tree(rng, n, max_labels, offset):
    # random labelled tree: vertex v joins a random earlier vertex
    edges = sorted((rng.randrange(v), v) for v in range(1, n))
    labels = tuple(
        tuple(sorted(rng.sample(range(offset, offset + 6), rng.randint(1, max_labels))))
        for _ in edges
    )
    return TemporalGraph(n, tuple(edges), labels)


def test_shared_tables_equal_fresh_per_source():
    rng = random.Random("shared-tables")
    for _ in range(120):
        g = seeded_tree(rng, rng.randint(1, 10), 3, rng.choice((1, 3, 50)))
        delta = rng.randint(0, 2)
        small, _shift = compress_time(g, delta)
        inst = TrlpInstance(small, delta, rng.randint(0, 3), rng.randint(1, g.n))
        tables = all_tables(inst)
        # one root table per source and one per directed edge
        assert len(tables) == 3 * g.n - 2
        for source in range(g.n):
            fresh = {}
            _table(inst, fresh, source, -1)
            assert all(tables[key] == table for key, table in fresh.items())


def test_all_sources_builds_each_subtree_table_once(monkeypatch):
    # a "no" on a 40-vertex tree tries every source; without shared tables
    # every source would rebuild every internal vertex's table
    g = seeded_tree(random.Random("forty"), 40, 2, 1)
    inst = TrlpInstance(g, 1, 3, g.n)
    calls = 0
    real = treedp._merge

    def counting(rows, cap):
        nonlocal calls
        calls += 1
        return real(rows, cap)

    monkeypatch.setattr(treedp, "_merge", counting)
    res = solve_trlp_tree(inst)
    assert not res.answer
    horizon = compress_time(g, inst.delta)[0].lifetime + inst.delta
    assert calls <= (3 * g.n - 2) * (horizon + 2)


def test_all_sources_compress_time_once(monkeypatch):
    # a "no" on a 10-vertex path tries every source
    g = parse_graph("n 10\n" + "".join(f"e {v} {v + 1} 5\n" for v in range(9)))
    calls = 0
    real = treedp.compress_time

    def counting(graph, delta):
        nonlocal calls
        calls += 1
        return real(graph, delta)

    monkeypatch.setattr(treedp, "compress_time", counting)
    res = solve_trlp_tree(TrlpInstance(g, 1, 1, g.n))
    assert not res.answer and res.reach_count < g.n
    assert calls == 1


def subtree_vertices(g, v, parent):
    # v's component of the tree without parent (the whole tree for -1)
    sub = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w, _ in g.adjacency[x]:
            if w != parent and w not in sub:
                sub.add(w)
                stack.append(w)
    return sub


def test_tree_state_witness_soundness():
    # every stored state is witnessed by a reconstructible subtree perturbation
    for seed in range(8):
        inst = random_instance(seed, "tree")
        g = inst.graph
        horizon = g.lifetime + inst.delta
        tables = all_tables(inst)
        for (v, parent), table in tables.items():
            sub = subtree_vertices(g, v, parent)
            sub_edges = sorted(e for e in g.edges if e[0] in sub and e[1] in sub)
            restricted = TemporalGraph(
                g.n, tuple(sub_edges), tuple(g.labels[g.edge_index[e]] for e in sub_edges)
            )
            for z in range(inst.zeta + 1):
                for t in (0, horizon // 2, horizon):
                    records = _reconstruct(inst, tables, v, parent, z, t)
                    p = Perturbation(inst.delta, inst.zeta, tuple(records))
                    pg = apply_perturbation(restricted, p)
                    count = sum(
                        1 for a in arrivals(pg, v, min_departure=t) if a is not None
                    )
                    assert count >= table[z][t]


def test_tree_matches_oracle_sweep():
    for seed in range(25):
        inst = random_instance(seed, "tree")
        g = inst.graph
        best = oracle_trlp_max_reach(g, inst.delta, inst.zeta)
        for h in range(1, g.n + 1):
            probe = TrlpInstance(g, inst.delta, inst.zeta, h)
            res = solve_trlp_tree(probe)
            assert res.answer == (h <= best), (seed, h, best)
            if res.answer:
                pg = apply_perturbation(g, res.perturbation)
                count = sum(1 for a in arrivals(pg, res.source) if a is not None)
                assert count >= h
                assert res.perturbation.perturbed_count <= inst.zeta


def test_skipped_sources_leave_results_unchanged(monkeypatch):
    # a source whose widened reach bound is at most the best so far can
    # neither answer yes nor raise the no's count, and tables are memoised by
    # directed edge whichever source builds them: the results equal those of
    # a bound of n, which skips no source
    for seed in range(100):
        g = random_instance(seed, "tree").graph
        for delta, zeta in itertools.product(range(3), repeat=2):
            for h in range(1, g.n + 1):
                inst = TrlpInstance(g, delta, zeta, h)
                real = solve_trlp_tree(inst)
                with monkeypatch.context() as m:
                    m.setattr(treedp, "reach_counts", lambda graph, _delta: [graph.n] * graph.n)
                    assert solve_trlp_tree(inst) == real, (seed, delta, zeta, h)


def test_delta_past_lifetime_plus_n_answers_as_at_it():
    # every time in [1, T+n+1] lies in every window at delta = T+n, so a
    # larger delta must give the same answer, source, count and moves.  The
    # first graph once took 1.4 s at delta = 1e5 and ran out of memory at 1e9.
    graphs = [parse_graph("n 3\ne 0 1 5\ne 1 2 3\n")]
    graphs += [random_instance(seed, "tree").graph for seed in range(40)]
    for g in graphs:
        for zeta in (0, 1, 2):
            for h in range(1, g.n + 1):
                at_cap, huge = (
                    solve_trlp_tree(TrlpInstance(g, d, zeta, h)) for d in (g.lifetime + g.n, 10**9)
                )
                assert huge.perturbation is None or huge.perturbation.delta == 10**9
                assert (at_cap.answer, at_cap.source, at_cap.reach_count) == (
                    huge.answer, huge.source, huge.reach_count)
                if huge.answer:
                    assert at_cap.perturbation.records == huge.perturbation.records
