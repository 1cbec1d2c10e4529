import itertools
import random
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from temporeach.reach import (
    arrivals,
    foremost_tree,
    max_reachability,
    reach_counts,
    reach_set,
    sparsify_for_source,
)
from temporeach.cli import main
from temporeach.solvers import ALL_EDGES, _explore
from temporeach.tgraph import TemporalGraph, parse_graph

from test_tgraph import temporal_graphs


def brute_foremost(g: TemporalGraph, source: int, min_departure: int = 0) -> list:
    """Independent oracle: DFS over all simple strict temporal paths whose
    first edge is at a time >= min_departure."""
    best = [None] * g.n
    best[source] = 0

    def walk(v, t, visited):
        for w, ei in g.adjacency[v]:
            if w in visited:
                continue
            for lab in g.labels[ei]:
                if lab > t:
                    if best[w] is None or lab < best[w]:
                        best[w] = lab
                    walk(w, lab, visited | {w})

    walk(source, min_departure - 1, {source})
    return best


def test_star_arrivals():
    g = parse_graph("n 3\ne 0 1 5\ne 0 2 3")
    t = foremost_tree(g, 0)
    assert t.arrival == [0, 5, 3]


def test_path_blocked_by_ordering():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    t = foremost_tree(g, 0)
    assert t.arrival == [0, 2, None]
    assert brute_foremost(g, 0) == [0, 2, None]


def test_source_arrival_zero():
    g = parse_graph("n 2\ne 0 1 4")
    assert foremost_tree(g, 1).arrival[1] == 0


def test_reach_set_middle_of_path():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    assert reach_set(g, 1) == {0, 1, 2}


def test_reach_isolated_vertex():
    g = parse_graph("n 2\ne 0 1 1")
    g = TemporalGraph(3, g.edges, g.labels)
    assert reach_set(g, 2) == {2}


def test_max_reachability_examples():
    k4 = parse_graph("n 4\n" + "\n".join(f"e {u} {v} 1" for u, v in itertools.combinations(range(4), 2)))
    assert max_reachability(k4) == (0, 4)
    path = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    assert max_reachability(path) == (1, 3)
    lonely = TemporalGraph(1, (), ())
    assert max_reachability(lonely) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(temporal_graphs(max_n=6, max_t=4, max_labels=2), st.integers(0, 5), st.integers(0, 5))
def test_foremost_matches_brute_force(g, source, min_departure):
    source %= g.n
    tree = foremost_tree(g, source)
    assert list(tree.arrival) == brute_foremost(g, source)
    assert arrivals(g, source, min_departure) == brute_foremost(g, source, min_departure)
    exp = _explore(g, source, 0, frozenset())
    assert (tree.parent, tree.edge_time) == (exp.parent, exp.edge_time)


@settings(max_examples=200, deadline=None)
@given(temporal_graphs(max_n=6, max_t=4, max_labels=2))
def test_neighbourhood_containment(g):
    for v in range(g.n):
        nbrs = {w for w, _ in g.adjacency[v]}
        assert reach_set(g, v) >= nbrs | {v}


@settings(max_examples=150, deadline=None)
@given(temporal_graphs(max_n=5, max_t=4, max_labels=2), st.data())
def test_monotone_under_more_time_edges(g, data):
    extra = {}
    for e, ts in zip(g.edges, g.labels):
        more = data.draw(
            st.lists(st.integers(1, 6), max_size=2, unique=True), label=f"extra{e}"
        )
        extra[e] = tuple(sorted(set(ts) | set(more)))
    g2 = g.with_labels(extra)
    for v in range(g.n):
        a1, a2 = arrivals(g, v), arrivals(g2, v)
        for x in range(g.n):
            if a1[x] is not None:
                assert a2[x] is not None and a2[x] <= a1[x]
        assert reach_set(g, v) <= reach_set(g2, v)
    assert max_reachability(g)[1] <= max_reachability(g2)[1]


@settings(max_examples=150, deadline=None)
@given(temporal_graphs(max_n=6, max_t=4, max_labels=2), st.integers(0, 5))
def test_tree_paths_are_prefix_foremost(g, source):
    source %= g.n
    tree = foremost_tree(g, source)
    for v in range(g.n):
        if tree.arrival[v] is None or v == source:
            continue
        hops = tree.path_to(v)
        times = [t for _u, _w, t in hops]
        assert times == sorted(times) and len(set(times)) == len(times)
        for _u, w, t in hops:
            assert tree.arrival[w] == t


@settings(max_examples=150, deadline=None)
@given(temporal_graphs(max_n=6, max_t=4, max_labels=2), st.integers(0, 5))
def test_sparsify_preserves_reach_and_arrivals(g, source):
    source %= g.n
    sparse = sparsify_for_source(g, source)
    assert all(len(ts) == 1 for ts in sparse.labels)
    a1, a2 = arrivals(g, source), arrivals(sparse, source)
    assert a1 == a2


def test_sparsify_keeps_min_used_time():
    # edge (1,2) carries the tree time only
    g = parse_graph("n 3\ne 0 1 1\ne 0 2 2\ne 1 2 3 5")
    sparse = sparsify_for_source(g, 0)
    assert dict(zip(sparse.edges, sparse.labels)) == {(0, 1): (1,), (0, 2): (2,)}


def test_source_out_of_range():
    g = parse_graph("n 2\ne 0 1 1")
    with pytest.raises(ValueError):
        foremost_tree(g, 5)


def seeded_micro_graph(rng: random.Random) -> TemporalGraph:
    """Up to 7 vertices, up to three labels per edge, labels 1..6 so that
    windows of delta up to 3 get clipped at 1."""
    n = rng.randint(1, 7)
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(rng.sample(pairs, rng.randint(0, min(len(pairs), 9))))
    labels = tuple(tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 3)))) for _ in edges)
    return TemporalGraph(n, tuple(edges), labels)


def test_reach_counts_match_single_source_exploration():
    # the priority-queue exploration is a different algorithm for the same
    # quantity: one source at a time, forwards in time
    rng = random.Random(2026_10)
    for _ in range(400):
        g = seeded_micro_graph(rng)
        m = len(g.edges)
        subset = frozenset(i for i in range(m) if rng.random() < 0.4)
        cases = [(0, None, frozenset())]
        for d in (1, 2, 3):
            cases += [(d, None, ALL_EDGES), (d, subset, subset)]
        for d, widened, eset in cases:
            want = [_explore(g, s, d, eset).count() for s in range(g.n)]
            assert reach_counts(g, d, widened) == want, (g, d, widened)


def test_large_time_labels_take_no_extra_work(tmp_path):
    # labels near a Unix timestamp: the work must follow the number of
    # labels, not their size
    t = 1_700_000_000
    gpath = tmp_path / "g.tg"
    gpath.write_text(f"n 4\ne 0 1 {t} {t + 7}\ne 1 2 {t + 1}\ne 2 3 {t + 3}\n")
    runner = CliRunner()
    start = time.perf_counter()
    trp = runner.invoke(main, ["trp", "-g", str(gpath), "--delta", "2", "--h", "4"])
    best = runner.invoke(main, ["reach", "-g", str(gpath)])
    assert time.perf_counter() - start < 1.0
    assert trp.exit_code == 0 and "REACH 4" in trp.output
    assert best.exit_code == 0 and best.output.splitlines() == ["RMAX 4", "SOURCE 0"]
