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
)
from temporeach import reach
from temporeach.cli import main
from temporeach.solvers import ALL_EDGES, _explore
from temporeach.tgraph import TemporalGraph, parse_graph

from test_tgraph import temporal_graphs


def path_to(tree, v: int) -> list[tuple[int, int, int]]:
    """Tree path to a reachable v as (u, w, time) hops from the source."""
    hops = []
    while tree.parent[v] is not None:
        u = tree.parent[v]
        hops.append((u, v, tree.arrival[v]))
        v = u
    hops.reverse()
    return hops


def sparsify_for_source(g: TemporalGraph, source: int) -> TemporalGraph:
    """Keep only the foremost-tree edges, each at the single time its chosen
    path uses it; foremost arrivals and the reach set from ``source`` are
    unchanged."""
    tree = foremost_tree(g, source)
    kept: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        u = tree.parent[v]
        if u is None:
            continue
        e = (u, v) if u < v else (v, u)
        t = tree.arrival[v]
        if e not in kept or t < kept[e]:
            kept[e] = t
    edges = tuple(sorted(kept))
    return TemporalGraph(g.n, edges, tuple((kept[e],) for e in edges))


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
    assert (tree.parent, tree.arrival) == (exp.parent, exp.arrival)


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
        hops = path_to(tree, v)
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


def sweep_all(g: TemporalGraph, d: int, subsets: list) -> list:
    """(chunk, field width, fields, packed counts, thresholds x = 1..n+1) per
    chunk; fields[j][s] is source s's reach set under chunk[j]."""
    sweep = reach.SubsetSweep(g, d)
    out = []
    for chunk in sweep.chunks(iter(subsets)):
        fields = [[(sweep.fwd[s] >> (j * sweep.width)) & ((1 << sweep.width) - 1)
                   for s in range(g.n)] for j in range(len(chunk))]
        counts = [sweep.counts(s) for s in range(g.n)]
        hits = [[sweep.at_least(c, x) for x in range(1, g.n + 2)] for c in counts]
        out.append((chunk, sweep.width, fields, counts, hits))
    return out


def check_subset_sweep(g: TemporalGraph, d: int, subsets: list, capacity: int) -> None:
    """Every field of every chunk holds its subset's reach sets, and the packed
    counts and thresholds read them back."""
    chunks = sweep_all(g, d, subsets)
    assert [len(c[0]) for c in chunks] == [
        min(capacity, len(subsets) - i) for i in range(0, len(subsets), capacity)
    ]
    assert [sub for c in chunks for sub in c[0]] == subsets
    for chunk, width, fields, counts, hits in chunks:
        for j, sub in enumerate(chunk):
            for s in range(g.n):
                arrival = _explore(g, s, d, frozenset(sub)).arrival
                assert fields[j][s] == sum(1 << v for v, a in enumerate(arrival) if a is not None)
        for s in range(g.n):
            want = [fields[j][s].bit_count() for j in range(len(chunk))]
            assert counts[s] == sum(c << (j * width) for j, c in enumerate(want))
            for x, got in enumerate(hits[s], start=1):
                top = sum(1 << (j * width + width - 1) for j, c in enumerate(want) if c >= x)
                assert got == top, (g, d, s, x)


def test_reach_counts_match_single_source_exploration(monkeypatch):
    # the priority-queue exploration is a different algorithm for the same
    # quantity: one source at a time, forwards in time
    rng = random.Random(2026_10)
    for _ in range(400):
        g = seeded_micro_graph(rng)
        m = len(g.edges)
        subset = tuple(i for i in range(m) if rng.random() < 0.4)
        cases = [(0, None, frozenset())]
        for d in (1, 2, 3):
            cases += [(d, None, ALL_EDGES), (d, subset, frozenset(subset))]
        for d, widened, eset in cases:
            want = [_explore(g, s, d, eset).count() for s in range(g.n)]
            if widened is None:
                assert reach_counts(g, d) == want, (g, d)
            else:
                fields = sweep_all(g, d, [widened])[0][2]
                assert [f.bit_count() for f in fields[0]] == want, (g, d, widened)
    # multi-subset sweeps: chunk capacity - 1, equal and + 1 subsets, with the
    # bit budget lowered to four fields; n straddles the field widths
    rng = random.Random(2026_16)
    for n in (1, 2, 5, 7, 8, 9, 16, 17, 31, 33, 64, 65):
        for _ in range(3):
            pairs = list(itertools.combinations(range(n), 2))
            edges = tuple(sorted(rng.sample(pairs, min(len(pairs), n + 2))))
            labels = tuple(tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 2)))) for _ in edges)
            g = TemporalGraph(n, edges, labels)
            width = reach.SubsetSweep(g, 0).width
            monkeypatch.setattr(reach, "SWEEP_BITS", 4 * width)
            for d in (0, 1, 2):
                for count in (3, 4, 5):
                    sizes = [rng.randint(0, min(2, len(edges))) for _ in range(count * 3)]
                    subsets = sorted({tuple(sorted(rng.sample(range(len(edges)), k))) for k in sizes})
                    subsets = subsets[:count]
                    check_subset_sweep(g, d, subsets, 4)
            monkeypatch.undo()


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


def test_sweeps_at_huge_delta_match_lifetime_plus_n():
    # every time in [1, T+n+1] lies in every window at delta = T+n, so a
    # larger delta reaches nothing more, and the sweeps cap it there
    rng = random.Random(2026_19)
    for _ in range(100):
        g = seeded_micro_graph(rng)
        cap = g.lifetime + g.n
        subsets = [(), tuple(i for i in range(len(g.edges)) if rng.random() < 0.5)]
        assert reach_counts(g, 10**9) == reach_counts(g, cap), g
        assert sweep_all(g, 10**9, subsets) == sweep_all(g, cap, subsets), g
