import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporeach.ecc import (
    EccInstance,
    _hop_depth,
    ecc_within,
    fastest_ecc,
    measure,
    shortest_ecc,
    solve_ecc_perturbed,
)
from temporeach.reach import arrivals
from temporeach.tgraph import TemporalGraph, apply_perturbation, parse_graph
from temporeach.testkit import oracle_ecc, oracle_ecc_min

from test_tgraph import temporal_graphs

STAR = parse_graph("n 4\ne 0 1 1\ne 0 2 1\ne 0 3 1")


def brute_shortest_ecc(g, source):
    best = {source: 0}

    def walk(v, t, hops, visited):
        for w, ei in g.adjacency[v]:
            if w in visited:
                continue
            for lab in g.labels[ei]:
                if lab > t:
                    if w not in best or hops + 1 < best[w]:
                        best[w] = hops + 1
                    walk(w, lab, hops + 1, visited | {w})

    walk(source, 0, 0, {source})
    return max(best.values()) if len(best) == g.n else None


def brute_fastest_ecc(g, source):
    best = {source: 0}

    def walk(v, t0, t, visited):
        for w, ei in g.adjacency[v]:
            if w in visited:
                continue
            for lab in g.labels[ei]:
                if lab > t:
                    start = t0 if t0 is not None else lab
                    if w not in best or lab - start < best[w]:
                        best[w] = lab - start
                    walk(w, start, lab, visited | {w})

    walk(source, None, 0, {source})
    return max(best.values()) if len(best) == g.n else None


def brute_hop_depth(g, source, limit):
    # layered search over (vertex, arrival) states: layer k holds every state
    # some strict temporal walk with exactly k edges ends in
    layer = {(source, 0)}
    reached = {source}
    for k in range(limit + 1):
        if len(reached) == g.n:
            return k
        layer = {
            (w, lab)
            for v, t in layer
            for w, ei in g.adjacency[v]
            for lab in g.labels[ei]
            if lab > t
        }
        reached |= {w for w, _ in layer}
    return None


def test_hop_depth_matches_layered_search():
    # multi-label edges let a vertex reached early in hops be reached earlier
    # in time a few hops later; that improvement must be relaxed again
    rng = random.Random("hop-depth")
    for _ in range(400):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(0, len(pairs))))
        labels = tuple(
            tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 3)))) for _ in edges
        )
        g = TemporalGraph(n, tuple(edges), labels)
        for source in range(n):
            for limit in range(n + 1):
                assert _hop_depth(g, source, limit) == brute_hop_depth(g, source, limit)


def test_hop_depth_relaxes_improved_arrivals():
    # 1 is reached at 10 in one hop, improves to 2 in two; only then is 3 reachable
    g = parse_graph("n 4\ne 0 1 10\ne 0 2 1\ne 1 2 2\ne 1 3 5")
    assert _hop_depth(g, 0, 3) == 3 == brute_hop_depth(g, 0, 3)


def test_shortest_examples():
    assert shortest_ecc(STAR, 0) == 1
    g = parse_graph("n 3\ne 0 1 1\ne 1 2 2")
    assert shortest_ecc(g, 0) == 2
    blocked = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    assert shortest_ecc(blocked, 0) is None


def test_fastest_examples():
    assert fastest_ecc(STAR, 0) == 0
    g = parse_graph("n 3\ne 0 1 1\ne 1 2 2")
    assert fastest_ecc(g, 0) == 1
    blocked = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    assert fastest_ecc(blocked, 0) is None


def test_fastest_prefers_later_start():
    # starting at 3 gives duration 1 to the far end; starting at 1 would cost 3
    g = parse_graph("n 3\ne 0 1 1 3\ne 1 2 4")
    assert fastest_ecc(g, 0) == 1


@settings(max_examples=200, deadline=None)
@given(temporal_graphs(max_n=5, max_t=4, max_labels=2), st.integers(0, 4))
def test_ecc_matches_brute_force(g, source):
    source %= g.n
    assert shortest_ecc(g, source) == brute_shortest_ecc(g, source)
    assert fastest_ecc(g, source) == brute_fastest_ecc(g, source)


@settings(max_examples=100, deadline=None)
@given(temporal_graphs(max_n=5, max_t=3, max_labels=2), st.integers(0, 4), st.integers(0, 5))
def test_ecc_within_agrees_with_measure(g, source, k):
    source %= g.n
    for variant in ("shortest", "fastest"):
        val = measure(g, source, variant)
        got = ecc_within(g, source, k, variant)
        assert got == (val if val is not None and val <= k else None)
        assert got is None or type(got) is int


def test_duration_bounded_by_arrival_minus_one():
    # any strict path departing at >= 1 has duration <= arrival - 1
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 3\ne 0 3 5")
    arr = arrivals(g, 0)
    fe = [None] * 4
    for v in range(4):
        if arr[v] is not None and v != 0:
            assert arr[v] - 1 >= 0
    assert fastest_ecc(g, 0) <= max(a for a in arr if a is not None) - 1


def test_large_perturbation_branch_path():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    yes = solve_ecc_perturbed(EccInstance(g, 0, 2, 2, 2, "shortest"))
    assert yes.answer and yes.strategy == "large-delta"
    fast = solve_ecc_perturbed(EccInstance(g, 0, 1, 2, 2, "fastest"))
    assert fast.answer
    no = solve_ecc_perturbed(EccInstance(g, 0, 0, 2, 2, "fastest"))
    assert not no.answer


def test_large_perturbation_disconnected():
    g = TemporalGraph(3, ((0, 1),), ((1,),))
    res = solve_ecc_perturbed(EccInstance(g, 0, 99, 5, 5, "shortest"))
    assert not res.answer


def test_large_perturbation_certificate_achieves_value():
    g = parse_graph("n 5\ne 0 1 3\ne 1 2 1\ne 2 3 2\ne 1 4 2")
    inst = EccInstance(g, 0, 3, g.lifetime, g.n - 1, "shortest")
    res = solve_ecc_perturbed(inst)
    assert res.answer
    pg = apply_perturbation(g, res.perturbation)
    assert shortest_ecc(pg, 0) <= inst.k


def test_exhaustive_branch_used_when_small_params():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    res = solve_ecc_perturbed(EccInstance(g, 0, 2, 1, 1, "shortest"))
    assert res.strategy == "exhaustive"
    assert not res.answer  # one move cannot untangle the 2-then-1 ordering
    res2 = solve_ecc_perturbed(EccInstance(g, 0, 2, 1, 2, "shortest"))
    assert res2.answer  # (01)->1 and (12)->2 give the 1,2 chain
    assert res2.perturbation.perturbed_count <= 2


def test_singleton_vacuous_yes():
    g = TemporalGraph(1, (), ())
    for variant in ("shortest", "fastest"):
        res = solve_ecc_perturbed(EccInstance(g, 0, 0, 1, 1, variant))
        assert res.answer


@settings(max_examples=40, deadline=None)
@given(temporal_graphs(max_n=4, max_t=2, max_labels=1, max_edges=4), st.integers(0, 3))
def test_branch_agreement_where_both_apply(g, source):
    source %= g.n
    delta, zeta = g.lifetime, g.n - 1
    if delta == 0:
        delta = 1
    for variant in ("shortest", "fastest"):
        for k in range(0, g.n + 1):
            inst = EccInstance(g, source, k, delta, zeta, variant)
            fast = solve_ecc_perturbed(inst)
            slow = oracle_ecc(inst)
            assert fast.answer == slow.answer, (g, source, k, variant)


@settings(max_examples=30, deadline=None)
@given(temporal_graphs(max_n=4, max_t=3, max_labels=1, max_edges=4), st.integers(0, 3))
def test_monotone_in_k(g, source):
    source %= g.n
    for variant in ("shortest", "fastest"):
        vals = [
            oracle_ecc(EccInstance(g, source, k, 1, 2, variant)).answer
            for k in range(g.n + 1)
        ]
        assert vals == sorted(vals)  # False... then True...


def test_oracle_ecc_min_consistency():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    m = oracle_ecc_min(g, 0, 1, 2, "shortest")
    for k in range(4):
        assert oracle_ecc(EccInstance(g, 0, k, 1, 2, "shortest")).answer == (
            m is not None and m <= k
        )
