import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporeach import solvers
from temporeach.cli import trlp
from temporeach.limits import CapExceeded, WorkCaps
from temporeach.reach import arrivals, max_reachability
from temporeach.solvers import (
    STRATEGIES,
    TrlpInstance,
    _explore,
    solve_trlp,
    solve_trlp_big_zeta,
    solve_trlp_xp,
    solve_trp,
    xp_work_estimate,
)
from temporeach.tgraph import (
    Perturbation,
    TemporalGraph,
    apply_perturbation,
    parse_graph,
    validate_relabelling,
)
from temporeach.testkit import (
    PROFILES,
    enumerate_perturbations,
    oracle_trlp,
    oracle_trlp_max_reach,
    random_instance,
)

from test_tgraph import temporal_graphs


def micro_graphs():
    # enumeration-sized: at most ~10 time-edges keeps full sweeps fast
    return temporal_graphs(max_n=5, max_t=3, max_labels=2, max_edges=5)


def tiny_graphs():
    # for tests that enumerate with an unlimited move budget
    return temporal_graphs(max_n=5, max_t=3, max_labels=1, max_edges=5)


# --- solve_trp -------------------------------------------------------------


def test_trp_path_example():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    res = solve_trp(g, 1, 3)
    assert res.answer and res.source == 0 and res.reach_count == 3
    pg = apply_perturbation(g, res.perturbation)
    assert sum(1 for a in arrivals(pg, 0) if a is not None) == 3


def test_trp_delta_zero():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    res = solve_trp(g, 0, 4)
    assert not res.answer
    assert res.reach_count == max_reachability(g)[1]


def test_trp_h_one():
    g = parse_graph("n 2\ne 0 1 1")
    res = solve_trp(g, 0, 1)
    assert res.answer and res.perturbation.perturbed_count == 0


def test_trp_negative_delta_rejected():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        solve_trp(g, -1, 1)


@settings(max_examples=60, deadline=None)
@given(temporal_graphs(max_n=5, max_t=3, max_labels=2, max_edges=3), st.integers(0, 2))
def test_trp_count_and_pointwise_optimality(g, delta):
    res = solve_trp(g, delta, 1)
    best = oracle_trlp_max_reach(g, delta, g.num_time_edges())
    assert res.reach_count == best
    src = res.source
    cert_arr = arrivals(apply_perturbation(g, res.perturbation), src)
    for _p, pg in enumerate_perturbations(g, delta, g.num_time_edges()):
        other = arrivals(pg, src)
        for v in range(g.n):
            if other[v] is not None:
                assert cert_arr[v] is not None and cert_arr[v] <= other[v]


def test_trp_certificate_validates():
    g = parse_graph("n 4\ne 0 1 3\ne 1 2 1\ne 2 3 1")
    res = solve_trp(g, 2, 4)
    assert res.answer
    moved = validate_relabelling(g, apply_perturbation(g, res.perturbation), 2)
    assert moved is not None and moved <= res.perturbation.perturbed_count


# --- Algorithm-1 explorer ---------------------------------------------------


def explore_with_perturbable_set(g, source, k, delta, eset):
    """True iff some delta-perturbation touching only the edges in ``eset``
    lets ``source`` reach at least k vertices."""
    idx = frozenset(g.edge_index[e] for e in eset)
    return _explore(g, source, delta, idx).count() >= k


def test_explore_examples():
    g = parse_graph("n 3\ne 0 1 3\ne 1 2 3")
    assert explore_with_perturbable_set(g, 0, 3, 1, frozenset({(1, 2)}))
    assert not explore_with_perturbable_set(g, 0, 3, 1, frozenset())
    assert explore_with_perturbable_set(g, 0, 1, 0, frozenset())


def eset_oracle(g, source, k, delta, eset):
    for _p, pg in enumerate_perturbations(g, delta, g.num_time_edges(), eset=eset):
        if sum(1 for a in arrivals(pg, source) if a is not None) >= k:
            return True
    return False


@settings(max_examples=120, deadline=None)
@given(micro_graphs(), st.integers(0, 4), st.integers(1, 2), st.data())
def test_explore_matches_restricted_oracle(g, source, delta, data):
    source %= g.n
    esize = min(2, len(g.edges))
    eset = frozenset(
        data.draw(st.lists(st.sampled_from(g.edges), unique=True, max_size=esize))
        if g.edges
        else []
    )
    for k in range(1, g.n + 1):
        assert explore_with_perturbable_set(g, source, k, delta, eset) == eset_oracle(
            g, source, k, delta, eset
        )


# --- XP enumeration ----------------------------------------------------------


def test_xp_zeta_zero():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    inst = TrlpInstance(g, 1, 0, 4)
    assert not solve_trlp_xp(inst).answer
    assert solve_trlp_xp(TrlpInstance(g, 1, 0, 3)).answer


def test_xp_work_cap():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    with pytest.raises(CapExceeded):
        solve_trlp_xp(TrlpInstance(g, 1, 2, 4), caps=WorkCaps(xp_ops=1))


def test_xp_estimate_prices_the_sweep():
    # one all-sources sweep per subset: 601 subsets * (600 + 200) is far
    # below the default cap, which a per-source price (x n x 2m) exceeded
    rng = random.Random(11)
    n = 200
    edges = sorted(rng.sample(list(itertools.combinations(range(n), 2)), 600))
    g = TemporalGraph(n, tuple(edges), tuple((rng.randint(1, 20),) for _ in edges))
    assert xp_work_estimate(g, 1) == 601 * 800
    res = solve_trlp(TrlpInstance(g, 1, 1, n), strategy="xp")
    assert res.strategy == "xp"


@settings(max_examples=80, deadline=None)
@given(micro_graphs(), st.integers(0, 2), st.integers(0, 2), st.integers(1, 5))
def test_xp_matches_oracle(g, delta, zeta, h):
    h = min(h, g.n)
    inst = TrlpInstance(g, delta, zeta, h)
    got = solve_trlp_xp(inst)
    want = oracle_trlp(inst)
    assert got.answer == want.answer
    if got.answer:
        pg = apply_perturbation(g, got.perturbation)
        assert sum(1 for a in arrivals(pg, got.source) if a is not None) >= h
        assert got.perturbation.perturbed_count <= zeta


def test_xp_no_reports_bounded_optimum():
    # sources 0, 1, 3 and 4 fail the all-perturbable pre-pass, yet reach 4
    # with one move; a no must report the best over all sources and subsets
    g = parse_graph("n 5\ne 0 1 2\ne 1 2 3\ne 2 3 3\ne 3 4 2")
    res = solve_trlp_xp(TrlpInstance(g, 1, 1, 5))
    assert not res.answer
    assert res.reach_count == oracle_trlp_max_reach(g, 1, 1) == 4


def test_xp_no_count_is_the_oracle_maximum():
    # on the seeded micro instances whose bounded optimum is below n, XP's no
    # at h = optimum + 1 reports that optimum
    checked = 0
    for profile in PROFILES:
        for seed in range(150):
            inst = random_instance(seed, profile)
            g, delta, zeta = inst.graph, inst.delta, inst.zeta
            opt = oracle_trlp_max_reach(g, delta, zeta)
            if opt < g.n:
                res = solve_trlp_xp(TrlpInstance(g, delta, zeta, opt + 1))
                assert (res.answer, res.reach_count) == (False, opt), (profile, seed)
                checked += 1
    assert checked == 84


def test_xp_zeta_above_edge_count_sweeps_every_subset_once():
    # a budget beyond m allows every subset; it must not enumerate sizes that
    # no subset has
    g = parse_graph("n 5\ne 0 1 2\ne 1 2 3\ne 2 3 3\ne 3 4 2")
    def outcome(zeta, h):
        r = solve_trlp_xp(TrlpInstance(g, 1, zeta, h))
        return r.answer, r.source, r.reach_count, r.perturbation and r.perturbation.records

    for h in (4, 5):
        assert outcome(10**12, h) == outcome(4, h)


def test_xp_deterministic():
    g = parse_graph("n 4\ne 0 1 2\ne 0 2 2\ne 1 3 2\ne 2 3 2")
    inst = TrlpInstance(g, 1, 1, 4)
    a = solve_trlp_xp(inst)
    b = solve_trlp_xp(inst)
    assert a == b


# --- big-zeta route ----------------------------------------------------------


def test_big_zeta_requires_precondition():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    with pytest.raises(ValueError):
        solve_trlp_big_zeta(TrlpInstance(g, 1, 1, 3))


def test_big_zeta_star_no_moves():
    star = parse_graph("n 5\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 0 4 1")
    res = solve_trlp_big_zeta(TrlpInstance(star, 1, 4, 5))
    assert res.answer and res.perturbation.perturbed_count == 0


def test_big_zeta_path_example():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    res = solve_trlp_big_zeta(TrlpInstance(g, 1, 2, 3))
    assert res.answer
    assert res.perturbation.perturbed_count <= 2


def aux_check_certificate_structure(g, res, h):
    moved = res.perturbation.moved_records()
    assert len(moved) <= h - 1
    edges = [e for e, _o, _n in moved]
    assert len(edges) == len(set(edges))
    # acyclic: union-find over the moved edges
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        assert ru != rv
        parent[ru] = rv
    reached = {
        v
        for v, a in enumerate(arrivals(apply_perturbation(g, res.perturbation), res.source))
        if a is not None
    }
    for u, v in edges:
        assert u in reached and v in reached


@settings(max_examples=60, deadline=None)
@given(temporal_graphs(max_n=5, max_t=3, max_labels=2, max_edges=4), st.integers(0, 2), st.integers(1, 5))
def test_big_zeta_matches_oracle_with_structure(g, delta, h):
    h = min(h, g.n)
    zeta = max(h - 1, 0)
    inst = TrlpInstance(g, delta, zeta, h)
    got = solve_trlp_big_zeta(inst)
    want = oracle_trlp(inst)
    assert got.answer == want.answer
    if got.answer:
        aux_check_certificate_structure(g, got, h)


# --- dispatcher ---------------------------------------------------------------


def test_dispatch_degree_shortcut():
    g = parse_graph("n 4\ne 0 1 2\ne 0 2 2\ne 0 3 2")
    res = solve_trlp(TrlpInstance(g, 1, 0, 4))
    assert res.answer and res.strategy == "degree"
    assert res.perturbation.perturbed_count == 0


def test_dispatch_bigzeta_route():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    res = solve_trlp(TrlpInstance(g, 2, 3, 4))
    assert res.strategy == "bigzeta"


def test_dispatch_tree_route():
    g = parse_graph("n 4\ne 0 1 1\ne 1 2 3\ne 2 3 1")
    res = solve_trlp(TrlpInstance(g, 1, 1, 4))
    assert res.strategy == "tree"


def test_dispatch_forced_strategy_and_refusal():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    res = solve_trlp(TrlpInstance(g, 1, 1, 4), strategy="xp")
    assert res.strategy == "xp"
    with pytest.raises(CapExceeded):
        solve_trlp(TrlpInstance(g, 1, 1, 4), strategy="xp", caps=WorkCaps(xp_ops=1))


@settings(max_examples=60, deadline=None)
@given(micro_graphs(), st.integers(0, 2), st.integers(0, 2), st.integers(1, 5))
def test_dispatch_matches_oracle(g, delta, zeta, h):
    h = min(h, g.n)
    inst = TrlpInstance(g, delta, zeta, h)
    got = solve_trlp(inst)
    want = oracle_trlp(inst)
    assert got.answer == want.answer
    if got.answer:
        pg = apply_perturbation(g, got.perturbation)
        count = sum(1 for a in arrivals(pg, got.source) if a is not None)
        assert count >= h
        moved = validate_relabelling(g, pg, delta)
        assert moved is not None and moved <= zeta


def test_auto_answers_as_the_strategy_it_names():
    # auto runs the table's strategies in order: the one it reports, forced,
    # gives the same result field for field
    for seed in range(40):
        for profile in PROFILES:
            inst = random_instance(seed, profile)
            for h in range(1, inst.graph.n + 1):
                at_h = replace(inst, h=h)
                res = solve_trlp(at_h)
                assert solve_trlp(at_h, strategy=res.strategy) == res, (seed, profile, h)


def test_cli_strategy_choices_are_the_table():
    option = next(p for p in trlp.params if p.name == "strategy")
    assert tuple(option.type.choices) == ("auto", *STRATEGIES)


def test_xp_yes_is_checked_on_the_graph(monkeypatch):
    # no vertex reaches all four at the labels; 1 does once 1-2 moves from 2
    # to 1.  A certificate that lost its records proves nothing, so XP must
    # raise, not answer yes
    inst = TrlpInstance(parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2"), 1, 1, 4)
    res = solve_trlp_xp(inst)
    assert (res.source, res.perturbation.records) == (1, (((1, 2), 2, 1),))
    monkeypatch.setattr(
        solvers, "certificate_from_exploration",
        lambda g, exp, delta, zeta: Perturbation(delta, zeta, ()),
    )
    with pytest.raises(AssertionError, match="xp certificate reaches 3 < h=4"):
        solve_trlp_xp(inst)
