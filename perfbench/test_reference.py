"""The reference checks agree with temporeach on seeded micro instances.

    python3 -m pytest -q perfbench/test_reference.py
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import instances  # noqa: E402
import reference as ref  # noqa: E402
from temporeach import ecc, testkit  # noqa: E402
from temporeach.reach import arrivals  # noqa: E402
from temporeach.solvers import ALL_EDGES, _expanded_reach_counts, _explore  # noqa: E402
from temporeach.tgraph import Perturbation, PerturbationError, TemporalGraph, check_perturbation  # noqa: E402

SEEDS = range(60)


def micro(seed: int) -> instances.Graph:
    rng = random.Random(f"micro:{seed}")
    n = rng.randint(2, 8)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 3))
    return instances.connected(rng, n, m, 1, rng.randint(2, 6), 2)


def program(g: instances.Graph) -> TemporalGraph:
    return TemporalGraph(g.n, g.edges, g.labels)


@pytest.mark.parametrize("seed", SEEDS)
def test_arrivals_match_foremost_search(seed):
    g = micro(seed)
    for s in range(g.n):
        assert ref.arrivals_from(g, s) == arrivals(program(g), s)


@pytest.mark.parametrize("seed", SEEDS)
def test_widened_arrivals_match_all_edges_exploration(seed):
    g = micro(seed)
    for delta in (1, 2):
        for s in range(g.n):
            assert ref.arrivals_from(g, s, delta) == _explore(program(g), s, delta, ALL_EDGES).arrival


@pytest.mark.parametrize("seed", SEEDS)
def test_reach_counts_match_per_source_and_expanded_counts(seed):
    g = micro(seed)
    assert ref.reach_counts(g) == [ref.reach_count(g, s) for s in range(g.n)]
    for delta in (1, 3):
        assert ref.reach_counts(g, delta) == _expanded_reach_counts(program(g), delta)


@pytest.mark.parametrize("seed", SEEDS)
def test_eccentricities_match(seed):
    g = micro(seed)
    for s in range(g.n):
        assert ref.hop_ecc(g, s) == ecc.shortest_ecc(program(g), s)
        assert ref.duration_ecc(g, s) == ecc.fastest_ecc(program(g), s)


def test_static_ecc_of_a_path():
    g = instances.Graph(4, ((0, 1), (1, 2), (2, 3)), ((1,), (1,), (1,)))
    assert ref.static_ecc(g, 0) == 3
    assert ref.static_ecc(g, 1) == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_move_checks_agree_with_the_program(seed):
    """Random moves, some outside delta or colliding; both must accept the
    same ones (moves past lifetime+delta, which only the program refuses,
    are not drawn)."""
    rng = random.Random(f"moves:{seed}")
    g = micro(seed)
    delta, zeta = rng.randint(0, 2), rng.randint(0, 3)
    appearances = [(e, t) for e, ts in zip(g.edges, g.labels) for t in ts]
    for _ in range(20):
        picked = rng.sample(appearances, rng.randint(0, min(4, len(appearances))))
        moves = []
        for (u, v), old in picked:
            new = rng.choice([t for t in range(max(1, old - delta - 1), old + delta + 2) if t != old])
            if new <= g.lifetime + delta:
                moves.append((u, v, old, new))
        try:
            ref.check_moves(g, delta, zeta, moves)
            ours = True
        except ref.CheckFailed:
            ours = False
        records = tuple(sorted(((u, v), old, new) for u, v, old, new in moves))
        try:
            check_perturbation(program(g), Perturbation(delta, zeta, records))
            theirs = True
        except PerturbationError:
            theirs = False
        assert ours == theirs, moves


def test_certificate_check_rejects_short_reach():
    g = instances.Graph(3, ((0, 1), (1, 2)), ((2,), (1,)))
    assert ref.check_certificate(g, 2, 1, [(1, 2, 1, 3)], 0, 3) == 3
    with pytest.raises(ref.CheckFailed):  # reach 2 without the move
        ref.check_certificate(g, 2, 1, [], 0, 3)
    with pytest.raises(ref.CheckFailed):  # one move over zeta=0
        ref.check_certificate(g, 2, 0, [(1, 2, 1, 3)], 0, 3)
    with pytest.raises(ref.CheckFailed):  # farther than delta=1
        ref.check_certificate(g, 1, 1, [(1, 2, 1, 3)], 0, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_brute_sat_matches(seed):
    rng = random.Random(f"sat:{seed}")
    nv = rng.randint(1, 4)
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 6))
    )
    assert ref.brute_sat(nv, clauses) == testkit.brute_sat(testkit.CnfFormula(nv, clauses))


@pytest.mark.parametrize("seed", SEEDS)
def test_brute_domset_matches(seed):
    rng = random.Random(f"domset:{seed}")
    n = rng.randint(1, 7)
    edges = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35)
    for r in range(1, 4):
        assert ref.brute_domset(n, edges, r) == testkit.brute_domset(testkit.StaticGraph(n, edges), r)
