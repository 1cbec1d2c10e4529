"""Hop-count and duration eccentricities of a source, and their perturbed
decision problems.

shortest eccentricity: max over targets of the fewest edges on any strict
temporal path from the source; infinite (None) if some vertex is unreachable.
fastest eccentricity: max over targets of the smallest duration (last label
minus first); single-edge paths and the trivial path have duration 0.

The hop variant and its decision form share one layered relaxation
(``_hop_depth``); the duration variant runs one foremost exploration
(``reach.arrivals``) per possible first-edge time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .reach import ALL_EDGES, arrivals
from .solvers import SolveResult, certificate_from_exploration, _explore
from .tgraph import TemporalGraph, next_label_after


@dataclass(frozen=True)
class EccInstance:
    graph: TemporalGraph
    source: int
    k: int
    delta: int
    zeta: int
    variant: str  # "shortest" | "fastest"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not (0 <= self.source < self.graph.n):
            raise ValueError("source out of range")
        if self.variant not in ("shortest", "fastest"):
            raise ValueError("variant must be 'shortest' or 'fastest'")
        if self.delta < 0 or self.zeta < 0:
            raise ValueError("delta and zeta must be nonnegative")


def _hop_depth(g: TemporalGraph, source: int, limit: int) -> Optional[int]:
    """Fewest k <= limit such that every vertex has a strict temporal path
    from ``source`` with at most k edges, or None.

    Round k relaxes every edge once from the earliest arrivals over paths
    with < k edges.  Exchange argument: replacing a prefix by any
    earlier-arriving one with no more hops keeps the last edge usable, so the
    layered minimum is exact.  A journey can drop any cycle, so rounds past
    n-1 reach nothing new.
    """
    labels, adjacency = g.labels, g.adjacency
    cur: list[Optional[int]] = [None] * g.n
    cur[source] = 0
    left = g.n - 1
    rounds = 0
    last = min(limit, g.n - 1)
    while left and rounds < last:
        nxt = list(cur)
        for u, tu in enumerate(cur):
            if tu is None:
                continue
            for w, ei in adjacency[u]:
                t = next_label_after(labels[ei], tu)
                if t is not None and (nxt[w] is None or t < nxt[w]):
                    nxt[w] = t
        cur = nxt
        left = cur.count(None)
        rounds += 1
    return rounds if left == 0 else None


def shortest_ecc(g: TemporalGraph, source: int) -> Optional[int]:
    """Max over vertices of the fewest edges on a strict temporal path from
    ``source``; None when some vertex is unreachable."""
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    return _hop_depth(g, source, g.n - 1)


def fastest_ecc(g: TemporalGraph, source: int) -> Optional[int]:
    """Max over vertices of the smallest path duration from ``source``; None
    when some vertex is unreachable.  Scans every possible first-edge time."""
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    starts = sorted({t for _w, ei in g.adjacency[source] for t in g.labels[ei]})
    best: list[Optional[int]] = [None] * g.n
    best[source] = 0
    for t1 in starts:
        arr = arrivals(g, source, min_departure=t1)
        for v in range(g.n):
            if v == source or arr[v] is None:
                continue
            dur = arr[v] - t1
            if best[v] is None or dur < best[v]:
                best[v] = dur
    worst = 0
    for v in range(g.n):
        if best[v] is None:
            return None
        worst = max(worst, best[v])
    return worst


def measure(g: TemporalGraph, source: int, variant: str) -> Optional[int]:
    return shortest_ecc(g, source) if variant == "shortest" else fastest_ecc(g, source)


def ecc_within(g: TemporalGraph, source: int, k: int, variant: str) -> bool:
    """Decision form of ``measure``; for the hop variant only k layers are
    expanded, which keeps enumeration-style sweeps cheap."""
    if k < 0:
        return False
    if variant == "fastest":
        val = fastest_ecc(g, source)
        return val is not None and val <= k
    return _hop_depth(g, source, k) is not None


def large_perturbation_applies(inst: EccInstance) -> bool:
    return inst.delta >= inst.graph.lifetime and inst.zeta >= inst.graph.n - 1


def solve_ecc_perturbed(inst: EccInstance, caps: WorkCaps = DEFAULT_CAPS) -> SolveResult:
    """Exact decision.  With delta >= T and zeta >= n-1 the best achievable
    tree re-times one appearance per tree edge to consecutive integers, so the
    minimum shortest eccentricity is the hop depth of the window-expanded
    foremost tree and the minimum duration is one less; otherwise the answer
    comes from full enumeration."""
    g = inst.graph
    if large_perturbation_applies(inst):
        exp = _explore(g, inst.source, inst.delta, ALL_EDGES)
        reached = [v for v, a in enumerate(exp.arrival) if a is not None]
        if len(reached) < g.n:
            return SolveResult(False, "large-delta", source=inst.source)
        depth = max(exp.arrival[v] for v in reached)
        value = depth if inst.variant == "shortest" else max(0, depth - 1)
        if value > inst.k:
            return SolveResult(
                False, "large-delta", source=inst.source, ecc_value=value
            )
        cert = certificate_from_exploration(g, exp, inst.delta, inst.zeta)
        return SolveResult(
            True,
            "large-delta",
            source=inst.source,
            reach_count=len(reached),
            perturbation=cert,
            ecc_value=value,
        )
    from . import testkit

    res = testkit.oracle_ecc(inst, caps=caps)
    return SolveResult(
        res.answer,
        "exhaustive",
        source=res.source,
        reach_count=res.reach_count,
        perturbation=res.perturbation,
        ecc_value=res.ecc_value,
    )
