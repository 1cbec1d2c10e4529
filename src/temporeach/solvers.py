"""Solvers for reachability maximisation under bounded timing perturbations.

* ``solve_trp``: unlimited-count perturbations.  Expanding every label by
  ±delta gives pointwise-minimal arrivals over all delta-perturbations; one
  all-sources sweep (``reach.reach_counts``) finds the best count and the
  smallest source attaining it, and that source's foremost-path tree is
  realised by moving one appearance per tree edge.
* ``solve_trlp_xp``: exact bounded-count answer over every perturbable edge
  subset of size <= zeta, one all-sources sweep per chunk of subsets, packed
  one subset per bitset field.  The tie-break is unchanged from a per-source
  scan: smallest source, then its first subset in lex order; one exploration
  of that cell gives the certificate.
* The widened reach of every source, one ``reach.reach_counts`` sweep with
  every label free to move by ±delta, bounds what it reaches under at most
  zeta re-timings.  ``solve_trlp_xp`` and the tree DP share one rule: skip a
  source whose bound is at most the best count so far (h - 1 once a yes is
  found); the treewidth DP, whose no carries no count, skips a source whose
  bound is below h.
* ``solve_trlp_big_zeta``: when zeta >= h-1 the bounded problem collapses to
  the unlimited one; the certificate is thinned to at most h-1 moves.
* ``solve_trlp``: runs one strategy of ``STRATEGIES``, or under ``auto`` each
  in turn.  Every strategy's yes, the DPs' and the oracle's too, comes from
  ``_certified_yes``, which checks the certificate on the instance's graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .reach import ALL_EDGES, ForemostTree, SubsetSweep, explore, reach_counts, reach_set
from .tgraph import Perturbation, TemporalGraph, _is_tree, apply_perturbation


# ``auto`` runs the treewidth DP only on decompositions up to this width
TW_MAX_WIDTH = 2


@dataclass(frozen=True)
class TrlpInstance:
    """A reachability-threshold instance: can some vertex reach at least h
    vertices after at most zeta re-timings of at most ±delta each?"""

    graph: TemporalGraph
    delta: int
    zeta: int
    h: int

    def __post_init__(self) -> None:
        if self.delta < 0 or self.zeta < 0:
            raise ValueError("delta and zeta must be nonnegative")
        if not (1 <= self.h <= self.graph.n):
            raise ValueError(f"h must be in [1, n], got {self.h}")


@dataclass(frozen=True)
class SolveResult:
    """On a yes, ``perturbation`` is a certificate and ``reach_count`` what
    ``source`` reaches under it (``ecc_value``: its eccentricity there).  On a
    trlp no, ``reach_count`` is the bounded optimum for xp, tree and bigzeta
    (xp and tree skip the sources their widened reach bound rules out, which
    cannot raise it), None for treewidth, and for the oracle the best count
    among the candidates it visited, which can fall below the optimum."""

    answer: bool
    strategy: str
    source: Optional[int] = None
    reach_count: Optional[int] = None
    perturbation: Optional[Perturbation] = None
    ecc_value: Optional[int] = None


def _explore(
    g: TemporalGraph, source: int, delta: int, eset: frozenset[int] | str
) -> ForemostTree:
    """Best-possible foremost exploration when the edges indexed by ``eset``
    (or all edges, for eset == ALL_EDGES) may each be re-timed by ±delta."""
    return explore(g, source, delta, eset, 0)


def _nearest_origin_label(labels: tuple[int, ...], target: int, delta: int) -> int:
    """Original appearance to move onto ``target``: nearest, ties to smaller."""
    t0 = min(labels, key=lambda t: (abs(t - target), t))
    assert abs(t0 - target) <= delta, "no original label within delta of chosen time"
    return t0


def _certified_yes(
    inst: TrlpInstance, strategy: str, source: int, records,
    shift: Optional[dict[int, int]] = None,
) -> SolveResult:
    """Yes result from moved-appearance ``records``, checked on ``inst.graph``:
    the certificate must keep within the bounds and make ``source`` reach h
    there.  Records found on ``compress_time``'s graph come with its
    ``shift``, which maps their times back."""
    if shift:
        records = [(e, old + shift[old], new + shift[old]) for e, old, new in records]
    cert = Perturbation(inst.delta, inst.zeta, tuple(records))
    count = len(reach_set(apply_perturbation(inst.graph, cert), source))
    if count < inst.h:
        raise AssertionError(f"{strategy} certificate reaches {count} < h={inst.h}")
    return SolveResult(True, strategy, source=source, reach_count=count, perturbation=cert)


def certificate_from_exploration(
    g: TemporalGraph, exp: ForemostTree, delta: int, zeta: int
) -> Perturbation:
    """Records realising the exploration tree: one moved appearance per tree
    edge whose chosen time is not an original label."""
    records = []
    for ei, t_used in zip(exp.edge, exp.arrival):
        if ei is not None and t_used not in g.labels[ei]:
            t0 = _nearest_origin_label(g.labels[ei], t_used, delta)
            records.append((g.edges[ei], t0, t_used))
    return Perturbation(delta, zeta, tuple(sorted(records)))


def _expanded_reach_counts(g: TemporalGraph, delta: int) -> list[int]:
    """Per-source reach counts when every label may move by ±delta."""
    return reach_counts(g, delta)


def solve_trp(g: TemporalGraph, delta: int, h: int) -> SolveResult:
    """Exact unlimited-count answer; reach_count is the maximum over all
    sources of the best achievable reach, source the smallest attaining it."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not (1 <= h <= g.n):
        raise ValueError(f"h must be in [1, n], got {h}")
    counts = _expanded_reach_counts(g, delta)
    best = max(counts)
    src = counts.index(best)
    if best < h:
        return SolveResult(False, "trp", reach_count=best)
    exp = _explore(g, src, delta, ALL_EDGES)
    assert exp.count() == best
    # at most one move per tree edge, and the tree has best - 1 edges
    cert = certificate_from_exploration(g, exp, delta, best - 1)
    return SolveResult(True, "trp", source=src, reach_count=best, perturbation=cert)


def xp_work_estimate(g: TemporalGraph, zeta: int) -> int:
    """Subsets of size <= zeta times one all-sources sweep (time-edges + n): the
    price of one sweep per subset, although a chunk of subsets shares one."""
    m = len(g.edges)
    subsets = sum(comb(m, j) for j in range(min(zeta, m) + 1))
    return subsets * (g.num_time_edges() + g.n)


def solve_trlp_xp(inst: TrlpInstance, caps: WorkCaps = DEFAULT_CAPS) -> SolveResult:
    """Exact answer over every (source, perturbable subset of size <= zeta)
    cell; the first yes in (source asc, subset lex) order wins.

    A pre-pass sweep with every edge widened bounds each source from above
    (the exploration optimum is monotone in the perturbable set), so sources
    below h never win.  The subsets, in prefix-lex order ((), (0,), (0,1),
    ..., (0,2), ..., (1,), ...: Python's tuple order), are swept in packed
    chunks (``reach.SubsetSweep``).  Per chunk, the first source below the
    winner so far with a field count >= h wins with that field's subset; one
    ``_explore`` of this cell builds the certificate.  On a no, reach_count
    is the best count over every source and subset: the bounded optimum."""
    g, delta, zeta, h = inst.graph, inst.delta, inst.zeta, inst.h
    est = xp_work_estimate(g, zeta)
    if est > caps.xp_ops:
        raise CapExceeded(
            f"xp enumeration needs ~{est} sweep operations, cap is {caps.xp_ops}"
        )
    upper = reach_counts(g, delta)
    found: Optional[tuple[int, tuple[int, ...]]] = None
    best_count = 0
    sweep = SubsetSweep(g, delta)
    m = len(g.edges)
    subsets = heapq.merge(*(combinations(range(m), j) for j in range(min(zeta, m) + 1)))
    for chunk in sweep.chunks(subsets):
        for s in range(found[0] if found else g.n):
            if upper[s] <= (h - 1 if found else best_count):  # can neither win nor raise the best
                continue
            counts = sweep.counts(s)
            if upper[s] >= h and (hits := sweep.at_least(counts, h)):
                found = (s, chunk[(hits & -hits).bit_length() // sweep.width - 1])
                break
            while sweep.at_least(counts, best_count + 1):
                best_count += 1
        if found and max(upper[: found[0]], default=0) < h:
            break
    if found:
        source, subset = found
        exp = _explore(g, source, delta, frozenset(subset))
        cert = certificate_from_exploration(g, exp, delta, zeta)
        return _certified_yes(inst, "xp", source, cert.records)
    return SolveResult(False, "xp", reach_count=best_count)


def solve_trlp_big_zeta(inst: TrlpInstance) -> SolveResult:
    """TRLP for zeta >= h-1: equivalent to the unlimited problem; the
    certificate keeps at most h-1 moves, dropping moved edges whose later
    endpoint arrives latest."""
    if inst.zeta < inst.h - 1:
        raise ValueError("big-zeta route requires zeta >= h - 1")
    h = inst.h
    trp = solve_trp(inst.graph, inst.delta, h)
    if not trp.answer:
        return SolveResult(False, "bigzeta", reach_count=trp.reach_count)
    moved = trp.perturbation.moved_records()
    if len(moved) > h - 1:
        # A moved tree edge's new time is its later endpoint's arrival, and
        # later-arriving endpoints are reached through earlier moved edges, so
        # keeping the h-1 earliest (by new time) keeps their whole ancestor
        # chains intact.
        moved = sorted(moved, key=lambda rec: (rec[2], rec[0], rec[1]))[: h - 1]
    return _certified_yes(inst, "bigzeta", trp.source, moved)


STRATEGIES = ("degree", "bigzeta", "tree", "treewidth", "xp", "oracle")  # auto's order


def solve_trlp(
    inst: TrlpInstance, strategy: str = "auto", decomposition=None, caps: WorkCaps = DEFAULT_CAPS
) -> SolveResult:
    """Run ``strategy``, one of ``STRATEGIES``, or under ``auto`` each of them
    in that order, skipping any that does not apply or exceeds its cap, and
    refuse past the last with each cap's reason.  A runner answers or refuses
    when forced; under auto it returns None where it does not apply.  There
    the treewidth DP needs a decomposition of width <= ``TW_MAX_WIDTH``, given
    or found for n <= 20."""
    from . import testkit, treedp, twdp  # deferred: they import this module's types

    g, h = inst.graph, inst.h

    def degree(auto: bool) -> SolveResult:
        # a vertex of largest degree reaches its neighbours at their labels
        if h > g.max_degree() + 1:
            raise CapExceeded("degree bound does not apply: h > max degree + 1")
        deg = [len(a) for a in g.adjacency]
        return _certified_yes(inst, "degree", deg.index(max(deg)), ())

    def treewidth(auto: bool) -> Optional[SolveResult]:
        # an exact decomposition raises CapExceeded beyond 20 vertices
        decomp = decomposition or twdp.decompose_exact_small(g.n, g.edges)
        if auto and decomp.width() > TW_MAX_WIDTH:
            return None
        return twdp.solve_trlp_treewidth(inst, decomp, caps=caps)

    runners = {
        "degree": degree,
        "bigzeta": lambda auto: None if auto and inst.zeta < h - 1 else solve_trlp_big_zeta(inst),
        "tree": lambda auto: (
            None if auto and not _is_tree(g.n, g.edges) else treedp.solve_trlp_tree(inst)),
        "treewidth": treewidth,
        "xp": lambda auto: solve_trlp_xp(inst, caps),
        "oracle": lambda auto: testkit.oracle_trlp(inst, caps=caps),
    }
    if strategy != "auto":
        if strategy not in runners:
            raise ValueError(f"unknown strategy {strategy!r}")
        return runners[strategy](False)
    refusals = []
    for name in STRATEGIES:
        try:
            res = runners[name](True)
        except CapExceeded as exc:
            refusals.append(f"{name}: {exc}")
            continue
        if res is not None:
            return res
    raise CapExceeded(f"instance too large for exact solve ({'; '.join(refusals)})")
