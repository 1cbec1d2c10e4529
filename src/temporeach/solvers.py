"""Solvers for reachability maximisation under bounded timing perturbations.

* ``solve_trp``: unlimited-count perturbations.  Expanding every label by
  ±delta gives pointwise-minimal arrivals over all delta-perturbations; one
  all-sources sweep (``reach.reach_counts``) finds the best count and the
  smallest source attaining it, and that source's foremost-path tree is
  realised by moving one appearance per tree edge.
* ``solve_trlp_xp``: exact bounded-count answer over every perturbable edge
  subset of size <= zeta, one all-sources sweep per subset.  The tie-break
  is unchanged from a per-source scan: smallest source, then its first
  subset in lex order; one exploration of that cell gives the certificate.
* ``solve_trlp_big_zeta``: when zeta >= h-1 the bounded problem collapses to
  the unlimited one; the certificate is thinned to at most h-1 moves.
* ``solve_trlp``: strategy dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .reach import ALL_EDGES, ForemostTree, explore, reach_counts, reach_set
from .tgraph import Perturbation, TemporalGraph, apply_perturbation


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


def explore_with_perturbable_set(
    g: TemporalGraph, source: int, k: int, delta: int, eset: frozenset[tuple[int, int]]
) -> bool:
    """True iff some delta-perturbation touching only edges in ``eset`` lets
    ``source`` reach at least k vertices."""
    idx = frozenset(g.edge_index[e] for e in eset)
    return _explore(g, source, delta, idx).count() >= k


def _nearest_origin_label(labels: tuple[int, ...], target: int, delta: int) -> int:
    """Original appearance to move onto ``target``: nearest, ties to smaller."""
    best = None
    for t0 in labels:
        if abs(t0 - target) <= delta:
            key = (abs(t0 - target), t0)
            if best is None or key < best:
                best = key
    if best is None:
        raise AssertionError("no original label within delta of chosen time")
    return best[1]


def _certified_yes(
    inst: TrlpInstance, strategy: str, source: int, records, shift: dict[int, int]
) -> SolveResult:
    """Yes result from ``records`` found on ``compress_time``'s graph: their
    times are shifted back and the certificate is checked on ``inst.graph``."""
    cert = Perturbation(inst.delta, inst.zeta, tuple(
        (e, old + shift[old], new + shift[old]) for e, old, new in records
    ))
    count = len(reach_set(apply_perturbation(inst.graph, cert), source))
    assert count >= inst.h
    return SolveResult(True, strategy, source=source, reach_count=count, perturbation=cert)


def certificate_from_exploration(
    g: TemporalGraph, exp: ForemostTree, delta: int, zeta: int
) -> Perturbation:
    """Records realising the exploration tree: one moved appearance per tree
    edge whose chosen time is not an original label."""
    records = []
    for v in range(g.n):
        ei = exp.edge[v]
        if ei is None:
            continue
        t_used = exp.edge_time[v]
        labels = g.labels[ei]
        if t_used in labels:
            continue
        t0 = _nearest_origin_label(labels, t_used, delta)
        records.append((g.edges[ei], t0, t_used))
    return Perturbation(delta, zeta, tuple(sorted(records)))


def _expanded_reach_counts(g: TemporalGraph, delta: int) -> list[int]:
    """Per-source reach counts when every label may move by ±delta."""
    return reach_counts(g, delta)


def solve_trp(g: TemporalGraph, delta: int, h: int) -> SolveResult:
    """Exact unlimited-count answer; reach_count is the maximum over all
    sources of the best achievable reach, source the smallest attaining it."""
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


def _lex_subsets(m: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """All subsets of range(m) of size <= max_size in prefix-lexicographic
    order: (), (0,), (0,1), (0,1,2), ..., (0,2), ..., (1,), ..."""
    subset: list[int] = []

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(subset)
        if len(subset) >= max_size:
            return
        for i in range(start, m):
            subset.append(i)
            yield from rec(i + 1)
            subset.pop()

    yield from rec(0)


def xp_work_estimate(g: TemporalGraph, zeta: int) -> int:
    """Subsets of size <= zeta times one all-sources sweep (time-edges + n)."""
    m = len(g.edges)
    subsets = sum(comb(m, j) for j in range(min(zeta, m) + 1))
    return subsets * (g.num_time_edges() + g.n)


def solve_trlp_xp(inst: TrlpInstance, caps: WorkCaps = DEFAULT_CAPS) -> SolveResult:
    """Exact answer over every (source, perturbable subset of size <= zeta)
    cell; the first yes in (source asc, subset lex) order wins.

    Each subset costs one all-sources sweep (``reach_counts`` with the subset
    widened).  A pre-pass sweep with every edge widened bounds each source
    from above (the exploration optimum is monotone in the perturbable set),
    so sources below h never win.  Subsets are swept in lex order, noting for
    each source the first subset at which it reaches h, until the smallest
    unpruned source has won or the subsets run out.  The smallest noted source
    and its first subset are the cell the per-source scan would stop at; one
    ``_explore`` of that cell builds the certificate.  On a no, reach_count is
    the best count over every source and subset: the bounded optimum."""
    g, delta, zeta, h = inst.graph, inst.delta, inst.zeta, inst.h
    est = xp_work_estimate(g, zeta)
    if est > caps.xp_ops:
        raise CapExceeded(
            f"xp enumeration needs ~{est} sweep operations, cap is {caps.xp_ops}"
        )
    m = len(g.edges)
    upper = reach_counts(g, delta)
    live = [s for s in range(g.n) if upper[s] >= h]
    first: dict[int, tuple[int, ...]] = {}
    best_count = 0
    for subset in _lex_subsets(m, min(zeta, m)):
        counts = reach_counts(g, delta, subset)
        for s in live:
            if s not in first and counts[s] >= h:
                first[s] = subset
        if live and live[0] in first:
            break
        best_count = max(best_count, max(counts))
    if first:
        source = min(first)
        exp = _explore(g, source, delta, frozenset(first[source]))
        cert = certificate_from_exploration(g, exp, delta, zeta)
        assert cert.perturbed_count <= zeta
        return SolveResult(
            True, "xp", source=source, reach_count=exp.count(), perturbation=cert
        )
    return SolveResult(False, "xp", reach_count=best_count)


def solve_trlp_big_zeta(inst: TrlpInstance) -> SolveResult:
    """TRLP for zeta >= h-1: equivalent to the unlimited problem; the
    certificate keeps at most h-1 moves, dropping moved edges whose later
    endpoint arrives latest."""
    if inst.zeta < inst.h - 1:
        raise ValueError("big-zeta route requires zeta >= h - 1")
    g, delta, h = inst.graph, inst.delta, inst.h
    trp = solve_trp(g, delta, h)
    if not trp.answer:
        return SolveResult(False, "bigzeta", reach_count=trp.reach_count)
    src = trp.source
    exp = _explore(g, src, delta, ALL_EDGES)
    cert = certificate_from_exploration(g, exp, delta, inst.zeta)
    moved = cert.moved_records()
    if len(moved) > h - 1:
        # Later-arriving endpoints are reached through earlier moved edges, so
        # keeping the h-1 earliest (by max endpoint arrival) keeps their whole
        # ancestor chains intact.
        def gamma(rec):
            (u, v), _old, _new = rec
            return (max(exp.arrival[u], exp.arrival[v]), (u, v), _old)

        moved = tuple(sorted(moved, key=gamma)[: h - 1])
    cert = Perturbation(delta, inst.zeta, moved)
    count = len(reach_set(apply_perturbation(g, cert), src))
    assert count >= h
    return SolveResult(True, "bigzeta", source=src, reach_count=count, perturbation=cert)


def _is_tree(g: TemporalGraph) -> bool:
    if len(g.edges) != g.n - 1:
        return False
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    found = 1
    while stack:
        v = stack.pop()
        for w, _ in g.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                found += 1
                stack.append(w)
    return found == g.n


def _obs1_result(inst: TrlpInstance) -> SolveResult:
    g = inst.graph
    deg = [len(a) for a in g.adjacency]
    src = deg.index(max(deg))
    count = len(reach_set(g, src))
    cert = Perturbation(inst.delta, inst.zeta, ())
    return SolveResult(True, "degree", source=src, reach_count=count, perturbation=cert)


def solve_trlp(
    inst: TrlpInstance,
    strategy: str = "auto",
    decomposition=None,
    caps: WorkCaps = DEFAULT_CAPS,
) -> SolveResult:
    """Strategy dispatcher.  ``auto`` order: neighbourhood bound, big-zeta,
    tree DP, treewidth DP (when a small decomposition is available and the
    state caps admit), subset enumeration, enumeration oracle, refusal."""
    from . import treedp, twdp  # deferred: treedp/twdp import this module's types

    g = inst.graph
    if strategy != "auto":
        return _run_strategy(inst, strategy, decomposition, caps)
    if inst.h <= g.max_degree() + 1:
        return _obs1_result(inst)
    if inst.zeta >= inst.h - 1:
        return solve_trlp_big_zeta(inst)
    if g.n >= 1 and _is_tree(g):
        return treedp.solve_trlp_tree_all_sources(inst)
    decomp = decomposition
    if decomp is None and g.n <= 20:
        try:
            decomp = twdp.decompose_exact_small(g.n, g.edges)
        except CapExceeded:
            decomp = None
    if decomp is not None and twdp.width(decomp) <= caps.tw_width:
        try:
            return twdp.solve_trlp_treewidth(inst, decomp, caps=caps)
        except CapExceeded:
            pass
    try:
        return solve_trlp_xp(inst, caps)
    except CapExceeded:
        pass
    from . import testkit

    try:
        return testkit.oracle_trlp(inst, caps=caps)
    except CapExceeded:
        pass
    raise CapExceeded("instance too large for exact solve")


def _run_strategy(inst, strategy, decomposition, caps) -> SolveResult:
    from . import treedp, twdp

    if strategy == "degree":
        if inst.h > inst.graph.max_degree() + 1:
            raise CapExceeded("degree bound does not apply: h > max degree + 1")
        return _obs1_result(inst)
    if strategy == "bigzeta":
        return solve_trlp_big_zeta(inst)
    if strategy == "tree":
        return treedp.solve_trlp_tree_all_sources(inst)
    if strategy == "treewidth":
        decomp = decomposition
        if decomp is None:
            decomp = twdp.decompose_exact_small(inst.graph.n, inst.graph.edges)
        return twdp.solve_trlp_treewidth(inst, decomp, caps=caps)
    if strategy == "xp":
        return solve_trlp_xp(inst, caps)
    if strategy == "oracle":
        from . import testkit

        return testkit.oracle_trlp(inst, caps=caps)
    raise ValueError(f"unknown strategy {strategy!r}")
