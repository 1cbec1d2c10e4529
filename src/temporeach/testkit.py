"""Ground-truth layer: literal perturbation enumeration and hardness-reduction
instance generators.

The oracles enumerate the full perturbation space: a perturbation is a choice
of moved appearances (at most zeta time-edges) plus, per moved appearance, a
non-identity target inside its ±delta window that keeps the edge's labels
pairwise distinct.  Enumeration order is (moved-set size, lexicographic moved
set, lexicographic targets); the first accepted perturbation is the witness.

All four oracles are one search, ``_least_cost``: it checks the cap, runs
a walk and keeps the least cost of a completed candidate.  A reach costs
minus the best count of any source, and an eccentricity costs itself, which
``ecc.ecc_within`` measures only up to the bar; a relaxation above the bar is
pruned.  The threshold oracles fix the bar at h or k and stop at the first
witness; the optimum oracles set it one below the best so far and stop at n
reached or eccentricity 0.

There are two walks, two visit orders over one set-up (``_walk``).  It keeps
one label array, one entry per edge, and one slot per appearance: at its
label, active across its whole ±delta window, or at one time of it; all
start windowed.  At delta 0 or zeta 0 nothing can move, so the set-up
walks no appearance and g is the one perturbation.  One target loop decides
a given sequence of appearances in turn.  Each tries its times (in the scan,
its window without its label; in the value walk, its label first, then the
rest of its window), skips any time its edge already holds, and is windowed
again afterwards.  ``keep`` sees each relaxation the loop narrows, except at the
last appearance, whose graph goes to ``on_complete``, and except where the
edge's labels did not change: that graph is the relaxation the loop started
from.  Each change to a slot re-sorts only that edge's labels.

The ordered scan (``scan_perturbations``) runs whenever zeta is below the
number of appearances and visits the space in enumeration order.  Per
moved-set size s, it walks the appearances depth first, trying "move this
one" before "keep it": that visits the moved sets in the lexicographic order
of ``itertools.combinations``, and the target loop decides each full moved
set.  A leaf (a full moved set) sets the later appearances to their labels
by slices, copying later edges' labels from the input graph and re-sorting
the edge split at its start, and restores the saved arrays after.  A subtree
may be skipped only when a relaxation covering it already fails the test.
In a relaxation, the appearances chosen so far, and the undecided ones while
fewer than s are chosen, are windowed; every other appearance keeps its
label.  Every concrete completion in the subtree uses a subset of that
relaxation's time-edges, and more time-edges never hurt reachability or
eccentricity, so none of them can pass.

Otherwise the budget cannot bind, and the value walk (``_value_walk``), the
target loop over every appearance, runs first.  It visits every perturbation
once, and its relaxations narrow one appearance at a time, so it prunes far
sooner than the scan, whose windowed moved sets stay wide.  It answers the
optimum oracles and a threshold no by itself; a threshold yes runs the scan
after it, so the witness is still the first in enumeration order.

Each graph the test sees is an immutable snapshot of the label array that
shares the input graph's edges, edge index and adjacency.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Optional

from . import ecc as eccmod
from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .reach import reach_counts, reach_set
from .solvers import SolveResult, TrlpInstance, _certified_yes
from .tgraph import Edge, Perturbation, PerturbationError, TemporalGraph, apply_perturbation, window


@dataclass(frozen=True)
class StaticGraph:
    """Plain undirected graph used as reduction input (0-based ids, u < v)."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u},{v})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; a literal is ±variable index."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("formula has no clauses")
        for c in self.clauses:
            if not c:
                raise ValueError("empty clause")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


def parse_dimacs(text: str) -> CnfFormula:
    """Clauses are the literal stream split at each 0, across lines; a last
    clause without its 0 still counts."""
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    clause: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(f"problem line {line!r} has no variable count")
            num_vars = int(parts[2])
            continue
        for lit in map(int, line.split()):
            if lit:
                clause.append(lit)
            elif clause:
                clauses.append(tuple(clause))
                clause = []
    if clause:
        clauses.append(tuple(clause))
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c), default=1)
    return CnfFormula(num_vars, tuple(clauses))


def brute_sat(f: CnfFormula) -> bool:
    if f.num_vars > 16:
        raise ValueError("brute_sat guard: at most 16 variables")
    for bits in range(1 << f.num_vars):
        if all(
            any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in c)
            for c in f.clauses
        ):
            return True
    return False


def brute_domset(g: StaticGraph, r: int) -> bool:
    """Exhaustive: does g have a dominating set of size at most r?"""
    if g.n > 12:
        raise ValueError("brute_domset guard: at most 12 vertices")
    closed = [{v} for v in range(g.n)]
    for u, v in g.edges:
        closed[u].add(v)
        closed[v].add(u)
    for size in range(min(r, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            covered: set[int] = set()
            for v in combo:
                covered |= closed[v]
            if len(covered) == g.n:
                return True
    return False


# ---------------------------------------------------------------------------
# Perturbation-space enumeration (order and pruning: see the module docstring)


def enumeration_size(num_time_edges: int, delta: int, zeta: int) -> int:
    """At most 2*delta targets per moved appearance: one perturbation at delta 0."""
    return sum(
        comb(num_time_edges, j) * (2 * delta) ** j
        for j in range(min(zeta, num_time_edges) + 1)
    )


def _appearances(g: TemporalGraph, eset: Optional[Iterable[Edge]]) -> list[tuple[int, int]]:
    """(edge index, label) of every appearance of the edges in ``eset`` (all
    edges if None), sorted; an edge not in ``g`` raises ValueError."""
    if eset is None:
        eidx: Iterable[int] = range(len(g.edges))
    else:
        wanted = set(eset)
        missing = sorted(wanted - g.edge_index.keys())
        if missing:
            raise ValueError(f"edge {missing[0]} is not in the graph")
        eidx = sorted(g.edge_index[e] for e in wanted)
    return [(ei, t) for ei in eidx for t in g.labels[ei]]


def _walk(
    g: TemporalGraph, delta: int, zeta: int, eset: Optional[Iterable[Edge]],
    keep: Optional[Callable[[TemporalGraph], bool]],
    on_complete: Callable[[Perturbation, TemporalGraph], bool], ordered: bool,
) -> bool:
    """The set-up both walks share, visited in the ordered scan's order or
    the value walk's (see the module docstring)."""
    # at delta 0 or zeta 0 nothing can move: g is the one perturbation
    apps = _appearances(g, eset)[:None if delta and zeta else 0]
    windows = [window(t, delta) for _ei, t in apps]
    # the times the target loop tries: the value walk's label first, then the
    # rest of the window
    tries = [([] if ordered else [t]) + [s for s in window(t, delta) if s != t] for _ei, t in apps]
    # what each appearance adds to its edge: (label,), its window range, or
    # (time,); all start windowed
    fixed = [(t,) for _ei, t in apps]
    slots: list = windows[:]
    edge_slots = {  # an edge's appearances are adjacent in apps
        ei: slice(a, a + len(g.labels[ei]))
        for a, (ei, t) in enumerate(apps) if t == g.labels[ei][0]
    }
    labels = list(g.labels)
    # the appearances the target loop decides in turn: the scan's moved set,
    # or every appearance
    chosen = [] if ordered else list(range(len(apps)))

    def put(a: int, slot) -> None:
        slots[a] = slot
        ei = apps[a][0]
        labels[ei] = tuple(sorted(set().union(*slots[edge_slots[ei]])))

    for edge in edge_slots.values():
        put(edge.start, windows[edge.start])

    def view() -> TemporalGraph:
        return g._relabelled(tuple(labels))

    def choose(start: int, need: int) -> bool:
        # chosen appearances and apps[start:] are windowed, the rest at their label
        if need == 0:
            # apps[start:] at their labels until the targets are assigned
            ei = apps[start][0] if start < len(apps) else len(labels)
            saved = slots[start:], labels[ei:]
            slots[start:] = fixed[start:]
            labels[ei + 1:] = g.labels[ei + 1:]
            if start < len(apps):
                put(start, fixed[start])
            stop = (keep is None or not chosen or keep(view())) and assign(0)
            slots[start:], labels[ei:] = saved
            return stop
        for i in range(start, len(apps) - need + 1):
            if i > start:
                put(i - 1, fixed[i - 1])
                # with exactly `need` left, the one moved set below makes this
                # same check itself
                if keep is not None and len(apps) - i > need and not keep(view()):
                    break
            chosen.append(i)
            stop = choose(i + 1, need - 1)
            chosen.pop()
            if stop:
                return True
        for a in range(start, i):  # the ones left out; the loop ran at least once
            put(a, windows[a])
        return False

    def assign(j: int) -> bool:
        if j == len(chosen):
            records = tuple((g.edges[apps[a][0]], apps[a][1], slots[a][0])
                            for a in chosen if slots[a] != fixed[a])
            return on_complete(Perturbation(delta, zeta, records), view())
        a = chosen[j]
        ei = apps[a][0]
        # times the edge already holds: labels kept and times given; the
        # appearances still to be decided are windowed
        taken = {s[0] for s in slots[edge_slots[ei]] if type(s) is tuple}
        before = labels[ei]
        for time in tries[a]:
            if time in taken:
                continue
            put(a, (time,))
            if (keep is None or j + 1 == len(chosen) or labels[ei] == before
                    or keep(view())) and assign(j + 1):
                return True
        put(a, windows[a])
        return False

    if ordered:
        return any(choose(0, size) for size in range(min(zeta, len(apps)) + 1))
    return assign(0)


def scan_perturbations(
    g: TemporalGraph,
    delta: int,
    zeta: int,
    *,
    eset: Optional[Iterable[Edge]] = None,
    keep: Optional[Callable[[TemporalGraph], bool]] = None,
    on_complete: Callable[[Perturbation, TemporalGraph], bool],
) -> bool:
    """Walk the perturbation space in the documented order, calling
    ``on_complete`` for every concrete perturbation (stop and return True when
    it returns True).

    For each moved-set size s, an include-first DFS over the appearances
    yields the moved sets in lexicographic order.  ``keep`` is consulted on
    window-relaxation graphs: after each appearance left out, on the chosen
    appearances and all later ones windowed (the whole subtree is skipped if
    it fails); on each full moved set windowed; and on prefixes of its target
    assignment with the remainder still windowed, where a target changed its
    edge's labels.  It must be monotone in time-edges, i.e. returning False
    must imply that every completion below also fails.

    Each graph handed to ``keep`` or ``on_complete`` is an immutable snapshot
    of the scan's label array, which the caller may keep.
    """
    return _walk(g, delta, zeta, eset, keep, on_complete, ordered=True)


def _value_walk(
    g: TemporalGraph,
    delta: int,
    zeta: int,
    *,
    keep: Callable[[TemporalGraph], bool],
    on_complete: Callable[[Perturbation, TemporalGraph], bool],
) -> bool:
    """Walk every perturbation once, for a zeta that cannot bind (at least
    the number of appearances), with ``scan_perturbations``' protocol but
    not its order: the target loop decides every appearance in turn, each at
    its label first."""
    return _walk(g, delta, zeta, None, keep, on_complete, ordered=False)


def enumerate_perturbations(
    g: TemporalGraph,
    delta: int,
    zeta: int,
    eset: Optional[Iterable[Edge]] = None,
) -> Iterator[tuple[Perturbation, TemporalGraph]]:
    """Unpruned reference generator over the whole space, in the documented
    order, built independently of the scan: every moved set from
    ``itertools.combinations``, every target tuple from ``itertools.product``
    and every graph from ``apply_perturbation``, which refuses the tuples that
    give an edge the same label twice."""
    apps = _appearances(g, eset)
    for size in range(min(zeta, len(apps)) + 1):
        for moved in itertools.combinations(apps, size):
            options = [[t for t in window(old, delta) if t != old] for _ei, old in moved]
            for targets in itertools.product(*options):
                records = [(g.edges[ei], old, new) for (ei, old), new in zip(moved, targets)]
                p = Perturbation(delta, zeta, tuple(records))
                try:
                    pg = apply_perturbation(g, p)
                except PerturbationError:
                    continue
                yield p, pg


def _least_cost(
    g: TemporalGraph, delta: int, zeta: int, caps: WorkCaps,
    cost: Callable[[TemporalGraph, int], Optional[int]], goal: int, ratchet: bool,
) -> tuple[Optional[int], Optional[tuple[Perturbation, TemporalGraph]]]:
    """(least cost, or None if no candidate met its bar; the first candidate
    at it in walk order, with its graph), stopping at a cost <= ``goal``.
    ``cost(graph, bar)`` is None when the cost is above ``bar``, which is
    ``goal`` or, with ``ratchet``, one below the least cost so far (at first
    ``sys.maxsize``).

    Both walks run one target loop over one label array.  A zeta below the
    number of appearances runs ``scan_perturbations``, which hands the loop
    each moved set in enumeration order.  Any other zeta cannot bind, and
    ``_value_walk`` runs instead: the loop over every appearance, label
    first, which visits each perturbation once and prunes sooner.  It alone
    gives the optimum (the ratchet) and a threshold no; on a threshold yes
    the scan runs after it and names the first witness in enumeration
    order.  The loop tests no relaxation whose edge labels a decision left
    unchanged: on a threshold call that graph could only pass again.  At
    delta 0 either walk completes g alone."""
    est = enumeration_size(g.num_time_edges(), delta, zeta)
    if est > caps.oracle_evals:
        raise CapExceeded(f"oracle space ~{est} exceeds cap {caps.oracle_evals}")
    bar = sys.maxsize if ratchet else goal
    best: Optional[int] = None
    found = None

    def keep(graph: TemporalGraph) -> bool:
        c = cost(graph, bar)
        return c is not None and c <= bar

    def complete(p: Perturbation, pg: TemporalGraph) -> bool:
        nonlocal bar, best, found
        c = cost(pg, bar)
        if c is not None and (best is None or c < best):
            best, found = c, (p, pg)
            if ratchet:
                bar = c - 1
        return best is not None and best <= goal

    if zeta < g.num_time_edges():
        scan_perturbations(g, delta, zeta, keep=keep, on_complete=complete)
    elif _value_walk(g, delta, zeta, keep=keep, on_complete=complete) and not ratchet:
        # a witness exists: the ordered scan names the first one
        best = found = None
        scan_perturbations(g, delta, zeta, keep=keep, on_complete=complete)
    return best, found


def _reach_cost(graph: TemporalGraph, _bar: int) -> int:
    """Minus the best per-source reach count."""
    return -max(reach_counts(graph), default=0)


def oracle_trlp(inst: TrlpInstance, caps: WorkCaps = DEFAULT_CAPS) -> SolveResult:
    """Literal enumeration of the whole perturbation space; exact answer with
    the first witnessing perturbation in enumeration order.

    On a no, reach_count is only the best count among the candidates the
    walk completed, or the unperturbed graph's if it completed none: pruned
    branches are never completed, so it can fall below the true optimum
    (``oracle_trlp_max_reach`` gives that)."""
    g, h = inst.graph, inst.h
    best, found = _least_cost(g, inst.delta, inst.zeta, caps, _reach_cost, -h, False)
    if best is None:  # the value walk completed no candidate
        best = _reach_cost(g, 0)
    if best > -h:
        return SolveResult(False, "oracle", reach_count=-best)
    p, pg = found
    src = next(s for s, c in enumerate(reach_counts(pg)) if c >= h)
    return _certified_yes(inst, "oracle", src, p.records)


def oracle_trlp_max_reach(
    g: TemporalGraph, delta: int, zeta: int, caps: WorkCaps = DEFAULT_CAPS
) -> int:
    """Maximum over every (delta,zeta)-perturbation of the best per-source
    reach; answers a whole h-sweep with one enumeration.  The pruning test
    ratchets: branches are skipped only when even their window relaxation
    cannot beat the best already found."""
    return -_least_cost(g, delta, zeta, caps, _reach_cost, -g.n, True)[0]


def _ecc_cost(source: int, variant: str) -> Callable[[TemporalGraph, int], Optional[int]]:
    """The source's eccentricity, measured only up to the bar."""
    return lambda graph, bar: eccmod.ecc_within(graph, source, bar, variant)


def oracle_ecc(inst: "eccmod.EccInstance", caps: WorkCaps = DEFAULT_CAPS) -> SolveResult:
    """Exact eccentricity-threshold decision by full enumeration."""
    cost = _ecc_cost(inst.source, inst.variant)
    best, found = _least_cost(inst.graph, inst.delta, inst.zeta, caps, cost, inst.k, False)
    if found is None:
        return SolveResult(False, "oracle", source=inst.source)
    p, pg = found
    return SolveResult(True, "oracle", source=inst.source, perturbation=p, ecc_value=best,
                       reach_count=len(reach_set(pg, inst.source)))


def oracle_ecc_min(
    g: TemporalGraph, source: int, delta: int, zeta: int, variant: str,
    caps: WorkCaps = DEFAULT_CAPS,
) -> Optional[int]:
    """Minimum achievable eccentricity over the perturbation space (None if the
    source cannot reach every vertex under any perturbation)."""
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    return _least_cost(g, delta, zeta, caps, _ecc_cost(source, variant), 0, True)[0]


# ---------------------------------------------------------------------------
# Hardness-reduction generators


def domset_to_trlp(g: StaticGraph, r: int) -> TrlpInstance:
    """Dominating-set reduction: v_s = 0, first copies 1..n, second copies
    n+1..2n, every edge at time 2; yes-instance iff g has a dominating set of
    size r (delta=1, zeta=r, h=2n+1)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = g.n
    first = lambda i: 1 + i
    second = lambda i: 1 + n + i
    edges = set()
    for i in range(n):
        edges.add((0, first(i)))
        edges.add(tuple(sorted((first(i), second(i)))))
    for u, v in g.edges:
        edges.add(tuple(sorted((first(u), second(v)))))
        edges.add(tuple(sorted((first(v), second(u)))))
    es = tuple(sorted(edges))
    tg = TemporalGraph(2 * n + 1, es, tuple((2,) for _ in es))
    return TrlpInstance(tg, delta=1, zeta=r, h=2 * n + 1)


def _sat_gadget(
    f: CnfFormula,
    size: int,
    walk: Callable[[list[int]], list[tuple[int, int, int]]],
    hang: Callable[[list[int], bool], tuple[int, int]],
    k: int,
    delta: int,
    variant: str,
) -> "eccmod.EccInstance":
    """f's eccentricity gadget from v_s = 0.  Variable i owns the walk v =
    [v_s, v_{i,1}, ..., v_{i,size}] and the (u, w, time) appearances
    ``walk(v)``; clause j is one vertex after every walk, joined at the
    (vertex, time) ``hang(v, positive)`` of each literal.  zeta is the number
    of edges."""
    walks = [[0, *range(1 + i * size, 1 + (i + 1) * size)] for i in range(f.num_vars)]
    timed = [a for v in walks for a in walk(v)]
    for j, c in enumerate(f.clauses):
        for lit in c:
            u, t = hang(walks[abs(lit) - 1], lit > 0)
            timed.append((u, 1 + f.num_vars * size + j, t))
    labelled: dict[Edge, set[int]] = {}
    for u, w, t in timed:
        labelled.setdefault((min(u, w), max(u, w)), set()).add(t)
    es = tuple(sorted(labelled))
    n = 1 + f.num_vars * size + len(f.clauses)
    tg = TemporalGraph(n, es, tuple(tuple(sorted(labelled[e])) for e in es))
    return eccmod.EccInstance(tg, source=0, k=k, delta=delta, zeta=len(es), variant=variant)


def sat_to_tsep(f: CnfFormula, k: int = 4, delta: int = 1) -> "eccmod.EccInstance":
    """Length-bounded eccentricity gadget: yes-instance iff f is satisfiable.

    Per variable i, a chain v_s=v_{i,0},...,v_{i,k-3} at times 1..k-3, a skip
    edge (v_{i,k-4} v_{i,k-2}) at 3d+k-2, edges (v_{i,k-3} v_{i,k-2}) at k-2,
    (v_{i,k-2} v_{i,k-1}) at d+k-1, (v_{i,k-1} v_{i,k}) at 3d+k; a clause with
    literal x_i hangs off v_{i,k-1} at time k, one with ~x_i off v_{i,k} at
    3d+k+1.  zeta is the number of edges.
    """
    if k < 4 or delta < 1:
        raise ValueError("need k >= 4 and delta >= 1")
    d = delta

    def walk(v: list[int]) -> list[tuple[int, int, int]]:
        return [(v[ell - 1], v[ell], ell) for ell in range(1, k - 2)] + [
            (v[k - 4], v[k - 2], 3 * d + k - 2), (v[k - 3], v[k - 2], k - 2),
            (v[k - 2], v[k - 1], d + k - 1), (v[k - 1], v[k], 3 * d + k),
        ]

    def hang(v: list[int], positive: bool) -> tuple[int, int]:
        return (v[k - 1], k) if positive else (v[k], 3 * d + k + 1)

    return _sat_gadget(f, k, walk, hang, k, delta, "shortest")


def sat_to_tfaep(f: CnfFormula, k: int = 2, delta: int = 1) -> "eccmod.EccInstance":
    """Duration-bounded eccentricity gadget: yes-instance iff f is satisfiable.

    Per variable i, a chain v_s,v_{i,1},...,v_{i,k-1} at times 1..k-1; a clause
    with literal x_i hangs off v_{i,k-1} at k+2d, one with ~x_i at k-1.

    k is the duration bound under unit traversal time (last label minus first
    label plus one).  The emitted threshold is k-1: the same bound in the
    last-minus-first convention of `ecc.fastest_ecc`.
    """
    if k < 2 or delta < 1:
        raise ValueError("need k >= 2 and delta >= 1")
    return _sat_gadget(
        f, k - 1,
        lambda v: [(v[ell - 1], v[ell], ell) for ell in range(1, k)],
        lambda v, positive: (v[k - 1], k + 2 * delta if positive else k - 1),
        k - 1, delta, "fastest",
    )


# ---------------------------------------------------------------------------
# Seeded random instances

PROFILES = ("tree", "sparse", "treewidth2")


def random_instance(seed: int, profile: str) -> TrlpInstance:
    """Deterministic micro instance; profiles keep T <= 4 and at most two
    labels per edge so oracle sweeps stay tractable."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}")
    rng = random.Random((seed, profile).__repr__())
    if profile == "tree":
        n = rng.randint(2, 8)
        edges = sorted(
            tuple(sorted((v, rng.randint(0, v - 1)))) for v in range(1, n)
        )
    elif profile == "sparse":
        n = rng.randint(3, 6)
        all_pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(n - 1, min(len(all_pairs), n + 2))
        edges = sorted(rng.sample(all_pairs, m))
    else:  # treewidth2: every new vertex attaches to <= 2 earlier ones
        n = rng.randint(3, 6)
        edge_set = {(0, 1)}
        for v in range(2, n):
            for u in rng.sample(range(v), min(v, rng.randint(1, 2))):
                edge_set.add((u, v))
        edges = sorted(edge_set)
    tmax = rng.randint(1, 4)
    labels = []
    for _ in edges:
        count = rng.randint(1, min(2, tmax))
        labels.append(tuple(sorted(rng.sample(range(1, tmax + 1), count))))
    g = TemporalGraph(n, tuple(edges), tuple(labels))
    delta = rng.randint(0, 2)
    zeta = rng.randint(0, 3)
    h = rng.randint(1, n)
    return TrlpInstance(g, delta, zeta, h)
