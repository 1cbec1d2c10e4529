"""Ground-truth layer: literal perturbation enumeration and hardness-reduction
instance generators.

The oracles enumerate the full perturbation space: a perturbation is a choice
of moved appearances (at most zeta time-edges) plus, per moved appearance, a
non-identity target inside its ±delta window that keeps the edge's labels
pairwise distinct.  Enumeration order is (moved-set size, lexicographic moved
set, lexicographic targets); the first accepted perturbation is the witness.

Per moved-set size s, the scan walks the appearances depth first, trying
"move this one" before "keep it": that visits the moved sets in the
lexicographic order of ``itertools.combinations``.  A subtree may be skipped
only when a relaxation covering it already fails the test.  In a relaxation,
the appearances chosen so far, and the undecided ones while fewer than s are
chosen, are active across their whole ±delta window; every other appearance
keeps its label.  Every concrete completion in the subtree uses a subset of
that relaxation's time-edges, and more time-edges never hurt reachability or
eccentricity, so none of them can pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Optional

from . import ecc as eccmod
from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .reach import reach_counts, reach_set
from .solvers import SolveResult, TrlpInstance
from .tgraph import Edge, Perturbation, TemporalGraph


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
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            num_vars = int(parts[2])
            continue
        lits = [int(x) for x in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if lits:
            clauses.append(tuple(lits))
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


def _window(t: int, delta: int) -> range:
    return range(max(1, t - delta), t + delta + 1)


def enumeration_size(num_time_edges: int, delta: int, zeta: int) -> int:
    width = 2 * delta
    return sum(
        comb(num_time_edges, j) * max(1, width) ** j
        for j in range(min(zeta, num_time_edges) + 1)
    )


def _eset_indices(g: TemporalGraph, eset: Optional[Iterable[Edge]]) -> list[int]:
    if eset is None:
        return list(range(len(g.edges)))
    return sorted(g.edge_index[e] for e in set(eset))


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
    assignment with the remainder still windowed.  It must be monotone in
    time-edges, i.e. returning False must imply that every completion below
    also fails.
    """
    eidx = _eset_indices(g, eset)
    apps = [(ei, t) for ei in eidx for t in g.labels[ei]]
    chosen: list[tuple[int, int]] = []

    def choose(start: int, size: int) -> bool:
        need = size - len(chosen)
        if need == 0:
            return _expand_moved_set(g, delta, zeta, chosen, keep, on_complete)
        for i in range(start, len(apps) - need + 1):
            # apps[start:i] are left out; with exactly `need` left, the one
            # moved set below makes this same check itself
            if i > start and keep is not None and len(apps) - i > need:
                if not keep(_relaxation(g, delta, chosen + apps[i:])):
                    return False
            chosen.append(apps[i])
            stop = choose(i + 1, size)
            chosen.pop()
            if stop:
                return True
        return False

    return any(choose(0, size) for size in range(min(zeta, len(apps)) + 1))


def _relaxation(
    g: TemporalGraph, delta: int, windowed: Iterable[tuple[int, int]]
) -> TemporalGraph:
    """``g`` with every appearance in ``windowed`` active across its window."""
    acc: dict[int, set[int]] = {}
    for ei, t in windowed:
        labels = acc.get(ei)
        if labels is None:
            labels = acc[ei] = set(g.labels[ei])
        labels.update(_window(t, delta))
    return g.with_labels({g.edges[ei]: labels for ei, labels in acc.items()})


def _expand_moved_set(g, delta, zeta, moved, keep, on_complete) -> bool:
    by_edge: dict[int, list[int]] = {}
    for ei, t in moved:
        by_edge.setdefault(ei, []).append(t)
    base: dict[int, set[int]] = {
        ei: set(g.labels[ei]) - set(olds) for ei, olds in by_edge.items()
    }
    appearances = list(moved)

    def labels_for(assigned: dict[int, list[int]], windowed_from: int) -> dict[Edge, set[int]]:
        acc: dict[int, set[int]] = {ei: set(s) for ei, s in base.items()}
        for ei, ts in assigned.items():
            acc[ei].update(ts)
        for ei, t in appearances[windowed_from:]:
            acc[ei].update(_window(t, delta))
        return {g.edges[ei]: s for ei, s in acc.items()}

    if keep is not None and appearances:
        if not keep(_relaxation(g, delta, appearances)):
            return False

    assigned: dict[int, list[int]] = {}
    chosen: list[int] = []

    def rec(i: int) -> bool:
        if i == len(appearances):
            records = tuple(
                sorted(
                    (g.edges[ei], old, new)
                    for (ei, old), new in zip(appearances, chosen)
                )
            )
            p = Perturbation(delta, zeta, records)
            pg = g.with_labels(labels_for(assigned, len(appearances)))
            return on_complete(p, pg)
        ei, old = appearances[i]
        taken = assigned.setdefault(ei, [])
        for target in _window(old, delta):
            if target == old:
                continue
            if target in base[ei] or target in taken:
                continue
            taken.append(target)
            chosen.append(target)
            ok = True
            if keep is not None and i + 1 < len(appearances):
                ok = keep(g.with_labels(labels_for(assigned, i + 1)))
            stop = ok and rec(i + 1)
            taken.pop()
            chosen.pop()
            if stop:
                return True
        return False

    return rec(0)


def enumerate_perturbations(
    g: TemporalGraph,
    delta: int,
    zeta: int,
    eset: Optional[Iterable[Edge]] = None,
) -> Iterable[tuple[Perturbation, TemporalGraph]]:
    """Unpruned generator over the whole space, in the documented order."""
    out: list[tuple[Perturbation, TemporalGraph]] = []

    def collect(p: Perturbation, pg: TemporalGraph) -> bool:
        out.append((p, pg))
        return False

    eidx = _eset_indices(g, eset)
    time_edges = [(ei, t) for ei in eidx for t in g.labels[ei]]
    for size in range(min(zeta, len(time_edges)) + 1):
        for moved in itertools.combinations(time_edges, size):
            out.clear()
            _expand_moved_set(g, delta, zeta, moved, None, collect)
            yield from out


def _scan_sources(g: TemporalGraph, h: int) -> tuple[Optional[int], int]:
    """(smallest source reaching >= h or None, its count or the best count)."""
    counts = reach_counts(g)
    src = next((s for s, c in enumerate(counts) if c >= h), None)
    return src, counts[src] if src is not None else max(counts, default=0)


def _check_cap(g: TemporalGraph, delta: int, zeta: int, caps: WorkCaps) -> None:
    est = enumeration_size(g.num_time_edges(), delta, zeta)
    if est > caps.oracle_evals:
        raise CapExceeded(f"oracle space ~{est} exceeds cap {caps.oracle_evals}")


def oracle_trlp(
    inst: TrlpInstance,
    caps: WorkCaps = DEFAULT_CAPS,
    eset: Optional[Iterable[Edge]] = None,
) -> SolveResult:
    """Literal enumeration of the whole perturbation space (optionally only
    the edges in ``eset``); exact answer with the first witnessing
    perturbation in enumeration order.

    On a no, reach_count is only the best count among the candidates the
    scan visited: pruned branches are never completed, so it can fall below
    the true optimum (``oracle_trlp_max_reach`` gives that)."""
    g = inst.graph
    _check_cap(g, inst.delta, inst.zeta, caps)
    found: list = []
    best = [0]

    def accept(p: Perturbation, pg: TemporalGraph) -> bool:
        src, count = _scan_sources(pg, inst.h)
        best[0] = max(best[0], count)
        if src is not None:
            found.append((p, src, count))
            return True
        return False

    scan_perturbations(
        g,
        inst.delta,
        inst.zeta,
        eset=eset,
        keep=lambda relaxed: _scan_sources(relaxed, inst.h)[0] is not None,
        on_complete=accept,
    )
    if found:
        p, src, count = found[0]
        return SolveResult(True, "oracle", source=src, reach_count=count, perturbation=p)
    return SolveResult(False, "oracle", reach_count=best[0])


def oracle_trlp_max_reach(
    g: TemporalGraph,
    delta: int,
    zeta: int,
    caps: WorkCaps = DEFAULT_CAPS,
    eset: Optional[Iterable[Edge]] = None,
) -> int:
    """Maximum over every (delta,zeta)-perturbation of the best per-source
    reach; answers a whole h-sweep with one enumeration.  The pruning test
    ratchets: branches are skipped only when even their window relaxation
    cannot beat the best already found."""
    _check_cap(g, delta, zeta, caps)
    best = [0]

    def visit(_p: Perturbation, pg: TemporalGraph) -> bool:
        best[0] = max(best[0], *reach_counts(pg))
        return best[0] == g.n

    scan_perturbations(
        g,
        delta,
        zeta,
        eset=eset,
        keep=lambda relaxed: max(reach_counts(relaxed)) > best[0],
        on_complete=visit,
    )
    return best[0]


def oracle_ecc(inst: "eccmod.EccInstance", caps: WorkCaps = DEFAULT_CAPS) -> SolveResult:
    """Exact eccentricity-threshold decision by full enumeration."""
    g = inst.graph
    _check_cap(g, inst.delta, inst.zeta, caps)

    def ok(graph: TemporalGraph) -> bool:
        return eccmod.ecc_within(graph, inst.source, inst.k, inst.variant)

    found: list = []

    def accept(p: Perturbation, pg: TemporalGraph) -> bool:
        if ok(pg):
            found.append((p, pg))
            return True
        return False

    scan_perturbations(g, inst.delta, inst.zeta, keep=ok, on_complete=accept)
    if found:
        p, pg = found[0]
        val = eccmod.measure(pg, inst.source, inst.variant)
        return SolveResult(
            True,
            "oracle",
            source=inst.source,
            reach_count=len(reach_set(pg, inst.source)),
            perturbation=p,
            ecc_value=val,
        )
    return SolveResult(False, "oracle", source=inst.source)


def oracle_ecc_min(
    g: TemporalGraph,
    source: int,
    delta: int,
    zeta: int,
    variant: str,
    caps: WorkCaps = DEFAULT_CAPS,
) -> Optional[int]:
    """Minimum achievable eccentricity over the perturbation space (None if the
    source cannot reach every vertex under any perturbation)."""
    _check_cap(g, delta, zeta, caps)
    best: list[Optional[int]] = [None]

    def improves(graph: TemporalGraph) -> bool:
        if best[0] is None:
            return eccmod.measure(graph, source, variant) is not None
        return eccmod.ecc_within(graph, source, best[0] - 1, variant)

    def visit(_p: Perturbation, pg: TemporalGraph) -> bool:
        val = eccmod.measure(pg, source, variant)
        if val is not None and (best[0] is None or val < best[0]):
            best[0] = val
        return best[0] == 0

    scan_perturbations(g, delta, zeta, keep=improves, on_complete=visit)
    return best[0]


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
    nv, nc = f.num_vars, len(f.clauses)

    def chain(i: int, ell: int) -> int:  # v_{i,ell}, ell in 1..k
        return 1 + i * k + (ell - 1)

    def clause(j: int) -> int:
        return 1 + nv * k + j

    labelled: dict[Edge, set[int]] = {}

    def add(a: int, b: int, t: int) -> None:
        e = (a, b) if a < b else (b, a)
        labelled.setdefault(e, set()).add(t)

    for i in range(nv):
        prev = 0
        for ell in range(1, k - 3):
            add(prev, chain(i, ell), ell)
            prev = chain(i, ell)
        add(chain(i, k - 4) if k > 4 else 0, chain(i, k - 3), k - 3)
        add(chain(i, k - 4) if k > 4 else 0, chain(i, k - 2), 3 * delta + k - 2)
        add(chain(i, k - 3), chain(i, k - 2), k - 2)
        add(chain(i, k - 2), chain(i, k - 1), delta + k - 1)
        add(chain(i, k - 1), chain(i, k), 3 * delta + k)
    for j, c in enumerate(f.clauses):
        for lit in c:
            i = abs(lit) - 1
            if lit > 0:
                add(chain(i, k - 1), clause(j), k)
            else:
                add(chain(i, k), clause(j), 3 * delta + k + 1)
    es = tuple(sorted(labelled))
    tg = TemporalGraph(1 + nv * k + nc, es, tuple(tuple(sorted(labelled[e])) for e in es))
    return eccmod.EccInstance(
        tg, source=0, k=k, delta=delta, zeta=len(es), variant="shortest"
    )


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
    nv, nc = f.num_vars, len(f.clauses)

    def chain(i: int, ell: int) -> int:  # v_{i,ell}, ell in 1..k-1
        return 1 + i * (k - 1) + (ell - 1)

    def clause(j: int) -> int:
        return 1 + nv * (k - 1) + j

    labelled: dict[Edge, set[int]] = {}

    def add(a: int, b: int, t: int) -> None:
        e = (a, b) if a < b else (b, a)
        labelled.setdefault(e, set()).add(t)

    for i in range(nv):
        add(0, chain(i, 1), 1)
        for ell in range(1, k - 1):
            add(chain(i, ell), chain(i, ell + 1), ell + 1)
    for j, c in enumerate(f.clauses):
        for lit in c:
            i = abs(lit) - 1
            if lit > 0:
                add(chain(i, k - 1), clause(j), k + 2 * delta)
            else:
                add(chain(i, k - 1), clause(j), k - 1)
    es = tuple(sorted(labelled))
    tg = TemporalGraph(
        1 + nv * (k - 1) + nc, es, tuple(tuple(sorted(labelled[e])) for e in es)
    )
    return eccmod.EccInstance(
        tg, source=0, k=k - 1, delta=delta, zeta=len(es), variant="fastest"
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
