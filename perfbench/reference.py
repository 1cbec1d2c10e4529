"""Reference checks, written apart from temporeach.

Nothing here imports the program.  A graph is any object with ``n``,
``edges`` (pairs u < v) and ``labels`` (one sorted tuple of times >= 1 per
edge), as in ``instances.Graph``.  A journey is strict: its labels increase
along the path, and a vertex counts as reached from itself.

* ``arrivals_from``: strict reach from one source as a time-layer sweep,
  optionally with every label widened to its window [max(1, t-d), t+d].
* ``reach_counts``: per-source reach counts for every source in one reverse
  time sweep over bitsets (Python ints); widening as above.
* ``check_moves``/``check_certificate``: a certificate is at most zeta moves,
  each within delta, new labels >= 1 and pairwise distinct on their edge.
* ``hop_ecc``/``duration_ecc``: eccentricities by search over (vertex,
  arrival time) states and over departure times.
* ``brute_sat``/``brute_domset``: exhaustive SAT and dominating-set checks.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from typing import Optional


class CheckFailed(AssertionError):
    """An output disagrees with the reference."""


def _window(t: int, delta: int) -> range:
    return range(max(1, t - delta), t + delta + 1)


def _layers(g, delta: int) -> dict[int, list[tuple[int, int]]]:
    """Time -> edges active at that time (each label widened by delta)."""
    by_time: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for e, ts in zip(g.edges, g.labels):
        for t in ts:
            for x in _window(t, delta):
                by_time[x].add(e)
    return {t: sorted(es) for t, es in by_time.items()}


def arrivals_from(g, source: int, delta: int = 0, start: int = 1) -> list[Optional[int]]:
    """Earliest arrival per vertex (0 at the source, None if unreached) over
    strict journeys whose every label is >= ``start``."""
    arr: list[Optional[int]] = [None] * g.n
    arr[source] = 0
    layers = _layers(g, delta)
    for t in sorted(x for x in layers if x >= start):
        for u, v in layers[t]:
            # arrivals made at time t cannot leave at t, hence "< t"
            if arr[u] is not None and arr[u] < t and arr[v] is None:
                arr[v] = t
            elif arr[v] is not None and arr[v] < t and arr[u] is None:
                arr[u] = t
    return arr


def reach_count(g, source: int, delta: int = 0) -> int:
    return sum(1 for a in arrivals_from(g, source, delta) if a is not None)


def reach_counts(g, delta: int = 0) -> list[int]:
    """Reach count of every source.  Sweeping time downwards, ``fwd[u]`` is
    the set of vertices u reaches by journeys using only labels above the
    current time; a layer reads the sets as they were before it."""
    fwd = [1 << v for v in range(g.n)]
    layers = _layers(g, delta)
    for t in sorted(layers, reverse=True):
        updates = []
        for u, v in layers[t]:
            updates.append((u, fwd[v]))
            updates.append((v, fwd[u]))
        for u, bits in updates:
            fwd[u] |= bits
    return [bits.bit_count() for bits in fwd]


def best_source(counts: list[int]) -> tuple[int, int]:
    """(largest count, smallest source attaining it)."""
    best = max(counts)
    return best, counts.index(best)


def check_moves(g, delta: int, zeta: Optional[int], moves) -> tuple:
    """Labels after applying ``moves`` (u, v, old, new); raise CheckFailed
    unless the moves form a valid certificate.  ``zeta`` None means no limit
    on their number."""
    index = {e: i for i, e in enumerate(g.edges)}
    labels = [list(ts) for ts in g.labels]
    seen = set()
    for u, v, old, new in moves:
        e = (min(u, v), max(u, v))
        if e not in index:
            raise CheckFailed(f"move on {e}: no such edge")
        if old not in g.labels[index[e]]:
            raise CheckFailed(f"move on {e}: {old} is not one of its labels")
        if (e, old) in seen:
            raise CheckFailed(f"move on {e}: label {old} moved twice")
        seen.add((e, old))
        if old == new or abs(new - old) > delta or new < 1:
            raise CheckFailed(f"move {e} {old}->{new} is not a move within delta={delta}")
        row = labels[index[e]]
        row[row.index(old)] = new
    for e, row in zip(g.edges, labels):
        if len(set(row)) != len(row):
            raise CheckFailed(f"labels of {e} are not pairwise distinct: {row}")
    if zeta is not None and len(moves) > zeta:
        raise CheckFailed(f"{len(moves)} moves exceed zeta={zeta}")
    return tuple(tuple(sorted(row)) for row in labels)


def perturbed(g, labels):
    return type(g)(g.n, g.edges, labels)


def check_certificate(g, delta: int, zeta: Optional[int], moves, source: int, h: int) -> int:
    """Validate a reach certificate; return the reach it gives ``source``."""
    pg = perturbed(g, check_moves(g, delta, zeta, moves))
    count = reach_count(pg, source)
    if count < h:
        raise CheckFailed(f"certificate gives source {source} reach {count} < h={h}")
    return count


def hop_ecc(g, source: int) -> Optional[int]:
    """Largest over vertices of the fewest edges on a strict journey from
    ``source``; None if some vertex is unreached.  Breadth-first search over
    (vertex, time of arrival) states."""
    adj: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(g.n)]
    for (u, v), ts in zip(g.edges, g.labels):
        adj[u].append((v, ts))
        adj[v].append((u, ts))
    hops: list[Optional[int]] = [None] * g.n
    hops[source] = 0
    seen = {(source, 0)}
    queue = deque([(source, 0, 0)])
    while queue:
        v, t, d = queue.popleft()
        for w, ts in adj[v]:
            for x in ts:
                if x > t and (w, x) not in seen:
                    seen.add((w, x))
                    if hops[w] is None:
                        hops[w] = d + 1
                    queue.append((w, x, d + 1))
    if any(h is None for h in hops):
        return None
    return max(hops)


def duration_ecc(g, source: int) -> Optional[int]:
    """Largest over vertices of the shortest journey duration (last label
    minus first) from ``source``; None if some vertex is unreached."""
    starts = sorted({t for (u, v), ts in zip(g.edges, g.labels) if source in (u, v) for t in ts})
    best: list[Optional[int]] = [None] * g.n
    best[source] = 0
    for t1 in starts:
        for v, a in enumerate(arrivals_from(g, source, start=t1)):
            if v != source and a is not None and (best[v] is None or a - t1 < best[v]):
                best[v] = a - t1
    if any(b is None for b in best):
        return None
    return max(best)


def static_ecc(g, source: int) -> Optional[int]:
    """Breadth-first eccentricity of ``source`` ignoring times."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    if any(d is None for d in dist):
        return None
    return max(dist)


def brute_sat(num_vars: int, clauses) -> bool:
    """Try every assignment; a literal is +-(variable index, 1-based)."""
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def brute_domset(n: int, edges, r: int) -> bool:
    """Does the static graph have a dominating set of at most r vertices?"""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    for size in range(min(r, n) + 1):
        for combo in itertools.combinations(range(n), size):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return True
    return False
