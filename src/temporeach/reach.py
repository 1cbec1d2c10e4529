"""Strict temporal paths: foremost arrival times, path trees, reach sets.

Single-source exploration is a Dijkstra-style earliest-arrival relaxation over
a priority queue of (time, vertex, parent) triples; popping in that
lexicographic order makes trees deterministic (smallest feasible time, then
smallest parent id).

Reach counts of all sources at once come from ``reach_counts``: one reverse
sweep over the times at which some edge is active, carrying per vertex a
bitset (a Python int) of the vertices it reaches using only the layers
already swept.  This is the one-pass edge-stream idea of Wu et al., "Path
problems in temporal graphs" (PVLDB 2014), made bit-parallel over sources.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Optional

from .tgraph import TemporalGraph, next_label_after


@dataclass(frozen=True)
class ForemostTree:
    """Foremost-path tree from a source: every root-to-vertex path uses strictly
    increasing times and each prefix arrives at that vertex's foremost time.

    ``arrival[v]`` is None for unreachable vertices and 0 for the source.
    ``parent[v]``/``edge_time[v]`` describe the tree edge into v (None at the
    source and at unreachable vertices).
    """

    source: int
    parent: tuple[Optional[int], ...]
    edge_time: tuple[Optional[int], ...]
    arrival: tuple[Optional[int], ...]

    def reached(self) -> frozenset[int]:
        return frozenset(v for v, a in enumerate(self.arrival) if a is not None)

    def path_to(self, v: int) -> list[tuple[int, int, int]]:
        """Tree path to v as (u, w, time) hops from the source."""
        if self.arrival[v] is None:
            raise ValueError(f"vertex {v} is unreachable")
        hops = []
        while self.parent[v] is not None:
            u = self.parent[v]
            hops.append((u, v, self.edge_time[v]))
            v = u
        hops.reverse()
        return hops


def foremost_tree(g: TemporalGraph, source: int) -> ForemostTree:
    """Foremost arrivals and a deterministic foremost-path tree from ``source``."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    arrival: list[Optional[int]] = [None] * g.n
    parent: list[Optional[int]] = [None] * g.n
    edge_time: list[Optional[int]] = [None] * g.n
    heap: list[tuple[int, int, int]] = []
    arrival[source] = 0
    for w, ei in g.adjacency[source]:
        heapq.heappush(heap, (g.labels[ei][0], w, source))
    while heap:
        t, v, u = heapq.heappop(heap)
        if arrival[v] is not None:
            continue
        arrival[v] = t
        parent[v] = u
        edge_time[v] = t
        for w, ei in g.adjacency[v]:
            if arrival[w] is None:
                nt = next_label_after(g.labels[ei], t)
                if nt is not None:
                    heapq.heappush(heap, (nt, w, v))
    return ForemostTree(source, tuple(parent), tuple(edge_time), tuple(arrival))


def arrivals(g: TemporalGraph, source: int, min_departure: int = 0) -> list[Optional[int]]:
    """Foremost arrival times using only paths whose first edge is at a time
    >= ``min_departure``; no tree bookkeeping."""
    arr: list[Optional[int]] = [None] * g.n
    arr[source] = 0
    heap: list[tuple[int, int]] = []
    start = max(0, min_departure - 1)
    for w, ei in g.adjacency[source]:
        nt = next_label_after(g.labels[ei], start)
        if nt is not None:
            heap.append((nt, w))
    heapq.heapify(heap)
    while heap:
        t, v = heapq.heappop(heap)
        if arr[v] is not None:
            continue
        arr[v] = t
        for w, ei in g.adjacency[v]:
            if arr[w] is None:
                nt = next_label_after(g.labels[ei], t)
                if nt is not None:
                    heapq.heappush(heap, (nt, w))
    return arr


def reach_set(g: TemporalGraph, source: int) -> frozenset[int]:
    """All vertices reachable from ``source`` by a strict temporal path."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    return frozenset(v for v, a in enumerate(arrivals(g, source)) if a is not None)


def reach_counts(
    g: TemporalGraph, delta: int = 0, widened: Optional[Collection[int]] = None
) -> list[int]:
    """Reach count of every source, from one reverse time sweep.

    The edges whose indices are in ``widened`` (every edge when it is None)
    are active over each label's window ``[max(1, t - delta), t + delta]``;
    the other edges only at their labels.  ``fwd[u]`` is the set of vertices
    u reaches by journeys using only times above the current one.  A layer
    reads the sets as they were before it, so a journey uses at most one edge
    per time and stays strict.  Only times at which some edge is active are
    visited, so the work does not depend on the size of the labels."""
    layers: dict[int, list[tuple[int, int]]] = {}
    for i, (e, ts) in enumerate(zip(g.edges, g.labels)):
        if delta and (widened is None or i in widened):
            ts = {w for t in ts for w in range(max(1, t - delta), t + delta + 1)}
        for t in ts:
            layers.setdefault(t, []).append(e)
    fwd = [1 << v for v in range(g.n)]
    for t in sorted(layers, reverse=True):
        before = [(u, fwd[v], v, fwd[u]) for u, v in layers[t]]
        for u, fv, v, fu in before:
            fwd[u] |= fv
            fwd[v] |= fu
    return [bits.bit_count() for bits in fwd]


def max_reachability(g: TemporalGraph) -> tuple[int, int]:
    """(best source, reach count): the smallest vertex id attaining the maximum."""
    if g.n < 1:
        raise ValueError("graph has no vertices")
    counts = reach_counts(g)
    best = max(counts)
    return counts.index(best), best


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
        t = tree.edge_time[v]
        if e not in kept or t < kept[e]:
            kept[e] = t
    edges = tuple(sorted(kept))
    return TemporalGraph(g.n, edges, tuple((kept[e],) for e in edges))
