"""Strict temporal paths: foremost arrival times, path trees, reach sets.

Every single-source question goes through ``explore``, one Dijkstra-style
earliest-arrival relaxation over a priority queue of (time, vertex, parent,
edge index) entries; popping in that lexicographic order makes trees
deterministic (smallest feasible time, then smallest parent id).  The edges
in a perturbable set may use any time within ±delta of one of their labels,
which gives the pointwise earliest arrivals over all such re-timings.
``foremost_tree``, ``arrivals`` and ``solvers._explore`` are views of it.

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

from .tgraph import TemporalGraph, next_expanded_after, next_label_after

ALL_EDGES = "all"


@dataclass
class ForemostTree:
    """Foremost-path tree from a source: every root-to-vertex path uses strictly
    increasing times and each prefix arrives at that vertex's foremost time
    (over the ±delta re-timings ``explore`` allowed, if any).

    ``arrival[v]`` is None for unreachable vertices and 0 for the source.
    ``parent[v]``/``edge_time[v]``/``edge[v]`` describe the tree edge into v
    (its other end, time and edge index; None at the source and at
    unreachable vertices).
    """

    source: int
    parent: list[Optional[int]]
    edge_time: list[Optional[int]]
    arrival: list[Optional[int]]
    edge: list[Optional[int]]

    def count(self) -> int:
        return sum(1 for a in self.arrival if a is not None)

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


def explore(
    g: TemporalGraph,
    source: int,
    delta: int,
    eset: frozenset[int] | str,
    min_departure: int,
) -> ForemostTree:
    """Foremost exploration from ``source`` whose first edge is at a time
    >= ``min_departure``, when the edges indexed by ``eset`` (all edges for
    eset == ALL_EDGES) may each have appearances re-timed by ±delta."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    arrival: list[Optional[int]] = [None] * g.n
    parent: list[Optional[int]] = [None] * g.n
    edge_time: list[Optional[int]] = [None] * g.n
    edge: list[Optional[int]] = [None] * g.n
    labels, adjacency = g.labels, g.adjacency
    everything = eset == ALL_EDGES
    arrival[source] = 0
    heap: list[tuple[int, int, int, int]] = []
    v, t = source, max(0, min_departure - 1)
    while True:
        for w, ei in adjacency[v]:
            if arrival[w] is None:
                if delta and (everything or ei in eset):
                    nt = next_expanded_after(labels[ei], t, delta)
                else:
                    nt = next_label_after(labels[ei], t)
                if nt is not None:
                    heapq.heappush(heap, (nt, w, v, ei))
        while heap and arrival[heap[0][1]] is not None:
            heapq.heappop(heap)
        if not heap:
            break
        t, v, u, ei = heapq.heappop(heap)
        arrival[v] = t
        parent[v] = u
        edge_time[v] = t
        edge[v] = ei
    return ForemostTree(source, parent, edge_time, arrival, edge)


def foremost_tree(g: TemporalGraph, source: int) -> ForemostTree:
    """Foremost arrivals and a deterministic foremost-path tree from ``source``."""
    return explore(g, source, 0, frozenset(), 0)


def arrivals(g: TemporalGraph, source: int, min_departure: int = 0) -> list[Optional[int]]:
    """Foremost arrival times using only paths whose first edge is at a time
    >= ``min_departure``."""
    return explore(g, source, 0, frozenset(), min_departure).arrival


def reach_set(g: TemporalGraph, source: int) -> frozenset[int]:
    """All vertices reachable from ``source`` by a strict temporal path."""
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
