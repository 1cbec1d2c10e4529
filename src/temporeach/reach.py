"""Strict temporal paths: foremost arrival times, path trees, reach sets.

Every single-source question goes through ``explore``, one Dijkstra-style
earliest-arrival relaxation over a priority queue of (time, vertex, parent,
edge index) entries; popping in that lexicographic order makes trees
deterministic (smallest feasible time, then smallest parent id).  The edges
in a perturbable set may use any time within ±delta of one of their labels,
which gives the pointwise earliest arrivals over all such re-timings.
``foremost_tree``, ``arrivals`` and ``solvers._explore`` are views of it.

Reach counts of all sources at once come from ``_sweep``: one reverse sweep
over the times at which some edge is active, carrying per vertex a bitset (a
Python int) of the vertices it reaches using only the layers already swept.
Only active times are visited, so the work does not depend on label size.
This is the one-pass edge-stream idea of Wu et al., "Path problems in
temporal graphs" (PVLDB 2014), made bit-parallel over sources, and in
``SubsetSweep`` over perturbable edge subsets too, one field per subset.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice, pairwise
from typing import Iterator, Optional

from .tgraph import TemporalGraph, next_expanded_after, next_label_after

ALL_EDGES = "all"


@dataclass
class ForemostTree:
    """Foremost-path tree from a source: every root-to-vertex path uses strictly
    increasing times and each prefix arrives at that vertex's foremost time
    (over the ±delta re-timings ``explore`` allowed, if any).

    ``arrival[v]`` is None for unreachable vertices and 0 for the source.
    ``parent[v]``/``edge[v]`` describe the tree edge into v (its other end
    and edge index; None at the source and at unreachable vertices); the edge
    is used at time ``arrival[v]``.
    """

    source: int
    parent: list[Optional[int]]
    arrival: list[Optional[int]]
    edge: list[Optional[int]]

    def count(self) -> int:
        return sum(1 for a in self.arrival if a is not None)


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
        edge[v] = ei
    return ForemostTree(source, parent, arrival, edge)


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


SWEEP_BITS = 1 << 16  # bits per vertex in one chunk of a SubsetSweep


def _sweep(fwd: list[int], layers: dict, masked: dict) -> list[int]:
    """Turn ``fwd[u]``, u's own bits, into the set u reaches.  ``layers`` maps a
    time to the edges (u, v) active then, ``masked`` (some of its times) to (u,
    v, mask) active only in mask's fields.  Each layer, masked pairs included,
    reads one snapshot of the sets taken before it, so journeys stay strict."""
    for t in sorted(layers, reverse=True):
        before = fwd.copy()
        for u, v in layers[t]:
            fwd[u] |= before[v]
            fwd[v] |= before[u]
        for u, v, m in masked.get(t, ()):
            fwd[u] |= before[v] & m
            fwd[v] |= before[u] & m
    return fwd


def _runs(ts: tuple[int, ...], delta: int) -> Iterator[tuple[int, int]]:
    """The sorted labels ``ts``' ±delta windows, clipped at 1, merged where
    they overlap or touch: (lo, hi) per run, in time order."""
    lo, hi = max(1, ts[0] - delta), ts[0] + delta
    for t in ts[1:]:
        if t - delta > hi + 1:
            yield lo, hi
            lo = t - delta
        hi = t + delta
    yield lo, hi


def reach_counts(g: TemporalGraph, delta: int = 0) -> list[int]:
    """Reach count of every source when each edge is active at its labels, or
    over their ±delta windows (clipped at 1) when delta > 0.  A stretch of
    times with the same active edges makes at most n - 1 layers."""
    layers: dict[int, list[tuple[int, int]]] = defaultdict(list)
    if delta:
        # the active edges change only where a run starts or ends (an edge's
        # runs neither overlap nor touch), and the layers of a stretch past its
        # first n - 1 change nothing
        flips: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for e, ts in zip(g.edges, g.labels):
            for lo, hi in _runs(ts, delta):
                flips[lo].append(e)
                flips[hi + 1].append(e)
        active: set[tuple[int, int]] = set()
        for a, b in pairwise(sorted(flips)):
            active.symmetric_difference_update(flips[a])
            edges = list(active)
            for t in range(a, min(b, a + g.n - 1)):
                layers[t] = edges
    else:
        for e, ts in zip(g.edges, g.labels):
            for t in ts:
                layers[t].append(e)
    return [bits.bit_count() for bits in _sweep([1 << v for v in range(g.n)], layers, {})]


class SubsetSweep:
    """Reach sets when a subset's edges may move by ±delta, for many subsets:
    subset j of a chunk owns bits [j·width, (j+1)·width) of each set in
    ``fwd``.  Labels act on every field, an edge's extra window times only on
    its subsets' fields.  ``width``, a power of two >= max(n, 8), leaves a
    field's count its top bit free."""

    def __init__(self, g: TemporalGraph, delta: int):
        self.g, self.width = g, max(8, 1 << (g.n - 1).bit_length())
        # as in reach_counts: every field's active edges change only where a
        # run starts or ends or a label begins or ends, and the layers of a
        # stretch past its first n - 1 change nothing
        runs = [list(_runs(ts, delta)) for ts in g.labels]
        cuts = {t for ts in g.labels for t in ts}
        cuts.update([t + 1 for t in cuts])
        cuts.update([t for rs in runs for lo, hi in rs for t in (lo, hi + 1)])
        kept = [t for a, b in pairwise(sorted(cuts)) for t in range(a, min(b, a + g.n - 1))]
        self.extra = [
            [t for lo, hi in rs for t in kept[bisect_left(kept, lo):bisect_right(kept, hi)]
             if t not in ts]
            for ts, rs in zip(g.labels, runs)
        ]
        self.layers: dict[int, list[tuple[int, int]]] = {t: [] for ts in self.extra for t in ts}
        for e, ts in zip(g.edges, g.labels):
            for t in ts:
                self.layers.setdefault(t, []).append(e)

    def chunks(self, subsets: Iterator[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        """Consecutive chunks of ``subsets`` (SWEEP_BITS per vertex, >= 1 subset), swept."""
        while chunk := list(islice(subsets, max(1, SWEEP_BITS // self.width))):
            w, total = self.width, len(chunk) * self.width
            self.ones = ((1 << total) - 1) // ((1 << w) - 1)  # bit 0 of each field
            self.top = self.ones << (w - 1)
            self.swar = [(k, ((1 << total) - 1) // ((1 << 2 * k) - 1) * ((1 << k) - 1))
                         for k in (1 << i for i in range(w.bit_length() - 1))]
            starts = defaultdict(lambda: bytearray(total // 8))  # edge -> its fields' bit 0
            for j, subset in enumerate(chunk):
                for i in subset:
                    starts[i][j * w // 8] = 1
            masked: dict[int, list[tuple[int, int, int]]] = {}
            for i, buf in starts.items():
                sel = int.from_bytes(buf, "little")
                mask = (sel << w) - sel  # every bit of those fields
                for t in self.extra[i]:
                    masked.setdefault(t, []).append((*self.g.edges[i], mask))
            self.fwd = []  # frees the last chunk's sets first
            self.fwd = _sweep([self.ones << v for v in range(self.g.n)], self.layers, masked)
            yield chunk

    def counts(self, v: int) -> int:
        """Each field's reach count from v, in place of its bits: lanes of 2k
        bits take their popcount, for k = 1, 2, 4, ..., width/2."""
        c = self.fwd[v]
        for k, m in self.swar:
            c = (c + (c >> k)) & m if k > 2 else (c & m) + ((c >> k) & m)
        return c

    def at_least(self, counts: int, x: int) -> int:
        """The top bit of each field of ``counts`` that holds x or more."""
        return (counts + self.top - x * self.ones) & self.top


def max_reachability(g: TemporalGraph) -> tuple[int, int]:
    """(best source, reach count): the smallest vertex id attaining the maximum."""
    if g.n < 1:
        raise ValueError("graph has no vertices")
    counts = reach_counts(g)
    best = max(counts)
    return counts.index(best), best

