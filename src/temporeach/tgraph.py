"""Temporal-graph data model, timing perturbations, and the ``.tg`` text format.

A temporal graph is an undirected simple graph whose edges each carry a
nonempty, strictly increasing tuple of integer activity times >= 1.  A
perturbation re-times individual edge appearances: each record moves one
appearance of one edge by at most ``delta``, new times stay >= 1, and the
appearances of an edge must remain pairwise distinct.

``.tg`` format (UTF-8, LF, optional BOM): ``#`` starts a comment line,
the first non-comment line is ``n <count>``, and every following line is
``e <u> <v> <t1> <t2> ...`` with ``u < v`` and times strictly increasing.

The ``TemporalGraph`` constructor checks a whole graph; ``parse_graph`` checks
each line once, ``with_labels`` its new labels and ``apply_perturbation`` its
records, and each builds unchecked.

Perturbation files: header lines ``delta <d>`` and ``zeta <z>`` followed by
``p <u> <v> <old> <new>`` lines.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

Edge = tuple[int, int]


class FormatError(ValueError):
    """Malformed ``.tg`` or perturbation text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PerturbationError(ValueError):
    """A perturbation record violates the bounds or distinctness rules."""


@dataclass(frozen=True)
class TemporalGraph:
    """Immutable temporal graph with dense 0-based vertex ids.

    ``edges`` is sorted, each pair has u < v, and ``labels[i]`` is the sorted
    activity-time tuple of ``edges[i]``.  The constructor checks all of this.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.edges) != len(self.labels):
            raise ValueError("edges and labels length mismatch")
        seen: set[Edge] = set()
        for (u, v), ts in zip(self.edges, self.labels):
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not u<v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            if not ts:
                raise ValueError(f"edge ({u},{v}) has no labels")
            if any(t < 1 for t in ts):
                raise ValueError(f"edge ({u},{v}) has a label < 1")
            if any(a >= b for a, b in zip(ts, ts[1:])):
                raise ValueError(f"edge ({u},{v}) labels not strictly increasing")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges not sorted")

    @cached_property
    def lifetime(self) -> int:
        """Largest label anywhere in the graph (0 if there are no edges)."""
        return max((ts[-1] for ts in self.labels), default=0)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return dict(zip(self.edges, range(len(self.edges))))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, (neighbour, edge index) pairs, sorted because ``edges`` are."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(map(tuple, adj))

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edge_labels(self, u: int, v: int) -> tuple[int, ...]:
        if u > v:
            u, v = v, u
        return self.labels[self.edge_index[(u, v)]]

    def num_time_edges(self) -> int:
        return sum(len(ts) for ts in self.labels)

    def with_labels(self, new_labels: Mapping[Edge, Iterable[int]]) -> "TemporalGraph":
        """Copy of this graph with some edges' labels replaced (each given in
        any order).

        The copy shares ``edges``, ``edge_index`` and ``adjacency`` with this
        graph, and only the replacements are checked: each must be non-empty,
        with every label >= 1 and no label repeated.  An edge that is not in
        the graph raises ValueError.
        """
        index = self.edge_index
        labels = list(self.labels)
        for e, ts in new_labels.items():
            i = index.get(e)
            if i is None:
                raise ValueError(f"edge {e} is not in the graph")
            ts = tuple(sorted(ts))
            if not ts or ts[0] < 1 or len(set(ts)) < len(ts):
                raise ValueError(f"edge {e}: labels {ts} must be distinct, >= 1 and non-empty")
            labels[i] = ts
        return self._relabelled(tuple(labels))

    def _relabelled(self, labels: tuple[tuple[int, ...], ...]) -> "TemporalGraph":
        """This graph's structure holding ``labels``, which are not checked."""
        return _unchecked(n=self.n, edges=self.edges, labels=labels,
                          edge_index=self.edge_index, adjacency=self.adjacency)


def _unchecked(**fields) -> TemporalGraph:
    """A graph from fields and cached properties known to be valid; nothing is checked."""
    g = object.__new__(TemporalGraph)
    g.__dict__.update(fields)
    return g


@dataclass(frozen=True)
class Perturbation:
    """Per-appearance relabelling records under declared (delta, zeta) bounds.

    ``records`` holds (edge, old_time, new_time) triples, at most one per
    (edge, old_time).  Records with old == new are permitted and cost nothing.
    """

    delta: int
    zeta: int
    records: tuple[tuple[Edge, int, int], ...]

    def __post_init__(self) -> None:
        if self.delta < 0 or self.zeta < 0:
            raise ValueError("delta and zeta must be nonnegative")
        if list(self.records) != sorted(self.records):
            object.__setattr__(self, "records", tuple(sorted(self.records)))

    @property
    def perturbed_count(self) -> int:
        return sum(1 for _, old, new in self.records if old != new)

    def moved_records(self) -> tuple[tuple[Edge, int, int], ...]:
        return tuple(r for r in self.records if r[1] != r[2])


def _parse_lines(text: str | bytes) -> Iterator[tuple[int, list[str]]]:
    if isinstance(text, bytes):
        text = text.decode("utf-8-sig")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield line_no, parts


def parse_graph(text: str | bytes, *, allow_headers: bool = False) -> TemporalGraph:
    """Parse ``.tg`` text, checking each line once and building the graph
    unchecked.  With ``allow_headers`` unknown key/value lines (instance
    metadata such as ``delta 1``) are skipped rather than rejected."""
    n: Optional[int] = None
    edges: list[Edge] = []
    labels: list[tuple[int, ...]] = []
    index: dict[Edge, int] = {}
    header_keys = {"delta", "zeta", "h", "k", "source", "variant"}
    for line_no, parts in _parse_lines(text):
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise FormatError(line_no, "edge before 'n' line")
            if len(parts) < 4:
                raise FormatError(line_no, "edge line needs two endpoints and at least one time")
            try:
                u, v, *ts = map(int, parts[1:])
            except ValueError:
                raise FormatError(line_no, "non-integer field on edge line") from None
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(line_no, f"vertex id out of range on edge ({u},{v})")
            if u >= v:
                raise FormatError(line_no, f"edge endpoints must satisfy u < v, got ({u},{v})")
            if (u, v) in index:
                raise FormatError(line_no, f"duplicate edge ({u},{v})")
            if min(ts) < 1:
                raise FormatError(line_no, "label < 1")
            if len(ts) > 1 and ts != sorted(set(ts)):
                raise FormatError(line_no, "labels not sorted strictly increasing")
            edges.append((u, v))
            index[edges[-1]] = len(index)
            labels.append(tuple(ts))
        elif kind == "n":
            if n is not None:
                raise FormatError(line_no, "repeated 'n' line")
            if len(parts) != 2:
                raise FormatError(line_no, "'n' line needs exactly one count")
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(line_no, f"bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise FormatError(line_no, "vertex count must be nonnegative")
        elif allow_headers and kind in header_keys:
            continue
        else:
            raise FormatError(line_no, f"unknown line kind {kind!r}")
    if n is None:
        raise FormatError(0, "missing 'n' line")
    if edges != sorted(edges):  # lines out of order
        edges, labels = zip(*sorted(zip(edges, labels)))
        return _unchecked(n=n, edges=edges, labels=labels)
    return _unchecked(n=n, edges=tuple(edges), labels=tuple(labels), edge_index=index)


def serialize_graph(g: TemporalGraph) -> str:
    """Canonical ``.tg`` text: sorted edges, single spaces, trailing newline."""
    out = [f"n {g.n}"]
    for (u, v), ts in zip(g.edges, g.labels):
        out.append(f"e {u} {v} " + " ".join(str(t) for t in ts))
    return "\n".join(out) + "\n"


def parse_perturbation(text: str | bytes) -> Perturbation:
    header: dict[str, int] = {}
    records: list[tuple[Edge, int, int]] = []
    for line_no, parts in _parse_lines(text):
        kind = parts[0]
        if kind in ("delta", "zeta"):
            if kind in header:
                raise FormatError(line_no, f"repeated '{kind}' line")
            if len(parts) != 2:
                raise FormatError(line_no, f"'{kind}' line needs exactly one value")
            try:
                header[kind] = int(parts[1])
            except ValueError:
                raise FormatError(line_no, f"bad {kind} value") from None
            if header[kind] < 0:
                raise FormatError(line_no, f"{kind} must be nonnegative")
        elif kind == "p":
            if len(parts) != 5:
                raise FormatError(line_no, "'p' line needs u v old new")
            try:
                u, v, old, new = (int(x) for x in parts[1:])
            except ValueError:
                raise FormatError(line_no, "non-integer field on 'p' line") from None
            if u > v:
                u, v = v, u
            records.append(((u, v), old, new))
        else:
            raise FormatError(line_no, f"unknown line kind {kind!r}")
    if len(header) != 2:
        raise FormatError(0, "missing delta/zeta header")
    return Perturbation(header["delta"], header["zeta"], tuple(sorted(records)))


def serialize_perturbation(p: Perturbation) -> str:
    out = [f"delta {p.delta}", f"zeta {p.zeta}"]
    for (u, v), old, new in p.records:
        out.append(f"p {u} {v} {old} {new}")
    return "\n".join(out) + "\n"


def check_perturbation(g: TemporalGraph, p: Perturbation) -> tuple[tuple[int, ...], ...]:
    """Raise PerturbationError naming the first offending record, if any, and
    else return g's labels with the records applied."""
    by_edge: dict[Edge, dict[int, int]] = {}
    for e, old, new in p.records:
        if e not in g.edge_index:
            raise PerturbationError(f"record {e} {old}->{new}: no such edge")
        ts = g.labels[g.edge_index[e]]
        if old not in ts:
            raise PerturbationError(f"record {e} {old}->{new}: {old} is not a label of {e}")
        if not (max(1, old - p.delta) <= new <= old + p.delta):
            raise PerturbationError(
                f"record {e} {old}->{new}: new time outside [max(1,{old}-{p.delta}), {old}+{p.delta}]"
            )
        moves = by_edge.setdefault(e, {})
        if old in moves:
            raise PerturbationError(f"record {e} {old}->{new}: duplicate record for this appearance")
        moves[old] = new
    labels = list(g.labels)
    for e, moves in by_edge.items():
        i = g.edge_index[e]
        result = sorted(moves.get(t, t) for t in labels[i])
        if len(set(result)) != len(result):
            raise PerturbationError(
                f"records on edge {e}: resulting labels {result} are not pairwise distinct"
            )
        labels[i] = tuple(result)
    if p.perturbed_count > p.zeta:
        raise PerturbationError(
            f"{p.perturbed_count} moved time-edges exceed the declared zeta={p.zeta}"
        )
    return tuple(labels)


def apply_perturbation(g: TemporalGraph, p: Perturbation) -> TemporalGraph:
    """Return the relabelled graph; edge set and per-edge label counts are unchanged."""
    return g._relabelled(check_perturbation(g, p))


def window(t: int, delta: int) -> range:
    """The times an appearance at t may move to: within ±delta, clipped at 1."""
    return range(max(1, t - delta), t + delta + 1)


def _useful_delta(g: TemporalGraph, delta: int) -> int:
    """delta, or lifetime + n if smaller: every time in [1, T+n+1] then lies
    in every window, and no journey needs a later one (at most n-1 edges
    follow the last label), so a larger delta reaches nothing more.
    ``treedp`` and ``twdp`` cap delta with it before ``compress_time``.
    ``twdp`` needs the cap: its label images (every tuple of window times)
    and ``_star_rows``' rows (one per departure time) grow with the windows'
    length.  ``treedp``'s tables change only at event times and ``reach``'s
    sweeps keep at most n - 1 layers of each stretch, so their work does not;
    ``testkit``'s oracles, which list every window time, grow with it
    whenever delta and zeta are both above 0."""
    return min(delta, g.lifetime + g.n)


def _is_tree(n: int, pairs: tuple[Edge, ...]) -> bool:
    """Whether ``pairs`` are the edges of one tree spanning vertices 0..n-1."""
    if len(pairs) != n - 1:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def compress_time(g: TemporalGraph, delta: int) -> tuple[TemporalGraph, dict[int, int]]:
    """Order-preserving time compression for ±delta re-timings.

    Walks the sorted distinct labels, with a virtual label 0 in front, and
    shrinks the gap from 0 to at most delta+1 and every later gap to at most
    2*delta+1.  Every window [max(1, t-delta), t+delta] keeps its order, its
    overlaps and its clipping at 1 (a first window that is not clipped
    starts at 1), and distances inside a run of close labels are unchanged,
    so strict journeys, minimal matchings and nearest origins are the same on
    both graphs.  So a graph whose labels are all >= delta+1 compresses to
    the same labels after any upward shift, and with L >= 1 distinct labels
    the compressed lifetime plus delta is at most L * (2*delta+1).  Returns
    the compressed graph and, per compressed label, the shift that maps it,
    and any time within delta of it, back.
    """
    new: dict[int, int] = {}
    prev = cur = 0
    gap = delta + 1
    for t in sorted({t for ts in g.labels for t in ts}):
        cur += min(t - prev, gap)
        new[t], prev, gap = cur, t, 2 * delta + 1
    labels = tuple(tuple(new[t] for t in ts) for ts in g.labels)
    return g._relabelled(labels), {c: t - c for t, c in new.items()}


def _minimal_matching(
    old: tuple[int, ...], new: tuple[int, ...], delta: int
) -> Optional[tuple[tuple[int, int], ...]]:
    """Non-fixed (old, new) pairs of a within-±delta matching of the sorted
    label tuples ``old`` onto ``new`` with the fewest of them, or None if no
    matching exists.

    A matching fixing the set F of common values exists iff the sorted
    remainders admit the aligned matching (uncrossing), so we search F from
    largest to smallest.
    """
    if len(old) != len(new):
        return None
    common = sorted(set(old) & set(new))
    for k in range(len(common), -1, -1):
        for keep in itertools.combinations(common, k):
            ks = set(keep)
            pairs = tuple(zip(
                (t for t in old if t not in ks), (t for t in new if t not in ks)
            ))
            if all(abs(a - b) <= delta and b >= 1 for a, b in pairs):
                return pairs
    return None


def minimal_moves(old: tuple[int, ...], new: tuple[int, ...], delta: int) -> Optional[int]:
    """Minimum number of non-fixed pairs over all within-±delta matchings of the
    sorted label tuples ``old`` onto ``new``, or None if no matching exists."""
    pairs = _minimal_matching(old, new, delta)
    return None if pairs is None else len(pairs)


def validate_relabelling(g: TemporalGraph, g2: TemporalGraph, delta: int) -> Optional[int]:
    """Minimal moved time-edge count certifying g2 as a delta-perturbation of g.

    Returns None when some edge admits no within-±delta matching.  Structural
    mismatch (different vertex/edge sets or label counts) raises ValueError.
    """
    if g.n != g2.n or g.edges != g2.edges:
        raise ValueError("graphs do not share vertex and edge sets")
    total = 0
    for ts, ts2 in zip(g.labels, g2.labels):
        if len(ts) != len(ts2):
            raise ValueError("per-edge label counts differ")
        moved = minimal_moves(ts, ts2, delta)
        if moved is None:
            return None
        total += moved
    return total


def next_label_after(labels: tuple[int, ...], t: int) -> Optional[int]:
    """Smallest label strictly greater than t, or None."""
    i = bisect_right(labels, t)
    return labels[i] if i < len(labels) else None


def next_expanded_after(labels: tuple[int, ...], t: int, delta: int) -> Optional[int]:
    """Smallest time > t reachable by moving some label by at most ±delta (>= 1)."""
    i = bisect_right(labels, t - delta)
    if i >= len(labels):
        return None
    return max(t + 1, labels[i] - delta)
