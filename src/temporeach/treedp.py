"""Bounded-perturbation reachability on trees: bottom-up DP that splits the
budget across children with a max-plus merge of per-child gain rows.

State semantics for a vertex v of the tree rooted at the source: value[z][t]
is the most vertices of v's subtree (v included) that v can reach using at
most z re-timings inside the subtree, by paths departing v at time >= t.
Leaves score 1 everywhere.  For an internal vertex at time t, each child c
has one best option per budget w (``_child_row``): use edge vc at its first
original label t1 >= t and continue with c's value at t1+1 under budget w, or
spend one re-timing to use vc at the earliest reachable t2 < t1 and continue
at t2+1 under budget w-1.  Budget 0 without t1 skips c.  ``_merge`` splits
each total budget across the children's rows to maximise the summed gain.

A table is a step function of the departure time: the sorted times at which
its column (the values for budgets 0..zeta) changes, each with the column
from then on, ending with the all-ones column at horizon + 1; ``_column``
reads it.  Equal adjacent columns are merged, so equal tables compare equal.
Between two of a vertex's event times no child's gains change, so
``_table`` builds the table only there: time 0, and for each label l of an
edge to a child, l+1 (t1 moves on) and l+delta+1 (a window ends), and e-1
for each event time e of the child's own table.  From l-delta on, t2 is t
itself, so the moved gain changes only where c's value at t+1 does, at some
e-1; and at t = l, where moving stops paying (t2 = t1), the gain drops only
if c's value for budget w-1 falls from l to l+1, an event e = l+1 too
(tables fall with t and rise with z).  It merges only where some child's
gains change.  So the work follows the tree's size and its labels, not delta
or the width of the time axis.

``solve_trlp_tree`` is the one entry point.  It answers for every source,
the first yes in ascending source id winning, and skips by ``solve_trlp_xp``'s
rule any source that can neither win nor raise the best count: one
all-sources sweep with every label widened by ±delta (``reach.reach_counts``)
bounds what a source reaches under at most zeta re-timings, and a source whose
bound is at most the best so far is never rooted.  A source is read only at
departure 0, from one merge of its children's rows, so no root table is
built.  The DP runs on ``compress_time``'s copy of the graph with delta
capped by ``_useful_delta``, so shifting labels that are all >= delta+1
leaves every table unchanged.  The certificate is mapped back and checked
on the original graph.

A vertex's table depends on the root only through its parent p: its subtree
is its component of T - p, its children are its neighbours other than p in
adjacency order, and delta, zeta, h and the compressed graph are the same for
every source.  So one dict memoises the tables by the directed edge (v, p),
and every source it roots shares it: a call builds at most 2(n-1) tables,
fewer when sources are skipped.  ``_table`` builds a missing table and every
missing one below it; ``_reconstruct`` walks the same keys down from the
source.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from typing import Optional

from .reach import reach_counts
from .solvers import SolveResult, TrlpInstance, _certified_yes, _nearest_origin_label
from .tgraph import (
    TemporalGraph, _is_tree, _useful_delta, compress_time, next_expanded_after, next_label_after,
)

# (gain, edge time or None when the child is skipped, moved)
_Option = tuple[int, Optional[int], bool]

# a table: the times at which its column changes, and the column from each on
_Table = tuple[list[int], list[tuple[int, ...]]]

# v's table in the tree hanging from its parent, keyed (v, parent)
_Tables = dict[tuple[int, int], _Table]


def _column(table: _Table, t: int) -> tuple[int, ...]:
    """The table's values for budgets 0..zeta at departure time t."""
    times, columns = table
    return columns[bisect_right(times, t) - 1]


def _merge(rows: list[list[_Option]], cap: int) -> tuple[list[int], list[list[int]]]:
    """Max-plus merge of child rows over budgets 0..cap: totals[w] is the best
    summed gain within budget w, and picks[i][w] is the budget child i takes
    when children 0..i share w (the smaller budget on ties)."""
    totals = [0] * (cap + 1)
    picks = []
    for row in rows:
        nxt, pick = [], []
        for w in range(cap + 1):
            best, at = -1, 0
            for b, option in enumerate(row[: w + 1]):
                cand = totals[w - b] + option[0]
                if cand > best:
                    best, at = cand, b
            nxt.append(best)
            pick.append(at)
        totals = nxt
        picks.append(pick)
    return totals, picks


def _child_row(
    labels: tuple[int, ...], t: int, zeta: int, delta: int, value_c: _Table
) -> list[_Option]:
    """The best option per budget w of the child c whose edge from v has
    ``labels`` when v departs at time >= t; the unmoved edge wins ties.  The
    row stops at budget 0 when vc has no usable time at all."""
    floor = max(t, 1) - 1
    t1 = next_label_after(labels, floor)
    t2 = next_expanded_after(labels, floor, delta) if delta else None
    if t2 == t1:  # t2 <= t1 always: moving is only worth it to an earlier time
        t2 = None
    plain = _column(value_c, t1 + 1) if t1 is not None else None
    row: list[_Option] = [(plain[0], t1, False) if plain else (0, None, False)]
    if t1 is None and t2 is None:
        return row
    moved = _column(value_c, t2 + 1) if t2 is not None else None
    for w in range(1, zeta + 1):
        kept = plain[w] if plain else 0
        gain = moved[w - 1] if moved else 0
        row.append((gain, t2, True) if gain > kept else (kept, t1, False))
    return row


def _children(
    g: TemporalGraph, tables: _Tables, v: int, parent: int
) -> list[tuple[int, tuple[int, ...], _Table]]:
    """v's children below ``parent``, each with its edge's labels and its table."""
    return [(c, g.labels[ei], tables[(c, v)]) for c, ei in g.adjacency[v] if c != parent]


def _table(inst: TrlpInstance, tables: _Tables, v: int, parent: int) -> _Table:
    """v's table (r capped at h) below ``parent`` (-1 at the root), built
    into ``tables`` with every missing table under it."""
    g, zeta, delta, h = inst.graph, inst.zeta, inst.delta, inst.h
    horizon = g.lifetime + delta
    ones = (1,) * (zeta + 1)
    stack = [(v, parent)]
    while stack:
        u, p = stack[-1]
        missing = [(c, u) for c, _ in g.adjacency[u] if c != p and (c, u) not in tables]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        children = _children(g, tables, u, p)
        events = {0}
        for _c, labels, table in children:
            events.update(t + 1 for t in labels)
            events.update(t + delta + 1 for t in labels)
            events.update(e - 1 for e in table[0])
        times: list[int] = []
        columns: list[tuple[int, ...]] = []
        seen = None
        for t in sorted(e for e in events if 0 <= e <= horizon):
            rows = [_child_row(labels, t, zeta, delta, table) for _c, labels, table in children]
            gains = [[option[0] for option in row] for row in rows]
            if gains == seen:
                continue
            seen = gains
            totals, _picks = _merge(rows, zeta)
            column = tuple(min(1 + total, h) for total in totals)
            if not columns or column != columns[-1]:
                times.append(t)
                columns.append(column)
        if columns[-1] != ones:
            times.append(horizon + 1)
            columns.append(ones)
        tables[(u, p)] = times, columns
    return tables[(v, parent)]


def _reconstruct(
    inst: TrlpInstance, tables: _Tables, v: int, parent: int, z: int, t: int
) -> list:
    """Records of a perturbation inside v's subtree below ``parent`` that
    realises its value for budget z at departure time t: v reaches that many
    vertices departing at >= t."""
    g, delta, zeta = inst.graph, inst.delta, inst.zeta
    records = []
    stack = [(v, parent, z, t)]
    while stack:
        v, parent, z, t = stack.pop()
        if t > g.lifetime + delta:
            continue
        children = _children(g, tables, v, parent)
        rows = [_child_row(labels, t, zeta, delta, table) for _c, labels, table in children]
        _totals, picks = _merge(rows, zeta)
        w = z
        for i in range(len(rows) - 1, -1, -1):
            b = picks[i][w]
            w -= b
            _gain, edge_time, moved = rows[i][b]
            if edge_time is None:
                continue
            c, labels, _ = children[i]
            if moved:
                t0 = _nearest_origin_label(labels, edge_time, delta)
                records.append(((v, c) if v < c else (c, v), t0, edge_time))
            stack.append((c, v, b - 1 if moved else b, edge_time + 1))
    return records


def solve_trlp_tree(inst: TrlpInstance) -> SolveResult:
    """Exact answer on a tree-shaped instance: the smallest source that
    reaches h wins; on a no, reach_count is the best over every source."""
    if not _is_tree(inst.graph.n, inst.graph.edges):
        raise ValueError("underlying graph is not a connected tree")
    delta = _useful_delta(inst.graph, inst.delta)
    g, shift = compress_time(inst.graph, delta)
    small = replace(inst, graph=g, delta=delta)
    upper = reach_counts(inst.graph, inst.delta)
    tables: _Tables = {}
    best = 0
    for source in range(g.n):
        if upper[source] <= best:  # can neither reach h nor raise the best
            continue
        for c, _ in g.adjacency[source]:
            _table(small, tables, c, source)
        rows = [_child_row(labels, 0, inst.zeta, delta, table)
                for _c, labels, table in _children(g, tables, source, -1)]
        totals, _picks = _merge(rows, inst.zeta)
        if 1 + totals[inst.zeta] >= inst.h:
            # rebuild from the smallest budget that reaches h, so no move is
            # spent that the answer does not need
            z = next(z for z, total in enumerate(totals) if 1 + total >= inst.h)
            records = _reconstruct(small, tables, source, -1, z, 0)
            return _certified_yes(inst, "tree", source, records, shift)
        best = max(best, 1 + totals[inst.zeta])
    return SolveResult(False, "tree", reach_count=best)
