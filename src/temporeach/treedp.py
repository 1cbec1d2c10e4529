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

``solve_trlp_tree`` is the one entry point.  It answers for every source,
the first yes in ascending source id winning, and skips by ``solve_trlp_xp``'s
rule any source that can neither win nor raise the best count: one
all-sources sweep with every label widened by ±delta (``reach.reach_counts``)
bounds what a source reaches under at most zeta re-timings, and a source whose
bound is at most the best so far is never rooted.  It compresses time once:
the DP runs on ``compress_time``'s copy of the graph with delta capped by
``_useful_delta``, so its time axis has horizon = lifetime + delta, at most
(distinct labels) * (2*delta+1) on a tree with an edge whatever the size of
the labels, and <= 2T+n whatever delta is; shifting labels that are all
>= delta+1 leaves it unchanged.  The certificate is mapped back and checked
on the original graph.

A vertex's table depends on the root only through its parent p: its subtree
is its component of T - p, its children are its neighbours other than p in
adjacency order, and delta, zeta, h and the compressed graph are the same for
every source.  So one dict memoises the tables by the directed edge (v, p),
with p = -1 at the root, and every source it roots shares it: a call builds
at most 2(n-1) + n tables, fewer when sources are skipped.  ``_table``
builds a missing table and every missing one below it; ``_reconstruct``
walks the same keys down from the source.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .reach import reach_counts
from .solvers import SolveResult, TrlpInstance, _certified_yes, _nearest_origin_label
from .tgraph import (
    TemporalGraph, _is_tree, _useful_delta, compress_time, next_expanded_after, next_label_after,
)

# (gain, edge time or None when the child is skipped, moved)
_Option = tuple[int, Optional[int], bool]

# v's value[z][t] table in the tree hanging from its parent, keyed (v, parent)
_Tables = dict[tuple[int, int], list[list[int]]]


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
    g: TemporalGraph, v: int, c: int, t: int, zeta: int, delta: int,
    value_c: list[list[int]],
) -> list[_Option]:
    """Child c's best option per budget w when v departs at time >= t; the
    unmoved edge wins ties.  The row stops at budget 0 when vc has no usable
    time at all."""
    labels = g.edge_labels(v, c)
    floor = max(t, 1) - 1
    t1 = next_label_after(labels, floor)
    t2 = next_expanded_after(labels, floor, delta) if delta else None
    if t2 == t1:  # t2 <= t1 always: moving is only worth it to an earlier time
        t2 = None
    row: list[_Option] = [(value_c[0][t1 + 1], t1, False) if t1 is not None else (0, None, False)]
    if t1 is None and t2 is None:
        return row
    for w in range(1, zeta + 1):
        plain = value_c[w][t1 + 1] if t1 is not None else 0
        moved = value_c[w - 1][t2 + 1] if t2 is not None else 0
        row.append((moved, t2, True) if moved > plain else (plain, t1, False))
    return row


def _table(inst: TrlpInstance, tables: _Tables, v: int, parent: int) -> list[list[int]]:
    """v's value[z][t] table (r capped at h) below ``parent`` (-1 at the
    root), built into ``tables`` with every missing table under it."""
    g, zeta, delta, h = inst.graph, inst.zeta, inst.delta, inst.h
    horizon = g.lifetime + delta
    stack = [(v, parent)]
    while stack:
        u, p = stack[-1]
        children = [c for c, _ in g.adjacency[u] if c != p]
        missing = [(c, u) for c in children if (c, u) not in tables]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        table = [[0] * (horizon + 2) for _ in range(zeta + 1)]
        for z in range(zeta + 1):
            table[z][horizon + 1] = 1
        for t in range(horizon + 1):
            rows = [_child_row(g, u, c, t, zeta, delta, tables[(c, u)]) for c in children]
            totals, _picks = _merge(rows, zeta)
            for z in range(zeta + 1):
                table[z][t] = min(1 + totals[z], h)
        tables[(u, p)] = table
    return tables[(v, parent)]


def _reconstruct(
    inst: TrlpInstance, tables: _Tables, v: int, parent: int, z: int, t: int
) -> list:
    """Records of a perturbation inside v's subtree below ``parent`` that
    realises table[z][t]: v reaches that many vertices departing at >= t."""
    g, delta, zeta = inst.graph, inst.delta, inst.zeta
    records = []
    stack = [(v, parent, z, t)]
    while stack:
        v, parent, z, t = stack.pop()
        children = [c for c, _ in g.adjacency[v] if c != parent]
        if t > g.lifetime + delta or not children:
            continue
        rows = [_child_row(g, v, c, t, zeta, delta, tables[(c, v)]) for c in children]
        _totals, picks = _merge(rows, zeta)
        w = z
        for i in range(len(rows) - 1, -1, -1):
            b = picks[i][w]
            w -= b
            _gain, edge_time, moved = rows[i][b]
            if edge_time is None:
                continue
            c = children[i]
            if moved:
                t0 = _nearest_origin_label(g.edge_labels(v, c), edge_time, delta)
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
        value = _table(small, tables, source, -1)
        score = value[inst.zeta][0]
        if score >= inst.h:
            # rebuild from the smallest budget that reaches h, so no move is
            # spent that the answer does not need
            z = next(z for z, row in enumerate(value) if row[0] >= inst.h)
            records = _reconstruct(small, tables, source, -1, z, 0)
            return _certified_yes(inst, "tree", source, records, shift)
        best = max(best, score)
    return SolveResult(False, "tree", reach_count=best)
