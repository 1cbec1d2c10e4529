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

The DP runs on ``compress_time``'s copy of the graph, so its time axis has
horizon <= (distinct labels) * (2*delta+1) + delta whatever the size of the
labels; the certificate is mapped back and checked on the original graph.

A vertex's table depends on the root only through its parent p: its subtree
is its component of T - p, its children are its neighbours other than p in
adjacency order, and delta, zeta, h and the compressed graph are the same for
every source.  So tables are keyed by the directed edge (v, p), with p = -1
at the root, and ``solve_trlp_tree_all_sources`` shares them over all sources:
it builds at most 2(n-1) + n tables instead of one per vertex and source.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .solvers import SolveResult, TrlpInstance, _certified_yes, _nearest_origin_label
from .tgraph import TemporalGraph, compress_time, next_expanded_after, next_label_after

# (gain, edge time or None when the child is skipped, moved)
_Option = tuple[int, Optional[int], bool]


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


def _tree_order(
    g: TemporalGraph, source: int
) -> tuple[list[int], list[list[int]], list[int]]:
    """(postorder, children lists, parents) of the tree rooted at source."""
    if len(g.edges) != g.n - 1:
        raise ValueError("underlying graph is not a connected tree")
    children: list[list[int]] = [[] for _ in range(g.n)]
    parent = [-1] * g.n
    seen = [False] * g.n
    seen[source] = True
    order = []
    stack = [source]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, _ in g.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                children[v].append(w)
                parent[w] = v
                stack.append(w)
    if len(order) != g.n:
        raise ValueError("underlying graph is not a connected tree")
    return list(reversed(order)), children, parent


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


def _value_tables(
    inst: TrlpInstance, source: int, tables: Optional[dict] = None
) -> tuple[list, list, list]:
    """Per-vertex value[z][t] tables (r capped at h), postorder, children.
    ``tables`` maps (v, parent or -1) to v's table: tables found there are
    reused and tables built are added, so sources of one instance share them."""
    g, zeta, delta, h = inst.graph, inst.zeta, inst.delta, inst.h
    horizon = g.lifetime + delta
    post, children, parent = _tree_order(g, source)
    tables = {} if tables is None else tables
    value: list = [None] * g.n
    for v in post:
        key = (v, parent[v])
        if key in tables:
            value[v] = tables[key]
            continue
        table = [[0] * (horizon + 2) for _ in range(zeta + 1)]
        for z in range(zeta + 1):
            table[z][horizon + 1] = 1
        for t in range(horizon + 1):
            rows = [_child_row(g, v, c, t, zeta, delta, value[c]) for c in children[v]]
            totals, _picks = _merge(rows, zeta)
            for z in range(zeta + 1):
                table[z][t] = min(1 + totals[z], h)
        value[v] = tables[key] = table
    return value, post, children


def _reconstruct(
    inst: TrlpInstance, value: list, children: list, v: int, z: int, t: int,
    records: list,
) -> None:
    g, delta, zeta = inst.graph, inst.delta, inst.zeta
    if t > g.lifetime + delta or not children[v]:
        return
    rows = [_child_row(g, v, c, t, zeta, delta, value[c]) for c in children[v]]
    _totals, picks = _merge(rows, zeta)
    w = z
    for i in range(len(rows) - 1, -1, -1):
        b = picks[i][w]
        w -= b
        _gain, edge_time, moved = rows[i][b]
        if edge_time is None:
            continue
        c = children[v][i]
        if moved:
            t0 = _nearest_origin_label(g.edge_labels(v, c), edge_time, delta)
            records.append(((v, c) if v < c else (c, v), t0, edge_time))
        _reconstruct(
            inst, value, children, c, b - 1 if moved else b, edge_time + 1, records
        )


def solve_trlp_tree(
    inst: TrlpInstance, source: int, *, tables: Optional[dict] = None
) -> SolveResult:
    """Exact answer for one source on a tree-shaped instance; calls on one
    instance may share ``tables`` (see ``_value_tables``)."""
    g, shift = compress_time(inst.graph, inst.delta)
    small = replace(inst, graph=g)
    value, _post, children = _value_tables(small, source, tables)
    score = value[source][inst.zeta][0]
    if score < inst.h:
        return SolveResult(False, "tree", source=source, reach_count=score)
    records: list = []
    # rebuild from the smallest budget that reaches h, so no move is spent
    # that the answer does not need
    z = next(z for z, row in enumerate(value[source]) if row[0] >= inst.h)
    _reconstruct(small, value, children, source, z, 0, records)
    return _certified_yes(inst, "tree", source, records, shift)


def solve_trlp_tree_all_sources(inst: TrlpInstance) -> SolveResult:
    """First-yes over sources in ascending id order, sharing subtree tables."""
    best = 0
    tables: dict = {}
    for source in range(inst.graph.n):
        res = solve_trlp_tree(inst, source, tables=tables)
        if res.answer:
            return res
        best = max(best, res.reach_count)
    return SolveResult(False, "tree", reach_count=best)
