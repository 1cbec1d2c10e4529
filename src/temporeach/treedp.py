"""Bounded-perturbation reachability on trees: bottom-up DP with a
multiple-choice-knapsack split of the budget across children.

State semantics for a vertex v of the tree rooted at the source: value[z][t]
is the most vertices of v's subtree (v included) that v can reach using at
most z re-timings inside the subtree, by paths departing v at time >= t.
Leaves score 1 everywhere.  For an internal vertex at time t, each child c
offers pairs (budget, gain): skip (0,0); use edge vc at its first original
label t1 > t and continue with c's value at t1+1; or spend one re-timing to
use vc at the earliest reachable t2 > t and continue at t2+1.  One pair per
child is chosen to maximise total gain under each budget, which is exactly
the multiple-choice knapsack.

The DP runs on ``compress_time``'s copy of the graph, so its time axis has
horizon <= (distinct labels) * (2*delta+1) + delta whatever the size of the
labels; the certificate is mapped back and checked on the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .solvers import SolveResult, TrlpInstance, _certified_yes, _nearest_origin_label
from .tgraph import TemporalGraph, compress_time, next_expanded_after, next_label_after


@dataclass(frozen=True)
class MckpInstance:
    """One item per class must be chosen; weights/profits are nonnegative."""

    capacity: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")
        for cls in self.classes:
            if not cls:
                raise ValueError("empty class")
            for w, p in cls:
                if w < 0 or p < 0:
                    raise ValueError("negative weight or profit")


def _mckp_table(
    classes: tuple[tuple[tuple[int, int], ...], ...], cap: int
) -> tuple[list[Optional[int]], list[list[Optional[tuple[int, int]]]]]:
    """DP over classes; choice[i][w] = (item index in class i, previous w)."""
    dp: list[Optional[int]] = [0] * (cap + 1)
    choice: list[list[Optional[tuple[int, int]]]] = []
    for cls in classes:
        nxt: list[Optional[int]] = [None] * (cap + 1)
        ch: list[Optional[tuple[int, int]]] = [None] * (cap + 1)
        for w in range(cap + 1):
            for idx, (wi, pi) in enumerate(cls):
                if wi > w or dp[w - wi] is None:
                    continue
                cand = dp[w - wi] + pi
                if nxt[w] is None or cand > nxt[w]:
                    nxt[w] = cand
                    ch[w] = (idx, w - wi)
        dp = nxt
        choice.append(ch)
    return dp, choice


def mckp_solve(inst: MckpInstance) -> list[Optional[int]]:
    """Best total profit for every capacity 0..c (None where infeasible)."""
    best, _ = _mckp_table(inst.classes, inst.capacity)
    return best


@dataclass(frozen=True)
class _Pair:
    weight: int
    profit: int
    kind: str  # "skip" | "plain" | "moved"
    child_budget: int
    edge_time: Optional[int]


def _tree_order(g: TemporalGraph, source: int) -> tuple[list[int], list[list[int]]]:
    """(postorder, children lists) of the tree rooted at source."""
    if len(g.edges) != g.n - 1:
        raise ValueError("underlying graph is not a connected tree")
    children: list[list[int]] = [[] for _ in range(g.n)]
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
                stack.append(w)
    if len(order) != g.n:
        raise ValueError("underlying graph is not a connected tree")
    return list(reversed(order)), children


def _child_pairs(
    g: TemporalGraph, v: int, c: int, t: int, zeta: int, delta: int,
    value_c: list[list[int]], horizon: int,
) -> list[_Pair]:
    # departure semantics: the edge may be used at any time >= t
    labels = g.edge_labels(v, c)
    pairs: list[_Pair] = [_Pair(0, 0, "skip", 0, None)]
    floor = max(t, 1)
    t1 = next_label_after(labels, floor - 1)
    if t1 is not None:
        dep = min(t1 + 1, horizon + 1)
        for z in range(zeta + 1):
            pairs.append(_Pair(z, value_c[z][dep], "plain", z, t1))
    if delta >= 1:
        t2 = next_expanded_after(labels, floor - 1, delta)
        if t2 is not None and (t1 is None or t2 < t1):
            dep = min(t2 + 1, horizon + 1)
            for z in range(zeta):
                pairs.append(_Pair(z + 1, value_c[z][dep], "moved", z, t2))
    best: dict[int, _Pair] = {}
    for p in pairs:
        if p.weight > zeta:
            continue
        cur = best.get(p.weight)
        if cur is None or p.profit > cur.profit:
            best[p.weight] = p
    return [best[w] for w in sorted(best)]


def _value_tables(inst: TrlpInstance, source: int) -> tuple[list, list, list]:
    """Per-vertex value[z][t] tables (r capped at h), postorder, children."""
    g, zeta, delta, h = inst.graph, inst.zeta, inst.delta, inst.h
    horizon = g.lifetime + delta
    post, children = _tree_order(g, source)
    value: list = [None] * g.n
    for v in post:
        if not children[v]:
            value[v] = [[1] * (horizon + 2) for _ in range(zeta + 1)]
            continue
        table = [[0] * (horizon + 2) for _ in range(zeta + 1)]
        for z in range(zeta + 1):
            table[z][horizon + 1] = 1
        for t in range(horizon + 1):
            classes = tuple(
                tuple((p.weight, p.profit) for p in
                      _child_pairs(g, v, c, t, zeta, delta, value[c], horizon))
                for c in children[v]
            )
            best, _ = _mckp_table(classes, zeta)
            for z in range(zeta + 1):
                table[z][t] = min(1 + (best[z] or 0), h)
        value[v] = table
    return value, post, children


def _reconstruct(
    inst: TrlpInstance, value: list, children: list, v: int, z: int, t: int,
    records: list,
) -> None:
    g, delta, zeta = inst.graph, inst.delta, inst.zeta
    horizon = g.lifetime + delta
    if t > horizon or not children[v]:
        return
    pair_lists = [
        _child_pairs(g, v, c, t, zeta, delta, value[c], horizon)
        for c in children[v]
    ]
    classes = tuple(tuple((p.weight, p.profit) for p in pl) for pl in pair_lists)
    _best, choice = _mckp_table(classes, zeta)
    w = z
    picked: list[tuple[int, _Pair]] = []
    for i in range(len(children[v]) - 1, -1, -1):
        idx, prev = choice[i][w]
        picked.append((children[v][i], pair_lists[i][idx]))
        w = prev
    for c, pair in picked:
        if pair.kind == "skip":
            continue
        if pair.kind == "moved":
            labels = g.edge_labels(v, c)
            if pair.edge_time not in labels:
                t0 = _nearest_origin_label(labels, pair.edge_time, delta)
                e = (v, c) if v < c else (c, v)
                records.append((e, t0, pair.edge_time))
        _reconstruct(
            inst, value, children, c, pair.child_budget,
            min(pair.edge_time + 1, horizon + 1), records,
        )


def solve_trlp_tree(inst: TrlpInstance, source: int) -> SolveResult:
    """Exact answer for one source on a tree-shaped instance."""
    g, shift = compress_time(inst.graph, inst.delta)
    small = replace(inst, graph=g)
    value, _post, children = _value_tables(small, source)
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
    """First-yes over sources in ascending id order."""
    best = 0
    for source in range(inst.graph.n):
        res = solve_trlp_tree(inst, source)
        if res.answer:
            return res
        best = max(best, res.reach_count)
    return SolveResult(False, "tree", reach_count=best)
