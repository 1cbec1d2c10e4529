"""Bounded-treewidth DP for reachability under bounded re-timings.

The DP runs bottom-up over a nice tree decomposition rooted at a bag holding
only the source.  A node state records: the re-timed label sets of the edges
inside the bag; for every (bag vertex v, departure time t) the foremost
arrival at each bag vertex over paths inside the processed subgraph; for
every assignment of departure times to bag vertices, how many distinct
already-forgotten vertices they reach (capped at h); and the number of moved
appearances on every edge of the processed subgraph.  An edge's moves are
charged once, when the introduce node that adds it picks its image; a join
adds its sides' moves and takes off the bag edges' cost, which both sides
hold.  Leaf/introduce/forget/join rules derive parent states constructively
from child states, so enumeration is over (bag-edge image choices x
child-state combinations) only.

Each nice node is evaluated as it is built (``_Node``: bag, states,
children).  ``_side(c, parent)`` is decomposition node c's subtree seen from
its neighbour ``parent``, topped by parent's bag: a leaf with c's bag
introduced, or the other neighbours' sides, joined in adjacency order, then
reshaped to parent's bag (``_reshape``: forgets, then introduces).  A side
depends only on its link, so one call memoises it by (c, parent) and every
source shares it, each arm reshaped once; a source reshapes the side of the
first bag holding it, with parent -1 and so topped by that bag, down to
{source}.

A join node stitches its two sides' arrival functions (``_join_rin``): the
sides meet only in the bag, so a foremost path alternates between them at bag
vertices.  An introduce node of vertex u is the same situation: the child's
subgraph with u added as an isolated vertex, and the star of u's new bag edges
under the chosen images.  Its arrivals are that stitch of the child's rows
and the star's; its counts are the child's, read at the departure vector
made earlier by what u reaches from its own departure time.

A departure vector gives each bag column a time in 0..horizon, or horizon+1
for "does not depart".  The counts are a flat tuple indexed by the vector's
base-(horizon+2) value, first column most significant (``_u_enum`` order), so
a node finds a child's entry by arithmetic: Horner's rule over the child's
columns for introduce and join, and one inserted digit for forget
(``_insert_digit``).

The DP runs on ``compress_time``'s copy of the graph, so departure and
arrival times range over 0..horizon with horizon <= (distinct labels) *
(2*delta+1) + delta whatever the size of the labels; the certificate is mapped
back and checked on the original graph.

Scoped to micro parameters: one candidate counter spans the whole call,
counting each evaluated node once however many sources share it, and
exceeding ``caps.tw_states`` triggers a refusal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil, log2
from typing import Iterable, NamedTuple, Optional

from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .solvers import SolveResult, TrlpInstance, _certified_yes
from .tgraph import Edge, _is_tree, _parse_lines, compress_time, matching_records, minimal_moves


class DecompositionError(ValueError):
    """A tree-decomposition axiom fails; the message names the witness."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Unrooted decomposition: bags[i] is node i's vertex set; ``links`` are
    undirected tree edges between node ids."""

    bags: tuple[frozenset[int], ...]
    links: tuple[tuple[int, int], ...]

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


def validate_decomposition(
    n: int, graph_edges: tuple[Edge, ...], decomp: TreeDecomposition
) -> None:
    """Check the three axioms plus tree-ness; raise DecompositionError."""
    k = len(decomp.bags)
    if k == 0:
        raise DecompositionError("decomposition has no nodes")
    for a, b in decomp.links:
        if not (0 <= a < k and 0 <= b < k):
            raise DecompositionError(f"link ({a},{b}) references a missing node")
    if len(decomp.links) != k - 1:
        raise DecompositionError("decomposition links do not form a tree")
    if not _is_tree(k, decomp.links):
        raise DecompositionError("decomposition links do not form a tree (disconnected)")
    covered = set().union(*decomp.bags) if decomp.bags else set()
    for v in range(n):
        if v not in covered:
            raise DecompositionError(f"vertex {v} appears in no bag")
    for bag in decomp.bags:
        for v in bag:
            if not (0 <= v < n):
                raise DecompositionError(f"bag vertex {v} out of range")
    for u, v in graph_edges:
        if not any(u in b and v in b for b in decomp.bags):
            raise DecompositionError(f"edge ({u},{v}) is contained in no bag")
    # the links form a tree, so the bags holding v are connected exactly when
    # the links between two of them number one fewer than those bags
    spare = [0] * n
    for bag in decomp.bags:
        for v in bag:
            spare[v] += 1
    for a, b in decomp.links:
        for v in decomp.bags[a] & decomp.bags[b]:
            spare[v] -= 1
    for v in range(n):
        if spare[v] != 1:
            raise DecompositionError(f"bags containing vertex {v} are not connected")


# ---------------------------------------------------------------------------
# Exact treewidth for small graphs: subset DP over elimination prefixes.


def decompose_exact_small(n: int, edges: tuple[Edge, ...]) -> TreeDecomposition:
    """Width-minimal decomposition from an optimal elimination order."""
    if n > 20:
        raise CapExceeded("exact treewidth guard: at most 20 vertices")
    if n == 0:
        raise ValueError("graph has no vertices")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def through_degree(v: int, wmask: int) -> int:
        seen = 1 << v
        frontier = adj[v]
        result = 0
        while True:
            new = frontier & ~seen
            if not new:
                break
            seen |= new
            result |= new & ~wmask
            expand = new & wmask
            frontier = 0
            while expand:
                low = expand & -expand
                expand ^= low
                frontier |= adj[low.bit_length() - 1]
        return bin(result).count("1")

    memo: dict[int, int] = {0: 0}

    def g(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        best = n
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            best = min(best, max(g(mask ^ low), through_degree(v, mask ^ low)))
        memo[mask] = best
        return best

    full = (1 << n) - 1
    g(full)
    order: list[int] = []
    mask = full
    while mask:
        pick, pick_cost = None, None
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            cost = max(g(mask ^ low), through_degree(v, mask ^ low))
            if pick_cost is None or cost < pick_cost:
                pick, pick_cost = v, cost
        order.append(pick)
        mask ^= 1 << pick
    order.reverse()

    work = [set() for _ in range(n)]
    for u, v in edges:
        work[u].add(v)
        work[v].add(u)
    pos = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    for v in order:
        nb = set(work[v])
        bags.append(frozenset(nb | {v}))
        for a in nb:
            work[a].discard(v)
            for b in nb:
                if a != b:
                    work[a].add(b)
    links = []
    for i, v in enumerate(order):
        later = [pos[w] for w in bags[i] if pos[w] > i]
        if later:
            links.append((i, min(later)))
        elif i + 1 < n:
            links.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(links))


def parse_decomposition(text: str | bytes) -> TreeDecomposition:
    """Lines ``b <node-id> <v...>`` (bags) and ``t <a> <b>`` (tree links)."""
    bags: dict[int, frozenset[int]] = {}
    links: list[tuple[int, int]] = []
    for line_no, parts in _parse_lines(text):
        kind = parts[0]
        if kind not in ("b", "t"):
            raise DecompositionError(f"line {line_no}: unknown line kind {kind!r}")
        if kind == "b" and len(parts) < 2:
            raise DecompositionError(f"line {line_no}: 'b' line needs a node id")
        if kind == "t" and len(parts) != 3:
            raise DecompositionError(f"line {line_no}: 't' line needs exactly two node ids")
        try:
            ids = [int(x) for x in parts[1:]]
        except ValueError:
            raise DecompositionError(f"line {line_no}: non-integer field on {kind!r} line") from None
        if kind == "t":
            links.append((ids[0], ids[1]))
        elif ids[0] in bags:
            raise DecompositionError(f"line {line_no}: repeated bag id {ids[0]}")
        else:
            bags[ids[0]] = frozenset(ids[1:])
    ids = sorted(bags)
    remap = {x: i for i, x in enumerate(ids)}
    try:
        link_ids = tuple((remap[a], remap[b]) for a, b in links)
    except KeyError as exc:
        raise DecompositionError(f"link references unknown node {exc}") from None
    return TreeDecomposition(tuple(bags[x] for x in ids), link_ids)


# ---------------------------------------------------------------------------
# The DP proper


class TwState(NamedTuple):
    """Hashable state: bag-edge images, in-subgraph foremost arrivals, counts
    of reached forgotten vertices per departure assignment, and the moves on
    every edge of the processed subgraph, charged when each is introduced."""

    p: tuple[tuple[int, ...], ...]
    r_in: tuple[tuple[tuple[int, ...], ...], ...]
    r_below: tuple[int, ...]
    moves: int


class _Ctx:
    def __init__(self, inst: TrlpInstance, caps: WorkCaps):
        self.g = inst.graph
        self.delta = inst.delta
        self.zeta = inst.zeta
        self.h = inst.h
        self.caps = caps
        self.horizon = self.g.lifetime + inst.delta
        self.inf = self.horizon + 1
        self._images: dict[Edge, dict[tuple[int, ...], int]] = {}

    def bag_edges(self, bag: tuple[int, ...]) -> tuple[Edge, ...]:
        inside = []
        for i, u in enumerate(bag):
            for v in bag[i + 1 :]:
                if (u, v) in self.g.edge_index:
                    inside.append((u, v))
        return tuple(sorted(inside))

    def images(self, e: Edge) -> dict[tuple[int, ...], int]:
        """Edge e's label images, each sorted, mapped to their minimal move
        counts, in image order; built once per call."""
        out = self._images.get(e)
        if out is not None:
            return out
        labels = self.g.labels[self.g.edge_index[e]]
        windows = [
            range(max(1, t - self.delta), t + self.delta + 1) for t in labels
        ]
        seen: dict[tuple[int, ...], int] = {}
        for targets in itertools.product(*windows):
            if len(set(targets)) != len(targets):
                continue
            image = tuple(sorted(targets))
            if image not in seen:
                seen[image] = minimal_moves(labels, image, self.delta)
        out = self._images[e] = dict(sorted(seen.items()))
        return out


@lru_cache(maxsize=64)
def _u_enum(base: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Departure vectors over 0..base-1 in table order: a vector's index is
    its base-``base`` value, first column most significant."""
    return tuple(itertools.product(range(base), repeat=size))


def _insert_digit(index: int, digit: int, scale: int, base: int) -> int:
    """Index of the departure vector at ``index`` after inserting ``digit``
    with place value ``scale`` (a power of ``base``): the digits below it keep
    their places and the digits above it move up one."""
    high, low = divmod(index, scale)
    return (high * base + digit) * scale + low


def _bag_cost(ctx: _Ctx, bag_edges: tuple[Edge, ...], p: tuple) -> int:
    return sum(ctx.images(e)[image] for e, image in zip(bag_edges, p))


def _count(ctx: _Ctx, counter: list[int], kind: str) -> None:
    """Count one candidate of the call; refuse past ``caps.tw_states``."""
    counter[0] += 1
    if counter[0] > ctx.caps.tw_states:
        raise CapExceeded(f"{kind} node candidate count exceeded {ctx.caps.tw_states}")


def _star_rows(
    ctx: _Ctx, k: int, u_i: int, images: Iterable[tuple[int, tuple[int, ...]]]
) -> tuple:
    """Arrival rows of the star of bag column u_i, given (column, labels) of
    its edges: v->u at the first label >= t, u->w, and v->u->w' strictly
    later."""
    inf = ctx.inf
    # first[c][d]: first label >= d on u's edge to column c, for d <= inf + 1
    first = [[inf] * (inf + 2) for _ in range(k)]
    for c, labels in images:
        for d in range(inf + 2):
            pos = bisect_left(labels, d)
            first[c][d] = labels[pos] if pos < len(labels) else inf
    rows = []
    for i in range(k):
        per_t = []
        for t in range(ctx.horizon + 1):
            a, dep = (t, t) if i == u_i else (first[i][t], first[i][t] + 1)
            row = [first[j][dep] for j in range(k)]
            row[u_i] = a
            row[i] = t
            per_t.append(tuple(row))
        rows.append(tuple(per_t))
    return tuple(rows)


def _introduce_states(
    ctx: _Ctx, bag: tuple[int, ...], u: int, child_bag: tuple[int, ...],
    child_states: dict[TwState, tuple], counter: list[int],
) -> dict[TwState, tuple]:
    horizon, inf = ctx.horizon, ctx.inf
    k = len(bag)
    vidx = {v: i for i, v in enumerate(bag)}
    u_i = vidx[u]
    child_cols = [vidx[v] for v in child_bag]
    edges_s = ctx.bag_edges(bag)
    edges_child = ctx.bag_edges(child_bag)
    new_edges = tuple(e for e in edges_s if u in e)
    new_cols = [vidx[e[0] if e[1] == u else e[1]] for e in new_edges]
    image_lists = [ctx.images(e).items() for e in new_edges]
    u_alone = tuple(tuple(t if j == u_i else inf for j in range(k)) for t in range(horizon + 1))
    base = inf + 1
    u_all = _u_enum(base, k)
    stars: dict[int, tuple] = {}  # star rows by combo index, the same for every child state
    out: dict[TwState, tuple] = {}

    for ckey in sorted(child_states):
        # the child's arrivals with u added as an isolated vertex
        child_rows = tuple(
            u_alone if i == u_i
            else tuple(row[:u_i] + (inf,) + row[u_i:] for row in ckey.r_in[i - (i > u_i)])
            for i in range(k)
        )
        for ci, combo in enumerate(itertools.product(*image_lists)):
            _count(ctx, counter, "introduce")
            moves = ckey.moves + sum(c for _img, c in combo)
            if moves > ctx.zeta:
                continue
            p_map = dict(zip(edges_child, ckey.p))
            p_map.update((e, img) for e, (img, _c) in zip(new_edges, combo))
            p_s = tuple(p_map[e] for e in edges_s)
            star = stars.get(ci)
            if star is None:
                images = zip(new_cols, (img for img, _c in combo))
                star = stars[ci] = _star_rows(ctx, k, u_i, images)
            rin_s = _join_rin(ctx, bag, child_rows, star)

            # a child departure vector, made earlier by what u reaches from du
            rbelow = []
            for uu in u_all:
                du = uu[u_i]
                via = rin_s[u_i][du] if du <= horizon else None
                ci = 0
                for j in child_cols:
                    val = uu[j]
                    if via is not None and via[j] + 1 < val:
                        val = via[j] + 1
                    ci = ci * base + val
                rbelow.append(ckey.r_below[ci])
            state = TwState(p_s, rin_s, tuple(rbelow), moves)
            if state not in out:
                out[state] = (ckey,)
    return out


def _forget_states(
    ctx: _Ctx, bag: tuple[int, ...], u: int, child_bag: tuple[int, ...],
    child_states: dict[TwState, tuple], counter: list[int],
) -> dict[TwState, tuple]:
    horizon, inf = ctx.horizon, ctx.inf
    cidx = {v: i for i, v in enumerate(child_bag)}
    u_i = cidx[u]
    kept = [i for i, e in enumerate(ctx.bag_edges(child_bag)) if u not in e]
    keep_cols = [cidx[v] for v in bag]
    base = inf + 1
    u_all = _u_enum(base, len(bag))
    scale = base ** (len(bag) - u_i)  # place value of u's digit in the child
    out: dict[TwState, tuple] = {}
    for ckey in sorted(child_states):
        _count(ctx, counter, "forget")
        p_s = tuple(ckey.p[i] for i in kept)
        rin_s = tuple(
            tuple(tuple(row[c] for c in keep_cols) for row in ckey.r_in[cidx[v]])
            for v in bag
        )
        rbelow = []
        for ui, uu in enumerate(u_all):
            t2 = inf
            for j, v in enumerate(bag):
                dv = uu[j]
                if dv > horizon:
                    continue
                a = ckey.r_in[cidx[v]][dv][u_i]
                if a < t2:
                    t2 = a
            val = ckey.r_below[_insert_digit(ui, min(t2 + 1, inf), scale, base)]
            rbelow.append(min(val + 1, ctx.h) if t2 <= horizon else val)
        state = TwState(p_s, rin_s, tuple(rbelow), ckey.moves)
        if state not in out:
            out[state] = (ckey,)
    return out


def join_rounds(bag_size: int) -> int:
    return ceil(log2(bag_size)) if bag_size > 1 else 0


def _join_rin(ctx: _Ctx, bag: tuple[int, ...], r1, r2):
    """Arrival rows of the union of two subgraphs that meet only in the bag
    (a join's two sides, or an introduce node's child and star).  A foremost
    path splits at bag vertices into at most k - 1 one-sided segments, and
    each round doubles the number of segments a row covers."""
    horizon = ctx.horizon
    k = len(bag)
    cur = [
        [tuple(min(a, b) for a, b in zip(r1[i][t], r2[i][t])) for t in range(horizon + 1)]
        for i in range(k)
    ]
    for _ in range(join_rounds(k)):
        nxt = []
        for i in range(k):
            per_t = []
            for t in range(horizon + 1):
                base = cur[i][t]
                best = list(base)
                for x_i in range(k):
                    ax = base[x_i]
                    if ax >= horizon:  # nothing departs after the horizon
                        continue
                    via = cur[x_i][ax + 1]
                    for j in range(k):
                        if via[j] < best[j]:
                            best[j] = via[j]
                per_t.append(tuple(best))
            nxt.append(per_t)
        cur = nxt
    return tuple(tuple(row) for row in cur)


def _join_states(
    ctx: _Ctx, bag: tuple[int, ...],
    left: dict[TwState, tuple], right: dict[TwState, tuple], counter: list[int],
) -> dict[TwState, tuple]:
    horizon = ctx.horizon
    base = ctx.inf + 1
    edges_s = ctx.bag_edges(bag)
    u_all = _u_enum(base, len(bag))
    by_p_right: dict[tuple, list[TwState]] = {}
    for rkey in sorted(right):
        by_p_right.setdefault(rkey.p, []).append(rkey)
    out: dict[TwState, tuple] = {}
    for lkey in sorted(left):
        for rkey in by_p_right.get(lkey.p, ()):
            _count(ctx, counter, "join")
            # both sides charged the bag edges' moves
            moves = lkey.moves + rkey.moves - _bag_cost(ctx, edges_s, lkey.p)
            if moves > ctx.zeta:
                continue
            rin = _join_rin(ctx, bag, lkey.r_in, rkey.r_in)
            rbelow = []
            for uu in u_all:
                key = 0
                for j, val in enumerate(uu):
                    for w_i, dw in enumerate(uu):
                        if dw <= horizon and rin[w_i][dw][j] + 1 < val:
                            val = rin[w_i][dw][j] + 1
                    key = key * base + val
                rbelow.append(min(lkey.r_below[key] + rkey.r_below[key], ctx.h))
            state = TwState(lkey.p, rin, tuple(rbelow), moves)
            if state not in out:
                out[state] = (lkey, rkey)
    return out


class _Node(NamedTuple):
    """An evaluated nice-decomposition node: its sorted bag, its states (each
    mapped to the child states that witness it) and its child nodes.  One
    child and a larger bag is an introduce node, one child and a smaller bag a
    forget node, two children a join."""

    bag: tuple[int, ...]
    states: dict[TwState, tuple]
    children: tuple["_Node", ...]


_LEAF = _Node((), {TwState((), (), (0,), 0): ()}, ())


def _reshape(ctx: _Ctx, node: _Node, want: frozenset[int], counter: list[int]) -> _Node:
    """Forget the bag's vertices that are not in ``want``, then introduce the
    missing ones, each in sorted order."""
    for u in sorted(set(node.bag) - want):
        bag = tuple(v for v in node.bag if v != u)
        node = _Node(bag, _forget_states(ctx, bag, u, node.bag, node.states, counter), (node,))
    for u in sorted(want - set(node.bag)):
        bag = tuple(sorted(node.bag + (u,)))
        node = _Node(bag, _introduce_states(ctx, bag, u, node.bag, node.states, counter), (node,))
    return node


def _side(
    ctx: _Ctx, decomp: TreeDecomposition, sides: dict[tuple[int, int], _Node],
    c: int, parent: int, counter: list[int],
) -> _Node:
    """The evaluated nice subtree of decomposition node c seen from its
    neighbour ``parent``, topped by parent's bag (by c's bag at the root,
    parent -1): a leaf with c's bag introduced if c has no other neighbour,
    else every other neighbour's side, joined in adjacency order; then
    reshaped to parent's bag.  Memoised in ``sides`` by the link, so every
    source and every orientation of parent shares it."""
    node = sides.get((c, parent))
    if node is not None:
        return node
    bag = decomp.bags[c]
    neighbours = [b if a == c else a for a, b in decomp.links if c in (a, b)]
    arms = [
        _side(ctx, decomp, sides, x, c, counter) for x in neighbours if x != parent
    ] or [_reshape(ctx, _LEAF, bag, counter)]
    node = arms[0]
    for arm in arms[1:]:
        states = _join_states(ctx, node.bag, node.states, arm.states, counter)
        node = _Node(node.bag, states, (node, arm))
    if parent >= 0:
        node = _reshape(ctx, node, decomp.bags[parent], counter)
    sides[c, parent] = node
    return node


def _solve_for_source(
    ctx: _Ctx, decomp: TreeDecomposition, sides: dict[tuple[int, int], _Node],
    source: int, counter: list[int],
) -> Optional[list]:
    """Moved-appearance records of the first accepted state of the first bag
    holding the source, reshaped to {source}; or None."""
    root0 = next(i for i, bag in enumerate(decomp.bags) if source in bag)
    top = _side(ctx, decomp, sides, root0, -1, counter)
    root = _reshape(ctx, top, frozenset((source,)), counter)
    # the source departs at time 0
    accepted = next((key for key in sorted(root.states) if key.r_below[0] >= ctx.h - 1), None)
    if accepted is None:
        return None
    images = sorted(_collect_images(ctx, root, accepted).items())
    labels = ctx.g.labels
    return [
        r for e, image in images
        for r in matching_records(e, labels[ctx.g.edge_index[e]], image, ctx.delta)
    ]


def _collect_images(ctx: _Ctx, root: _Node, root_key: TwState) -> dict[Edge, tuple[int, ...]]:
    images: dict[Edge, tuple[int, ...]] = {}
    stack = [(root, root_key)]
    while stack:
        node, key = stack.pop()
        for e, image in zip(ctx.bag_edges(node.bag), key.p):
            prev = images.get(e)
            assert prev is None or prev == image
            images[e] = image
        stack.extend(zip(node.children, node.states[key]))
    return images


def solve_trlp_treewidth(
    inst: TrlpInstance,
    decomp: TreeDecomposition,
    caps: WorkCaps = DEFAULT_CAPS,
) -> SolveResult:
    """Exact answer over all sources; smallest yes-source wins.  Sources share
    every side of the decomposition they have in common, and
    ``caps.tw_states`` bounds the candidates of the whole call, each
    evaluated node counted once."""
    g, shift = compress_time(inst.graph, inst.delta)
    validate_decomposition(g.n, g.edges, decomp)
    ctx = _Ctx(replace(inst, graph=g), caps)
    sides: dict[tuple[int, int], _Node] = {}
    counter = [0]
    for source in range(g.n):
        records = _solve_for_source(ctx, decomp, sides, source, counter)
        if records is not None:
            return _certified_yes(inst, "treewidth", source, records, shift)
    return SolveResult(False, "treewidth")
