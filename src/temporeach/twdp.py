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
source shares it, each arm reshaped once; a source forgets the side of the
first bag holding it (parent -1) down to {source}, and sources rooted there
share those forgets, memoised by (that bag, the forget's bag).  A source
whose widened reach bound (``reach.reach_counts`` with every label free to
move by ±delta) is below h cannot answer yes, and the DP's no carries no
count, so such a source is skipped before it builds or counts anything.

One context (``_Ctx``) holds a call's state: the decomposition, the sides,
the candidate count and each edge's label images, each mapped to the moved
pairs of one minimal matching, whose number is the image's move count.

A join node stitches its two sides' arrival functions (``_join_rin``): the
sides meet only in the bag, so a foremost path alternates between them at bag
vertices.  An introduce node of vertex u is the same situation: the child's
subgraph with u added as an isolated vertex, and the star of u's new bag edges
under the chosen images.  Its arrivals are that stitch of the child's rows
and the star's; its counts are the child's, read at the departure vector
made earlier by what u reaches from its own departure time.

A departure vector gives each bag column a time in 0..horizon, or horizon+1
for "does not depart".  The counts are a flat tuple indexed by the vector's
base-(horizon+2) value, first column most significant.  The child entry a
vector reads depends only on arrival rows, not on the child's counts: the
stitched rows at a join, u's row at an introduce, the u column of the kept
rows at a forget.  So a rule call builds each index map once per distinct
rows (``_index_map``: per vector, the elementwise minimum of its columns'
offers, as prefix minima in table order; a forget inserts u's digit with
``_insert_digit``), and every count table is one ``itemgetter`` gather.

The DP runs on ``compress_time``'s copy of the graph with delta capped by
``_useful_delta``, so departure and arrival times range over 0..horizon with
horizon <= (distinct labels) * (2*delta+1) + delta whatever the size of the
labels, and <= 2T+n whatever delta is; the certificate is mapped back and
checked on the original graph, under the instance's delta.

Scoped to micro parameters: the context's candidate count spans the whole
call, counting each evaluated node once however many sources share it (and
nothing for a skipped source), and exceeding ``caps.tw_states`` triggers a
refusal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cache
from math import ceil, log2
from operator import add, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .limits import CapExceeded, WorkCaps, DEFAULT_CAPS
from .reach import reach_counts
from .solvers import SolveResult, TrlpInstance, _certified_yes
from .tgraph import (
    Edge, _is_tree, _minimal_matching, _parse_lines, _useful_delta, compress_time, window,
)


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
    """Width-minimal decomposition from an optimal elimination order: per
    elimination prefix, the least width and the vertex eliminated last, the
    lowest vertex id among the minimal-width choices.  That tie-break fixes
    the decomposition ``auto`` uses, and so the treewidth certificates.  A
    vertex's bag is itself plus what it reaches through the vertices
    eliminated before it; it links to the earliest later bag."""
    if n > 20:
        raise CapExceeded("exact treewidth guard: at most 20 vertices")
    if n == 0:
        raise ValueError("graph has no vertices")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def through(v: int, wmask: int) -> int:
        """The vertices outside ``wmask`` that v reaches through it, as a mask."""
        seen = 1 << v
        frontier = adj[v]
        result = 0
        while new := frontier & ~seen:
            seen |= new
            result |= new & ~wmask
            expand = new & wmask
            frontier = 0
            while expand:
                low = expand & -expand
                expand ^= low
                frontier |= adj[low.bit_length() - 1]
        return result

    # best[mask]: the prefix's least width << 5 | the vertex it eliminates last,
    # one flat int per mask; min breaks width ties by the lowest vertex
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        out = n << 5
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            prior = mask ^ low
            v = low.bit_length() - 1
            # a prior no narrower than out cannot win: v is above out's vertex
            if best[prior] >> 5 < out >> 5:
                out = min(out, max(best[prior] >> 5, through(v, prior).bit_count()) << 5 | v)
        best[mask] = out
    # follow the last vertices back from the whole set; a vertex's place in
    # the order is the number of vertices eliminated before it
    pos = [0] * n
    bags = [frozenset()] * n
    mask = (1 << n) - 1
    while mask:
        v = best[mask] & 31
        mask ^= 1 << v
        pos[v] = mask.bit_count()
        bag = through(v, mask) | 1 << v
        bags[pos[v]] = frozenset(u for u in range(n) if bag >> u & 1)
    links = []
    for i, bag in enumerate(bags):
        later = [pos[w] for w in bag if pos[w] > i]
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
    """One call's state (see the module docstring)."""

    def __init__(self, inst: TrlpInstance, caps: WorkCaps, decomp: TreeDecomposition):
        self.g = inst.graph
        self.delta = inst.delta
        self.zeta = inst.zeta
        self.h = inst.h
        self.caps = caps
        self.decomp = decomp
        self.horizon = self.g.lifetime + inst.delta
        self.inf = self.horizon + 1
        self.sides: dict[tuple, _Node] = {}
        self.candidates = 0
        self._images: dict[Edge, dict[tuple[int, ...], tuple[tuple[int, int], ...]]] = {}

    def count(self, kind: str) -> None:
        """Count one candidate of the call; refuse past ``caps.tw_states``."""
        self.candidates += 1
        if self.candidates > self.caps.tw_states:
            raise CapExceeded(f"{kind} node candidate count exceeded {self.caps.tw_states}")

    def bag_edges(self, bag: tuple[int, ...]) -> tuple[Edge, ...]:
        inside = []
        for i, u in enumerate(bag):
            for v in bag[i + 1 :]:
                if (u, v) in self.g.edge_index:
                    inside.append((u, v))
        return tuple(sorted(inside))

    def images(self, e: Edge) -> dict[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Edge e's label images, each sorted, mapped to the moved (old, new)
        pairs of a minimal matching onto them, in image order; built once per
        call.  An image's move count is the number of its pairs."""
        out = self._images.get(e)
        if out is not None:
            return out
        labels = self.g.labels[self.g.edge_index[e]]
        targets = itertools.product(*(window(t, self.delta) for t in labels))
        images = sorted({tuple(sorted(ts)) for ts in targets if len(set(ts)) == len(ts)})
        out = self._images[e] = {i: _minimal_matching(labels, i, self.delta) for i in images}
        return out


def _index_map(ctx: _Ctx, columns: list, width: int) -> list:
    """Per departure vector in table order, the table index of its key: the
    elementwise minimum of its columns' offers, ``(own, reach)`` departing at
    d offering d at entry ``own`` and one more than ``reach[d]`` if d is a
    departure time.  Prefix minima run over all columns but the last, which
    is read through per-entry rows of place-value terms."""
    base = ctx.inf + 1
    terms = [[x * base ** (width - 1 - j) for x in range(base + 1)] for j in range(width)]
    neutral = (base,) * width
    # a leading one-offer column changes no order and gives a bag with no
    # columns its one vector
    offers = [[neutral]]
    for own, reach in columns:
        offers.append([])
        for d in range(base):
            offer = list(neutral) if reach is None or d == base - 1 else [a + 1 for a in reach[d]]
            if own is not None:
                offer[own] = min(offer[own], d)
            offers[-1].append(offer)
    *head, last = offers
    keys = [neutral]
    for column in head:
        keys = [tuple(map(min, key, offer)) for key in keys for offer in column]
    # rows[j][x]: entry j's term per last departure, the prefix holding x
    rows = [
        list(zip(*(term[:o] + [term[o]] * (base + 1 - o) for o in (off[j] for off in last))))
        for j, term in enumerate(terms)
    ]
    out: list[int] = []
    for key in keys:
        row = [0] * len(last)
        for j, x in enumerate(key):
            row = map(add, row, rows[j][x])
        out.extend(row)
    return out


def _gather(index: list[int]) -> Callable[[tuple], tuple]:
    """One ``itemgetter`` reading a table at ``index``, into a tuple even for
    the one-entry table of an empty bag."""
    get = itemgetter(*index)
    return get if len(index) > 1 else lambda table: (get(table),)


def _insert_digit(index: int, digit: int, scale: int, base: int) -> int:
    """Index of the departure vector at ``index`` after inserting ``digit``
    with place value ``scale`` (a power of ``base``): the digits below it keep
    their places and the digits above it move up one."""
    high, low = divmod(index, scale)
    return (high * base + digit) * scale + low


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
    child_states: dict[TwState, tuple],
) -> dict[TwState, tuple]:
    horizon, inf = ctx.horizon, ctx.inf
    k = len(bag)
    vidx = {v: i for i, v in enumerate(bag)}
    u_i = vidx[u]
    edges_s = ctx.bag_edges(bag)
    edges_child = ctx.bag_edges(child_bag)
    new_edges = tuple(e for e in edges_s if u in e)
    new_cols = [vidx[e[0] if e[1] == u else e[1]] for e in new_edges]
    image_lists = [ctx.images(e).items() for e in new_edges]
    u_alone = tuple(tuple(t if j == u_i else inf for j in range(k)) for t in range(horizon + 1))
    combos = list(itertools.product(*image_lists))
    # the memos below live for this call: star rows by combo index, the same
    # for every child state, the stitch by its inputs, the gather by u's row
    stars = cache(lambda ci: _star_rows(ctx, k, u_i, zip(new_cols, (i for i, _c in combos[ci]))))

    @cache
    def stitch(r_in, ci):
        # the child's arrivals with u added as an isolated vertex
        child_rows = tuple(
            u_alone if i == u_i
            else tuple(row[:u_i] + (inf,) + row[u_i:] for row in r_in[i - (i > u_i)])
            for i in range(k)
        )
        return _join_rin(ctx, bag, child_rows, stars(ci))

    # a child departure vector, made earlier by what u reaches from its own
    @cache
    def gather(u_row):
        columns = [(i - (i > u_i), None) for i in range(k)]
        columns[u_i] = (None, [row[:u_i] + row[u_i + 1 :] for row in u_row])
        return _gather(_index_map(ctx, columns, k - 1))

    out: dict[TwState, tuple] = {}
    for ckey in sorted(child_states):
        for ci, combo in enumerate(combos):
            ctx.count("introduce")
            moves = ckey.moves + sum(len(pairs) for _img, pairs in combo)
            if moves > ctx.zeta:
                continue
            p_map = dict(zip(edges_child, ckey.p))
            p_map.update((e, img) for e, (img, _c) in zip(new_edges, combo))
            p_s = tuple(p_map[e] for e in edges_s)
            rin_s = stitch(ckey.r_in, ci)
            state = TwState(p_s, rin_s, gather(rin_s[u_i])(ckey.r_below), moves)
            if state not in out:
                out[state] = (ckey,)
    return out


def _forget_states(
    ctx: _Ctx, bag: tuple[int, ...], u: int, child_bag: tuple[int, ...],
    child_states: dict[TwState, tuple],
) -> dict[TwState, tuple]:
    inf, h = ctx.inf, ctx.h
    cidx = {v: i for i, v in enumerate(child_bag)}
    u_i = cidx[u]
    kept = [i for i, e in enumerate(ctx.bag_edges(child_bag)) if u not in e]
    keep_cols = [cidx[v] for v in bag]
    base = inf + 1
    scale = base ** (len(bag) - u_i)  # place value of u's digit in the child

    # each vector's child index with u's digit 0, to which u's digit adds
    at_zero = [_insert_digit(ui, 0, scale, base) for ui in range(base ** len(bag))]
    u_digit = [scale * min(x, inf) for x in range(base + 1)]

    @cache  # for this call, by the u columns
    def gather(u_cols):
        # u's key: one after the first arrival at u from the departures
        columns = [(None, [(a,) for a in col]) for col in u_cols]
        keys = _index_map(ctx, columns, 1)
        index = map(add, at_zero, map(u_digit.__getitem__, keys))
        return _gather(list(index)), [int(x <= inf) for x in keys]

    out: dict[TwState, tuple] = {}
    for ckey in sorted(child_states):
        ctx.count("forget")
        p_s = tuple(ckey.p[i] for i in kept)
        rows = [ckey.r_in[c] for c in keep_cols]
        rin_s = tuple(tuple(tuple(row[c] for c in keep_cols) for row in rs) for rs in rows)
        get, reached = gather(tuple(tuple(row[u_i] for row in rs) for rs in rows))
        rbelow = tuple(map(min, map(add, get(ckey.r_below), reached), itertools.repeat(h)))
        state = TwState(p_s, rin_s, rbelow, ckey.moves)
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
    left: dict[TwState, tuple], right: dict[TwState, tuple],
) -> dict[TwState, tuple]:
    h, k = ctx.h, len(bag)
    edges_s = ctx.bag_edges(bag)
    by_p_right: dict[tuple, list[TwState]] = {}
    for rkey in sorted(right):
        by_p_right.setdefault(rkey.p, []).append(rkey)
    # for this call: the stitch by the pair of r_in, the gather by the stitch,
    # which makes a departure vector earlier by what its columns reach
    stitch = cache(lambda r1, r2: _join_rin(ctx, bag, r1, r2))
    gather = cache(lambda rin: _gather(_index_map(ctx, list(enumerate(rin)), k)))
    out: dict[TwState, tuple] = {}
    for lkey in sorted(left):
        for rkey in by_p_right.get(lkey.p, ()):
            ctx.count("join")
            # both sides charged the bag edges' moves
            shared = sum(len(ctx.images(e)[i]) for e, i in zip(edges_s, lkey.p))
            moves = lkey.moves + rkey.moves - shared
            if moves > ctx.zeta:
                continue
            rin = stitch(lkey.r_in, rkey.r_in)
            get = gather(rin)
            both = map(add, get(lkey.r_below), get(rkey.r_below))
            rbelow = tuple(map(min, both, itertools.repeat(h)))
            state = TwState(lkey.p, rin, rbelow, moves)
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


def _forget(ctx: _Ctx, node: _Node, u: int) -> _Node:
    bag = tuple(v for v in node.bag if v != u)
    return _Node(bag, _forget_states(ctx, bag, u, node.bag, node.states), (node,))


def _reshape(ctx: _Ctx, node: _Node, want: frozenset[int]) -> _Node:
    """Forget the bag's vertices that are not in ``want``, then introduce the
    missing ones, each in sorted order."""
    for u in sorted(set(node.bag) - want):
        node = _forget(ctx, node, u)
    for u in sorted(want - set(node.bag)):
        bag = tuple(sorted(node.bag + (u,)))
        node = _Node(bag, _introduce_states(ctx, bag, u, node.bag, node.states), (node,))
    return node


def _side(ctx: _Ctx, c: int, parent: int) -> _Node:
    """The evaluated nice subtree of decomposition node c seen from its
    neighbour ``parent``, topped by parent's bag (by c's bag at the root,
    parent -1): a leaf with c's bag introduced if c has no other neighbour,
    else every other neighbour's side, joined in adjacency order; then
    reshaped to parent's bag.  Memoised in ``ctx.sides`` by the link, so
    every source and every orientation of parent shares it."""
    node = ctx.sides.get((c, parent))
    if node is not None:
        return node
    bags, links = ctx.decomp.bags, ctx.decomp.links
    neighbours = [b if a == c else a for a, b in links if c in (a, b)]
    arms = [_side(ctx, x, c) for x in neighbours if x != parent] or [_reshape(ctx, _LEAF, bags[c])]
    node = arms[0]
    for arm in arms[1:]:
        states = _join_states(ctx, node.bag, node.states, arm.states)
        node = _Node(node.bag, states, (node, arm))
    if parent >= 0:
        node = _reshape(ctx, node, bags[parent])
    ctx.sides[c, parent] = node
    return node


def _solve_for_source(ctx: _Ctx, source: int) -> Optional[list]:
    """Moved-appearance records of the first accepted state of the first bag
    holding the source, forgotten down to {source}; or None.  Each forget is
    memoised in ``ctx.sides`` by (that bag, its result), which fixes the
    chain before it, so sources rooted at the same bag share their first
    forgets."""
    root0 = next(i for i, bag in enumerate(ctx.decomp.bags) if source in bag)
    root = _side(ctx, root0, -1)
    for u in sorted(set(root.bag) - {source}):
        key = (root0, tuple(v for v in root.bag if v != u))
        root = ctx.sides[key] = ctx.sides.get(key) or _forget(ctx, root, u)
    # the source departs at time 0
    accepted = next((key for key in sorted(root.states) if key.r_below[0] >= ctx.h - 1), None)
    if accepted is None:
        return None
    images = sorted(_collect_images(ctx, root, accepted).items())
    return [(e, a, b) for e, image in images for a, b in ctx.images(e)[image]]


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
    """Exact answer over all sources; smallest yes-source wins.  Sources whose
    widened reach bound is below h are skipped, the others share every side
    of the decomposition they have in common, and ``caps.tw_states`` bounds
    the candidates of the whole call, each evaluated node counted once."""
    delta = _useful_delta(inst.graph, inst.delta)
    g, shift = compress_time(inst.graph, delta)
    validate_decomposition(g.n, g.edges, decomp)
    upper = reach_counts(inst.graph, inst.delta)
    ctx = _Ctx(replace(inst, graph=g, delta=delta), caps, decomp)
    for source in range(g.n):
        if upper[source] < inst.h:  # cannot reach h however it re-times
            continue
        records = _solve_for_source(ctx, source)
        if records is not None:
            return _certified_yes(inst, "treewidth", source, records, shift)
    return SolveResult(False, "treewidth")
