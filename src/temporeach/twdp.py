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

The DP runs on DP time tau = t - 1: every label is >= 1, so departing at
graph time 0 acts as departing at 1, and tau = 0 is the first time worth a
column.  Departures and arrivals are in tau: an arrival at tau can go on at
tau + 1, the star rows read each image label as label - 1, and the source
departs at tau = 0.  Images, matchings and records stay in graph time.  The
shift is monotone and drops only departure values equal to a kept one, so
state order, deduplication and the first accepted root state are those of
the DP on graph time.

A bag column's departure times 0..horizon fall into classes, the maximal
runs over which its arrival row (own entry aside) and the counts with it
departing there stay the same; "does not depart" (inf = horizon + 1) is a
class of its own.  A state keeps each column's class starts (``cuts``, inf
last), one row per departing class (own entry inf) and the counts per class
vector, a flat tuple in mixed radix, first column most significant.  A rule
works on the common refinement of its inputs' cuts (at an introduce also the
new edges' image labels), where every table is constant, builds each index
map once per distinct inputs, reads every count table with one
``itemgetter`` gather, and merges classes back (``_state``): states are equal
exactly when their dense tables are.  Each state keeps every witness that
derives it, and a certificate follows, from the first accepted root state,
the first witness with child states in dense-table order (``_Dense``): the
tie-break of taking child states in that order and keeping first witnesses.

The DP runs on ``compress_time``'s copy of the graph with delta capped by
``_useful_delta``, so departure and arrival times range over 0..horizon with
horizon = lifetime + delta - 1, which on a graph with edges is below
(distinct labels) * (2*delta+1) whatever the size of the labels, and below
2T+n whatever delta is; the certificate is mapped back and checked on the
original graph, under the instance's delta.

Scoped to micro parameters: the context's candidate count spans the whole
call, counting each evaluated node once however many sources share it (and
nothing for a skipped source), and exceeding ``caps.tw_states`` triggers a
refusal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cache
from math import ceil, log2
from operator import add, itemgetter, mul
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
    """Hashable state: bag-edge images, each bag column's departure classes
    (see the module docstring), in-subgraph foremost arrivals per departing
    class, counts of reached forgotten vertices per class vector, and the
    moves on every edge of the processed subgraph, charged when each is
    introduced."""

    p: tuple[tuple[int, ...], ...]
    cuts: tuple[tuple[int, ...], ...]
    r_in: tuple[tuple[tuple[int, ...], ...], ...]
    r_below: tuple[int, ...]
    moves: int


class _Ctx:
    """One call's state (see the module docstring).  ``horizon`` is the last
    DP time tau = t - 1 worth departing at, 0 on an edgeless graph under
    delta 0, and ``inf`` = horizon + 1 stands for "never"."""

    def __init__(self, inst: TrlpInstance, caps: WorkCaps, decomp: TreeDecomposition):
        self.g = inst.graph
        self.delta = inst.delta
        self.zeta = inst.zeta
        self.h = inst.h
        self.caps = caps
        self.decomp = decomp
        self.horizon = max(self.g.lifetime + inst.delta - 1, 0)
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


def _places(sizes: Iterable[int]) -> list[int]:
    """Place values of a class vector's table index, first column most
    significant, for columns of ``sizes`` classes each."""
    return list(itertools.accumulate(reversed(list(sizes)), mul, initial=1))[-2::-1]


def _join_index(rin: tuple, side: tuple) -> list:
    """Per class vector of the join's arrival table ``rin`` in table order, a
    side's table index (cuts ``side``) of its key: per column, the earliest
    of its own departure and one after each arrival at it, as prefix minima
    of place-weighted classes, which keep the order of times."""
    places = _places(map(len, side))
    never = [(len(cs) - 1) * place for cs, place in zip(side, places)]
    keys = [never]
    for i, (cuts, rows) in enumerate(zip(*rin)):
        offers = [
            [place * (bisect_right(cs, t if j == i else a + 1) - 1)
             for j, (cs, a, place) in enumerate(zip(side, row, places))]
            for t, row in zip(cuts, rows)
        ]
        keys = [list(map(min, key, offer)) for key in keys for offer in offers + [never]]
    return list(map(sum, keys))


def _gather(index: list[int]) -> Callable[[tuple], tuple]:
    """One ``itemgetter`` reading a table at ``index``, into a tuple even for
    the one-entry table of an empty bag."""
    get = itemgetter(*index)
    return get if len(index) > 1 else lambda table: (get(table),)


def _state(p: tuple, cuts: tuple, rows: tuple, table: tuple, moves: int) -> TwState:
    """The state on its coarsest cuts: two adjacent departing classes of a
    column merge when their arrival rows and their count slices agree, so
    equal states are those with equal dense tables."""
    places, merged = _places(map(len, cuts)), []
    for rs, cs, place in zip(rows, cuts, places):
        span = len(cs) * place
        merged.append(set())
        for r, lo in ((r, r * place) for r in range(1, len(rs)) if rs[r] == rs[r - 1]):
            # the counts with this column in class r against class r - 1
            if all(table[o + lo : o + lo + place] == table[o + lo - place : o + lo]
                   for o in range(0, len(table), span)):
                merged[-1].add(r)
    if not any(merged):
        return TwState(p, cuts, rows, table, moves)
    picks = [[r for r in range(len(cs)) if r not in m] for cs, m in zip(cuts, merged)]
    cuts = tuple(tuple(cs[r] for r in pick) for cs, pick in zip(cuts, picks))
    return TwState(p, cuts, *_pick(rows, table, places, picks), moves)


def _pick(rows: tuple, table: tuple, places: list, picks: list) -> tuple:
    """Rows and counts read at the given classes of each column, the "does
    not depart" class last."""
    index = [0]
    for pick, place in zip(picks, places):
        index = [i + r * place for i in index for r in pick]
    return tuple(tuple(rs[r] for r in pick[:-1]) for rs, pick in zip(rows, picks)), _gather(index)(table)


class _Dense:
    """Sort key ordering states as their dense tables would, without building
    them: on the common refinement of two states' cuts, the first differing
    cell in table order holds the first differing dense entry, at its least
    corner.  Equal keys are equal states, whose tables are canonical."""

    def __init__(self, state: TwState):
        self.state = state

    def __eq__(self, other) -> bool:
        return self.state == other.state

    def __lt__(self, other) -> bool:
        a, b = self.state, other.state
        if a.p != b.p:
            return a.p < b.p
        common = [sorted({*ca, *cb}) for ca, cb in zip(a.cuts, b.cuts)]
        refined = [
            _pick(x.r_in, x.r_below, _places(map(len, x.cuts)),
                  [[bisect_right(cs, t) - 1 for t in fine] for cs, fine in zip(x.cuts, common)])
            for x in (a, b)
        ]
        return (*refined[0], a.moves) < (*refined[1], b.moves)


def _star_rows(
    ctx: _Ctx, k: int, u_i: int, images: Iterable[tuple[int, tuple[int, ...]]]
) -> tuple:
    """Arrival table in DP time of the star of bag column u_i, given (column,
    labels) of its edges in graph time: v->u at the first label > tau, u->w,
    and v->u->w' strictly later.  A label t ends a class at tau = t of u's
    column and of its edge's other column."""
    inf = ctx.inf
    # first[c][d]: the first label > d on u's edge to column c, less 1 (its
    # arrival in DP time), for d <= inf + 1
    first = [[inf] * (inf + 2) for _ in range(k)]
    cuts = [{0, inf} for _ in range(k)]
    for c, labels in images:
        for d in range(inf + 2):
            pos = bisect_left(labels, d + 1)
            first[c][d] = labels[pos] - 1 if pos < len(labels) else inf
        cuts[c].update(labels)
        cuts[u_i].update(labels)
    cuts = tuple(tuple(sorted(cs)) for cs in cuts)
    rows = []
    for i in range(k):
        per = []
        for t in cuts[i][:-1]:
            a, dep = (inf, t) if i == u_i else (first[i][t], first[i][t] + 1)
            row = [first[j][dep] for j in range(k)]
            row[u_i] = a
            row[i] = inf
            per.append(tuple(row))
        rows.append(tuple(per))
    return cuts, tuple(rows)


def _introduce_states(
    ctx: _Ctx, bag: tuple[int, ...], u: int, child_bag: tuple[int, ...],
    child_states: dict[TwState, list],
) -> dict[TwState, list]:
    inf = ctx.inf
    k = len(bag)
    vidx = {v: i for i, v in enumerate(bag)}
    u_i = vidx[u]
    edges_s = ctx.bag_edges(bag)
    edges_child = ctx.bag_edges(child_bag)
    new_edges = tuple(e for e in edges_s if u in e)
    new_cols = [vidx[e[0] if e[1] == u else e[1]] for e in new_edges]
    image_lists = [ctx.images(e).items() for e in new_edges]
    combos = list(itertools.product(*image_lists))
    # the memos below live for this call: star rows by combo index, the same
    # for every child state, the stitch by its inputs, the gather by u's rows
    stars = cache(lambda ci: _star_rows(ctx, k, u_i, zip(new_cols, (i for i, _c in combos[ci]))))

    @cache
    def stitch(cuts, r_in, ci):
        # the child's arrivals with u added as an isolated vertex
        rows = [tuple(row[:u_i] + (inf,) + row[u_i:] for row in rs) for rs in r_in]
        rows.insert(u_i, ((inf,) * k,))
        return _join_rin(ctx, (cuts[:u_i] + ((0, inf),) + cuts[u_i:], tuple(rows)), stars(ci))

    # a child class vector, made earlier by what u reaches from its own: per
    # u class, the index terms of the columns before u and after u, each
    # column's departure clamped at one after u's arrival there
    @cache
    def gather(child_cuts, cuts, u_rows):
        blocks, places = [], _places(map(len, child_cuts))
        for row in u_rows + ((inf,) * k,):
            sums = [[0], [0]]
            for j, (cs, place) in enumerate(zip(child_cuts, places)):
                i = j + (j >= u_i)
                terms = [place * (bisect_right(cs, min(t, row[i] + 1)) - 1) for t in cuts[i]]
                sums[i > u_i] = [a + b for a in sums[i > u_i] for b in terms]
            blocks.append(sums)
        return _gather([before[x] + b for x in range(len(blocks[0][0]))
                        for before, after in blocks for b in after])

    out: dict[TwState, list] = {}
    for ckey in child_states:
        for ci, combo in enumerate(combos):
            ctx.count("introduce")
            moves = ckey.moves + sum(len(pairs) for _img, pairs in combo)
            if moves > ctx.zeta:
                continue
            p_map = dict(zip(edges_child, ckey.p))
            p_map.update((e, img) for e, (img, _c) in zip(new_edges, combo))
            p_s = tuple(p_map[e] for e in edges_s)
            cuts, rows = stitch(ckey.cuts, ckey.r_in, ci)
            table = gather(ckey.cuts, cuts, rows[u_i])(ckey.r_below)
            out.setdefault(_state(p_s, cuts, rows, table, moves), []).append((ckey,))
    return out


def _forget_states(
    ctx: _Ctx, bag: tuple[int, ...], u: int, child_bag: tuple[int, ...],
    child_states: dict[TwState, list],
) -> dict[TwState, list]:
    inf, h = ctx.inf, ctx.h
    cidx = {v: i for i, v in enumerate(child_bag)}
    u_i = cidx[u]
    kept = [i for i, e in enumerate(ctx.bag_edges(child_bag)) if u not in e]
    keep_cols = [cidx[v] for v in bag]

    @cache  # for this call, by the child's cuts and the u columns
    def gather(child_cuts, u_cols):
        # per class vector, its child index with u in class 0 and the time
        # u departs: one after the first arrival at u, inf + 1 if none
        places = _places(map(len, child_cuts))
        keys = [(0, inf + 1)]
        for c, col in zip(keep_cols, u_cols):
            offers = [(r * places[c], a + 1) for r, a in enumerate(col)] + [(len(col) * places[c], inf + 1)]
            keys = [(i + di, min(x, a)) for i, x in keys for di, a in offers]
        index = [i + places[u_i] * (bisect_right(child_cuts[u_i], x) - 1) for i, x in keys]
        return _gather(index), [int(x <= inf) for _i, x in keys]

    out: dict[TwState, list] = {}
    for ckey in child_states:
        ctx.count("forget")
        p_s = tuple(ckey.p[i] for i in kept)
        cuts = tuple(ckey.cuts[c] for c in keep_cols)
        rows = tuple(tuple(tuple(row[c] for c in keep_cols) for row in ckey.r_in[c]) for c in keep_cols)
        get, reached = gather(ckey.cuts, tuple(tuple(row[u_i] for row in ckey.r_in[c]) for c in keep_cols))
        rbelow = tuple(map(min, map(add, get(ckey.r_below), reached), itertools.repeat(h)))
        out.setdefault(_state(p_s, cuts, rows, rbelow, ckey.moves), []).append((ckey,))
    return out


def join_rounds(bag_size: int) -> int:
    return ceil(log2(bag_size)) if bag_size > 1 else 0


def _join_rin(ctx: _Ctx, r1: tuple, r2: tuple) -> tuple:
    """Arrival table (cuts, rows) of the union of two subgraphs that meet
    only in the bag (a join's two sides, or an introduce node's child and
    star), on the common refinement of their cuts.  A foremost path splits
    at bag vertices into at most k - 1 one-sided segments, and each round
    doubles the number of segments a row covers."""
    horizon, inf = ctx.horizon, ctx.inf
    (cuts1, rows1), (cuts2, rows2) = r1, r2
    k = len(cuts1)
    cuts = tuple(tuple(sorted(set(a) | set(b))) for a, b in zip(cuts1, cuts2))
    cur = [[tuple(map(min, rs1[bisect_right(c1, t) - 1], rs2[bisect_right(c2, t) - 1])) for t in cs[:-1]]
           for cs, c1, c2, rs1, rs2 in zip(cuts, cuts1, cuts2, rows1, rows2)]
    for _ in range(join_rounds(k)):
        nxt = []
        for i in range(k):
            per = []
            for base in cur[i]:
                best = list(base)
                for x_i, ax in enumerate(base):
                    if ax >= horizon:  # nothing departs after the horizon
                        continue
                    via = cur[x_i][bisect_right(cuts[x_i], ax + 1) - 1]
                    for j in range(k):
                        if via[j] < best[j]:
                            best[j] = via[j]
                best[i] = inf
                per.append(tuple(best))
            nxt.append(per)
        cur = nxt
    return cuts, tuple(map(tuple, cur))


def _join_states(
    ctx: _Ctx, bag: tuple[int, ...],
    left: dict[TwState, list], right: dict[TwState, list],
) -> dict[TwState, list]:
    h = ctx.h
    edges_s = ctx.bag_edges(bag)
    by_p_right: dict[tuple, list[TwState]] = {}
    for rkey in right:
        by_p_right.setdefault(rkey.p, []).append(rkey)
    # for this call: the stitch by the pair of arrival tables, the gather by
    # the stitch and a side's cuts, which makes a class vector earlier by
    # what its columns reach
    stitch = cache(lambda r1, r2: _join_rin(ctx, r1, r2))
    gather = cache(lambda rin, side: _gather(_join_index(rin, side)))
    out: dict[TwState, list] = {}
    for lkey in left:
        for rkey in by_p_right.get(lkey.p, ()):
            ctx.count("join")
            # both sides charged the bag edges' moves
            shared = sum(len(ctx.images(e)[i]) for e, i in zip(edges_s, lkey.p))
            moves = lkey.moves + rkey.moves - shared
            if moves > ctx.zeta:
                continue
            rin = stitch((lkey.cuts, lkey.r_in), (rkey.cuts, rkey.r_in))
            both = map(add, gather(rin, lkey.cuts)(lkey.r_below), gather(rin, rkey.cuts)(rkey.r_below))
            rbelow = tuple(map(min, both, itertools.repeat(h)))
            out.setdefault(_state(lkey.p, *rin, rbelow, moves), []).append((lkey, rkey))
    return out


class _Node(NamedTuple):
    """An evaluated nice-decomposition node: its sorted bag, its states (each
    mapped to its witnesses, tuples of one child state per child) and its
    child nodes.  One child and a larger bag is an introduce node, one child
    and a smaller bag a forget node, two children a join."""

    bag: tuple[int, ...]
    states: dict[TwState, list]
    children: tuple["_Node", ...]


_LEAF = _Node((), {TwState((), (), (), (0,), 0): [()]}, ())


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
    # the source departs at tau = 0, graph time 1
    accepted = min((key for key in root.states if key.r_below[0] >= ctx.h - 1), key=_Dense, default=None)
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
        # the witness met first with the child states in dense-table order
        first = min(node.states[key], key=lambda witness: tuple(map(_Dense, witness)))
        stack.extend(zip(node.children, first))
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
