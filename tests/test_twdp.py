import itertools
import random

import pytest

from temporeach.limits import CapExceeded, WorkCaps
from temporeach.reach import arrivals, reach_counts
from temporeach.solvers import TrlpInstance, solve_trlp_xp
from temporeach.tgraph import (
    TemporalGraph,
    apply_perturbation,
    minimal_moves,
    parse_graph,
    validate_relabelling,
)
from temporeach.testkit import oracle_trlp_max_reach, random_instance
from temporeach.treedp import solve_trlp_tree
from temporeach import twdp
from temporeach.twdp import (
    _LEAF,
    DecompositionError,
    TreeDecomposition,
    _Ctx,
    _insert_digit,
    _join_rin,
    _Node,
    _collect_images,
    _reshape,
    _side,
    decompose_exact_small,
    join_rounds,
    parse_decomposition,
    solve_trlp_treewidth,
    validate_decomposition,
)

C4 = parse_graph("n 4\ne 0 1 1\ne 0 3 1\ne 1 2 1\ne 2 3 1")


def test_exact_width_examples():
    tree = ((0, 1), (1, 2), (1, 3))
    assert decompose_exact_small(4, tree).width() == 1
    c4 = ((0, 1), (0, 3), (1, 2), (2, 3))
    assert decompose_exact_small(4, c4).width() == 2
    k4 = tuple(itertools.combinations(range(4), 2))
    assert decompose_exact_small(4, k4).width() == 3
    single = decompose_exact_small(1, ())
    assert single.width() == 0


def test_exact_decomposition_is_valid():
    for n, edges in [
        (4, ((0, 1), (1, 2), (1, 3))),
        (4, ((0, 1), (0, 3), (1, 2), (2, 3))),
        (5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4))),
        (3, ()),  # disconnected
    ]:
        d = decompose_exact_small(n, edges)
        validate_decomposition(n, edges, d)


def test_validate_rejects_bad_decompositions():
    edges = ((0, 1), (1, 2))
    with pytest.raises(DecompositionError, match="no bag"):
        validate_decomposition(3, edges, TreeDecomposition((frozenset({0, 1}),), ()))
    with pytest.raises(DecompositionError, match="contained in no bag"):
        validate_decomposition(
            3, edges, TreeDecomposition((frozenset({0, 1}), frozenset({2}),), ((0, 1),))
        )
    with pytest.raises(DecompositionError, match="not connected"):
        validate_decomposition(
            3,
            edges,
            TreeDecomposition(
                (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1})),
                ((0, 1), (1, 2)),
            ),
        )
    # too few links, then k - 1 links of which three close a cycle
    too_few = TreeDecomposition((frozenset({0, 1, 2}), frozenset({1, 2})), ())
    cyclic = TreeDecomposition(
        (frozenset({0, 1, 2}),) * 3 + (frozenset({2}),), ((0, 1), (1, 2), (2, 0))
    )
    for decomp, message in (
        (too_few, "decomposition links do not form a tree"),
        (cyclic, "decomposition links do not form a tree (disconnected)"),
    ):
        with pytest.raises(DecompositionError) as exc:
            validate_decomposition(3, edges, decomp)
        assert str(exc.value) == message


def serialize_decomposition(decomp: TreeDecomposition) -> str:
    out = [f"b {i} " + " ".join(str(v) for v in sorted(b)) for i, b in enumerate(decomp.bags)]
    out += [f"t {a} {b}" for a, b in decomp.links]
    return "\n".join(out) + "\n"


def test_decomposition_file_roundtrip():
    d = decompose_exact_small(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
    text = serialize_decomposition(d)
    d2 = parse_decomposition(text)
    assert d2 == d


def nice_root(ctx, source):
    """The evaluated root for ``source``: the side of the first bag of the
    context's decomposition holding it, reshaped to {source}."""
    root0 = min(i for i, b in enumerate(ctx.decomp.bags) if source in b)
    return _reshape(ctx, _side(ctx, root0, -1), frozenset({source}))


def nice_nodes(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def nice_kind(node):
    if not node.children:
        return "leaf"
    if len(node.children) == 2:
        return "join"
    return "introduce" if len(node.bag) > len(node.children[0].bag) else "forget"


def test_nice_node_shapes():
    g = parse_graph("n 3\ne 0 1 1\ne 1 2 1")
    d = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    root = nice_root(_Ctx(TrlpInstance(g, 1, 1, 2), WorkCaps(), d), 0)
    assert root.bag == (0,)
    nodes = nice_nodes(root)
    assert {nice_kind(node) for node in nodes} <= {"leaf", "introduce", "forget", "join"}
    for node in nodes:
        # a child is a node built before its parent, so the walk from the
        # root ends and evaluation order is bottom-up by construction
        assert len(node.children) <= 2
        assert all(isinstance(c, _Node) for c in node.children)
        assert node.bag == tuple(sorted(set(node.bag)))
        kind = nice_kind(node)
        if kind == "leaf":
            assert node.bag == ()
        if kind == "introduce":
            child = node.children[0]
            (u,) = set(node.bag) - set(child.bag)
            assert set(node.bag) == set(child.bag) | {u}
        if kind == "forget":
            child = node.children[0]
            (u,) = set(child.bag) - set(node.bag)
            assert set(node.bag) == set(child.bag) - {u}
        if kind == "join":
            a, b = node.children
            assert a.bag == b.bag == node.bag


def test_nice_root_single_vertex():
    g = TemporalGraph(1, (), ())
    d = TreeDecomposition((frozenset({0}),), ())
    assert nice_root(_Ctx(TrlpInstance(g, 1, 0, 1), WorkCaps(), d), 0).bag == (0,)


def test_nice_root_source_elsewhere():
    # source only in a non-root bag: re-rooting keeps occurrences connected
    g = parse_graph("n 4\ne 0 1 1\ne 1 2 1\ne 2 3 1")
    d = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})), ((0, 1), (1, 2))
    )
    ctx = _Ctx(TrlpInstance(g, 1, 1, 2), WorkCaps(), d)
    for source in range(4):
        assert nice_root(ctx, source).bag == (source,)


def test_leaf_state_shape():
    g = parse_graph("n 2\ne 0 1 1")
    inst = TrlpInstance(g, 1, 1, 2)
    d = decompose_exact_small(2, g.edges)
    root = nice_root(_Ctx(inst, WorkCaps(), d), 0)
    leaves = [node for node in nice_nodes(root) if nice_kind(node) == "leaf"]
    assert leaves
    for leaf in leaves:
        assert len(leaf.states) == 1
        (s,) = leaf.states
        assert s.p == () and s.r_in == () and s.r_below == (0,) and s.moves == 0


def test_introduce_isolated_vertex_rows():
    # introducing a vertex with no bag edges: its own row is the trivial one;
    # the edgeless graph keeps the one departure time tau = 0 even at delta 0
    g = TemporalGraph(2, (), ())
    for delta in (1, 0):
        inst = TrlpInstance(g, delta, 0, 1)
        d = TreeDecomposition((frozenset({0, 1}),), ())
        node = _reshape(_Ctx(inst, WorkCaps(), d), _LEAF, frozenset({0}))
        assert node.bag == (0,) and node.children == (_LEAF,)
        assert len(node.states) == 1
        (s,) = node.states
        horizon = _Ctx(inst, WorkCaps(), d).horizon
        assert len(s.r_in[0]) == horizon + 1 == 1
        for t in range(horizon + 1):
            assert s.r_in[0][t][0] == t


@pytest.mark.parametrize(
    "text",
    ["n 3\ne 0 1 1 3\ne 0 2 2\ne 1 2 1 2\n", "n 3\ne 0 1 2 3\ne 1 2 1 3\n"],
    ids=["triangle", "path"],
)
def test_introduce_arrivals_match_relabelled_graph(text):
    # one bag holding every vertex: the top introduce node's r_in must be the
    # foremost arrivals of the graph under that state's images, in DP time
    # tau = t - 1 (departing at tau means departing at graph time tau + 1)
    g = parse_graph(text)
    inst = TrlpInstance(g, 1, 3, 3)
    d = TreeDecomposition((frozenset({0, 1, 2}),), ())
    ctx = _Ctx(inst, WorkCaps(), d)
    top = _side(ctx, 0, -1)
    assert top.bag == (0, 1, 2) and nice_kind(top) == "introduce"
    assert len({s.p for s in top.states}) > 20
    for state in top.states:
        pg = g.with_labels(dict(zip(ctx.bag_edges((0, 1, 2)), state.p)))
        for v in range(3):
            for t in range(ctx.horizon + 1):
                want = arrivals(pg, v, min_departure=t + 1)
                for x in range(3):
                    if x != v:
                        got = state.r_in[v][t][x]
                        assert got == (ctx.inf if want[x] is None else want[x] - 1), (state.p, v, t, x)


def test_forget_child_index_inserts_u_digit():
    # forget reads the child's count at the parent's departure vector with u's
    # departure inserted at u's column; the arithmetic index must be that
    # vector's position in itertools.product order
    for base in (2, 3, 5):
        for size in range(4):
            child_order = {vec: i for i, vec in enumerate(itertools.product(range(base), repeat=size + 1))}
            for col in range(size + 1):
                scale = base ** (size - col)
                for index, vec in enumerate(itertools.product(range(base), repeat=size)):
                    for digit in range(base):
                        want = child_order[vec[:col] + (digit,) + vec[col:]]
                        assert _insert_digit(index, digit, scale, base) == want


def test_join_fixpoint(monkeypatch):
    g = C4
    inst = TrlpInstance(g, 1, 2, 4)
    ctx = _Ctx(inst, WorkCaps(), decompose_exact_small(4, g.edges))
    bag = (0, 1, 2)
    horizon = ctx.horizon
    inf = ctx.inf
    # two arbitrary-but-consistent arrival functions built from real states is
    # heavy; instead check on simple synthetic rows that one extra round after
    # ceil(log2(|bag|)) changes nothing
    def mkrow(offsets):
        return tuple(
            tuple(
                tuple(min(t + o, inf) if o is not None else (t if j == i else inf)
                      for j, o in enumerate(offsets[i]))
                for t in range(horizon + 1)
            )
            for i in range(len(bag))
        )

    r1 = mkrow([[None, 1, inf], [inf, None, 1], [inf, inf, None]])
    r2 = mkrow([[None, inf, inf], [1, None, inf], [inf, 1, None]])
    k = join_rounds(len(bag))
    a = _join_rin(ctx, bag, r1, r2)
    monkeypatch.setattr(twdp, "join_rounds", lambda bag_size: k + 1)
    b = _join_rin(ctx, bag, r1, r2)
    assert a == b


def micro_tw_instances(count, seed0=100):
    out = []
    i = 0
    while len(out) < count:
        inst = random_instance(seed0 + i, "treewidth2")
        i += 1
        g = inst.graph
        if g.n <= 5 and g.lifetime <= 2 and g.num_time_edges() <= 8:
            out.append(TrlpInstance(g, 1, min(inst.zeta, 2), min(inst.h, 4)))
    return out


def test_treewidth_matches_oracle_micro():
    for inst in micro_tw_instances(12):
        g = inst.graph
        d = decompose_exact_small(g.n, g.edges)
        best = oracle_trlp_max_reach(g, inst.delta, inst.zeta)
        for h in range(1, min(4, g.n) + 1):
            probe = TrlpInstance(g, inst.delta, inst.zeta, h)
            res = solve_trlp_treewidth(probe, d)
            assert res.answer == (h <= best), (inst, h, best)
            if res.answer:
                pg = apply_perturbation(g, res.perturbation)
                count = sum(1 for a in arrivals(pg, res.source) if a is not None)
                assert count >= h
                moved = validate_relabelling(g, pg, inst.delta)
                assert moved is not None and moved <= inst.zeta


def test_treewidth_agrees_with_tree_dp():
    for seed in range(8):
        base = random_instance(seed, "tree")
        g = base.graph
        if g.n > 5 or g.lifetime > 2:
            continue
        inst = TrlpInstance(g, 1, min(base.zeta, 2), min(base.h, g.n))
        d = decompose_exact_small(g.n, g.edges)
        a = solve_trlp_treewidth(inst, d)
        b = solve_trlp_tree(inst)
        assert a.answer == b.answer


def test_treewidth_cap_refusal():
    g = C4
    inst = TrlpInstance(g, 1, 2, 4)
    d = decompose_exact_small(4, g.edges)
    with pytest.raises(CapExceeded):
        solve_trlp_treewidth(inst, d, caps=WorkCaps(tw_states=3))


def test_c4_all_ones_example():
    inst = TrlpInstance(C4, 1, 2, 4)
    d = decompose_exact_small(4, C4.edges)
    res = solve_trlp_treewidth(inst, d)
    best = oracle_trlp_max_reach(C4, 1, 2)
    assert res.answer == (best >= 4)


def test_h1_trivial_yes():
    g = parse_graph("n 3\ne 0 1 1\ne 1 2 1")
    d = decompose_exact_small(3, g.edges)
    res = solve_trlp_treewidth(TrlpInstance(g, 1, 0, 1), d)
    assert res.answer and res.source == 0


def test_treewidth_cap_bounds_whole_call():
    # ζ=0 on the all-ones C4 is a no, so every source runs; the sources share
    # the sides they have in common, sources 1 and 2 also the forget of 0 from
    # their root bag {0,1,2}, and each evaluated node counts once: source 0
    # alone needs 12 candidates and the whole call 29
    inst = TrlpInstance(C4, 1, 0, 4)
    d = decompose_exact_small(4, C4.edges)
    with pytest.raises(CapExceeded):
        solve_trlp_treewidth(inst, d, caps=WorkCaps(tw_states=28))
    assert not solve_trlp_treewidth(inst, d, caps=WorkCaps(tw_states=29)).answer


def test_sources_share_sides(monkeypatch):
    # on a no-instance whose widened reach bound is n for every source (all
    # ones at delta=3), every source runs, yet each side (c, parent) of the
    # decomposition is evaluated once, its reshape to parent's bag included,
    # and so is each forget on the chains from a root bag down to {source}:
    # the rule calls are the sides' own nodes plus those distinct forgets
    calls = [0]

    def counted(rule):
        def wrapper(*args):
            calls[0] += 1
            return rule(*args)

        return wrapper

    for name in ("_introduce_states", "_forget_states", "_join_states"):
        monkeypatch.setattr(twdp, name, counted(getattr(twdp, name)))
    g = parse_graph("n 6\ne 0 5 1\n" + "".join(f"e {i} {i + 1} 1\n" for i in range(5)))
    d = decompose_exact_small(g.n, g.edges)
    assert reach_counts(g, 3) == [g.n] * g.n
    assert not solve_trlp_treewidth(TrlpInstance(g, 3, 0, g.n), d).answer

    bags = d.bags
    neighbours = [[b if a == c else a for a, b in d.links if c in (a, b)] for c in range(len(bags))]
    roots = [min(i for i, b in enumerate(bags) if v in b) for v in range(g.n)]
    sides, stack = set(), [(r, -1) for r in roots]
    while stack:
        c, parent = stack.pop()
        sides.add((c, parent))
        stack.extend((x, c) for x in neighbours[c] if x != parent)

    def own_nodes(c, parent):
        arms = sum(1 for x in neighbours[c] if x != parent)
        # introduces above the leaf, or the joins of the arms
        below = arms - 1 if arms else len(bags[c])
        return below + (len(bags[c] ^ bags[parent]) if parent >= 0 else 0)

    # a chain forgets in sorted order, so its bags after each forget tell it
    chains = {
        (r, frozenset(bags[r] - set(sorted(bags[r] - {v})[:i])))
        for v, r in enumerate(roots)
        for i in range(1, len(bags[r]))
    }
    bound = sum(own_nodes(c, p) for c, p in sides) + len(chains)
    assert bound == 32 and len(chains) < sum(len(bags[r]) - 1 for r in roots)
    assert calls[0] == bound, (calls[0], bound)


def test_skipped_sources_leave_results_unchanged(monkeypatch):
    # a source whose widened reach bound is below h cannot answer yes, and
    # sides are memoised by link whichever source builds them: the results
    # equal those under a bound of n, which skips no source.  Graphs with at
    # most seven time-edges keep this to seconds.
    for seed in range(24):
        g = random_instance(seed, "treewidth2").graph
        if g.num_time_edges() > 7:
            continue
        d = decompose_exact_small(g.n, g.edges)
        for delta, zeta in itertools.product(range(3), repeat=2):
            for h in range(1, g.n + 1):
                inst = TrlpInstance(g, delta, zeta, h)
                real = solve_trlp_treewidth(inst, d)
                with monkeypatch.context() as m:
                    m.setattr(twdp, "reach_counts", lambda graph, _delta: [graph.n] * graph.n)
                    assert solve_trlp_treewidth(inst, d) == real, (seed, delta, zeta, h)


def test_sources_below_h_are_never_solved(monkeypatch):
    # the all-ones 6-cycle at delta=1 bounds every source at 5 < h = 6: no
    # source runs, and under a cap of zero candidates the call still answers
    calls = []
    solve = twdp._solve_for_source
    monkeypatch.setattr(twdp, "_solve_for_source", lambda ctx, s: calls.append(s) or solve(ctx, s))
    g = parse_graph("n 6\ne 0 5 1\n" + "".join(f"e {i} {i + 1} 1\n" for i in range(5)))
    assert reach_counts(g, 1) == [5] * g.n
    d = decompose_exact_small(g.n, g.edges)
    res = solve_trlp_treewidth(TrlpInstance(g, 1, 2, g.n), d, caps=WorkCaps(tw_states=0))
    assert not res.answer and calls == []


def test_root_chain_forgets_run_once(monkeypatch):
    # sources rooted at the same bag share the forgets of their chains down
    # to {source}: on a no-instance no node is forgotten by the same vertex
    # twice, though sources 1 and 2 of C4's root bag {0,1,2} both forget 0
    seen = []
    forget = twdp._forget_states

    def recorded(ctx, bag, u, child_bag, child_states):
        seen.append((id(child_states), u))
        return forget(ctx, bag, u, child_bag, child_states)

    monkeypatch.setattr(twdp, "_forget_states", recorded)
    d = decompose_exact_small(4, C4.edges)
    assert frozenset({0, 1, 2}) in d.bags
    ctx = _Ctx(TrlpInstance(C4, 1, 0, 4), WorkCaps(), d)
    for source in range(4):
        assert twdp._solve_for_source(ctx, source) is None
    assert len(seen) == len(set(seen)), seen


def test_root_moves_charge_every_edge_once():
    # moves are charged once per edge, at its introduce node: an accepted root
    # state's moves equal the minimal moves of the images its witnesses pick
    checked, moved = 0, 0
    for inst in micro_tw_instances(12):
        g = inst.graph
        d = decompose_exact_small(g.n, g.edges)
        ctx = _Ctx(inst, WorkCaps(), d)
        for source in range(g.n):
            root = nice_root(ctx, source)
            for state in root.states:
                if state.r_below[0] < inst.h - 1:
                    continue
                images = _collect_images(ctx, root, state)
                assert sorted(images) == sorted(g.edges)
                want = sum(
                    minimal_moves(g.labels[g.edge_index[e]], image, inst.delta)
                    for e, image in images.items()
                )
                assert state.moves == want <= inst.zeta, (inst, source, state.p)
                checked += 1
                moved += want > 0
    assert checked > 100 and moved > 50, (checked, moved)


def compressed_micro_instances(count, seed=7):
    """Trees and cycles with multi-label edges, labels in gappy clusters
    (some at 1, so windows clip there), delta 0-2; h is the optimum or one
    above it."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            n = rng.randint(2, 7)
            edges = [tuple(sorted((v, rng.randint(0, v - 1)))) for v in range(1, n)]
        else:
            n = rng.randint(3, 4)
            edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
        delta = rng.choice([0, 1, 1, 2, 2])
        pool, t = [], rng.choice([1, 1, rng.randint(2, 9)])
        for _ in range(rng.randint(1, 4)):
            pool.append(t)
            t += rng.choice([1, 2, 2 * delta + 1, 2 * delta + 2, rng.randint(5, 40)])
        labels = [
            tuple(sorted(rng.sample(pool, rng.randint(1, min(2, len(pool))))))
            for _ in edges
        ]
        order = sorted(range(len(edges)), key=lambda i: edges[i])
        g = TemporalGraph(n, tuple(edges[i] for i in order), tuple(labels[i] for i in order))
        zeta = rng.choice([0, 1, 1, 2])
        # h at the optimum or one above it, so answers sit on the boundary
        best = solve_trlp_xp(TrlpInstance(g, delta, zeta, n))
        opt = n if best.answer else best.reach_count
        if opt == n and rng.random() < 0.8:
            continue
        out.append(TrlpInstance(g, delta, zeta, min(n, opt + rng.randint(0, 1))))
    return out


def test_compressed_dps_match_xp():
    for inst in compressed_micro_instances(100):
        g = inst.graph
        want = solve_trlp_xp(inst).answer
        if len(g.edges) == g.n - 1:
            got = solve_trlp_tree(inst)
        else:
            got = solve_trlp_treewidth(inst, decompose_exact_small(g.n, g.edges))
        assert got.answer == want, inst
        if got.answer:
            pg = apply_perturbation(g, got.perturbation)
            count = sum(1 for a in arrivals(pg, got.source) if a is not None)
            assert count == got.reach_count >= inst.h


@pytest.mark.parametrize(
    "text, bags, links",
    [
        # the reshape from {2,3} to {0,1} forgets down to the empty bag
        ("n 4\ne 0 1 3\ne 2 3 5\n", ({0, 1}, {2, 3}), ((0, 1),)),
        # the empty bag 2 joins the two empty leaves 3 and 4
        (
            "n 4\ne 0 1 1 3\ne 0 3 2\ne 1 2 2\ne 2 3 1 4\n",
            ({0, 1, 2}, {0, 2, 3}, set(), set(), set()),
            ((0, 1), (1, 2), (2, 3), (2, 4)),
        ),
    ],
    ids=["disjoint-bags", "padded-c4"],
)
def test_one_entry_tables_match_xp(text, bags, links):
    # an empty bag's count table has one entry, which a forget into it and a
    # join on it read by a gather of one index
    g = parse_graph(text)
    d = TreeDecomposition(tuple(frozenset(b) for b in bags), links)
    for delta, zeta, h in itertools.product(range(3), range(3), range(1, g.n + 1)):
        inst = TrlpInstance(g, delta, zeta, h)
        want = solve_trlp_xp(inst)
        got = solve_trlp_treewidth(inst, d)
        assert (got.answer, got.source) == (want.answer, want.source), inst
        if got.answer:
            pg = apply_perturbation(g, got.perturbation)
            count = sum(1 for a in arrivals(pg, got.source) if a is not None)
            assert count == got.reach_count >= h
            assert validate_relabelling(g, pg, delta) <= zeta


def test_sources_rooted_apart_match_xp():
    # a singleton bag per vertex in front of an exact decomposition, each
    # linked to the first bag holding its vertex: every source roots at its
    # own bag, so sources share only the sides below their roots
    for inst in compressed_micro_instances(40, seed=11):
        g = inst.graph
        d = decompose_exact_small(g.n, g.edges)
        k = g.n
        holder = [min(i for i, b in enumerate(d.bags) if v in b) for v in range(k)]
        padded = TreeDecomposition(
            tuple(frozenset({v}) for v in range(k)) + d.bags,
            tuple((v, k + holder[v]) for v in range(k)) + tuple((a + k, b + k) for a, b in d.links),
        )
        want = solve_trlp_xp(inst)
        got = solve_trlp_treewidth(inst, padded)
        assert (got.answer, got.source) == (want.answer, want.source), inst
        if got.answer:
            pg = apply_perturbation(g, got.perturbation)
            count = sum(1 for a in arrivals(pg, got.source) if a is not None)
            assert count == got.reach_count >= inst.h


def test_delta_past_lifetime_plus_n_answers_as_at_it():
    # every time in [1, T+n+1] lies in every window at delta = T+n, so a
    # larger delta must give the same answer, source, count and moves.  The
    # first graph once took 2.5 s at delta = 100 and ran past 30 s at 1e9.
    graphs = [parse_graph("n 3\ne 0 1 5\ne 1 2 3\n")] + [
        g for seed in range(30) for profile in ("tree", "treewidth2")
        if (g := random_instance(seed, profile).graph).num_time_edges() <= 5
    ]
    for g in graphs:
        decomp = decompose_exact_small(g.n, g.edges)
        for zeta in (0, 1):
            for h in range(1, g.n + 1):
                at_cap, huge = (
                    solve_trlp_treewidth(TrlpInstance(g, d, zeta, h), decomp)
                    for d in (g.lifetime + g.n, 10**9)
                )
                assert huge.perturbation is None or huge.perturbation.delta == 10**9
                assert (at_cap.answer, at_cap.source, at_cap.reach_count) == (
                    huge.answer, huge.source, huge.reach_count)
                if huge.answer:
                    assert at_cap.perturbation.records == huge.perturbation.records
