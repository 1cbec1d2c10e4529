import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporeach.tgraph import (
    FormatError,
    Perturbation,
    PerturbationError,
    TemporalGraph,
    _minimal_matching,
    apply_perturbation,
    compress_time,
    minimal_moves,
    parse_graph,
    parse_perturbation,
    serialize_graph,
    serialize_perturbation,
    validate_relabelling,
    window,
)
from temporeach.testkit import PROFILES, random_instance


def test_parse_basic():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1\n")
    assert g.lifetime == 2
    assert g.edges == ((0, 1), (1, 2))


def test_parse_multilabel():
    g = parse_graph("n 2\ne 0 1 1 3 7")
    assert g.labels == ((1, 3, 7),)


def test_parse_rejects_duplicate_label():
    with pytest.raises(FormatError) as exc:
        parse_graph("n 2\ne 0 1 3 3")
    assert exc.value.line_no == 2


# every parse_graph rejection: text -> (line number, message).  A line that
# breaks two rules reports the first check of: field count, integers, range,
# u < v, duplicate, label < 1, strictly increasing.
_REJECTIONS = {
    "e 0 1 1\nn 2": (1, "edge before 'n' line"),
    "n 2\ne 0 2 1": (2, "vertex id out of range on edge (0,2)"),
    "n 2\ne 1 0 1": (2, "edge endpoints must satisfy u < v, got (1,0)"),
    "n 2\ne 0 1 0": (2, "label < 1"),
    "n 2\ne 0 1 2 1": (2, "labels not sorted strictly increasing"),
    "n 3\ne 0 1 1\ne 0 1 2": (3, "duplicate edge (0,1)"),
    "n 2\nq 0 1 1": (2, "unknown line kind 'q'"),
    "n 2\ne -1 1 1": (2, "vertex id out of range on edge (-1,1)"),
    "n 2\ne 1 1 1": (2, "edge endpoints must satisfy u < v, got (1,1)"),
    "n 2\ne 0 1 3 3": (2, "labels not sorted strictly increasing"),
    "n 3\ne 0 2 3 2 1": (2, "labels not sorted strictly increasing"),
    "n 2\ne 1 0 0": (2, "edge endpoints must satisfy u < v, got (1,0)"),
    "n 2\ne 0 1 0 0": (2, "label < 1"),
    "n 2\ne 0 1 2 0": (2, "label < 1"),
    "n 2\ne 5 1 0": (2, "vertex id out of range on edge (5,1)"),
    "n 3\ne 0 1 1\ne 0 1 0": (3, "duplicate edge (0,1)"),
    "n 3\ne 0 2 1\ne 2 0 1": (3, "edge endpoints must satisfy u < v, got (2,0)"),
    "n 3\ne 0 1 1\n\n# c\ne 1 0 5": (5, "edge endpoints must satisfy u < v, got (1,0)"),
    "n 2\ne 0 1 x": (2, "non-integer field on edge line"),
    "n 2\ne 0 1 1.5": (2, "non-integer field on edge line"),
    "n 2\ne 0 x 1": (2, "non-integer field on edge line"),
    "n 2\ne 1 0 x": (2, "non-integer field on edge line"),
    "n 2\ne 0 1": (2, "edge line needs two endpoints and at least one time"),
    "n 2\ne 9 9": (2, "edge line needs two endpoints and at least one time"),
    "n 2\nn 2": (2, "repeated 'n' line"),
    "n 2\ne 0 1 1\nn x": (3, "repeated 'n' line"),
    "n 2 3": (1, "'n' line needs exactly one count"),
    "n": (1, "'n' line needs exactly one count"),
    "n x": (1, "bad vertex count 'x'"),
    "n -1": (1, "vertex count must be nonnegative"),
    "# c\n": (0, "missing 'n' line"),
    "": (0, "missing 'n' line"),
    "e 0 1 1": (1, "edge before 'n' line"),
    "n 2\ne 0 1 1\ndelta 1": (3, "unknown line kind 'delta'"),
    "\ufeffn 2\ne 0 1 1": (1, "unknown line kind '\\ufeffn'"),
}


@pytest.mark.parametrize("text", list(_REJECTIONS))
def test_parse_rejects(text):
    line_no, message = _REJECTIONS[text]
    with pytest.raises(FormatError) as exc:
        parse_graph(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


def test_parse_accepts_a_utf8_bom_in_bytes():
    g = parse_graph(b"\xef\xbb\xbfn 2\ne 0 1 1\n")
    assert g == parse_graph("n 2\ne 0 1 1\n")


def test_parse_allows_comments_and_headers():
    g = parse_graph("# c\nn 2\ne 0 1 1\ndelta 1\nzeta 2\n", allow_headers=True)
    assert g.n == 2
    with pytest.raises(FormatError):
        parse_graph("n 2\ne 0 1 1\ndelta 1\n")


@st.composite
def temporal_graphs(draw, max_n=6, max_t=5, max_labels=3, max_edges=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    cap = len(pairs) if max_edges is None else min(max_edges, len(pairs))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=cap)) if pairs else []
    labels = []
    for _ in chosen:
        ts = draw(st.lists(st.integers(1, max_t), min_size=1, max_size=max_labels, unique=True))
        labels.append(tuple(sorted(ts)))
    order = sorted(range(len(chosen)), key=lambda i: chosen[i])
    return TemporalGraph(n, tuple(chosen[i] for i in order), tuple(labels[i] for i in order))


@settings(max_examples=150, deadline=None)
@given(temporal_graphs())
def test_serialize_parse_roundtrip(g):
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_any_edge_order_builds_the_checked_graph(data):
    g = data.draw(temporal_graphs())
    head, *edge_lines = serialize_graph(g).splitlines()
    shuffled = data.draw(st.permutations(edge_lines))
    parsed = parse_graph("\n".join([head, *shuffled]))
    assert parsed == g
    rows = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        rows[u].append((v, i))
        rows[v].append((u, i))
    assert parsed.adjacency == tuple(tuple(sorted(r)) for r in rows)
    assert parsed.edge_index == {e: i for i, e in enumerate(parsed.edges)}


def _invalid_parts(g):
    """(n, edges, labels) triples that each break one constructor rule;
    ``g`` has at least two edges."""
    (u, v), ts = g.edges[0], g.labels[0]
    rest_e, rest_l = g.edges[1:], g.labels[1:]
    yield -1, (), ()
    yield g.n, g.edges, g.labels[1:]
    yield g.n, ((v, u), *rest_e), g.labels
    yield g.n, ((u, g.n), *rest_e), g.labels
    yield g.n, ((u, v), *g.edges), (ts, *g.labels)
    yield g.n, g.edges, ((), *rest_l)
    yield g.n, g.edges, ((0, *ts), *rest_l)
    yield g.n, g.edges, ((*ts, ts[-1]), *rest_l)
    yield g.n, g.edges[::-1], g.labels[::-1]


@settings(max_examples=100, deadline=None)
@given(temporal_graphs().filter(lambda g: len(g.edges) >= 2))
def test_constructor_rejects_each_invalid_graph(g):
    TemporalGraph(g.n, g.edges, g.labels)
    for n, edges, labels in _invalid_parts(g):
        with pytest.raises(ValueError):
            TemporalGraph(n, edges, labels)


def test_apply_single_shift():
    g = parse_graph("n 2\ne 0 1 2")
    p = Perturbation(1, 1, (((0, 1), 2, 3),))
    assert apply_perturbation(g, p).labels == ((3,),)


def test_apply_identity():
    g = parse_graph("n 2\ne 0 1 2")
    assert apply_perturbation(g, Perturbation(1, 0, ())) == g


def test_apply_rejects_collision():
    g = parse_graph("n 2\ne 0 1 2 3")
    p = Perturbation(1, 1, (((0, 1), 2, 3),))
    with pytest.raises(PerturbationError) as info:
        apply_perturbation(g, p)
    assert str(info.value) == "records on edge (0, 1): resulting labels [3, 3] are not pairwise distinct"


def test_apply_allows_swap():
    g = parse_graph("n 2\ne 0 1 2 3")
    p = Perturbation(1, 2, (((0, 1), 2, 3), ((0, 1), 3, 2)))
    assert apply_perturbation(g, p) == g  # swapped labels, same set
    assert p.perturbed_count == 2


def test_apply_rejects_out_of_window():
    g = parse_graph("n 2\ne 0 1 2")
    with pytest.raises(PerturbationError) as info:
        apply_perturbation(g, Perturbation(1, 1, (((0, 1), 2, 4),)))
    assert str(info.value) == "record (0, 1) 2->4: new time outside [max(1,2-1), 2+1]"


def test_apply_rejects_over_budget():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 2")
    p = Perturbation(1, 1, (((0, 1), 2, 3), ((1, 2), 2, 3)))
    with pytest.raises(PerturbationError) as info:
        apply_perturbation(g, p)
    assert str(info.value) == "2 moved time-edges exceed the declared zeta=1"


@pytest.mark.parametrize(
    "text, records, zeta, message",
    [
        ("n 3\ne 0 1 2", (((0, 2), 2, 3),), 1, "record (0, 2) 2->3: no such edge"),
        ("n 2\ne 0 1 2", (((0, 1), 5, 4),), 1, "record (0, 1) 5->4: 5 is not a label of (0, 1)"),
        ("n 2\ne 0 1 2", (((0, 1), 2, 0),), 1,
         "record (0, 1) 2->0: new time outside [max(1,2-1), 2+1]"),
        ("n 2\ne 0 1 2", (((0, 1), 2, 1), ((0, 1), 2, 3)), 2,
         "record (0, 1) 2->3: duplicate record for this appearance"),
    ],
    ids=["edge", "label", "floor", "duplicate"],
)
def test_apply_rejects_each_bad_record(text, records, zeta, message):
    with pytest.raises(PerturbationError) as info:
        apply_perturbation(parse_graph(text), Perturbation(1, zeta, records))
    assert str(info.value) == message


@pytest.mark.parametrize("profile", PROFILES)
def test_apply_matches_with_labels(profile):
    # the one check apply_perturbation makes must build the graph with_labels
    # builds from the same records
    rng = random.Random(profile)
    applied = 0
    for seed in range(60):
        g = random_instance(seed, profile).graph
        appearances = [(e, t) for e, ts in zip(g.edges, g.labels) for t in ts]
        if not appearances:
            continue
        for _ in range(5):
            delta = rng.randint(0, 3)
            picked = rng.sample(appearances, rng.randint(1, min(3, len(appearances))))
            records = tuple((e, t, rng.choice(window(t, delta))) for e, t in picked)
            p = Perturbation(delta, len(records), records)
            moves = {}
            for e, old, new in records:
                moves.setdefault(e, {})[old] = new
            new_labels = {e: [m.get(t, t) for t in g.edge_labels(*e)] for e, m in moves.items()}
            if any(len(set(ts)) < len(ts) for ts in new_labels.values()):
                with pytest.raises(PerturbationError):
                    apply_perturbation(g, p)
                continue
            pg = apply_perturbation(g, p)
            assert pg == g.with_labels(new_labels)
            assert pg.adjacency is g.adjacency
            applied += 1
    assert applied >= 100


def test_validate_relabelling_examples():
    g = parse_graph("n 2\ne 0 1 2 5")
    g2 = parse_graph("n 2\ne 0 1 3 5")
    assert validate_relabelling(g, g2, 1) == 1
    assert validate_relabelling(g, g, 3) == 0
    far = parse_graph("n 2\ne 0 1 5")
    near = parse_graph("n 2\ne 0 1 2")
    assert validate_relabelling(near, far, 1) is None


def test_validate_relabelling_crossing_matching():
    # fixing the shared label 2 forces 1->3 which is out of window at delta=1,
    # so two moves are needed
    g = parse_graph("n 2\ne 0 1 1 2")
    g2 = parse_graph("n 2\ne 0 1 2 3")
    assert validate_relabelling(g, g2, 1) == 2
    assert validate_relabelling(g, g2, 2) == 1


def test_validate_relabelling_structural_mismatch():
    g = parse_graph("n 2\ne 0 1 1")
    g2 = parse_graph("n 2\ne 0 1 1 2")
    with pytest.raises(ValueError):
        validate_relabelling(g, g2, 1)


def _all_matchings_min_moves(old, new, delta):
    best = None
    for perm in itertools.permutations(new):
        if all(abs(a - b) <= delta and b >= 1 for a, b in zip(old, perm)):
            moves = sum(1 for a, b in zip(old, perm) if a != b)
            best = moves if best is None or moves < best else best
    return best


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True),
    st.integers(0, 3),
)
def test_minimal_moves_matches_exhaustive(old, new, delta):
    if len(old) != len(new):
        old = old[: len(new)]
        new = new[: len(old)]
    old, new = tuple(sorted(old)), tuple(sorted(new))
    moves = minimal_moves(old, new, delta)
    assert moves == _all_matchings_min_moves(old, new, delta)
    pairs = _minimal_matching(old, new, delta)
    records = None if pairs is None else tuple(((0, 1), a, b) for a, b in pairs)
    if moves is None:
        assert records is None
        return
    assert len(records) == moves
    assert all(e == (0, 1) and abs(a - b) <= delta and b >= 1 for e, a, b in records)
    moved = {a: b for _e, a, b in records}
    assert sorted(moved.get(t, t) for t in old) == list(new)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True),
    st.integers(0, 4),
)
def test_sorted_alignment_feasibility(old, new, delta):
    # a within-delta matching exists iff the sorted i-th to i-th pairing works
    if len(old) != len(new):
        old = old[: len(new)]
        new = new[: len(old)]
    old, new = tuple(sorted(old)), tuple(sorted(new))
    exhaustive = _all_matchings_min_moves(old, new, delta) is not None
    aligned = all(abs(a - b) <= delta for a, b in zip(old, new))
    assert exhaustive == aligned


@st.composite
def graph_with_perturbation(draw):
    g = draw(temporal_graphs(max_n=5, max_t=4, max_labels=2))
    delta = draw(st.integers(0, 2))
    records = []
    for e, ts in zip(g.edges, g.labels):
        if not draw(st.booleans()):
            continue
        old = draw(st.sampled_from(ts))
        lo, hi = max(1, old - delta), old + delta
        new = draw(st.integers(lo, hi))
        if new != old and new in ts:
            continue
        records.append((e, old, new))
    p = Perturbation(delta, len(records), tuple(sorted(records)))
    return g, p


@settings(max_examples=200, deadline=None)
@given(graph_with_perturbation())
def test_apply_preserves_counts_and_bounds(gp):
    g, p = gp
    g2 = apply_perturbation(g, p)
    assert g2.edges == g.edges
    for ts, ts2 in zip(g.labels, g2.labels):
        assert len(ts) == len(ts2)
        assert all(1 <= t <= g.lifetime + p.delta for t in ts2)


@settings(max_examples=200, deadline=None)
@given(graph_with_perturbation())
def test_validate_at_most_perturbed_count(gp):
    g, p = gp
    g2 = apply_perturbation(g, p)
    moved = validate_relabelling(g, g2, p.delta)
    assert moved is not None
    assert moved <= p.perturbed_count


def test_perturbation_file_roundtrip():
    p = Perturbation(2, 3, (((0, 1), 2, 4), ((1, 3), 5, 5)))
    text = serialize_perturbation(p)
    assert parse_perturbation(text) == p
    assert "delta 2" in text and "zeta 3" in text


@pytest.mark.parametrize(
    "text, line_no, kind",
    [
        ("delta 1\nzeta 2\ndelta 5\np 0 1 3 4\n", 3, "delta"),
        ("zeta 2\ndelta 1\nzeta 0\n", 3, "zeta"),
    ],
)
def test_perturbation_rejects_repeated_header(text, line_no, kind):
    with pytest.raises(FormatError) as exc:
        parse_perturbation(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: repeated '{kind}' line"


def test_compress_time_identity_and_ranks():
    g = parse_graph("n 4\ne 0 1 1 4\ne 1 2 2 7\ne 2 3 4 9\n")
    # distinct labels 1 2 4 7 9: no gap (from 0 on) is wider than 3 = 2*1+1
    for delta in (1, 2):
        same, shift = compress_time(g, delta)
        assert same == g and shift == {1: 0, 2: 0, 4: 0, 7: 0, 9: 0}
    # delta 0: every label becomes its rank among the distinct labels
    ranks, shift = compress_time(g, 0)
    assert ranks.labels == ((1, 3), (2, 4), (3, 5))
    assert shift == {1: 0, 2: 0, 3: 1, 4: 3, 5: 4}
    # wide gaps shrink to 2*delta+1, the first one from 0 to delta+1
    far, shift = compress_time(parse_graph("n 3\ne 0 1 50 51\ne 1 2 100\n"), 1)
    assert far.labels == ((2, 3), (6,)) and shift == {2: 48, 3: 48, 6: 94}


def test_with_labels_shares_structure_and_checks_replacements():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 1 3\ne 2 3 4\n")
    g2 = g.with_labels({(1, 2): (5, 2), (2, 3): [1]})
    assert g2 == TemporalGraph(4, g.edges, ((2,), (2, 5), (1,)))
    assert g2.edges is g.edges
    assert g2.edge_index is g.edge_index and g2.adjacency is g.adjacency
    assert g2.lifetime == 5 and g.labels == ((2,), (1, 3), (4,))
    for bad in ({(0, 1): (0, 2)}, {(0, 1): (3, 3)}, {(0, 1): ()}, {(0, 2): (1,)}):
        with pytest.raises(ValueError):
            g.with_labels(bad)
