import hashlib
import itertools
import random

import pytest

from temporeach.limits import CapExceeded, WorkCaps
from temporeach.ecc import EccInstance, measure
from temporeach import testkit
from temporeach.reach import arrivals, reach_counts, reach_set
from temporeach.solvers import TrlpInstance
from temporeach.tgraph import TemporalGraph, apply_perturbation, parse_graph, serialize_graph
from temporeach.testkit import (
    PROFILES,
    CnfFormula,
    StaticGraph,
    brute_domset,
    brute_sat,
    domset_to_trlp,
    enumerate_perturbations,
    enumeration_size,
    oracle_ecc,
    oracle_ecc_min,
    oracle_trlp,
    oracle_trlp_max_reach,
    parse_dimacs,
    random_instance,
    sat_to_tfaep,
    sat_to_tsep,
    scan_perturbations,
)


def serialize_dimacs(f):
    """DIMACS text of ``f``, for the round trip through ``parse_dimacs``."""
    out = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        out.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(out) + "\n"


FIG_GRAPH = StaticGraph(5, ((0, 1), (0, 3), (1, 3), (1, 4), (2, 4)))


def naive_space(g, delta, zeta):
    """Independent enumeration: all per-edge injective target assignments."""
    per_edge = []
    for ts in g.labels:
        windows = [range(max(1, t - delta), t + delta + 1) for t in ts]
        options = []
        for targets in itertools.product(*windows):
            if len(set(targets)) == len(targets):
                moves = sum(1 for a, b in zip(ts, targets) if a != b)
                options.append((tuple(sorted(targets)), moves))
        per_edge.append(options)
    out = set()
    for combo in itertools.product(*per_edge):
        if sum(m for _lab, m in combo) <= zeta:
            out.add(tuple(lab for lab, _m in combo))
    return out


@pytest.mark.parametrize("delta,zeta", [(1, 0), (1, 1), (1, 2), (2, 1), (0, 2)])
def test_enumeration_covers_whole_space(delta, zeta):
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1 3")
    got = set()
    for p, pg in enumerate_perturbations(g, delta, zeta):
        assert p.perturbed_count <= zeta
        assert apply_perturbation(g, p) == pg
        got.add(pg.labels)
    assert got == naive_space(g, delta, zeta)


def test_enumeration_counts_each_assignment_once():
    g = parse_graph("n 2\ne 0 1 2")
    records = [p.records for p, _ in enumerate_perturbations(g, 1, 1)]
    assert len(records) == len(set(records))
    assert records[0] == ()  # identity first


@pytest.mark.parametrize("restricted", [False, True])
def test_unpruned_scan_equals_enumeration(restricted):
    """Without ``keep`` the scan completes the same perturbations, with the
    same graphs and in the same order, as the independent enumeration."""
    for seed in range(60):
        for profile in PROFILES:
            inst = random_instance(seed, profile)
            g, delta, zeta = inst.graph, inst.delta, max(inst.zeta, 2)
            eset = g.edges[seed % 2::2] if restricted else None
            got = []

            def collect(p, pg):
                got.append((p.records, pg.labels))
                return False

            scan_perturbations(g, delta, zeta, eset=eset, on_complete=collect)
            want = [(p.records, pg.labels) for p, pg in enumerate_perturbations(g, delta, zeta, eset)]
            assert got == want, (seed, profile)


def test_scan_graphs_are_snapshots():
    """Every graph the scan hands out keeps its labels after the scan moves on."""
    seen = [0, 0]
    for seed in range(60):
        for profile in PROFILES:
            inst = random_instance(seed, profile)
            g, delta, zeta = inst.graph, inst.delta, max(inst.zeta, 2)
            kept, completed = [], []

            def keep(relaxed):
                kept.append((relaxed, [tuple(ts) for ts in relaxed.labels]))
                return len(kept) % 3 != 0  # prune now and then, to backtrack early

            def record(p, pg):
                completed.append((p, pg))
                return False

            scan_perturbations(g, delta, zeta, keep=keep, on_complete=record)
            assert all(list(relaxed.labels) == labels for relaxed, labels in kept)
            assert all(apply_perturbation(g, p) == pg for p, pg in completed)
            seen[0] += len(kept)
            seen[1] += len(completed)
    assert min(seen) > 1000


def test_scan_refuses_edge_outside_graph():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1 3")
    with pytest.raises(ValueError, match=r"edge \(0, 2\) is not in the graph"):
        list(enumerate_perturbations(g, 1, 1, eset=[(0, 2)]))
    with pytest.raises(ValueError, match=r"edge \(0, 2\) is not in the graph"):
        scan_perturbations(g, 1, 1, eset=[(1, 2), (0, 2)], on_complete=lambda p, pg: False)


def budget_free_cases():
    """(graph, delta, h, k) of seeded micro instances whose whole space, with
    every appearance movable, has at most 3,000 perturbations: the random
    profiles, then graphs with up to three labels an edge in 1..4, whose
    windows collide and are clipped at 1."""
    cases = []
    for seed in range(60):
        for profile in PROFILES:
            inst = random_instance(seed, profile)
            cases.append((inst.graph, inst.delta, inst.h, seed % 4))
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(1, min(3, len(pairs)))))
        labels = [tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 3)))) for _ in edges]
        g = TemporalGraph(n, tuple(edges), tuple(labels))
        cases.append((g, rng.randint(1, 2), rng.randint(1, n), seed % 4))
    return [(g, delta, h, k) for g, delta, h, k in cases
            if enumeration_size(g.num_time_edges(), delta, g.num_time_edges()) <= 3000]


def test_scan_first_witness_follows_enumeration_order():
    """The pruned scan's first witness is the first accepted perturbation of
    the unpruned enumeration, for both oracles, also where the budget cannot
    bind and the value walk answers first."""
    budgeted = []
    for seed in range(60):
        for profile in PROFILES:
            inst = random_instance(seed, profile)
            budgeted.append((inst.graph, inst.delta, max(inst.zeta, 2), inst.h, seed % 4))
    budget_free = [(g, delta, g.num_time_edges(), h, k) for g, delta, h, k in budget_free_cases()]
    for cases, least in ((budgeted, 40), (budget_free, 15)):
        compared = 0
        for g, delta, zeta, h, k in cases:
            space = list(enumerate_perturbations(g, delta, zeta))

            def reaching(pg):
                return next((s for s in range(g.n) if len(reach_set(pg, s)) >= h), None)

            want = next(((p, reaching(pg)) for p, pg in space if reaching(pg) is not None), None)
            got = oracle_trlp(TrlpInstance(g, delta, zeta, h))
            assert (got.perturbation, got.source) == (want or (None, None)), (g, delta, zeta, h)
            compared += want is not None and want[0].perturbed_count > 0
            for variant in ("shortest", "fastest"):

                def within(pg):
                    val = measure(pg, 0, variant)
                    return val is not None and val <= k

                want = next(((p, measure(pg, 0, variant)) for p, pg in space if within(pg)), None)
                got = oracle_ecc(EccInstance(g, 0, k, delta, zeta, variant))
                assert (got.perturbation, got.ecc_value) == (want or (None, None)), (g, delta, zeta, variant)
                compared += want is not None and want[0].perturbed_count > 0
        assert compared >= least  # witnesses that move something


def test_value_walk_visits_every_perturbation_once():
    """Unpruned, the value walk completes the same perturbations, with the
    same graphs, as the independent enumeration, each once, in its own order."""
    seen = 0
    for g, delta, _h, _k in budget_free_cases():
        m = g.num_time_edges()
        got = []

        def collect(p, pg):
            got.append((p.records, pg.labels))
            return False

        testkit._value_walk(g, delta, m, keep=lambda relaxed: True, on_complete=collect)
        want = [(p.records, pg.labels) for p, pg in enumerate_perturbations(g, delta, m)]
        assert sorted(got) == sorted(want), (g, delta)
        seen += len(got)
    assert seen > 5000


def test_value_walk_at_delta_zero_is_the_graph_alone():
    """At delta 0 nothing moves: however many appearances, the value walk,
    and the ordered scan under a budget below them, complete the input graph
    once, without a keep test or a decision each."""
    g = TemporalGraph(1501, tuple((v, v + 1) for v in range(1500)), tuple((1,) for _ in range(1500)))
    for walk, zeta in ((testkit._value_walk, 1500), (scan_perturbations, 1499)):
        got = []
        walk(g, 0, zeta, keep=lambda relaxed: pytest.fail("no keep test"),
             on_complete=lambda p, pg: got.append((p.records, pg.labels)))
        assert got == [((), g.labels)], walk
        assert oracle_trlp_max_reach(g, 0, zeta) == 3  # a vertex and its two neighbours
        assert not oracle_trlp(TrlpInstance(g, 0, zeta, 4)).answer


@pytest.mark.parametrize("walker", ["value", "ordered"])
def test_budget_free_optima_match_brute_force(walker, monkeypatch):
    """With every appearance movable, the optimum oracles' least cost, by
    either walker, is the best over the whole enumerated space, and a
    threshold no's count stays at or below it."""
    if walker == "ordered":
        monkeypatch.setattr(testkit, "_value_walk", scan_perturbations)
    for g, delta, _h, _k in budget_free_cases():
        m = g.num_time_edges()
        graphs = [pg for _p, pg in enumerate_perturbations(g, delta, m)]
        want = max(max(reach_counts(pg), default=0) for pg in graphs)
        assert oracle_trlp_max_reach(g, delta, m) == want, (g, delta)
        for h in range(want + 1, g.n + 1):
            no = oracle_trlp(TrlpInstance(g, delta, m, h))
            assert not no.answer and no.reach_count <= want, (g, delta, h)
        for variant in ("shortest", "fastest"):
            values = [v for v in (measure(pg, 0, variant) for pg in graphs) if v is not None]
            want = min(values, default=None)
            assert oracle_ecc_min(g, 0, delta, m, variant) == want, (g, delta, variant)


def test_oracle_path_example():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    res = oracle_trlp(TrlpInstance(g, 1, 1, 3))
    assert res.answer
    # five single-record options exist; reach 3 already holds from vertex 1
    assert res.source == 1 and res.perturbation.perturbed_count == 0


def test_oracle_delta_zero_is_plain_reachability():
    g = parse_graph("n 3\ne 0 1 2\ne 1 2 1")
    assert oracle_trlp(TrlpInstance(g, 0, 3, 3)).answer
    g2 = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    assert not oracle_trlp(TrlpInstance(g2, 0, 5, 4)).answer


def test_oracle_zeta_zero_is_plain_reachability():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    assert not oracle_trlp(TrlpInstance(g, 2, 0, 4)).answer
    assert oracle_trlp(TrlpInstance(g, 2, 1, 4)).answer


def test_oracle_certificate_is_sound():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    inst = TrlpInstance(g, 1, 2, 4)
    res = oracle_trlp(inst)
    if res.answer:
        pg = apply_perturbation(g, res.perturbation)
        count = sum(1 for a in arrivals(pg, res.source) if a is not None)
        assert count >= inst.h


def test_oracle_cap():
    g = parse_graph("n 6\n" + "\n".join(f"e {u} {v} 3" for u, v in itertools.combinations(range(6), 2)))
    with pytest.raises(CapExceeded):
        oracle_trlp(TrlpInstance(g, 3, 15, 6), caps=WorkCaps(oracle_evals=10))


def test_oracle_max_reach_matches_decisions():
    g = parse_graph("n 4\ne 0 1 2\ne 1 2 2\ne 2 3 2")
    best = oracle_trlp_max_reach(g, 1, 2)
    for h in range(1, 5):
        assert oracle_trlp(TrlpInstance(g, 1, 2, h)).answer == (h <= best)


def test_brute_sat():
    assert not brute_sat(CnfFormula(1, ((1,), (-1,))))
    assert brute_sat(CnfFormula(1, ((1, -1),)))
    assert brute_sat(CnfFormula(2, ((1, 2), (-1,), (-2, 1)))) is False


def test_brute_domset_fig_graph():
    assert brute_domset(FIG_GRAPH, 2)
    assert not brute_domset(FIG_GRAPH, 1)


def test_domset_reduction_shape():
    inst = domset_to_trlp(FIG_GRAPH, 2)
    g = inst.graph
    assert g.n == 11
    assert len(g.edges) == 20
    assert all(ts == (2,) for ts in g.labels)
    assert (inst.delta, inst.zeta, inst.h) == (1, 2, 11)


def test_domset_reduction_answers():
    yes = oracle_trlp(domset_to_trlp(FIG_GRAPH, 2))
    assert yes.answer
    no = oracle_trlp(domset_to_trlp(FIG_GRAPH, 1))
    assert not no.answer


def test_sat_tsep_gadget_times():
    f = CnfFormula(1, ((1,), (-1,)))
    inst = sat_to_tsep(f, 4, 1)
    g = inst.graph
    labelled = dict(zip(g.edges, g.labels))
    # v_s=0, v_{1,1..4} = 1..4, clause vertices 5, 6
    assert labelled[(0, 1)] == (1,)
    assert labelled[(0, 2)] == (5,)
    assert labelled[(1, 2)] == (2,)
    assert labelled[(2, 3)] == (4,)
    assert labelled[(3, 4)] == (7,)
    assert labelled[(3, 5)] == (4,)
    assert labelled[(4, 6)] == (8,)
    assert len(g.edges) == 7
    assert inst.zeta == 7 and inst.k == 4 and inst.variant == "shortest"


def test_sat_tfaep_gadget_times():
    f = CnfFormula(1, ((1,), (-1,)))
    inst = sat_to_tfaep(f, 2, 1)
    g = inst.graph
    labelled = dict(zip(g.edges, g.labels))
    assert labelled[(0, 1)] == (1,)
    assert labelled[(1, 2)] == (4,)  # positive literal clause
    assert labelled[(1, 3)] == (1,)  # negative literal clause
    assert inst.variant == "fastest" and inst.k == 1
    # x and ~x is unsatisfiable, so no perturbation may reach the threshold
    got = oracle_ecc_min(g, inst.source, inst.delta, inst.zeta, inst.variant)
    assert got is not None and got > inst.k


# (builder, variables, clauses, k, sha256 of the instance text as `gen
# sat-tsep` / `gen sat-tfaep` write it), pinned before the two builders
# shared their last step.  Two-variable tsep gadgets at k = 5 exceed the
# oracle's default cap.
GADGET_PINS = [
    ("tsep", 1, ((1,),), 5, "434b025bd58367834148832f09e4e4464a37e074365914b2532c978e32030306"),
    ("tsep", 1, ((1,),), 6, "a3365060b2b9d7f06dbe2be4c3df965f2a2f09b6c915cf7f1e1dee1d12be5f75"),
    ("tsep", 1, ((-1,),), 5, "35c911d7a3c56836100e2f92f38d400a109ff50fb3849141c12d3071d7842ea2"),
    ("tsep", 1, ((-1,),), 6, "c3d6f8259f5cc068140b92923e429ac63d08f0c86df93f7bf2b870009cfc48d0"),
    ("tsep", 1, ((1,), (-1,)), 5, "3686d7ed7dac41ebca16d953d58f85f25c276b0077ed6e9c6bb89f0b6372bf24"),
    ("tsep", 1, ((1,), (-1,)), 6, "a56227c1cd653f44216e02fff42378fa4d540abee2c8de021462f2acb4bf90a2"),
    ("tsep", 1, ((1, -1),), 5, "de8527494643808c8a191f1c1593fa1a3412e6b021e624f2e2271dd00a63333f"),
    ("tsep", 1, ((1, -1),), 6, "1214274da0e6b99a4151cdc1e4f5773a250beac78bd9d032abb27a94f9d8788c"),
    ("tfaep", 1, ((1,),), 3, "1e6cb639377d1b923425589a2528f1d9edd2bcf9caa601b9adeadb9a4022392b"),
    ("tfaep", 1, ((1,),), 4, "82302cdfa58168861ea86925958341a95c09281b1086618ff40aae76c770e61a"),
    ("tfaep", 1, ((-1,),), 3, "df88810ca34e6b3e304b7141a93bae8ae5a3dba2692067855cf7215f177a01a7"),
    ("tfaep", 1, ((-1,),), 4, "7317892ecb48a0f07e59a58717b93f9eecd9179223206e75048e5c056a74f74d"),
    ("tfaep", 1, ((1,), (-1,)), 3, "b6e5e951f9bae1eebed6c8a93b06efeeeee0b0ce4285b36ca8e645d329833a03"),
    ("tfaep", 1, ((1,), (-1,)), 4, "079f6490ba75b927b88b4f01cd19f3c840ded49aeb3ec6df0a3428ee030e66f7"),
    ("tfaep", 1, ((1, -1),), 3, "9458413c48502898df8dc8360f87cfa4c12942541d1fa1e40ca63ceb6e3ad347"),
    ("tfaep", 1, ((1, -1),), 4, "fd7e13c89d0268297fd501bc1466de958fb0a69d3f2109308916429cac2d2781"),
    ("tfaep", 2, ((1, 2), (-1,)), 3, "b798ff72410255facde3ef08597228564878f9e85aaa89b517e62a18c22fb90d"),
    ("tfaep", 2, ((1, 2), (-1,)), 4, "cbb7e6a76df97307651c00c6226fb77fa87da0744d4484f182bb19929d9e5b91"),
    ("tfaep", 2, ((1,), (-2,)), 3, "354245f6f47f716968226b7f49f8df515cb1ebda661f0c27a2d5c9c420ca51c5"),
    ("tfaep", 2, ((1,), (-2,)), 4, "6521176307240c40d4f2655d622813f2eb2c4abb209fb1bd2bd237550773d679"),
    ("tfaep", 2, ((1, 2), (-1,), (-2,)), 3,
     "6284c7097ecbf52f27c75443aec5aaf4b5f11ea619d50aa28883e0013992b45c"),
    ("tfaep", 2, ((1, 2), (-1,), (-2,)), 4,
     "8f165be95b12e4ed1a74a11b750bb3a6171c3dfcc3840a256cb730e8767a4af8"),
    ("tfaep", 2, ((1, 2), (1, -2), (-1, 2), (-1, -2)), 3,
     "e9274f9f419c53efb3e862db30ccaddd06cf65ae05b6ac07704f684a11f21c77"),
    ("tfaep", 2, ((1, 2), (1, -2), (-1, 2), (-1, -2)), 4,
     "8e926246aff7e1e3ef1e7772d8e5d0bb9213398b594b626c68d60c0aaaa0f93f"),
]


@pytest.mark.parametrize(
    "kind, num_vars, clauses, k, digest", GADGET_PINS,
    ids=[f"{kind}-{nv}var-{'-'.join(map(str, clauses))}-k{k}" for kind, nv, clauses, k, _ in GADGET_PINS],
)
def test_sat_gadgets_past_the_smallest_k(kind, num_vars, clauses, k, digest):
    f = CnfFormula(num_vars, clauses)
    inst = {"tsep": sat_to_tsep, "tfaep": sat_to_tfaep}[kind](f, k, 1)
    text = serialize_graph(inst.graph) + (
        f"delta {inst.delta}\nzeta {inst.zeta}\nk {inst.k}\n"
        f"source {inst.source}\nvariant {inst.variant}\n"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert oracle_ecc(inst).answer == brute_sat(f)


def test_gen_rejects_bad_parameters():
    f = CnfFormula(1, ((1,),))
    with pytest.raises(ValueError):
        sat_to_tsep(f, 3, 1)
    with pytest.raises(ValueError):
        sat_to_tfaep(f, 1, 1)
    with pytest.raises(ValueError):
        domset_to_trlp(FIG_GRAPH, 0)


def test_random_instance_deterministic():
    for profile in ("tree", "sparse", "treewidth2"):
        a = random_instance(7, profile)
        b = random_instance(7, profile)
        assert a == b
        c = random_instance(8, profile)
        assert a != c or profile != "tree"


def test_random_tree_profile_is_tree():
    for seed in range(20):
        inst = random_instance(seed, "tree")
        assert len(inst.graph.edges) == inst.graph.n - 1


def test_random_treewidth2_profile_width():
    from temporeach.twdp import decompose_exact_small

    for seed in range(10):
        inst = random_instance(seed, "treewidth2")
        d = decompose_exact_small(inst.graph.n, inst.graph.edges)
        assert d.width() <= 2


def test_dimacs_roundtrip():
    f = CnfFormula(3, ((1, -2), (3,), (-1, -3)))
    assert parse_dimacs(serialize_dimacs(f)) == f


def test_dimacs_clauses_end_at_zero_not_at_line_end():
    # a clause may span lines, and one line may hold several clauses
    assert parse_dimacs("p cnf 2 2\n1 2\n-1 0\n-2 0\n") == CnfFormula(2, ((1, 2, -1), (-2,)))
    assert parse_dimacs("p cnf 2 2\n1 0 -2 0\n") == CnfFormula(2, ((1,), (-2,)))
    # a last clause without its 0 still counts
    assert parse_dimacs("p cnf 2 2\n1 0\n-2\n") == CnfFormula(2, ((1,), (-2,)))


def test_oracle_max_reach_of_an_empty_graph():
    assert oracle_trlp_max_reach(TemporalGraph(0, (), ()), 1, 1) == 0
