"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 checks both SAT reductions against brute-force satisfiability on
every formula of one to three distinct clauses, each clause one or two
literals over at most two variables.
"""

import itertools
import random
import time

from click.testing import CliRunner

from temporeach.cli import main as cli_main
from temporeach.ecc import EccInstance, solve_ecc_perturbed
from temporeach.limits import WorkCaps
from temporeach.reach import arrivals
from temporeach.solvers import (
    TrlpInstance,
    solve_trlp_big_zeta,
    solve_trlp_xp,
    solve_trp,
)
from temporeach.tgraph import (
    TemporalGraph,
    apply_perturbation,
    serialize_graph,
    serialize_perturbation,
    validate_relabelling,
)
from temporeach.testkit import (
    CnfFormula,
    StaticGraph,
    brute_domset,
    brute_sat,
    domset_to_trlp,
    oracle_ecc_min,
    oracle_trlp,
    oracle_trlp_max_reach,
    sat_to_tfaep,
    sat_to_tsep,
    scan_perturbations,
)
from temporeach.treedp import solve_trlp_tree
from temporeach.twdp import decompose_exact_small, solve_trlp_treewidth

from test_solvers import explore_with_perturbable_set

# yes-results harvested by criteria 1-8 and re-verified in criterion 10:
# entries are (graph, source, perturbation, ("reach", h) | (variant, k))
HARVEST: list = []


def _harvest_reach(g, res, h):
    if res.answer and res.perturbation is not None:
        HARVEST.append((g, res.source, res.perturbation, ("reach", h)))


def report(num, ok, text):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


# --- shared generators --------------------------------------------------------


def nonisomorphic_graphs(max_n):
    """All non-isomorphic simple graphs on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            canon = min(
                tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
                for perm in itertools.permutations(range(n))
            )
            if canon not in seen:
                seen.add(canon)
                out.append(StaticGraph(n, canon))
    return out


def seeded_micro_graph(rng, max_n=5, max_t=3, max_edges=4, max_labels=2):
    n = rng.randint(2, max_n)
    pairs = list(itertools.combinations(range(n), 2))
    m = rng.randint(1, min(max_edges, len(pairs)))
    edges = tuple(sorted(rng.sample(pairs, m)))
    tmax = rng.randint(1, max_t)
    labels = tuple(
        tuple(sorted(rng.sample(range(1, tmax + 1), rng.randint(1, min(max_labels, tmax)))))
        for _ in edges
    )
    return TemporalGraph(n, edges, labels)


def seeded_tree(rng, max_n=8, max_t=3):
    n = rng.randint(2, max_n)
    edges = tuple(sorted(tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)))
    tmax = rng.randint(1, max_t)
    labels = tuple(
        tuple(sorted(rng.sample(range(1, tmax + 1), rng.randint(1, min(2, tmax)))))
        for _ in edges
    )
    return TemporalGraph(n, edges, labels)


# --- criteria -----------------------------------------------------------------


def test_acceptance_1_domset_roundtrip():
    t0 = time.time()
    cells = bad = 0
    for sg in nonisomorphic_graphs(5):
        for r in (1, 2, 3):
            inst = domset_to_trlp(sg, r)
            want = brute_domset(sg, r)
            via_xp = solve_trlp_xp(inst)
            via_oracle = oracle_trlp(inst)
            cells += 1
            if not (want == via_xp.answer == via_oracle.answer):
                bad += 1
            _harvest_reach(inst.graph, via_xp, inst.h)
            _harvest_reach(inst.graph, via_oracle, inst.h)
    report(
        1,
        bad == 0 and time.time() - t0 <= 300,
        f"dominating-set reduction round-trip on {cells} cells "
        f"({time.time()-t0:.0f}s, 0 disagreements required)",
    )


def test_acceptance_2_trp_optimality():
    # full, unpruned enumeration: every perturbation is checked directly
    t0 = time.time()
    rng = random.Random(2026_02)
    checked = 0
    for _ in range(500):
        delta = rng.randint(0, 2)
        g = seeded_micro_graph(
            rng, max_edges=5 if delta < 2 else 3, max_labels=2 if delta < 2 else 1
        )
        res = solve_trp(g, delta, 1)
        src = res.source
        cert_arr = arrivals(apply_perturbation(g, res.perturbation), src)
        state = {"max": 0}

        def check(_p, pg):
            best_here = 0
            for s in range(g.n):
                best_here = max(
                    best_here, sum(1 for a in arrivals(pg, s) if a is not None)
                )
            state["max"] = max(state["max"], best_here)
            other = arrivals(pg, src)
            for v in range(g.n):
                if other[v] is not None:
                    assert cert_arr[v] is not None and cert_arr[v] <= other[v], (g, delta, v)
            return False

        scan_perturbations(g, delta, g.num_time_edges(), on_complete=check)
        assert res.reach_count == state["max"], (g, delta)
        _harvest_reach(g, res, res.reach_count)
        checked += 1
    report(
        2,
        checked == 500 and time.time() - t0 <= 600,
        f"unlimited-budget optimality on {checked} instances "
        f"(count equals enumeration max; certificate arrivals pointwise minimal; "
        f"{time.time()-t0:.0f}s)",
    )


def test_acceptance_3_explorer_equivalence():
    t0 = time.time()
    rng = random.Random(2026_03)
    checked = 0
    for _ in range(500):
        delta = rng.randint(0, 2)
        g = seeded_micro_graph(rng)
        source = rng.randrange(g.n)
        esize = rng.randint(0, min(2, len(g.edges)))
        eset = frozenset(rng.sample(list(g.edges), esize))
        k = rng.randint(1, g.n)
        got = explore_with_perturbable_set(g, source, k, delta, eset)
        hit = []

        def accept(_p, pg):
            if sum(1 for a in arrivals(pg, source) if a is not None) >= k:
                hit.append(True)
                return True
            return False

        scan_perturbations(
            g, delta, g.num_time_edges(), eset=eset, on_complete=accept
        )
        assert got == bool(hit), (g, source, delta, eset, k)
        checked += 1
    report(
        3,
        checked == 500,
        f"perturbable-set exploration equals the restricted enumeration on "
        f"{checked} instances ({time.time()-t0:.0f}s)",
    )


def _acyclic_distinct(edges):
    if len(edges) != len(set(edges)):
        return False
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_acceptance_4_big_zeta():
    t0 = time.time()
    rng = random.Random(2026_04)
    cells = 0
    while cells < 400:
        delta = rng.randint(0, 2)
        g = seeded_micro_graph(rng)
        for h in range(1, g.n + 1):
            zeta = (h - 1) + rng.choice((0, 0, 1))
            inst = TrlpInstance(g, delta, zeta, h)
            got = solve_trlp_big_zeta(inst)
            want = oracle_trlp(inst)
            assert got.answer == want.answer, (g, delta, zeta, h)
            if got.answer:
                moved = got.perturbation.moved_records()
                assert len(moved) <= h - 1
                assert _acyclic_distinct([e for e, _o, _n in moved])
                pg = apply_perturbation(g, got.perturbation)
                reached = {
                    v for v, a in enumerate(arrivals(pg, got.source)) if a is not None
                }
                assert len(reached) >= h
                assert all(u in reached and v in reached for (u, v), _o, _n in moved)
                _harvest_reach(g, got, h)
            cells += 1
    report(
        4,
        True,
        f"large-budget route matches the enumeration with forest-shaped "
        f"certificates inside the reach set on {cells} cells ({time.time()-t0:.0f}s)",
    )


def test_acceptance_5_tree_dp():
    t0 = time.time()
    rng = random.Random(2026_05)
    trees = cells = 0
    for _ in range(300):
        g = seeded_tree(rng)
        delta = rng.randint(0, 2)
        zeta = rng.randint(0, 3)
        best = oracle_trlp_max_reach(g, delta, zeta)
        for h in range(1, g.n + 1):
            inst = TrlpInstance(g, delta, zeta, h)
            res = solve_trlp_tree(inst)
            assert res.answer == (h <= best), (g, delta, zeta, h, best)
            if res.answer:
                pg = apply_perturbation(g, res.perturbation)
                count = sum(1 for a in arrivals(pg, res.source) if a is not None)
                assert count >= h
                moved = validate_relabelling(g, pg, delta)
                assert moved is not None and moved <= zeta
                _harvest_reach(g, res, h)
            cells += 1
        trees += 1
    report(
        5,
        trees == 300 and time.time() - t0 <= 900,
        f"tree DP equals the enumeration on {trees} trees / {cells} cells "
        f"({time.time()-t0:.0f}s)",
    )


def test_acceptance_6_treewidth_dp():
    t0 = time.time()
    rng = random.Random(2026_06)
    insts = cells = 0
    while insts < 100:
        n = rng.randint(2, 6)
        edge_set = {(0, 1)}
        for v in range(2, n):
            for u in rng.sample(range(v), min(v, rng.randint(1, 2))):
                edge_set.add((u, v))
        if rng.random() < 0.3 and len(edge_set) > n - 1:
            edge_set = set(sorted(edge_set)[: n - 1])
        edges = tuple(sorted(edge_set))
        labels = tuple(
            tuple(sorted(rng.sample((1, 2), rng.randint(1, 2)))) for _ in edges
        )
        g = TemporalGraph(n, edges, labels)
        decomp = decompose_exact_small(g.n, g.edges)
        if decomp.width() > 2:
            continue
        zeta = rng.randint(0, 2)
        best = oracle_trlp_max_reach(g, 1, zeta)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w, _ in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        is_tree = len(edges) == n - 1 and len(seen) == n
        for h in range(1, min(g.n, 4) + 1):
            inst = TrlpInstance(g, 1, zeta, h)
            res = solve_trlp_treewidth(inst, decomp)
            assert res.answer == (h <= best), (g, zeta, h, best)
            if is_tree:
                tree_res = solve_trlp_tree(inst)
                assert tree_res.answer == res.answer, (g, zeta, h)
            if res.answer:
                pg = apply_perturbation(g, res.perturbation)
                count = sum(1 for a in arrivals(pg, res.source) if a is not None)
                assert count >= h
                moved = validate_relabelling(g, pg, 1)
                assert moved is not None and moved <= zeta
                _harvest_reach(g, res, h)
            cells += 1
        insts += 1
    report(
        6,
        insts == 100 and time.time() - t0 <= 1800,
        f"treewidth DP equals the enumeration on {insts} instances / {cells} "
        f"cells, tree members cross-checked against the tree DP "
        f"({time.time()-t0:.0f}s)",
    )


def tiny_formulas():
    lits = (1, -1, 2, -2)
    clause_types = sorted(
        {tuple(sorted(c)) for r in (1, 2) for c in itertools.combinations(lits, r)}
    )
    for r in range(1, 4):
        for clauses in itertools.combinations(clause_types, r):
            nv = max(abs(l) for c in clauses for l in c)
            yield CnfFormula(nv, clauses)


def test_acceptance_7_sat_reductions_tsep():
    t0 = time.time()
    caps = WorkCaps(oracle_evals=500_000_000)
    checked = bad = 0
    for f in tiny_formulas():
        inst = sat_to_tsep(f, 4, 1)
        want = brute_sat(f)
        got = oracle_ecc_min(
            inst.graph, inst.source, inst.delta, inst.zeta, inst.variant, caps=caps
        )
        if (got is not None and got <= inst.k) != want:
            bad += 1
        checked += 1
    report(
        7,
        bad == 0,
        f"[tsep half] hop-eccentricity reduction faithful on {checked} "
        f"exhaustive tiny formulas ({time.time()-t0:.0f}s)",
    )


def test_acceptance_7_sat_reductions_tfaep():
    # Duration is last label minus first, as in ecc.fastest_ecc.
    t0 = time.time()
    caps = WorkCaps(oracle_evals=500_000_000)
    checked = bad = 0
    mismatches = []
    for f in tiny_formulas():
        inst = sat_to_tfaep(f, 2, 1)
        want = brute_sat(f)
        got = oracle_ecc_min(
            inst.graph, inst.source, inst.delta, inst.zeta, inst.variant, caps=caps
        )
        if (got is not None and got <= inst.k) != want:
            bad += 1
            if len(mismatches) < 3:
                mismatches.append(f.clauses)
        checked += 1
    report(
        7,
        bad == 0,
        f"[tfaep half] duration-eccentricity reduction on {checked} formulas: "
        f"{bad} mismatches, e.g. {mismatches} ({time.time()-t0:.0f}s)",
    )


def test_acceptance_8_large_perturbation_branch():
    t0 = time.time()
    rng = random.Random(2026_08)
    insts = 0
    while insts < 200:
        g = seeded_micro_graph(rng, max_n=5, max_t=2, max_edges=5, max_labels=1)
        delta = g.lifetime + rng.choice((0, 1))
        if delta == 0:
            continue
        zeta = g.n - 1 + rng.choice((0, 1))
        for variant in ("shortest", "fastest"):
            best = oracle_ecc_min(g, 0, delta, zeta, variant)
            for k in range(0, g.n + 1):
                inst = EccInstance(g, 0, k, delta, zeta, variant)
                res = solve_ecc_perturbed(inst)
                assert res.strategy == "large-delta"
                want = best is not None and best <= k
                assert res.answer == want, (g, delta, zeta, variant, k, best)
                if res.answer and res.perturbation is not None:
                    HARVEST.append((g, 0, res.perturbation, (variant, k)))
        insts += 1
    report(
        8,
        insts == 200,
        f"large-window branch equals the enumeration on {insts} instances, "
        f"both variants, all k ({time.time()-t0:.0f}s)",
    )


def test_acceptance_9_scaling_smoke():
    rng = random.Random(2026_09)

    def random_graph(n, m, tmax, taulimit):
        edges = set()
        for v in range(1, n):
            edges.add(tuple(sorted((v, rng.randrange(v)))))
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = tuple(sorted(edges))
        labels = tuple(
            tuple(sorted(rng.sample(range(1, tmax + 1), rng.randint(1, taulimit))))
            for _ in edges
        )
        return TemporalGraph(n, edges, labels)

    g_small = random_graph(50, 100, 10, 2)
    t0 = time.time()
    solve_trlp_xp(TrlpInstance(g_small, 1, 1, 40))
    xp_time = time.time() - t0

    g_big = random_graph(2000, 6000, 20, 2)
    t0 = time.time()
    solve_trp(g_big, 5, 2000)
    trp_time = time.time() - t0
    report(
        9,
        xp_time <= 10 and trp_time <= 10,
        f"xp on n=50,m=100,zeta=1 in {xp_time:.2f}s; unlimited-budget solve on "
        f"n=2000,m~6000,delta=5 in {trp_time:.2f}s (ceiling 10s each)",
    )


def test_acceptance_10_certificate_roundtrip():
    t0 = time.time()
    runner = CliRunner()
    assert HARVEST, "earlier criteria must harvest yes-certificates"
    checked = 0
    with runner.isolated_filesystem():
        for i, (g, source, pert, check) in enumerate(HARVEST):
            gpath = f"g{i}.tg"
            ppath = f"p{i}.txt"
            with open(gpath, "w") as fh:
                fh.write(serialize_graph(g))
            with open(ppath, "w") as fh:
                fh.write(serialize_perturbation(pert))
            if check[0] == "reach":
                args = ["--h", str(check[1])]
            else:
                args = ["--variant", check[0], "-k", str(check[1])]
            res = runner.invoke(
                cli_main,
                ["verify", "-g", gpath, "-p", ppath, "--source", str(source), *args],
            )
            assert res.exit_code == 0, (res.output, g, pert, check)
            checked += 1
    report(
        10,
        checked == len(HARVEST),
        f"{checked}/{len(HARVEST)} yes-certificates re-verified through the "
        f"verify command ({time.time()-t0:.0f}s)",
    )
