"""Pins the work of the oracle's walks, ``testkit.scan_perturbations`` and
``testkit._value_walk``: per case, the number of ``keep`` and
``on_complete`` calls and a sha256 over the (kind, labels, result) call log.
A change to a walk's visit order, its pruning or the graphs it hands out
changes these.

``scan_work.json`` holds the pinned values.  It was written by running this
file as a script (``PYTHONPATH=src python tests/test_scan_work.py``) before
the scan moved to a per-edge label array; the ``-eset`` rows, scans restricted
to every other edge, were added the same way before a scan leaf started
restoring its labels by slices.  It was rerun when the calls whose zeta is at
least the number of appearances moved to the value walk, which moved only
those rows.  The ``-overlap`` rows were added by the walks before they
came to share one target loop; that change moved only the delta-0 rows,
whose scans no longer test any relaxation, and two overlap rows, which
dropped keep calls on unchanged relaxations.  The script prints each row it
changes before it rewrites the file.  Rerun it only for a change that is
meant to alter a walk's work, and say so.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from temporeach import testkit
from temporeach.ecc import EccInstance
from temporeach.testkit import (
    PROFILES,
    CnfFormula,
    oracle_ecc,
    oracle_ecc_min,
    oracle_trlp,
    oracle_trlp_max_reach,
    random_instance,
    sat_to_tfaep,
    sat_to_tsep,
)
from temporeach.reach import reach_counts
from temporeach.solvers import TrlpInstance
from temporeach.tgraph import TemporalGraph

PINNED = Path(__file__).with_name("scan_work.json")


WALKERS = ("scan_perturbations", "_value_walk")


def logged(run) -> list:
    """(keeps, completes, sha256 hex of the call log) of the walks, ordered
    scans and value walks alike, that ``run`` makes."""
    originals = {name: getattr(testkit, name) for name in WALKERS}
    digest = hashlib.sha256()
    calls = {"keep": 0, "complete": 0}

    def log(kind, graph, result):
        calls[kind] += 1
        digest.update(repr((kind, graph.labels, result)).encode() + b"\n")
        return result

    def logged_walk(original):
        def walk(g, delta, zeta, *, keep=None, on_complete, **kwargs):
            logged_keep = None if keep is None else lambda relaxed: log("keep", relaxed, keep(relaxed))
            return original(
                g, delta, zeta, keep=logged_keep,
                on_complete=lambda p, pg: log("complete", pg, on_complete(p, pg)),
                **kwargs,
            )

        return walk

    for name, original in originals.items():
        setattr(testkit, name, logged_walk(original))
    try:
        run()
    finally:
        for name, original in originals.items():
            setattr(testkit, name, original)
    return [calls["keep"], calls["complete"], digest.hexdigest()]


def random_case(seed: int, profile: str):
    inst = random_instance(seed, profile)
    g, delta, zeta = inst.graph, inst.delta, max(inst.zeta, 2)

    def run():
        oracle_trlp(TrlpInstance(g, delta, zeta, inst.h))
        oracle_trlp_max_reach(g, delta, zeta)
        for variant in ("shortest", "fastest"):
            oracle_ecc_min(g, 0, delta, zeta, variant)

    return run


def eset_case(seed: int, profile: str):
    """A scan over every other edge only, pruned and stopped by a reach
    threshold: more reachable (source, vertex) pairs than the unperturbed graph."""
    inst = random_instance(seed, profile)
    g, delta, zeta = inst.graph, inst.delta, max(inst.zeta, 2)
    base = sum(reach_counts(g))

    def gains(graph) -> bool:
        return sum(reach_counts(graph)) > base

    return lambda: testkit.scan_perturbations(
        g, delta, zeta, eset=g.edges[seed % 2::2], keep=gains,
        on_complete=lambda p, pg: gains(pg),
    )


def overlap_case(seed: int):
    """Threshold calls, at delta 1 with zeta 2 and at delta 2 with zeta 3, on
    a graph with up to three labels an edge in 1..5, whose windows overlap
    and are clipped at 1: there, narrowing one appearance can leave its
    edge's labels as they were.  Of the 160 seeds pinned, 34 and 155 reach
    such a narrowing in an ordered scan."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(rng.sample(pairs, rng.randint(n - 1, min(n + 1, len(pairs)))))
    labels = [tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 3)))) for _ in edges]
    g = TemporalGraph(n, tuple(edges), tuple(labels))

    def run():
        for delta, zeta in ((1, 2), (2, 3)):
            for h in range(2, n + 1):
                oracle_trlp(TrlpInstance(g, delta, zeta, h))
            for variant in ("shortest", "fastest"):
                for k in range(5):
                    oracle_ecc(EccInstance(g, 0, k, delta, zeta, variant))

    return run


GADGETS = {
    "tsep-sat": sat_to_tsep(CnfFormula(2, ((1,), (-2,))), 4, 1),
    "tsep-unsat": sat_to_tsep(CnfFormula(1, ((1,), (1,), (-1,))), 4, 1),
    "tfaep-sat": sat_to_tfaep(CnfFormula(2, ((1, 2), (1, -2), (-1, 2))), 2, 1),
    "tfaep-unsat": sat_to_tfaep(CnfFormula(1, ((1,), (-1,))), 2, 1),
}


def measure_all() -> dict:
    out = {
        f"{seed}-{profile}": logged(random_case(seed, profile))
        for seed in range(60)
        for profile in PROFILES
    }
    for seed in range(60):
        for profile in PROFILES:
            out[f"{seed}-{profile}-eset"] = logged(eset_case(seed, profile))
    for name, inst in GADGETS.items():
        out[name] = logged(lambda: oracle_ecc(inst))
    for seed in range(160):
        out[f"{seed}-overlap"] = logged(overlap_case(seed))
    return out


def test_scan_work_is_pinned():
    want = json.loads(PINNED.read_text())
    got = measure_all()
    assert got.keys() == want.keys()
    wrong = [(case, want[case], got[case]) for case in want if got[case] != want[case]]
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    pinned = json.loads(PINNED.read_text())
    measured = measure_all()
    for case, work in measured.items():
        if pinned.get(case) != work:
            print(f"{case}: {json.dumps(pinned.get(case))} -> {json.dumps(work)}")
    rows = (f"{json.dumps(case)}: {json.dumps(work)}" for case, work in measured.items())
    PINNED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
