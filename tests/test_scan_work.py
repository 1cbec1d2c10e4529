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
those rows.  Rerun it only for a change that is meant to alter a walk's
work, and say so.
"""

import hashlib
import json
from pathlib import Path

from temporeach import testkit
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
    return out


def test_scan_work_is_pinned():
    want = json.loads(PINNED.read_text())
    got = measure_all()
    assert got.keys() == want.keys()
    wrong = [(case, want[case], got[case]) for case in want if got[case] != want[case]]
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    rows = (f"{json.dumps(case)}: {json.dumps(work)}" for case, work in measure_all().items())
    PINNED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
