"""Pins the tree DP's output: per seeded tree, under delta 0-2 and zeta 0-3,
with its labels as drawn and shifted up by 3 and by 10**6, a sha256 over
(shift, h, answer, source, reach_count, certificate records) of
``solve_trlp_tree`` at every h.  A change to an answer, a certificate, a
tie-break or a "no" count changes these.

``tree_certs.json`` holds the pinned digests.  It was written by running this
file as a script (``PYTHONPATH=src python tests/test_tree_certs.py``) before
``compress_time`` capped its leading gap at delta+1; rerun it only for a
change that is meant to alter the DP's output, and say so.
"""

import hashlib
import json
from pathlib import Path

from temporeach.solvers import TrlpInstance
from temporeach.testkit import random_instance
from temporeach.treedp import solve_trlp_tree

PINNED = Path(__file__).with_name("tree_certs.json")
CASES = 600
SHIFTS = (0, 3, 10**6)


def case_digest(seed: int) -> str:
    g = random_instance(seed, "tree").graph
    delta, zeta = seed % 3, seed // 3 % 4
    digest = hashlib.sha256()
    for s in SHIFTS:
        shifted = g._relabelled(tuple(tuple(t + s for t in ts) for ts in g.labels))
        for h in range(1, g.n + 1):
            res = solve_trlp_tree(TrlpInstance(shifted, delta, zeta, h))
            records = res.perturbation.records if res.perturbation else None
            row = (s, h, res.answer, res.source, res.reach_count, records)
            digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def measure_all() -> dict:
    return {str(seed): case_digest(seed) for seed in range(CASES)}


def test_tree_output_is_pinned():
    want = json.loads(PINNED.read_text())
    got = measure_all()
    assert got.keys() == want.keys()
    wrong = [(case, want[case], got[case]) for case in want if got[case] != want[case]]
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    rows = (f"{json.dumps(case)}: {json.dumps(work)}" for case, work in measure_all().items())
    PINNED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
