"""Pins the treewidth DP's output: per seeded width-<=2 graph with at most
seven time-edges, under delta 0-2 and zeta 0-2, a sha256 over
(h, answer, source, reach_count, certificate records, cap message) of
``solve_trlp_treewidth`` at every h.  A change to an answer, a certificate,
a tie-break or the candidate count at which the cap refuses changes these.

``twdp_certs.json`` holds the pinned digests.  It was written by running this
file as a script (``PYTHONPATH=src python tests/test_twdp_certs.py``) before
the DP built its count tables by gathers; rerun it only for a change that is
meant to alter the DP's output, and say so.
"""

import hashlib
import itertools
import json
from pathlib import Path

from temporeach.limits import CapExceeded, WorkCaps
from temporeach.solvers import TrlpInstance
from temporeach.testkit import random_instance
from temporeach.twdp import decompose_exact_small, solve_trlp_treewidth

PINNED = Path(__file__).with_name("twdp_certs.json")
CASES = 400
# every fifth case runs under this cap; a good share of those refuse
SMALL_CAP = WorkCaps(tw_states=100)


def graphs():
    """(seed, graph) of the first CASES seeds whose graph has at most seven
    time-edges, which keeps the whole file to seconds."""
    seed = 0
    while True:
        g = random_instance(seed, "treewidth2").graph
        if g.num_time_edges() <= 7:
            yield seed, g
        seed += 1


def case_digest(seed: int, g) -> str:
    delta, zeta = seed % 3, seed // 3 % 3
    caps = SMALL_CAP if seed % 5 == 0 else WorkCaps()
    d = decompose_exact_small(g.n, g.edges)
    digest = hashlib.sha256()
    for h in range(1, g.n + 1):
        try:
            res = solve_trlp_treewidth(TrlpInstance(g, delta, zeta, h), d, caps)
            records = res.perturbation.records if res.perturbation else None
            row = (h, res.answer, res.source, res.reach_count, records, None)
        except CapExceeded as exc:
            row = (h, None, None, None, None, str(exc))
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def measure_all() -> dict:
    return {str(seed): case_digest(seed, g) for seed, g in itertools.islice(graphs(), CASES)}


def test_twdp_output_is_pinned():
    want = json.loads(PINNED.read_text())
    got = measure_all()
    assert got.keys() == want.keys()
    wrong = [(case, want[case], got[case]) for case in want if got[case] != want[case]]
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    rows = (f"{json.dumps(case)}: {json.dumps(work)}" for case, work in measure_all().items())
    PINNED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
