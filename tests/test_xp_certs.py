"""Pins XP's output: per seeded connected graph, a sha256 over
(h, answer, source, reach_count, certificate records, cap message) of
``solve_trlp_xp`` at h = n and at every h from the bounded optimum - 1 to
the optimum + 1.  A change to an answer, a certificate, a tie-break, a "no"
count or the estimate at which the cap refuses changes these.

The graphs have n in ``SIZES``, which straddles the field widths of the
packed subset sweep, labels in 1..6 so that windows of delta 1 and 2 clip
at 1, delta in 0..2 and zeta in 0..2.

``xp_certs.json`` holds the pinned digests.  It was written by running this
file as a script (``PYTHONPATH=src python tests/test_xp_certs.py``) before
XP swept its subsets packed into one sweep per chunk; rerun it only for a
change that is meant to alter XP's output, and say so.
"""

import hashlib
import json
import random
from pathlib import Path

from temporeach.limits import CapExceeded, WorkCaps
from temporeach.solvers import TrlpInstance, solve_trlp_xp
from temporeach.tgraph import TemporalGraph

PINNED = Path(__file__).with_name("xp_certs.json")
CASES = 306
SIZES = (7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128)
# every seventh case runs under this cap; some of those refuse
SMALL_CAP = WorkCaps(xp_ops=20_000)


def case_graph(seed: int) -> TemporalGraph:
    """Random spanning tree plus up to four extra edges on n = SIZES[seed %
    len(SIZES)] vertices, each edge with one or two labels in 1..6."""
    rng = random.Random(f"xp-certs:{seed}")
    n = SIZES[seed % len(SIZES)]
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 4)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    es = tuple(sorted(edges))
    labels = tuple(tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 2)))) for _ in es)
    return TemporalGraph(n, es, labels)


def case_rows(seed: int) -> list[tuple]:
    g = case_graph(seed)
    delta, zeta = seed % 3, seed // 3 % 3
    caps = SMALL_CAP if seed % 7 == 0 else WorkCaps()

    def row(h):
        try:
            res = solve_trlp_xp(TrlpInstance(g, delta, zeta, h), caps)
        except CapExceeded as exc:
            return (h, None, None, None, None, str(exc))
        records = res.perturbation.records if res.perturbation else None
        return (h, res.answer, res.source, res.reach_count, records, None)

    top = row(g.n)
    opt = g.n if top[1] or top[1] is None else top[3]
    return [top] + [row(h) for h in range(max(1, opt - 1), min(g.n - 1, opt + 1) + 1)]


def case_digest(seed: int) -> str:
    digest = hashlib.sha256()
    for row in case_rows(seed):
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def measure_all() -> dict:
    return {str(seed): case_digest(seed) for seed in range(CASES)}


def test_xp_output_is_pinned():
    want = json.loads(PINNED.read_text())
    got = measure_all()
    assert got.keys() == want.keys()
    wrong = [(case, want[case], got[case]) for case in want if got[case] != want[case]]
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    rows = (f"{json.dumps(case)}: {json.dumps(work)}" for case, work in measure_all().items())
    PINNED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
