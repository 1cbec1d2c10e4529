"""Pins the exact bags and links of ``twdp.decompose_exact_small``.  The
decomposition ``auto`` hands the treewidth DP fixes that DP's certificates,
so a change to its elimination order or tie-break must show here, not only in
its width.

``decompositions.json`` holds, per case set, the number of graphs and a
sha256 over one ``repr((n, edges, bags, links))`` line per graph, each bag
sorted.  It was written by running this file as a script
(``PYTHONPATH=src python tests/test_decompose_pin.py``) before the subset DP
was rewritten; rerun it only for a change that is meant to alter the
decompositions, and say so.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from temporeach.twdp import decompose_exact_small

PINNED = Path(__file__).with_name("decompositions.json")


def every_small_graph():
    """Every graph on 1..5 vertices, edge subsets in ``combinations`` order."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1)


def random_graphs(count=1000, seed=19):
    """Seeded graphs on 6..11 vertices, each pair an edge with a per-graph
    probability."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 11)
        p = rng.uniform(0.15, 0.6)
        yield n, tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < p)


def digest(graphs) -> list:
    """[graph count, sha256 hex over each graph's decomposition]."""
    h = hashlib.sha256()
    count = 0
    for n, edges in graphs:
        d = decompose_exact_small(n, edges)
        bags = tuple(tuple(sorted(b)) for b in d.bags)
        h.update(repr((n, edges, bags, d.links)).encode() + b"\n")
        count += 1
    return [count, h.hexdigest()]


def measure_all() -> dict:
    return {"small": digest(every_small_graph()), "random": digest(random_graphs())}


def test_decompositions_are_pinned():
    assert measure_all() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    PINNED.write_text(json.dumps(measure_all(), indent=1) + "\n")
