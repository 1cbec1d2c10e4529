"""Benchmark inputs: seeded generators, the fixed instance pools that the
expected answers belong to, and the per-seed renumbering of their vertices.

The pools do not depend on ``--seed``.  Where the work of the timed strategy
does not depend on vertex ids (subset enumeration, the tree DP), a run's seed
draws a vertex numbering of each pool instance; the copies are isomorphic,
so the expected answers hold for every seed.  The treewidth DP and the
enumeration oracle are not renumbered: their tie-breaks make their work vary
with the numbering (up to 2x on the same graph), which would measure the
numbering rather than the program.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

DP_TREE_SHIFT = 20
DP_TW_SHIFT = 6

XP_DELTA, XP_ZETA = 2, 2


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, ...], ...]

    @property
    def lifetime(self) -> int:
        return max(ts[-1] for ts in self.labels)

    def tg(self) -> str:
        """``.tg`` text: ``n`` line, then one ``e u v t1 t2 ...`` line per edge."""
        lines = [f"n {self.n}"]
        lines += [f"e {u} {v} " + " ".join(map(str, ts)) for (u, v), ts in zip(self.edges, self.labels)]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.tg().encode()).hexdigest()[:16]

    def relabel(self, perm: list[int]) -> "Graph":
        """Vertex v becomes perm[v]; labels travel with their edges."""
        pairs = sorted(
            ((min(perm[u], perm[v]), max(perm[u], perm[v])), ts)
            for (u, v), ts in zip(self.edges, self.labels)
        )
        return Graph(self.n, tuple(e for e, _ in pairs), tuple(ts for _, ts in pairs))

    def shift(self, offset: int) -> "Graph":
        return Graph(self.n, self.edges, tuple(tuple(t + offset for t in ts) for ts in self.labels))


def _labels(rng: random.Random, count: int, lo: int, hi: int, per_edge: int):
    return tuple(
        tuple(sorted(rng.sample(range(lo, hi + 1), rng.randint(1, per_edge))))
        for _ in range(count)
    )


def connected(rng: random.Random, n: int, m: int, lo: int, hi: int, per_edge: int) -> Graph:
    """Random spanning tree (v joins a random earlier vertex) plus random
    extra edges up to m, each with 1..per_edge distinct labels in [lo, hi]."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    es = tuple(sorted(edges))
    return Graph(n, es, _labels(rng, len(es), lo, hi, per_edge))


def cycle(rng: random.Random, n: int, lo: int, hi: int, per_edge: int) -> Graph:
    """n-cycle (treewidth 2) with random labels as in ``connected``."""
    es = tuple(sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n)))
    return Graph(n, es, _labels(rng, len(es), lo, hi, per_edge))


def permutation(rng: random.Random, n: int, winners=()) -> list[int]:
    """Random vertex numbering; with ``winners``, one of them drawn at random
    becomes vertex 0, so a yes is found at the first source tried and its
    cost does not hinge on where the first winner lands."""
    perm = list(range(n))
    rng.shuffle(perm)
    if winners:
        w = rng.choice(winners)
        z = perm.index(0)
        perm[w], perm[z] = 0, perm[w]
    return perm


# ---------------------------------------------------------------------------
# reach-wide: drawn afresh from the seed (its reference answers are cheap)


def reach_wide_graph(seed: int) -> Graph:
    """Acceptance-9 shape at half its size: m = 3n, labels 1..20, <= 2 per edge."""
    return connected(random.Random(f"reach-wide:{seed}"), 1000, 3000, 1, 20, 2)


# ---------------------------------------------------------------------------
# Pools behind the expected answers in expected.json


def xp_pool() -> list[Graph]:
    """n=30, m=45, one label per edge in 1..12; asked with delta=2, zeta=2."""
    return [connected(random.Random(f"xp-enum:{i}"), 30, 45, 1, 12, 1) for i in range(4)]


# (num_vars, clauses); every tsep gadget has at most 14 edges so its
# 3^edges perturbation space stays under the default oracle cap of 10^7
TSEP_FORMULAS = (
    (2, ((1,), (-1,))),
    (1, ((1,), (-1,), (1,), (-1,), (1,))),
    (1, ((1,), (1,), (-1,))),
    (2, ((1, 2), (-1, -2))),
    (2, ((1,), (-2,))),
    (2, ((1, 2),)),
)
TFAEP_FORMULAS = (
    (2, ((1, 2), (1, -2), (-1, 2), (-1, -2))),
    (3, ((1, 2, 3), (-1,), (-2,), (-3,))),
    (3, ((1, 2), (-1, 3), (-2, -3), (-1,), (2,))),
    (2, ((1, 2), (1, -2), (-1, 2))),
)


@dataclass(frozen=True)
class DpCase:
    name: str
    graph: Graph
    delta: int
    zeta: int
    shift: int
    strategy: str  # the STRATEGY line auto must print
    ask: str  # "yes": h = opt; "no": h = opt + 1

    @property
    def renumbered(self) -> bool:
        return self.strategy == "tree"


def dp_pool() -> list[DpCase]:
    """Labels start at delta+1, so shifting them never meets the floor of 1
    and the shifted answer must equal the unshifted one."""
    rng = lambda name: random.Random(f"dp-shifted:{name}")
    return [
        DpCase("tree-no", connected(rng("tree-no"), 40, 39, 2, 7, 2), 1, 3, DP_TREE_SHIFT, "tree", "no"),
        DpCase("tree-yes", connected(rng("tree-yes"), 40, 39, 2, 7, 2), 1, 3, DP_TREE_SHIFT, "tree", "yes"),
        DpCase("cycle7-no", cycle(rng("cycle7-no"), 7, 2, 6, 1), 1, 1, DP_TW_SHIFT, "treewidth", "no"),
        DpCase("cycle6-yes", cycle(rng("cycle6-yes"), 6, 2, 6, 1), 1, 1, DP_TW_SHIFT, "treewidth", "yes"),
    ]
