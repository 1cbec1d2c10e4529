"""Remake perfbench/expected.json, the expected answers of the pool instances.

    python3 perfbench/expected.py

* xp-enum (and the oracle workload's trlp, which uses xp-enum's first
  instance): opt is the best reach over every (delta, zeta)-perturbation, from
  testkit.oracle_trlp_max_reach.  The subset-enumeration strategy must then
  answer yes at h = opt and no at h = opt + 1.
* dp-shifted: opt comes from the subset-enumeration strategy on the unshifted
  instance (the largest h it answers yes); the benchmark times the tree and
  treewidth DPs against it.
* For every yes question it lists the winners: the sources that attain h
  when asked alone.  A run numbers one of them 0, so the expected SOURCE of
  that yes is 0.

It also checks that every instance is routed as its workload intends:
h <= n, h above max degree + 1 and above zeta + 1, so that ``auto`` reaches
the strategy the workload times.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import instances  # noqa: E402
from temporeach.solvers import TrlpInstance, solve_trlp_xp  # noqa: E402
from temporeach.testkit import oracle_trlp_max_reach  # noqa: E402
from temporeach.tgraph import TemporalGraph  # noqa: E402

EXPECTED = HERE / "expected.json"


def program_graph(g: instances.Graph) -> TemporalGraph:
    return TemporalGraph(g.n, g.edges, g.labels)


def lowest_routed_h(g: TemporalGraph, zeta: int) -> int:
    return max(g.max_degree() + 2, zeta + 2)


def xp_says(g: TemporalGraph, delta: int, zeta: int, h: int, sources=None) -> bool:
    return solve_trlp_xp(TrlpInstance(g, delta, zeta, h), sources=sources).answer


def winners(g: TemporalGraph, delta: int, zeta: int, h: int) -> list[int]:
    """Sources that reach h after some perturbation, each asked alone."""
    return [s for s in range(g.n) if xp_says(g, delta, zeta, h, range(s, s + 1))]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"expected.py: {message}")


def xp_entries() -> list[dict]:
    out = []
    for i, g in enumerate(instances.xp_pool()):
        pg = program_graph(g)
        d, z = instances.XP_DELTA, instances.XP_ZETA
        opt = oracle_trlp_max_reach(pg, d, z)
        require(lowest_routed_h(pg, z) <= opt < g.n, f"xp-enum {i}: opt={opt} is not routed to xp")
        require(xp_says(pg, d, z, opt), f"xp-enum {i}: xp says no at the oracle's opt={opt}")
        require(not xp_says(pg, d, z, opt + 1), f"xp-enum {i}: xp says yes at opt+1={opt + 1}")
        win = winners(pg, d, z, opt)
        out.append({"fingerprint": g.fingerprint(), "opt": opt, "winners": win})
        print(f"xp-enum {i}: opt {opt}, attained from {len(win)} sources", flush=True)
    return out


def dp_entries() -> list[dict]:
    out = []
    for case in instances.dp_pool():
        pg = program_graph(case.graph)
        lo = lowest_routed_h(pg, case.zeta)
        require(xp_says(pg, case.delta, case.zeta, lo), f"{case.name}: no yes at h={lo}")
        opt = lo
        while opt < pg.n and xp_says(pg, case.delta, case.zeta, opt + 1):
            opt += 1
        h = opt if case.ask == "yes" else opt + 1
        require(h <= pg.n, f"{case.name}: opt={opt} leaves no 'no' question")
        win = winners(pg, case.delta, case.zeta, h) if h <= opt else []
        out.append({"name": case.name, "fingerprint": case.graph.fingerprint(), "opt": opt, "h": h, "winners": win})
        print(f"dp-shifted {case.name}: opt {opt}, asks h={h}, attained from {len(win)} sources", flush=True)
    return out


def main() -> None:
    t0 = time.perf_counter()
    data = {"xp-enum": xp_entries(), "dp-shifted": dp_entries()}
    EXPECTED.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {EXPECTED.name} in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
