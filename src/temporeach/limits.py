"""Work caps guarding the exponential strategies.  Each cap is in its own
unit: XP sweep operations, oracle candidates, treewidth-DP states, and the
largest decomposition width tried."""

from __future__ import annotations

from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """An exact strategy refused because its estimated work exceeds a cap."""


@dataclass(frozen=True)
class WorkCaps:
    xp_ops: int = 100_000_000
    oracle_evals: int = 10_000_000
    tw_states: int = 1_000_000
    tw_width: int = 2


DEFAULT_CAPS = WorkCaps()
