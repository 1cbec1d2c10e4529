"""Work caps guarding the exponential strategies.  Each cap is in its own
unit: XP sweep operations, oracle candidates and treewidth-DP candidate
states.  The treewidth DP's count spans the whole call: sources share the
decomposition sides they have in common, each evaluated node counts once,
and a source skipped because its widened reach bound is below h counts
nothing."""

from __future__ import annotations

from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """An exact strategy refused because its estimated work exceeds a cap."""


@dataclass(frozen=True)
class WorkCaps:
    xp_ops: int = 100_000_000
    oracle_evals: int = 10_000_000
    tw_states: int = 1_000_000


DEFAULT_CAPS = WorkCaps()
