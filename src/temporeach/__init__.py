"""Temporal-graph reachability and eccentricity under bounded timing
perturbations: exact solvers, hardness-reduction generators, and brute-force
oracles.

The package exports the graph and perturbation model, the solvers of the
paper's questions and their work caps.  Single strategies, reductions and
oracles stay in their modules (``temporeach.solvers``, ``treedp``, ``twdp``,
``testkit``)."""

from .limits import CapExceeded, WorkCaps
from .tgraph import (
    FormatError,
    Perturbation,
    PerturbationError,
    TemporalGraph,
    apply_perturbation,
    parse_graph,
    parse_perturbation,
    serialize_graph,
    serialize_perturbation,
)
from .reach import max_reachability, reach_set
from .solvers import SolveResult, TrlpInstance, solve_trlp, solve_trp
from .ecc import EccInstance, fastest_ecc, shortest_ecc, solve_ecc_perturbed

__all__ = [
    "CapExceeded",
    "EccInstance",
    "FormatError",
    "Perturbation",
    "PerturbationError",
    "SolveResult",
    "TemporalGraph",
    "TrlpInstance",
    "WorkCaps",
    "apply_perturbation",
    "fastest_ecc",
    "max_reachability",
    "parse_graph",
    "parse_perturbation",
    "reach_set",
    "serialize_graph",
    "serialize_perturbation",
    "shortest_ecc",
    "solve_ecc_perturbed",
    "solve_trlp",
    "solve_trp",
]
