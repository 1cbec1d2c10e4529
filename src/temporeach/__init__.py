"""Temporal-graph reachability and eccentricity under bounded timing
perturbations: exact solvers, hardness-reduction generators, and brute-force
oracles."""

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
    validate_relabelling,
)
from .reach import (
    ForemostTree,
    foremost_tree,
    max_reachability,
    reach_set,
    sparsify_for_source,
)
from .solvers import (
    SolveResult,
    TrlpInstance,
    explore_with_perturbable_set,
    solve_trlp,
    solve_trlp_big_zeta,
    solve_trlp_xp,
    solve_trp,
)
from .treedp import solve_trlp_tree, solve_trlp_tree_all_sources
from .twdp import (
    NiceDecomposition,
    TreeDecomposition,
    decompose_exact_small,
    make_nice,
    solve_trlp_treewidth,
)
from .ecc import EccInstance, fastest_ecc, shortest_ecc, solve_ecc_perturbed
from .testkit import (
    CnfFormula,
    StaticGraph,
    brute_domset,
    brute_sat,
    domset_to_trlp,
    oracle_ecc,
    oracle_trlp,
    random_instance,
    sat_to_tfaep,
    sat_to_tsep,
)

__all__ = [
    "CapExceeded",
    "CnfFormula",
    "EccInstance",
    "ForemostTree",
    "FormatError",
    "NiceDecomposition",
    "Perturbation",
    "PerturbationError",
    "SolveResult",
    "StaticGraph",
    "TemporalGraph",
    "TreeDecomposition",
    "TrlpInstance",
    "WorkCaps",
    "apply_perturbation",
    "brute_domset",
    "brute_sat",
    "decompose_exact_small",
    "domset_to_trlp",
    "explore_with_perturbable_set",
    "fastest_ecc",
    "foremost_tree",
    "make_nice",
    "max_reachability",
    "oracle_ecc",
    "oracle_trlp",
    "parse_graph",
    "parse_perturbation",
    "random_instance",
    "reach_set",
    "sat_to_tfaep",
    "sat_to_tsep",
    "serialize_graph",
    "serialize_perturbation",
    "shortest_ecc",
    "solve_ecc_perturbed",
    "solve_trlp",
    "solve_trlp_big_zeta",
    "solve_trlp_tree",
    "solve_trlp_tree_all_sources",
    "solve_trlp_treewidth",
    "solve_trlp_xp",
    "solve_trp",
    "sparsify_for_source",
    "validate_relabelling",
]
