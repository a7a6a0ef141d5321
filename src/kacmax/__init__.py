"""Exact combinatorics of maximal dominant weights for the affine special
linear algebras: tuple-set enumeration, closed-form counts, and weight
multiplicities computed by three independent routes (nested lattice paths,
chains of extended Young diagrams, and pattern-avoiding permutations)."""

from .affine_core import AlphaExpansion, CartanData, gamma, is_dominant, weight_from_x
from .lattice_paths import (
    LatticePath,
    PathSequence,
    count_T,
    count_T_grid,
    enumerate_T,
    is_admissible,
    paths_to_ytuple,
    ytuple_to_paths,
)
from .maximal_weights import (
    MaxWeightReport,
    count_formula,
    level2_explicit_weights,
    maximal_dominant_weights,
    u_closed_form,
    u_recursive,
    verify_count_conjecture,
)
from .patterns import (
    bjs_path_to_perm,
    bjs_perm_to_path,
    count_avoiding,
    count_avoiding_grid,
    longest_decreasing,
)
from .tuple_sets import enumerate_M, enumerate_S_bruteforce, is_in_I, max_ell
from .young_crystal import (
    ExtendedYoungDiagram,
    NodeBudgetExceeded,
    color_counts,
    diagram_weight,
    enumerate_weight_space,
    from_color_counts,
    is_crystal_element,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaExpansion",
    "CartanData",
    "ExtendedYoungDiagram",
    "LatticePath",
    "MaxWeightReport",
    "NodeBudgetExceeded",
    "PathSequence",
    "color_counts",
    "count_T",
    "count_T_grid",
    "count_avoiding",
    "count_avoiding_grid",
    "count_formula",
    "bjs_path_to_perm",
    "bjs_perm_to_path",
    "diagram_weight",
    "enumerate_M",
    "enumerate_S_bruteforce",
    "enumerate_T",
    "enumerate_weight_space",
    "from_color_counts",
    "gamma",
    "is_admissible",
    "is_crystal_element",
    "is_dominant",
    "is_in_I",
    "level2_explicit_weights",
    "longest_decreasing",
    "max_ell",
    "maximal_dominant_weights",
    "paths_to_ytuple",
    "u_closed_form",
    "u_recursive",
    "verify_count_conjecture",
    "weight_from_x",
    "ytuple_to_paths",
]
