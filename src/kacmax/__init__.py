"""Exact combinatorics of maximal dominant weights for the affine special
linear algebras: tuple-set enumeration, closed-form counts, and weight
multiplicities computed by three independent routes (nested lattice paths,
chains of extended Young diagrams, and pattern-avoiding permutations).

The public names load lazily: `from kacmax import count_T` or `kacmax.count_T`
imports the defining module on first use, so a process that needs one route
never compiles the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "affine_core": ("AlphaExpansion", "gamma", "is_dominant", "weight_from_x"),
    "lattice_paths": (
        "LatticePath",
        "PathSequence",
        "count_T",
        "count_T_grid",
        "enumerate_T",
        "is_admissible",
        "paths_to_ytuple",
        "ytuple_to_paths",
    ),
    "maximal_weights": (
        "MaxWeightReport",
        "count_formula",
        "maximal_dominant_weights",
        "verify_count_conjecture",
    ),
    "patterns": (
        "bjs_path_to_perm",
        "bjs_perm_to_path",
        "count_avoiding",
        "count_avoiding_grid",
        "longest_decreasing",
    ),
    "tuple_sets": ("enumerate_M",),
    "young_crystal": (
        "ExtendedYoungDiagram",
        "NodeBudgetExceeded",
        "color_counts",
        "diagram_weight",
        "enumerate_weight_space",
        "from_color_counts",
        "is_crystal_element",
    ),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
