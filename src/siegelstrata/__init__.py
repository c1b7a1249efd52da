"""Exact boundary-stratum calculus for symplectic similitude groups.

The package computes, over principal congruence levels n >= 3 of GSp_2d:

  - the Weyl-group and parabolic combinatorics of the root datum
    (``grouptheory``),
  - graded Levi decompositions of nilpotent-radical cohomology
    (``kostant``),
  - truncations of those decompositions by torus-cocharacter pairings and
    the stratum restrictions of weighted and intersection complexes they
    assemble into (``reps``, ``engine``),
  - exact orders, stratum counts, and double-coset counts, each backed by
    a brute-force matrix enumeration (``arith``, ``matrixmodel``,
    ``strata``),
  - level-transfer degrees and fiber structure between nested levels
    (``hecke``).

All arithmetic is exact: Python integers throughout.
"""

from .arith import (GL, GSp, SL, Sp, brute_force_group, congruence_index,
                    euler_char_congruence, euler_phi, group_order,
                    integral_image_order)
from .engine import (Chain, ClassTerm, SymbolicClass, chain_bounds_for_profile,
                     chain_term, euler_evaluate, expansion_terms, graded_report,
                     restrict_ic, restrict_weighted)
from .errors import InputError, LevelError, ScopeError
from .grouptheory import (GroupContext, ParabolicData, build_context,
                          kostant_reps, parabolic_data, weyl_group)
from .hecke import (HeckeDatum, HeckeMatrixStructure, boundary_fiber_count,
                    hecke_index, hecke_matrix_structure, reduction_fiber_count,
                    transfer_degree)
from .kostant import lie_n_cohomology
from .reps import (GradedVirtualRep, Summand, Weight, central_weight,
                   dot_action, is_dominant, is_levi_dominant, torus_pairing,
                   truncate, weyl_dim)
from .strata import (double_coset_count, double_coset_count_bruteforce,
                     ic_profiles, strata_count, strata_count_bruteforce,
                     stratum_dims)

__version__ = "0.1.0"

__all__ = [
    "GL", "GSp", "SL", "Sp",
    "brute_force_group", "congruence_index", "euler_char_congruence",
    "euler_phi", "group_order", "integral_image_order",
    "Chain", "ClassTerm", "SymbolicClass", "chain_bounds_for_profile",
    "chain_term", "euler_evaluate", "expansion_terms", "graded_report",
    "restrict_ic", "restrict_weighted",
    "InputError", "LevelError", "ScopeError",
    "GroupContext", "ParabolicData", "build_context",
    "kostant_reps", "parabolic_data", "weyl_group",
    "HeckeDatum", "HeckeMatrixStructure", "boundary_fiber_count",
    "hecke_index", "hecke_matrix_structure", "reduction_fiber_count",
    "transfer_degree",
    "lie_n_cohomology",
    "GradedVirtualRep", "Summand", "Weight", "central_weight",
    "dot_action", "is_dominant", "is_levi_dominant",
    "torus_pairing", "truncate", "weyl_dim",
    "double_coset_count", "double_coset_count_bruteforce", "ic_profiles",
    "strata_count", "strata_count_bruteforce", "stratum_dims",
    "__version__",
]
