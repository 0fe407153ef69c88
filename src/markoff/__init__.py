"""Markoff triples modulo p.

Solutions of x1^2 + x2^2 + x3^2 = 3 x1 x2 x3 over F_p, the rotation moves
that connect them, explicit paths from (1,1,1) to any nonzero solution, and
integer lifts with size bounds.  Submodules:

  field   arithmetic mod p: primality, square roots, factorization
  core    the surface, rotations, Lucas stepping and orders, classification
  words   reduced rotation words
  graph   the full mod-p graph: BFS, components, eigenvalue estimates
  paths   constructive routing from the seed into and around the cage
  lifts   big-integer replay, growth bounds, evaluated exponents
  cli     the `markoff` command
"""

from .core import (Classifier, CoordClass, check_point, is_maximal,
                   lucas_pair, maximal_index, on_surface, point_order, rot,
                   rotation_order, rotation_power)
from .errors import CapExceeded, ConstructionError, DomainError
from .graph import SurfaceGraph, connectivity_check, spectral_gap
from .lifts import (LiftTriple, bound_report, construction_exponent,
                    expander_alpha_ln, growth_bound_ln, minimal_lift_search,
                    parabolic_exponent, replay_integer)
from .paths import CagePath, cage_route, construct_path, seed_table
from .words import PathWord

__version__ = "0.1.0"

__all__ = [
    "CagePath", "CapExceeded", "Classifier", "ConstructionError", "CoordClass",
    "DomainError", "LiftTriple", "PathWord", "SurfaceGraph", "bound_report",
    "cage_route", "check_point", "connectivity_check", "construct_path",
    "construction_exponent", "expander_alpha_ln", "growth_bound_ln",
    "is_maximal", "lucas_pair", "maximal_index", "minimal_lift_search",
    "on_surface", "parabolic_exponent", "point_order", "replay_integer", "rot",
    "rotation_order", "rotation_power", "seed_table", "spectral_gap",
    "__version__",
]
