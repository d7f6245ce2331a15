"""Nonlinear p-forms on finite-difference Dirichlet structures.

Core objects: grid domains and coefficient fields (`grid`), the p-form
calculus and its property checkers (`pform`), p-harmonic solvers
(`solve`), condenser capacities (`capacity`), the intrinsic metric with
Caccioppoli verification (`metric`), and quasiregular mapping analysis
(`mappings`).  The `cli` module wires JSON configs to all of it.
"""

from .grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    ShapeMismatchError,
    boundary_mask,
    carre_du_champ,
    cell_mean,
    dp_norm,
    energy,
    gamma,
    gradient,
    unit_structure,
)
from .pform import PFormContext, p_energy, p_form, p_operator

__all__ = [
    "CoefficientField",
    "GridDomain",
    "GridFunction",
    "GridStructure",
    "ShapeMismatchError",
    "boundary_mask",
    "carre_du_champ",
    "cell_mean",
    "dp_norm",
    "energy",
    "gamma",
    "gradient",
    "unit_structure",
    "PFormContext",
    "p_energy",
    "p_form",
    "p_operator",
]

__version__ = "0.1.0"
