"""Identification of 1D scalar evolution PDEs from noisy trajectory data.

The package combines weak-form sparse regression with two automatic
library-reduction mechanisms: a data-driven Galilean-invariance test
that prunes reaction terms, and randomized-LASSO stability selection
for everything else, guarded by a residual fallback to the full-library
fit.
"""

from .core import (
    CoefficientVector,
    Grid1D,
    LibraryTerm,
    RngStream,
    STANDARD_TERMS,
    Trajectory,
    TrajectorySet,
    coefficient_error,
    f1_score,
    support_from_coeffs,
    term_from_tag,
)
from .oplib import LibrarySpec, expanded_library, galilean_reduced, odd_reflection_prune, standard_library
from .pipeline import IdentificationResult, run_eqod, run_wf_lasso_baseline
from .solvers import PDES, PdeSpec, generate_set, initial_condition
from .sparse import lasso, lasso_cv
from .stability import stability_gate, stability_select
from .symmetry import SymmetryReport, detect_all
from .weakform import WeakSystem, assemble, make_test_grid

__version__ = "0.1.0"

__all__ = [
    "CoefficientVector",
    "Grid1D",
    "IdentificationResult",
    "LibrarySpec",
    "LibraryTerm",
    "PDES",
    "PdeSpec",
    "RngStream",
    "STANDARD_TERMS",
    "SymmetryReport",
    "Trajectory",
    "TrajectorySet",
    "WeakSystem",
    "assemble",
    "coefficient_error",
    "detect_all",
    "expanded_library",
    "f1_score",
    "galilean_reduced",
    "generate_set",
    "initial_condition",
    "lasso",
    "lasso_cv",
    "make_test_grid",
    "odd_reflection_prune",
    "run_eqod",
    "run_wf_lasso_baseline",
    "stability_gate",
    "stability_select",
    "standard_library",
    "support_from_coeffs",
    "term_from_tag",
]
