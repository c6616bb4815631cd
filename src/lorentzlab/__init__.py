"""Numerical toolkit for temporal Lorentzian spectral geometry at desk scale.

Subpackages cover: gamma-matrix Clifford algebra with a distinguished
anti-Hermitian time direction (``clifford``), small periodic/clamped lattices
with spectral-friendly calculus (``lattice``), lattice Dirac operators and
the temporal axiom suite (``dirac``), steep-function certification
(``steepness``), causal distance formulas (``distance``), star products with
three independent engines (``moyal``), filtered algebras of time-weighted
symbols with pure-state extension (``filtration``), a tiny expression
language (``expressions``), and a deterministic CLI (``cli``).
"""

from .checks import Check
from .clifford import (GammaRep, build_gamma, check_clifford, chirality,
                       fundamental_symmetry, krein_adjoint)
from .dirac import (DiracOperator, check_temporal_axioms, elliptic_square,
                    flat_operator)
from .distance import (CandidatePool, DistanceResult, EventPair,
                       boosted_family_distance, certify_candidates,
                       conformal_time_distance, minkowski_oracle,
                       variational_distance)
from .expressions import ExpressionError, compile_expression, parse_expression
from .filtration import (EvaluationState, FilteredElement, ToyAlgebra,
                         ToyState, central_multiplicativity_check,
                         extend_state, operator_norm_grading_check,
                         weighted_norm, well_definedness_check)
from .lattice import Lattice, ScalarField, SpinorField, gradient, integrate
from .moyal import (ThetaMatrix, commutation_check, delta_algebra_check,
                    moyal_grid, operator_norm, project, star_matrix_basis,
                    star_quadrature, star_twisted, synthesize)
from .steepness import (equivalence_scan, is_steep_matrix, is_steep_scalar,
                        matrix_margins, scalar_margins)

__version__ = "0.1.0"

__all__ = [
    "Check",
    "GammaRep", "build_gamma", "check_clifford", "chirality",
    "fundamental_symmetry", "krein_adjoint",
    "DiracOperator", "check_temporal_axioms", "elliptic_square",
    "flat_operator",
    "CandidatePool", "DistanceResult", "EventPair", "boosted_family_distance",
    "certify_candidates", "conformal_time_distance", "minkowski_oracle",
    "variational_distance",
    "ExpressionError", "compile_expression", "parse_expression",
    "EvaluationState", "FilteredElement", "ToyAlgebra", "ToyState",
    "central_multiplicativity_check", "extend_state",
    "operator_norm_grading_check", "weighted_norm", "well_definedness_check",
    "Lattice", "ScalarField", "SpinorField", "gradient", "integrate",
    "ThetaMatrix", "commutation_check", "delta_algebra_check",
    "moyal_grid", "operator_norm", "project", "star_matrix_basis",
    "star_quadrature", "star_twisted", "synthesize",
    "equivalence_scan", "is_steep_matrix", "is_steep_scalar",
    "matrix_margins", "scalar_margins",
    "__version__",
]
