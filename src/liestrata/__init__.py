"""Exact analysis of structure-constant strata of anticommutative algebras.

The package works with index sets of triples marking nonzero structure
constants, their root matrices over Q and GF(2), the quadratic system the
Jacobi identity induces on a stratum, diagonal-orbit isomorphism tests, and
bounded cross sections that parametrize isomorphism classes.
"""

from .cross_sections import (BranchSolution, Certificate, CrossSectionSpec,
                             CurveSolution, center_is_lie, cross_section,
                             curve_samples, delta_domain, display_value,
                             dominance_certificate, f_jacobian, f_value,
                             lemma58_certificate, lie_points, point_at,
                             sigma_point, solve_branch_fixtures)
from .errors import (CapExceededError, DimensionMismatchError,
                     DuplicateTripleError, IndexOutOfRangeError,
                     MalformedInputError, ModeError, NotAlignedError,
                     OrderViolationError, OutsideDomainError, StratumError,
                     UnknownQuadrupleError, UnsupportedShapeError,
                     WNotQuadrupleDerivedError)
from .jacobi import (JacobiEquation, JacobiSystem, brute_force_jacobiator,
                     evaluate_jacobi, format_system, is_lie, jacobi_system,
                     obstruction_status)
from .linalg import (GF2Matrix, gf2_column_space_contains,
                     gf2_coset_transversal, gf2_rank, gf2_root_matrix,
                     in_column_space, left_null_basis, rank, root_matrix,
                     root_vector, span_equals)
from .orbits import (ISOMORPHISM_CAVEAT, apply_diagonal, d_orbit_equivalent,
                     magnitude_orbit_equivalent, orbit_verdict,
                     sign_orbit_equivalent)
from .quadruples import (AlignedPair, QuadrupleTable, aligned, classify,
                         common_triples, lambda_subspace,
                         lambda_subspace_vectors, null_space_spanning,
                         pair_sign, quadruple_of, quadruple_table, w_vector)
from .sweep import StratumSummary, sweep_strata
from .triples import (IndexSet, StructureVector, THETA, Triple, UPSILON,
                      enumerate_theta, parse_index_set, sign_vector,
                      structure_vector, validate_index_set)

__version__ = "0.1.0"
