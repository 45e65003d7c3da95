"""Exact computation of weight-3/2 Eisenstein coefficients two independent
ways — ternary theta series over quaternion ideal classes, and a closed
class-number formula — together with Brandt-matrix verification suites.

Everything is exact rational arithmetic; there is no floating point anywhere.
"""

from .arith import (
    CertificateError,
    factorize,
    is_prime,
    kronecker,
    primes_up_to,
)
from .brandt import (
    EigenSystem,
    brandt_matrix,
    brandt_matrices_upto,
    eigenvalue_of,
    expected_row_sum,
    rational_eigensystem,
)
from .order import (
    CacheError,
    IdealClassSet,
    LeftIdeal,
    Lat4,
    build_class_set,
    classes_from_json,
    classes_to_json,
    eichler_order,
    left_ideal_classes,
    maximal_order,
)
from .qform import (
    LevelConfig,
    class_number,
    class_numbers,
    closed_form_H,
    corollary_H,
    field_class_numbers,
    fundamental_parts,
    kronecker_condition,
    local_factors,
    mass,
    s_ramified,
    unit_factor,
)
from .quatalg import QuaternionAlgebra, construct_algebra, hilbert_symbol
from .theta32 import (
    cohen_H,
    cusp_G,
    embedding_count_identity,
    optimal_embedding_count,
    prefill_counts,
    ternary_lattice,
    trace_identity_check,
)
from .verify import (
    CongruencePreconditionError,
    CongruenceReport,
    DivisibilityRow,
    best_coefficient_congruence,
    coefficient_congruence,
    divisibility_table,
    eigenvalue_congruence,
)

__all__ = [
    "CacheError",
    "CertificateError",
    "CongruencePreconditionError",
    "CongruenceReport",
    "DivisibilityRow",
    "EigenSystem",
    "IdealClassSet",
    "Lat4",
    "LeftIdeal",
    "LevelConfig",
    "QuaternionAlgebra",
    "best_coefficient_congruence",
    "brandt_matrices_upto",
    "brandt_matrix",
    "build_class_set",
    "class_number",
    "class_numbers",
    "classes_from_json",
    "classes_to_json",
    "closed_form_H",
    "coefficient_congruence",
    "cohen_H",
    "construct_algebra",
    "corollary_H",
    "cusp_G",
    "divisibility_table",
    "eichler_order",
    "eigenvalue_congruence",
    "eigenvalue_of",
    "embedding_count_identity",
    "expected_row_sum",
    "factorize",
    "field_class_numbers",
    "fundamental_parts",
    "hilbert_symbol",
    "is_prime",
    "kronecker",
    "kronecker_condition",
    "left_ideal_classes",
    "local_factors",
    "mass",
    "maximal_order",
    "optimal_embedding_count",
    "prefill_counts",
    "primes_up_to",
    "rational_eigensystem",
    "s_ramified",
    "ternary_lattice",
    "trace_identity_check",
    "unit_factor",
]

__version__ = "0.1.0"
