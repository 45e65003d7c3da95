"""Exact computation of weight-3/2 Eisenstein coefficients two independent
ways — ternary theta series over quaternion ideal classes, and a closed
class-number formula — together with Brandt-matrix verification suites.

Everything is exact rational arithmetic; there is no floating point anywhere.

The package exports lazily (PEP 562): `import ceisen` loads no submodule,
and the first access to an exported name imports its home module alone.
"""

from importlib import import_module

# each exported name, by its home module
_EXPORTS = {
    "arith": ("CertificateError", "CongruencePreconditionError", "factorize", "is_prime",
              "kronecker", "primes_up_to"),
    "brandt": ("EigenSystem", "brandt_matrix", "brandt_matrices_upto", "eigenvalue_of",
               "expected_row_sum", "rational_eigensystem"),
    "order": ("CacheError", "IdealClassSet", "LeftIdeal", "Lat4", "build_class_set",
              "classes_from_json", "classes_to_json", "eichler_order", "left_ideal_classes",
              "maximal_order"),
    "qform": ("LevelConfig", "class_number", "class_numbers", "closed_form_H", "corollary_H",
              "field_class_numbers", "fundamental_parts", "kronecker_condition", "local_factors",
              "mass", "s_ramified", "unit_factor"),
    "quatalg": ("QuaternionAlgebra", "construct_algebra", "hilbert_symbol"),
    "theta32": ("cohen_H", "cusp_G", "embedding_count_identity", "optimal_embedding_count",
                "prefill_counts", "ternary_lattice"),
    "verify": ("CongruenceReport", "DivisibilityRow", "best_coefficient_congruence",
               "coefficient_congruence", "divisibility_table", "eigenvalue_congruence",
               "trace_identity_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
