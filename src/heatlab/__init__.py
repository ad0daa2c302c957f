"""heatlab: a numerical laboratory for heat kernels of model magnetic
Laplacians on C^n, their scaled-operator limits, and exact torus
Landau-level oracles.

Public names are resolved lazily (PEP 562), so importing the package or
its CLI loads no numpy: ``--threads`` can then cap the BLAS pools before
they start.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AccuracyError", "ArgumentError", "ConfigError", "DomainError", "HeatlabError",
        "InvariantViolation", "NumericalError", "ResourceLimitError",
    ),
    "geometry": (
        "CurvatureEndomorphism", "CurvatureField", "FiberEndomorphism", "Perturbation",
        "WeightFunction", "asymptotic_diagonal", "curvature_at", "morse_bound",
        "morse_index", "twist_endomorphism",
    ),
    "model_kernels": (
        "KernelValue", "ModelSpec", "mehler_scalar", "model_diagonal", "model_kernel",
        "weighted_kernel",
    ),
    "operators": (
        "DiscreteOperator", "GridSpec", "PerturbationSpec", "assemble_model",
        "assemble_scaled", "to_matrix_market",
    ),
    "semigroup": (
        "ConvergenceReport", "SemigroupMethod", "converge_in_k", "heat_apply", "heat_trace",
        "heat_traces", "kernel_diagonal", "kernel_diagonals", "spectral_bound_check",
    ),
    "torus": (
        "EllipticCurveBundle", "SpectrumTable", "heat_trace_exact", "heat_trace_truncated",
        "landau_spectrum", "morse_trace_inequality", "product_torus_morse",
        "validate_landau_levels",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
