"""Closed-form heat kernels of the model operators on C^n.

The model machinery factors through a scalar oscillator operator

    H = 2 * sum_j a_j^dag a_j,    a_j = d/dzbar_j + (lambda_j / 2) z_j,

whose heat kernel is a product of one-dimensional Mehler factors.  The
form-valued model Laplacian splits as box_q = H/2 + Theta_0 with
Theta_0 = sum_j lambda_j e^j wedge iota_j acting on the fiber, so

    exp(-t box_q)(z, w) = exp(-t Theta_0) * exp(-(t/2) H)(z, w).

Normalization: ``mehler_scalar`` is a density against the Lebesgue measure
of the real coordinates, while the box kernels (``model_kernel``,
``weighted_kernel``, ``model_diagonal``) are densities against the
Hermitian volume element i^n dz dzbar = 2^n Lebesgue; the factor 2^{-n}
in ``model_kernel`` converts between the two.  See README, "Volume
conventions".

Each Mehler exponent is -(lambda/2) coth(t lambda) |z - w|^2 + i lambda
Im(z wbar): no terms cancel, so at z = w the kernel is the product formula.
Of the two plausible quadratic readings, coth(t lambda) and
coth(t lambda / 2), only the former satisfies the heat equation (both are
Hermitian-symmetric); it is the default.  The rejected reading adds
-lambda/(2 sinh(t lambda)) (|z|^2 + |w|^2), kept behind the
``quadratic_reading`` switch for the residual diagnostic.

Degeneracy follows ``heat_factor``: |lambda| below
``defaults.DEGENERACY_THRESHOLD`` takes the Euclidean branch plus its terms
linear in lambda, so tiny eigenvalues never reach the 1/(1 - e^{-t lambda})
forms.  This module imports nothing from ``geometry``, which imports it.
"""

from dataclasses import dataclass
from typing import Literal, Tuple

import numpy as np

from . import defaults, fiber
from .errors import ArgumentError, InvariantViolation
from .fiber import FiberEndomorphism

__all__ = [
    "ModelSpec",
    "QUADRATIC_READINGS",
    "heat_factor",
    "mehler_scalar",
    "model_kernel",
    "weighted_kernel",
    "model_diagonal",
]

QUADRATIC_READINGS = ("full", "half")
QuadraticReading = Literal["full", "half"]


def _checked_lam(n: int, lam) -> tuple:
    """The n curvature eigenvalues lam as a tuple of finite floats; n >= 1."""
    if n < 1:
        raise ArgumentError("dimension must be positive")
    lam = tuple(float(v) for v in lam)
    if len(lam) != n:
        raise InvariantViolation(f"expected {n} eigenvalues, got {len(lam)}")
    if not all(np.isfinite(lam)):
        raise InvariantViolation("curvature eigenvalues must be finite")
    return lam


@dataclass(frozen=True)
class ModelSpec:
    """Diagonal model data: dimension, curvature eigenvalues, form degree."""

    n: int
    lam: tuple
    q: int

    def __post_init__(self):
        lam = _checked_lam(self.n, self.lam)
        if not 0 <= self.q <= self.n:
            raise ArgumentError(f"q={self.q} outside [0, {self.n}]")
        object.__setattr__(self, "lam", lam)

    def weight_value(self, z) -> float:
        z = np.asarray(z, dtype=complex)
        return float(np.dot(self.lam, np.abs(z) ** 2))


def _check_time(t: float) -> None:
    if not np.isfinite(t) or t <= 0:
        raise ArgumentError(f"t must be finite and positive, got {t!r}")


def heat_factor(lam: float, t: float) -> float:
    """Scalar factor lambda / (2 pi (1 - e^{-t lambda})) with degenerate branch.

    Below the degeneracy threshold the 4-term Taylor series of
    x / (1 - e^{-x}) at x = t*lambda is used; at lambda = 0 this is 1/(2 pi t).
    """
    _check_time(t)
    x = t * lam
    if abs(lam) < defaults.DEGENERACY_THRESHOLD:
        series = 1.0 + x / 2.0 + x**2 / 12.0 - x**4 / 720.0
        return series / (2.0 * np.pi * t)
    return lam / (2.0 * np.pi * (-np.expm1(-x)))


def _mehler_factor_log(lam: float, t: float, zj: complex, wj: complex,
                       reading: QuadraticReading) -> Tuple[float, complex]:
    """(log prefactor, exponent) of one Lebesgue-normalized Mehler factor."""
    logpref = np.log(2.0 * heat_factor(lam, 2.0 * t))
    phase = 1j * lam * (zj.imag * wj.real - zj.real * wj.imag)  # i lam Im(z wbar)
    if abs(lam) < defaults.DEGENERACY_THRESHOLD:
        return logpref, -abs(zj - wj) ** 2 / (2.0 * t) + phase
    x = t * lam
    expo = -0.5 * lam / np.tanh(x) * abs(zj - wj) ** 2 + phase
    if reading == "half":
        expo -= 0.5 * lam / np.sinh(x) * (abs(zj) ** 2 + abs(wj) ** 2)
    return logpref, expo


def mehler_scalar(spec: ModelSpec, t: float, z, w,
                  quadratic_reading: QuadraticReading = "full") -> complex:
    """Oscillator heat kernel exp(-t H)(z, w), Lebesgue-normalized.

    Product of one-dimensional factors

        2 heat_factor(lam, 2t) *
        exp(-(lam/2) coth(t lam) |z_j - w_j|^2 + i lam Im(z_j wbar_j)),

    2 heat_factor(lam, 2t) = lam / (pi (1 - e^{-2 t lam})), with a
    degenerate factor's coefficient (lam/2) coth(t lam) replaced by its
    limit 1/(2t).  The factors accumulate in log space and are
    exponentiated once.
    """
    _check_time(t)
    if quadratic_reading not in QUADRATIC_READINGS:
        raise ArgumentError(f"unknown quadratic reading {quadratic_reading!r}")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != (spec.n,) or w.shape != (spec.n,):
        raise ArgumentError(f"points must have shape ({spec.n},)")
    logpref = 0.0
    expo = 0.0 + 0.0j
    for j in range(spec.n):
        lp, ex = _mehler_factor_log(spec.lam[j], t, z[j], w[j], quadratic_reading)
        logpref += lp
        expo += ex
    return complex(np.exp(logpref + expo))


def _finite(spec: ModelSpec, value: np.ndarray) -> FiberEndomorphism:
    """``value`` as a fiber matrix, or InvariantViolation when it is not
    finite: e^{-t Theta_0} overflows for lambda < 0, q >= 1 and large t,
    and the gauge factor of ``weighted_kernel`` far from the origin."""
    if not np.all(np.isfinite(value)):
        raise InvariantViolation("kernel value has non-finite entries")
    return FiberEndomorphism(spec.n, spec.q, value)


def model_kernel(spec: ModelSpec, t: float, z, w,
                 quadratic_reading: QuadraticReading = "full") -> FiberEndomorphism:
    """Heat kernel of the model Laplacian on (0,q)-forms, as a fiber matrix.

    exp(-t box_q)(z, w) = exp(-t Theta_0) * exp(-(t/2) H)(z, w), reported
    against the Hermitian volume element (hence the 2^{-n} conversion from
    the Lebesgue-normalized scalar factor).
    """
    _check_time(t)
    scalar = mehler_scalar(spec, 0.5 * t, z, w, quadratic_reading) * 0.5 ** spec.n
    return _finite(spec, np.diag(np.exp(-t * fiber.twist_eigenvalues(spec.lam, spec.q))) * scalar)


def weighted_kernel(spec: ModelSpec, t: float, z, w,
                    quadratic_reading: QuadraticReading = "full") -> FiberEndomorphism:
    """Kernel of the weighted-gauge model Laplacian:
    e^{phi0(z)/2} exp(-t box_q)(z, w) e^{-phi0(w)/2}."""
    base = model_kernel(spec, t, z, w, quadratic_reading)
    gauge = np.exp(0.5 * (spec.weight_value(z) - spec.weight_value(w)))
    return _finite(spec, base.matrix * gauge)


def model_diagonal(spec: ModelSpec, t: float) -> FiberEndomorphism:
    """Diagonal exp(-t box_q)(0, 0) by the product formula

    prod_j lam_j / (2 pi (1 - e^{-t lam_j})) * exp(-t Theta_0),

    each scalar factor being ``heat_factor`` (1/(2 pi t) at lam_j = 0).
    """
    scalar = np.prod([heat_factor(lam, t) for lam in spec.lam])
    diag = scalar * np.exp(-t * fiber.twist_eigenvalues(spec.lam, spec.q))
    return FiberEndomorphism(spec.n, spec.q, np.diag(diag))
