"""Closed-form heat kernels of the model operators on C^n.

The model machinery factors through a scalar oscillator operator

    H = 2 * sum_j a_j^dag a_j,    a_j = d/dzbar_j + (lambda_j / 2) z_j,

whose heat kernel is a product of one-dimensional Mehler factors.  The
form-valued model Laplacian splits as box_q = H/2 + Theta_0 with
Theta_0 = sum_j lambda_j e^j wedge iota_j acting on the fiber, so
exp(-t box_q)(z, w) = exp(-t Theta_0) * exp(-(t/2) H)(z, w).  On the form
indexed by J, heat_factor(lambda, t) e^{-t lambda} = heat_factor(-lambda, t)
pairs each twisted direction's factors (``_paired_factors``), so no factor
overflows while another underflows; the Mehler exponents at time t/2
(``_exponent``) are summed and exponentiated once.

Normalization: ``mehler_scalar`` is a density against the Lebesgue measure
of the real coordinates, the box kernels (``model_kernel``,
``weighted_kernel``, ``model_diagonal``) against the Hermitian volume
element i^n dz dzbar = 2^n Lebesgue.  See README, "Volume conventions".

Each Mehler exponent is -(lambda/2) coth(t lambda) |z - w|^2 + i lambda
Im(z wbar): no terms cancel, so at z = w the kernel is the product formula.
Of the two plausible quadratic readings, coth(t lambda) and
coth(t lambda / 2), only the former satisfies the heat equation (both are
Hermitian-symmetric).  The rejected one adds -lambda/(2 sinh(t lambda))
(|z|^2 + |w|^2); only ``mehler_scalar`` offers it, for the residual
diagnostic.  Below ``defaults.DEGENERACY_THRESHOLD`` both coefficients
take their limit 1/(2t) and ``heat_factor`` its series, so tiny
eigenvalues never reach 1/(1 - e^{-t lambda}), coth or 1/sinh.  This module
imports nothing from ``geometry``, which imports it.
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
    For lambda < 0 it is |lambda| e^{x} / (2 pi (1 - e^{x})), which
    underflows quietly where e^{-x} would overflow.
    """
    _check_time(t)
    x = t * lam
    if abs(lam) < defaults.DEGENERACY_THRESHOLD:
        series = 1.0 + x / 2.0 + x**2 / 12.0 - x**4 / 720.0
        return series / (2.0 * np.pi * t)
    return abs(lam) * np.exp(min(x, 0.0)) / (2.0 * np.pi * -np.expm1(-abs(x)))


def _paired_factors(lam, q: int, t: float) -> np.ndarray:
    """For each (0,q) fiber index J, the product of heat_factor(lam_j, t)
    over j not in J and of heat_factor(-lam_j, t) over j in J."""
    return np.array([np.prod([heat_factor(-l if j in J else l, t) for j, l in enumerate(lam)])
                     for J in fiber.multi_indices(len(lam), q)])


def _exponent(lam, t: float, z: np.ndarray, w: np.ndarray,
              reading: QuadraticReading = "full") -> complex:
    """Sum over j of the Mehler exponent at time t,
    -c_j |z_j - w_j|^2 + i lam_j Im(z_j wbar_j), minus s_j (|z_j|^2 + |w_j|^2)
    under the "half" reading: c_j = (lam_j/2) coth(t lam_j) and
    s_j = lam_j / (2 sinh(t lam_j)), written |lam_j| e^{-t|lam_j|} /
    (1 - e^{-2t|lam_j|}) so that it cannot overflow, both 1/(2t) below the
    degeneracy threshold; Im(z wbar) = y_z x_w - x_z y_w."""
    expo = 0.0 + 0.0j
    for lj, zj, wj in zip(lam, z, w):
        flat = abs(lj) < defaults.DEGENERACY_THRESHOLD
        c = 0.5 / t if flat else 0.5 * lj / np.tanh(t * lj)
        expo += -c * abs(zj - wj) ** 2 + 1j * lj * (zj.imag * wj.real - zj.real * wj.imag)
        if reading == "half":
            a = abs(lj)
            s = 0.5 / t if flat else a * np.exp(-t * a) / -np.expm1(-2.0 * t * a)
            expo -= s * (abs(zj) ** 2 + abs(wj) ** 2)
    return expo


def _points(spec: ModelSpec, t: float, z, w) -> Tuple[np.ndarray, np.ndarray]:
    """z and w as complex arrays of shape (n,), after the check of t."""
    _check_time(t)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != (spec.n,) or w.shape != (spec.n,):
        raise ArgumentError(f"points must have shape ({spec.n},)")
    return z, w


def mehler_scalar(spec: ModelSpec, t: float, z, w,
                  quadratic_reading: QuadraticReading = "full") -> complex:
    """Oscillator heat kernel exp(-t H)(z, w), Lebesgue-normalized: the
    product over j of 2 heat_factor(lam_j, 2t) = lam_j / (pi (1 - e^{-2 t lam_j}))
    times e^{-(lam_j/2) coth(t lam_j) |z_j - w_j|^2 + i lam_j Im(z_j wbar_j)}."""
    z, w = _points(spec, t, z, w)
    if quadratic_reading not in QUADRATIC_READINGS:
        raise ArgumentError(f"unknown quadratic reading {quadratic_reading!r}")
    pref = 2.0 ** spec.n * _paired_factors(spec.lam, 0, 2.0 * t)[0]
    return complex(pref * np.exp(_exponent(spec.lam, t, z, w, quadratic_reading)))


def _kernel(spec: ModelSpec, t: float, z, w, weighted: bool) -> FiberEndomorphism:
    """exp(-t box_q)(z, w) against the Hermitian volume element: the paired
    factors times one exp of the Mehler exponents at time t/2, to which the
    gauge (phi0(z) - phi0(w))/2 is added when ``weighted``.  A value that
    overflows (the gauge far from the origin) raises InvariantViolation."""
    z, w = _points(spec, t, z, w)
    expo = _exponent(spec.lam, 0.5 * t, z, w)
    if weighted:
        expo += 0.5 * (spec.weight_value(z) - spec.weight_value(w))
    value = np.diag(_paired_factors(spec.lam, spec.q, t)) * np.exp(expo)
    if not np.all(np.isfinite(value)):
        raise InvariantViolation("kernel value has non-finite entries")
    return FiberEndomorphism(spec.n, spec.q, value)


def model_kernel(spec: ModelSpec, t: float, z, w) -> FiberEndomorphism:
    """Heat kernel exp(-t box_q)(z, w) of the model Laplacian on
    (0,q)-forms, as a fiber matrix against the Hermitian volume element."""
    return _kernel(spec, t, z, w, weighted=False)


def weighted_kernel(spec: ModelSpec, t: float, z, w) -> FiberEndomorphism:
    """Kernel of the weighted-gauge model Laplacian:
    e^{phi0(z)/2} exp(-t box_q)(z, w) e^{-phi0(w)/2}."""
    return _kernel(spec, t, z, w, weighted=True)


def model_diagonal(spec: ModelSpec, t: float) -> FiberEndomorphism:
    """Diagonal exp(-t box_q)(0, 0) by the product formula

    prod_j lam_j / (2 pi (1 - e^{-t lam_j})) * exp(-t Theta_0),

    evaluated as ``_paired_factors`` (1/(2 pi t) at lam_j = 0).
    """
    return FiberEndomorphism(spec.n, spec.q, np.diag(_paired_factors(spec.lam, spec.q, t)))
