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

The quadratic term of the Mehler exponent admits two plausible readings,
coth(t lambda / 2) versus coth(t lambda); only the latter satisfies the
heat equation (both are Hermitian-symmetric), and it is the default.  The
rejected reading is kept behind the ``quadratic_reading`` switch for the
residual diagnostic.

Degeneracy follows ``geometry.heat_factor``: |lambda| below
``defaults.DEGENERACY_THRESHOLD`` takes the Euclidean branch plus its terms
linear in lambda, so tiny eigenvalues never reach the 1/(1 - e^{-t lambda}) forms.
"""

from dataclasses import dataclass
from typing import Literal, Tuple

import numpy as np

from . import defaults, fiber
from .errors import ArgumentError, InvariantViolation

__all__ = [
    "ModelSpec",
    "KernelValue",
    "QUADRATIC_READINGS",
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


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation: fiber matrix, the point pair, and the time."""

    value: np.ndarray
    at: Tuple[np.ndarray, np.ndarray]
    time: float
    n: int
    q: int

    def __post_init__(self):
        m = np.array(self.value, dtype=complex)
        d = fiber.fiber_dim(self.n, self.q)
        if m.shape != (d, d):
            raise InvariantViolation(f"expected {d}x{d} kernel value")
        if not np.all(np.isfinite(m)):
            raise InvariantViolation("kernel value has non-finite entries")
        z, w = self.at
        if np.allclose(z, w, rtol=0.0, atol=0.0):
            if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(np.max(np.abs(m)), 1e-300):
                raise InvariantViolation("kernel at coincident points must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "value", m)

    @property
    def scalar(self) -> complex:
        if self.value.shape != (1, 1):
            raise ArgumentError("scalar access on a fiber of dimension > 1")
        return complex(self.value[0, 0])


def _check_time(t: float) -> None:
    if not np.isfinite(t) or t <= 0:
        raise ArgumentError(f"t must be finite and positive, got {t!r}")


def _mehler_factor_log(lam: float, t: float, zj: complex, wj: complex,
                       reading: QuadraticReading) -> Tuple[float, complex]:
    """(log prefactor, exponent) of one Lebesgue-normalized Mehler factor."""
    if abs(lam) < defaults.DEGENERACY_THRESHOLD:
        return (t * lam - np.log(2.0 * np.pi * t),
                -abs(zj - wj) ** 2 / (2.0 * t) + 1j * lam * (zj * np.conj(wj)).imag)
    x = t * lam
    # lam / (pi (1 - e^{-2x})) > 0 for either sign of lam
    logpref = np.log(lam / (np.pi * (-np.expm1(-2.0 * x))))
    arg = 0.5 * x if reading == "half" else x
    alpha = 0.5 * lam / np.tanh(arg)
    beta_plus = lam / (-np.expm1(-2.0 * x))      # lam e^{x} / (2 sinh x)
    beta_minus = lam / np.expm1(2.0 * x)         # lam e^{-x} / (2 sinh x)
    expo = (-alpha * (abs(zj) ** 2 + abs(wj) ** 2)
            + beta_plus * zj * np.conj(wj)
            + beta_minus * np.conj(zj) * wj)
    return logpref, expo


def mehler_scalar(spec: ModelSpec, t: float, z, w,
                  quadratic_reading: QuadraticReading = "full") -> complex:
    """Oscillator heat kernel exp(-t H)(z, w), Lebesgue-normalized.

    Product of one-dimensional factors

        lam / (pi (1 - e^{-2 t lam})) *
        exp(-(lam/2) coth(t lam) (|z_j|^2 + |w_j|^2)
            + lam (e^{t lam} z_j wbar_j + e^{-t lam} zbar_j w_j) / (2 sinh(t lam)))

    with a degenerate factor replaced by its expansion to first order in lam,
    (2 pi t)^{-1} exp(t lam - |z_j - w_j|^2 / (2 t) + i lam Im(z_j wbar_j)).
    The factors accumulate in log space and are exponentiated once.
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


def model_kernel(spec: ModelSpec, t: float, z, w,
                 quadratic_reading: QuadraticReading = "full") -> KernelValue:
    """Heat kernel of the model Laplacian on (0,q)-forms, as a fiber matrix.

    exp(-t box_q)(z, w) = exp(-t Theta_0) * exp(-(t/2) H)(z, w), reported
    against the Hermitian volume element (hence the 2^{-n} conversion from
    the Lebesgue-normalized scalar factor).
    """
    _check_time(t)
    scalar = mehler_scalar(spec, 0.5 * t, z, w, quadratic_reading) * 0.5 ** spec.n
    theta0 = fiber.twist_eigenvalues(spec.lam, spec.q)
    value = np.diag(np.exp(-t * theta0)) * scalar
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return KernelValue(value, (z, w), t, spec.n, spec.q)


def weighted_kernel(spec: ModelSpec, t: float, z, w,
                    quadratic_reading: QuadraticReading = "full") -> KernelValue:
    """Kernel of the weighted-gauge model Laplacian:
    e^{phi0(z)/2} exp(-t box_q)(z, w) e^{-phi0(w)/2}."""
    base = model_kernel(spec, t, z, w, quadratic_reading)
    gauge = np.exp(0.5 * (spec.weight_value(z) - spec.weight_value(w)))
    return KernelValue(base.value * gauge, base.at, t, spec.n, spec.q)


def model_diagonal(spec: ModelSpec, t: float) -> "FiberEndomorphism":
    """Diagonal exp(-t box_q)(0, 0) by the product formula

    prod_j lam_j / (2 pi (1 - e^{-t lam_j})) * exp(-t Theta_0),

    each scalar factor being ``geometry.heat_factor`` (1/(2 pi t) at lam_j = 0).
    """
    from .geometry import FiberEndomorphism, heat_factor

    _check_time(t)
    scalar = np.prod([heat_factor(lam, t) for lam in spec.lam])
    diag = scalar * np.exp(-t * fiber.twist_eigenvalues(spec.lam, spec.q))
    return FiberEndomorphism(spec.n, spec.q, np.diag(diag))
