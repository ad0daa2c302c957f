"""Finite-difference application of the model operators to callables.

Independent of the package's sparse assembly: these nested 4th-order
Wirtinger stencils act on closed-form kernels and serve as the
heat-equation residual oracle.
"""

import numpy as np

C1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
O1 = np.array([-2.0, -1.0, 1.0, 2.0])


def dz(f, z, j, h):
    """4th-order d/dz_j of a callable f: C^n -> C^m."""
    ex = np.zeros(len(z), dtype=complex)
    ex[j] = 1.0
    ey = np.zeros(len(z), dtype=complex)
    ey[j] = 1j
    fx = sum(c * np.asarray(f(z + o * h * ex)) for c, o in zip(C1, O1)) / h
    fy = sum(c * np.asarray(f(z + o * h * ey)) for c, o in zip(C1, O1)) / h
    return 0.5 * (fx - 1j * fy)


def dzbar(f, z, j, h):
    ex = np.zeros(len(z), dtype=complex)
    ex[j] = 1.0
    ey = np.zeros(len(z), dtype=complex)
    ey[j] = 1j
    fx = sum(c * np.asarray(f(z + o * h * ex)) for c, o in zip(C1, O1)) / h
    fy = sum(c * np.asarray(f(z + o * h * ey)) for c, o in zip(C1, O1)) / h
    return 0.5 * (fx + 1j * fy)


def apply_box(lam, q, f, z, h=1e-2):
    """Apply sum_j (-d/dz_j + lam_j/2 zbar_j)(d/dzbar_j + lam_j/2 z_j) + Theta_0
    to a fiber-vector-valued callable f at z (componentwise scalar part)."""
    from heatlab import fiber

    lam = np.asarray(lam, dtype=float)
    n = lam.size
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(np.asarray(f(z)), dtype=complex)
    for j in range(n):
        def annihilate(w, j=j):
            return dzbar(f, w, j, h) + 0.5 * lam[j] * w[j] * np.asarray(f(w))

        out += -dz(annihilate, z, j, h) + 0.5 * lam[j] * np.conj(z[j]) * annihilate(z)
    theta0 = fiber.twist_eigenvalues(lam, q)
    out += theta0 * np.asarray(f(z))
    return out


def apply_oscillator(lam, f, z, h=1e-2):
    """Apply the scalar oscillator H = 2 * (box at q=0) to a callable."""
    return 2.0 * apply_box(lam, 0, lambda w: np.atleast_1d(f(w)), z, h)[0]


def dt4(g, t, tau):
    """4th-order time derivative of a callable g(t)."""
    return (-g(t + 2 * tau) + 8 * g(t + tau) - 8 * g(t - tau) + g(t - 2 * tau)) / (12 * tau)


def heat_residual_mehler(spec, t, z, w, reading, h=1e-2, tau=None):
    """Relative residual of dK/dt + H_z K for the oscillator kernel."""
    from heatlab.model_kernels import mehler_scalar

    tau = tau or 1e-3 * max(t, 0.5)
    dt = dt4(lambda s: mehler_scalar(spec, s, z, w, reading), t, tau)
    hk = apply_oscillator(spec.lam, lambda u: mehler_scalar(spec, t, u, w, reading), z, h)
    return abs(dt + hk) / max(abs(dt), abs(hk), 1e-300)


def heat_residual_model(spec, t, z, w, h=1e-2, tau=None):
    """Max relative residual of dK/dt + box_z K over fiber columns."""
    from heatlab import fiber
    from heatlab.model_kernels import model_kernel

    tau = tau or 1e-3 * max(t, 0.5)
    d = fiber.fiber_dim(spec.n, spec.q)
    worst = 0.0
    for col in range(d):
        dt = dt4(lambda s: model_kernel(spec, s, z, w).matrix[:, col], t, tau)
        box = apply_box(
            spec.lam, spec.q,
            lambda u: model_kernel(spec, t, u, w).matrix[:, col], z, h,
        )
        num = np.max(np.abs(dt + box))
        den = max(np.max(np.abs(dt)), np.max(np.abs(box)), 1e-300)
        worst = max(worst, num / den)
    return worst
