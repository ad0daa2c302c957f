"""Acceptance criteria, one test per criterion.

Each test records a pass/fail line printed in the terminal summary.
Runtimes are asserted against the stated budgets.
"""

import math
import time

import numpy as np

from conftest import CRIT6_TS
from fdtools import heat_residual_mehler
from heatlab.cli import load_config, run_experiment
from heatlab.geometry import (
    CurvatureEndomorphism,
    CurvatureField,
    asymptotic_diagonal,
    morse_bound,
)
from heatlab.model_kernels import ModelSpec, mehler_scalar, model_diagonal
from heatlab.semigroup import spectral_bound_check
from heatlab.torus import (
    EllipticCurveBundle,
    heat_trace_exact,
    heat_trace_truncated,
    landau_spectrum,
    morse_trace_inequality,
    product_torus_morse,
    riemann_roch_dims,
    validate_landau_levels,
)


def test_criterion_1_model_consistency(criterion):
    started = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(0, n + 1))
        lam = tuple(rng.uniform(-3.0, 3.0, size=n))
        t = float(rng.uniform(0.1, 5.0))
        ad = asymptotic_diagonal(CurvatureEndomorphism.diagonal(lam), q, t).matrix
        md = model_diagonal(ModelSpec(n, lam, q), t).matrix
        scale = max(np.abs(md).max(), 1e-300)
        worst = max(worst, float(np.abs(ad - md).max() / scale))
    elapsed = time.time() - started
    criterion(
        1, "limit diagonal equals product-formula diagonal (200 random draws)",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_degenerate_limit(criterion):
    started = time.time()
    worst = 0.0
    ok = True
    for lam in (1e-6, -1e-6, 1e-9, -1e-9, 0.0):
        for t in (0.5, 1.0, 2.0):
            v = asymptotic_diagonal(CurvatureEndomorphism.diagonal([lam]), 0, t).matrix[0, 0].real
            target = 1.0 / (2.0 * np.pi * t)
            ok = ok and math.isclose(v, target, rel_tol=1e-6, abs_tol=0.0)
            worst = max(worst, abs(v - target) / target)
    elapsed = time.time() - started
    criterion(
        2, "degenerate eigenvalues reproduce the 1/(2 pi t) limit",
        ok and elapsed < 1.0,
        f"worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_mehler_free_limit(criterion):
    started = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = float(rng.uniform(0.1, 4.0))
        got = mehler_scalar(ModelSpec(n, (0.0,) * n, 0), t, z, w)
        expect = np.exp(-np.sum(np.abs(z - w) ** 2) / (2 * t)) / (2 * np.pi * t) ** n
        worst = max(worst, abs(got - expect) / abs(expect))
    elapsed = time.time() - started
    criterion(
        3, "zero-curvature oscillator kernel is the Euclidean heat kernel",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_quadratic_reading_arbiter(criterion):
    started = time.time()
    cases = [
        (ModelSpec(1, (1.0,), 0), np.array([0.4 + 0.3j]), np.array([-0.2 + 0.5j])),
        (ModelSpec(1, (-0.8,), 0), np.array([0.6]), np.array([0.1 - 0.4j])),
        (ModelSpec(2, (1.2, -0.5), 0), np.array([0.3, -0.2 + 0.2j]), np.array([0.1j, 0.4])),
    ]
    residuals = {}
    for reading in ("full", "half"):
        worst = 0.0
        for spec, z, w in cases:
            for t in (0.25, 1.0, 4.0):
                worst = max(worst, heat_residual_mehler(spec, t, z, w, reading))
        residuals[reading] = worst
    passing = [r for r in ("full", "half") if residuals[r] <= 1e-4]
    elapsed = time.time() - started
    criterion(
        4, "exactly one quadratic-term reading satisfies the heat equation",
        passing == ["full"] and elapsed < 30.0,
        f"residuals full {residuals['full']:.2e}, half {residuals['half']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_discrete_to_model_convergence(criterion, crit5_data):
    started = time.time()
    hs = np.array([0.4, 0.2, 0.1])
    ok = True
    details = []
    for q in (0, 1):
        errs, target = crit5_data["errors"][q]
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        final = errs[-1] / target
        ok = ok and (1.6 <= slope <= 2.4) and final <= 0.02
        details.append(f"q={q}: slope {slope:.2f}, final {final:.3%}")
    elapsed = time.time() - started + crit5_data.get("elapsed", 0.0)
    criterion(
        5, "kernel diagonal converges to the product formula at order 2",
        ok and elapsed < 120.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_6_scaling_convergence(criterion, crit6_data):
    started = time.time()
    report, baseline = crit6_data["report"], crit6_data["baseline"]
    ok = True
    details = []
    for t in CRIT6_TS:
        errs = report.errors_for(t)
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        close = errs[-1] <= 1.5 * baseline[t]
        ok = ok and decreasing and close
        details.append(
            f"t={t}: errs {['%.3e' % e for e in errs]}, baseline {baseline[t]:.3e}"
        )
    elapsed = time.time() - started + crit6_data.get("elapsed", 0.0)
    criterion(
        6, "scaled-operator error decreases in k down to the discretization floor",
        ok and elapsed < 600.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_7_uniform_bound(criterion, crit6_data):
    report = crit6_data["report"]
    ok = True
    worst = 0.0
    for t in CRIT6_TS:
        model = max(
            np.abs(r.model).max() for r in report.rows if r.t == t
        )
        peak = max(np.abs(r.value).max() for r in report.rows if r.t == t)
        worst = max(worst, peak / model)
        ok = ok and peak <= 2.0 * model
    criterion(
        7, "scaled diagonals stay uniformly bounded by twice the model value",
        ok, f"max ratio {worst:.3f}",
    )


def test_criterion_8_spectral_bound(criterion, crit5_data, crit6_data):
    started = time.time()
    ops = crit5_data["ops"] + crit6_data["ops"]
    ok = True
    for op in ops:
        for n_power in (0, 1, 2, 3):
            for t in (0.5, 1.0, 2.0):
                rep = spectral_bound_check(op, t, n_power)
                ok = ok and rep.passed
    elapsed = time.time() - started
    criterion(
        8, "semigroup power bound holds on every assembled operator",
        ok and elapsed < 60.0,
        f"{len(ops)} operators, {elapsed:.1f}s",
    )


def test_criterion_9_exact_torus_traces(criterion):
    started = time.time()
    bundle = EllipticCurveBundle(1j, 1)
    ok = True
    # truncated vs closed form
    for k in (1, 3):
        for q in (0, 1):
            for t in (0.25, 1.0, 4.0):
                cutoff = int(np.ceil(50.0 / (t * bundle.lambda_scalar)))
                closed = heat_trace_exact(bundle, k, q, t)
                trunc = heat_trace_truncated(bundle, k, q, t, cutoff)
                ok = ok and abs(closed - trunc) <= 1e-12 * abs(closed)
    # equality at q = n = 1, strictness at q = 0
    for k in range(1, 11):
        for t in (0.25, 1.0, 4.0):
            top = morse_trace_inequality(bundle, k, 1, t)
            ok = ok and top.holds and abs(top.rhs - top.lhs) <= 1e-10
            low = morse_trace_inequality(bundle, k, 0, t)
            ok = ok and low.holds and low.rhs > low.lhs
    elapsed = time.time() - started
    criterion(
        9, "exact torus traces: closed form, top-degree equality, strict bound",
        ok and elapsed < 1.0, f"{elapsed:.2f}s",
    )


def test_criterion_10_oracle_validation(criterion):
    started = time.time()
    ok = True
    details = []
    # Riemann-Roch ground multiplicities, k*d in {1, 2, 3, 6}
    for k, d in ((1, 1), (2, 1), (3, 1), (3, 2)):
        bundle = EllipticCurveBundle(1j, d)
        table = landau_spectrum(bundle, k, 0, 2)
        ok = ok and table.rows[0][1] == riemann_roch_dims(k, d)[0] == k * d
    # discretized periodic magnetic Laplacian, Richardson-extrapolated
    for kd in (1, 2, 3):
        bundle = EllipticCurveBundle(1j, 1)
        val = validate_landau_levels(bundle, kd, eigen_count=10, resolutions=(32, 64))
        ok = ok and val.all_match
        details.append(
            f"kd={kd}: {len(val.levels)} levels, max dev "
            f"{np.max(np.abs(val.extrapolated - val.expected)):.2e}"
        )
    elapsed = time.time() - started
    criterion(
        10, "Landau table validated by Riemann-Roch and the discrete magnetic oracle",
        ok and elapsed < 300.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_11_morse_integrals(criterion):
    started = time.time()
    b1 = EllipticCurveBundle(1j, 2)
    b2 = EllipticCurveBundle(1.5j, -3)
    rec = product_torus_morse(b1, b2, 4, 1, 1.0, quadrature_cells=64)
    slope = rec.normalized_lhs
    ok = abs(rec.morse_integral - 6.0) <= 0.005 * 6.0 and abs(slope - 6.0) <= 0.005 * 6.0
    # all-index-1 field gives a vanishing q=0 bound
    curv = CurvatureEndomorphism.diagonal([b1.lambda_scalar, b2.lambda_scalar])
    field = CurvatureField.constant(curv, b1.area * b2.area, 64)
    ok = ok and morse_bound(field, 0).value == 0.0
    elapsed = time.time() - started
    criterion(
        11, "product-torus Morse integral reproduces the top-cohomology slope",
        ok and elapsed < 10.0,
        f"integral {rec.morse_integral:.6f} vs slope {slope:.6f}, {elapsed:.2f}s",
    )


def test_criterion_12_determinism(criterion, tmp_path):
    started = time.time()
    from pathlib import Path

    config_dir = Path(__file__).resolve().parents[1] / "configs"
    ok = True
    for name in ("model_kernel_degenerate.json", "trace_stochastic.json",
                 "validate_oracle.json"):
        cfg = load_config(config_dir / name)
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        out1 = run_experiment(cfg, d1)
        out2 = run_experiment(cfg, d2)
        ok = ok and out1.read_bytes() == out2.read_bytes()
    elapsed = time.time() - started
    criterion(
        12, "repeated runs with identical config and seed are byte-identical",
        ok and elapsed < 60.0, f"{elapsed:.1f}s",
    )
