"""End-to-end acceptance gates, one test per criterion.

Each test checks one headline capability at its stated tolerance and
prints a single summary line on success; run with -v to get one
pass/fail line per criterion.
"""

import functools
import math
import time

import numpy as np

from nlsfloer.diagnostics import distinctness_report, gradient_monitor, normal_profile
from nlsfloer.dynamics import (
    continue_fixed_point,
    evolve,
    evolve_many,
    fixed_point_residual,
    free_flow,
    fs_distance,
    mode_point,
)
from nlsfloer.floer import (
    CylinderGrid,
    boundary_orbit,
    build_cutoff,
    floer_energy,
    solve_floer,
)
from nlsfloer.model import (
    Constant,
    Hartree,
    ModelSpec,
    Potential,
    Quadratic,
    TimeModulated,
    band_limited_kernel,
    cosine_field,
    eval_F_many,
    exponential_kernel,
    free_phases,
    galerkin_gap,
    grad_F_many,
    hofer_norm,
)
from nlsfloer.smalldiv import (
    cosine_forcing,
    divisor,
    divisor_scan,
    ode_bound_check,
    random_forcing,
)
from nlsfloer.spectral import SpectralField
from reference import analyze, synthesize

RNG = np.random.default_rng
TWO_PI = 2.0 * math.pi


def random_unit(k, rng):
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    return SpectralField(k, c / np.linalg.norm(c))


def catalog(k):
    ker = exponential_kernel(1.0, k)
    return [
        ModelSpec(ker, Constant(0.1), k),
        ModelSpec(ker, Hartree(0.1), k),
        ModelSpec(ker, Quadratic(0.1), k),
        ModelSpec(ker, Potential(0.05, cosine_field(k)), k),
        ModelSpec(ker, TimeModulated(Quadratic(0.05)), k),
    ]


@functools.lru_cache(maxsize=None)
def potential_model(k):
    return ModelSpec(exponential_kernel(1.0, k), Potential(0.05, cosine_field(k)), k)


@functools.lru_cache(maxsize=None)
def continued(k, n=0, steps=400):
    result = continue_fixed_point(potential_model(k), n, steps=steps)
    assert result.converged, result.message
    return result.final.point


@functools.lru_cache(maxsize=None)
def ladder_solve(k, N_s=60, N_t=16):
    """Converged cylinder solve of the potential model at bandwidth k."""
    model = potential_model(k)
    free = model.with_strength(0.0)
    grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k)
    left = boundary_orbit(free, mode_point(0, k), N_t, side="left")
    right = boundary_orbit(free, continued(k), N_t, side="right")
    result = solve_floer(model, grid, 1.0, (left, right), tol=1e-8)
    assert result.converged, result.message
    return model, result


@functools.lru_cache(maxsize=None)
def big_solve(N_s):
    """Criterion-scale solve: T = 1, S = 4, N_t = 32 at bandwidth 4."""
    model = potential_model(4)
    free = model.with_strength(0.0)
    grid = CylinderGrid(S=4.0, N_s=N_s, N_t=32, k=4)
    left = boundary_orbit(free, mode_point(0, 4), 32, side="left")
    right = boundary_orbit(free, continued(4), 32, side="right")
    result = solve_floer(model, grid, 1.0, (left, right), tol=1e-8)
    assert result.converged, result.message
    return model, result


def test_criterion_01_free_flow_exactness():
    start = time.monotonic()
    k = 64
    n = np.arange(-k, k + 1)
    rng = RNG(1)
    u = random_unit(k, rng)
    worst = 0.0
    for t in (0.1, 1.0, math.pi):
        expect = u.coeffs * np.exp(-1j * n.astype(float) ** 2 * t)
        worst = max(worst, float(np.max(np.abs(free_flow(u, t).coeffs - expect))))
    assert worst < 1e-12

    free = ModelSpec(exponential_kernel(1.0, k), Hartree(0.0), k)
    rows = np.eye(2 * k + 1, dtype=np.complex128)
    out = evolve_many(free, rows, 0.0, 1.0, 400)
    worst_fp = 0.0
    for i, m in enumerate(n):
        d = fs_distance(SpectralField(k, out[i].copy()), mode_point(int(m), k))
        worst_fp = max(worst_fp, d)
    assert worst_fp < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"criterion 1: phase error {worst:.2e}, fixed-point residual "
        f"{worst_fp:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_spectral_round_trip_and_parseval():
    worst_rt = 0.0
    worst_pv = 0.0
    for k in range(0, 65):
        rng = RNG(200 + k)
        u = random_unit(k, rng)
        for N in (2 * k + 1, 4 * (2 * k + 1)):
            back = analyze(synthesize(u, N), k)
            worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - u.coeffs))))
        N = 4 * (2 * k + 1)
        g = synthesize(u, N)
        quad = (TWO_PI / N) * np.sum(np.abs(g.values) ** 2)
        worst_pv = max(worst_pv, abs(quad - u.l2() ** 2))
    assert worst_rt < 1e-12
    assert worst_pv < 1e-12
    print(f"criterion 2: round trip {worst_rt:.2e}, parseval {worst_pv:.2e}")


def test_criterion_03_gradient_consistency():
    k = 16
    eta = 1e-6
    worst = 0.0
    for m, model in enumerate(catalog(k)):
        rng = RNG(300 + m)
        for _ in range(100):
            u = random_unit(k, rng).coeffs
            h = random_unit(k, rng).coeffs
            t = rng.uniform()
            # F itself, then G_t = F_t after the free flow, whose gradient
            # is pulled back by conj(phases)
            phases = free_phases(k, t)
            for rot in (1.0, phases):
                up, dn = (u + eta * h) * rot, (u - eta * h) * rot
                fd = (eval_F_many(model, up, t) - eval_F_many(model, dn, t)) / (2 * eta)
                grad = grad_F_many(model, u * rot, t) * np.conj(rot)
                pairing = np.vdot(h, grad).real
                rel = abs(fd - pairing) / max(1.0, abs(fd))
                worst = max(worst, rel)
    assert worst < 1e-6
    print(f"criterion 3: worst gradient mismatch {worst:.2e} (1000 cases)")


def test_criterion_04_conservation_and_hartree_diagonal():
    k = 6
    rng = RNG(4)
    worst_drift = 0.0
    for model in catalog(k):
        u0 = random_unit(k, rng)
        u1 = evolve(model, u0, 0.0, 1.0, 1000)
        worst_drift = max(worst_drift, abs(u1.l2() - u0.l2()))
    assert worst_drift < 1e-8

    hart = catalog(k)[1]
    u0 = random_unit(k, rng)
    u1 = evolve(hart, u0, 0.0, 1.0, 1000)
    n = np.arange(-k, k + 1).astype(float)
    omega = n**2 + hart.nonlinearity.strength * hart.psi_band**2
    diag_err = float(np.max(np.abs(u1.coeffs - u0.coeffs * np.exp(-1j * omega))))
    assert diag_err < 1e-12
    print(
        f"criterion 4: worst drift {worst_drift:.2e}, hartree diagonal "
        f"{diag_err:.2e}"
    )


def test_criterion_05_galerkin_gap_decay():
    k_model = 12
    model = ModelSpec(exponential_kernel(1.0, k_model), Quadratic(0.1), k_model)
    reports = [
        galerkin_gap(model, k, R=1.0, samples=32, seed=0) for k in range(2, 11)
    ]
    target = math.exp(-1.0)
    for a, b in zip(reports, reports[1:]):
        # The analytic convolution gap is the quantity with the exact
        # e^-1 rate; the sampled gradient gap carries both kernel
        # factors and must decay at least as fast.
        ratio = b.conv_bound / a.conv_bound
        assert abs(ratio - target) <= 0.2 * target
        assert b.grad_gap <= 1.2 * target * a.grad_gap
        assert b.grad_gap > 0.0

    banded = ModelSpec(band_limited_kernel(2, 6), Quadratic(0.1), 6)
    for k in (2, 3, 4):
        rep = galerkin_gap(banded, k, R=1.0, samples=16, seed=0)
        assert rep.f_gap == 0.0
        assert rep.grad_gap == 0.0
    print(
        "criterion 5: analytic gap ratio e^-1 exact, measured gradient gaps "
        f"decay faster (last {reports[-1].grad_gap:.2e}), band-limited gaps 0"
    )


def test_criterion_06_hofer_closed_form_and_gate():
    k = 6
    eps = 0.1
    model = ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)
    rep = hofer_norm(model, t_nodes=2)
    expected = 0.5 * eps * (1.0 - math.exp(-2.0 * k))
    assert rep.all_converged
    assert abs(rep.estimate - expected) <= 0.01 * expected

    ker = exponential_kernel(1.0, 4)
    w_max = ker.l2() ** 2
    below = hofer_norm(ModelSpec(ker, Hartree(0.12 / w_max), 4), t_nodes=2)
    above = hofer_norm(ModelSpec(ker, Hartree(0.13 / w_max), 4), t_nodes=2)
    assert below.sufficient_gate and below.sup_f_bound < 0.125
    assert not above.sufficient_gate and above.sup_f_bound >= 0.125
    for m in catalog(4):
        r = hofer_norm(m, t_nodes=2)
        assert r.sufficient_gate == (r.sup_f_bound < 0.125)
    print(
        f"criterion 6: hartree estimate {rep.estimate:.6f} vs closed form "
        f"{expected:.6f}, gate tracks the 1/8 bound"
    )


def test_criterion_07_small_divisor_scan():
    start = time.monotonic()
    report = divisor_scan(2000, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert report.fitted_c > 0.0
    floor = report.fitted_c * report.ms.astype(np.float64) ** -14.0
    assert np.all(report.values >= floor * (1.0 - 1e-12))
    assert report.worst_exponent >= -14.0

    brute = min(abs(25.0 - TWO_PI * p) for p in range(0, 100))
    rec = divisor(5, 0)
    assert abs(rec.value - brute) < 1e-6
    assert abs(rec.value - 0.132741) < 1e-6
    print(
        f"criterion 7: scan {elapsed*1e3:.0f}ms, fitted_c {report.fitted_c:.3e}, "
        f"worst exponent {report.worst_exponent:.2f}, divisor(5,0) {rec.value:.6f}"
    )


def test_criterion_08_ode_bound_property():
    checked = 0
    for lam in (0.5, -0.5, 2.0, -2.0):
        for seed in range(100):
            chk = ode_bound_check(lam, 1.0, random_forcing(1.0, seed=seed),
                                  nodes=2000)
            assert chk.passed, (lam, seed)
            checked += 1

    worst_cos = 0.0
    for lam in (2.0, -2.0):
        chk = ode_bound_check(lam, 1.0, cosine_forcing(plateau_periods=10),
                              nodes=200_000)
        assert chk.passed
        if lam > 0:
            interior = chk.sup_on(TWO_PI, 2 * TWO_PI)
        else:
            interior = chk.sup_on(6 * TWO_PI, 8 * TWO_PI)
        worst_cos = max(worst_cos, abs(interior - math.sqrt(5.0) / 5.0))
    assert worst_cos < 1e-6
    print(
        f"criterion 8: {checked} forcings within bound, cos closed form off "
        f"by {worst_cos:.2e}"
    )


def test_criterion_09_fixed_point_continuation():
    start = time.monotonic()
    model = potential_model(4)
    points = []
    worst = 0.0
    for n in range(0, 4):
        point = continued(4, n=n, steps=1200)
        points.append(point)
        r1 = fixed_point_residual(model, point, steps=1200)
        r2 = fixed_point_residual(model, point, steps=2400)
        worst = max(worst, r1, r2)
    assert worst < 1e-9
    rep = distinctness_report(points)
    assert rep.min_offdiag > 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"criterion 9: worst residual {worst:.2e} (re-verified at 2x steps), "
        f"min distance {rep.min_offdiag:.3f}, {elapsed:.0f}s"
    )


def test_criterion_10_band_limited_confinement():
    k, ell = 6, 2
    base = cosine_field(k).coeffs
    v = base + 0.5 * np.roll(base, 1) + 0.5 * np.roll(base, -1)
    model = ModelSpec(band_limited_kernel(ell, k), Potential(0.05,
                      SpectralField(k, v)), k)
    result = continue_fixed_point(model, 0)
    assert result.converged
    point = result.final.point
    point_tail = normal_profile(point.field, [ell]).norms[0]
    assert point_tail < 1e-10

    free = model.with_strength(0.0)
    grid = CylinderGrid(S=4.0, N_s=60, N_t=16, k=k)
    left = boundary_orbit(free, mode_point(0, k), 16, side="left")
    right = boundary_orbit(free, point, 16, side="right")
    solve = solve_floer(model, grid, 1.0, (left, right), tol=1e-8)
    assert solve.converged
    state_tail = normal_profile(solve.state, [ell]).norms[0]
    assert state_tail < 1e-10
    print(
        f"criterion 10: point tail {point_tail:.2e}, state tail "
        f"{state_tail:.2e} beyond |n| = {ell}"
    )


def test_criterion_11_cylinder_boundary_value_problem():
    start = time.monotonic()
    model, result = big_solve(200)
    assert result.residual_norm < 1e-6

    hofer = hofer_norm(model)
    bound = 2.0 * hofer.estimate + 1e-3
    assert 0.0 < result.energy <= bound

    endpoint = fs_distance(
        SpectralField(4, result.state.coeffs[-1, 0].copy()), continued(4)
    )
    assert endpoint < 1e-4

    _, doubled = big_solve(400)
    rel_change = abs(doubled.energy - result.energy) / result.energy
    assert rel_change < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"criterion 11: residual {result.residual_norm:.2e}, energy "
        f"{result.energy:.4e} <= {bound:.4e}, endpoint {endpoint:.2e}, "
        f"energy change {rel_change:.2%} on doubling N_s, {elapsed:.0f}s"
    )


def test_criterion_12_decay_and_uniformity():
    point = continued(8)
    prof = normal_profile(point.field, range(1, 6))
    for j in range(prof.weighted.shape[1]):
        assert np.all(np.diff(prof.weighted[:, j]) < 0.0)

    sups = []
    for k in (4, 6, 8):
        model, result = ladder_solve(k)
        rep = gradient_monitor(result.state, model, build_cutoff(1.0))
        sups.append(rep["sup_ds"])
        # tails below the solver tolerance floor (~1e-15) carry no
        # decay information, so the state range stops at ell = 3
        sprof = normal_profile(result.state, range(1, 4))
        for j in range(sprof.weighted.shape[1]):
            assert np.all(np.diff(sprof.weighted[:, j]) < 0.0)
    variation = (max(sups) - min(sups)) / min(sups)
    assert variation < 0.2
    print(
        f"criterion 12: weighted tails decreasing (delta up to 3), sup_ds "
        f"variation {variation:.2e} across k in (4, 6, 8)"
    )
