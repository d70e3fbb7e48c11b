"""Decay profiles, derivative monitors, and distinctness tables."""

import functools
import math

import numpy as np
import pytest

import nlsfloer.diagnostics as diagnostics_module
import nlsfloer.floer as floer_module
from nlsfloer.diagnostics import (
    DELTA_SET,
    DecayProfile,
    distinctness_report,
    gradient_monitor,
    integrate_density,
    normal_profile,
)
from nlsfloer.dynamics import continue_fixed_point, mode_point
from nlsfloer.floer import (
    CylinderGrid,
    FloerState,
    boundary_orbit,
    floer_energy,
    solve_floer,
)
from nlsfloer.model import (
    Hartree,
    ModelSpec,
    Potential,
    cosine_field,
    exponential_kernel,
)

RNG = np.random.default_rng


def potential_model(k=4, eps=0.05):
    return ModelSpec(exponential_kernel(1.0, k), Potential(eps, cosine_field(k)), k)


def random_field(k, rng):
    return rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)


@functools.lru_cache(maxsize=None)
def continued_point(k, eps=0.05, n=0):
    model = potential_model(k, eps)
    result = continue_fixed_point(model, n)
    assert result.converged
    return result.final.point


@functools.lru_cache(maxsize=None)
def solved_potential(k=4, N_s=60, N_t=16, S=4.0, T=1.0):
    model = potential_model(k)
    grid = CylinderGrid(S=S, N_s=N_s, N_t=N_t, k=k, T=T)
    left = boundary_orbit(mode_point(0, k), N_t, side="left")
    right = boundary_orbit(continued_point(k), N_t, side="right")
    result = solve_floer(model, grid, (left, right), tol=1e-8)
    assert result.converged
    return model, grid, result


# ---------------------------------------------------------------------------
# normal_profile on fields


def test_pure_mode_tail_vanishes_at_and_beyond_n():
    k = 6
    for n in range(0, 4):
        u = mode_point(n, k)
        prof = normal_profile(u, range(n, k + 1))
        assert np.all(prof.norms == 0.0)


def test_field_profile_matches_explicit_sum():
    k = 9
    rng = RNG(11)
    for alpha in (0, 1, 2):
        u = random_field(k, rng)
        prof = normal_profile(u, range(0, k + 1), deriv_order=alpha)
        for i, ell in enumerate(prof.ell_values):
            acc = 0.0
            for n in range(-k, k + 1):
                if abs(n) > ell:
                    acc += abs(u[n + k]) ** 2 * (1.0 + n * n) ** alpha
            assert abs(prof.norms[i] - math.sqrt(acc)) < 1e-13


def test_field_profile_nonincreasing_at_alpha_zero():
    rng = RNG(12)
    for _ in range(25):
        k = int(rng.integers(2, 12))
        prof = normal_profile(random_field(k, rng), range(0, k + 1))
        assert np.all(np.diff(prof.norms) <= 1e-15)


def test_weighted_columns_are_norm_times_ell_delta():
    rng = RNG(13)
    prof = normal_profile(random_field(8, rng), range(1, 9), deriv_order=1)
    for j, delta in enumerate(DELTA_SET):
        expect = prof.norms * prof.ell_values.astype(float) ** delta
        assert np.allclose(prof.weighted[:, j], expect, rtol=0, atol=0)


def test_profile_validation():
    u = random_field(4, RNG(0))
    with pytest.raises(ValueError):
        normal_profile(u, [0, 5])
    with pytest.raises(ValueError):
        normal_profile(u, [-1, 2])
    with pytest.raises(ValueError):
        normal_profile(u, [])
    with pytest.raises(ValueError):
        normal_profile(u, [1, 2], deriv_order=3)
    with pytest.raises(ValueError):  # an even length is no bandwidth's 2k+1
        normal_profile(u[1:], [1, 2])


# ---------------------------------------------------------------------------
# normal_profile on cylinder states


def test_state_profile_is_sup_over_nodes():
    k, N_s, N_t = 3, 7, 8
    grid = CylinderGrid(S=2.0, N_s=16, N_t=N_t, k=k, T=0.0)
    rng = RNG(21)
    coeffs = rng.standard_normal((16, N_t, 2 * k + 1)) + 1j * rng.standard_normal(
        (16, N_t, 2 * k + 1)
    )
    state = FloerState(grid, coeffs)
    prof = normal_profile(state, range(0, k + 1))
    for i, ell in enumerate(prof.ell_values):
        best = 0.0
        for a in range(16):
            for b in range(N_t):
                acc = sum(
                    abs(coeffs[a, b, n + k]) ** 2
                    for n in range(-k, k + 1)
                    if abs(n) > ell
                )
                best = max(best, math.sqrt(acc))
        assert abs(prof.norms[i] - best) < 1e-13


def test_state_profile_applies_t_derivative_spectrally():
    # A single (m, p) exponential: the t-derivative multiplies the mode-m
    # row by 2 pi p, so each alpha scales the tail norm by known factors.
    k, p, m = 4, 3, 2
    grid = CylinderGrid(S=2.0, N_s=16, N_t=16, k=k, T=0.0)
    t = grid.t_nodes
    coeffs = np.zeros((16, 16, 2 * k + 1), dtype=np.complex128)
    coeffs[:, :, m + k] = np.exp(2j * np.pi * p * t)[None, :]
    state = FloerState(grid, coeffs)
    base = math.sqrt((1.0 + m * m) ** 0)
    for alpha in (0, 1, 2):
        prof = normal_profile(state, [m - 1], deriv_order=alpha)
        expect = (2.0 * np.pi * p) ** alpha * (1.0 + m * m) ** (alpha / 2.0) * base
        assert abs(prof.norms[0] - expect) < 1e-10 * max(1.0, expect)


def test_state_profile_zero_beyond_constructed_support():
    k, ell = 6, 2
    grid = CylinderGrid(S=2.0, N_s=20, N_t=8, k=k, T=0.0)
    rng = RNG(31)
    coeffs = np.zeros((20, 8, 2 * k + 1), dtype=np.complex128)
    inner = slice(k - ell, k + ell + 1)
    coeffs[:, :, inner] = rng.standard_normal((20, 8, 2 * ell + 1))
    prof = normal_profile(FloerState(grid, coeffs), range(ell, k + 1), deriv_order=2)
    assert np.all(prof.norms == 0.0)


def test_continued_point_weighted_tails_decrease():
    point = continued_point(6)
    for alpha in (0, 1, 2):
        prof = normal_profile(point, range(1, 6), deriv_order=alpha)
        for j in range(len(DELTA_SET)):
            assert np.all(np.diff(prof.weighted[:, j]) < 0.0)


# ---------------------------------------------------------------------------
# gradient_monitor


def test_monitor_constant_state_has_zero_sup_ds():
    k, N_t = 3, 8
    model = potential_model(k)
    grid = CylinderGrid(S=2.0, N_s=24, N_t=N_t, k=k, T=0.0)
    rows = np.tile(mode_point(0, k), (N_t, 1)).astype(np.complex128)
    state = FloerState(grid, np.broadcast_to(rows[None], (24, N_t, grid.dim)).copy())
    rep = gradient_monitor(state, model)
    assert rep["sup_ds"] == 0.0
    assert rep["sup_dt"] == 0.0


def test_monitor_sup_dt_of_oscillating_rows():
    k, p, N_t = 2, 2, 16
    model = potential_model(k)
    grid = CylinderGrid(S=2.0, N_s=20, N_t=N_t, k=k, T=0.0)
    t = grid.t_nodes
    coeffs = np.zeros((20, N_t, grid.dim), dtype=np.complex128)
    coeffs[:, :, k] = np.exp(2j * np.pi * p * t)[None, :]
    rep = gradient_monitor(FloerState(grid, coeffs), model)
    assert abs(rep["sup_dt"] - 2.0 * np.pi * p) < 1e-10
    assert rep["sup_ds"] < 1e-12


def test_monitor_density_integrates_to_energy():
    model, grid, result = solved_potential()
    rep = gradient_monitor(result.state, model)
    emap = rep["energy_density_map"]
    assert emap.shape == (grid.N_s, grid.N_t)
    assert np.all(emap >= 0.0)
    E = floer_energy(model, result.state)
    assert abs(integrate_density(result.state, emap) - E) < 1e-8
    assert rep["sup_ds"] > 0.0


def test_monitor_evaluates_the_state_once(monkeypatch):
    # sup_ds, sup_dt and the density map all read one _equation pass, and
    # that pass takes the state's t-derivative once
    model, _, result = solved_potential()
    calls = {"_dt_spectral": 0, "_equation": 0}
    for module in (floer_module, diagnostics_module):
        for name in calls:
            inner = getattr(module, name)

            def wrapper(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    rep = gradient_monitor(result.state, model)
    assert calls == {"_dt_spectral": 1, "_equation": 1}
    assert rep["sup_ds"] > 0.0 and rep["sup_dt"] > 0.0


def test_monitor_rejects_bandwidth_mismatch():
    model = potential_model(5)
    grid = CylinderGrid(S=2.0, N_s=16, N_t=8, k=3, T=0.0)
    coeffs = np.zeros((16, 8, grid.dim), dtype=np.complex128)
    coeffs[:, :, 3] = 1.0
    with pytest.raises(ValueError):
        gradient_monitor(FloerState(grid, coeffs), model)


def test_integrate_density_shape_check():
    _, grid, result = solved_potential()
    with pytest.raises(ValueError):
        integrate_density(result.state, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# distinctness_report


def test_orthogonal_modes_are_half_pi_apart():
    pts = [mode_point(n, 5) for n in (0, 1, 2)]
    rep = distinctness_report(pts)
    off = rep.distances[~np.eye(3, dtype=bool)]
    assert np.allclose(off, np.pi / 2.0, atol=1e-12)
    assert rep.flagged == ()
    assert abs(rep.min_offdiag - np.pi / 2.0) < 1e-12


def test_duplicate_point_is_flagged_at_zero():
    a = mode_point(1, 4)
    b = mode_point(2, 4)
    rep = distinctness_report([a, b, a])
    assert (0, 2) in rep.flagged
    assert rep.distances[0, 2] == 0.0


def test_report_symmetric_zero_diagonal_phase_invariant():
    rng = RNG(41)
    pts = [random_field(4, rng) for _ in range(4)]
    rep = distinctness_report(pts)
    assert np.allclose(rep.distances, rep.distances.T, atol=0)
    assert np.all(np.diag(rep.distances) == 0.0)
    rotated = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * p
               for p in pts]
    rep2 = distinctness_report(rotated)
    assert np.allclose(rep.distances, rep2.distances, atol=1e-12)


def test_report_validation():
    with pytest.raises(ValueError):
        distinctness_report([mode_point(0, 3)])
    with pytest.raises(ValueError):
        distinctness_report([mode_point(0, 3), mode_point(1, 3)], threshold=-1.0)


def test_continued_family_pairwise_distant():
    pts = [continued_point(4, n=n) for n in range(0, 3)]
    rep = distinctness_report(pts)
    assert rep.flagged == ()
    assert rep.min_offdiag > 0.5
