"""Cylinder boundary-value machinery: cutoffs, residual, solver, slices."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import nlsfloer.floer as floer_module
import nlsfloer.model as model_module
from nlsfloer.dynamics import (
    continue_fixed_point,
    evolve_many,
    fs_distance,
    gauge_fix,
    mode_point,
)
from nlsfloer.floer import (
    CylinderGrid,
    FloerState,
    _dt_spectral,
    _equation,
    _GaussNewtonOperator,
    boundary_orbit,
    build_initial_guess,
    extract_slices,
    floer_energy,
    floer_residual,
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
    exponential_kernel,
    galerkin_gap,
    grad_F_tangent,
    hofer_norm,
)
from reference import cutoff_slope, floer_residual_twisted, grad_rows

RNG = np.random.default_rng


def potential_model(k=4, eps=0.05):
    return ModelSpec(exponential_kernel(1.0, k), Potential(eps, cosine_field(k)), k)


def hartree_model(k=3, eps=0.1):
    return ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)


def quadratic_model(k=4, eps=0.05):
    """A density with a nonzero second derivative, modulated in t."""
    return ModelSpec(exponential_kernel(1.0, k), TimeModulated(Quadratic(eps)), k)


def constant_rows(point, N_t):
    return np.tile(point, (N_t, 1)).astype(np.complex128)


def frozen_state(grid, rows):
    full = np.broadcast_to(rows[None], (grid.N_s, grid.N_t, grid.dim)).copy()
    return FloerState(grid, full)


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
    return model, grid, solve_floer(model, grid, (left, right), tol=1e-8)


@functools.lru_cache(maxsize=None)
def solved_quadratic(k=4, N_s=32, N_t=16, S=4.0, T=1.0):
    model = quadratic_model(k)
    grid = CylinderGrid(S=S, N_s=N_s, N_t=N_t, k=k, T=T)
    mix = np.zeros(2 * k + 1, dtype=np.complex128)
    mix[k], mix[k + 1] = 0.8, 0.6
    left = boundary_orbit(mode_point(0, k), N_t, side="left")
    right = boundary_orbit(gauge_fix(mix), N_t, side="right")
    return model, grid, solve_floer(model, grid, (left, right), tol=1e-8)


# ---------------------------------------------------------------------------
# cutoff family


def cutoff_grid(T):
    """The narrowest grid that holds the cutoff support [-1, 2T + 1]."""
    return CylinderGrid(S=2.0 * T + 2.0, N_s=16, N_t=8, k=0, T=T)


def test_cutoff_T0_identically_zero():
    cut = cutoff_grid(0.0)
    s = np.linspace(-5, 5, 301)
    assert np.all(cut.phi(s) == 0.0)
    assert np.all(cutoff_slope(cut, s) == 0.0)


def test_cutoff_endpoint_values():
    cut = cutoff_grid(1.0)
    vals = cut.phi(np.array([-1.0, 0.0, 2.0, 3.0]))
    assert np.allclose(vals, [0.0, 1.0, 1.0, 0.0], atol=1e-15)
    # the support is exactly [-1, 3]: zero at and beyond its ends, positive inside
    assert np.all(cut.phi(np.array([-1.5, -1.0, 3.0, 3.5])) == 0.0)
    assert np.all(cut.phi(np.array([-0.9, 2.9])) > 0.0)


def test_cutoff_plateau_and_off_regions():
    cut = cutoff_grid(2.0)
    s = np.linspace(0.0, 4.0, 97)
    assert np.all(cut.phi(s) == 1.0)
    off = np.array([-3.0, -1.0, 5.0, 8.0])
    assert np.all(cut.phi(off) == 0.0)


def test_cutoff_slope_bounds_and_signs():
    cut = cutoff_grid(1.5)
    up = np.linspace(-1.0, 0.0, 401)
    down = np.linspace(3.0, 4.0, 401)
    assert np.all(cutoff_slope(cut, up) >= 0.0)
    assert np.all(cutoff_slope(cut, up) <= 2.0 + 1e-12)
    assert np.all(cutoff_slope(cut, down) <= 0.0)
    assert np.all(cutoff_slope(cut, down) >= -2.0 - 1e-12)
    assert np.all((cut.phi(up) >= 0.0) & (cut.phi(up) <= 1.0))


def test_cutoff_max_slope_is_two_at_midpoint():
    cut = cutoff_grid(1.0)
    s = np.linspace(-1.0, 0.0, 20001)
    slopes = cutoff_slope(cut, s)
    i = np.argmax(slopes)
    assert abs(slopes[i] - 2.0) < 1e-6
    assert abs(s[i] - (-0.5)) < 1e-3


def test_cutoff_slope_matches_finite_differences():
    cut = cutoff_grid(1.0)
    s = np.linspace(-0.95, -0.05, 61)
    h = 1e-6
    fd = (cut.phi(s + h) - cut.phi(s - h)) / (2 * h)
    assert np.max(np.abs(fd - cutoff_slope(cut, s))) < 1e-7


def test_cutoff_rejects_negative_T():
    with pytest.raises(ValueError, match="T must be nonnegative"):
        CylinderGrid(S=4.0, N_s=16, N_t=8, k=0, T=-0.1)


# ---------------------------------------------------------------------------
# grid and state


def test_grid_validation():
    with pytest.raises(ValueError):
        CylinderGrid(S=4.0, N_s=8, N_t=16, k=2, T=1.0)
    with pytest.raises(ValueError):
        CylinderGrid(S=4.0, N_s=32, N_t=4, k=2, T=1.0)
    with pytest.raises(ValueError):
        CylinderGrid(S=0.5, N_s=32, N_t=16, k=2, T=0.0)
    grid = CylinderGrid(S=3.0, N_s=31, N_t=10, k=2, T=0.5)
    assert grid.s_nodes[0] == -3.0 and grid.s_nodes[-1] == 3.0
    assert grid.ds == pytest.approx(6.0 / 30)
    assert grid.t_nodes[0] == 0.0 and grid.t_nodes[-1] == pytest.approx(0.9)


def test_state_validation():
    grid = CylinderGrid(S=3.0, N_s=20, N_t=8, k=2, T=0.0)
    with pytest.raises(ValueError):
        FloerState(grid, np.zeros((20, 8, 4), dtype=complex))
    bad = np.ones((20, 8, 5), dtype=complex)
    bad[3, 2, 1] = np.nan
    with pytest.raises(ValueError):
        FloerState(grid, bad)


# ---------------------------------------------------------------------------
# boundary orbits


def test_boundary_orbit_pure_mode_is_constant():
    for n in (-2, 0, 1):
        rows = boundary_orbit(mode_point(n, 3), 16)
        assert np.allclose(rows, rows[0][None], atol=1e-15)
        assert np.allclose(rows[0], mode_point(n, 3), atol=1e-15)


def test_boundary_orbit_t0_row_is_the_point():
    k = 4
    point = continued_point(k)
    rows = boundary_orbit(point, 32, side="right")
    assert np.allclose(rows[0], point, atol=1e-14)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-14)


def test_boundary_orbit_rows_band_limited_in_t():
    k = 4
    rows = boundary_orbit(continued_point(k), 32, side="right")
    bins = np.fft.fft(rows, axis=0) / 32
    # each space mode occupies a single t-frequency bin
    for m in range(2 * k + 1):
        mags = np.sort(np.abs(bins[:, m]))[::-1]
        assert mags[1] < 1e-14


def test_boundary_orbit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        boundary_orbit(mode_point(0, 3), 16, side="middle")
    # rows of another bandwidth are caught by the solve's row-shape check
    grid = CylinderGrid(S=4.0, N_s=20, N_t=16, k=3, T=1.0)
    rows = boundary_orbit(mode_point(0, 3), 16)
    narrow = boundary_orbit(mode_point(0, 2), 16)
    with pytest.raises(ValueError, match="boundary rows"):
        solve_floer(potential_model(3), grid, (narrow, rows))


def test_initial_guess_interpolates_boundaries():
    k = 2
    grid = CylinderGrid(S=4.0, N_s=24, N_t=8, k=k, T=1.0)
    left = constant_rows(mode_point(0, k), 8)
    right = constant_rows(mode_point(1, k), 8)
    guess = build_initial_guess(grid, left, right)
    assert np.allclose(guess.coeffs[0], left, atol=1e-15)
    assert np.allclose(guess.coeffs[-1], right, atol=1e-15)
    assert np.allclose(np.linalg.norm(guess.coeffs, axis=-1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_on_free_orbit_at_T0():
    k = 3
    model = potential_model(k).with_strength(0.0)
    grid = CylinderGrid(S=4.0, N_s=40, N_t=32, k=k, T=0.0)
    rows = boundary_orbit(mode_point(1, k), 32)
    res = floer_residual(model, frozen_state(grid, rows))
    assert res.norm < 1e-10


def test_residual_zero_for_constant_nonlinearity_any_T():
    k = 3
    model = ModelSpec(exponential_kernel(1.0, k), Constant(0.3), k)
    rows = boundary_orbit(mode_point(1, k), 16)
    for T in (0.0, 0.5, 1.0, 2.0):
        grid = CylinderGrid(S=6.0, N_s=40, N_t=16, k=k, T=T)
        assert floer_residual(model, frozen_state(grid, rows)).norm < 1e-12


def test_residual_frozen_orbit_positive_and_localized():
    k = 4
    model = potential_model(k)
    grid = CylinderGrid(S=4.0, N_s=80, N_t=16, k=k, T=1.0)
    rows = boundary_orbit(mode_point(1, k), 16)
    res = floer_residual(model, frozen_state(grid, rows))
    assert res.norm > 1e-3
    profile = np.sum(np.abs(res.field) ** 2, axis=(1, 2))
    s = grid.s_nodes[1:-1]
    outside = profile[(s <= -1.5) | (s >= 3.5)]
    assert np.all(outside < 1e-28)


def test_residual_twisted_picture_agreement():
    k = 3
    model = potential_model(k, eps=0.08)
    grid = CylinderGrid(S=3.0, N_s=24, N_t=8, k=k, T=0.5)
    rng = RNG(11)
    arr = rng.standard_normal((24, 8, 7)) + 1j * rng.standard_normal((24, 8, 7))
    arr /= np.linalg.norm(arr, axis=-1, keepdims=True)
    state = FloerState(grid, arr)
    a = floer_residual(model, state)
    b = floer_residual_twisted(model, state)
    assert abs(a.norm - b.norm) < 1e-12
    assert np.max(np.abs(a.field - b.field)) < 1e-12


@pytest.mark.parametrize("kind", ["potential", "modulated", "quadratic"])
def test_equation_on_the_node_array_is_bitwise_the_flattened_gradient(
    kind, monkeypatch
):
    # the reference hands grad_F_many the nodes as one flat batch with t
    # tiled alongside.  For quadratic, _equation hands it the (N_s, N_t, dim)
    # array and must give the same bits; for a linear density it applies
    # a(t) G0 per node instead and must agree to 1e-14 of the gradient's
    # scale.  The strength of 40 makes the gradient the largest term of
    # tpart, so rounding in the sum with D_t v stays below that bound.
    k = 3
    ker = exponential_kernel(1.0, k)
    density = {
        "potential": Potential(40.0, cosine_field(k)),
        "modulated": TimeModulated(Potential(40.0, cosine_field(k))),
        "quadratic": Quadratic(0.08),
    }[kind]
    model = ModelSpec(ker, density, k)
    grid = CylinderGrid(S=3.0, N_s=24, N_t=8, k=k, T=0.5)
    rng = RNG(17)
    state = FloerState(
        grid, rng.standard_normal((24, 8, 7)) + 1j * rng.standard_normal((24, 8, 7))
    )
    eq = _equation(model, state)
    monkeypatch.setattr(floer_module, "gradient_matrix", lambda model: None)
    monkeypatch.setattr(floer_module, "grad_F_many", grad_rows)
    flat = _equation(model, state)
    assert np.array_equal(eq.Ds, flat.Ds)
    if kind == "quadratic":
        assert np.array_equal(eq.tpart, flat.tpart)
    else:
        scale = np.max(np.abs(grad_rows(model, state.normalized(), grid.t_nodes)))
        assert np.max(np.abs(eq.tpart - flat.tpart)) <= 1e-14 * scale


def test_residual_bandwidth_mismatch():
    grid = CylinderGrid(S=3.0, N_s=20, N_t=8, k=2, T=0.0)
    state = frozen_state(grid, constant_rows(mode_point(0, 2), 8))
    with pytest.raises(ValueError):
        floer_residual(potential_model(3), state)


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_on_free_orbit():
    k = 3
    model = potential_model(k).with_strength(0.0)
    grid = CylinderGrid(S=4.0, N_s=40, N_t=32, k=k, T=0.0)
    rows = boundary_orbit(mode_point(2, k), 32)
    E = floer_energy(model, frozen_state(grid, rows))
    assert E < 1e-10


def test_energy_positive_on_frozen_orbit():
    k = 4
    model = potential_model(k)
    grid = CylinderGrid(S=4.0, N_s=60, N_t=16, k=k, T=1.0)
    rows = boundary_orbit(mode_point(1, k), 16)
    E = floer_energy(model, frozen_state(grid, rows))
    assert E > 1e-6


# ---------------------------------------------------------------------------
# solver


def test_solve_free_model_zero_iterations():
    k = 3
    model = potential_model(k).with_strength(0.0)
    grid = CylinderGrid(S=4.0, N_s=40, N_t=8, k=k, T=0.0)
    rows = boundary_orbit(mode_point(1, k), 8)
    result = solve_floer(model, grid, (rows, rows), tol=1e-8)
    assert result.converged
    assert result.iterations == 0
    assert result.residual_norm < 1e-12
    assert result.energy < 1e-12


def test_solve_hartree_matching_boundaries_is_stationary():
    model = hartree_model()
    grid = CylinderGrid(S=4.0, N_s=40, N_t=8, k=3, T=1.0)
    rows = boundary_orbit(mode_point(1, 3), 8)
    result = solve_floer(model, grid, (rows, rows), tol=1e-8)
    assert result.converged
    assert result.iterations == 0
    # diagonal closed form: the orbit is projectively stationary, energy 0
    assert result.energy < 1e-10


def test_solve_hartree_matches_per_mode_ode_oracle():
    # perturbing the right boundary in single (mode, frequency) bins makes
    # the linearization exact up to O(delta^2); each bin solves its own
    # central-difference two-point problem, built here independently
    k = 3
    eps = 0.1
    model = hartree_model(k, eps)
    psi2 = model.kernel.coeff_array(k) ** 2
    n = 0
    N_s, N_t, T = 48, 8, 1.0
    grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k, T=T)
    left = constant_rows(mode_point(n, k), N_t)
    delta = 1e-3
    t = np.arange(N_t) / N_t
    right = constant_rows(mode_point(n, k), N_t)
    right[:, k + 1] += delta
    right[:, k - 2] += delta * np.exp(2j * np.pi * t)
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    result = solve_floer(model, grid, (left, right), tol=1e-10, max_iter=10)
    assert result.converged

    phi = grid.phi(grid.s_nodes)

    def ode_solution(m, p):
        lam = 2 * np.pi * p + m**2 - n**2 + phi * eps * (psi2[k + m] - psi2[k + n])
        A = np.zeros((N_s - 2, N_s - 2), dtype=np.complex128)
        rhs = np.zeros(N_s - 2, dtype=np.complex128)
        for i in range(1, N_s - 1):
            r = i - 1
            A[r, r] = -lam[i]
            if r - 1 >= 0:
                A[r, r - 1] = -1 / (2 * grid.ds)
            if r + 1 <= N_s - 3:
                A[r, r + 1] = 1 / (2 * grid.ds)
        rhs[-1] -= delta / (2 * grid.ds)
        return np.linalg.solve(A, rhs)

    bins = np.fft.fft(result.state.coeffs, axis=1) / N_t
    for m, p, sl in ((1, 0, bins[1:-1, 0, k + 1]), (-2, 1, bins[1:-1, 1, k - 2])):
        diff = np.max(np.abs(sl - ode_solution(m, p)))
        assert diff < 5e-9


def test_solve_potential_end_to_end():
    model, grid, result = solved_potential()
    assert result.converged
    assert result.message == "converged"
    assert result.iterations == len(result.history) - 1
    assert result.residual_norm == result.history[-1]["residual_norm"]
    assert result.energy == result.history[-1]["energy"]
    assert result.residual_norm < 1e-6
    bound = 2.0 * hofer_norm(model).estimate + 1e-3
    assert 0.0 < result.energy <= bound
    u1 = continued_point(4)
    assert fs_distance(result.state.coeffs[-1, 0], u1) < 1e-4


def test_solve_pins_boundary_rows():
    _, grid, result = solved_potential()
    left = boundary_orbit(mode_point(0, 4), grid.N_t, side="left")
    right = boundary_orbit(continued_point(4), grid.N_t, side="right")
    assert np.allclose(result.state.coeffs[0], left, atol=1e-13)
    assert np.allclose(result.state.coeffs[-1], right, atol=1e-13)


def test_solve_history_schema():
    _, _, result = solved_potential()
    assert result.history[0]["iteration"] == 0
    assert result.history[0]["lsmr_itn"] == 0
    assert result.history[0]["lsmr_istop"] is None
    assert result.history[0]["retries"] == 0
    for row in result.history:
        assert set(row) == {
            "iteration", "residual_norm", "energy", "damping", "lsmr_itn", "lsmr_istop",
            "retries", "wall_s",
        }
        assert row["wall_s"] > 0.0
    for row in result.history[1:]:
        assert row["lsmr_itn"] > 0
        assert row["lsmr_istop"] in range(8)
        assert row["retries"] >= 0
    drops = [h["residual_norm"] for h in result.history]
    assert drops[-1] < drops[0]


@pytest.mark.parametrize("solve", [solved_potential, solved_quadratic])
def test_solve_lsmr_iterations_stay_small(solve):
    # the free-operator preconditioner leaves only the phi H and projection
    # terms for LSMR; unpreconditioned, these solves took hundreds of steps
    _, _, result = solve()
    assert result.converged
    for row in result.history[1:]:
        assert row["lsmr_itn"] <= 50


def _free_operator(op, X, adjoint=False):
    """A0 = D_s + i D_t - n^2 (or its adjoint) on interior rows, zero ends."""
    ds = -op._ds(X) if adjoint else op._ds(X)
    return ds + 1j * _dt_spectral(X) - op.n2[None, None, :] * X


@pytest.mark.parametrize("N_s", [16, 17])
def test_free_inverse_sweep_and_adjoint(N_s):
    k, N_t = 4, 8
    grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k, T=1.0)
    shape = (N_s - 2, N_t, grid.dim)
    rng = RNG(N_s)

    def field():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    V = field()
    V /= np.linalg.norm(V, axis=-1, keepdims=True)
    hessian = grad_F_tangent(quadratic_model(k), V, grid.t_nodes)
    phi = grid.phi(grid.s_nodes)
    lam = rng.normal(size=shape[:2]) + 1j * rng.normal(size=shape[:2])
    op = _GaussNewtonOperator(grid, V, hessian, phi, lam, 1e-3)

    # every mode but the shifted (p, m) = (0, 0) block is inverted exactly
    R = np.fft.fft(field(), axis=1)
    R[:, 0, k] = 0.0
    R = np.fft.ifft(R, axis=1)
    for adjoint in (False, True):
        X = op.free(R, adjoint=adjoint)
        assert np.max(np.abs(_free_operator(op, X, adjoint) - R)) < 1e-12

    # the adjoint pair covers every term, the complex node overlap lam too
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    Jx = op.matvec(x)
    scale = np.linalg.norm(y) * np.linalg.norm(Jx)
    assert abs(y @ Jx - x @ op.rmatvec(y)) < 1e-12 * scale


@pytest.mark.parametrize("N_s", [16, 17])
def test_step_is_horizontal(N_s):
    # the step removes each node's complex line, phase direction i V
    # included, so it moves no node along its own phase
    k, N_t = 4, 8
    grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k, T=1.0)
    shape = (N_s - 2, N_t, grid.dim)
    rng = RNG(N_s)
    V = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    V /= np.linalg.norm(V, axis=-1, keepdims=True)
    hessian = grad_F_tangent(potential_model(k), V, grid.t_nodes)
    phi = grid.phi(grid.s_nodes)
    lam = rng.normal(size=shape[:2]) + 1j * rng.normal(size=shape[:2])
    op = _GaussNewtonOperator(grid, V, hessian, phi, lam, 1e-3)
    delta = op.step(rng.normal(size=op.shape[1]))
    overlap = np.sum(delta * np.conj(V), axis=-1)
    assert np.max(np.abs(overlap)) < 1e-14 * np.max(np.abs(delta))


def test_operator_applies_a_linear_density_without_transforms(monkeypatch):
    # for power <= 1 the Hessian is the matmul a(t) (delta @ G0), built once
    # per step, so matvec and rmatvec synthesize and analyze nothing
    k, N_s, N_t = 4, 16, 8
    grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k, T=1.0)
    rng = RNG(5)
    V = rng.normal(size=(N_s - 2, N_t, grid.dim)) + 1j * rng.normal(
        size=(N_s - 2, N_t, grid.dim)
    )
    V /= np.linalg.norm(V, axis=-1, keepdims=True)
    hessian = grad_F_tangent(potential_model(k), V, grid.t_nodes)
    phi = grid.phi(grid.s_nodes)
    lam = rng.normal(size=V.shape[:2]) + 1j * rng.normal(size=V.shape[:2])
    op = _GaussNewtonOperator(grid, V, hessian, phi, lam, 1e-3)
    calls = []
    for name in ("synthesize_many", "analyze_many"):
        inner = getattr(model_module, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(model_module, name, counted)
    op.rmatvec(op.matvec(rng.normal(size=op.shape[1])))
    assert calls == []


def test_solve_partial_result_when_budget_exhausted():
    # bare mode 1 against the even pair: the solve converges given more
    # steps, so only the budget of 2 stops it, and the solver must hand
    # back the partial state with diagnostics
    k = 4
    model = potential_model(k)
    grid = CylinderGrid(S=4.0, N_s=30, N_t=8, k=k, T=1.0)
    left = boundary_orbit(mode_point(1, k), 8, side="left")
    pair = np.zeros(2 * k + 1, dtype=np.complex128)
    pair[k + 1] = pair[k - 1] = 1.0 / math.sqrt(2.0)
    right = boundary_orbit(gauge_fix(pair), 8, side="right")
    result = solve_floer(model, grid, (left, right), tol=1e-10, max_iter=2)
    assert not result.converged
    assert result.message == "iteration budget exhausted"
    assert len(result.history) == 3
    assert result.iterations == len(result.history) - 1
    assert result.residual_norm == result.history[-1]["residual_norm"]
    assert result.energy == result.history[-1]["energy"]
    assert result.state.coeffs.shape == (30, 8, 9)


def test_free_cylinder_energy_is_the_action_difference():
    # for an s-independent Hamiltonian a cylinder's energy is the action
    # difference of its ends, n^2 / 2 from mode 0 to the even n point in
    # the free model; the central difference makes the error O(ds^2).
    # Wider or finer free windows are near-singular (s-translation family)
    k, N_t = 4, 32
    pair = np.zeros(2 * k + 1, dtype=np.complex128)
    pair[k + 1] = pair[k - 1] = 1.0 / math.sqrt(2.0)
    left = boundary_orbit(mode_point(0, k), N_t, side="left")
    right = boundary_orbit(gauge_fix(pair), N_t, side="right")
    errors = []
    for N_s in (32, 64, 128):
        grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k, T=1.0)
        result = solve_floer(potential_model(k, eps=0.0), grid, (left, right))
        assert result.converged, N_s
        errors.append(abs(result.energy - 0.5))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5
    assert errors[2] < 3e-4


def test_cylinder_to_a_continued_mode_1_converges_under_s_refinement():
    # the horizontal step leaves no per-node phase in the unknowns, so the
    # n != 0 cylinder converges at every N_s with no damping retry, and its
    # energy settles at the central difference's second order
    k, N_t = 4, 16
    model = potential_model(k)
    left = boundary_orbit(mode_point(0, k), N_t, side="left")
    right_point = continue_fixed_point(model, 1, steps=30).final.point
    right = boundary_orbit(right_point, N_t, side="right")
    energies = []
    for N_s in (32, 64, 128):
        grid = CylinderGrid(S=4.0, N_s=N_s, N_t=N_t, k=k, T=1.0)
        result = solve_floer(model, grid, (left, right), max_iter=10)
        assert result.converged, N_s
        assert all(row["retries"] == 0 for row in result.history), N_s
        energies.append(result.energy)
    assert abs(energies[1] - energies[0]) >= 3.0 * abs(energies[2] - energies[1])


def test_solve_evaluates_each_state_once(monkeypatch):
    # the initial guess and every trial step cost one evaluation each:
    # residual, energy and history all read that one evaluation
    calls = {"_equation": 0, "lsmr": 0}

    def counted(name):
        inner = getattr(floer_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(floer_module, name, wrapper)

    counted("_equation")
    counted("lsmr")
    k, N_t = 4, 32
    model = potential_model(k)
    grid = CylinderGrid(S=4.0, N_s=32, N_t=N_t, k=k, T=1.0)
    left = boundary_orbit(mode_point(0, k), N_t, side="left")
    right = boundary_orbit(mode_point(0, k), N_t, side="right")
    result = solve_floer(model, grid, (left, right), tol=1e-8)
    assert result.converged
    assert calls["lsmr"] >= 1
    assert calls["_equation"] == 1 + calls["lsmr"]


def test_result_keeps_the_accepted_evaluation_when_damping_runs_out(monkeypatch):
    # the first Gauss-Newton step is accepted; every later trial is a large
    # random step and is rejected until the damping runs out, so the last
    # evaluation made is a rejected trial's, not that of result.state
    real_lsmr = floer_module.lsmr
    rng = RNG(3)
    calls = []

    def lsmr(op, rhs, **kwargs):
        calls.append(None)
        sol = real_lsmr(op, rhs, **kwargs)
        if len(calls) == 1:
            return sol
        return (10.0 * rng.standard_normal(rhs.size),) + tuple(sol[1:])

    monkeypatch.setattr(floer_module, "lsmr", lsmr)
    k, N_t = 3, 8
    model = potential_model(k)
    grid = CylinderGrid(S=4.0, N_s=24, N_t=N_t, k=k, T=1.0)
    left = boundary_orbit(mode_point(0, k), N_t, side="left")
    right = boundary_orbit(mode_point(0, k), N_t, side="right")
    result = solve_floer(model, grid, (left, right), tol=1e-12)
    assert result.message.startswith("damping exhausted")
    assert result.iterations == 2
    assert result.iterations == len(result.history) - 1
    assert result.residual_norm == result.history[-1]["residual_norm"]
    assert result.energy == result.history[-1]["energy"]
    assert len(calls) > 2
    fresh = _equation(model, result.state)
    for name in ("ds_v", "dt_v", "Ds", "tpart"):
        assert np.array_equal(getattr(result.equation, name), getattr(fresh, name))
    assert result.residual_norm == fresh.residual().norm
    assert result.residual_norm == result.history[1]["residual_norm"]
    assert result.energy == fresh.energy()
    # each rejected trial of the last step raised the damping once
    assert [h["retries"] for h in result.history] == [0, 0, len(calls) - 1]


def test_solve_validates_setup():
    k = 2
    model = potential_model(k)
    grid = CylinderGrid(S=4.0, N_s=20, N_t=8, k=k, T=1.0)
    rows = constant_rows(mode_point(0, k), 8)
    with pytest.raises(ValueError):
        solve_floer(potential_model(3), grid, (rows, rows))
    with pytest.raises(ValueError, match="cutoff support"):
        CylinderGrid(S=4.0, N_s=20, N_t=8, k=k, T=2.0)  # support [-1,5] vs S=4
    with pytest.raises(ValueError, match="cutoff support"):
        CylinderGrid(S=3.0, N_s=20, N_t=8, k=k, T=1.0)  # support [-1,3] touches S=3


# ---------------------------------------------------------------------------
# confinement and refinement


def test_band_limited_confinement():
    k = 4
    model = ModelSpec(band_limited_kernel(1, k), Potential(0.05, cosine_field(k)), k)
    cont = continue_fixed_point(model, 0)
    assert cont.converged
    modes = np.abs(np.arange(-k, k + 1))
    assert np.linalg.norm(cont.final.point[modes > 1]) < 1e-10
    grid = CylinderGrid(S=4.0, N_s=40, N_t=8, k=k, T=1.0)
    left = boundary_orbit(mode_point(0, k), 8, side="left")
    right = boundary_orbit(cont.final.point, 8, side="right")
    result = solve_floer(model, grid, (left, right), tol=1e-8)
    assert result.converged
    tail = np.abs(result.state.coeffs[:, :, modes > 1])
    assert np.max(tail) < 1e-10


def test_energy_stable_under_s_refinement():
    _, _, coarse = solved_potential(N_s=60)
    _, _, fine = solved_potential(N_s=120)
    assert coarse.converged and fine.converged
    assert abs(fine.energy - coarse.energy) / coarse.energy < 0.01


def test_k_refinement_cauchy_property():
    # the bandwidth-4 model only ever sees kernel modes |n| <= 4, so the
    # two cached solves share one smooth kernel truncated at each level
    _, _, res4 = solved_potential(k=4, N_s=48, N_t=8)
    _, _, res6 = solved_potential(k=6, N_s=48, N_t=8)
    assert res4.converged and res6.converged
    c6 = res6.state.coeffs[:, :, 2:-2]
    diff = np.max(np.abs(c6 - res4.state.coeffs))
    shared = ModelSpec(
        exponential_kernel(1.0, 6), Potential(0.05, cosine_field(6)), 6
    )
    gap = galerkin_gap(shared, 4, R=1.0).grad_gap
    assert gap > 0.0
    assert diff < gap


# ---------------------------------------------------------------------------
# slices


def test_slices_constant_orbit_all_qualify():
    k = 3
    model = potential_model(k).with_strength(0.0)
    grid = CylinderGrid(S=6.0, N_s=60, N_t=16, k=k, T=0.0)
    rows = boundary_orbit(mode_point(1, k), 16)
    state = frozen_state(grid, rows)
    report = extract_slices(_equation(model, state), gamma_max=3)
    assert [(r.gamma, r.side) for r in report] == [
        (g, side) for g in (1, 2, 3) for side in ("left", "right")
    ]
    for r in report:
        assert r.count > 0
        assert r.criterion < 1e-20
        assert r.distance < 1e-12


def test_slices_thresholds_follow_pi_over_gamma():
    # every node's criterion is set to one value: a window qualifies exactly
    # when value < pi / gamma (2.0 at gamma = 1 only, 0.9 up to gamma = 3)
    k = 3
    model = potential_model(k).with_strength(0.0)
    grid = CylinderGrid(S=6.0, N_s=60, N_t=16, k=k, T=0.0)
    state = frozen_state(grid, boundary_orbit(mode_point(0, k), 16))
    equation = _equation(model, state)
    for value, qualifying in ((2.0, {1}), (0.9, {1, 2, 3})):
        tpart = np.zeros_like(equation.tpart)
        tpart[..., 0] = math.sqrt(value)
        report = extract_slices(dataclasses.replace(equation, tpart=tpart), 4)
        assert [r.gamma for r in report] == [1, 1, 2, 2, 3, 3, 4, 4]
        for r in report:
            if r.gamma in qualifying:
                assert r.count > 0
                assert r.criterion == pytest.approx(value)
            else:
                assert r.count == 0
                assert math.isnan(r.s) and math.isnan(r.criterion)


def test_slices_on_converged_state():
    _, grid, result = solved_potential()
    report = extract_slices(result.equation, gamma_max=2)
    for r in report[:2]:
        assert r.gamma == 1 and r.count > 0
        assert r.criterion < math.pi
        # the slices sit on the curve's decaying tails, order eps * dressing
        assert r.distance < 0.02
    # left free region: the criterion profile improves toward the wall;
    # stride two cancels the scheme's alternating branch (1e-7 ripple)
    s = grid.s_nodes
    criterion = grid.dt * result.equation.t_map().sum(axis=1)
    prof = criterion[(s >= -3.5) & (s <= -1.5)]
    assert np.all(np.diff(prof[::2]) >= 0.0)
    assert np.all(np.diff(prof[1::2]) >= 0.0)


def test_slices_never_report_the_pinned_end_rows():
    # the gamma = 2 windows reach s = -4 and s = 4, the Dirichlet rows the
    # solve pins at distance 0; the right one holds no other node
    _, grid, result = solved_potential()
    report = extract_slices(result.equation, gamma_max=2)
    assert all(abs(r.s) != grid.S for r in report)
    left2, right2 = report[2:]
    assert left2.count > 0 and left2.distance > 0.0
    assert right2.count == 0 and math.isnan(right2.distance)


def test_slices_empty_window_reported_not_raised():
    _, _, result = solved_potential()
    report = extract_slices(result.equation, gamma_max=4)
    # gamma = 4 window [7, 11] lies beyond S = 4 on the right
    r = report[-1]
    assert (r.gamma, r.side, r.count) == (4, "right", 0)
    assert math.isnan(r.s) and math.isnan(r.criterion) and math.isnan(r.distance)


def test_slices_validation():
    _, _, result = solved_potential()
    with pytest.raises(ValueError):
        extract_slices(result.equation, gamma_max=0)


def _even_point(n, k):
    """Mode 0, or the even pair (e_n + e_-n) / sqrt 2: a free fixed point."""
    c = np.zeros(2 * k + 1, dtype=np.complex128)
    c[k + n] = c[k - n] = 1.0
    return gauge_fix(c)


def test_free_ended_cylinders_find_the_periodic_orbits():
    # Floer curves of H0 + phi_T(s) F with the same free orbit at both ends:
    # the energy stays within the Hofer bound, so on the plateau phi = 1 the
    # t = 0 row at s = T must approach a fixed point of the full time-one map
    # U as T grows.  The potential flow is linear and even, so the target is
    # U's eigenvector in the even sector nearest the end point.
    k, N_t = 4, 32
    model = potential_model(k)
    dim = 2 * k + 1
    U = evolve_many(model, np.eye(dim, dtype=np.complex128), 0.0, 1.0, 400).T
    even = np.zeros((dim, k + 1))
    for m in range(k + 1):
        even[k + m, m] = even[k - m, m] = 1.0
    even /= np.linalg.norm(even, axis=0)
    bound = 2.0 * hofer_norm(model).estimate + 1e-3
    for n, Ts in ((0, (1, 2, 4)), (1, (1, 2, 4)), (2, (4,)), (3, (4,))):
        point = _even_point(n, k)
        _, vecs = np.linalg.eig(even.T @ U @ even)
        target = even @ vecs[:, np.argmax(np.abs(vecs[n]))]
        ends = tuple(boundary_orbit(point, N_t, side=side) for side in ("left", "right"))
        distances = []
        for T in Ts:
            S = 2.0 * T + 3.0
            grid = CylinderGrid(S=S, N_s=int(8 * S) + 1, N_t=N_t, k=k, T=T)  # ds = 0.25
            result = solve_floer(model, grid, ends, tol=1e-8)
            assert result.converged, (n, T)
            assert 0.0 <= result.energy <= bound, (n, T)
            row = int(np.argmin(np.abs(grid.s_nodes - T)))
            assert grid.s_nodes[row] == pytest.approx(T, abs=1e-12)
            distances.append(fs_distance(result.state.coeffs[row, 0], target))
        if n < 2:
            assert distances[0] > distances[1] > distances[2], n
        else:
            assert distances[-1] < 1e-8, n
