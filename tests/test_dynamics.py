"""Flows, projective geometry, and fixed-point continuation."""

import math

import numpy as np
import pytest

from nlsfloer.dynamics import (
    ContinuationResult,
    ProjectivePoint,
    continue_fixed_point,
    evolve,
    evolve_many,
    fixed_point_residual,
    free_flow,
    fs_distance,
    gauge_fix,
    mode_point,
    newton_fixed_point,
)
from nlsfloer.model import (
    Hartree,
    ModelSpec,
    Potential,
    Quadratic,
    TimeModulated,
    cosine_field,
    exponential_kernel,
)
from nlsfloer.spectral import SpectralField

RNG = np.random.default_rng


def random_unit(k, rng):
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    return SpectralField(k, c / np.linalg.norm(c))


def hartree_model(k=6, eps=0.1):
    return ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)


def quadratic_model(k=6, eps=0.05):
    return ModelSpec(exponential_kernel(1.0, k), Quadratic(eps), k)


def potential_model(k=4, eps=0.05):
    return ModelSpec(exponential_kernel(1.0, k), Potential(eps, cosine_field(k)), k)


# ---------------------------------------------------------------------------
# flows


def test_free_flow_phases():
    k = 3
    u = random_unit(k, RNG(0))
    t = 0.7
    v = free_flow(u, t)
    n = np.arange(-k, k + 1).astype(float)
    assert np.max(np.abs(v.coeffs - u.coeffs * np.exp(-1j * n**2 * t))) < 1e-15


def test_free_flow_period():
    # all squared integer frequencies share the period 2*pi
    k = 4
    u = random_unit(k, RNG(1))
    v = free_flow(u, 2 * math.pi)
    assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12


def test_hartree_evolution_is_exact_diagonal():
    # the flow closes in each mode: phases n^2 + eps psi^(n)^2
    k = 5
    eps = 0.1
    model = hartree_model(k, eps)
    u = random_unit(k, RNG(4))
    t = 0.83
    v = evolve(model, u, 0.0, t, steps=7)
    n = np.arange(-k, k + 1).astype(float)
    omega = n**2 + eps * np.exp(-2.0 * np.abs(n))
    assert np.max(np.abs(v.coeffs - u.coeffs * np.exp(-1j * omega * t))) < 1e-12


def test_evolution_preserves_norm():
    rng = RNG(5)
    for model in (hartree_model(), quadratic_model(),
                  ModelSpec(exponential_kernel(1.0, 6), Potential(0.05, cosine_field()), 6),
                  ModelSpec(exponential_kernel(1.0, 6), TimeModulated(Quadratic(0.05)), 6)):
        u = random_unit(model.k, rng)
        v = evolve(model, u, 0.0, 1.0, steps=200)
        assert abs(v.l2() - 1.0) < 1e-8


def test_splitting_order_two():
    # halving the step should cut the error by about four
    model = quadratic_model(k=5, eps=0.3)
    u = random_unit(5, RNG(6))
    ref = evolve(model, u, 0.0, 1.0, steps=3200)
    errs = []
    for steps in (50, 100, 200):
        v = evolve(model, u, 0.0, 1.0, steps=steps)
        errs.append(np.linalg.norm(v.coeffs - ref.coeffs))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.3 < r1 < 4.7
    assert 3.3 < r2 < 4.7


def test_evolve_many_matches_single():
    # rows never mix; the Newton line search batches its trials on this
    rng = RNG(7)
    potential = ModelSpec(exponential_kernel(1.0, 4), Potential(0.05, cosine_field(4)), 4)
    for model in (quadratic_model(), potential):
        fields = [random_unit(model.k, rng) for _ in range(4)]
        batch = np.stack([f.coeffs for f in fields])
        out = evolve_many(model, batch, 0.0, 0.4, steps=40)
        for row, f in zip(out, fields):
            v = evolve(model, f, 0.0, 0.4, steps=40)
            assert np.max(np.abs(row - v.coeffs)) < 1e-14


def test_evolve_flags_blowup():
    model = quadratic_model(k=4, eps=1e8)
    u = random_unit(4, RNG(8))
    with pytest.raises(ArithmeticError):
        evolve(model, u, 0.0, 1.0, steps=4)


# ---------------------------------------------------------------------------
# projective geometry


def test_gauge_fix_normalizes_and_rotates():
    k = 3
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k + 1] = 2.0j
    c[k - 1] = 0.1
    p = gauge_fix(SpectralField(k, c))
    assert p.gauge_index == 1
    assert abs(np.linalg.norm(p.field.coeffs) - 1.0) < 1e-15
    assert p.field.coeffs[k + 1].imag == 0.0
    assert p.field.coeffs[k + 1].real > 0


def test_gauge_tie_prefers_small_nonnegative_mode():
    k = 2
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k + 1] = 1.0
    c[k - 1] = 1.0
    p = gauge_fix(SpectralField(k, c))
    assert p.gauge_index == 1


def test_fs_distance_bounds_and_phase_invariance():
    k = 4
    rng = RNG(9)
    u = random_unit(k, rng)
    v = random_unit(k, rng)
    d = fs_distance(u, v)
    assert 0.0 <= d <= math.pi / 2 + 1e-12
    w = SpectralField(k, np.exp(0.7j) * u.coeffs)
    assert fs_distance(u, w) < 1e-7
    assert abs(fs_distance(u, v) - fs_distance(v, u)) < 1e-14


def test_fs_distance_orthogonal_points():
    k = 2
    assert abs(fs_distance(mode_point(0, k).field, mode_point(1, k).field)
               - math.pi / 2) < 1e-12


def test_fs_distance_mixed_bandwidths():
    u = mode_point(1, 2).field
    v = mode_point(1, 5).field
    assert fs_distance(u, v) < 1e-12


# ---------------------------------------------------------------------------
# fixed points


def test_free_modes_are_fixed_points():
    k = 4
    model = hartree_model(k).with_strength(0.0)
    for n in range(-2, 3):
        p = mode_point(n, k)
        r = fixed_point_residual(model, p, steps=50)
        assert r < 1e-13


def test_newton_free_case_converges_immediately():
    k = 4
    model = hartree_model(k).with_strength(0.0)
    res = newton_fixed_point(model, mode_point(1, k), steps=50)
    assert res.converged
    assert res.iterations == 0
    assert abs(math.remainder(res.phase + 1.0, 2 * math.pi)) < 1e-12


def test_newton_hartree_mode_phase():
    # modes stay fixed; the phase picks up the kernel correction
    k = 5
    eps = 0.1
    model = hartree_model(k, eps)
    res = newton_fixed_point(model, mode_point(2, k), steps=100)
    assert res.converged
    assert res.residual < 1e-10
    expected = -(4.0 + eps * math.exp(-4.0))
    assert abs(math.remainder(res.phase - expected, 2 * math.pi)) < 1e-9


def test_newton_quadratic_perturbs_mode():
    model = quadratic_model(k=5, eps=0.05)
    res = newton_fixed_point(model, mode_point(1, 5), steps=200)
    assert res.converged
    assert res.residual < 1e-10
    assert fs_distance(res.point.field, mode_point(1, 5).field) < 0.2


def test_newton_fails_fast_when_drifting_on_a_pair_circle():
    # the free map is degenerate on the +-1 pair, so the bare mode drifts:
    # the first step moves the residual by a ratio near 0.995, not by 270x
    model = potential_model(4, 0.005)
    res = newton_fixed_point(
        model, mode_point(1, 4), phase_guess=-1.0, steps=30, max_iter=25
    )
    assert not res.converged
    assert res.iterations == 1
    assert res.message.startswith("not contracting")


def test_continuation_counts_corrector_attempts():
    # n = 1 fails over from the bare mode to a pair seed once, at the first
    # strength step, then converges in two iterations per step
    out = continue_fixed_point(potential_model(4), n=1, steps=30)
    assert out.converged
    assert out.attempts == 11
    assert out.corrector_iterations <= 21
    assert "attempts" not in out.to_json()


def test_continuation_free_schedule_is_trivial():
    model = hartree_model(6, 0.0)
    out = continue_fixed_point(model, n=1, eps_schedule=[0.0], steps=50)
    assert out.converged
    assert len(out.entries) == 1
    assert out.final.residual < 1e-13


def test_continuation_reaches_target_strength():
    model = quadratic_model(k=5, eps=0.05)
    out = continue_fixed_point(
        model, n=0, eps_schedule=np.linspace(0.0, 0.05, 6), steps=200
    )
    assert out.converged
    assert out.final.eps == pytest.approx(0.05)
    assert out.final.residual < 1e-10
    # the path stays near the free mode it started from
    seed = mode_point(0, 5)
    dists = [fs_distance(e.point.field, seed.field) for e in out.entries]
    assert dists[0] < 1e-12
    assert all(d < 0.5 for d in dists)


def test_continuation_schedule_validation():
    model = quadratic_model(k=4, eps=0.05)
    with pytest.raises(ValueError):
        continue_fixed_point(model, 0, eps_schedule=[0.01, 0.05])
    with pytest.raises(ValueError):
        continue_fixed_point(model, 0, eps_schedule=[0.0, 0.04])


def test_continuation_roundtrip_json():
    model = hartree_model(4, 0.1)
    out = continue_fixed_point(model, n=1, eps_schedule=np.linspace(0, 0.1, 3),
                               steps=100)
    assert out.converged
    back = ContinuationResult.from_json(out.to_json())
    assert back.n == out.n
    assert back.converged
    assert len(back.entries) == len(out.entries)
    assert np.allclose(back.final.point.field.coeffs,
                       out.final.point.field.coeffs)
