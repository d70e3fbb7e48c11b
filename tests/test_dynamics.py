"""Flows, projective geometry, and fixed-point continuation."""

import math

import numpy as np
import pytest

import nlsfloer.dynamics as dynamics
from nlsfloer.dynamics import (
    _fd_batch,
    continue_fixed_point,
    evolve,
    evolve_many,
    fixed_point_residual,
    free_flow,
    fs_distance,
    gauge_fix,
    gauge_mode,
    mode_point,
    newton_fixed_point,
)
from nlsfloer.model import (
    Constant,
    Density,
    Hartree,
    ModelSpec,
    Potential,
    Quadratic,
    TimeModulated,
    cosine_field,
    exponential_kernel,
)
from nlsfloer.spectral import SpectralField
from reference import (
    continuation_bits,
    reference_continuation,
    reference_evolve,
    reference_newton,
)

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


@pytest.mark.parametrize("k, rows", [(4, 28), (12, 60)])
def test_evolve_many_rows_are_bitwise_independent(k, rows):
    # the corrector's full-step flow carries the next difference batch
    # (2(2k+1)+1 rows) beside the full step, at this strength or, in a
    # continuation, at the next one; no row may feel the others
    rng = RNG(k)
    cos = cosine_field(k)
    kinds = (
        Constant(0.3),
        Hartree(0.1),
        Quadratic(0.05),
        Potential(0.05, cos),
        TimeModulated(Potential(0.05, cos)),
    )
    strengths = np.concatenate([[0.0, 0.05], rng.uniform(-0.1, 0.1, rows - 2)])
    for nl in kinds:
        model = ModelSpec(exponential_kernel(1.0, k), nl, k)
        batch = rng.standard_normal((rows, 2 * k + 1)) + 1j * rng.standard_normal(
            (rows, 2 * k + 1)
        )
        out = evolve_many(model, batch, 0.0, 1.0, steps=30)
        for row, c in zip(out, batch):
            assert np.array_equal(row, evolve_many(model, c[np.newaxis], 0.0, 1.0, 30)[0])
        column = strengths[:, np.newaxis]
        mixed = evolve_many(model.with_strength(column), batch, 0.0, 1.0, 30)
        for row, c, eps in zip(mixed, batch, strengths):
            one = evolve_many(model.with_strength(eps), c[np.newaxis], 0.0, 1.0, 30)
            assert np.array_equal(row, one[0])


@pytest.mark.parametrize("k, rows", [(4, 1), (4, 28), (12, 60)])
def test_evolve_many_is_bitwise_the_reference_rk4(k, rows):
    # the flow builds its gradient stage once and reuses its buffers; every
    # float must stay that of the one-shot stage, because the continued
    # n = 2 and n = 3 points move under any change of rounding
    rng = RNG(100 + k + rows)
    cos = cosine_field(k)
    kinds = (
        Constant(0.3),
        Quadratic(0.05),
        Potential(0.05, cos),
        TimeModulated(Potential(0.05, cos)),
        TimeModulated(Quadratic(0.05)),
    )
    for nl in kinds:
        model = ModelSpec(exponential_kernel(1.0, k), nl, k)
        batch = rng.standard_normal((rows, 2 * k + 1)) + 1j * rng.standard_normal(
            (rows, 2 * k + 1)
        )
        out = evolve_many(model, batch, 0.0, 1.0, 30)
        assert np.array_equal(out, reference_evolve(model, batch, 0.0, 1.0, 30))


@pytest.mark.parametrize("nl", [Hartree(0.1), Potential(0.05, cosine_field(4))])
def test_modulated_linear_flow_evaluates_the_density_once(nl, monkeypatch):
    # -d1f of a density linear in w does not depend on the state or on t:
    # the flow's gradient stage computes it once and scales it by a(t)
    calls = []
    f = Density.f

    def counted(self, *args):
        calls.append(args)
        return f(self, *args)

    monkeypatch.setattr(Density, "f", counted)
    model = ModelSpec(exponential_kernel(1.0, 4), TimeModulated(nl), 4)
    batch = RNG(3).standard_normal((5, 9)) + 0j
    out = evolve_many(model, batch, 0.0, 1.0, 30)
    assert len(calls) == 1
    assert np.array_equal(out, reference_evolve(model, batch, 0.0, 1.0, 30))


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
    assert gauge_mode(p.coeffs) == 1
    assert abs(np.linalg.norm(p.coeffs) - 1.0) < 1e-15
    assert p.coeffs[k + 1].imag == 0.0
    assert p.coeffs[k + 1].real > 0


def test_gauge_tie_prefers_small_nonnegative_mode():
    k = 2
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k + 1] = 1.0
    c[k - 1] = 1.0
    p = gauge_fix(SpectralField(k, c))
    assert gauge_mode(p.coeffs) == 1


def _made_real_positive(p):
    """The modes of p's coefficients that are exactly real and positive."""
    real = (p.coeffs.imag == 0.0) & (p.coeffs.real > 0.0)
    return (np.flatnonzero(real) - p.k).tolist()


@pytest.mark.parametrize("k", [1, 3, 6])
def test_gauge_mode_is_the_mode_gauge_fix_made_real(k):
    # a random field has one exactly real coefficient after gauge_fix: the
    # pivot it rotated, at the largest modulus
    rng = RNG(40 + k)
    for _ in range(8):
        u = SpectralField(k, 3.0 * random_unit(k, rng).coeffs)
        p = gauge_fix(u)
        assert _made_real_positive(p) == [gauge_mode(p.coeffs)]
        assert gauge_mode(p.coeffs) == int(np.argmax(np.abs(u.coeffs))) - k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauge_mode_breaks_a_pm_n_tie_toward_plus_n(n):
    k = 3
    c = 0.2 * random_unit(k, RNG(n)).coeffs
    c[k + n], c[k - n] = np.exp(0.3j), np.exp(2.1j)
    p = gauge_fix(SpectralField(k, c))
    assert _made_real_positive(p) == [gauge_mode(p.coeffs)] == [n]
    # a -n coefficient larger beyond the tie tolerance takes the gauge
    c[k - n] *= 1.0 + 1e-9
    p = gauge_fix(SpectralField(k, c))
    assert _made_real_positive(p) == [gauge_mode(p.coeffs)] == [-n]


def test_fs_distance_bounds_and_phase_invariance():
    k = 4
    rng = RNG(9)
    u = random_unit(k, rng)
    v = random_unit(k, rng)
    d = fs_distance(u.coeffs, v.coeffs)
    assert 0.0 <= d <= math.pi / 2 + 1e-12
    w = np.exp(0.7j) * u.coeffs
    assert fs_distance(u.coeffs, w) < 1e-7
    assert abs(d - fs_distance(v.coeffs, u.coeffs)) < 1e-14


def test_fs_distance_orthogonal_points():
    k = 2
    assert abs(fs_distance(mode_point(0, k).coeffs, mode_point(1, k).coeffs)
               - math.pi / 2) < 1e-12


def test_fs_distance_mixed_bandwidths():
    with pytest.raises(ValueError, match="shapes"):
        fs_distance(mode_point(1, 2).coeffs, mode_point(1, 5).coeffs)


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
    assert fs_distance(res.point.coeffs, mode_point(1, 5).coeffs) < 0.2


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


def _record_flow_rows(monkeypatch):
    rows = []
    evolve_many_ = dynamics.evolve_many

    def recording(model, batch, *args):
        rows.append(len(batch))
        return evolve_many_(model, batch, *args)

    monkeypatch.setattr(dynamics, "evolve_many", recording)
    return rows


def test_newton_line_search_carries_the_next_difference_batch(monkeypatch):
    # the first strength step of the n = 0 continuation: the line search of
    # iteration 1 propagates the 19-row batch around c + step, whose first
    # row is the full step, and iteration 2 builds its Jacobian from those
    # rows; both full steps are taken, so no shorter trial is propagated
    rows = _record_flow_rows(monkeypatch)
    res = newton_fixed_point(
        potential_model(4, 0.005), mode_point(0, 4), 0.0, steps=30, max_iter=25
    )
    assert res.converged
    assert res.iterations == 2
    assert rows == [19, 19, 1]
    assert (res.flows, res.flow_rows) == (3, 39)
    assert res.backtracks == 0


def test_newton_carries_the_next_strengths_difference_batch(monkeypatch):
    # told the next strength, the last full step's flow also propagates the
    # next attempt's 19-row difference batch there, around the point that
    # attempt starts from: gauge_fix(result.point)
    rows = _record_flow_rows(monkeypatch)
    res = newton_fixed_point(
        potential_model(4, 0.005), mode_point(0, 4), 0.0, steps=30, max_iter=25,
        next_strength=0.01,
    )
    assert res.converged
    assert rows == [19, 19, 20]
    fresh = evolve_many(
        potential_model(4, 0.01), _fd_batch(gauge_fix(res.point).coeffs), 0.0, 1.0, 30
    )
    assert np.array_equal(res.next_rows, fresh)
    # handed on, they are the next attempt's first Jacobian: no flow of its own
    nxt = newton_fixed_point(
        potential_model(4, 0.01), res.point, res.phase, steps=30, max_iter=25,
        jac_rows=res.next_rows,
    )
    plain = newton_fixed_point(
        potential_model(4, 0.01), res.point, res.phase, steps=30, max_iter=25
    )
    assert rows[3:] == [19, 1] + [19, 19, 1]
    assert np.array_equal(nxt.point.coeffs, plain.point.coeffs)
    assert (nxt.phase, nxt.residual) == (plain.phase, plain.residual)
    assert nxt.next_rows is None


def test_newton_rejected_full_step_makes_its_own_difference_flow(monkeypatch):
    # the first full step of this guess raises the residual, so the 9
    # shorter trials are propagated after it and iteration 2 propagates its
    # own 7-row difference batch; later full steps are taken
    rows = _record_flow_rows(monkeypatch)
    rng = RNG(47)
    guess = SpectralField(1, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    model = ModelSpec(exponential_kernel(1.0, 1), Quadratic(1.0), 1)
    res = newton_fixed_point(model, guess, steps=10, max_iter=25)
    assert res.converged
    assert res.iterations == 5
    assert rows == [7, 7, 9, 7, 7, 7, 7, 1]
    assert (res.flows, res.flow_rows) == (8, sum(rows))
    assert res.backtracks >= 1


@pytest.mark.parametrize("seed", [1, 4])
def test_newton_backtracks_past_a_full_step_that_overflows(seed, monkeypatch):
    # the first full-step trial of these guesses loses finiteness, the
    # shorter trials do not: the line search must reject it and go on
    flows = []
    evolve_many_ = dynamics.evolve_many

    def recording(model, batch, *args):
        out = evolve_many_(model, batch, *args)
        flows.append(out)
        return out

    monkeypatch.setattr(dynamics, "evolve_many", recording)
    rng = RNG(seed)
    guess = SpectralField(1, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    model = ModelSpec(exponential_kernel(1.0, 1), Quadratic(2.0), 1)
    first = newton_fixed_point(model, guess, steps=10, max_iter=1)
    assert not np.all(np.isfinite(flows[1][0]))
    assert first.iterations == 1
    assert first.backtracks >= 1
    assert not first.message.startswith("stalled")
    res = newton_fixed_point(model, guess, steps=10, max_iter=25)
    assert res.iterations >= 1
    assert res.backtracks >= 1
    assert np.isfinite(res.residual)


def _rng_guess(seed):
    rng = RNG(seed)
    return SpectralField(1, rng.standard_normal(3) + 1j * rng.standard_normal(3))


def _quadratic_k1(eps):
    return ModelSpec(exponential_kernel(1.0, 1), Quadratic(eps), 1)


@pytest.mark.parametrize(
    "model, guess, kwargs",
    [
        (potential_model(4, 0.005), mode_point(0, 4), dict(phase_guess=0.0, steps=30)),
        (_quadratic_k1(1.0), _rng_guess(47), dict(steps=10)),
        (_quadratic_k1(2.0), _rng_guess(1), dict(steps=10)),
        (_quadratic_k1(2.0), _rng_guess(4), dict(steps=10)),
        (potential_model(4, 0.005), mode_point(1, 4), dict(phase_guess=-1.0, steps=30)),
    ],
    ids=["n0", "rejected-full-step", "overflow-1", "overflow-4", "not-contracting"],
)
def test_newton_is_bitwise_the_reference_corrector(model, guess, kwargs):
    # carried rows and a full step flowed ahead of the shorter trials stand
    # in for flows the plain corrector makes; they may change no float
    res = newton_fixed_point(model, guess, max_iter=25, **kwargs)
    ref = reference_newton(model, guess, max_iter=25, **kwargs)
    assert np.array_equal(res.point.coeffs, ref.point.coeffs)
    assert (res.phase, res.residual, res.iterations) == (
        ref.phase, ref.residual, ref.iterations
    )
    assert (res.converged, res.message, res.backtracks) == (
        ref.converged, ref.message, ref.backtracks
    )


def test_newton_raises_when_its_difference_flow_blows_up():
    model = quadratic_model(k=4, eps=1e8)
    with pytest.raises(ArithmeticError):
        newton_fixed_point(model, random_unit(4, RNG(8)), steps=4)


def test_continuation_counts_flows(monkeypatch):
    # the free state's flow carries the first step's difference batch, and
    # each step's last full step the next step's: n = 0 takes one strength
    # step, a three-iteration corrector of 3 flows (19, 19 and 1 rows), n = 3
    # 10 one-iteration correctors of 1 flow each (20 rows, 1 at the last
    # step), both after the free state's 20-row flow; no full step is rejected
    for n, flows, flow_rows in ((0, 4, 59), (3, 11, 201)):
        rows = _record_flow_rows(monkeypatch)
        out = continue_fixed_point(potential_model(4), n=n, steps=30)
        assert out.converged
        assert out.flows == len(rows) == flows
        assert out.flow_rows == sum(rows) == flow_rows


@pytest.mark.parametrize("n", [0, 3])
def test_continuation_is_bitwise_the_per_step_loop(n):
    # carried rows stand in for flows the next attempt would make itself;
    # started from any other point they would move the path
    model = potential_model(4)
    out = continue_fixed_point(model, n, steps=30)
    schedule = np.linspace(0.0, model.nonlinearity.strength, 2 if n == 0 else 11)
    ref = reference_continuation(model, n, schedule, 30)
    assert continuation_bits(out) == continuation_bits(ref)


@pytest.mark.parametrize("n, eps", [(0, 2.0), (1, 0.05)], ids=["bisected", "pair-seeded"])
def test_continuation_carry_is_bitwise_through_failover(n, eps, monkeypatch):
    # at strength 2 the full step fails and its half step hands the rows of
    # the step's target on; at n = 1 a pair-seeded retry hands them on
    model = potential_model(4, eps)
    carried = continue_fixed_point(model, n, steps=30)
    newton = dynamics.newton_fixed_point

    def plain(*args, jac_rows=None, next_strength=None, **kwargs):
        return newton(*args, **kwargs)

    monkeypatch.setattr(dynamics, "newton_fixed_point", plain)
    alone = continue_fixed_point(model, n, steps=30)
    assert carried.attempts == alone.attempts == (3 if n == 0 else 11)
    assert continuation_bits(carried) == continuation_bits(alone)
    assert carried.flows < alone.flows - 1


def test_continuation_one_step_schedule_halves_on_failure():
    # mode 0's free eigenvalue is simple, so one strength step reaches the
    # 11-point path's endpoint; at strength 2 the full step fails and is
    # halved.  A +-n pair is degenerate at strength 0, so n != 0 keeps the
    # path: one step lands 1.57 FS from the path's n = 1 point at strength
    # 2, and 0.785 FS from its n = 3 point at strength 0.05
    model = potential_model(4, 2.0)
    one = continue_fixed_point(model, 0, steps=30)
    path = reference_continuation(model, 0, np.linspace(0.0, 2.0, 11), 30)
    assert one.converged
    assert one.attempts == 3
    assert len(one.entries) == 2
    assert fs_distance(one.final.point.coeffs, path.final.point.coeffs) <= 1e-12


def test_continuation_schedule_follows_the_mode():
    # mode 0 in one strength step, n != 0 along 11 equally spaced strengths,
    # and the free state alone at strength 0
    model = potential_model(4, 0.05)
    assert [e.eps for e in continue_fixed_point(model, 0, steps=30).entries] == [0.0, 0.05]
    path = [e.eps for e in continue_fixed_point(model, 2, steps=30).entries]
    assert path == np.linspace(0.0, 0.05, 11).tolist()
    for n in (0, 1, 3):
        out = continue_fixed_point(potential_model(4, 0.0), n, steps=30)
        assert out.converged
        assert [e.eps for e in out.entries] == [0.0]


def test_continuation_counts_corrector_attempts():
    # n = 1 fails over from the bare mode to a pair seed once, at the first
    # strength step, then converges in two iterations per step
    out = continue_fixed_point(potential_model(4), n=1, steps=30)
    assert out.converged
    assert out.attempts == 11
    assert out.corrector_iterations <= 21


def test_continuation_sums_backtracks(monkeypatch):
    # n = 1's failed first attempt backtracks
    results = []
    newton = dynamics.newton_fixed_point

    def recording(*args, **kwargs):
        results.append(newton(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dynamics, "newton_fixed_point", recording)
    out = continue_fixed_point(potential_model(4), n=1, steps=30)
    assert out.backtracks == sum(r.backtracks for r in results) > 0


def test_continuation_free_schedule_is_trivial():
    model = hartree_model(6, 0.0)
    out = continue_fixed_point(model, n=1, steps=50)
    assert out.converged
    assert len(out.entries) == 1
    assert out.final.residual < 1e-13


def test_continuation_reaches_target_strength():
    model = quadratic_model(k=5, eps=0.05)
    out = continue_fixed_point(model, n=0, steps=200)
    assert out.converged
    assert out.final.eps == pytest.approx(0.05)
    assert out.final.residual < 1e-10
    # the path stays near the free mode it started from
    seed = mode_point(0, 5)
    dists = [fs_distance(e.point.coeffs, seed.coeffs) for e in out.entries]
    assert dists[0] < 1e-12
    assert all(d < 0.5 for d in dists)
