"""Nonlinearity catalog: values, gradients, truncation gaps, oscillation."""

import math

import numpy as np
import pytest

from nlsfloer import model as model_module
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
    grad_F_tangent,
    hofer_norm,
    truncate_kernel,
)
from nlsfloer.spectral import ROOT_2PI, basis_point

RNG = np.random.default_rng


def random_unit(k, rng):
    """Coefficients of a random unit-norm field at bandwidth k."""
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    return c / np.linalg.norm(c)


def catalog(k=6):
    """One model per catalog member at working bandwidth k."""
    ker = exponential_kernel(1.0, k)
    return [
        ModelSpec(ker, Constant(0.1), k),
        ModelSpec(ker, Hartree(0.1), k),
        ModelSpec(ker, Quadratic(0.1), k),
        ModelSpec(ker, Potential(0.05, cosine_field()), k),
        ModelSpec(ker, TimeModulated(Quadratic(0.05)), k),
    ]


# ---------------------------------------------------------------------------
# kernels


def test_kernel_validation():
    with pytest.raises(ValueError):
        band_limited_kernel(2).__class__(2, np.array([1, 0, 1, 0, 0.5]))
    with pytest.raises(ValueError):
        band_limited_kernel(2).__class__(1, np.array([0.5, 1.0, -0.5]))


def test_exponential_tail_closed_form():
    ker = exponential_kernel(1.0, 40)
    k = 3
    # sum_{|n|>k} e^{-2|n|} = 2 e^{-2(k+1)} / (1 - e^{-2})
    expected = math.sqrt(2.0 * math.exp(-2.0 * (k + 1)) / (1.0 - math.exp(-2.0)))
    assert abs(ker.l2_tail(k) - expected) < 1e-12
    assert ker.l2_tail(40) == 0.0


def test_truncation_monotone():
    ker = exponential_kernel(0.7, 24)
    tails = [ker.l2_tail(k) for k in range(10)]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    tk = truncate_kernel(ker, 4)
    assert tk.k_max == 4
    assert np.allclose(tk.psi_hat, ker.coeff_array(4))


def test_band_limited_kernel_truncation_is_lossless_beyond_support():
    ker = band_limited_kernel(2, k_max=8)
    assert ker.l2_tail(2) == 0.0
    assert ker.l2_tail(5) == 0.0


# ---------------------------------------------------------------------------
# values


def test_constant_density_value():
    # F_t(u) = -1/2 int c dx = -pi c, independent of u
    k = 5
    model = ModelSpec(exponential_kernel(1.0, k), Constant(0.1), k)
    u = random_unit(k, RNG(0))
    assert abs(eval_F_many(model, u, 0.3) + math.pi * 0.1) < 1e-13


def test_hartree_value_closed_form():
    # F(u) = -(eps/2) sum psi^(n)^2 |u^(n)|^2
    k = 4
    eps = 0.1
    model = ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)
    u = basis_point(0, k).coeffs
    assert abs(eval_F_many(model, u, 0.0) + 0.05) < 1e-14
    rng = RNG(1)
    v = random_unit(k, rng)
    psi2 = np.exp(-2.0 * np.abs(np.arange(-k, k + 1)))
    expected = -0.5 * eps * float(np.sum(psi2 * np.abs(v) ** 2))
    assert abs(eval_F_many(model, v, 0.7) - expected) < 1e-14


def test_zero_field_zero_value_for_homogeneous_members():
    k = 4
    zero = np.zeros(2 * k + 1, dtype=complex)
    for model in catalog(k):
        if model.nonlinearity.power == 0:
            continue
        assert abs(eval_F_many(model, zero, 0.2)) < 1e-15


def test_time_periodicity():
    rng = RNG(2)
    for model in catalog():
        u = random_unit(model.k, rng)
        t = rng.uniform()
        assert abs(eval_F_many(model, u, t) - eval_F_many(model, u, t + 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# gradients


def test_hartree_gradient_is_diagonal():
    k = 5
    eps = 0.1
    model = ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)
    u = random_unit(k, RNG(3))
    g = grad_F_many(model, u, 0.0)
    psi2 = np.exp(-2.0 * np.abs(np.arange(-k, k + 1)))
    assert np.max(np.abs(g + eps * psi2 * u)) < 1e-14
    diagonal = [m.nonlinearity.diagonal for m in catalog(k)]
    diagonal.append(TimeModulated(Hartree(eps)).diagonal)
    assert diagonal == [False, True, False, False, False, False]


def test_constant_gradient_vanishes():
    k = 3
    model = ModelSpec(exponential_kernel(1.0, k), Constant(0.3), k)
    g = grad_F_many(model, random_unit(k, RNG(4)), 0.1)
    assert np.linalg.norm(g) < 1e-15


@pytest.mark.parametrize("member", range(5))
def test_gradient_matches_directional_difference(member):
    model = catalog()[member]
    k = model.k
    rng = RNG(40 + member)
    for _ in range(10):
        u = random_unit(k, rng)
        h = random_unit(k, rng)
        t = rng.uniform()
        g = grad_F_many(model, u, t)
        eta = 1e-6
        up, dn = u + eta * h, u - eta * h
        fd = (eval_F_many(model, up, t) - eval_F_many(model, dn, t)) / (2 * eta)
        pairing = np.vdot(h, g).real
        scale = max(1.0, abs(fd))
        assert abs(fd - pairing) / scale < 1e-6


@pytest.mark.parametrize("member", range(5))
def test_gradient_tangent_matches_central_difference(member):
    model = catalog()[member]
    dim = 2 * model.k + 1
    rng = RNG(60 + member)

    def unit_rows():
        c = rng.standard_normal((10, dim)) + 1j * rng.standard_normal((10, dim))
        return c / np.linalg.norm(c, axis=-1, keepdims=True)

    u, h1, h2 = unit_rows(), unit_rows(), unit_rows()
    t = rng.uniform(size=10)
    tangent = grad_F_tangent(model, u, t)
    eta = 1e-5
    fd = (grad_F_many(model, u + eta * h1, t) - grad_F_many(model, u - eta * h1, t)) / (
        2 * eta
    )
    assert np.max(np.abs(tangent(h1) - fd)) < 1e-9
    # the Hessian is symmetric under Re<.,.>
    lhs = np.sum((np.conj(h2) * tangent(h1)).real, axis=-1)
    rhs = np.sum((np.conj(tangent(h2)) * h1).real, axis=-1)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_rotated_gradient_matches_rotated_functional():
    model = catalog()[3]
    k = model.k
    rng = RNG(5)
    u = random_unit(k, rng)
    h = random_unit(k, rng)
    t = 0.37
    # G_t = F_t after the free flow; its gradient is pulled back by conj(phases)
    phases = free_phases(k, t)
    n = np.arange(-k, k + 1)
    assert np.array_equal(phases, np.exp(-1j * n.astype(float) ** 2 * t))
    g = grad_F_many(model, u * phases, t) * np.conj(phases)
    eta = 1e-6
    up, dn = (u + eta * h) * phases, (u - eta * h) * phases
    fd = (eval_F_many(model, up, t) - eval_F_many(model, dn, t)) / (2 * eta)
    assert abs(fd - np.vdot(h, g).real) < 1e-6


def test_gradient_pairs_to_zero_against_iu():
    rng = RNG(6)
    for model in catalog():
        u = random_unit(model.k, rng)
        g = grad_F_many(model, u, rng.uniform())
        # Re<u, i grad F_t(u)>, zero in exact arithmetic for a real even kernel
        assert abs(np.vdot(1j * g, u).real) < 1e-13


def test_gradient_respects_kernel_support():
    # outer convolution kills modes beyond the kernel band
    k = 6
    model = ModelSpec(band_limited_kernel(2, k_max=k), Quadratic(0.2), k)
    u = random_unit(k, RNG(7))
    g = grad_F_many(model, u, 0.0)
    n = np.arange(-k, k + 1)
    assert np.max(np.abs(g[np.abs(n) > 2])) == 0.0


# ---------------------------------------------------------------------------
# truncation gap


def test_gap_zero_beyond_band_limited_support():
    k = 6
    model = ModelSpec(band_limited_kernel(2, k_max=k), Quadratic(0.2), k)
    rep = galerkin_gap(model, 2, R=1.0, samples=8, seed=0)
    assert rep.f_gap < 1e-14
    assert rep.grad_gap < 1e-14
    assert rep.conv_bound == 0.0


def test_gap_shrinks_with_truncation_order():
    k = 12
    model = ModelSpec(exponential_kernel(1.0, k), Quadratic(0.1), k)
    reps = [galerkin_gap(model, kk, R=1.0, samples=12, seed=3) for kk in (2, 4, 6)]
    grads = [r.grad_gap for r in reps]
    assert grads[0] > grads[1] > grads[2] > 0
    for r in reps:
        assert r.conv_bound == pytest.approx(
            1.0 * model.kernel.l2_tail(r.k), rel=1e-12
        )


def test_hartree_value_gap_against_diagonal_form():
    # for hartree the gap is diagonal: (eps/2) max tail of psi^2 weights
    k = 10
    eps = 0.1
    model = ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)
    kk = 3
    rep = galerkin_gap(model, kk, R=1.0, samples=16, seed=1)
    worst = 0.5 * eps * math.exp(-2.0 * (kk + 1))
    assert rep.f_gap <= worst + 1e-15
    assert rep.f_gap >= 0.1 * worst


# ---------------------------------------------------------------------------
# oscillation estimate


def test_hartree_oscillation_closed_form():
    # max/min of the diagonal quadratic form on the sphere
    k = 6
    eps = 0.1
    model = ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)
    rep = hofer_norm(model, t_nodes=2)
    expected = 0.5 * eps * (1.0 - math.exp(-2.0 * k))
    assert rep.all_converged
    assert abs(rep.estimate - expected) <= 0.01 * expected


@pytest.mark.parametrize("t_nodes", [1, 16])
def test_hofer_extremizes_once_each_way(t_nodes, monkeypatch):
    # F_t = a(t) F0, so one maximization and one minimization serve every node
    calls = []
    extremize = model_module._extremize_on_sphere

    def counted(*args):
        calls.append(args)
        return extremize(*args)

    monkeypatch.setattr(model_module, "_extremize_on_sphere", counted)
    model = ModelSpec(exponential_kernel(1.0, 4), TimeModulated(Quadratic(0.05)), 4)
    rep = hofer_norm(model, t_nodes=t_nodes)
    assert len(calls) == 2
    assert len(rep.nodes) == t_nodes


def test_hofer_matches_hermitian_eigenvalues():
    # for power 1 the functional is F(u) = 1/2 Re<u, Qu> with Q the gradient's
    # matrix, so its extremes on the sphere are half Q's extreme eigenvalues
    k = 4
    model = ModelSpec(exponential_kernel(1.0, k), Potential(0.05, cosine_field(k)), k)
    dim = 2 * k + 1
    Q = grad_F_many(model, np.eye(dim, dtype=np.complex128), np.zeros(dim)).T
    lam = np.linalg.eigvalsh(Q)
    expected = 0.5 * (lam[-1] - lam[0])
    rep = hofer_norm(model)
    assert rep.all_converged
    assert abs(rep.estimate - expected) <= 1e-12 * expected


@pytest.mark.parametrize("base", [Potential(0.05, cosine_field()), Quadratic(0.05)])
def test_modulated_hofer_nodes_scale_the_base(base):
    ker = exponential_kernel(1.0, 4)
    plain = ModelSpec(ker, base, 4)
    modulated = ModelSpec(ker, TimeModulated(base), 4)
    ref = hofer_norm(plain, t_nodes=8)
    rep = hofer_norm(modulated, t_nodes=8)
    for nd, nd0 in zip(rep.nodes, ref.nodes):
        a = 1.0 + math.cos(2 * math.pi * nd.t)
        assert nd.t == nd0.t
        assert nd.max_value == pytest.approx(a * nd0.max_value, rel=1e-14, abs=1e-18)
        assert nd.min_value == pytest.approx(a * nd0.min_value, rel=1e-14, abs=1e-18)
    # the one-node rule samples a(0) = 2, so it doubles the modulated estimate
    one, two = hofer_norm(modulated, t_nodes=1), hofer_norm(modulated, t_nodes=2)
    assert one.estimate == pytest.approx(2.0 * two.estimate, rel=1e-14)
    one, two = hofer_norm(plain, t_nodes=1), hofer_norm(plain, t_nodes=2)
    assert one.estimate == pytest.approx(two.estimate, rel=1e-14)


def test_smallness_gate_thresholds():
    k = 4
    ker = exponential_kernel(1.0, k)
    w_max = ker.l2() ** 2
    just_below = ModelSpec(ker, Hartree(0.12 / w_max), k)
    assert abs(just_below.sup_f_bound() - 0.12) < 1e-12
    assert just_below.smallness_gate()
    just_above = ModelSpec(ker, Hartree(0.13 / w_max), k)
    assert not just_above.smallness_gate()


def _values_at(V, x):
    """V at arbitrary points x by its direct Fourier sum."""
    n = np.arange(-V.k, V.k + 1)
    vals = (V.coeffs * np.exp(1j * np.outer(x, n))).sum(axis=-1)
    return vals.real / ROOT_2PI


def test_sup_f_bounds_dominate_samples():
    rng = RNG(8)
    for model in catalog():
        bound = model.sup_f_bound()
        w_max = model.w_max()
        w = rng.uniform(0.0, w_max, size=200)
        x = rng.uniform(0.0, 2 * np.pi, size=200)
        t = rng.uniform(0.0, 1.0, size=200)
        V = model.nonlinearity.V
        v = 1.0 if V is None else _values_at(V, x)
        vals = np.abs(model.nonlinearity.f(w, v, t))
        assert np.max(vals) <= bound + 1e-12


def test_potential_bound_is_sharp_for_cosine():
    pot = Potential(0.05, cosine_field())
    # sup |eps cos(x) w| over w <= w_max equals eps * w_max exactly
    assert pot.sup_f_bound(2.0) == pytest.approx(0.1, rel=1e-12)


def test_modulated_oscillation_doubles_bound():
    base = Quadratic(0.03)
    assert TimeModulated(base).sup_f_bound(1.5) == 2 * base.sup_f_bound(1.5)
