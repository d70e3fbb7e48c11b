"""Grid/coefficient transforms: round trips, Parseval, convolution."""

import numpy as np
import pytest

from nlsfloer.dynamics import mode_point
from nlsfloer.spectral import SpectralField, analyze_many, synthesize_many
from reference import analyze, grid_nodes, synthesize


def random_field(k, rng):
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    return SpectralField(k, c)


def test_single_mode_synthesis_matches_exponential():
    k = 6
    u = mode_point(2, k)
    N = 4 * (2 * k + 1)
    g = synthesize(u, N)
    x = grid_nodes(N)
    expected = np.exp(2j * x) / np.sqrt(2 * np.pi)
    assert np.allclose(g.values, expected, atol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 5, 16, 64])
def test_round_trip_is_exact(k):
    rng = np.random.default_rng(100 + k)
    u = random_field(k, rng)
    for N in (2 * k + 1, 2 * k + 2, 4 * (2 * k + 1)):
        back = analyze(synthesize(u, N), k)
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-13


def test_analyze_rejects_undersampled_grid():
    with pytest.raises(ValueError):
        analyze_many(np.zeros(6, dtype=complex), 3)
    u = mode_point(0, 3)
    with pytest.raises(ValueError):
        synthesize_many(u.coeffs, 3, 6)


def test_parseval_on_grid():
    rng = np.random.default_rng(7)
    u = random_field(9, rng)
    N = 4 * (2 * u.k + 1)
    g = synthesize(u, N)
    quad = (2 * np.pi / N) * np.sum(np.abs(g.values) ** 2)
    assert abs(quad - u.l2() ** 2) < 1e-12 * max(1.0, u.l2() ** 2)


def test_convolution_agrees_with_grid_product_of_transforms():
    # pointwise check: (u*psi)(x) = sum u^(n) psi^(n) e^{inx} / sqrt(2pi)
    rng = np.random.default_rng(12)
    u = random_field(4, rng)
    psi = SpectralField(4, rng.standard_normal(9) ** 2 + 0j)
    N = 64
    x = grid_nodes(N)
    direct = np.zeros(N, dtype=complex)
    for n in range(-4, 5):
        direct += u.coeffs[n + 4] * psi.coeffs[n + 4] * np.exp(1j * n * x)
    direct /= np.sqrt(2 * np.pi)
    assert np.allclose(synthesize_many(u.coeffs * psi.coeffs, 4, N), direct, atol=1e-13)


def test_young_style_sup_bound():
    rng = np.random.default_rng(14)
    for trial in range(25):
        u = random_field(8, rng)
        psi = SpectralField(8, (rng.standard_normal(17) ** 2).astype(complex))
        sup = synthesize_many(u.coeffs * psi.coeffs, 8, 4 * 17)
        lhs = np.max(np.abs(sup))
        rhs = u.l2() * psi.l2()
        assert lhs <= rhs + 1e-12


def test_inner_product_matches_integral():
    rng = np.random.default_rng(17)
    u = random_field(5, rng)
    v = random_field(5, rng)
    N = 128
    gu = synthesize(u, N).values
    gv = synthesize(v, N).values
    quad = (2 * np.pi / N) * np.sum(gu * np.conj(gv))
    assert abs(np.vdot(v.coeffs, u.coeffs) - quad) < 1e-12


def test_field_validation():
    with pytest.raises(ValueError):
        SpectralField(2, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        SpectralField(1, np.array([1.0, np.nan, 0.0], dtype=complex))
