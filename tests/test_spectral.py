"""Grid/coefficient transforms: round trips, Parseval, convolution."""

import numpy as np
import pytest

from nlsfloer.dynamics import mode_point
from nlsfloer.spectral import analyze_many, bandwidth, synthesize_many
from reference import analyze, grid_nodes, synthesize


def random_field(k, rng):
    return rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)


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
        assert np.max(np.abs(back - u)) < 1e-13


def test_analyze_rejects_undersampled_grid():
    with pytest.raises(ValueError):
        analyze_many(np.zeros(6, dtype=complex), 3)
    u = mode_point(0, 3)
    with pytest.raises(ValueError):
        synthesize_many(u, 3, 6)


def test_parseval_on_grid():
    rng = np.random.default_rng(7)
    u = random_field(9, rng)
    N = 4 * u.size
    g = synthesize(u, N)
    quad = (2 * np.pi / N) * np.sum(np.abs(g.values) ** 2)
    l2 = np.linalg.norm(u)
    assert abs(quad - l2**2) < 1e-12 * max(1.0, l2**2)


def test_convolution_agrees_with_grid_product_of_transforms():
    # pointwise check: (u*psi)(x) = sum u^(n) psi^(n) e^{inx} / sqrt(2pi)
    rng = np.random.default_rng(12)
    u = random_field(4, rng)
    psi = rng.standard_normal(9) ** 2 + 0j
    N = 64
    x = grid_nodes(N)
    direct = np.zeros(N, dtype=complex)
    for n in range(-4, 5):
        direct += u[n + 4] * psi[n + 4] * np.exp(1j * n * x)
    direct /= np.sqrt(2 * np.pi)
    assert np.allclose(synthesize_many(u * psi, 4, N), direct, atol=1e-13)


def test_young_style_sup_bound():
    rng = np.random.default_rng(14)
    for trial in range(25):
        u = random_field(8, rng)
        psi = (rng.standard_normal(17) ** 2).astype(complex)
        sup = synthesize_many(u * psi, 8, 4 * 17)
        lhs = np.max(np.abs(sup))
        rhs = np.linalg.norm(u) * np.linalg.norm(psi)
        assert lhs <= rhs + 1e-12


def test_inner_product_matches_integral():
    rng = np.random.default_rng(17)
    u = random_field(5, rng)
    v = random_field(5, rng)
    N = 128
    gu = synthesize(u, N).values
    gv = synthesize(v, N).values
    quad = (2 * np.pi / N) * np.sum(gu * np.conj(gv))
    assert abs(np.vdot(v, u) - quad) < 1e-12


def test_bandwidth_is_read_off_the_last_axis():
    assert bandwidth(np.zeros(1)) == 0
    assert bandwidth(np.zeros((3, 7, 9))) == 4
    with pytest.raises(ValueError):
        bandwidth(np.ones(4, dtype=complex))
