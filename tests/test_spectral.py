"""Grid/coefficient transforms: round trips, norms, convolution."""

import json

import numpy as np
import pytest

from nlsfloer.spectral import (
    SpectralField,
    analyze_many,
    basis_point,
    convolve,
    inner,
    norm,
    project,
    synthesize_many,
)
from reference import analyze, grid_nodes, synthesize


def random_field(k, rng, scale=1.0):
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    return SpectralField(k, scale * c)


def test_single_mode_synthesis_matches_exponential():
    k = 6
    u = basis_point(2, k)
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
    u = basis_point(0, 3)
    with pytest.raises(ValueError):
        synthesize_many(u.coeffs, 3, 6)


def test_parseval_on_grid():
    rng = np.random.default_rng(7)
    u = random_field(9, rng)
    N = 4 * (2 * u.k + 1)
    g = synthesize(u, N)
    quad = (2 * np.pi / N) * np.sum(np.abs(g.values) ** 2)
    assert abs(quad - u.l2() ** 2) < 1e-12 * max(1.0, u.l2() ** 2)


def test_convolution_is_diagonal_and_commutative():
    rng = np.random.default_rng(11)
    u = random_field(5, rng)
    psi = SpectralField(5, np.exp(-np.abs(np.arange(-5, 6))).astype(complex))
    w = convolve(u, psi)
    assert np.allclose(w.coeffs, u.coeffs * psi.coeffs)
    assert np.allclose(convolve(psi, u).coeffs, w.coeffs)


def test_convolution_agrees_with_grid_product_of_transforms():
    # pointwise check: (u*psi)(x) = sum u^(n) psi^(n) e^{inx} / sqrt(2pi)
    rng = np.random.default_rng(12)
    u = random_field(4, rng)
    psi = SpectralField(4, rng.standard_normal(9) ** 2 + 0j)
    w = convolve(u, psi)
    N = 64
    x = grid_nodes(N)
    direct = np.zeros(N, dtype=complex)
    for n in range(-4, 5):
        direct += u.coeff(n) * psi.coeff(n) * np.exp(1j * n * x)
    direct /= np.sqrt(2 * np.pi)
    assert np.allclose(synthesize(w, N).values, direct, atol=1e-13)


def test_identity_kernel_convolution():
    rng = np.random.default_rng(13)
    u = random_field(6, rng)
    ident = SpectralField(6, np.ones(13, dtype=complex))
    assert np.allclose(convolve(u, ident).coeffs, u.coeffs)


def test_young_style_sup_bound():
    rng = np.random.default_rng(14)
    for trial in range(25):
        u = random_field(8, rng)
        psi = SpectralField(8, (rng.standard_normal(17) ** 2).astype(complex))
        lhs = norm(convolve(u, psi), "sup")
        rhs = u.l2() * psi.l2()
        assert lhs <= rhs + 1e-12


def test_projection_truncates_and_is_idempotent():
    u = SpectralField(4, np.ones(9, dtype=complex))
    p = project(u, 2)
    assert p.k == 4
    assert np.count_nonzero(p.coeffs) == 5
    assert abs(p.l2() - np.sqrt(5.0)) < 1e-14
    again = project(p, 2)
    assert np.array_equal(again.coeffs, p.coeffs)
    full = project(u, 4)
    assert np.array_equal(full.coeffs, u.coeffs)


def test_projection_never_increases_norm():
    rng = np.random.default_rng(15)
    for _ in range(20):
        u = random_field(7, rng)
        for ell in range(8):
            assert project(u, ell).l2() <= u.l2() + 1e-15


def test_norms():
    u = basis_point(2, 5)
    assert abs(norm(u, "l2") - 1.0) < 1e-15
    assert abs(norm(u, "sobolev", delta=1.0) - np.sqrt(5.0)) < 1e-14
    const = SpectralField(2, np.array([0, 0, np.sqrt(2 * np.pi), 0, 0], dtype=complex))
    assert abs(norm(const, "sup") - 1.0) < 1e-13
    with pytest.raises(ValueError):
        norm(u, "l3")


def test_sobolev_weight_reduces_to_l2_at_zero():
    rng = np.random.default_rng(16)
    u = random_field(6, rng)
    assert abs(norm(u, "sobolev", delta=0.0) - u.l2()) < 1e-14


def test_inner_product_matches_integral():
    rng = np.random.default_rng(17)
    u = random_field(5, rng)
    v = random_field(5, rng)
    N = 128
    gu = synthesize(u, N).values
    gv = synthesize(v, N).values
    quad = (2 * np.pi / N) * np.sum(gu * np.conj(gv))
    assert abs(inner(u, v) - quad) < 1e-12


def test_bandwidth_embedding_round_trip():
    rng = np.random.default_rng(18)
    u = random_field(3, rng)
    big = u.with_bandwidth(7)
    assert big.coeff(2) == u.coeff(2)
    assert big.coeff(5) == 0.0
    back = big.with_bandwidth(3)
    assert np.array_equal(back.coeffs, u.coeffs)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(19)
    u = random_field(5, rng, scale=np.pi)
    text = u.to_json()
    payload = json.loads(text)
    assert payload["k"] == 5
    v = SpectralField.from_json(text)
    assert np.array_equal(v.coeffs, u.coeffs)


def test_field_validation():
    with pytest.raises(ValueError):
        SpectralField(2, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        SpectralField(1, np.array([1.0, np.nan, 0.0], dtype=complex))
