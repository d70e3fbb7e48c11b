"""Divisor scans, continued fractions, decaying-solution bound."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from nlsfloer.smalldiv import (
    DivisorRecord,
    Forcing,
    _divisor_exact,
    _pi_floor,
    convergents,
    cosine_forcing,
    divisor,
    divisor_scan,
    inv_two_pi,
    ode_bound_check,
    random_forcing,
)

TWO_PI = 2.0 * math.pi


def brute_divisor(m, n):
    q = m * m - n * n
    span = int(abs(q) / TWO_PI) + 2
    best = min(abs(q - TWO_PI * p) for p in range(-span, span + 1))
    return best


# ---------------------------------------------------------------------------
# divisors


def test_divisor_zero_on_diagonal():
    for m, n in [(1, 1), (3, -3), (0, 0)]:
        rec = divisor(m, n)
        assert rec.value == 0.0
        assert rec.p_star == 0


def test_divisor_known_values():
    rec = divisor(5, 0)
    assert rec.p_star == 4
    assert abs(rec.value - abs(25 - 8 * math.pi)) < 1e-12
    assert abs(rec.value - 0.132741) < 1e-6
    rec = divisor(3, 1)
    assert rec.p_star == 1
    assert abs(rec.value - abs(8 - TWO_PI)) < 1e-12
    assert abs(rec.value - 1.716815) < 1e-6


def test_divisor_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(0, 200))
        n = int(rng.integers(-50, 50))
        assert abs(divisor(m, n).value - brute_divisor(m, n)) < 1e-9


def test_divisor_symmetries():
    for m, n in [(7, 2), (12, 5), (9, 11)]:
        v = divisor(m, n).value
        assert divisor(-m, n).value == v
        assert divisor(m, -n).value == v
        assert divisor(-m, -n).value == v


def test_divisor_bounded_by_pi():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(0, 3000))
        n = int(rng.integers(0, 100))
        assert divisor(m, n).value <= math.pi


def test_divisor_large_argument_precision():
    # double 2*pi alone misplaces the value at this scale
    m = 10**6 + 3
    rec = divisor(m, 0)
    q = m * m
    with_extended = brute = None
    with mp.workdps(50):
        p = int(mp.nint(mp.mpf(q) / (2 * mp.pi)))
        expected = float(abs(q - 2 * mp.pi * p))
    assert rec.p_star == p
    assert abs(rec.value - expected) < 1e-10


def _mp_divisor(q):
    # the same working precision as _divisor_exact, with mpmath's pi
    with mp.workdps(max(40, len(str(abs(q))) + 20)):
        two_pi = 2 * mp.pi
        p = int(mp.nint(mp.mpf(q) / two_pi))
        return p, float(abs(q - two_pi * p))


@pytest.mark.parametrize("n", [0, 3, -40])
def test_divisor_agrees_with_every_scan_row(n):
    rep = divisor_scan(10_050, n)
    for i, m in enumerate(rep.ms):
        rec = divisor(int(m), n)
        row = (int(rep.p_stars[i]), float(rep.values[i]))
        assert (rec.p_star, rec.value) == row
        assert row == _mp_divisor(int(rep.qs[i])), int(m)


def test_divisor_beyond_int64():
    m = 10**12 + 39
    q = m * m - 1
    assert q > 2**63
    with mp.workdps(60):
        p = int(mp.nint(mp.mpf(q) / (2 * mp.pi)))
        expected = float(abs(q - 2 * mp.pi * p))
    rec = divisor(m, 1)
    assert rec.p_star == p
    assert abs(rec.value - expected) < 1e-10


@pytest.mark.parametrize("m", [10**15, 10**16, 10**20, 10**50])
def test_divisor_keeps_digits_past_the_cancellation(m):
    # q - 2*pi*p cancels the digits of q, so a fixed working precision
    # loses the value once q is long enough
    q = m * m - 1
    with mp.workdps(len(str(q)) + 30):
        p = int(mp.nint(mp.mpf(q) / (2 * mp.pi)))
        expected = float(abs(q - 2 * mp.pi * p))
    rec = divisor(m, 1)
    assert rec.p_star == p
    assert 0.0 <= rec.value <= math.pi
    assert abs(rec.value - expected) <= 1e-15 * expected


def test_pi_floor_matches_mpmath():
    for d in range(301):
        with mp.workdps(d + 15):
            assert _pi_floor(d) == int(mp.floor(mp.pi * 10**d)), d
    for d in (1, 20, 50, 200):
        with mp.workdps(d + 15):
            pi_lower = Fraction(int(mp.floor(mp.pi * 10**d)), 10**d)
        assert inv_two_pi(d) == (1 / (2 * pi_lower), Fraction(1, 10**d))


def test_divisor_exact_is_bitwise_the_mpmath_reference():
    gaps = [m * m - n * n for m in range(0, 3000, 7) for n in range(0, 40, 3)]
    gaps += [10**29 + 7, -(3 * 10**40 + 11), 10**49 - 1]
    rng = random.Random(16)
    gaps += [rng.randrange(-(10**60), 10**60) for _ in range(200)]
    for q in gaps:
        assert _divisor_exact(q) == _mp_divisor(q), q


def test_scan_minimal():
    rep = divisor_scan(2, n=1)
    assert len(rep.records) == 1
    assert rep.records[0].m == 2
    assert rep.worst_exponent == 0.0


def test_scan_contains_known_record():
    rep = divisor_scan(100, n=0)
    by_m = {r.m: r for r in rep.records}
    assert 5 in by_m
    assert abs(by_m[5].value - 0.132741) < 1e-6


def test_scan_certificate():
    rep = divisor_scan(2000, n=0)
    assert rep.fitted_c > 0
    ms = rep.ms.astype(float)
    assert np.all(rep.values >= rep.fitted_c * ms**-14 - 1e-30)
    assert rep.worst_exponent >= -14
    # records are strictly decreasing in value, increasing in m
    vals = [r.value for r in rep.records]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert np.count_nonzero(rep.is_record) == len(rep.records)


@pytest.mark.parametrize("n", [0, 3])
def test_scan_records_are_the_running_minimum_loop(n):
    rep = divisor_scan(10_000, n=n)
    is_record = np.zeros(len(rep.ms), dtype=bool)
    records = []
    best = math.inf
    for i, (m, p, value) in enumerate(zip(rep.ms, rep.p_stars, rep.values)):
        if value < best:
            best = value
            is_record[i] = True
            records.append(DivisorRecord(int(m), int(p), float(value)))
    assert np.array_equal(rep.is_record, is_record)
    assert rep.records == records


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        divisor_scan(3, n=5)


# ---------------------------------------------------------------------------
# continued fractions


def test_rational_cf_terminates():
    rep = convergents(Fraction(3, 7), count=10)
    # fewer entries than asked, the last one exact: the expansion ended
    assert [(e.p, e.q) for e in rep] == [(0, 1), (1, 2), (3, 7)]
    assert rep[-1].error == 0.0


def test_decimal_string_is_exact():
    rep = convergents("0.375", count=10)
    assert (rep[-1].p, rep[-1].q) == (3, 8)
    assert len(rep) < 10 and rep[-1].error == 0.0


def test_golden_ratio_fibonacci():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    rep = convergents(phi, count=10)
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert len(rep) == 10
    for i, e in enumerate(rep):
        assert (e.index, e.p, e.q) == (i, fib[i + 1], fib[i])
    assert rep[-1].error > 0.0


def test_inv_two_pi_convergents():
    x, eta = inv_two_pi(digits=50)
    rep = convergents(x, count=12, uncertainty=eta)
    assert (rep[0].p, rep[0].q) == (0, 1)
    assert (rep[1].p, rep[1].q) == (1, 6)
    assert len(rep) == 12
    for e in rep:
        assert e.error < 1.0 / e.q**2 + 1e-18


def test_quality_bound_holds_for_floats():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = float(rng.uniform(0.01, 10.0))
        rep = convergents(x, count=8)
        for e in rep:
            assert e.error < 1.0 / e.q**2


def test_low_precision_truncates():
    # 3 correct digits cannot certify deep convergents
    rep = convergents("0.159", count=10, uncertainty=Fraction(1, 1000))
    # [0.158, 0.160] agrees on 0; 6 and then splits on 3 or 4
    assert [(e.p, e.q) for e in rep] == [(0, 1), (1, 6)]
    assert rep[-1].error > 0.0


def test_convergents_input_validation():
    with pytest.raises(ValueError):
        convergents(0.5, count=0)
    with pytest.raises(ValueError):
        convergents(-1.0, count=3)
    with pytest.raises(TypeError):
        convergents([1, 2], count=3)


# ---------------------------------------------------------------------------
# decaying-solution bound


def test_zero_forcing_zero_solution():
    chk = ode_bound_check(1.5, 1.0, Forcing(support=(-1.0, 1.0), profile=np.zeros_like))
    assert chk.sup_w == 0.0
    assert chk.passed


def test_cosine_closed_form():
    # particular solution amplitude 1/sqrt(1+lambda^2)
    chk = ode_bound_check(2.0, 1.0, cosine_forcing(plateau_periods=10), nodes=200_000)
    interior = chk.sup_on(TWO_PI, 2 * TWO_PI)
    assert abs(interior - math.sqrt(5.0) / 5.0) < 1e-6
    assert chk.passed
    assert chk.sup_w <= math.sqrt(2.0) / 2.0 + 1e-10


def test_cosine_closed_form_negative_lambda():
    chk = ode_bound_check(-2.0, 1.0, cosine_forcing(plateau_periods=10), nodes=200_000)
    interior = chk.sup_on(6 * TWO_PI, 8 * TWO_PI)
    assert abs(interior - math.sqrt(5.0) / 5.0) < 1e-6
    assert chk.passed


def test_bump_bound():
    # a plateau of height 0.9 and length 6: w climbs to within e^-6 of 0.9 / |lambda|
    bump = Forcing(support=(-1.0, 5.0), profile=lambda s: np.full_like(s, 0.9))
    chk = ode_bound_check(-1.0, 1.0, bump)
    assert 0.89 <= chk.sup_w <= 0.9 + 1e-6
    assert chk.passed


def test_solution_solves_ode():
    # central difference of w against lambda w + f on interior nodes
    lam = 0.7
    forcing = random_forcing(0.8, seed=3)
    chk = ode_bound_check(lam, 1.0, forcing, nodes=50_000)
    s, w = chk.s, chk.w
    ds = s[1] - s[0]
    lhs = (w[2:] - w[:-2]) / (2 * ds)
    rhs = lam * w[1:-1] + forcing.values(s[1:-1])
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_random_forcings_never_violate():
    for lam in (0.5, -0.5, 2.0, -2.0):
        for seed in range(100):
            f = random_forcing(1.0, seed=seed)
            chk = ode_bound_check(lam, 1.0, f, nodes=2000)
            assert chk.passed, (lam, seed)
            # the sqrt(2) factor is slack in practice
            assert chk.sup_w <= 1.0 / abs(lam) + 1e-8


def lfilter_solution(lam, forcing, nodes):
    """The decaying solution by scipy's first-order recursive filter."""
    from scipy.signal import lfilter

    a, b = forcing.support
    s = np.linspace(a, b, nodes + 1)
    d = (b - a) / nodes
    f_mid = forcing.values(0.5 * (s[:-1] + s[1:]))
    alpha = math.exp(-lam * d)
    drive = -d * math.exp(-lam * d / 2.0) * f_mid[::-1]
    y = lfilter([1.0], [1.0, -alpha], drive)
    return np.concatenate([y[::-1], [0.0]])


@pytest.mark.parametrize("lam", [0.7, -0.7, 3.0, -3.0])
def test_solution_matches_lfilter_bit_for_bit(lam):
    forcing = random_forcing(1.0, seed=5)
    a, b = forcing.support
    mirrored = Forcing(support=(-b, -a), profile=lambda r: -forcing.values(-r))
    for nodes in (10, 999, 5000, 20_000):
        chk = ode_bound_check(lam, 1.0, forcing, nodes=nodes)
        if lam > 0:
            expected = lfilter_solution(lam, forcing, nodes)
        else:
            expected = lfilter_solution(-lam, mirrored, nodes)[::-1]
        assert np.array_equal(chk.w, expected), nodes


def test_ode_check_validation():
    zero = Forcing(support=(-1.0, 1.0), profile=np.zeros_like)
    with pytest.raises(ValueError):
        ode_bound_check(0.0, 1.0, zero)
    with pytest.raises(ValueError):
        ode_bound_check(1.0, -1.0, zero)
    with pytest.raises(ValueError):
        ode_bound_check(1.0, 0.5, random_forcing(0.9, seed=0))


def test_forcing_vanishes_outside_support():
    f = cosine_forcing(plateau_periods=2)
    s = np.array([f.support[0] - 1.0, f.support[1] + 1.0])
    assert np.all(f.values(s) == 0.0)
