"""Small divisors, continued fractions, and the decaying-solution ODE bound.

The resonance analysis needs three tools: nearest-multiple distances
|q - 2*pi*p| for integer phase gaps q = m^2 - n^2, certified continued
fraction convergents of the constants involved, and a quadrature oracle
for the bound sup|w| <= sqrt(2) c / |lambda| on the decaying solution of
w' = lambda w + f with compactly supported forcing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectral import TWO_PI, smooth_step

# ---------------------------------------------------------------------------
# divisors


@dataclass(frozen=True)
class DivisorRecord:
    """Nearest multiple of 2*pi to q = m^2 - n^2."""

    m: int
    p_star: int
    value: float


@lru_cache(maxsize=8)  # a scan asks for the same digits at every large gap
def _pi_floor(digits: int) -> int:
    """floor(pi * 10^digits) by Machin: pi = 16 atan(1/5) - 4 atan(1/239).

    Each atan(1/x) is summed in integers scaled by 10^(digits + guard) until
    its power floors to 0, after n terms.  Each term is truncated twice, so
    is under 2 units off, and the alternating tail is under 1 unit: the total
    is within E = 16 (2 n5 + 1) + 4 (2 n239 + 1) units.  The floor is certified
    when total - E and total + E share it; otherwise 10 guard digits are added.
    """
    for guard in itertools.count(10, 10):
        total = bound = 0
        for weight, x in ((16, 5), (-4, 239)):
            power, n = 10 ** (digits + guard) // x, 0
            while power:
                total += weight * (-1) ** n * (power // (2 * n + 1))
                power, n = power // (x * x), n + 1
            bound += abs(weight) * (2 * n + 1)
        lo, hi = (total - bound) // 10**guard, (total + bound) // 10**guard
        if lo == hi:
            return lo


def _divisor_exact(q: int) -> tuple[int, float]:
    """p_star and |q - 2*pi*p_star| in integers scaled by 10^digits.

    2*_pi_floor(digits) stands for 2*pi*10^digits, p_star is the nearest
    integer to q/(2*pi) and int/int division rounds the value correctly.
    """
    # q - 2*pi*p cancels the digits of q; keep 20 beyond them
    digits = max(40, len(str(abs(q))) + 20)
    scale, two_pi = 10**digits, 2 * _pi_floor(digits)
    p = (2 * q * scale + two_pi) // (2 * two_pi)
    return p, abs(q * scale - two_pi * p) / scale


def divisor(m: int, n: int) -> DivisorRecord:
    """Distance of m^2 - n^2 to the nearest multiple of 2*pi."""
    p, value = _divisor_exact(int(m) * int(m) - int(n) * int(n))
    return DivisorRecord(m=int(m), p_star=p, value=value)


@dataclass
class ScanReport:
    """Divisor scan over m = |n|+1 .. m_max with record minima.

    fitted_c is the scan minimum of value * m^14, so every scanned value
    satisfies value >= fitted_c * m^-14 by construction.  worst_exponent
    is the steepest log-log slope from the first record to any later
    record minimum; slopes between adjacent records are too noisy when
    the records sit close in m, while the anchored slope certifies the
    envelope value >= v0 * (m/m0)^worst_exponent over the whole scan.
    """

    records: list
    fitted_c: float
    worst_exponent: float
    ms: np.ndarray = field(repr=False)
    qs: np.ndarray = field(repr=False)
    p_stars: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    is_record: np.ndarray = field(repr=False)


def divisor_scan(m_max: int, n: int = 0) -> ScanReport:
    if m_max <= abs(n):
        raise ValueError("need m_max > |n|")
    if m_max > 10**7:
        raise ValueError("scan too large; call divisor() for individual large m")
    ms = np.arange(abs(n) + 1, m_max + 1, dtype=np.int64)
    qs = ms * ms - np.int64(n) * np.int64(n)
    p_list, v_list = zip(*map(_divisor_exact, qs.tolist()))
    p_stars, values = np.array(p_list, dtype=np.int64), np.array(v_list)

    running_min = np.minimum.accumulate(values)
    is_record = values < np.concatenate([[math.inf], running_min[:-1]])
    records = [
        DivisorRecord(int(ms[i]), int(p_stars[i]), float(values[i]))
        for i in np.nonzero(is_record)[0]
    ]

    fitted_c = float(np.min(values * ms.astype(np.float64) ** 14))
    worst = 0.0
    first = records[0]
    for later in records[1:]:
        slope = (math.log(later.value) - math.log(first.value)) / (
            math.log(later.m) - math.log(first.m)
        )
        worst = min(worst, slope)
    return ScanReport(
        records=records,
        fitted_c=fitted_c,
        worst_exponent=worst,
        ms=ms,
        qs=qs,
        p_stars=p_stars,
        values=values,
        is_record=is_record,
    )


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class Convergent:
    index: int
    p: int
    q: int
    error: float


def _as_interval(x, uncertainty) -> tuple[Fraction, Fraction]:
    if not isinstance(x, (Fraction, int, str, float)):
        raise TypeError("x must be Fraction, int, str, or float")
    center = Fraction(x)
    eta = Fraction(math.ulp(x)) / 2 if isinstance(x, float) else Fraction(0)
    if uncertainty is not None:
        eta = Fraction(uncertainty)
        if eta < 0:
            raise ValueError("uncertainty must be nonnegative")
    return center - eta, center + eta


def convergents(x, count: int, uncertainty=None) -> list[Convergent]:
    """Continued fraction convergents p/q certified by interval arithmetic.

    Runs the floor recursion on [x - eta, x + eta] and emits a partial
    quotient only while the whole interval agrees on it, so every entry
    is a true convergent of any real consistent with the input precision.
    Exact inputs (Fraction, int, decimal string) carry eta = 0 unless an
    explicit uncertainty is given.  Fewer entries than requested means the
    supplied precision ran out, or the continued fraction of an exact
    rational input ended (its last error is then 0).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = _as_interval(x, uncertainty)
    if lo <= 0:
        raise ValueError("x must be positive beyond its uncertainty")
    center = (lo + hi) / 2

    terms = []
    while len(terms) < count:
        a_lo, a_hi = lo // 1, hi // 1
        if a_lo != a_hi:
            break
        terms.append(int(a_lo))
        flo, fhi = lo - a_lo, hi - a_hi
        # fhi == 0: an exact rational ended; flo == 0 alone: the interval
        # straddles an integer boundary after this quotient
        if flo == 0 or fhi == 0:
            break
        lo, hi = 1 / fhi, 1 / flo

    entries = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for i, a in enumerate(terms):
        if i == 0:
            p_cur, q_cur = a, 1
        else:
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
        err = abs(center - Fraction(p_cur, q_cur))
        entries.append(Convergent(index=i, p=p_cur, q=q_cur, error=float(err)))
    return entries


def inv_two_pi(digits: int = 50) -> tuple[Fraction, Fraction]:
    """1/(2*pi) as an exact Fraction with a certified error bound.

    Returns (value, uncertainty) suitable for convergents(); the bound
    10^-digits dominates both the decimal truncation and the reciprocal
    propagation.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return 1 / (2 * Fraction(_pi_floor(digits), 10**digits)), Fraction(1, 10**digits)


# ---------------------------------------------------------------------------
# forcing catalog


def _window(s: np.ndarray, a: float, b: float, ramp: float) -> np.ndarray:
    """Smooth plateau: ramps up over [a, a+ramp], down over [b-ramp, b]."""
    return smooth_step((s - a) / ramp) * smooth_step((b - s) / ramp)


@dataclass(frozen=True)
class Forcing:
    """Compactly supported smooth profile on [support[0], support[1]]."""

    support: tuple
    profile: Callable

    def values(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros_like(s)
        a, b = self.support
        inside = (s > a) & (s < b)
        out[inside] = self.profile(s[inside])
        return out

    def sup_estimate(self) -> float:
        a, b = self.support
        grid = np.linspace(a, b, 4096)
        return float(np.max(np.abs(self.values(grid))))


def cosine_forcing(plateau_periods: int = 10) -> Forcing:
    """cos(s) under a smooth window: plateau [0, plateau_periods * 2pi], ramps 2pi."""
    if plateau_periods < 1:
        raise ValueError("need at least one plateau period")
    b = plateau_periods * TWO_PI
    ramp = TWO_PI
    return Forcing(
        support=(-ramp, b + ramp),
        profile=lambda s: np.cos(s) * _window(s, -ramp, b + ramp, ramp),
    )


def random_forcing(c: float, seed: int) -> Forcing:
    """Windowed sum of six random cosines with sup strictly below c.

    The plateau is [0, 6] with ramps of width 1 on either side.
    """
    terms, plateau, ramp = 6, 6.0, 1.0
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(terms)
    freqs = rng.uniform(0.5, 4.0, size=terms)
    phases = rng.uniform(0.0, TWO_PI, size=terms)

    def trig(s):
        acc = np.zeros_like(s)
        for a, w, ph in zip(amps, freqs, phases):
            acc += a * np.cos(w * s + ph)
        return acc

    a, b = -ramp, plateau + ramp
    grid = np.linspace(a, b, 4096)
    peak = np.max(np.abs(trig(grid) * _window(grid, a, b, ramp)))
    scale = 0.9 * c / peak if peak > 0 else 0.0
    return Forcing(
        support=(a, b),
        profile=lambda s: scale * trig(s) * _window(s, a, b, ramp),
    )


# ---------------------------------------------------------------------------
# decaying-solution bound


@dataclass
class OdeCheck:
    """Quadrature check of sup|w| <= sqrt(2) c / |lambda|.

    s and w sample the unique decaying solution of w' = lambda w + f on
    the forcing window; outside it the solution only decays, so sup_w
    over the grid covers the whole line.
    """

    sup_w: float
    bound: float
    passed: bool
    s: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    def sup_on(self, lo: float, hi: float) -> float:
        mask = (self.s >= lo) & (self.s <= hi)
        if not np.any(mask):
            raise ValueError("no grid nodes in the requested interval")
        return float(np.max(np.abs(self.w[mask])))


def _decaying_solution(lam: float, forcing: Forcing, nodes: int):
    """w(s) = -int_s^inf e^{lam (s-sigma)} f(sigma) dsigma for lam > 0.

    Composite midpoint under the segmentwise integrating factor gives the
    stable backward recursion w_i = e^{-lam d} w_{i+1} - d e^{-lam d/2} f_mid.
    """
    a, b = forcing.support
    s = np.linspace(a, b, nodes + 1)
    d = (b - a) / nodes
    f_mid = forcing.values(0.5 * (s[:-1] + s[1:]))
    alpha = math.exp(-lam * d)
    gain = d * math.exp(-lam * d / 2.0)
    w = [0.0]
    for x in (-gain * f_mid[::-1]).tolist():
        w.append(x + alpha * w[-1])
    return s, np.array(w[::-1])


def ode_bound_check(
    lam: float, c: float, forcing: Forcing, nodes: int = 10_000
) -> OdeCheck:
    """Bound certificate for the decaying solution of w' = lambda w + f."""
    if abs(lam) < 1e-12:
        raise ValueError("|lambda| below 1e-12: the bound is vacuous")
    if c <= 0:
        raise ValueError("c must be positive")
    if nodes < 10:
        raise ValueError("nodes too few for the quadrature")
    sup_f = forcing.sup_estimate()
    if sup_f > c + 1e-12:
        raise ValueError(f"forcing exceeds c: sup|f| = {sup_f:g} > {c:g}")

    if lam > 0:
        s, w = _decaying_solution(lam, forcing, nodes)
    else:
        a, b = forcing.support
        mirrored = Forcing(support=(-b, -a), profile=lambda r: -forcing.values(-r))
        r, v = _decaying_solution(-lam, mirrored, nodes)
        s, w = -r[::-1], v[::-1]

    sup_w = float(np.max(np.abs(w)))
    bound = math.sqrt(2.0) * c / abs(lam)
    return OdeCheck(
        sup_w=sup_w,
        bound=bound,
        passed=sup_w <= bound + 1e-10,
        s=s,
        w=w,
    )
