"""Small divisors of m^2 - n^2 modulo 2 pi and the strip-equation bound.

The distance of m^2 - n^2 to the nearest multiple of 2 pi controls how
strongly mode m couples across the cylinder; record minima of the scan
track the best rational approximations of 1/(2 pi), and single pairs
beyond the scan are certified one at a time.  The companion ODE
check certifies sup|w| <= sqrt(2) c / |lambda| for the decaying solution
of w' = lambda w + f with any compactly supported |f| <= c.
"""

import numpy as np

from nlsfloer.smalldiv import (
    convergents,
    cosine_forcing,
    divisor,
    divisor_scan,
    inv_two_pi,
    ode_bound_check,
    random_forcing,
)


def main():
    report = divisor_scan(2000, 0)
    print("record minima of |m^2 - 2 pi p| for m <= 2000:")
    for rec in report.records:
        print(f"  m={rec.m:5d}  p*={rec.p_star:7d}  value {rec.value:.6e}")
    print(
        f"envelope: value >= {report.fitted_c:.3e} * m^-14 over the scan, "
        f"worst record exponent {report.worst_exponent:.2f}"
    )
    print("single m beyond the scan (q = m^2 > 10^8 is certified in extended precision):")
    for m in (10**6, 10**12):
        rec = divisor(m, 0)
        print(f"  m=10^{len(str(m)) - 1:<2d}  p*={rec.p_star}  value {rec.value:.6e}")

    center, eta = inv_two_pi()
    conv = convergents(center, 8, uncertainty=eta)
    print("\nconvergents p/q of 1/(2 pi):")
    for e in conv:
        print(f"  {e.p:7d}/{e.q:<7d} error {e.error:.2e}")
    qs = {rec.p_star for rec in report.records}
    hits = qs.intersection(e.p for e in conv)
    print(f"record p* values that are convergent numerators: {sorted(hits)}")

    print("\nstrip-equation bound sup|w| <= sqrt(2) c / |lambda|:")
    for lam in (0.5, 2.0, -2.0):
        worst = 0.0
        for seed in range(25):
            chk = ode_bound_check(lam, 1.0, random_forcing(1.0, seed=seed), nodes=2000)
            assert chk.passed
            worst = max(worst, chk.sup_w / chk.bound)
        print(f"  lambda={lam:+.1f}: worst sup|w| / bound over 25 forcings = {worst:.3f}")

    chk = ode_bound_check(2.0, 1.0, cosine_forcing(plateau_periods=10), nodes=200_000)
    interior = chk.sup_on(2 * np.pi, 4 * np.pi)
    print(f"  cosine forcing interior amplitude {interior:.6f} (analytic sqrt(5)/5 = {np.sqrt(5)/5:.6f})")


if __name__ == "__main__":
    main()
