"""Continue the free single-mode states into the interacting model.

Each free state e_n is a projective fixed point of the time-one map;
ramping the coupling from 0 to its target strength and correcting with
Newton at every step produces the interacting family.  The members stay
far apart in the Fubini-Study metric and their coefficient tails decay
faster than any tested inverse power of the cutoff.
"""

import numpy as np

from nlsfloer.diagnostics import distinctness_report, normal_profile
from nlsfloer.dynamics import continue_fixed_point, fixed_point_residual
from nlsfloer.model import ModelSpec, Potential, cosine_field, exponential_kernel


def main():
    k = 6
    model = ModelSpec(exponential_kernel(1.0, k), Potential(0.05, cosine_field(k)), k)

    points = []
    for n in range(0, 4):
        result = continue_fixed_point(model, n)
        entry = result.final
        check = fixed_point_residual(model, entry.point, steps=800)
        print(
            f"n={n}: eps {entry.eps:.3f}, corrector residual {entry.residual:.2e}, "
            f"time-one-map residual {check:.2e}"
        )
        points.append(entry.point)

    rep = distinctness_report(points)
    print("\npairwise Fubini-Study distances:")
    for row in rep.distances:
        print("  " + "  ".join(f"{d:6.3f}" for d in row))
    print(f"closest pair: {rep.min_offdiag:.3f} (flags: {list(rep.flagged)})")

    prof = normal_profile(points[0], range(1, k))
    print("\nmode-0 point, mass beyond cutoff ell (weighted by ell^3):")
    for ell, norm, w in zip(prof.ell_values, prof.norms, prof.weighted[:, 2]):
        print(f"  ell={ell}: tail {norm:.2e}, tail*ell^3 {w:.2e}")


if __name__ == "__main__":
    main()
