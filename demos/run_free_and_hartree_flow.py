"""Exact flows on the band: free phases, hartree diagonal, conservation.

The free propagator multiplies mode n by e^{-i n^2 t}; the hartree
nonlinearity only shifts those frequencies by eps psi^(n)^2, so both
flows are exactly diagonal and the split-step integrator reproduces
them to rounding.  Every catalog member conserves the L2 norm.
"""

import numpy as np

from nlsfloer.dynamics import evolve, free_flow
from nlsfloer.model import Hartree, ModelSpec, Potential, cosine_field, exponential_kernel


def random_unit(k, rng):
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    return c / np.linalg.norm(c)


def main():
    k = 8
    rng = np.random.default_rng(0)
    u0 = random_unit(k, rng)
    n = np.arange(-k, k + 1).astype(float)

    t = 0.7
    exact = u0 * np.exp(-1j * n**2 * t)
    err = np.max(np.abs(free_flow(u0, t) - exact))
    print(f"free flow vs analytic phases at t={t}: {err:.2e}")

    eps = 0.1
    hart = ModelSpec(exponential_kernel(1.0, k), Hartree(eps), k)
    u1 = evolve(hart, u0, 0.0, 1.0, 500)
    omega = n**2 + eps * hart.psi_band**2
    err = np.max(np.abs(u1 - u0 * np.exp(-1j * omega)))
    print(f"hartree flow vs diagonal closed form at t=1: {err:.2e}")

    pot = ModelSpec(exponential_kernel(1.0, k), Potential(0.05, cosine_field(k)), k)
    u2 = evolve(pot, u0, 0.0, 1.0, 500)
    print(f"potential flow L2 drift over [0,1]:          {abs(np.linalg.norm(u2) - np.linalg.norm(u0)):.2e}")
    print(f"potential flow moved the state by            {np.linalg.norm(u2 - u0):.3f}")


if __name__ == "__main__":
    main()
