"""Solve the cylinder boundary value problem joining two fixed points.

The curve interpolates between the free orbit of e_0 on the far left
and the orbit of the interacting fixed point on the far right, with the
coupling switched on by the grid's cutoff profile over [-1, 2T+1].  The damped
Gauss-Newton solve drives the projected first-order system below
tolerance; the curve energy stays under twice the oscillation norm of
the coupling, and slices near both ends land back on the orbits.
"""

import numpy as np

from nlsfloer.diagnostics import gradient_monitor, integrate_density
from nlsfloer.dynamics import continue_fixed_point, fs_distance, mode_point
from nlsfloer.floer import CylinderGrid, boundary_orbit, extract_slices, solve_floer
from nlsfloer.model import ModelSpec, Potential, cosine_field, exponential_kernel, hofer_norm


def main():
    k = 4
    model = ModelSpec(exponential_kernel(1.0, k), Potential(0.05, cosine_field(k)), k)
    grid = CylinderGrid(S=4.0, N_s=80, N_t=16, k=k, T=1.0)

    target = continue_fixed_point(model, 0).final.point
    left = boundary_orbit(mode_point(0, k), grid.N_t, side="left")
    right = boundary_orbit(target, grid.N_t, side="right")

    result = solve_floer(model, grid, (left, right), tol=1e-8)
    print("iter  residual    energy      damping  lsmr_itn  lsmr_istop")
    for h in result.history:
        print(
            f"{h['iteration']:4d}  {h['residual_norm']:.2e}  "
            f"{h['energy']:.4e}  {h['damping']:.1e}  {h['lsmr_itn']:8d}  "
            f"{h['lsmr_istop']}"
        )
    print(f"converged: {result.converged} ({result.message})")

    hofer = hofer_norm(model)
    print(f"\nenergy {result.energy:.4e} vs bound 2*|||G||| = {2*hofer.estimate:.4e}")

    # the end row is pinned to the orbit; the row next to it is solved
    near_end = max(map(fs_distance, result.state.coeffs[-2], right))
    print(f"row next to the right end, largest distance to its orbit: {near_end:.2e}")

    monitor = gradient_monitor(result.state, model)
    quad = integrate_density(result.state, monitor["energy_density_map"])
    print(f"sup |D_s| {monitor['sup_ds']:.3e}, density integrates to {quad:.4e}")

    for r in extract_slices(result.equation, gamma_max=1):
        if r.count > 0:
            print(
                f"gamma={r.gamma} {r.side:>5}: slice at s={r.s:+.2f}, "
                f"criterion {r.criterion:.1e}, orbit distance {r.distance:.1e}"
            )


if __name__ == "__main__":
    main()
