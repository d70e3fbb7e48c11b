"""Independent reference assemblies the tests compare the package against."""

import math

import numpy as np

from nlsfloer.floer import (
    CutoffProfile,
    FloerResidual,
    FloerState,
    _dt_spectral,
    _grad_rows,
    _project_out,
)
from nlsfloer.model import ModelSpec, mode_squares


def floer_residual_twisted(
    model: ModelSpec, state: FloerState, cutoff: CutoffProfile
) -> FloerResidual:
    """The cylinder residual assembled in the untransformed twisted picture.

    The stored state is mapped node by node through the inverse free flow,
    differentiated with the twist-aware t-derivative, and driven by the
    rotated gradient grad G_t; the result is mapped back.  Per mode the
    free flow is a phase, so this must agree with floer_residual to
    rounding; it exercises the conjugation identities end to end.
    """
    grid = state.grid
    C = state.normalized()
    phi = cutoff.phi(grid.s_nodes)
    n2 = mode_squares(grid.k)
    phases = np.exp(-1j * n2[None, :] * grid.t_nodes[:, None])  # free flow
    U = C * np.conj(phases)[None]  # twisted picture nodes

    Ds = (U[2:] - U[:-2]) / (2.0 * grid.ds)
    W = U * phases[None]
    DtW = _dt_spectral(W)
    # twisted derivative: conjugate back and subtract the connection term
    DtU = DtW * np.conj(phases)[None] - (1j * (-n2))[None, None, :] * U
    UI = U[1:-1]
    # grad G_t via conjugation by the free flow
    G = _grad_rows(model, UI * phases[None], grid.t_nodes) * np.conj(phases)[None]
    lin = Ds + 1j * DtU[1:-1]
    R = _project_out(lin + phi[1:-1, None, None] * G, UI)
    back = R * phases[None]
    norm = math.sqrt(grid.ds * grid.dt * float(np.sum(np.abs(back) ** 2)))
    return FloerResidual(field=back, norm=norm)
