"""Independent reference assemblies the tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np

from nlsfloer.floer import (
    CutoffProfile,
    FloerResidual,
    FloerState,
    _dt_spectral,
    _grad_rows,
    _project_out,
    _smooth_step,
)
from nlsfloer.model import ModelSpec, mode_squares
from nlsfloer.spectral import TWO_PI, SpectralField, analyze_many, synthesize_many


@dataclass
class GridField:
    """Samples of a function at the uniform grid x_j = 2pi j / N."""

    N: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.N < 1 or self.values.shape != (self.N,):
            raise ValueError("values must have shape (N,) with N >= 1")


def grid_nodes(N: int) -> np.ndarray:
    return TWO_PI * np.arange(N) / N


def synthesize(u: SpectralField, N: int) -> GridField:
    """Evaluate u on the N-point uniform grid; N >= 2k+1 (synthesize_many)."""
    return GridField(N, synthesize_many(u.coeffs, u.k, N))


def analyze(g: GridField, k: int) -> SpectralField:
    """Project grid samples onto 2k+1 Fourier modes; N >= 2k+1 (analyze_many)."""
    return SpectralField(k, analyze_many(g.values, k))


def _smooth_step_slope(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    inside = (y > 0.0) & (y < 1.0)
    yi = y[inside]
    e0 = np.exp(-1.0 / yi)
    e1 = np.exp(-1.0 / (1.0 - yi))
    out[inside] = (
        e0 * e1 * (yi**-2 + (1.0 - yi) ** -2) / (e0 + e1) ** 2
    )
    return out


def cutoff_slope(cutoff: CutoffProfile, s) -> np.ndarray:
    """d phi / ds of the cutoff profile, from the exact smoothstep derivative."""
    s = np.asarray(s, dtype=np.float64)
    if cutoff.T == 0.0:
        return np.zeros_like(s)
    up = _smooth_step(s + 1.0)
    down = _smooth_step(2.0 * cutoff.T + 1.0 - s)
    return (
        _smooth_step_slope(s + 1.0) * down
        - up * _smooth_step_slope(2.0 * cutoff.T + 1.0 - s)
    )


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
