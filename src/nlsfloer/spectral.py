"""Band-limited Fourier fields on the circle R/2piZ.

Conventions used throughout the package:

    u(x) = (2pi)^(-1/2) * sum_{|n|<=k} c_n exp(i n x)

so the L2 norm of u over [0, 2pi] equals the l2 norm of the coefficient
vector exactly.  A bandwidth-k field stores the 2k+1 coefficients in the
order n = -k, ..., k.  Collocation grids are uniform, x_j = 2pi j / N, and
analysis/synthesis are exact inverses of each other whenever N >= 2k+1.

Convolution acts diagonally on coefficients: (u * psi)^(n) = u^(n) psi^(n),
with no extra 2pi factor.  smooth_step is the C-infinity step that both the
cylinder cutoff and the small-divisor forcing windows are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi
ROOT_2PI = math.sqrt(TWO_PI)


@dataclass
class SpectralField:
    """Coefficients c_n, n = -k..k, of a band-limited field."""

    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.k < 0:
            raise ValueError("bandwidth must be nonnegative")
        if self.coeffs.shape != (2 * self.k + 1,):
            raise ValueError(
                f"expected {2 * self.k + 1} coefficients for bandwidth {self.k}, "
                f"got shape {self.coeffs.shape}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def l2(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def synthesize_many(
    coeffs: np.ndarray,
    k: int,
    N: int,
    out: Optional[np.ndarray] = None,
    pad: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched synthesis: coeffs has shape (..., 2k+1), output (..., N).

    A caller that synthesizes many batches of one shape can pass the
    buffers: pad is zero outside its band columns (they are overwritten),
    and out receives the values.
    """
    if N < 2 * k + 1:
        raise ValueError(f"grid size {N} cannot represent bandwidth {k}")
    if pad is None:
        pad = np.zeros(coeffs.shape[:-1] + (N,), dtype=np.complex128)
    pad[..., : k + 1] = coeffs[..., k:]
    pad[..., N - k :] = coeffs[..., :k]
    out = np.fft.ifft(pad, axis=-1, out=out)
    out *= N / ROOT_2PI
    return out


def analyze_many(
    values: np.ndarray,
    k: int,
    out: Optional[np.ndarray] = None,
    spec: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched analysis: values has shape (..., N), output (..., 2k+1).

    A caller can pass the buffers: spec receives the full N-point
    spectrum (it may be values itself, which is then overwritten), and
    out the band.
    """
    N = values.shape[-1]
    if N < 2 * k + 1:
        raise ValueError(f"grid size {N} aliases bandwidth {k}")
    spec = np.fft.fft(values, axis=-1, out=spec)
    if out is None:
        out = np.empty(values.shape[:-1] + (2 * k + 1,), dtype=np.complex128)
    scale = ROOT_2PI / N
    np.multiply(spec[..., N - k :], scale, out=out[..., :k])
    np.multiply(spec[..., : k + 1], scale, out=out[..., k:])
    return out


def smooth_step(y) -> np.ndarray:
    """C-infinity step: 0 for y <= 0, 1 for y >= 1, symmetric about 1/2."""
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    inside = (y > 0.0) & (y < 1.0)
    yi = y[inside]
    e0 = np.exp(-1.0 / yi)
    e1 = np.exp(-1.0 / (1.0 - yi))
    out[inside] = e0 / (e0 + e1)
    out[y >= 1.0] = 1.0
    return out
