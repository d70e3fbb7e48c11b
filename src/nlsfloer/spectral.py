"""Band-limited Fourier fields on the circle R/2piZ.

Conventions used throughout the package:

    u(x) = (2pi)^(-1/2) * sum_{|n|<=k} c_n exp(i n x)

so the L2 norm of u over [0, 2pi] equals the l2 norm of the coefficient
vector exactly.  A bandwidth-k field stores the 2k+1 coefficients in the
order n = -k, ..., k.  Collocation grids are uniform, x_j = 2pi j / N, and
analysis/synthesis are exact inverses of each other whenever N >= 2k+1.

Convolution acts diagonally on coefficients: (u * psi)^(n) = u^(n) psi^(n),
with no extra 2pi factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def with_bandwidth(self, k_new: int) -> "SpectralField":
        """Embed (zero-pad) or restrict to bandwidth k_new.

        Restriction drops the modes |n| > k_new.
        """
        if k_new == self.k:
            return SpectralField(self.k, self.coeffs.copy())
        out = np.zeros(2 * k_new + 1, dtype=np.complex128)
        m = min(self.k, k_new)
        out[k_new - m : k_new + m + 1] = self.coeffs[self.k - m : self.k + m + 1]
        return SpectralField(k_new, out)

    def l2(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def basis_point(n: int, k: int) -> SpectralField:
    """Unit-norm single-mode field: coefficients delta_{m,n}.

    On the grid this is (2pi)^(-1/2) exp(i n x).
    """
    if abs(n) > k:
        raise ValueError("mode outside bandwidth")
    c = np.zeros(2 * k + 1, dtype=np.complex128)
    c[n + k] = 1.0
    return SpectralField(k, c)


def synthesize_many(coeffs: np.ndarray, k: int, N: int) -> np.ndarray:
    """Batched synthesis: coeffs has shape (..., 2k+1), output (..., N)."""
    if N < 2 * k + 1:
        raise ValueError(f"grid size {N} cannot represent bandwidth {k}")
    shape = coeffs.shape[:-1] + (N,)
    buf = np.zeros(shape, dtype=np.complex128)
    buf[..., : k + 1] = coeffs[..., k:]
    if k > 0:
        buf[..., N - k :] = coeffs[..., :k]
    return np.fft.ifft(buf, axis=-1) * (N / ROOT_2PI)


def analyze_many(values: np.ndarray, k: int) -> np.ndarray:
    """Batched analysis: values has shape (..., N), output (..., 2k+1)."""
    N = values.shape[-1]
    if N < 2 * k + 1:
        raise ValueError(f"grid size {N} aliases bandwidth {k}")
    spec = np.fft.fft(values, axis=-1) * (ROOT_2PI / N)
    out = np.empty(values.shape[:-1] + (2 * k + 1,), dtype=np.complex128)
    out[..., k:] = spec[..., : k + 1]
    if k > 0:
        out[..., :k] = spec[..., N - k :]
    return out
