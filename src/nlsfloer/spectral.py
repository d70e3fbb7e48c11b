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

import json
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

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.k, self.k + 1)

    def coeff(self, n: int) -> complex:
        """Coefficient of exp(i n x); zero outside the stored band."""
        if abs(n) > self.k:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.k])

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

    def normalized(self) -> "SpectralField":
        s = self.l2()
        if s == 0.0:
            raise ValueError("cannot normalize the zero field")
        return SpectralField(self.k, self.coeffs / s)

    # The arithmetic below embeds both operands into the larger band.
    def __add__(self, other: "SpectralField") -> "SpectralField":
        k = max(self.k, other.k)
        return SpectralField(
            k, self.with_bandwidth(k).coeffs + other.with_bandwidth(k).coeffs
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        k = max(self.k, other.k)
        return SpectralField(
            k, self.with_bandwidth(k).coeffs - other.with_bandwidth(k).coeffs
        )

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.k, self.coeffs * scalar)

    __rmul__ = __mul__

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "SpectralField":
        payload = json.loads(text)
        coeffs = np.array(
            [complex(re, im) for re, im in payload["coeffs"]], dtype=np.complex128
        )
        return SpectralField(int(payload["k"]), coeffs)


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


def basis_point(n: int, k: int) -> SpectralField:
    """Unit-norm single-mode field: coefficients delta_{m,n}.

    On the grid this is (2pi)^(-1/2) exp(i n x).
    """
    if abs(n) > k:
        raise ValueError("mode outside bandwidth")
    c = np.zeros(2 * k + 1, dtype=np.complex128)
    c[n + k] = 1.0
    return SpectralField(k, c)


def synthesize(u: SpectralField, N: int) -> GridField:
    """Evaluate u on the N-point uniform grid.

    Requires N >= 2k+1 so that all stored modes are representable.
    """
    if N < 2 * u.k + 1:
        raise ValueError(f"grid size {N} cannot represent bandwidth {u.k}")
    values = synthesize_many(u.coeffs[np.newaxis, :], u.k, N)[0]
    return GridField(N, values)


def analyze(g: GridField, k: int) -> SpectralField:
    """Project grid samples onto the first 2k+1 Fourier modes.

    Exact for band-limited input when N >= 2k+1; smaller grids are
    rejected since the mode set would alias.
    """
    if g.N < 2 * k + 1:
        raise ValueError(f"grid size {g.N} aliases bandwidth {k}")
    coeffs = analyze_many(g.values[np.newaxis, :], k)[0]
    return SpectralField(k, coeffs)


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


def convolve(u: SpectralField, psi: SpectralField) -> SpectralField:
    """Convolution on the circle, diagonal on coefficients.

    The result lives on the common band of the two inputs.
    """
    k = min(u.k, psi.k)
    return SpectralField(
        k, u.with_bandwidth(k).coeffs * psi.with_bandwidth(k).coeffs
    )


def project(u: SpectralField, ell: int) -> SpectralField:
    """Zero all coefficients with |n| > ell, keeping the declared band."""
    if ell < 0:
        raise ValueError("projection order must be nonnegative")
    out = u.coeffs.copy()
    mask = np.abs(u.modes) > ell
    out[mask] = 0.0
    return SpectralField(u.k, out)


def norm(u: SpectralField, kind: str = "l2", delta: float = 0.0) -> float:
    """L2, Sobolev (weight (1+n^2)^delta) or grid sup norm.

    The sup norm is sampled on the 4(2k+1)-point grid, which is the same
    oversampled grid used by the nonlinear quadratures.
    """
    if kind == "l2":
        return u.l2()
    if kind == "sobolev":
        w = (1.0 + u.modes.astype(float) ** 2) ** delta
        return float(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2)))
    if kind == "sup":
        vals = synthesize(u, 4 * (2 * u.k + 1)).values
        return float(np.max(np.abs(vals)))
    raise ValueError(f"unknown norm kind {kind!r}")


def inner(u: SpectralField, v: SpectralField) -> complex:
    """Hermitian L2 pairing <u, v> = sum u^(n) conj(v^(n))."""
    k = max(u.k, v.k)
    return complex(
        np.vdot(v.with_bandwidth(k).coeffs, u.with_bandwidth(k).coeffs)
    )


def inner_real(u: SpectralField, v: SpectralField) -> float:
    """Real inner product Re<u, v>, the one gradients pair against."""
    return inner(u, v).real
