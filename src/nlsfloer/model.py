"""Convolution-type nonlinearities on the circle and their gradients.

A model couples a smoothing kernel psi (real, even, nonnegative Fourier
coefficients) to one scalar density

    f(w, x, t) = eps * a(t) * V(x) * w^p,   p in {0, 1, 2},

with a(t) = 1 or 1 + cos 2pi t and V = 1 or a real band-limited
multiplier, through the time-dependent value functional

    F_t(u) = -1/2 * integral_0^{2pi} f(|(u * psi)(x)|^2, x, t) dx,

whose L2 gradient is

    grad F_t(u) = -d1f(|u * psi|^2, x, t) * (u * psi) conv psi.

All quadratures run on the oversampled grid with N = 4(2k+1) points, which
integrates every such density exactly at bandwidth k, so gradients are
consistent with values to rounding.  V is sampled on that grid once, when
the model is built.

The catalog names constant (p = 0), hartree (p = 1), quadratic (p = 2),
potential (p = 1 with V) and time_modulated(...) (a(t) = 1 + cos 2pi t)
build Density values.  Every density reports a certified bound for
sup |f| over [0, L2(psi)^2] x S^1 x [0, 1]; the sufficient smallness gate
compares that bound against 1/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectral import (
    ROOT_2PI,
    TWO_PI,
    SpectralField,
    analyze_many,
    synthesize_many,
)


# ---------------------------------------------------------------------------
# kernels


@dataclass
class KernelSpec:
    """Even, real, nonnegative convolution kernel given by psi^(n).

    Coefficients are stored for n = -k_max..k_max like a SpectralField.
    """

    k_max: int
    psi_hat: np.ndarray

    def __post_init__(self):
        self.psi_hat = np.asarray(self.psi_hat, dtype=float)
        if self.psi_hat.shape != (2 * self.k_max + 1,):
            raise ValueError("psi_hat must have length 2*k_max+1")
        if not np.all(np.isfinite(self.psi_hat)):
            raise ValueError("kernel coefficients must be finite")
        if np.any(self.psi_hat < 0):
            raise ValueError("kernel coefficients must be nonnegative")
        if not np.allclose(self.psi_hat, self.psi_hat[::-1], rtol=0, atol=0):
            raise ValueError("kernel coefficients must be even in n")

    def coeff_array(self, k: int) -> np.ndarray:
        """psi^(n) for n = -k..k, zero beyond the stored band."""
        out = np.zeros(2 * k + 1)
        m = min(k, self.k_max)
        out[k - m : k + m + 1] = self.psi_hat[self.k_max - m : self.k_max + m + 1]
        return out

    def l2(self) -> float:
        return float(np.linalg.norm(self.psi_hat))

    def l2_tail(self, k: int) -> float:
        """L2 norm of psi - psi^k, the modes beyond |n| = k."""
        n = np.arange(-self.k_max, self.k_max + 1)
        return float(np.linalg.norm(self.psi_hat[np.abs(n) > k]))


def exponential_kernel(rate: float, k_max: int) -> KernelSpec:
    n = np.arange(-k_max, k_max + 1)
    return KernelSpec(k_max, np.exp(-rate * np.abs(n)))


def band_limited_kernel(ell: int, k_max: Optional[int] = None) -> KernelSpec:
    if k_max is None:
        k_max = ell
    n = np.arange(-k_max, k_max + 1)
    return KernelSpec(k_max, (np.abs(n) <= ell).astype(float))


def truncate_kernel(kernel: KernelSpec, k: int) -> KernelSpec:
    """Drop the modes |n| > k.  Truncation only ever removes mass."""
    if k < 0:
        raise ValueError("truncation order must be nonnegative")
    return KernelSpec(k, kernel.coeff_array(k))


# ---------------------------------------------------------------------------
# the density


@dataclass(frozen=True)
class Density:
    """f(w, x, t) = strength * a(t) * V(x) * w**power.

    w is the smoothed intensity |u * psi|^2 >= 0.  V is a real band-limited
    multiplier (None for V = 1) and a(t) = 1 + cos(2pi t) when modulated,
    1 otherwise, so every density is 1-periodic in t.  f takes the values v
    of V on the model's quadrature grid (see ModelSpec), or 1.0.
    """

    strength: float
    power: int
    V: Optional[SpectralField] = None
    modulated: bool = False

    def __post_init__(self):
        if self.power not in (0, 1, 2):
            raise ValueError("power must be 0, 1 or 2")
        if self.V is not None:
            if self.power != 1:
                raise ValueError("a multiplier V needs power 1")
            rev = np.conj(self.V.coeffs[::-1])
            if not np.allclose(self.V.coeffs, rev, rtol=0, atol=1e-13):
                raise ValueError("potential multiplier must be real-valued")

    @property
    def diagonal(self) -> bool:
        """f = strength * w: the gradient is diagonal on Fourier modes."""
        return self.power == 1 and self.V is None and not self.modulated

    @staticmethod
    def factor(t):
        return 1.0 + np.cos(TWO_PI * np.asarray(t, dtype=float))

    def f(self, w, v, t, order: int = 0):
        """f, or its partial derivative of the given order in w.

        At order == power it does not depend on w and is not broadcast to w.
        """
        if order > self.power:
            return np.zeros(np.shape(w))
        out = math.perm(self.power, order) * self.strength * v
        if order < self.power:
            out = out * np.asarray(w) ** (self.power - order)
        return self.factor(t) * out if self.modulated else out

    def sup_f_bound(self, w_max: float) -> float:
        """Certified bound for sup |f| over [0, w_max] x S^1 x [0, 1]."""
        # sup|V| <= (2pi)^(-1/2) * sum |V^(n)|, exact for single-harmonic V.
        v_bound = 1.0
        if self.V is not None:
            v_bound = float(np.sum(np.abs(self.V.coeffs))) / ROOT_2PI
        a_bound = 2 if self.modulated else 1
        return a_bound * abs(self.strength) * v_bound * w_max**self.power

    def with_strength(self, strength: float) -> "Density":
        return replace(self, strength=strength)

    def label(self) -> str:
        if self.V is not None:
            name = "potential"
        else:
            name = ("constant", "hartree", "quadratic")[self.power]
        return f"time_modulated({name})" if self.modulated else name


def Constant(c: float = 1.0) -> Density:
    return Density(c, 0)


def Hartree(eps: float) -> Density:
    """f = eps * w; the gradient is diagonal on Fourier modes."""
    return Density(eps, 1)


def Quadratic(eps: float) -> Density:
    return Density(eps, 2)


def Potential(eps: float, V: SpectralField) -> Density:
    """f = eps * V(x) * w for a real band-limited multiplier V."""
    return Density(eps, 1, V)


def TimeModulated(base: Density) -> Density:
    """base multiplied by 1 + cos(2pi t)."""
    return replace(base, modulated=True)


def cosine_field(k: int = 1) -> SpectralField:
    """The multiplier V(x) = cos x as a spectral field."""
    if k < 1:
        raise ValueError("need bandwidth >= 1 for cos x")
    c = np.zeros(2 * k + 1, dtype=np.complex128)
    c[k - 1] = c[k + 1] = ROOT_2PI / 2.0
    return SpectralField(k, c)


# ---------------------------------------------------------------------------
# model


@dataclass
class ModelSpec:
    """Kernel + density at a fixed working bandwidth.

    The density's multiplier V is sampled once on the N-point quadrature
    grid; f reads those samples.
    """

    kernel: KernelSpec
    nonlinearity: Density
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("bandwidth must be nonnegative")
        self._psi_band = self.kernel.coeff_array(self.k)
        self._N = 4 * (2 * self.k + 1)
        V = self.nonlinearity.V
        self._v = 1.0
        if V is not None:
            self._v = synthesize_many(V.coeffs[np.newaxis, :], V.k, self._N)[0].real

    @property
    def quad_points(self) -> int:
        return self._N

    @property
    def psi_band(self) -> np.ndarray:
        """Kernel coefficients restricted to the working band."""
        return self._psi_band

    def w_max(self) -> float:
        return self.kernel.l2() ** 2

    def sup_f_bound(self) -> float:
        return self.nonlinearity.sup_f_bound(self.w_max())

    def smallness_gate(self) -> bool:
        return self.sup_f_bound() < 0.125

    def with_strength(self, strength: float) -> "ModelSpec":
        return ModelSpec(self.kernel, self.nonlinearity.with_strength(strength), self.k)

    def with_kernel(self, kernel: KernelSpec) -> "ModelSpec":
        return ModelSpec(kernel, self.nonlinearity, self.k)


def _smoothed(model: ModelSpec, coeffs: np.ndarray, t) -> tuple:
    """z = u * psi on the quadrature grid, w = |z|^2, and t as a column."""
    z = synthesize_many(coeffs * model.psi_band, model.k, model.quad_points)
    return z, np.abs(z) ** 2, np.asarray(t, dtype=float)[..., np.newaxis]


def eval_F_many(model: ModelSpec, coeffs: np.ndarray, t) -> np.ndarray:
    """Batched values of F_t; coeffs has shape (..., 2k+1)."""
    _, w, t_col = _smoothed(model, coeffs, t)
    fvals = np.broadcast_to(model.nonlinearity.f(w, model._v, t_col), w.shape)
    return -0.5 * (TWO_PI / model.quad_points) * np.sum(fvals, axis=-1)


def grad_F_many(model: ModelSpec, coeffs: np.ndarray, t) -> np.ndarray:
    """Batched L2 gradients of F_t; shapes mirror eval_F_many."""
    z, w, t_col = _smoothed(model, coeffs, t)
    d1 = model.nonlinearity.f(w, model._v, t_col, 1)
    return analyze_many(-d1 * z, model.k) * model.psi_band


def grad_F_tangent(model: ModelSpec, coeffs: np.ndarray, t):
    """The exact derivative of grad_F_many at coeffs, as a map on directions.

    delta -> -psi A[d1f(w) dz + 2 d2f(w) Re(conj(z) dz) z], dz = S(psi delta),
    with S/A synthesis/analysis.  It is the Hessian of F_t, so it is
    symmetric under Re<.,.>.  Directions have the shape of coeffs.
    """
    nl = model.nonlinearity
    z, w, t_col = _smoothed(model, coeffs, t)
    d1 = nl.f(w, model._v, t_col, 1)
    d2 = 2.0 * nl.f(w, model._v, t_col, 2) if nl.power == 2 else None

    def apply(delta: np.ndarray) -> np.ndarray:
        dz = synthesize_many(delta * model.psi_band, model.k, model.quad_points)
        dg = d1 * dz
        if d2 is not None:  # d2f vanishes identically for power <= 1
            dg = dg + (d2 * (z.real * dz.real + z.imag * dz.imag)) * z
        return analyze_many(-dg, model.k) * model.psi_band

    return apply


def mode_squares(k: int) -> np.ndarray:
    """n^2 for n = -k..k, the free frequencies."""
    return np.arange(-k, k + 1).astype(np.float64) ** 2


def free_phases(k: int, t: float) -> np.ndarray:
    """Diagonal of the free propagator: exp(-i n^2 t) for n = -k..k."""
    return np.exp(-1j * mode_squares(k) * t)


# ---------------------------------------------------------------------------
# Galerkin truncation gap


@dataclass
class GapReport:
    k: int
    R: float
    samples: int
    seed: int
    f_gap: float
    grad_gap: float
    conv_bound: float


def galerkin_gap(
    model: ModelSpec, k: int, R: float, samples: int = 32, seed: int = 0
) -> GapReport:
    """Sampled truncation gaps between the full kernel and psi^k.

    Draws fields with L2 norm <= R at the model bandwidth (half the draws
    sit exactly on the sphere of radius R, where the gap is largest) and
    reports the worst observed |F - F^k| and L2(grad F - grad F^k),
    together with the analytic smoothing bound R * L2(psi - psi^k).
    """
    if k < 0 or R <= 0:
        raise ValueError("need k >= 0 and R > 0")
    rng = np.random.default_rng(seed)
    trunc = model.with_kernel(truncate_kernel(model.kernel, k))
    dim = 2 * model.k + 1
    f_gap = 0.0
    grad_gap = 0.0
    for j in range(samples):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z /= np.linalg.norm(z)
        r = R if j % 2 == 0 else R * rng.uniform() ** 0.5
        c = (r * z)[np.newaxis, :]
        t = np.array([rng.uniform()])
        df = eval_F_many(model, c, t) - eval_F_many(trunc, c, t)
        f_gap = max(f_gap, abs(df[0]))
        dg = grad_F_many(model, c, t) - grad_F_many(trunc, c, t)
        grad_gap = max(grad_gap, float(np.linalg.norm(dg)))
    return GapReport(
        k=k,
        R=R,
        samples=samples,
        seed=seed,
        f_gap=f_gap,
        grad_gap=grad_gap,
        conv_bound=R * model.kernel.l2_tail(k),
    )


# ---------------------------------------------------------------------------
# Hofer-type oscillation of the functional


# projected gradient steps per start, and the tangent-gradient norm that stops them
HOFER_ITERS = 300
HOFER_GRAD_TOL = 1e-10


@dataclass
class HoferNode:
    t: float
    max_value: float
    min_value: float
    converged: bool


@dataclass
class HoferReport:
    estimate: float
    sufficient_gate: bool
    sup_f_bound: float
    nodes: list
    all_converged: bool


def _extremize_on_sphere(model, sign, starts, rng):
    """Maximize sign * F on the unit sphere by projected gradient ascent.

    F is evaluated at t = 0, so the density must not depend on t.
    Coordinate fields are screened first; for diagonal functionals they
    already sit at the extrema.  Returns (best value of sign*F, converged).
    """
    dim = 2 * model.k + 1
    basis = np.eye(dim, dtype=np.complex128)
    fb = sign * eval_F_many(model, basis, 0.0)
    order = np.argsort(fb)[::-1]
    cand = [basis[i] for i in order[: max(2, starts // 2)]]
    while len(cand) < starts:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        cand.append(z / np.linalg.norm(z))

    best = -np.inf
    best_converged = False
    for c in cand:
        u = c.copy()
        fval = sign * float(eval_F_many(model, u[np.newaxis], 0.0)[0])
        step = 0.5
        converged = False
        for _ in range(HOFER_ITERS):
            g = sign * grad_F_many(model, u[np.newaxis], 0.0)[0]
            g_tan = g - np.vdot(u, g).real * u
            gn = float(np.linalg.norm(g_tan))
            if gn < HOFER_GRAD_TOL:
                converged = True
                break
            moved = False
            while step > 1e-15:
                cand_u = u + step * g_tan
                cand_u /= np.linalg.norm(cand_u)
                fc = sign * float(eval_F_many(model, cand_u[np.newaxis], 0.0)[0])
                if fc > fval + 1e-4 * step * gn * gn:
                    u, fval = cand_u, fc
                    step *= 1.5
                    moved = True
                    break
                step *= 0.5
            if not moved:
                converged = gn < 1e3 * HOFER_GRAD_TOL
                break
        if fval > best:
            best, best_converged = fval, converged
    return best, best_converged


def hofer_norm(
    model: ModelSpec, t_nodes: int = 16, starts: int = 8, seed: int = 0
) -> HoferReport:
    """Estimate the oscillation integral int_0^1 (max F_t - min F_t) dt.

    Every density is f = a(t) * f0 with a(t) >= 0, so F_t = a(t) * F0 and
    the max and min of F_t over the unit sphere are a(t) times those of
    F0.  F0 is therefore extremized once each way, by multi-start
    projected gradient ascent/descent; node j at t_j = j / t_nodes reports
    a(t_j) times those extremes, and the t-integral uses the uniform
    (periodic trapezoid) rule.  `converged` reports whether both
    extremizations of F0 converged, so it is the same on every node.  The
    sampled estimate never exceeds the true oscillation.
    """
    nl = model.nonlinearity
    base = ModelSpec(model.kernel, replace(nl, modulated=False), model.k)
    rng = np.random.default_rng(seed)
    fmax, c1 = _extremize_on_sphere(base, +1.0, starts, rng)
    fmin_neg, c2 = _extremize_on_sphere(base, -1.0, starts, rng)
    fmin, converged = -fmin_neg, c1 and c2
    ts = [j / t_nodes for j in range(t_nodes)]
    a = nl.factor(ts) if nl.modulated else np.ones(t_nodes)
    nodes = [HoferNode(t, float(aj * fmax), float(aj * fmin), converged)
             for t, aj in zip(ts, a)]
    return HoferReport(
        estimate=float(np.mean(a) * (fmax - fmin)),
        sufficient_gate=model.smallness_gate(),
        sup_f_bound=model.sup_f_bound(),
        nodes=nodes,
        all_converged=converged,
    )
