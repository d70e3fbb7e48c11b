"""Cylinder boundary-value machinery for connecting orbits.

The curve is stored in the transformed picture v(s,t) = free_flow_t(u(s,t)),
which is genuinely 1-periodic in t, so t-derivatives are spectral.  The
equation discretized at each interior node is

    residual = D_s v + i D_t v + grad H0(v) + phi_T(s) grad F_t(v),

projected onto the complex orthogonal complement of the node field.  It is
assembled once per state, as P(D_s v) + i P(D_t v - X_t(v)); the mean of
the two parts' squares is the energy density (see _equation).  The
projection removes the radial and global-phase directions, which is what
makes the residual a statement about the projective curve: the gauge-fixed
constant free orbit solves it exactly, and the reported norm, energy, and
distances are all phase-invariant.  The Gauss-Newton step lives in the
same horizontal space, the complex complement of each node field, so the
unknowns are points of CP^{2k} and no per-node phase is left to solve for.
For power <= 1 grad F_t and its Hessian are v -> a(t) (v @ G0)
(model.gradient_matrix): no spectral transforms.

The cutoff T is part of the geometry: CylinderGrid carries it beside the
window and the nodes, grid.phi is the profile phi_T, and every evaluation
reads T from state.grid, so a stored state carries its own T.  Boundary rows
at s = -S and s = +S carry prescribed orbits (Dirichlet data standing in
for the asymptotics on the line); the grid rejects a window that does not
contain the full support [-1, 2T + 1] of the cutoff, so both ends sit in
the free region.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lsmr

from .dynamics import fs_distance, gauge_mode
from .model import ModelSpec, grad_F_many, grad_F_tangent, gradient_matrix, mode_squares
from .spectral import TWO_PI, SpectralField, smooth_step

# ---------------------------------------------------------------------------
# grid and state


@dataclass(frozen=True)
class CylinderGrid:
    """Uniform discretization of [-S, S] x [0, 1) at bandwidth k, cutoff T.

    phi switches the coupling on over [-1, 2T + 1]; the window must hold
    that support strictly inside, so both end rows sit in the free region.
    """

    S: float
    N_s: int
    N_t: int
    k: int
    T: float

    def __post_init__(self):
        if self.N_s < 16:
            raise ValueError("need N_s >= 16")
        if self.N_t < 8:
            raise ValueError("need N_t >= 8")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.S <= 2.0 * self.T + 1.0:
            raise ValueError("window must contain the cutoff support [-1, 2T+1]")
        if self.k < 0:
            raise ValueError("bandwidth must be nonnegative")

    def phi(self, s) -> np.ndarray:
        """Switching profile: 0 off [-1, 2T+1], 1 on [0, 2T], ramps of width 1.

        The ramp is the symmetric exponential smoothstep, whose maximal slope
        is exactly 2 at the ramp midpoint, so the slope constraints hold with
        equality at one point.  T = 0 is identically zero.
        """
        s = np.asarray(s, dtype=np.float64)
        if self.T == 0.0:
            return np.zeros_like(s)
        return smooth_step(s + 1.0) * smooth_step(2.0 * self.T + 1.0 - s)

    @property
    def s_nodes(self) -> np.ndarray:
        return np.linspace(-self.S, self.S, self.N_s)

    @property
    def t_nodes(self) -> np.ndarray:
        return np.arange(self.N_t) / self.N_t

    @property
    def ds(self) -> float:
        return 2.0 * self.S / (self.N_s - 1)

    @property
    def dt(self) -> float:
        return 1.0 / self.N_t

    @property
    def dim(self) -> int:
        return 2 * self.k + 1

    def integrate(self, density: np.ndarray) -> float:
        """Trapezoid-in-s, uniform-in-t quadrature of an (N_s, N_t) density."""
        if density.shape != (self.N_s, self.N_t):
            raise ValueError("density map shape does not match the grid")
        w = np.ones(self.N_s)
        w[0] = w[-1] = 0.5
        return float(self.ds * self.dt * np.sum(w[:, None] * density))


@dataclass
class FloerState:
    """Unit-norm node fields on the cylinder in the transformed picture.

    coeffs has shape (N_s, N_t, 2k+1); rows 0 and N_s-1 are the prescribed
    boundary orbits.
    """

    grid: CylinderGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        expected = (self.grid.N_s, self.grid.N_t, self.grid.dim)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs must have shape {expected}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("state coefficients must be finite")

    def normalized(self) -> np.ndarray:
        """Coefficients with every node scaled to the unit sphere."""
        norms = np.linalg.norm(self.coeffs, axis=-1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("node field with zero norm")
        return self.coeffs / norms


# ---------------------------------------------------------------------------
# boundary orbits and guesses


def boundary_orbit(point: SpectralField, N_t: int, side: str = "right") -> np.ndarray:
    """Transformed-picture orbit rows of a fixed point at the t nodes.

    Gauge aligned at the point's gauge_mode n, the transformed free orbit
    carries mode m with phase rate n^2 - m^2.  Those rates are not
    2 pi-commensurate, so sampling them directly would leak across every
    discrete frequency bin and the spectral t-derivative of the rows
    would be garbage.  Each rate is therefore snapped to an integer
    frequency, which makes the rows exactly band-limited on the t grid
    while keeping the row at t = 0 equal to the point itself.

    The snapped bin is not the nearest one but the nearest on the side
    whose linearized response decays into the window: the defect left in
    bin (m, p) is (n^2 - m^2 - 2 pi p) times the mode content, and the
    strip linearization grows like exp((m^2 - n^2 + 2 pi p) s), so a
    right-end row needs m^2 - n^2 + 2 pi p >= 0 and a left-end row the
    reverse.  Any other choice dumps the defect on a mode that can only
    be absorbed by the sawtooth branch of the central difference, which
    concentrates in a single cell and keeps the energy from converging
    under s refinement.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rates = (float(gauge_mode(point.coeffs) ** 2) - mode_squares(point.k)) / TWO_PI
    p_star = np.ceil(rates) if side == "right" else np.floor(rates)
    t = np.arange(N_t, dtype=np.float64)[:, None] / N_t
    c = point.coeffs / np.linalg.norm(point.coeffs)
    return c[None, :] * np.exp(1j * TWO_PI * p_star[None, :] * t)


def build_initial_guess(
    grid: CylinderGrid, left: np.ndarray, right: np.ndarray
) -> FloerState:
    """Blend the boundary orbits across the cutoff support [-1, 2T + 1]."""
    left = np.asarray(left, dtype=np.complex128)
    right = np.asarray(right, dtype=np.complex128)
    if left.shape != (grid.N_t, grid.dim) or right.shape != (grid.N_t, grid.dim):
        raise ValueError("boundary rows must have shape (N_t, 2k+1)")
    a, b = -1.0, 2.0 * grid.T + 1.0
    sigma = smooth_step((grid.s_nodes - a) / (b - a))
    mix = (1.0 - sigma)[:, None, None] * left[None] + sigma[:, None, None] * right[None]
    norms = np.linalg.norm(mix, axis=-1, keepdims=True)
    if np.any(norms < 1e-8):
        raise ValueError("boundary orbits too far apart for a linear blend")
    mix /= norms
    mix[0] = left
    mix[-1] = right
    return FloerState(grid, mix)


# ---------------------------------------------------------------------------
# residual and energy


def _dt_spectral(C: np.ndarray) -> np.ndarray:
    """Spectral t-derivative along axis 1 of (..., N_t, dim) data."""
    N_t = C.shape[1]
    p = np.fft.fftfreq(N_t) * N_t
    sym = (1j * TWO_PI * p)[None, :, None]
    return np.fft.ifft(np.fft.fft(C, axis=1) * sym, axis=1)


def _project_out(R: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Remove the complex line through each unit node field V from R."""
    overlap = np.sum(R * np.conj(V), axis=-1, keepdims=True)
    return R - overlap * V


@dataclass
class FloerResidual:
    field: np.ndarray
    norm: float


@dataclass(frozen=True)
class FloerEquation:
    """The discrete equation evaluated once at every node of a state.

    ds_v = D_s v (zero on the end rows: no central stencil) and dt_v = D_t v
    are the unprojected derivatives of the normalized state; Ds = P(D_s v)
    and tpart = P(D_t v - X_t(v)), with X^{H0} v = -i n^2 v and
    X^F = i grad F_t, are projected off the node line; each is
    (N_s, N_t, dim).  The residual is Ds + i tpart and the energy density
    the mean of their squares; the two agree pointwise on a solved curve.
    lam = <N, v>, (N_s, N_t), is the overlap the projection removes from
    the unprojected equation N = D_s v + i (D_t v - X_t(v)).
    """

    state: FloerState
    ds_v: np.ndarray
    dt_v: np.ndarray
    Ds: np.ndarray
    tpart: np.ndarray
    lam: np.ndarray

    def residual(self) -> FloerResidual:
        grid = self.state.grid
        R = (self.Ds + 1j * self.tpart)[1:-1]
        norm = math.sqrt(grid.ds * grid.dt * float(np.sum(np.abs(R) ** 2)))
        return FloerResidual(field=R, norm=norm)

    def t_map(self) -> np.ndarray:
        """Per-node |tpart|^2 summed over modes, (N_s, N_t)."""
        return np.sum(np.abs(self.tpart) ** 2, axis=2)

    def energy_density(self) -> np.ndarray:
        """Per-node mean of |Ds|^2 and |tpart|^2, (N_s, N_t).

        A one-sided difference at the end rows picks up the sawtooth branch
        of the scheme at amplitude 1/ds, so the t density stands in for
        |D_s|^2 there, as it equals it on a solved curve.
        """
        t_map = self.t_map()
        ds_map = np.sum(np.abs(self.Ds) ** 2, axis=2)
        ds_map[[0, -1]] = t_map[[0, -1]]
        return 0.5 * (ds_map + t_map)

    def energy(self) -> float:
        return self.state.grid.integrate(self.energy_density())


def _equation(model: ModelSpec, state: FloerState) -> FloerEquation:
    """One evaluation of the discrete equation at every node."""
    grid = state.grid
    if model.k != grid.k:
        raise ValueError("model bandwidth must match the grid")
    C = state.normalized()
    phi = grid.phi(grid.s_nodes)
    ds_v = np.zeros_like(C)
    ds_v[1:-1] = (C[2:] - C[:-2]) / (2.0 * grid.ds)
    dt_v = _dt_spectral(C)
    G0 = gradient_matrix(model)
    a = model.nonlinearity.factor(grid.t_nodes)[:, None]
    G = grad_F_many(model, C, grid.t_nodes) if G0 is None else a * (C @ G0)
    tpart = (
        dt_v
        + 1j * mode_squares(grid.k)[None, None, :] * C
        - phi[:, None, None] * (1j * G)
    )
    lam = np.sum((ds_v + 1j * tpart) * np.conj(C), axis=-1)
    return FloerEquation(
        state, ds_v, dt_v, _project_out(ds_v, C), _project_out(tpart, C), lam
    )


def floer_residual(model: ModelSpec, state: FloerState) -> FloerResidual:
    """Projected equation residual at the interior nodes."""
    return _equation(model, state).residual()


def floer_energy(model: ModelSpec, state: FloerState) -> float:
    """Trapezoid-in-s, spectral-in-t quadrature of the curve energy."""
    return _equation(model, state).energy()


# ---------------------------------------------------------------------------
# Gauss-Newton solver

INITIAL_DAMPING = 1e-3
LSMR_ITERS = 3000


@dataclass
class FloerResult:
    equation: FloerEquation
    converged: bool
    iterations: int
    residual_norm: float
    energy: float
    history: list
    message: str

    @property
    def state(self) -> FloerState:
        return self.equation.state


def _real_view(z: np.ndarray) -> np.ndarray:
    return z.reshape(-1).view(np.float64)


def _complex_view(r: np.ndarray, shape) -> np.ndarray:
    return r.view(np.complex128).reshape(shape)


class _FreeInverse:
    """Exact inverse of the free operator A0 = D_s + i D_t - n^2.

    A0 acts on the interior rows with zero Dirichlet ends, as
    _GaussNewtonOperator assembles it.  After an FFT in t, mode (p, m) is
    the real tridiagonal system with off-diagonals -/+ h, h = 1/(2 ds),
    and diagonal c = -(2 pi p + m^2).  Its Thomas pivots obey d_1 = c,
    d_i = c + h^2 / d_(i-1), so each keeps the sign of c and no pivoting
    is needed.  The one zero shift, (p, m) = (0, 0), is the skew central
    difference alone, singular for odd N_s (the sawtooth mode) and with
    d_1 = 0 for any N_s; that block is shifted by `shift`.  Only the
    reciprocal pivots are stored.
    """

    def __init__(self, grid: CylinderGrid, shift: float):
        self.h = 1.0 / (2.0 * grid.ds)
        p = np.fft.fftfreq(grid.N_t) * grid.N_t
        c = -(TWO_PI * p[:, None] + mode_squares(grid.k)[None, :])
        c[0, grid.k] = shift
        inv = np.empty((grid.N_s - 2,) + c.shape)
        inv[0] = 1.0 / c
        for i in range(1, inv.shape[0]):
            inv[i] = 1.0 / (c + self.h**2 * inv[i - 1])
        self.inv = inv

    def __call__(self, R: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """A0^-1 R, or its adjoint (the same sweep, off-diagonals swapped)."""
        h = -self.h if adjoint else self.h
        inv = self.inv
        X = np.fft.fft(R, axis=1)
        for i in range(1, X.shape[0]):
            X[i] += (h * inv[i - 1]) * X[i - 1]
        X[-1] *= inv[-1]
        for i in range(X.shape[0] - 2, -1, -1):
            X[i] = (X[i] - h * X[i + 1]) * inv[i]
        return np.fft.ifft(X, axis=1)


class _GaussNewtonOperator:
    """Right-preconditioned linearization J M of the projected residual.

    J: delta on interior nodes -> P_V [ A delta + phi H delta - lam delta ]
    with A = D_s + i D_t - n^2 matrix-free and H the exact Hessian of F_t
    at the nodes (grad_F_tangent): a(t) G0 as a matmul for power <= 1,
    matrix-free through the transforms for power 2.  lam is the node
    overlap <N, V> of FloerEquation; -lam delta is the derivative of the
    node-line projection, without which J is off by n^2 P_V next to a free
    orbit through mode n.  One projector P_V acts on both sides: it
    removes the node line from the step as from the residual, so the
    step is horizontal and moves no node along its own phase.  M = P_V
    A^-1 (the exact free inverse, its sawtooth block shifted by the LSMR
    damping), so J M is the identity plus the phi H, lam and projection
    terms, and the step is x = M y.  rmatvec mirrors each factor (P_V is
    an orthogonal projector, D_s skew, H symmetric, lam becomes
    conj(lam)), so the pair is an exact adjoint.
    """

    def __init__(
        self, grid: CylinderGrid, V: np.ndarray, hessian, phi: np.ndarray,
        lam: np.ndarray, damping: float,
    ):
        self.grid = grid
        self.V = V
        self.hessian = hessian
        self.phi_int = phi[1:-1, None, None]
        self.lam = lam[..., None]
        self.n2 = mode_squares(grid.k)
        self.free = _FreeInverse(grid, damping)
        m = V.size * 2
        self.shape = (m, m)

    def _ds(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros_like(X)
        out[1:] += X[:-1] * (-1.0)
        out[:-1] += X[1:]
        return out / (2.0 * self.grid.ds)

    def step(self, y: np.ndarray) -> np.ndarray:
        """The node update x = M y = P_V A^-1 y, complex (rows, N_t, dim)."""
        y = _complex_view(np.ascontiguousarray(y), self.V.shape)
        return _project_out(self.free(y), self.V)

    def matvec(self, y: np.ndarray) -> np.ndarray:
        delta = self.step(y)
        lin = self._ds(delta) + 1j * _dt_spectral(delta)
        lin -= self.n2[None, None, :] * delta
        lin += self.hessian(delta) * self.phi_int
        lin -= self.lam * delta
        out = _project_out(lin, self.V)
        return _real_view(np.ascontiguousarray(out)).copy()

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        rho = _complex_view(np.ascontiguousarray(z), self.V.shape)
        rho = _project_out(rho, self.V)
        # adjoints: D_s^T = -D_s, (i D_t)^* = i D_t, n^2 and H symmetric,
        # lam conjugated
        out = -self._ds(rho) + 1j * _dt_spectral(rho)
        out -= self.n2[None, None, :] * rho
        out += self.hessian(rho) * self.phi_int
        out -= np.conj(self.lam) * rho
        out = self.free(_project_out(out, self.V), adjoint=True)
        return _real_view(np.ascontiguousarray(out)).copy()


def solve_floer(
    model: ModelSpec,
    grid: CylinderGrid,
    boundary: tuple,
    tol: float = 1e-6,
    max_iter: int = 60,
) -> FloerResult:
    """Damped Gauss-Newton solve of the cylinder boundary-value problem.

    boundary is (left_rows, right_rows) of shape (N_t, 2k+1) each.  Each
    step is a right-preconditioned LSMR solve (see _GaussNewtonOperator).
    The damping starts at INITIAL_DAMPING, grows tenfold on rejected
    steps and shrinks on accepted ones.  The loop records a history row
    per state and stops when the residual is below tol, when a step is
    rejected through damping 1e8, or after max_iter steps; result.message
    names the exit, and the last two return the best state found with
    converged = False.  result.equation is the evaluation of result.state,
    never of a rejected trial; result.iterations is len(history) - 1.
    History rows after the first carry lsmr_itn (LSMR iterations over the
    step's damping retries), lsmr_istop (the stop code of the accepted
    solve, or of the last one tried; 7 means it hit LSMR_ITERS), retries
    (the step's damping increases) and wall_s (the step's seconds by
    time.perf_counter).  Row 0 carries 0, None, 0 and the seconds of the
    set-up and first evaluation.
    """
    start = time.perf_counter()
    if model.k != grid.k:
        raise ValueError("model bandwidth must match the grid")

    guess = build_initial_guess(grid, boundary[0], boundary[1])
    phi = grid.phi(grid.s_nodes)
    eq = _equation(model, FloerState(grid, guess.normalized()))
    res, energy = eq.residual(), eq.energy()
    damping = INITIAL_DAMPING
    itn, istop, retries = 0, None, 0
    history = []
    while True:
        history.append(
            {
                "iteration": len(history),
                "residual_norm": res.norm,
                "energy": energy,
                "damping": damping,
                "lsmr_itn": itn,
                "lsmr_istop": istop,
                "retries": retries,
                "wall_s": time.perf_counter() - start,
            }
        )
        if res.norm < tol:
            message = "converged"
            break
        if damping > 1e8:
            message = "damping exhausted before reaching tolerance"
            break
        if len(history) > max_iter:
            message = "iteration budget exhausted"
            break
        start = time.perf_counter()
        V, lam = eq.state.coeffs[1:-1], eq.lam[1:-1]
        hessian = grad_F_tangent(model, V, grid.t_nodes)
        rhs = -_real_view(np.ascontiguousarray(res.field))
        itn, istop, retries = 0, None, 0
        while damping <= 1e8:
            op = _GaussNewtonOperator(grid, V, hessian, phi, lam, damping)
            sol = lsmr(
                LinearOperator(
                    op.shape, matvec=op.matvec, rmatvec=op.rmatvec, dtype=np.float64
                ),
                rhs,
                damp=damping,
                atol=1e-10,
                btol=1e-10,
                maxiter=LSMR_ITERS,
            )
            istop = int(sol[1])
            itn += int(sol[2])
            delta = op.step(sol[0])
            C_try = eq.state.coeffs.copy()
            C_try[1:-1] = V + delta
            C_try[1:-1] /= np.linalg.norm(C_try[1:-1], axis=-1, keepdims=True)
            trial = _equation(model, FloerState(grid, C_try))
            res_try = trial.residual()
            if res_try.norm < res.norm:
                eq, res, energy = trial, res_try, trial.energy()
                damping = max(damping / 3.0, 1e-12)
                break
            damping *= 10.0
            retries += 1
    return FloerResult(
        eq, res.norm < tol, len(history) - 1, res.norm, energy, history, message
    )


# ---------------------------------------------------------------------------
# asymptotic slices


@dataclass(frozen=True)
class Slice:
    """One row of floer_slices.csv: the best slice of one (gamma, side) window."""

    gamma: int
    side: str
    s: float
    criterion: float
    distance: float
    count: int


def slice_windows(T: float, gamma_max: int):
    """The (gamma, side, lo, hi) s-windows of the slice table, in row order.

    For each gamma the windows sit a distance gamma into the free region
    on either side of the cutoff support: [-2 gamma, -gamma] on the left
    and [2T + gamma, 2T + 2 gamma] on the right.  The rows run gamma
    ascending, left before right.
    """
    for gamma in range(1, gamma_max + 1):
        yield gamma, "left", -2.0 * gamma, -1.0 * gamma
        yield gamma, "right", 2.0 * T + gamma, 2.0 * T + 2.0 * gamma


def extract_slices(equation: FloerEquation, gamma_max: int) -> list[Slice]:
    """Search an evaluated state's free-side windows for slices meeting pi/gamma.

    The windows are slice_windows(T, gamma_max), clipped to the grid.
    The criterion at a slice is the t-integral of the projected squared
    t-equation density, matching the orbit-convergence test; a window's
    best qualifying slice is reported with its distance at t = 0 to the
    corresponding boundary orbit.  Rows 0 and N_s - 1 are never reported:
    they are the Dirichlet data the solve pins, not solved rows, so their
    distance to the boundary orbit is zero by construction.  A window with
    no qualifying node gives s, criterion and distance nan and a count of
    0, not an error.  The evaluation is solve_floer's result.equation, or
    _equation(...) of a bare state.
    """
    if gamma_max < 1:
        raise ValueError("gamma_max must be >= 1")
    grid, coeffs = equation.state.grid, equation.state.coeffs
    t_density = grid.dt * np.sum(equation.t_map(), axis=1)
    s = grid.s_nodes
    rows = []
    for gamma, side, lo, hi in slice_windows(grid.T, gamma_max):
        ok = t_density < math.pi / gamma
        ok[[0, -1]] = False
        idx = np.nonzero(ok & (s >= lo) & (s <= hi))[0]
        if idx.size == 0:
            rows.append(Slice(gamma, side, math.nan, math.nan, math.nan, 0))
            continue
        i = idx[np.argmin(t_density[idx])]
        end = 0 if side == "left" else -1
        dist = fs_distance(coeffs[i, 0], coeffs[end, 0])
        rows.append(Slice(gamma, side, float(s[i]), float(t_density[i]),
                          float(dist), int(idx.size)))
    return rows
