"""Independent reference assemblies the tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np

from nlsfloer.dynamics import (
    CORRECTOR_ITERS,
    FD_STEP,
    LINE_SEARCH_SCALES,
    ContinuationResult,
    FixedPointResult,
    PathEntry,
    _fd_batch,
    _wrap_phase,
    evolve_many,
    fixed_point_residual,
    gauge_fix,
    gauge_mode,
    mode_point,
)
from nlsfloer.floer import (
    CylinderGrid,
    FloerResidual,
    FloerState,
    _dt_spectral,
    _project_out,
)
from nlsfloer.model import ModelSpec, grad_F_many, mode_squares
from nlsfloer.spectral import (
    ROOT_2PI,
    TWO_PI,
    SpectralField,
    analyze_many,
    smooth_step,
    synthesize_many,
)


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


def cutoff_slope(grid: CylinderGrid, s) -> np.ndarray:
    """d phi / ds of the grid's cutoff profile, from the exact smoothstep derivative."""
    s = np.asarray(s, dtype=np.float64)
    if grid.T == 0.0:
        return np.zeros_like(s)
    up = smooth_step(s + 1.0)
    down = smooth_step(2.0 * grid.T + 1.0 - s)
    return (
        _smooth_step_slope(s + 1.0) * down
        - up * _smooth_step_slope(2.0 * grid.T + 1.0 - s)
    )


def grad_rows(model: ModelSpec, C: np.ndarray, t_nodes: np.ndarray) -> np.ndarray:
    """grad F_t at every node of an (rows, N_t, dim) array, as one flat batch.

    The nodes are flattened to (rows * N_t, dim) rows with the t nodes
    tiled alongside, so no broadcast of t against the node array is used.
    """
    rows, N_t, d = C.shape
    flat = C.reshape(rows * N_t, d)
    t_flat = np.tile(t_nodes, rows)
    return grad_F_many(model, flat, t_flat).reshape(rows, N_t, d)


def floer_residual_twisted(model: ModelSpec, state: FloerState) -> FloerResidual:
    """The cylinder residual assembled in the untransformed twisted picture.

    The stored state is mapped node by node through the inverse free flow,
    differentiated with the twist-aware t-derivative, and driven by the
    rotated gradient grad G_t; the result is mapped back.  Per mode the
    free flow is a phase, so this must agree with floer_residual to
    rounding; it exercises the conjugation identities end to end.
    """
    grid = state.grid
    C = state.normalized()
    phi = grid.phi(grid.s_nodes)
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
    G = grad_rows(model, UI * phases[None], grid.t_nodes) * np.conj(phases)[None]
    lin = Ds + 1j * DtU[1:-1]
    R = _project_out(lin + phi[1:-1, None, None] * G, UI)
    back = R * phases[None]
    norm = math.sqrt(grid.ds * grid.dt * float(np.sum(np.abs(back) ** 2)))
    return FloerResidual(field=back, norm=norm)


def reference_grad(model: ModelSpec, coeffs: np.ndarray, t) -> np.ndarray:
    """grad F_t from np.fft primitives, in the order of operations of the flow.

    Written out step by step so that a rewrite of the package's gradient
    stage which changes any floating-point operation or its order shows
    as a bitwise difference.
    """
    k, N, psi = model.k, model.quad_points, model.psi_band
    nl = model.nonlinearity
    # 1. psi-multiply, then pad
    x = coeffs * psi
    pad = np.zeros(x.shape[:-1] + (N,), dtype=np.complex128)
    pad[..., : k + 1] = x[..., k:]
    pad[..., N - k :] = x[..., :k]
    # 2. ifft, then scale by N / sqrt(2pi)
    z = np.fft.ifft(pad, axis=-1)
    z *= N / ROOT_2PI
    # 3. d1 = d f / d w, then multiply by -d1
    if nl.power == 0:
        d1 = np.zeros(())
    else:
        d1 = nl.power * nl.strength * model._v
        if nl.power == 2:
            d1 = d1 * np.abs(z) ** 2
        if nl.modulated:
            t_col = np.asarray(t, dtype=float)[..., np.newaxis]
            d1 = (1.0 + np.cos(TWO_PI * t_col)) * d1
    g = -d1 * z
    # 4. fft, take the band, scale by sqrt(2pi) / N, multiply by psi
    spec = np.fft.fft(g, axis=-1)
    band = np.concatenate([spec[..., N - k :], spec[..., : k + 1]], axis=-1)
    band *= ROOT_2PI / N
    return band * psi


def reference_evolve(
    model: ModelSpec, coeffs: np.ndarray, t0: float, t1: float, steps: int
) -> np.ndarray:
    """The Strang-split RK4 flow of a non-diagonal density over reference_grad."""
    assert not model.nonlinearity.diagonal
    c = np.array(coeffs, dtype=np.complex128)
    h = (t1 - t0) / steps
    half = np.exp(-1j * mode_squares(model.k) * (h / 2.0))

    def field(cc, tau):
        # 5. multiply by 1j
        return 1j * reference_grad(model, cc, tau)

    # 6. the RK4 combination between the two half free steps
    for j in range(steps):
        t = t0 + j * h
        c *= half
        k1 = field(c, t)
        k2 = field(c + 0.5 * h * k1, t + 0.5 * h)
        k3 = field(c + 0.5 * h * k2, t + 0.5 * h)
        k4 = field(c + h * k3, t + h)
        c += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c *= half
    return c


def reference_newton(
    model: ModelSpec,
    guess: SpectralField,
    phase_guess=None,
    tol: float = 1e-10,
    max_iter: int = 150,
    steps: int = 400,
) -> FixedPointResult:
    """newton_fixed_point written plainly: nothing carried, all ten trials at once.

    Every iteration propagates its own forward-difference batch around the
    iterate, and its line search propagates the ten LINE_SEARCH_SCALES
    trials in one flow and takes the first that lowers the residual norm.
    The arithmetic of the residual, the Jacobian and the step is the
    package's, so the two must agree bit for bit.
    """
    p0 = gauge_fix(guess)
    g_idx = gauge_mode(p0.coeffs) + p0.k
    dim = 2 * p0.k + 1
    m2 = 2 * dim

    def difference_flow(cc):
        out = evolve_many(model, _fd_batch(cc), 0.0, 1.0, steps)
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("the corrector's difference flow lost finiteness")
        return out

    def residual_vec(cc, flow_cc, aa):
        r_eq = flow_cc - np.exp(1j * aa) * cc
        r = np.empty(m2 + 2)
        r[:m2:2] = r_eq.real
        r[1:m2:2] = r_eq.imag
        r[m2] = np.vdot(cc, cc).real - 1.0
        r[m2 + 1] = cc[g_idx].imag
        return r

    units = np.kron(np.eye(dim), [[1.0], [1j]])
    c = p0.coeffs.copy()
    fd = difference_flow(c)
    a = phase_guess
    if a is None:
        a = float(np.angle(np.vdot(c, fd[0])))
    r = residual_vec(c, fd[0], a)
    rnorm = float(np.linalg.norm(r))
    iters = backtracks = 0
    message = ""
    while rnorm > tol and iters < max_iter:
        if iters > 0:
            fd = difference_flow(c)
        iters += 1
        J = np.zeros((m2 + 2, m2 + 1))
        e_ia = np.exp(1j * a)
        d_eq = (fd[1:] - fd[0]) / FD_STEP - e_ia * units
        J[:m2:2, :m2] = d_eq.real.T
        J[1:m2:2, :m2] = d_eq.imag.T
        J[m2, :m2:2] = 2.0 * c.real
        J[m2, 1:m2:2] = 2.0 * c.imag
        J[m2 + 1, 2 * g_idx + 1] = 1.0
        d_phase = -1j * e_ia * c
        J[:m2:2, m2] = d_phase.real
        J[1:m2:2, m2] = d_phase.imag

        delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        step = delta[:m2:2] + 1j * delta[1:m2:2]
        trials = np.array([c + scale * step for scale in LINE_SEARCH_SCALES])
        out = evolve_many(model, trials, 0.0, 1.0, steps)
        rnorm_before = rnorm
        for i, scale in enumerate(LINE_SEARCH_SCALES):
            if not np.all(np.isfinite(out[i])):
                continue
            a_new = a + scale * delta[m2]
            r_new = residual_vec(trials[i], out[i], a_new)
            rn = float(np.linalg.norm(r_new))
            if rn < rnorm:
                c, a, r, rnorm = trials[i], a_new, r_new, rn
                backtracks += i
                break
        else:
            message = "stalled: no descent along the Gauss-Newton direction"
            break
        if rnorm > 0.5 * rnorm_before and rnorm > math.sqrt(tol):
            message = f"not contracting: residual {rnorm_before:.3e} -> {rnorm:.3e}"
            break

    converged = rnorm <= tol
    if not converged and not message:
        message = f"iteration limit reached at residual {rnorm:.3e}"
    return FixedPointResult(
        point=gauge_fix(SpectralField(p0.k, c)),
        phase=_wrap_phase(a),
        residual=rnorm,
        converged=converged,
        iterations=iters,
        message=message,
        backtracks=backtracks,
    )


def reference_continuation(
    model: ModelSpec, n: int, schedule, steps: int, tol: float = 1e-10
) -> ContinuationResult:
    """continue_fixed_point over a given schedule, one reference_newton per step.

    Every attempt makes its own difference flows and the free state's
    residual is a flow of its own; nothing is carried from one strength
    to the next.  Only paths whose every step converges at the first
    attempt (no pair seed, no bisection) are covered.
    """
    point = mode_point(n, model.k)
    phase = _wrap_phase(-float(n) ** 2)
    res0 = fixed_point_residual(model.with_strength(0.0), point, steps)
    entries = [PathEntry(0.0, point, phase, res0, 0)]
    for eps in schedule[1:]:
        eps = float(eps)
        res = reference_newton(
            model.with_strength(eps), point, phase, tol, CORRECTOR_ITERS, steps
        )
        assert res.converged, f"strength {eps}: {res.message}"
        point, phase = res.point, res.phase
        entries.append(PathEntry(eps, point, phase, res.residual, res.iterations))
    return ContinuationResult(n, model.k, entries, True)


def continuation_bits(result: ContinuationResult) -> tuple:
    """Every field a points file stores, each float as its exact hex spelling.

    Two continuations with equal bits store byte-identical points files;
    the comparison also tells -0.0 from 0.0.
    """
    entries = [
        (float(e.eps).hex(), float(e.phase).hex(), float(e.residual).hex(),
         e.iterations, gauge_mode(e.point.coeffs), e.point.coeffs.tobytes())
        for e in result.entries
    ]
    return result.n, result.k, result.converged, result.message, entries


def reference_divisors_csv(report) -> str:
    """divisors.csv from a DivisorReport, one value at a time.

    Floats are written as ``f"{float(x):.17e}"``; log10_m is "nan" for
    m = 0 and log10_value is "-inf" for a zero divisor.
    """

    def fmt(x) -> str:
        return f"{float(x):.17e}"

    lines = ["m,q,p_star,value,is_record,log10_m,log10_value"]
    for i in range(report.ms.size):
        m = int(report.ms[i])
        value = float(report.values[i])
        lines.append(",".join([
            str(m),
            str(int(report.qs[i])),
            str(int(report.p_stars[i])),
            fmt(value),
            "1" if bool(report.is_record[i]) else "0",
            fmt(math.log10(m)) if m > 0 else "nan",
            fmt(math.log10(value)) if value > 0 else "-inf",
        ]))
    return "\n".join(lines) + "\n"
