"""Time evolution and projective fixed points of the smoothed flow.

The Hamiltonian convention is fixed once here: a functional H with L2
gradient grad H generates the field X = +i grad H, so the free part
H0(u) = -sum (n^2/2)|u^(n)|^2 produces the propagator

    u^(n, t) = exp(-i n^2 t) u^(n, 0),

and the hartree member (grad diagonal, -eps psi^(n)^2 u^(n)) evolves as
exp(-i (n^2 + eps psi^(n)^2) t).  Propagation uses Strang splitting: a
half step of the exact free flow, the nonlinear substep (exact diagonal
update for hartree, one classical RK4 step otherwise), and another half
free step.

States of the time-one map are treated projectively: representatives are
unit norm with the largest-modulus coefficient rotated to the positive
real axis, and distances are Fubini-Study angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GradientStage, ModelSpec, free_phases
from .spectral import TWO_PI, SpectralField


def free_flow(u: SpectralField, t: float) -> SpectralField:
    """Exact free propagator, diagonal phases exp(-i n^2 t)."""
    return SpectralField(u.k, u.coeffs * free_phases(u.k, t))


# ---------------------------------------------------------------------------
# split-step propagation


def evolve_many(
    model: ModelSpec, coeffs: np.ndarray, t0: float, t1: float, steps: int
) -> np.ndarray:
    """Propagate a batch of coefficient rows from t0 to t1.

    coeffs has shape (M, 2k+1) at the model bandwidth.  The batch form
    exists because finite-difference Jacobians re-run the same flow for
    2(2k+1)+1 nearby states, and a backtracking line search tries several
    step scales at once; the Newton corrector's full-step trial also carries
    a difference batch, at a continuation's next strength if the model's is
    an (M, 1) column.  Rows never mix: each row is bit for bit its one-row flow.
    A row that loses finiteness is returned as computed; the caller decides.

    The gradient stage (GradientStage) is built once per call and applied
    at all four RK4 stages of every step.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    c = np.array(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] != 2 * model.k + 1:
        raise ValueError("coeffs must have shape (M, 2k+1)")
    h = (t1 - t0) / steps
    half = free_phases(model.k, h / 2.0)
    nl = model.nonlinearity
    if nl.diagonal:
        hartree_diag = np.exp(-1j * nl.strength * model.psi_band**2 * h)
    else:
        stage = GradientStage(model, c.shape[:1])

    def field(cc, tau):
        return 1j * stage(cc, tau)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            t = t0 + j * h
            c *= half
            if nl.diagonal:
                c *= hartree_diag
            else:
                k1 = field(c, t)
                k2 = field(c + 0.5 * h * k1, t + 0.5 * h)
                k3 = field(c + 0.5 * h * k2, t + 0.5 * h)
                k4 = field(c + h * k3, t + h)
                c += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            c *= half
    return c


def evolve(
    model: ModelSpec, u: SpectralField, t0: float, t1: float, steps: int = 400
) -> SpectralField:
    """Strang split-step propagation of a single field at the model bandwidth."""
    out = evolve_many(model, u.coeffs[np.newaxis], t0, t1, steps)[0]
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(
            f"propagation from t = {t0:.6g} to {t1:.6g} lost finiteness"
        )
    return SpectralField(model.k, out)


# ---------------------------------------------------------------------------
# projective representatives


def gauge_mode(coeffs: np.ndarray) -> int:
    """The mode whose coefficient a representative's gauge makes real positive.

    The gauge is read off the coefficients, bandwidth (size - 1) / 2: among
    the largest-modulus coefficients it prefers the lowest |n| and then the
    nonnegative one.
    """
    mag = np.abs(coeffs)
    top = mag.max()
    if top == 0.0:
        raise ValueError("cannot gauge the zero field")
    k = (coeffs.size - 1) // 2
    modes = np.arange(-k, k + 1)
    tied = modes[mag >= top * (1.0 - 1e-12)]
    tied = sorted(tied, key=lambda n: (abs(n), 0 if n >= 0 else 1))
    return int(tied[0])


def gauge_fix(u: SpectralField) -> SpectralField:
    """Normalize and rotate so the gauge_mode coefficient is real positive."""
    s = u.l2()
    if s == 0.0:
        raise ValueError("cannot gauge the zero field")
    c = u.coeffs / s
    g = gauge_mode(c) + u.k
    c = c * np.exp(-1j * np.angle(c[g]))
    # kill the residual imaginary part left by rounding
    c[g] = abs(c[g])
    return SpectralField(u.k, c)


def mode_point(n: int, k: int) -> SpectralField:
    """The free single-mode state: unit coefficient at mode n.

    On the grid this is (2pi)^(-1/2) exp(i n x).
    """
    if abs(n) > k:
        raise ValueError("mode outside bandwidth")
    c = np.zeros(2 * k + 1, dtype=np.complex128)
    c[n + k] = 1.0
    return SpectralField(k, c)


def fs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Fubini-Study angle arccos |<a, b>| between projective classes.

    a and b are coefficient vectors of one bandwidth, normalized here.
    Evaluated through the chordal identity 2 arcsin(|a - e^{i theta} b|/2)
    with theta the aligning phase; arccos of the overlap loses half the
    digits near coincident classes, the chord keeps full precision there.
    """
    if a.shape != b.shape:
        raise ValueError(
            f"cannot compare coefficient vectors of shapes {a.shape} and {b.shape}"
        )
    sa, sb = np.linalg.norm(a), np.linalg.norm(b)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("zero field has no projective class")
    a, b = a / sa, b / sb
    z = np.vdot(b, a)
    if abs(z) == 0.0:
        return float(np.pi / 2.0)
    chord = np.linalg.norm(a - (z / abs(z)) * b)
    return float(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))


def fixed_point_residual(model: ModelSpec, p: SpectralField, steps: int = 400) -> float:
    """Fubini-Study distance between p and its image under the time-one map."""
    return fs_distance(evolve(model, p, 0.0, 1.0, steps).coeffs, p.coeffs)


# ---------------------------------------------------------------------------
# Newton corrector for projective fixed points


@dataclass
class FixedPointResult:
    point: SpectralField
    phase: float
    residual: float
    converged: bool
    iterations: int
    message: str = ""
    flows: int = 0  # evolve_many calls
    flow_rows: int = 0  # rows they propagated
    backtracks: int = 0  # summed index in LINE_SEARCH_SCALES of the accepted trials
    next_rows: Optional[np.ndarray] = None  # see newton_fixed_point's next_strength


FD_STEP = 1e-6
MAX_BISECT = 8  # continue_fixed_point: halvings of one strength step
CORRECTOR_ITERS = 25  # continue_fixed_point: backstop per corrector attempt
# backtracking scales 1, 1/2, ..., 1/512, tried largest first
LINE_SEARCH_SCALES = tuple(0.5**i for i in range(10))


def _wrap_phase(a: float) -> float:
    return float(math.remainder(a, TWO_PI))


def _fd_batch(c: np.ndarray) -> np.ndarray:
    """c, then c shifted by FD_STEP in the real and imaginary part of each component."""
    batch = np.tile(c, (2 * c.size + 1, 1))
    for alpha in range(c.size):
        batch[1 + 2 * alpha, alpha] += FD_STEP
        batch[2 + 2 * alpha, alpha] += 1j * FD_STEP
    return batch


def newton_fixed_point(
    model: ModelSpec,
    guess: SpectralField,
    phase_guess: Optional[float] = None,
    tol: float = 1e-10,
    max_iter: int = 150,
    steps: int = 400,
    jac_rows: Optional[np.ndarray] = None,
    next_strength: Optional[float] = None,
) -> FixedPointResult:
    """Solve flow_1(u) = exp(i a) u on the unit sphere with a pinned gauge.

    Unknowns are the 2(2k+1) real coefficient components plus the phase a;
    the augmented residual appends the norm and gauge constraints, and the
    flow Jacobian comes from forward differences of a batched propagation
    whose first row is the current iterate itself.  Gauss-Newton steps
    with backtracking over the scales 1, 1/2, ..., 1/512: the full step is
    propagated first, and only if it does not lower the residual norm are
    the nine shorter trials, in one batched flow; the largest scale that
    lowers it is accepted, the same choice a sequential halving loop
    makes.  Stops when the residual l2 norm drops below tol.

    Above sqrt(tol) the full step should not yet converge, so its flow
    also carries the rest of the difference batch around c + step;
    when the full step is accepted the next iteration builds its Jacobian
    from those rows and makes no flow of its own.  Rows never mix.

    Given next_strength, a full step below sqrt(tol) carries the batch at
    that strength around gauge_fix(result.point), where the next attempt
    starts; a converging full step returns its flow as next_rows, and
    passed back as jac_rows it is that attempt's first Jacobian.

    A trial whose flow loses finiteness is rejected like one that raises
    the residual, and carried rows serve only when all are finite.  A
    difference flow the corrector makes itself must be finite, or it
    raises ArithmeticError.

    Ends early, "not contracting", when an accepted step fails to halve a
    residual still above sqrt(tol): converging calls from above 1e-8
    contract by 270x or more per step, while a guess on a degenerate +-n
    pair circle of the free map drifts at a ratio near 0.995.
    """
    p0 = gauge_fix(guess)
    g_idx = gauge_mode(p0.coeffs) + p0.k
    dim = 2 * p0.k + 1
    m2 = 2 * dim
    rows = []  # the batch rows of each evolve_many call

    def flow(batch, flow_model=model):
        rows.append(len(batch))
        return evolve_many(flow_model, batch, 0.0, 1.0, steps)

    def difference_flow(cc):
        out = flow(_fd_batch(cc))
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("the corrector's difference flow lost finiteness")
        return out

    c = p0.coeffs.copy()
    if jac_rows is None:
        jac_rows = difference_flow(c)
    a = phase_guess
    if a is None:
        a = float(np.angle(np.vdot(c, jac_rows[0])))

    def residual_vec(cc, flow_cc, aa):
        r_eq = flow_cc - np.exp(1j * aa) * cc
        return np.concatenate(
            [r_eq.view(np.float64), [np.vdot(cc, cc).real - 1.0, cc[g_idx].imag]]
        )

    # rows 2*alpha and 2*alpha + 1 of the difference batch move component alpha by 1, i
    units = np.kron(np.eye(dim), [[1.0], [1j]])

    r = residual_vec(c, jac_rows[0], a)
    rnorm = float(np.linalg.norm(r))
    iters = 0
    backtracks = 0
    message = ""
    next_rows = None
    while rnorm > tol and iters < max_iter:
        if jac_rows is None:  # none carried in, or a carried row was not finite
            jac_rows = difference_flow(c)
        iters += 1
        J = np.zeros((m2 + 2, m2 + 1))
        e_ia = np.exp(1j * a)
        d_eq = (jac_rows[1:] - jac_rows[0]) / FD_STEP - e_ia * units
        J[:m2, :m2] = d_eq.view(np.float64).T
        J[m2, :m2] = 2.0 * c.view(np.float64)
        J[m2 + 1, 2 * g_idx + 1] = 1.0
        J[:m2, m2] = (-1j * e_ia * c).view(np.float64)

        delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        step = delta[:m2].view(np.complex128)
        trials = np.array([c + scale * step for scale in LINE_SEARCH_SCALES])
        carry = rnorm > math.sqrt(tol)  # carry the full step's difference batch
        ahead = not carry and next_strength is not None
        batch, batch_model = trials[:1], model
        if carry:  # its first row is the full step
            batch = _fd_batch(trials[0])
        elif ahead:  # one strength per row, the full step's then the next attempt's
            start = gauge_fix(gauge_fix(SpectralField(p0.k, trials[0])))
            batch = np.concatenate([trials[:1], _fd_batch(start.coeffs)])
            column = np.full((len(batch), 1), next_strength)
            column[0] = model.nonlinearity.strength
            batch_model = model.with_strength(column)
        out = flow(batch, batch_model)
        jac_rows = next_rows = None
        rnorm_before = rnorm
        for i, scale in enumerate(LINE_SEARCH_SCALES):
            if i == 1:  # the full step is rejected: flow the shorter trials
                out = np.concatenate([out[:1], flow(trials[1:])])
            if not np.all(np.isfinite(out[i])):
                continue
            a_new = a + scale * delta[m2]
            r_new = residual_vec(trials[i], out[i], a_new)
            rn = float(np.linalg.norm(r_new))
            if rn < rnorm:
                c, a, r, rnorm = trials[i], a_new, r_new, rn
                backtracks += i
                if carry and i == 0 and np.all(np.isfinite(out)):
                    jac_rows = out  # the flow of _fd_batch(c)
                if ahead and i == 0 and np.all(np.isfinite(out[1:])):
                    next_rows = out[1:]
                break
        else:
            message = "stalled: no descent along the Gauss-Newton direction"
            break
        if rnorm > 0.5 * rnorm_before and rnorm > math.sqrt(tol):
            message = f"not contracting: residual {rnorm_before:.3e} -> {rnorm:.3e}"
            break

    converged = rnorm <= tol
    point = gauge_fix(SpectralField(p0.k, c))
    if not converged and not message:
        message = f"iteration limit reached at residual {rnorm:.3e}"
    return FixedPointResult(
        point=point,
        phase=_wrap_phase(a),
        residual=rnorm,
        converged=converged,
        iterations=iters,
        message=message,
        flows=len(rows),
        flow_rows=sum(rows),
        backtracks=backtracks,
        next_rows=next_rows if converged else None,
    )


# ---------------------------------------------------------------------------
# continuation in the nonlinearity strength


@dataclass
class PathEntry:
    eps: float
    point: SpectralField
    phase: float
    residual: float
    iterations: int


@dataclass
class ContinuationResult:
    n: int
    k: int
    entries: list
    converged: bool
    message: str = ""
    # corrector calls (failed ones too), their iterations, flows and
    # line-search backtracks
    attempts: int = 0
    corrector_iterations: int = 0
    flows: int = 0
    flow_rows: int = 0
    backtracks: int = 0

    @property
    def final(self) -> PathEntry:
        return self.entries[-1]


def _pair_seeds(point: SpectralField) -> list:
    """Reflection-symmetrized retry predictors for a stalled corrector.

    The free time-one map has equal eigenphases on every +-n mode pair, so
    a bare mode sits on a near-flat circle of approximate fixed points and
    the corrector drifts.  The members of the pair circle that survive a
    reflection-respecting perturbation lie near the symmetric and
    antisymmetric combinations; starting there skips the drift.
    """
    c = point.coeffs
    r = c[::-1].copy()
    seeds = []
    for combo in (c + r, c - r):
        s = np.linalg.norm(combo)
        if s > 1e-8:
            seeds.append(gauge_fix(SpectralField(point.k, combo / s)))
    return seeds


def continue_fixed_point(
    model: ModelSpec,
    n: int,
    tol: float = 1e-10,
    steps: int = 400,
) -> ContinuationResult:
    """Continue the free single-mode state to the model's full strength.

    The strength schedule follows the mode.  At strength 0 it is [0], since
    the free state is exact there.  Mode 0's free eigenvalue is simple, so
    its branch is locally unique and one step [0, strength] reaches it; a
    +-n pair is degenerate at strength 0, so for n != 0 an 11-point path
    picks the member of the pair the interaction selects.

    Each step reuses the previous corrected state (and phase) as predictor,
    and the flow of its first Jacobian, which the previous attempt (or the
    free state's flow) carried.  A corrector that stalls is retried from the
    reflection-symmetrized combinations of the predictor before the strength
    interval is bisected (up to MAX_BISECT times); partial paths are
    returned with converged=False rather than discarded.

    CORRECTOR_ITERS is a per-attempt backstop.  What fails a predictor
    caught on a degenerate pair circle over to the seeded retries quickly
    is the corrector's contraction monitor, after its first step.
    """
    if abs(n) > model.k:
        raise ValueError("mode outside model bandwidth")
    target = model.nonlinearity.strength
    sched = np.linspace(0.0, target, 2 if n == 0 else 11).tolist() if target else [0.0]

    point = mode_point(n, model.k)
    phase = _wrap_phase(-float(n) ** 2)
    entries = []

    # the free state is exact at strength 0; record it with its residual.  Its
    # flow also carries the first attempt's difference batch, at sched[1].
    batch, column = point.coeffs[np.newaxis], np.zeros((1, 1))
    if len(sched) > 1:
        batch = np.concatenate([batch, _fd_batch(gauge_fix(point).coeffs)])
        column = np.full((len(batch), 1), sched[1])
        column[0] = 0.0
    out = evolve_many(model.with_strength(column), batch, 0.0, 1.0, steps)
    entries.append(PathEntry(0.0, point, phase, fs_distance(out[0], point.coeffs), 0))
    carried = out[1:] if np.all(np.isfinite(out)) else None

    corrector = dict(tol=tol, max_iter=CORRECTOR_ITERS, steps=steps)
    totals = dict(
        attempts=0, corrector_iterations=0, flows=1, flow_rows=len(batch), backtracks=0
    )

    def correct(trial, start, start_phase, **carry):
        res = newton_fixed_point(trial, start, start_phase, **corrector, **carry)
        totals["attempts"] += 1
        totals["corrector_iterations"] += res.iterations
        totals["flows"] += res.flows
        totals["flow_rows"] += res.flow_rows
        totals["backtracks"] += res.backtracks
        return res

    for i, (prev_eps, eps) in enumerate(zip(sched, sched[1:])):
        after = sched[i + 2] if i + 2 < len(sched) else None
        lo, lo_point, lo_phase = prev_eps, point, phase
        hi = eps
        depth = 0
        while True:
            trial = model.with_strength(hi)
            ahead = after if hi == eps else eps  # the next attempt's strength
            result = correct(
                trial, lo_point, lo_phase, jac_rows=carried, next_strength=ahead
            )
            if not result.converged and n != 0:
                for seed in _pair_seeds(lo_point):
                    retry = correct(trial, seed, lo_phase, next_strength=ahead)
                    if retry.converged:
                        result = retry
                        break
            carried = result.next_rows
            if result.converged:
                if hi == eps:
                    point, phase = result.point, result.phase
                    entries.append(
                        PathEntry(eps, point, phase, result.residual, result.iterations)
                    )
                    break
                # sub-step succeeded; advance the lower anchor
                lo, lo_point, lo_phase = hi, result.point, result.phase
                hi = eps
            else:
                depth += 1
                if depth > MAX_BISECT:
                    msg = (f"corrector failed at strength {hi:.6g} after "
                           f"{MAX_BISECT} bisections: {result.message}")
                    return ContinuationResult(n, model.k, entries, False, msg, **totals)
                hi = 0.5 * (lo + hi)

    return ContinuationResult(n, model.k, entries, True, **totals)
