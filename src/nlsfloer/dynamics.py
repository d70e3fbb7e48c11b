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

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import ModelSpec, free_phases, grad_F_many
from .spectral import TWO_PI, SpectralField, basis_point


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
    step scales at once; one batched run costs a fraction of the
    sequential loop.  Rows never mix, so each output row is the one-row
    propagation of its input row.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    c = np.array(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] != 2 * model.k + 1:
        raise ValueError("coeffs must have shape (M, 2k+1)")
    h = (t1 - t0) / steps
    half = free_phases(model.k, h / 2.0)
    nl = model.nonlinearity
    hartree_diag = None
    if nl.diagonal:
        hartree_diag = np.exp(-1j * nl.strength * model.psi_band**2 * h)

    def field(cc, tau):
        return 1j * grad_F_many(model, cc, tau)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            t = t0 + j * h
            c *= half
            if hartree_diag is not None:
                c *= hartree_diag
            else:
                k1 = field(c, t)
                k2 = field(c + 0.5 * h * k1, t + 0.5 * h)
                k3 = field(c + 0.5 * h * k2, t + 0.5 * h)
                k4 = field(c + h * k3, t + h)
                c += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            c *= half
            if not np.all(np.isfinite(c)):
                raise ArithmeticError(
                    f"propagation lost finiteness at step {j + 1}/{steps} "
                    f"(t = {t + h:.6g})"
                )
    return c


def evolve(
    model: ModelSpec, u: SpectralField, t0: float, t1: float, steps: int = 400
) -> SpectralField:
    """Strang split-step propagation of a single field."""
    if u.k > model.k:
        raise ValueError("field bandwidth exceeds model bandwidth")
    c = u.with_bandwidth(model.k).coeffs[np.newaxis, :]
    return SpectralField(model.k, evolve_many(model, c, t0, t1, steps)[0])


# ---------------------------------------------------------------------------
# projective representatives


@dataclass
class ProjectivePoint:
    """Unit-norm representative with a pinned gauge.

    The coefficient at gauge_index (a mode number) is real and positive;
    among the largest-modulus coefficients the gauge prefers the lowest
    |n| and then the nonnegative one.
    """

    field: SpectralField
    gauge_index: int

    @property
    def coeffs(self) -> np.ndarray:
        return self.field.coeffs

    @property
    def k(self) -> int:
        return self.field.k


def _gauge_mode(coeffs: np.ndarray, k: int) -> int:
    mag = np.abs(coeffs)
    top = mag.max()
    if top == 0.0:
        raise ValueError("cannot gauge the zero field")
    modes = np.arange(-k, k + 1)
    tied = modes[mag >= top * (1.0 - 1e-12)]
    tied = sorted(tied, key=lambda n: (abs(n), 0 if n >= 0 else 1))
    return int(tied[0])


def gauge_fix(u: Union[SpectralField, ProjectivePoint]) -> ProjectivePoint:
    """Normalize and rotate so the gauge coefficient is real positive."""
    if isinstance(u, ProjectivePoint):
        u = u.field
    s = u.l2()
    if s == 0.0:
        raise ValueError("cannot gauge the zero field")
    c = u.coeffs / s
    n_star = _gauge_mode(c, u.k)
    pivot = c[n_star + u.k]
    c = c * np.exp(-1j * np.angle(pivot))
    # kill the residual imaginary part left by rounding
    c[n_star + u.k] = abs(c[n_star + u.k])
    return ProjectivePoint(SpectralField(u.k, c), n_star)


def mode_point(n: int, k: int) -> ProjectivePoint:
    """The free single-mode state: unit coefficient at mode n."""
    return ProjectivePoint(basis_point(n, k), n)


def _as_unit_coeffs(p, k: int) -> np.ndarray:
    f = p.field if isinstance(p, ProjectivePoint) else p
    c = f.with_bandwidth(k).coeffs
    s = np.linalg.norm(c)
    if s == 0.0:
        raise ValueError("zero field has no projective class")
    return c / s


def fs_distance(
    p: Union[SpectralField, ProjectivePoint], q: Union[SpectralField, ProjectivePoint]
) -> float:
    """Fubini-Study angle arccos |<p, q>| between projective classes.

    Evaluated through the chordal identity 2 arcsin(|a - e^{i theta} b|/2)
    with theta the aligning phase; arccos of the overlap loses half the
    digits near coincident classes, the chord keeps full precision there.
    """
    k = max(p.k, q.k)
    a = _as_unit_coeffs(p, k)
    b = _as_unit_coeffs(q, k)
    z = np.vdot(b, a)
    if abs(z) == 0.0:
        return float(np.pi / 2.0)
    chord = np.linalg.norm(a - (z / abs(z)) * b)
    return float(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))


def fixed_point_residual(
    model: ModelSpec, p: Union[SpectralField, ProjectivePoint], steps: int = 400
) -> float:
    """Fubini-Study distance between p and its image under the time-one map."""
    f = p.field if isinstance(p, ProjectivePoint) else p
    out = evolve(model, f, 0.0, 1.0, steps)
    return fs_distance(out, p)


# ---------------------------------------------------------------------------
# Newton corrector for projective fixed points


@dataclass
class FixedPointResult:
    point: ProjectivePoint
    phase: float
    residual: float
    converged: bool
    iterations: int
    message: str = ""


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
    guess: Union[SpectralField, ProjectivePoint],
    phase_guess: Optional[float] = None,
    tol: float = 1e-10,
    max_iter: int = 150,
    steps: int = 400,
) -> FixedPointResult:
    """Solve flow_1(u) = exp(i a) u on the unit sphere with a pinned gauge.

    Unknowns are the 2(2k+1) real coefficient components plus the phase a;
    the augmented residual appends the norm and gauge constraints, and the
    flow Jacobian comes from forward differences of a batched propagation
    whose first row is the current iterate itself.  Gauss-Newton steps
    with backtracking: the scales 1, 1/2, ..., 1/512 are propagated in one
    batched flow and the largest one that lowers the residual norm is
    accepted, the same choice a sequential halving loop makes.  Stops when
    the residual l2 norm drops below tol.

    Ends early, "not contracting", when an accepted step fails to halve a
    residual still above sqrt(tol): converging calls from above 1e-8
    contract by 270x or more per step, while a guess on a degenerate +-n
    pair circle of the free map drifts at a ratio near 0.995.
    """
    p0 = gauge_fix(guess)
    g_idx = p0.gauge_index + p0.k
    dim = 2 * p0.k + 1
    m2 = 2 * dim

    c = p0.coeffs.copy()
    flows = evolve_many(model, _fd_batch(c), 0.0, 1.0, steps)
    a = phase_guess
    if a is None:
        a = float(np.angle(np.vdot(c, flows[0])))

    def residual_vec(cc, flow_cc, aa):
        r_eq = flow_cc - np.exp(1j * aa) * cc
        r = np.empty(m2 + 2)
        r[:m2:2] = r_eq.real
        r[1:m2:2] = r_eq.imag
        r[m2] = np.vdot(cc, cc).real - 1.0
        r[m2 + 1] = cc[g_idx].imag
        return r

    # rows 2*alpha and 2*alpha + 1 of the difference batch move component alpha by 1, i
    units = np.kron(np.eye(dim), [[1.0], [1j]])

    r = residual_vec(c, flows[0], a)
    rnorm = float(np.linalg.norm(r))
    iters = 0
    message = ""
    while rnorm > tol and iters < max_iter:
        if iters > 0:  # the first iteration reuses the initial batch
            flows = evolve_many(model, _fd_batch(c), 0.0, 1.0, steps)
        iters += 1
        J = np.zeros((m2 + 2, m2 + 1))
        e_ia = np.exp(1j * a)
        d_eq = (flows[1:] - flows[0]) / FD_STEP - e_ia * units
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
        for scale, c_new, flow_new in zip(LINE_SEARCH_SCALES, trials, out):
            a_new = a + scale * delta[m2]
            r_new = residual_vec(c_new, flow_new, a_new)
            rn = float(np.linalg.norm(r_new))
            if rn < rnorm:
                c, a, r, rnorm = c_new, a_new, r_new, rn
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
    )


# ---------------------------------------------------------------------------
# continuation in the nonlinearity strength


@dataclass
class PathEntry:
    eps: float
    point: ProjectivePoint
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
    attempts: int = 0  # newton_fixed_point calls, failed ones too; not in to_json
    corrector_iterations: int = 0  # their summed iterations; not in to_json

    @property
    def final(self) -> PathEntry:
        return self.entries[-1]

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "k": self.k,
            "converged": self.converged,
            "message": self.message,
            "entries": [
                {
                    "eps": e.eps,
                    "phase": e.phase,
                    "residual": e.residual,
                    "iterations": e.iterations,
                    "gauge_index": e.point.gauge_index,
                    "coeffs": [
                        [float(z.real), float(z.imag)] for z in e.point.coeffs
                    ],
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_json(text: str) -> "ContinuationResult":
        d = json.loads(text)
        entries = []
        for e in d["entries"]:
            coeffs = np.array(
                [complex(re, im) for re, im in e["coeffs"]], dtype=np.complex128
            )
            fieldv = SpectralField(d["k"], coeffs)
            entries.append(
                PathEntry(
                    eps=e["eps"],
                    point=ProjectivePoint(fieldv, e["gauge_index"]),
                    phase=e["phase"],
                    residual=e["residual"],
                    iterations=e["iterations"],
                )
            )
        return ContinuationResult(
            n=d["n"],
            k=d["k"],
            entries=entries,
            converged=d["converged"],
            message=d.get("message", ""),
        )


def _pair_seeds(point: ProjectivePoint) -> list:
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
    eps_schedule: Optional[Sequence[float]] = None,
    tol: float = 1e-10,
    steps: int = 400,
) -> ContinuationResult:
    """Continue the free single-mode state to the model's full strength.

    The schedule starts at 0; each step reuses the previous corrected
    state (and phase) as predictor.  A corrector that stalls is retried
    from the reflection-symmetrized combinations of the predictor before
    the strength interval is bisected (up to MAX_BISECT times); partial
    paths are returned with converged=False rather than discarded.

    CORRECTOR_ITERS is a per-attempt backstop.  What fails a predictor
    caught on a degenerate pair circle over to the seeded retries quickly
    is the corrector's contraction monitor, after its first step.
    """
    if abs(n) > model.k:
        raise ValueError("mode outside model bandwidth")
    target = model.nonlinearity.strength
    if eps_schedule is None:
        eps_schedule = np.linspace(0.0, target, 11)
    sched = [float(e) for e in eps_schedule]
    if sched[0] != 0.0:
        raise ValueError("strength schedule must start at 0")
    if not all(b >= a for a, b in zip(sched, sched[1:])) and not all(
        b <= a for a, b in zip(sched, sched[1:])
    ):
        raise ValueError("strength schedule must be monotone")
    if sched[-1] != target:
        raise ValueError("strength schedule must end at the model strength")

    point = mode_point(n, model.k)
    phase = _wrap_phase(-float(n) ** 2)
    entries = []

    # the free state is exact at strength 0; record it with its residual
    res0 = fixed_point_residual(model.with_strength(0.0), point, steps)
    entries.append(PathEntry(0.0, point, phase, res0, 0))

    corrector = dict(tol=tol, max_iter=CORRECTOR_ITERS, steps=steps)
    attempts = iterations = 0
    prev_eps = 0.0
    for eps in sched[1:]:
        lo, lo_point, lo_phase = prev_eps, point, phase
        hi = eps
        depth = 0
        while True:
            trial = model.with_strength(hi)
            result = newton_fixed_point(trial, lo_point, lo_phase, **corrector)
            attempts, iterations = attempts + 1, iterations + result.iterations
            if not result.converged and n != 0:
                for seed in _pair_seeds(lo_point):
                    retry = newton_fixed_point(trial, seed, lo_phase, **corrector)
                    attempts, iterations = attempts + 1, iterations + retry.iterations
                    if retry.converged:
                        result = retry
                        break
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
                    return ContinuationResult(
                        n=n,
                        k=model.k,
                        entries=entries,
                        converged=False,
                        message=(
                            f"corrector failed at strength {hi:.6g} "
                            f"after {MAX_BISECT} bisections: {result.message}"
                        ),
                        attempts=attempts,
                        corrector_iterations=iterations,
                    )
                hi = 0.5 * (lo + hi)
        prev_eps = eps

    return ContinuationResult(
        n=n, k=model.k, entries=entries, converged=True,
        attempts=attempts, corrector_iterations=iterations,
    )
