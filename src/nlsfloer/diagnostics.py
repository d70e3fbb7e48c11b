"""Measurement utilities for fields, cylinder states, and point families.

Three independent probes:

* ``normal_profile`` measures the Sobolev-weighted mass a datum carries
  beyond each cutoff level ell, the quantity whose decay certifies
  spectral smoothness of a computed object.
* ``gradient_monitor`` reports suprema of the discrete first derivatives
  of a cylinder state together with the per-node energy density used by
  the quadrature, so uniform boundedness can be checked across a ladder
  of bandwidths.
* ``distinctness_report`` tabulates pairwise Fubini-Study distances of a
  point family and flags near-coincident pairs.

All three are pure measurements: they never mutate their inputs and are
safe to run concurrently over ladder members or cutoff levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .dynamics import ProjectivePoint, fs_distance
from .floer import CutoffProfile, FloerState, _dt_spectral, _equation
from .model import ModelSpec, mode_squares
from .spectral import SpectralField

# Weight exponents delta used for the norm * ell^delta columns.  The
# decay statements under test concern delta up to 3, so the set is fixed
# rather than configurable.
DELTA_SET = (1.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# Normal-component decay profiles


@dataclass(frozen=True)
class DecayProfile:
    """Tail norms of a datum beyond each cutoff level.

    ``norms[i]`` is the weighted mass in modes |n| > ell_values[i] and
    ``weighted[i, j]`` is norms[i] * ell_values[i]**DELTA_SET[j], the
    quantity whose decrease in ell certifies decay faster than any
    tested inverse power.
    """

    ell_values: np.ndarray
    norms: np.ndarray
    weighted: np.ndarray
    deriv_order: int

    def __post_init__(self):
        if np.any(np.diff(self.ell_values) <= 0):
            raise ValueError("cutoff levels must be strictly increasing")
        if np.any(self.norms < 0.0):
            raise ValueError("tail norms must be nonnegative")

    def to_csv(self) -> str:
        """Rows ell, alpha, norm, then one norm*ell^delta column per delta."""
        cols = ",".join(
            f"norm_times_ell_{d:g}".replace(".", "_") for d in DELTA_SET
        )
        lines = [f"ell,alpha,norm,{cols}"]
        for i, ell in enumerate(self.ell_values):
            w = ",".join(f"{v:.17e}" for v in self.weighted[i])
            lines.append(f"{int(ell)},{self.deriv_order},{self.norms[i]:.17e},{w}")
        return "\n".join(lines) + "\n"


def _tail_norms(coeffs: np.ndarray, k: int, ells: np.ndarray, alpha: int) -> np.ndarray:
    """Weighted tail mass of (..., dim) coefficient data per cutoff level.

    For each ell the value is the sup over leading axes of
    (sum_{|n|>ell} |c(n)|^2 (1+n^2)^alpha)^{1/2}.
    """
    modes = np.arange(-k, k + 1)
    weight = (1.0 + mode_squares(k)) ** alpha
    mass = np.abs(coeffs.reshape(-1, 2 * k + 1)) ** 2 * weight[None, :]
    out = np.empty(ells.size)
    for i, ell in enumerate(ells):
        tail = np.abs(modes) > ell
        out[i] = np.sqrt(np.max(np.sum(mass[:, tail], axis=1))) if tail.any() else 0.0
    return out


def normal_profile(
    data: Union[SpectralField, FloerState],
    ell_range: Iterable[int],
    deriv_order: int = 0,
) -> DecayProfile:
    """Tail-mass decay profile of a field or cylinder state.

    For a field the level-ell entry is the Sobolev-weighted norm of the
    modes beyond ell, with weight (1 + n^2)^deriv_order.  For a cylinder
    state the t-derivative of order deriv_order is applied spectrally
    first and the entry is the sup of the same tail norm over all nodes.
    Every level must lie inside the declared bandwidth.
    """
    if deriv_order not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")
    ells = np.asarray(sorted(set(int(e) for e in ell_range)), dtype=np.int64)
    if ells.size == 0:
        raise ValueError("need at least one cutoff level")

    if isinstance(data, FloerState):
        k = data.grid.k
        coeffs = data.coeffs
        for _ in range(deriv_order):
            coeffs = _dt_spectral(coeffs)
    elif isinstance(data, SpectralField):
        k = data.k
        coeffs = data.coeffs
    else:
        raise TypeError("expected a SpectralField or a FloerState")
    if ells[0] < 0 or ells[-1] > k:
        raise ValueError(f"cutoff levels must lie in [0, {k}]")

    norms = _tail_norms(coeffs, k, ells, deriv_order)
    weighted = norms[:, None] * ells.astype(np.float64)[:, None] ** np.array(DELTA_SET)
    return DecayProfile(
        ell_values=ells, norms=norms, weighted=weighted, deriv_order=deriv_order
    )


# ---------------------------------------------------------------------------
# Derivative and energy-density monitoring


def gradient_monitor(
    state: FloerState, model: ModelSpec, cutoff: CutoffProfile
) -> Dict[str, object]:
    """Suprema of discrete first derivatives and the energy density map.

    Returns sup_ds (largest per-node l2 norm of the interior central
    s-difference; the end rows have no interior stencil), sup_dt (largest
    per-node l2 norm of the spectral t-derivative), and
    energy_density_map, the (N_s, N_t) density whose trapezoid-in-s,
    uniform-in-t quadrature is exactly the curve energy.  All three read
    one evaluation of the equation.
    """
    eq = _equation(model, state, cutoff)
    sup_ds, sup_dt = (
        float(np.sqrt(np.max(np.sum(np.abs(D) ** 2, axis=2))))
        for D in (eq.ds_v, eq.dt_v)
    )
    emap = eq.energy_density()
    return {"sup_ds": sup_ds, "sup_dt": sup_dt, "energy_density_map": emap}


def integrate_density(state: FloerState, density_map: np.ndarray) -> float:
    """Trapezoid-in-s, uniform-in-t quadrature of a per-node density."""
    return state.grid.integrate(density_map)


# ---------------------------------------------------------------------------
# Distinctness of point families


@dataclass(frozen=True)
class DistinctnessReport:
    """Pairwise Fubini-Study distances with near-coincidence flags."""

    distances: np.ndarray
    flagged: Tuple[Tuple[int, int], ...]
    threshold: float

    @property
    def min_offdiag(self) -> float:
        P = self.distances.shape[0]
        mask = ~np.eye(P, dtype=bool)
        return float(np.min(self.distances[mask]))

    def to_csv(self) -> str:
        """Square distance matrix with i,j row/column indices."""
        P = self.distances.shape[0]
        lines = ["i," + ",".join(f"d{j}" for j in range(P))]
        for i in range(P):
            row = ",".join(f"{v:.17e}" for v in self.distances[i])
            lines.append(f"{i},{row}")
        return "\n".join(lines) + "\n"


def distinctness_report(
    points: Sequence[Union[SpectralField, ProjectivePoint]],
    threshold: float = 1e-3,
) -> DistinctnessReport:
    """Full fs_distance matrix of a family, flagging pairs under threshold.

    The matrix is symmetric with zero diagonal and unchanged under
    global phase changes of the inputs.  At least two points are
    required for a pairwise report.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to compare")
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    P = len(points)
    D = np.zeros((P, P))
    flagged: List[Tuple[int, int]] = []
    for i in range(P):
        for j in range(i + 1, P):
            d = fs_distance(points[i], points[j])
            D[i, j] = D[j, i] = d
            if d < threshold:
                flagged.append((i, j))
    return DistinctnessReport(
        distances=D, flagged=tuple(flagged), threshold=threshold
    )
