"""Command line front end: configured pipelines with reproducible outputs.

Each subcommand reads one JSON config, runs a single pipeline, and
writes analysis-ready CSV/JSON artifacts plus a run manifest into the
output directory.  Every artifact format is defined here; the numeric
modules write no files.  Artifacts are deterministic: the same config and
seed produce byte-identical files.  The manifest records the tool
version, a timestamp, the fully resolved config, the seed, a sha256
digest per artifact and the library versions and CPU count of the
environment; it is written even when the pipeline fails.

Exit codes: 0 success, 2 config error, 3 numeric failure (no convergence,
lost finiteness, or an array too large to allocate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy

from . import __version__
from .diagnostics import (
    DELTA_SET,
    distinctness_report,
    gradient_monitor,
    integrate_density,
    normal_profile,
)
from .dynamics import (
    ContinuationResult,
    PathEntry,
    continue_fixed_point,
    evolve,
    fs_distance,
    gauge_mode,
    mode_point,
)
from .floer import (
    CylinderGrid,
    FloerState,
    boundary_orbit,
    extract_slices,
    slice_windows,
    solve_floer,
)
from .model import (
    Constant,
    Hartree,
    ModelSpec,
    Potential,
    Quadratic,
    TimeModulated,
    band_limited_kernel,
    cosine_field,
    exponential_kernel,
    galerkin_gap,
    hofer_norm,
    mode_squares,
)
from .smalldiv import convergents, divisor_scan, inv_two_pi
from .spectral import bandwidth

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

UNIT_TOL = 1e-12  # the |norm - 1| a stored node or point may have; written: 2.2e-16

class ConfigError(Exception):
    """Invalid configuration; the message starts with the field path."""


class NumericError(Exception):
    """A pipeline failed to converge or lost finiteness."""


# ---------------------------------------------------------------------------
# configuration schema

MODEL_DEFAULTS = {
    "kind": "potential",
    "eps": 0.05,
    "k": 4,
    "modulated": False,
    "kernel": {"type": "exponential", "rate": 1.0, "ell": 2},
}

PIPELINE_DEFAULTS = {
    "simulate": {"n0": 0, "t_final": 1.0, "steps": 1000, "samples": 10},
    "fixed_points": {"modes": [0, 1, 2, 3], "tol": 1e-10, "steps": 400},
    "floer": {
        "T": 1.0,
        "S": 4.0,
        "N_s": 200,
        "N_t": 32,
        "n_left": 0,
        "n_right": 0,
        "tol": 1e-6,
        "max_iter": 60,
        "gamma_max": 1,
        "continuation_steps": 400,
    },
    "divisors": {"m_max": 2000, "n": 0, "convergent_count": 10},
    "hofer": {"starts": 8},
    "galerkin": {"k_values": [2, 3, 4, 5, 6], "R": 1.0, "samples": 32},
    "diagnose": {
        "states": [],
        "points": [],
        "ell_min": 1,
        "ell_max": 0,
        "deriv_orders": [0, 1, 2],
        "threshold": 1e-3,
    },
}

KINDS = ("constant", "hartree", "quadratic", "potential")
KERNEL_TYPES = ("exponential", "band_limited")


def _type_name(v) -> str:
    return type(v).__name__


def _check_scalar(value, default, path):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected bool, got {_type_name(value)}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected integer, got {_type_name(value)}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {_type_name(value)}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {_type_name(value)}")
        return value
    if not isinstance(value, list):  # every other default is a list
        raise ConfigError(f"{path}: expected list, got {_type_name(value)}")
    return value


def _merge_section(defaults: dict, given, path: str) -> dict:
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected object, got {_type_name(given)}")
    out = {}
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown field")
        if isinstance(defaults[key], dict):
            out[key] = _merge_section(defaults[key], value, f"{path}.{key}")
        else:
            out[key] = _check_scalar(value, defaults[key], f"{path}.{key}")
    # schema order, whatever order the config gives: floer_state.json
    # stores the resolved model section as it iterates
    return {
        key: out[key] if key in out else (
            _merge_section(value, {}, f"{path}.{key}") if isinstance(value, dict)
            else value
        )
        for key, value in defaults.items()
    }


def resolve_config(raw: dict, pipeline: str, seed: Optional[int] = None) -> dict:
    """Apply defaults, a given seed over the config's, and validate; raises
    ConfigError with a field path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected object, got {_type_name(raw)}")
    section = pipeline.replace("-", "_")
    allowed = {"pipeline", "seed", section}
    if section != "divisors":  # the divisor scan reads no model
        allowed.add("model")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown field")
    declared = raw.get("pipeline")
    if declared is not None and declared != pipeline:
        raise ConfigError(
            f"pipeline: config selects {declared!r} but the "
            f"{pipeline!r} subcommand was invoked"
        )
    seed = raw.get("seed", 0) if seed is None else seed
    if isinstance(seed, bool) or not isinstance(seed, int) or not (
        0 <= seed < 2**64
    ):
        raise ConfigError("seed: expected integer in [0, 2^64)")

    resolved = {"pipeline": pipeline, "seed": seed}
    if "model" in allowed:
        resolved["model"] = _resolve_model(raw.get("model"))
    params = _merge_section(PIPELINE_DEFAULTS[section], raw.get(section), section)
    _validate_params(section, params, resolved.get("model"))
    resolved[section] = params
    return resolved


def _resolve_model(given) -> dict:
    """The model section with its defaults applied, validated."""
    model = _merge_section(MODEL_DEFAULTS, given, "model")
    if model["kind"] not in KINDS:
        raise ConfigError(f"model.kind: expected one of {', '.join(KINDS)}")
    if model["k"] < 0:
        raise ConfigError("model.k: bandwidth must be nonnegative")
    if model["kind"] == "potential" and model["k"] < 1:
        raise ConfigError("model.k: potential kind needs bandwidth >= 1")
    if model["kernel"]["type"] not in KERNEL_TYPES:
        raise ConfigError(
            f"model.kernel.type: expected one of {', '.join(KERNEL_TYPES)}"
        )
    unread = "ell" if model["kernel"]["type"] == "exponential" else "rate"
    if unread in ((given or {}).get("kernel") or {}):
        raise ConfigError(
            f"model.kernel.{unread}: not read by the {model['kernel']['type']} kernel"
        )
    if model["kernel"]["rate"] <= 0.0:
        raise ConfigError("model.kernel.rate: decay rate must be positive")
    if model["kernel"]["ell"] < 0:
        raise ConfigError("model.kernel.ell: support radius must be nonnegative")
    return model


def _validate_params(section: str, p: dict, model: dict):
    def positive(name, value, strict=True):
        if (value <= 0) if strict else (value < 0):
            bound = "positive" if strict else "nonnegative"
            raise ConfigError(f"{section}.{name}: must be {bound}")

    def distinct(name):
        for i, value in enumerate(p[name]):
            if value in p[name][:i]:
                raise ConfigError(f"{section}.{name}[{i}]: repeats an earlier entry")

    if section == "simulate":
        positive("steps", p["steps"])
        positive("samples", p["samples"])
        positive("t_final", p["t_final"])
        if abs(p["n0"]) > model["k"]:
            raise ConfigError("simulate.n0: mode outside the model bandwidth")
    elif section == "fixed_points":
        if not p["modes"]:
            raise ConfigError("fixed_points.modes: need at least one mode")
        for i, n in enumerate(p["modes"]):
            if isinstance(n, bool) or not isinstance(n, int):
                raise ConfigError(f"fixed_points.modes[{i}]: expected integer")
            if abs(n) > model["k"]:
                raise ConfigError(
                    f"fixed_points.modes[{i}]: mode outside the model bandwidth"
                )
        distinct("modes")
        positive("tol", p["tol"])
        positive("steps", p["steps"])
    elif section == "floer":
        positive("tol", p["tol"])
        positive("max_iter", p["max_iter"])
        positive("gamma_max", p["gamma_max"])
        positive("continuation_steps", p["continuation_steps"])
        for name in ("n_left", "n_right"):
            if abs(p[name]) > model["k"]:
                raise ConfigError(f"floer.{name}: mode outside the model bandwidth")
        try:  # the grid owns the window rules; its messages start with the field
            grid = CylinderGrid(p["S"], p["N_s"], p["N_t"], model["k"], p["T"])
        except ValueError as exc:
            raise ConfigError(f"floer.{exc}") from exc
        s = grid.s_nodes[1:-1]
        for gamma, side, lo, hi in slice_windows(p["T"], p["gamma_max"]):
            if not np.any((s >= lo) & (s <= hi)):
                raise ConfigError(
                    f"floer.gamma_max: the gamma={gamma} {side} slice window "
                    f"[{lo:g}, {hi:g}] holds no solved node"
                )
    elif section == "divisors":
        if p["m_max"] <= abs(p["n"]):
            raise ConfigError("divisors.m_max: need m_max > |n|")
        if p["m_max"] > 10**7:
            raise ConfigError("divisors.m_max: the scan stops at 10^7")
        positive("convergent_count", p["convergent_count"])
    elif section == "hofer":
        positive("starts", p["starts"])
    elif section == "galerkin":
        if not p["k_values"]:
            raise ConfigError("galerkin.k_values: need at least one bandwidth")
        for i, k in enumerate(p["k_values"]):
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise ConfigError(
                    f"galerkin.k_values[{i}]: expected nonnegative integer"
                )
        positive("R", p["R"])
        positive("samples", p["samples"])
    elif section == "diagnose":
        for name in ("states", "points"):
            for i, path in enumerate(p[name]):
                if not isinstance(path, str):
                    raise ConfigError(f"diagnose.{name}[{i}]: expected path string")
        if not p["states"] and not p["points"]:
            raise ConfigError("diagnose.states: need at least one state or point")
        positive("ell_min", p["ell_min"], strict=False)
        if not 0 <= p["ell_max"] <= model["k"]:
            raise ConfigError(f"diagnose.ell_max: must lie in [0, {model['k']}]")
        if p["ell_min"] > (p["ell_max"] or model["k"]):  # 0: the model bandwidth
            raise ConfigError("diagnose.ell_min: must not exceed ell_max")
        positive("threshold", p["threshold"])
        for i, a in enumerate(p["deriv_orders"]):
            if isinstance(a, bool) or not isinstance(a, int) or a not in (0, 1, 2):
                raise ConfigError(f"diagnose.deriv_orders[{i}]: expected 0, 1 or 2")
        distinct("deriv_orders")


def build_model(cfg: dict) -> ModelSpec:
    k = cfg["k"]
    kernel_cfg = cfg["kernel"]
    if kernel_cfg["type"] == "exponential":
        kernel = exponential_kernel(kernel_cfg["rate"], k)
    else:
        kernel = band_limited_kernel(kernel_cfg["ell"], k)

    if cfg["kind"] == "potential":
        nl = Potential(cfg["eps"], cosine_field(k))
    else:
        nl = {"constant": Constant, "hartree": Hartree, "quadratic": Quadratic}[
            cfg["kind"]](cfg["eps"])
    if cfg["modulated"]:  # F_t = (1 + cos 2pi t) F_0
        nl = TimeModulated(nl)
    return ModelSpec(kernel, nl, k)


# ---------------------------------------------------------------------------
# artifact persistence


def _atomic_write(path: str, data: bytes):
    parent = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ArtifactWriter:
    """Atomic text-file writer that records names and content digests."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.entries: List[Dict[str, str]] = []

    def write(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        path = os.path.join(self.out_dir, name)
        _atomic_write(path, data)
        self.entries.append(
            {"path": name, "sha256": hashlib.sha256(data).hexdigest()}
        )
        return path


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


def _csv(header: List[str], rows: List[List[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def state_json(state: FloerState, model: dict) -> str:
    """floer_state.json: the grid, the model section the state was solved
    under, and coeffs as one base64 string of their little-endian complex128
    bytes in C order, so a round trip keeps every bit, signed zeros included."""
    g = state.grid
    grid = {"S": g.S, "N_s": g.N_s, "N_t": g.N_t, "k": g.k, "T": g.T}
    coeffs = base64.b64encode(np.ascontiguousarray(state.coeffs, "<c16").tobytes())
    payload = {"grid": grid, "model": model, "coeffs": coeffs.decode("ascii")}
    return json.dumps(payload) + "\n"


def read_state(text: str):
    """(FloerState, model section) of a floer_state.json.  The grid's k must
    be the section's, and every node a unit vector to within UNIT_TOL."""
    payload = json.loads(text)
    g = payload["grid"]
    grid = CylinderGrid(S=g["S"], N_s=g["N_s"], N_t=g["N_t"], k=g["k"], T=g["T"])
    if g["k"] != payload["model"]["k"]:
        raise ValueError(f"grid.k {g['k']}, model.k {payload['model']['k']!r}")
    raw = base64.b64decode(payload["coeffs"], validate=True)
    coeffs = np.frombuffer(raw, "<c16")
    shape = (grid.N_s, grid.N_t, grid.dim)
    if coeffs.size != math.prod(shape):
        raise ValueError(f"coeffs holds {coeffs.size} complex numbers, grid {shape}")
    off = np.abs(np.linalg.norm(coeffs.reshape(-1, grid.dim), axis=-1) - 1.0).max()
    if not off <= UNIT_TOL:
        raise ValueError(f"a node's norm is off 1 by {off:.3e}")
    return FloerState(grid, coeffs.reshape(shape).copy()), payload["model"]


def points_json(result: ContinuationResult, n: int) -> str:
    """fixed_point_n<n>.json: the path of the continuation of mode n, entry
    by entry."""
    entries = [
        {"eps": e.eps, "phase": e.phase, "residual": e.residual,
         "iterations": e.iterations, "gauge_index": gauge_mode(e.point),
         "coeffs": [[float(z.real), float(z.imag)] for z in e.point]}
        for e in result.entries
    ]
    payload = {"n": n, "k": bandwidth(result.final.point),
               "converged": result.converged, "message": result.message,
               "entries": entries}
    return json.dumps(payload, indent=1) + "\n"


def read_points(text: str) -> ContinuationResult:
    """The path a fixed_point_n<n>.json stores.  n must be a mode of the
    file's bandwidth k, and each entry hold 2k+1 finite coefficients that
    are what gauge_fix returns: norm 1 to within UNIT_TOL, the gauge_mode
    coefficient real positive, and gauge_index that mode as an int."""
    d = json.loads(text)
    k = d["k"]
    if type(d["n"]) is not int or not abs(d["n"]) <= k:
        raise ValueError(f"n {d['n']!r} is no mode of bandwidth {k!r}")
    entries = []
    for j, e in enumerate(d["entries"]):
        point = np.array([complex(re, im) for re, im in e["coeffs"]], np.complex128)
        if point.shape != (2 * k + 1,):
            raise ValueError(f"entries[{j}]: {point.size} coefficients at k {k}")
        if not np.all(np.isfinite(point)):
            raise ValueError(f"entries[{j}]: a coefficient is not finite")
        stored, mode = e["gauge_index"], gauge_mode(point)
        if type(stored) is not int or stored != mode:
            raise ValueError(f"entries[{j}]: gauge_index {stored!r}, gauge mode {mode}")
        gauge = complex(point[mode + k])
        if not (gauge.imag == 0.0 and gauge.real > 0.0):
            raise ValueError(f"entries[{j}]: gauge coefficient {gauge!r} is not > 0")
        norm = float(np.linalg.norm(point))
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise ValueError(f"entries[{j}]: norm {norm!r}, not 1")
        entries.append(
            PathEntry(e["eps"], point, e["phase"], e["residual"], e["iterations"]))
    return ContinuationResult(entries, d["converged"], d.get("message", ""))


def decay_csv(prof, alpha: int) -> str:
    """A DecayProfile's rows at derivative order alpha: ell, alpha, norm, then
    norm*ell^delta per delta."""
    header = ["ell", "alpha", "norm"] + [
        f"norm_times_ell_{d:g}".replace(".", "_") for d in DELTA_SET]
    return _csv(header, [
        [str(int(ell)), str(alpha), _fmt(norm), *map(_fmt, weighted)]
        for ell, norm, weighted in zip(prof.ell_values, prof.norms, prof.weighted)])


def distances_csv(rep) -> str:
    """A DistinctnessReport's square distance matrix with i,j indices."""
    header = ["i"] + [f"d{j}" for j in range(len(rep.distances))]
    rows = [[str(i), *map(_fmt, row)] for i, row in enumerate(rep.distances)]
    return _csv(header, rows)


# ---------------------------------------------------------------------------
# pipelines


def _pipe_simulate(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["simulate"]
    model = build_model(cfg["model"])
    u0 = mode_point(p["n0"], model.k)
    is_hartree = model.nonlinearity.diagonal

    times = np.linspace(0.0, p["t_final"], p["samples"] + 1)
    seg_steps = max(1, int(math.ceil(p["steps"] / p["samples"])))
    l2_0 = float(np.linalg.norm(u0))
    u = u0
    rows = []
    max_drift = 0.0
    max_cf_err = 0.0
    omega = mode_squares(model.k) + model.nonlinearity.strength * model.psi_band**2
    for j, t in enumerate(times):
        if j > 0:
            u = evolve(model, u, float(times[j - 1]), float(t), seg_steps)
        l2 = float(np.linalg.norm(u))
        drift = abs(l2 - l2_0)
        max_drift = max(max_drift, drift)
        if is_hartree:
            expect = u0 * np.exp(-1j * omega * t)
            cf_err = float(np.max(np.abs(u - expect)))
            max_cf_err = max(max_cf_err, cf_err)
        else:
            cf_err = float("nan")
        rows.append([_fmt(t), _fmt(l2), _fmt(drift), _fmt(cf_err)])
    out.write(
        "simulate.csv",
        _csv(["time", "l2_norm", "l2_drift", "closed_form_error"], rows),
    )
    kind = cfg["model"]["kind"]
    summary = {
        "kind": f"time_modulated({kind})" if cfg["model"]["modulated"] else kind,
        "n0": p["n0"],
        "steps": seg_steps * p["samples"],
        "max_drift": max_drift,
        "max_closed_form_error": max_cf_err if is_hartree else None,
    }
    out.write("simulate_summary.json", _json_text(summary))
    print(f"simulate: kind={summary['kind']} max drift {max_drift:.3e}")
    if is_hartree:
        print(f"simulate: closed-form error {max_cf_err:.3e}")


def _continue_timed(model: ModelSpec, n: int, tol: float, steps: int):
    """One mode's continuation and its wall seconds.  Module level, so a worker
    unpickles it by reference and looks up continue_fixed_point here."""
    t0 = time.perf_counter()
    result = continue_fixed_point(model, n, tol=tol, steps=steps)
    return result, time.perf_counter() - t0


def _counts(result, seconds: float) -> str:
    """The work counts of one continuation, as both pipelines print them."""
    return (
        f"attempts {result.attempts} ({result.corrector_iterations} iterations) "
        f"flows {result.flows} rows {result.flow_rows} "
        f"backtracks {result.backtracks} wall_s {seconds:.3f}"
    )


def _pipe_fixed_points(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["fixed_points"]
    model = build_model(cfg["model"])
    modes = p["modes"]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # Forked workers inherit the loaded modules; spawned ones would
    # re-import scipy (about 0.4 s each) and erase the gain.  The CLI
    # starts no thread before the pool forks.
    fork = "fork" in multiprocessing.get_all_start_methods()
    workers = min(len(modes), cpus) if fork else 1
    print(f"fixed-points: {len(modes)} modes on {workers} worker processes")
    points = []
    summaries = []
    with (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
          if workers > 1 else contextlib.nullcontext()) as pool:
        results = (pool.map if pool else map)(
            _continue_timed, itertools.repeat(model), modes,
            itertools.repeat(p["tol"]), itertools.repeat(p["steps"]))
        for n, (result, seconds) in zip(modes, results):
            entry = result.final
            out.write(f"fixed_point_n{n}.json", points_json(result, n))
            summaries.append(
                {
                    "n": n,
                    "converged": result.converged,
                    "residual": entry.residual,
                    "iterations": entry.iterations,
                    "eps": entry.eps,
                }
            )
            print(
                f"fixed-points: n={n} residual {entry.residual:.3e} "
                f"iterations {entry.iterations} converged={result.converged} "
                f"{_counts(result, seconds)}"
            )
            if not result.converged:
                out.write("fixed_points_summary.json", _json_text(summaries))
                raise NumericError(f"continuation for n={n} stalled: {result.message}")
            points.append(entry.point)

    rep = None
    if len(points) >= 2:
        rep = distinctness_report(points)
        out.write("distances.csv", distances_csv(rep))
        print(f"fixed-points: min pairwise distance {rep.min_offdiag:.4f}")
    summary = {
        "modes": summaries,
        "min_distance": rep.min_offdiag if rep else None,
        "flagged_pairs": [list(pair) for pair in rep.flagged] if rep else [],
    }
    out.write("fixed_points_summary.json", _json_text(summary))


def _pipe_floer(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["floer"]
    model = build_model(cfg["model"])
    grid = CylinderGrid(S=p["S"], N_s=p["N_s"], N_t=p["N_t"], k=model.k, T=p["T"])

    n = p["n_right"]
    cont, seconds = _continue_timed(model, n, 1e-10, p["continuation_steps"])
    print(
        f"floer: right end n={n} strength steps {len(cont.entries) - 1} "
        f"{_counts(cont, seconds)}"
    )
    if not cont.converged:
        raise NumericError(f"continuation for n={n} stalled: {cont.message}")
    left_point = mode_point(p["n_left"], model.k)
    right_point = cont.final.point
    left = boundary_orbit(left_point, grid.N_t, side="left")
    right = boundary_orbit(right_point, grid.N_t, side="right")

    result = solve_floer(
        model, grid, (left, right), tol=p["tol"], max_iter=p["max_iter"]
    )
    out.write(
        "floer_history.csv",
        _csv(
            ["iteration", "residual_norm", "energy", "damping"],
            [
                [str(h["iteration"]), _fmt(h["residual_norm"]), _fmt(h["energy"]),
                 _fmt(h["damping"])]
                for h in result.history
            ],
        ),
    )
    out.write("floer_state.json", state_json(result.state, cfg["model"]))

    endpoint = fs_distance(result.state.coeffs[-1, 0], right_point)
    slices = [
        [str(r.gamma), r.side, _fmt(r.s), _fmt(r.criterion), _fmt(r.distance),
         str(r.count)]
        for r in extract_slices(result.equation, p["gamma_max"])
    ]
    out.write(
        "floer_slices.csv",
        _csv(["gamma", "side", "s", "criterion", "distance", "count"], slices),
    )

    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "energy": result.energy,
        "endpoint_distance": float(endpoint),
        "message": result.message,
    }
    out.write("floer_summary.json", _json_text(summary))
    print(
        f"floer: converged={result.converged} residual {result.residual_norm:.3e} "
        f"energy {result.energy:.6e} iterations {result.iterations}"
    )
    capped = sum(h["lsmr_istop"] == 7 for h in result.history)
    if capped:
        print(f"floer: {capped} Gauss-Newton steps hit the LSMR iteration cap")
    if not result.converged:
        raise NumericError(f"cylinder solve stalled: {result.message}")


def _pipe_divisors(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["divisors"]
    report = divisor_scan(p["m_max"], p["n"])
    columns = (report.ms, report.qs, report.p_stars, report.values, report.is_record)
    rows = "".join(
        f"{m},{q},{p_star},{value:.17e},{record:d},"
        f"{_fmt(math.log10(m)) if m > 0 else 'nan'},"
        f"{_fmt(math.log10(value)) if value > 0 else '-inf'}\n"
        for m, q, p_star, value, record in zip(*(c.tolist() for c in columns))
    )
    header = ["m", "q", "p_star", "value", "is_record", "log10_m", "log10_value"]
    out.write("divisors.csv", _csv(header, []) + rows)

    center, eta = inv_two_pi()
    conv = convergents(center, p["convergent_count"], uncertainty=eta)
    out.write(
        "convergents.csv",
        _csv(
            ["index", "p", "q", "error"],
            [
                [str(e.index), str(e.p), str(e.q), _fmt(e.error)]
                for e in conv
            ],
        ),
    )
    summary = {
        "n": p["n"],
        "m_max": p["m_max"],
        "fitted_c": report.fitted_c,
        "worst_exponent": report.worst_exponent,
        "record_count": len(report.records),
        "convergent_count": len(conv),
    }
    out.write("divisors_summary.json", _json_text(summary))
    print(
        f"divisors: scanned m<={p['m_max']} records {len(report.records)} "
        f"fitted_c {report.fitted_c:.6e} worst exponent {report.worst_exponent:.3f}"
    )


def _pipe_hofer(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["hofer"]
    model = build_model(cfg["model"])
    report = hofer_norm(model, p["starts"], cfg["seed"])
    summary = {
        "estimate": report.estimate,
        "max_value": report.max_value,
        "min_value": report.min_value,
        "sufficient_gate": model.smallness_gate(),
        "sup_f_bound": model.sup_f_bound(),
        "all_converged": report.all_converged,
    }
    out.write("hofer_summary.json", _json_text(summary))
    print(f"hofer: estimate {report.estimate:g} gate {summary['sufficient_gate']}")
    if not report.all_converged:
        raise NumericError("hofer extremization of F_0 failed to converge")


def _pipe_galerkin(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["galerkin"]
    model = build_model(cfg["model"])
    rows = []
    grad_gaps = []
    for k in p["k_values"]:
        rep = galerkin_gap(model, k, p["R"], samples=p["samples"], seed=cfg["seed"])
        grad_gaps.append(rep.grad_gap)
        rows.append(
            [str(k), _fmt(p["R"]), str(p["samples"]), str(cfg["seed"]),
             _fmt(rep.f_gap), _fmt(rep.grad_gap), _fmt(rep.conv_bound)]
        )
        print(f"galerkin: k={k} grad gap {rep.grad_gap:.6e}")
    out.write(
        "galerkin.csv",
        _csv(["k", "R", "samples", "seed", "f_gap", "grad_gap", "conv_bound"], rows),
    )
    summary = {"k_values": p["k_values"], "grad_gaps": grad_gaps}
    out.write("galerkin_summary.json", _json_text(summary))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_artifacts(paths: List[str], field: str, parse: Callable) -> list:
    """Parse every stored artifact; a malformed one is a config error naming it."""
    loaded = []
    for i, path in enumerate(paths):
        text = _read_text(path)
        try:
            loaded.append(parse(text))
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"diagnose.{field}[{i}]: malformed artifact {path}: {exc!r}"
            ) from exc
    return loaded


def _first_difference(stored, own, path: str):
    """(field path, stored value, own value) of the first differing field, else None."""
    if not isinstance(own, dict):
        same = type(stored) is type(own) and stored == own
        return None if same else (path, stored, own)
    if not isinstance(stored, dict):
        return path, stored, own
    for key in [*own, *(key for key in stored if key not in own)]:
        found = _first_difference(stored.get(key), own.get(key), f"{path}.{key}")
        if found:
            return found
    return None


def _pipe_diagnose(cfg: dict, out: ArtifactWriter) -> None:
    p = cfg["diagnose"]
    model = build_model(cfg["model"])
    ells = range(p["ell_min"], (p["ell_max"] or model.k) + 1)
    monitors = []

    loaded = _load_artifacts(p["states"], "states", read_state)
    points = _load_artifacts(
        p["points"], "points", lambda text: read_points(text).final.point)
    for i, point in enumerate(points):  # a state's k is its model section's
        if bandwidth(point) != model.k:
            raise ConfigError(f"diagnose.points[{i}]: point bandwidth "
                              f"{bandwidth(point)} does not match model.k = {model.k}")
    for i, (_, section) in enumerate(loaded):
        found = _first_difference(section, cfg["model"], "model")
        if found:
            field, stored, own = found
            raise ConfigError(
                f"diagnose.states[{i}]: state solved under {field} = "
                f"{json.dumps(stored)}, not {json.dumps(own)}"
            )
    for i, (path, (state, _)) in enumerate(zip(p["states"], loaded)):
        for alpha in p["deriv_orders"]:
            prof = normal_profile(state, ells, deriv_order=alpha)
            out.write(f"state{i}_decay_alpha{alpha}.csv", decay_csv(prof, alpha))
        rep = gradient_monitor(state, model)
        monitors.append(
            {
                "source": path,
                "sup_ds": rep["sup_ds"],
                "sup_dt": rep["sup_dt"],
                "energy": integrate_density(state, rep["energy_density_map"]),
            }
        )

    for i, point in enumerate(points):
        for alpha in p["deriv_orders"]:
            prof = normal_profile(point, ells, deriv_order=alpha)
            out.write(f"point{i}_decay_alpha{alpha}.csv", decay_csv(prof, alpha))

    if monitors:
        out.write("monitors.json", _json_text(monitors))
    flagged = []
    if len(points) >= 2:
        rep = distinctness_report(points, threshold=p["threshold"])
        out.write("distances.csv", distances_csv(rep))
        flagged = [list(pair) for pair in rep.flagged]
    summary = {
        "states": len(p["states"]),
        "points": len(p["points"]),
        "monitors": monitors,
        "flagged_pairs": flagged,
    }
    out.write("diagnose_summary.json", _json_text(summary))
    print(
        f"diagnose: states={len(p['states'])} points={len(p['points'])} "
        f"artifacts={len(out.entries)}"
    )


PIPELINE_FUNCS: Dict[str, Callable[[dict, ArtifactWriter], None]] = {
    "simulate": _pipe_simulate,
    "fixed-points": _pipe_fixed_points,
    "floer": _pipe_floer,
    "divisors": _pipe_divisors,
    "hofer": _pipe_hofer,
    "galerkin": _pipe_galerkin,
    "diagnose": _pipe_diagnose,
}
PIPELINES = tuple(PIPELINE_FUNCS)


# ---------------------------------------------------------------------------
# manifest and entry point


def _write_manifest(
    out_dir: str,
    resolved: dict,
    writer: ArtifactWriter,
    status: str,
    exit_code: int,
    message: str,
):
    manifest = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "pipeline": resolved["pipeline"],
        "seed": resolved["seed"],
        "config": resolved,
        "status": status,
        "exit_code": exit_code,
        "message": message,
        "artifacts": writer.entries,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        _json_text(manifest).encode("utf-8"),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nls-floer",
        description="Configured pipelines for the spectral cylinder toolkit.",
    )
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in PIPELINES:
        sp = sub.add_parser(name, help=f"run the {name} pipeline")
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument(
            "--out", default="nls-floer-out", help="output directory for artifacts"
        )
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw_text = _read_text(args.config)
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        raw = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        resolved = resolve_config(raw, args.pipeline, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if raw == {}:
        # An empty config is a validation dry run: report the defaults
        # the pipeline would use and stop before any computation.
        print(_json_text(resolved), end="")
        print("validation ok; empty config requests no computation")
        return EXIT_OK

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO

    writer = ArtifactWriter(args.out)
    status, code, message = "success", EXIT_OK, ""
    try:
        PIPELINE_FUNCS[args.pipeline](resolved, writer)
    except ConfigError as exc:
        status, code, message = "config-error", EXIT_CONFIG, str(exc)
        print(f"config error: {exc}", file=sys.stderr)
    except (NumericError, ValueError, ArithmeticError) as exc:
        status, code, message = "numeric-failure", EXIT_NUMERIC, str(exc)
        print(f"numeric failure: {exc}", file=sys.stderr)
    except MemoryError as exc:
        status, code, message = "numeric-failure", EXIT_NUMERIC, f"out of memory: {exc}"
        print(f"numeric failure: {message}", file=sys.stderr)
    except OSError as exc:
        status, code, message = "io-error", EXIT_IO, str(exc)
        print(f"i/o error: {exc}", file=sys.stderr)

    try:
        _write_manifest(args.out, resolved, writer, status, code, message)
    except OSError as exc:
        print(f"cannot write manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    if code == EXIT_OK:
        print(f"wrote {len(writer.entries)} artifacts to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
