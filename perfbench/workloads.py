"""The benchmark's workloads: pipeline configs, answer readers and ledger checks.

A workload is a fixed sequence of ``nls-floer`` pipeline calls (steps).
Each step is one operation: it fails on a non-zero exit code or on any
answer that misses its reference in ``ledger.json``.  Sizes are cut down
from the CLI defaults so that one iteration of every workload takes a
few seconds on a 2-core machine; README.md gives the reasons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

# Tolerances from ROADMAP direction 3 and acceptance criteria 9, 11 and 12.
FS_TOL = 1e-10          # continued points and phases, Fubini-Study / radians
ENERGY_RTOL = 1e-8      # cylinder energies, relative
HOFER_RTOL = 1e-6       # oscillation estimate, relative
MIN_DISTANCE = 0.5      # distinct fixed points (criterion 9)
SUP_DS_VARIATION = 0.2  # uniformity of sup |d_s u| across bandwidths (criterion 12)

KS = (6, 12)  # the bandwidth ladder after the k = 4 cylinder
# RK4 time steps per unit time in every time-one flow, for fixed-points'
# `steps` and floer's `continuation_steps` alike (400 at the CLI defaults).
TIME_STEPS = 30


@dataclass(frozen=True)
class Step:
    name: str
    pipeline: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[Path], List[Step]]
    check: Callable[[Dict[str, dict], Dict[str, dict]], Dict[str, List[str]]]


# ---------------------------------------------------------------------------
# answer checks


def fs_distance(a, b) -> float:
    """Fubini-Study angle between two coefficient vectors (chordal form)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    z = np.vdot(b, a)
    if z == 0:
        return math.pi / 2.0
    chord = float(np.linalg.norm(a - (z / abs(z)) * b))
    return 2.0 * math.asin(min(chord / 2.0, 1.0))


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_points(got: dict, ref: dict) -> List[str]:
    """Continued points and phases against the ledger, plus distinctness."""
    misses = []
    for n, want in ref["points"].items():
        have = got["points"].get(n)
        if have is None:
            misses.append(f"n={n}: no point")
            continue
        d = fs_distance(_complex(have["coeffs"]), _complex(want["coeffs"]))
        if not d <= FS_TOL:
            misses.append(f"n={n}: point moved {d:.3e} FS > {FS_TOL:g}")
        dphase = abs(math.remainder(have["phase"] - want["phase"], 2.0 * math.pi))
        if not dphase <= FS_TOL:
            misses.append(f"n={n}: phase moved {dphase:.3e} > {FS_TOL:g}")
    if not got["min_distance"] > MIN_DISTANCE:
        misses.append(f"min pairwise distance {got['min_distance']} <= {MIN_DISTANCE}")
    return misses


def check_energy(got: dict, ref: dict) -> List[str]:
    r = _rel(got["energy"], ref["energy"])
    if not r <= ENERGY_RTOL:
        return [f"energy {got['energy']!r} off by {r:.3e} relative > {ENERGY_RTOL:g}"]
    return []


def _check_continuation(got, ref):
    return {"fixed-points": check_points(got["fixed-points"], ref["fixed-points"])}


def _check_cylinder(got, ref):
    misses = {name: [] for name in ("floer_k4", "hofer")}
    floer, hofer = got["floer_k4"], got["hofer"]
    misses["floer_k4"] += check_energy(floer, ref["floer_k4"])
    d = abs(floer["endpoint_distance"] - ref["floer_k4"]["endpoint_distance"])
    if not d <= FS_TOL:
        misses["floer_k4"].append(f"endpoint distance moved {d:.3e} > {FS_TOL:g}")
    r = _rel(hofer["estimate"], ref["hofer"]["estimate"])
    if not r <= HOFER_RTOL:
        misses["hofer"].append(f"hofer estimate off by {r:.3e} relative")
    if not 0.0 < floer["energy"] <= 2.0 * hofer["estimate"] + 1e-3:
        misses["hofer"].append(f"energy {floer['energy']} breaks criterion 11")
    return misses


def _check_ladder(got, ref):
    misses = {}
    for k in KS:
        misses[f"floer_k{k}"] = check_energy(got[f"floer_k{k}"], ref[f"floer_k{k}"])
        misses[f"diagnose_k{k}"] = []
    sups = [got[f"diagnose_k{k}"]["sup_ds"] for k in KS]
    if not (max(sups) - min(sups)) / min(sups) < SUP_DS_VARIATION:
        misses[f"diagnose_k{KS[-1]}"].append(f"sup_ds varies across k: {sups}")
    return misses


def _check_floer(got, ref):
    return {**_check_cylinder(got, ref), **_check_ladder(got, ref)}


# ---------------------------------------------------------------------------
# answer readers, one per pipeline


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_answers(step: Step, out: Path) -> dict:
    """The numbers a step computed, read back from its artifacts."""
    if step.pipeline == "fixed-points":
        points = {}
        for n in step.config["fixed_points"]["modes"]:
            final = _load(out / f"fixed_point_n{n}.json")["entries"][-1]
            points[str(n)] = {"phase": final["phase"], "coeffs": final["coeffs"]}
        summary = _load(out / "fixed_points_summary.json")
        return {"points": points, "min_distance": summary["min_distance"]}
    if step.pipeline == "floer":
        s = _load(out / "floer_summary.json")
        return {key: s[key] for key in
                ("energy", "endpoint_distance", "residual_norm", "iterations")}
    if step.pipeline == "hofer":
        return {"estimate": _load(out / "hofer_summary.json")["estimate"]}
    if step.pipeline == "diagnose":
        monitor = _load(out / "monitors.json")[0]
        return {key: monitor[key] for key in ("sup_ds", "sup_dt", "energy")}
    raise ValueError(f"no answer reader for {step.pipeline}")


# ---------------------------------------------------------------------------
# workloads


def _continuation_steps(work: Path) -> List[Step]:
    return [
        Step("fixed-points", "fixed-points", {
            "pipeline": "fixed-points",
            "fixed_points": {"modes": [0, 1, 2, 3], "tol": 1e-10,
                             "steps": TIME_STEPS},
        }),
    ]


def _floer_steps(work: Path) -> List[Step]:
    steps = [
        Step("floer_k4", "floer", {
            "pipeline": "floer",
            "floer": {"N_s": 32, "N_t": 32, "tol": 1e-6,
                      "continuation_steps": TIME_STEPS},
        }),
        Step("hofer", "hofer", {"pipeline": "hofer"}),
    ]
    for k in KS:
        steps.append(Step(f"floer_k{k}", "floer", {
            "pipeline": "floer",
            "model": {"k": k},
            "floer": {"N_s": 16, "N_t": 16, "tol": 1e-8,
                      "continuation_steps": TIME_STEPS},
        }))
        state = work / f"floer_k{k}" / "floer_state.json"
        steps.append(Step(f"diagnose_k{k}", "diagnose", {
            "pipeline": "diagnose",
            "model": {"k": k},
            "diagnose": {"states": [str(state)]},
        }))
    return steps


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("continuation", _continuation_steps, _check_continuation),
        Workload("floer", _floer_steps, _check_floer),
    )
}


def prepare(name: str, work: Path):
    """Import every layer and write the workload's configs into work.

    This is the whole of the benchmark's set-up before the first pipeline
    call; setup_probe.py times it in fresh interpreters.  Returns the
    workload's steps and the ``nlsfloer.cli`` module.
    """
    from nlsfloer import cli, diagnostics, dynamics, floer, model, spectral  # noqa: F401

    work.mkdir(parents=True, exist_ok=True)
    steps = WORKLOADS[name].steps(work)
    for step in steps:
        (work / f"{step.name}.json").write_text(
            json.dumps(step.config, indent=1), encoding="utf-8"
        )
    return steps, cli
