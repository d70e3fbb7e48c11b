"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  ``smalldiv`` is left out: at the CLI
defaults its whole pipeline takes about a millisecond and no open work
targets its speed.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from tracing import Stat, Target, Tracer

DIAGNOSTICS = ("normal_profile", "gradient_monitor", "integrate_density",
               "distinctness_report")


def _evolve_counts(stat: Stat, args, kwargs, result):
    rows = result.shape[0]
    steps = args[4] if len(args) > 4 else kwargs["steps"]
    stat.add("single_row_calls", rows == 1)
    stat.add("row_steps", rows * steps)


def _newton_counts(stat: Stat, args, kwargs, result):
    stat.add("converged", bool(result.converged))


def _lsmr_counts(stat: Stat, args, kwargs, result):
    stat.add("itn", int(result[2]))
    stat.add("at_limit", int(result[1]) == 7)


def _solve_counts(stat: Stat, args, kwargs, result):
    stat.add("iterations", result.iterations)
    # an accepted Gauss-Newton step is the only way the residual drops
    res = [h["residual_norm"] for h in result.history]
    stat.add("accepted", sum(b < a for a, b in zip(res, res[1:])))


TARGETS: List[Target] = [
    Target("spectral.synthesize_many", "nlsfloer.spectral", "synthesize_many",
           record=False, rows_arg=0),
    Target("spectral.analyze_many", "nlsfloer.spectral", "analyze_many",
           record=False, rows_arg=0),
    Target("model.grad_F_many", "nlsfloer.model", "grad_F_many",
           record=False, rows_arg=1),
    Target("model.eval_F_many", "nlsfloer.model", "eval_F_many",
           record=False, rows_arg=1),
    Target("model.hofer_norm", "nlsfloer.model", "hofer_norm"),
    Target("dynamics.evolve_many", "nlsfloer.dynamics", "evolve_many",
           hook=_evolve_counts),
    Target("dynamics.newton_fixed_point", "nlsfloer.dynamics", "newton_fixed_point",
           hook=_newton_counts),
    Target("dynamics.continue_fixed_point", "nlsfloer.dynamics",
           "continue_fixed_point"),
    Target("floer.lsmr", "scipy.sparse.linalg", "lsmr", hook=_lsmr_counts),
    Target("floer.solve_floer", "nlsfloer.floer", "solve_floer", hook=_solve_counts),
    Target("floer.floer_residual", "nlsfloer.floer", "floer_residual"),
    Target("floer.floer_energy", "nlsfloer.floer", "floer_energy"),
    Target("floer.extract_slices", "nlsfloer.floer", "extract_slices"),
] + [Target(f"diagnostics.{fn}", "nlsfloer.diagnostics", fn) for fn in DIAGNOSTICS]

CLI_SPAN = "cli.main"


def package_modules() -> list:
    """Every loaded nlsfloer module: the namespaces the tracer patches."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "nlsfloer" or name.startswith("nlsfloer.")]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, artifact_bytes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as name -> (value, unit).

    A ratio whose base is zero (no LSMR solve on ``continuation``) reads 0.
    """
    m: Dict[str, Tuple[float, str]] = {}
    for fn in ("synthesize_many", "analyze_many"):
        s = tr.stat(f"spectral.{fn}")
        m[f"spectral.{fn}.calls"] = (s.calls, "count")
        m[f"spectral.{fn}.rows"] = (s.rows, "count")
        m[f"spectral.{fn}.self_s"] = (s.self_time, "s")

    s = tr.stat("model.grad_F_many")
    m["model.grad_F_many.calls"] = (s.calls, "count")
    m["model.grad_F_many.rows"] = (s.rows, "count")
    m["model.grad_F_many.self_s"] = (s.self_time, "s")
    s = tr.stat("model.eval_F_many")
    m["model.eval_F_many.calls"] = (s.calls, "count")
    m["model.eval_F_many.self_s"] = (s.self_time, "s")
    m["model.hofer_norm.s"] = (tr.stat("model.hofer_norm").total, "s")

    s = tr.stat("dynamics.evolve_many")
    m["dynamics.evolve_many.calls"] = (s.calls, "count")
    m["dynamics.evolve_many.single_row_calls"] = (
        s.counters.get("single_row_calls", 0), "count")
    m["dynamics.evolve_many.row_steps"] = (s.counters.get("row_steps", 0), "count")
    m["dynamics.evolve_many.self_s"] = (s.self_time, "s")
    s = tr.stat("dynamics.newton_fixed_point")
    m["dynamics.newton_fixed_point.calls"] = (s.calls, "count")
    m["dynamics.newton_fixed_point.converged_frac"] = (
        _frac(s.counters.get("converged", 0), s.calls), "frac")
    m["dynamics.newton_fixed_point.s"] = (s.total, "s")
    m["dynamics.continue_fixed_point.s"] = (
        tr.stat("dynamics.continue_fixed_point").total, "s")

    s = tr.stat("floer.lsmr")
    itn = s.counters.get("itn", 0)
    solve = tr.stat("floer.solve_floer")
    m["floer.lsmr.calls"] = (s.calls, "count")
    m["floer.lsmr.itn"] = (itn, "count")
    m["floer.lsmr.s"] = (s.total, "s")
    m["floer.lsmr.ms_per_itn"] = (_frac(1e3 * s.total, itn), "ms")
    m["floer.lsmr.at_limit"] = (s.counters.get("at_limit", 0), "count")
    m["floer.lsmr.accepted_frac"] = (
        _frac(solve.counters.get("accepted", 0), s.calls), "frac")
    m["floer.solve_floer.s"] = (solve.total, "s")
    m["floer.solve_floer.iterations"] = (solve.counters.get("iterations", 0), "count")
    m["floer.floer_residual.self_s"] = (tr.stat("floer.floer_residual").self_time, "s")
    m["floer.floer_energy.self_s"] = (tr.stat("floer.floer_energy").self_time, "s")
    m["floer.extract_slices.s"] = (tr.stat("floer.extract_slices").total, "s")

    diags = [tr.stat(f"diagnostics.{fn}") for fn in DIAGNOSTICS]
    m["diagnostics.calls"] = (sum(s.calls for s in diags), "count")
    m["diagnostics.self_s"] = (sum(s.self_time for s in diags), "s")

    m["cli.self_s"] = (tr.stat(CLI_SPAN).self_time, "s")
    m["cli.artifact_bytes"] = (artifact_bytes, "B")
    return m
