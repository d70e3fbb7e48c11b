"""Command line pipelines: config handling, artifacts, determinism."""

import hashlib
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy

import nlsfloer.cli as cli_module
import nlsfloer.floer as floer_module
from nlsfloer.cli import build_model, main, resolve_config
from nlsfloer.dynamics import continue_fixed_point, fs_distance
from nlsfloer.floer import (
    CylinderGrid,
    FloerState,
    _equation,
    boundary_orbit,
    build_cutoff,
    extract_slices,
)
from nlsfloer.smalldiv import divisor_scan

from reference import reference_divisors_csv


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# config handling


def test_empty_config_validates_without_computing(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "out"
    rc = main(["divisors", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert not out.exists()
    assert "validation ok" in captured
    report = json.loads(captured[: captured.rindex("}") + 1])
    assert report["pipeline"] == "divisors"
    assert report["divisors"]["m_max"] == 2000
    assert report["model"]["kind"] == "potential"


def test_unknown_field_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"pipeline": "divisors", "divisors": {"mmax": 10}})
    rc = main(["divisors", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "divisors.mmax" in capsys.readouterr().err


def test_wrong_type_reports_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"pipeline": "divisors", "divisors": {"m_max": "large"}}
    )
    rc = main(["divisors", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "divisors.m_max" in capsys.readouterr().err


def test_pipeline_selector_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {"pipeline": "hofer"})
    rc = main(["divisors", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "pipeline" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["divisors", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, capsys):
    rc = main(
        ["divisors", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert rc == 4
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_mode_rejected_before_running(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"pipeline": "simulate", "model": {"k": 2}, "simulate": {"n0": 5}},
    )
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "simulate.n0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pipeline, section, field",
    [
        ("diagnose", {"states": ["s.json"], "ell_max": 10}, "diagnose.ell_max"),
        ("diagnose", {"states": ["s.json"], "ell_max": -1}, "diagnose.ell_max"),
        ("diagnose", {"states": ["s.json"], "ell_min": 3, "ell_max": 2},
         "diagnose.ell_min"),
        ("floer", {"N_t": 4}, "floer.N_t"),
        ("fixed-points", {"modes": [0, 0]}, "fixed_points.modes[1]"),
        ("diagnose", {"states": ["s.json"], "deriv_orders": [1, 1]},
         "diagnose.deriv_orders[1]"),
        ("diagnose", {"states": ["s.json"], "deriv_orders": [1.0]},
         "diagnose.deriv_orders[0]"),
    ],
)
def test_out_of_range_field_is_named(tmp_path, capsys, pipeline, section, field):
    cfg = write_config(
        tmp_path,
        {"pipeline": pipeline, "model": {"k": 3}, pipeline.replace("-", "_"): section},
    )
    rc = main([pipeline, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# divisors pipeline and the manifest


def test_divisors_csv_contains_m5_record(tmp_path):
    cfg = write_config(
        tmp_path, {"pipeline": "divisors", "divisors": {"m_max": 100, "n": 0}}
    )
    out = tmp_path / "out"
    rc = main(["divisors", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rows = (out / "divisors.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header == ["m", "q", "p_star", "value", "is_record", "log10_m",
                      "log10_value"]
    m5 = dict(zip(header, rows[5].split(",")))
    assert m5["m"] == "5"
    assert m5["is_record"] == "1"
    assert abs(float(m5["value"]) - 0.132741) < 1e-6
    conv = (out / "convergents.csv").read_text().strip().split("\n")
    assert conv[0] == "index,p,q,error"
    assert len(conv) > 3


@pytest.mark.parametrize("n", [0, 3])
def test_divisors_csv_follows_the_per_value_rule(tmp_path, n):
    cfg = write_config(
        tmp_path, {"pipeline": "divisors", "divisors": {"m_max": 2000, "n": n}}
    )
    out = tmp_path / "out"
    assert main(["divisors", "--config", cfg, "--out", str(out)]) == 0
    expect = reference_divisors_csv(divisor_scan(2000, n))
    assert (out / "divisors.csv").read_text() == expect


def test_manifest_records_digests_and_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {"pipeline": "divisors", "seed": 7, "divisors": {"m_max": 50, "n": 1}},
    )
    out = tmp_path / "out"
    rc = main(["divisors", "--config", cfg, "--out", str(out)])
    assert rc == 0
    manifest = read_manifest(str(out))
    assert manifest["status"] == "success"
    assert manifest["exit_code"] == 0
    assert manifest["pipeline"] == "divisors"
    assert manifest["seed"] == 7
    assert manifest["config"]["divisors"]["m_max"] == 50
    assert manifest["version"]
    assert manifest["timestamp"]
    names = {e["path"] for e in manifest["artifacts"]}
    assert names == {"divisors.csv", "convergents.csv", "divisors_summary.json"}
    for entry in manifest["artifacts"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    leftovers = [f for f in os.listdir(out) if f.startswith(".tmp-artifact-")]
    assert leftovers == []


def test_manifest_records_environment(tmp_path):
    cfg = write_config(tmp_path, {"pipeline": "divisors", "divisors": {"m_max": 20}})
    out = tmp_path / "out"
    assert main(["divisors", "--config", cfg, "--out", str(out)]) == 0
    assert read_manifest(str(out))["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def test_cli_import_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, nlsfloer.cli; print('scipy.signal' in sys.modules, "
        "any(m.split('.')[0] == 'mpmath' for m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert proc.stdout.strip() == "False False"


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"pipeline": "divisors", "seed": 3,
                                  "divisors": {"m_max": 20}})
    out = tmp_path / "out"
    rc = main(["divisors", "--config", cfg, "--out", str(out), "--seed", "11"])
    assert rc == 0
    assert read_manifest(str(out))["seed"] == 11


def test_identical_config_and_seed_reproduce_bytes(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "galerkin",
            "seed": 5,
            "model": {"kind": "hartree", "eps": 0.1, "k": 6},
            "galerkin": {"k_values": [2, 3], "samples": 4},
        },
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["galerkin", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for artifact in ("galerkin.csv", "galerkin_summary.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_different_seed_changes_sampled_gaps(tmp_path):
    body = {
        "pipeline": "galerkin",
        "model": {"kind": "hartree", "eps": 0.1, "k": 6},
        "galerkin": {"k_values": [2], "samples": 4},
    }
    cfg = write_config(tmp_path, body)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["galerkin", "--config", cfg, "--out", str(a), "--seed", "0"]) == 0
    assert main(["galerkin", "--config", cfg, "--out", str(b), "--seed", "1"]) == 0
    assert (a / "galerkin.csv").read_text() != (b / "galerkin.csv").read_text()


# ---------------------------------------------------------------------------
# the remaining pipelines


def test_hofer_constant_prints_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "hofer",
            "model": {"kind": "constant", "eps": 0.3, "k": 2},
            "hofer": {"t_nodes": 4, "starts": 2},
        },
    )
    rc = main(["hofer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "estimate 0 " in capsys.readouterr().out
    summary = json.loads((tmp_path / "o" / "hofer_summary.json").read_text())
    assert summary["estimate"] == 0.0


def test_hofer_runs_the_configured_t_nodes(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "hofer",
            "model": {"kind": "hartree", "eps": 0.1, "k": 2},
            "hofer": {"t_nodes": 2, "starts": 2},
        },
    )
    assert main(["hofer", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "hofer_nodes.csv").read_text().splitlines()
    assert len(lines) == 1 + 2


def test_simulate_hartree_matches_closed_form(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "simulate",
            "model": {"kind": "hartree", "eps": 0.1, "k": 3},
            "simulate": {"n0": 1, "steps": 200, "samples": 4},
        },
    )
    out = tmp_path / "o"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["max_closed_form_error"] < 1e-12
    assert summary["max_drift"] < 1e-12
    rows = (out / "simulate.csv").read_text().strip().split("\n")
    assert rows[0] == "time,l2_norm,l2_drift,closed_form_error"
    assert len(rows) == 1 + 5


def test_simulate_summary_reports_the_steps_taken(tmp_path):
    # 10 steps over 4 samples round up to 3 steps per sample
    cfg = write_config(
        tmp_path,
        {"pipeline": "simulate", "model": {"k": 2},
         "simulate": {"steps": 10, "samples": 4}},
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["steps"] == 12


def test_fixed_points_pipeline_emits_points_and_distances(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "fixed-points",
            "model": {"kind": "potential", "eps": 0.05, "k": 3},
            "fixed_points": {"modes": [0, 1], "steps": 200},
        },
    )
    out = tmp_path / "o"
    rc = main(["fixed-points", "--config", cfg, "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "fixed_points_summary.json").read_text())
    assert all(m["converged"] for m in summary["modes"])
    assert summary["min_distance"] > 0.5
    assert summary["flagged_pairs"] == []
    assert (out / "fixed_point_n0.json").exists()
    assert (out / "fixed_point_n1.json").exists()
    assert (out / "distances.csv").exists()
    stdout = capsys.readouterr().out.splitlines()
    lines = [ln for ln in stdout if ln.startswith("fixed-points: n=")]
    assert len(lines) == 2
    assert all(re.search(r" flows \d+ rows \d+ backtracks \d+ wall_s \d+\.\d{3}$", ln)
               for ln in lines)
    workers = min(2, len(os.sched_getaffinity(0)))
    assert stdout[0] == f"fixed-points: 2 modes on {workers} worker processes"


@pytest.mark.parametrize(
    "kind", ["constant", "hartree", "quadratic", "potential", "time_modulated"]
)
def test_fixed_points_workers_write_the_in_process_bytes(tmp_path, kind):
    body = {
        "pipeline": "fixed-points",
        "model": {"kind": kind, "k": 2},
        "fixed_points": {"modes": [0, 1], "steps": 20},
    }
    out = tmp_path / "o"
    assert main(["fixed-points", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 0
    resolved = resolve_config(body, "fixed-points")
    model = build_model(resolved["model"])
    p = resolved["fixed_points"]
    for n in (0, 1):
        result = continue_fixed_point(model, n, tol=p["tol"], steps=p["steps"])
        assert (out / f"fixed_point_n{n}.json").read_text() == result.to_json() + "\n"


def test_fixed_points_stops_at_the_first_stalled_mode(tmp_path, monkeypatch, capsys):
    real = cli_module.continue_fixed_point

    def stall_at_1(model, n, tol, steps):
        result = real(model, n, tol=tol, steps=steps)
        return replace(result, converged=False, message="stub") if n == 1 else result

    # forked workers inherit the stub
    monkeypatch.setattr(cli_module, "continue_fixed_point", stall_at_1)
    body = {
        "pipeline": "fixed-points",
        "model": {"k": 2},
        "fixed_points": {"modes": [0, 1, 2], "steps": 20},
    }
    out = tmp_path / "o"
    rc = main(["fixed-points", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 3
    # the stalled mode's path is written, as in a serial run; no later mode's
    assert (out / "fixed_point_n0.json").exists()
    assert (out / "fixed_point_n1.json").exists()
    assert not (out / "fixed_point_n2.json").exists()
    summary = json.loads((out / "fixed_points_summary.json").read_text())
    assert [m["n"] for m in summary] == [0, 1]
    assert [m["converged"] for m in summary] == [True, False]
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.startswith("fixed-points: n=")]
    assert [ln.split()[1] for ln in lines] == ["n=0", "n=1"]
    assert "continuation for n=1 stalled: stub" in captured.err
    assert multiprocessing.active_children() == []


def test_floer_trivial_solve_takes_zero_iterations(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "floer",
            "model": {"kind": "potential", "eps": 0.0, "k": 3},
            "floer": {"T": 0.0, "S": 2.0, "N_s": 24, "N_t": 8,
                      "n_left": 1, "n_right": 1, "gamma_max": 1},
        },
    )
    out = tmp_path / "o"
    rc = main(["floer", "--config", cfg, "--out", str(out)])
    assert rc == 0
    history = (out / "floer_history.csv").read_text().strip().split("\n")
    assert history[0] == "iteration,residual_norm,energy,damping"
    assert len(history) == 2
    summary = json.loads((out / "floer_summary.json").read_text())
    assert summary["iterations"] == 0
    assert summary["endpoint_distance"] == 0.0
    assert (out / "floer_state.json").exists()
    assert (out / "floer_slices.csv").exists()


FLOER_STALLED = {
    "pipeline": "floer",
    "model": {"kind": "potential", "eps": 0.05, "k": 3},
    "floer": {"T": 1.0, "S": 4.0, "N_s": 24, "N_t": 8,
              "n_left": 0, "n_right": 0, "tol": 1e-12,
              "max_iter": 1, "gamma_max": 1, "continuation_steps": 200},
}
FLOER_CONVERGING = {
    "pipeline": "floer",
    "model": {"kind": "potential", "eps": 0.05, "k": 3},
    "floer": {"T": 1.0, "S": 4.0, "N_s": 24, "N_t": 8, "tol": 1e-8,
              "gamma_max": 2, "continuation_steps": 30},
}


def test_floer_connects_distinct_orbits(tmp_path):
    # mode 0 to the continued n = 1 point at the benchmark's k = 4 size:
    # the row next to each end lies near its own orbit, far from the other
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "floer",
            "floer": {"N_s": 32, "N_t": 32, "tol": 1e-6, "n_right": 1,
                      "continuation_steps": 30},
        },
    )
    out = tmp_path / "o"
    assert main(["floer", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "floer_summary.json").read_text())
    assert summary["converged"]
    assert summary["message"] == "converged"
    assert summary["residual_norm"] < 1e-6
    # the end rows are the boundary orbits, pinned by the solve
    C = FloerState.from_json((out / "floer_state.json").read_text()).coeffs

    def farthest(row, orbit):
        return max(map(fs_distance, row, orbit))

    for near, own, other in ((C[-2], C[-1], C[0]), (C[1], C[0], C[-1])):
        assert farthest(near, own) < 0.1
        assert farthest(near, other) > 1.0


@pytest.mark.parametrize(
    "kind", ["constant", "hartree", "quadratic", "potential", "time_modulated"]
)
def test_floer_right_end_takes_mode_0_in_one_strength_step(tmp_path, capsys, kind):
    # the right end is continue_fixed_point's endpoint: mode 0 in one
    # strength step, n = 1 along the 11-point path, the same bytes
    for n, steps in ((0, 1), (1, 10)):
        body = {"pipeline": "floer", "model": {"kind": kind, "k": 4},
                "floer": {"N_s": 32, "N_t": 16, "n_right": n,
                          "continuation_steps": 30}}
        out = tmp_path / f"n{n}"
        assert main(["floer", "--config", write_config(tmp_path, body),
                     "--out", str(out)]) == 0
        C = FloerState.from_json((out / "floer_state.json").read_text()).coeffs
        model = build_model(resolve_config(body, "floer")["model"])
        end = continue_fixed_point(model, n, steps=30).final.point
        if n == 0:
            assert fs_distance(C[-1, 0], end.coeffs) <= 1e-12
        else:
            assert np.array_equal(C[-1], boundary_orbit(end, 16, side="right"))
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("floer: right end")]
        assert len(lines) == 1
        assert re.fullmatch(
            rf"floer: right end n={n} strength steps {steps} attempts \d+ "
            r"\(\d+ iterations\) flows \d+ rows \d+ backtracks \d+ wall_s \d+\.\d{3}",
            lines[0],
        )


def test_floer_non_convergence_exits_3_with_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, FLOER_STALLED)
    out = tmp_path / "o"
    rc = main(["floer", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err
    manifest = read_manifest(str(out))
    assert manifest["status"] == "numeric-failure"
    assert manifest["exit_code"] == 3
    names = {e["path"] for e in manifest["artifacts"]}
    assert "floer_history.csv" in names
    assert "floer_state.json" in names


def test_floer_pipeline_evaluates_each_state_once(tmp_path, monkeypatch, capsys):
    # the slices read the solve's accepted evaluation: one evaluation for
    # the initial guess and one per trial step, none after the solve
    calls = {"_equation": 0, "lsmr": 0}
    for name in calls:
        inner = getattr(floer_module, name)

        def wrapper(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(floer_module, name, wrapper)
    cfg = write_config(tmp_path, FLOER_CONVERGING)
    assert main(["floer", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls["lsmr"] >= 1
    assert calls["_equation"] == 1 + calls["lsmr"]
    assert "LSMR iteration cap" not in capsys.readouterr().out


def slice_rows_from_scratch(payload, state_path):
    """floer_slices.csv rows recomputed by one fresh evaluation of the state."""
    resolved = resolve_config(payload, "floer")
    p = resolved["floer"]
    state = FloerState.from_json(state_path.read_text())
    equation = _equation(build_model(resolved["model"]), state, build_cutoff(p["T"]))
    rows = ["gamma,side,s,criterion,distance,count"]
    for entry in extract_slices(equation, p["gamma_max"]).entries:
        for side in ("left", "right"):
            cand = getattr(entry, side)
            if cand is None:
                rows.append(f"{entry.gamma},{side},nan,nan,nan,0")
            else:
                count = getattr(entry, f"{side}_count")
                rows.append(
                    f"{entry.gamma},{side},{cand.s:.17e},{cand.criterion:.17e},"
                    f"{cand.distance:.17e},{count}"
                )
    return rows


@pytest.mark.parametrize(
    "payload, code",
    [(FLOER_CONVERGING, 0), (FLOER_STALLED, 3)],
    ids=["converging", "stalled"],
)
def test_floer_slices_match_a_fresh_evaluation(tmp_path, payload, code):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["floer", "--config", cfg, "--out", str(out)]) == code
    written = (out / "floer_slices.csv").read_text().strip().split("\n")
    assert written == slice_rows_from_scratch(payload, out / "floer_state.json")


def test_floer_reports_lsmr_solves_at_the_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(floer_module, "LSMR_ITERS", 1)
    results = []

    def solve(*args, **kwargs):
        results.append(floer_module.solve_floer(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_module, "solve_floer", solve)
    floer = {**FLOER_CONVERGING["floer"], "max_iter": 3}
    cfg = write_config(tmp_path, {**FLOER_CONVERGING, "floer": floer})
    out = tmp_path / "o"
    main(["floer", "--config", cfg, "--out", str(out)])
    capped = sum(h["lsmr_istop"] == 7 for h in results[0].history)
    assert capped >= 1
    line = f"floer: {capped} Gauss-Newton steps hit the LSMR iteration cap"
    assert line in capsys.readouterr().out.splitlines()
    # printed only: the hashed artifacts do not carry it
    for entry in read_manifest(str(out))["artifacts"]:
        assert "LSMR iteration cap" not in (out / entry["path"]).read_text()


def test_diagnose_missing_state_exits_4_with_manifest(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "diagnose",
            "model": {"kind": "potential", "eps": 0.0, "k": 3},
            "diagnose": {"states": [str(tmp_path / "missing.json")], "T": 0.0},
        },
    )
    out = tmp_path / "o"
    rc = main(["diagnose", "--config", cfg, "--out", str(out)])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err
    assert read_manifest(str(out))["status"] == "io-error"


# the pipeline, its section and the artifact that stores a state or a point
ARTIFACTS = {
    "states": ("floer", {"T": 0.0, "S": 2.0, "N_s": 24, "N_t": 8, "gamma_max": 1},
               "floer_state.json"),
    "points": ("fixed-points", {"modes": [0], "steps": 10}, "fixed_point_n0.json"),
}


@pytest.mark.parametrize("field", ["states", "points"])
def test_diagnose_rejects_a_state_at_another_bandwidth(tmp_path, capsys, field):
    pipeline, section, name = ARTIFACTS[field]
    src_cfg = write_config(
        tmp_path,
        {"pipeline": pipeline, "model": {"kind": "potential", "eps": 0.0, "k": 3},
         pipeline.replace("-", "_"): section},
        name="src.json",
    )
    src_out = tmp_path / "src"
    assert main([pipeline, "--config", src_cfg, "--out", str(src_out)]) == 0
    capsys.readouterr()

    dg_cfg = write_config(
        tmp_path,
        {"pipeline": "diagnose", "model": {"kind": "potential", "eps": 0.0, "k": 4},
         "diagnose": {field: [str(src_out / name)], "T": 0.0}},
        name="dg.json",
    )
    dg_out = tmp_path / "dg"
    rc = main(["diagnose", "--config", dg_cfg, "--out", str(dg_out)])
    assert rc == 2
    assert f"diagnose.{field}[0]" in capsys.readouterr().err
    manifest = read_manifest(str(dg_out))
    assert manifest["status"] == "config-error"
    assert manifest["artifacts"] == []
    assert os.listdir(dg_out) == ["manifest.json"]


@pytest.mark.parametrize("field", ["states", "points"])
def test_diagnose_rejects_a_malformed_artifact(tmp_path, capsys, field):
    # a well-formed state next to a malformed point: every file is read
    # before the first state artifact is written
    state = tmp_path / "state.json"
    grid = CylinderGrid(S=2.0, N_s=16, N_t=8, k=3)
    state.write_text(FloerState(grid, np.ones((16, 8, 7))).to_json())
    bad = tmp_path / "bad.json"
    bad.write_text("{}" if field == "states" else '{"entries": [{}]}')
    paths = {"states": [str(state)], "points": []}
    paths[field] = [str(bad)]
    cfg = write_config(
        tmp_path,
        {"pipeline": "diagnose", "model": {"kind": "potential", "eps": 0.0, "k": 3},
         "diagnose": {**paths, "T": 0.0}},
    )
    out = tmp_path / "o"
    rc = main(["diagnose", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert f"diagnose.{field}[0]" in capsys.readouterr().err
    manifest = read_manifest(str(out))
    assert manifest["status"] == "config-error"
    assert manifest["artifacts"] == []
    assert os.listdir(out) == ["manifest.json"]


def test_diagnose_runs_on_stored_artifacts(tmp_path):
    model = {"kind": "potential", "eps": 0.0, "k": 3}
    fp_cfg = write_config(
        tmp_path,
        {"pipeline": "fixed-points", "model": model,
         "fixed_points": {"modes": [0, 1], "steps": 100}},
        name="fp.json",
    )
    fp_out = tmp_path / "fp"
    assert main(["fixed-points", "--config", fp_cfg, "--out", str(fp_out)]) == 0

    fl_cfg = write_config(
        tmp_path,
        {"pipeline": "floer", "model": model,
         "floer": {"T": 0.0, "S": 2.0, "N_s": 24, "N_t": 8,
                   "n_left": 1, "n_right": 1, "gamma_max": 1}},
        name="fl.json",
    )
    fl_out = tmp_path / "fl"
    assert main(["floer", "--config", fl_cfg, "--out", str(fl_out)]) == 0

    dg_cfg = write_config(
        tmp_path,
        {
            "pipeline": "diagnose",
            "model": model,
            "diagnose": {
                "states": [str(fl_out / "floer_state.json")],
                "points": [str(fp_out / "fixed_point_n0.json"),
                           str(fp_out / "fixed_point_n1.json")],
                "T": 0.0,
            },
        },
        name="dg.json",
    )
    dg_out = tmp_path / "dg"
    rc = main(["diagnose", "--config", dg_cfg, "--out", str(dg_out)])
    assert rc == 0
    summary = json.loads((dg_out / "diagnose_summary.json").read_text())
    assert summary["monitors"][0]["sup_ds"] == 0.0
    assert summary["flagged_pairs"] == []
    decay = (dg_out / "state0_decay_alpha0.csv").read_text().strip().split("\n")
    assert decay[0].startswith("ell,alpha,norm")
    assert (dg_out / "distances.csv").exists()
    assert (dg_out / "monitors.json").exists()
