"""Command line pipelines: config handling, artifacts, determinism."""

import ast
import base64
import hashlib
import json
import math
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
from nlsfloer.cli import (
    build_model,
    decay_csv,
    distances_csv,
    main,
    points_json,
    read_points,
    read_state,
    resolve_config,
    state_json,
)
from nlsfloer.diagnostics import distinctness_report, normal_profile
from nlsfloer.dynamics import continue_fixed_point, fs_distance, gauge_mode, mode_point
from nlsfloer.floer import (
    CylinderGrid,
    FloerState,
    _equation,
    boundary_orbit,
    extract_slices,
)
from nlsfloer.model import Hartree, ModelSpec, exponential_kernel
from nlsfloer.smalldiv import divisor_scan
from nlsfloer.spectral import SpectralField

from reference import reference_divisors_csv


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


# one model config per density kind, and the modulated potential
MODELS = [pytest.param({"kind": kind}, id=kind)
          for kind in ("constant", "hartree", "quadratic", "potential")]
MODELS.append(
    pytest.param({"kind": "potential", "modulated": True}, id="time_modulated"))


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


def test_divisors_takes_no_model_section(tmp_path, capsys):
    # the divisor scan reads no model: a given section is refused, and the
    # dry run and the manifest record none
    body = {"pipeline": "divisors", "model": {"kind": "quadratic", "eps": 7.0},
            "divisors": {"m_max": 20}}
    out = tmp_path / "o"
    rc = main(["divisors", "--config", write_config(tmp_path, body), "--out", str(out)])
    assert rc == 2
    assert "config error: model: unknown field" in capsys.readouterr().err
    assert not out.exists()
    empty = write_config(tmp_path, {}, name="empty.json")
    assert main(["divisors", "--config", empty, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    report = json.loads(captured[: captured.rindex("}") + 1])
    assert set(report) == {"pipeline", "seed", "divisors"}
    del body["model"]
    assert main(["divisors", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 0
    assert "model" not in read_manifest(str(out))["config"]


def test_unknown_field_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"pipeline": "divisors", "divisors": {"mmax": 10}})
    rc = main(["divisors", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "divisors.mmax" in capsys.readouterr().err


def test_config_holds_only_its_own_pipeline_section(tmp_path, capsys):
    # another pipeline's section would be dropped unchecked
    cfg = write_config(tmp_path, {"pipeline": "divisors",
                                  "floer": {"N_s": 3, "bogus": 1}, "hofer": "notadict"})
    rc = main(["divisors", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: floer: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_wrong_type_reports_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"pipeline": "divisors", "divisors": {"m_max": "large"}}
    )
    rc = main(["divisors", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "divisors.m_max" in capsys.readouterr().err


def test_resolved_sections_follow_the_schema_order():
    # floer_state.json stores the resolved model section in this order, so
    # configs that list the same fields in another order store the same bytes
    given = {"kernel": {"rate": 2.0}, "k": 6, "kind": "potential"}
    model = resolve_config({"model": given}, "floer")["model"]
    assert list(model) == list(cli_module.MODEL_DEFAULTS)
    assert list(model["kernel"]) == list(cli_module.MODEL_DEFAULTS["kernel"])


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
        ("floer", {"S": math.nan}, "floer.S"),
        ("divisors", {"m_max": 20_000_000}, "divisors.m_max"),
        ("floer", {"model": {"kernel": {"rate": math.nan}}}, "model.kernel.rate"),
        ("simulate", {"model": {"eps": math.inf}}, "model.eps"),
        ("floer", {"gamma_max": 2}, "floer.gamma_max"),
        # time modulation is the one boolean model.modulated
        ("hofer", {"t_nodes": 4}, "hofer.t_nodes"),
        ("hofer", {"model": {"base": "constant"}}, "model.base"),
        ("hofer", {"model": {"kind": "time_modulated"}}, "model.kind"),
        ("hofer", {"model": {"modulated": 1}}, "model.modulated"),
        # each kernel type reads one of rate and ell; the other is refused
        ("hofer", {"model": {"kernel": {"ell": 3}}}, "model.kernel.ell"),
        ("hofer", {"model": {"kernel": {"type": "band_limited", "rate": 2.0}}},
         "model.kernel.rate"),
        # diagnose reads T from each stored state
        ("diagnose", {"states": ["s.json"], "T": 1.0}, "diagnose.T"),
        # the potential needs a mode besides 0
        ("hofer", {"model": {"k": 0}}, "model.k"),
    ],
)
def test_out_of_range_field_is_named(tmp_path, capsys, pipeline, section, field):
    # a "model" entry in section goes to the model section; divisors has none
    section = dict(section)
    model = {"k": 3, **section.pop("model", {})}
    body = {"pipeline": pipeline, pipeline.replace("-", "_"): section}
    if pipeline != "divisors":
        body["model"] = model
    cfg = write_config(tmp_path, body)
    rc = main([pipeline, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _subscripts(tree, var):
    """The (key, node) of each var["key"] subscript in a tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == var and isinstance(node.slice, ast.Constant)):
            yield node.slice.value, node


def _unread_fields(func, var, defaults, path):
    """Fields of defaults that func never reads from var, the dict they sit in.

    A nested section counts as read when func binds it to a name, as in
    p = cfg["floer"]; its own fields must then be read from that name.
    """
    reads = list(_subscripts(func, var))
    bound = {
        key: node.targets[0].id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        for key, sub in reads if node.value is sub
    }
    read = {key for key, _ in reads}
    unread = []
    for key, value in defaults.items():
        name = f"{path}.{key}" if path else key
        if isinstance(value, dict) and key in bound:
            unread += _unread_fields(func, bound[key], value, name)
        elif isinstance(value, dict) or key not in read:
            unread.append(name)
    return unread


def test_every_config_field_is_read_where_it_takes_effect():
    # each model field is read by build_model, and each pipeline field by
    # its own pipeline function, as a string subscript of the dict that
    # holds it: a field that nothing reads is accepted and then ignored
    source = ast.parse(open(cli_module.__file__, encoding="utf-8").read())
    functions = {node.name: node for node in source.body
                 if isinstance(node, ast.FunctionDef)}
    unread = _unread_fields(
        functions["build_model"], "cfg", cli_module.MODEL_DEFAULTS, "model")
    for section, defaults in cli_module.PIPELINE_DEFAULTS.items():
        unread += _unread_fields(
            functions[f"_pipe_{section}"], "cfg", {section: defaults}, "")
    assert unread == []


def test_band_limited_kernel_reads_ell(tmp_path):
    estimates = []
    for ell in (1, 2):
        cfg = write_config(tmp_path, {
            "pipeline": "hofer", "hofer": {"starts": 2},
            "model": {"k": 3, "kernel": {"type": "band_limited", "ell": ell}},
        })
        out = tmp_path / f"ell{ell}"
        assert main(["hofer", "--config", cfg, "--out", str(out)]) == 0
        estimates.append(json.loads((out / "hofer_summary.json").read_text())["estimate"])
    assert estimates[0] > 0.0 and estimates[1] > 0.0
    assert estimates[0] != estimates[1]


@pytest.mark.parametrize("N_s", [16, 32, 200])
def test_floer_default_slice_windows_hold_solved_nodes(N_s):
    # at S 4, T 1 the gamma = 2 right window [4, 6] holds only the pinned
    # end row s = 4 (rejected above); the default gamma_max 1 passes at
    # the CLI's N_s and at the benchmark's
    floer = resolve_config({"floer": {"N_s": N_s}}, "floer")["floer"]
    assert floer["gamma_max"] == 1


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
            "hofer": {"starts": 2},
        },
    )
    rc = main(["hofer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "estimate 0 " in capsys.readouterr().out
    summary = json.loads((tmp_path / "o" / "hofer_summary.json").read_text())
    assert summary["estimate"] == 0.0


def test_hofer_summary_reports_the_extremes(tmp_path):
    # hartree: F0(u) = -(eps/2) sum psi_n^2 |u_n|^2 on the sphere, so its
    # extremes are -(eps/2) times the smallest and largest psi_n^2
    cfg = write_config(
        tmp_path,
        {
            "pipeline": "hofer",
            "model": {"kind": "hartree", "eps": 0.1, "k": 2, "modulated": True},
            "hofer": {"starts": 2},
        },
    )
    out = tmp_path / "o"
    assert main(["hofer", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "hofer_summary.json").read_text())
    assert summary["max_value"] == pytest.approx(-0.05 * math.exp(-4.0), rel=1e-8)
    assert summary["min_value"] == pytest.approx(-0.05, rel=1e-8)
    assert summary["estimate"] == summary["max_value"] - summary["min_value"]
    assert [a["path"] for a in read_manifest(out)["artifacts"]] == ["hofer_summary.json"]


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


@pytest.mark.parametrize("kind, modulated, name", [
    ("constant", False, "constant"),
    ("hartree", False, "hartree"),
    ("quadratic", False, "quadratic"),
    ("potential", False, "potential"),
    ("constant", True, "time_modulated(constant)"),
    ("hartree", True, "time_modulated(hartree)"),
    ("quadratic", True, "time_modulated(quadratic)"),
    ("potential", True, "time_modulated(potential)"),
])
def test_simulate_summary_names_the_configured_kind(tmp_path, kind, modulated, name):
    body = {"pipeline": "simulate",
            "model": {"kind": kind, "k": 2, "modulated": modulated},
            "simulate": {"steps": 4, "samples": 2}}
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 0
    assert json.loads((out / "simulate_summary.json").read_text())["kind"] == name


@pytest.mark.parametrize("flag, seed", [([], 5), (["--seed", "11"], 11)],
                         ids=["config_seed", "seed_flag"])
def test_galerkin_csv_records_the_configured_run(tmp_path, flag, seed):
    body = {"pipeline": "galerkin", "seed": 5, "model": {"kind": "hartree", "k": 4},
            "galerkin": {"k_values": [3, 1], "R": 0.5, "samples": 3}}
    out = tmp_path / "o"
    assert main(["galerkin", "--config", write_config(tmp_path, body),
                 "--out", str(out), *flag]) == 0
    header, *rows = (out / "galerkin.csv").read_text().strip().split("\n")
    rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [(int(r["k"]), float(r["R"]), int(r["samples"]), int(r["seed"]))
            for r in rows] == [(3, 0.5, 3, seed), (1, 0.5, 3, seed)]
    summary = json.loads((out / "galerkin_summary.json").read_text())
    assert summary["k_values"] == [3, 1]


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


@pytest.mark.parametrize("model_cfg", MODELS)
def test_fixed_points_workers_write_the_in_process_bytes(tmp_path, model_cfg):
    body = {
        "pipeline": "fixed-points",
        "model": {**model_cfg, "k": 2},
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
        assert (out / f"fixed_point_n{n}.json").read_text() == points_json(result)


def test_points_file_holds_the_path_and_no_work_counts(tmp_path):
    # attempts, flows and backtracks vary with the worker schedule and the
    # corrector's retries; the hashed points file leaves them out
    body = {"pipeline": "fixed-points", "model": {"k": 2},
            "fixed_points": {"modes": [0, 1], "steps": 20}}
    out = tmp_path / "o"
    assert main(["fixed-points", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 0
    for n in (0, 1):
        stored = json.loads((out / f"fixed_point_n{n}.json").read_text())
        assert list(stored) == ["n", "k", "converged", "message", "entries"]
        for entry in stored["entries"]:
            assert list(entry) == ["eps", "phase", "residual", "iterations",
                                   "gauge_index", "coeffs"]


def test_continuation_roundtrip_json():
    model = ModelSpec(exponential_kernel(1.0, 4), Hartree(0.1), 4)
    out = continue_fixed_point(model, n=1, steps=100)
    assert out.converged
    back = read_points(points_json(out))
    assert back.n == out.n
    assert back.converged
    assert len(back.entries) == len(out.entries)
    assert np.allclose(back.final.point.coeffs, out.final.point.coeffs)


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


def test_an_allocation_failure_exits_3_with_manifest(tmp_path, monkeypatch, capsys):
    # what numpy raises for an array it cannot allocate; nothing is allocated here
    refusal = ("Unable to allocate 116. TiB for an array with shape "
               "(4000003, 2000001) and data type complex128")

    def refuse(model, n, tol, steps):
        raise MemoryError(refusal)

    monkeypatch.setattr(cli_module, "continue_fixed_point", refuse)
    body = {"pipeline": "fixed-points", "fixed_points": {"modes": [0], "steps": 2}}
    out = tmp_path / "o"
    rc = main(["fixed-points", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 3
    manifest = read_manifest(out)
    assert (manifest["status"], manifest["exit_code"]) == ("numeric-failure", 3)
    assert manifest["message"] == f"out of memory: {refusal}"
    assert manifest["artifacts"] == []
    assert f"numeric failure: out of memory: {refusal}" in capsys.readouterr().err


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
              "gamma_max": 1, "continuation_steps": 30},
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
    C = read_state((out / "floer_state.json").read_text())[0].coeffs

    def farthest(row, orbit):
        return max(map(fs_distance, row, orbit))

    for near, own, other in ((C[-2], C[-1], C[0]), (C[1], C[0], C[-1])):
        assert farthest(near, own) < 0.1
        assert farthest(near, other) > 1.0


@pytest.mark.parametrize("model_cfg", MODELS)
def test_floer_right_end_takes_mode_0_in_one_strength_step(tmp_path, capsys, model_cfg):
    # the right end is continue_fixed_point's endpoint: mode 0 in one
    # strength step, n = 1 along the 11-point path, the same bytes
    for n, steps in ((0, 1), (1, 10)):
        body = {"pipeline": "floer", "model": {**model_cfg, "k": 4},
                "floer": {"N_s": 32, "N_t": 16, "n_right": n,
                          "continuation_steps": 30}}
        out = tmp_path / f"n{n}"
        assert main(["floer", "--config", write_config(tmp_path, body),
                     "--out", str(out)]) == 0
        C = read_state((out / "floer_state.json").read_text())[0].coeffs
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
    state, _ = read_state(state_path.read_text())
    equation = _equation(build_model(resolved["model"]), state)
    return ["gamma,side,s,criterion,distance,count"] + [
        f"{r.gamma},{r.side},{r.s:.17e},{r.criterion:.17e},{r.distance:.17e},{r.count}"
        for r in extract_slices(equation, p["gamma_max"])
    ]


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
            "diagnose": {"states": [str(tmp_path / "missing.json")]},
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
         "diagnose": {field: [str(src_out / name)]}},
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


def test_diagnose_evaluates_a_state_at_its_own_cutoff(tmp_path):
    # the stored grid carries T, so diagnose needs no T of its own: the
    # monitor's energy is the solve's to the last bit at T = 0.5, not the
    # default 1.0
    fl_cfg = write_config(tmp_path, {
        "pipeline": "floer",
        "floer": {"T": 0.5, "S": 4.0, "N_s": 32, "N_t": 16, "tol": 1e-8,
                  "continuation_steps": 30},
    }, name="fl.json")
    fl_out = tmp_path / "fl"
    assert main(["floer", "--config", fl_cfg, "--out", str(fl_out)]) == 0
    stored = json.loads((fl_out / "floer_state.json").read_text())
    assert stored["grid"]["T"] == 0.5
    dg_cfg = write_config(tmp_path, {
        "pipeline": "diagnose",
        "diagnose": {"states": [str(fl_out / "floer_state.json")]},
    }, name="dg.json")
    dg_out = tmp_path / "dg"
    assert main(["diagnose", "--config", dg_cfg, "--out", str(dg_out)]) == 0
    energy = json.loads((fl_out / "floer_summary.json").read_text())["energy"]
    assert json.loads((dg_out / "monitors.json").read_text())[0]["energy"] == energy


def test_diagnose_rejects_a_state_without_T(tmp_path, capsys):
    state = json.loads(state_json(FloerState(
        CylinderGrid(S=2.0, N_s=16, N_t=8, k=3, T=0.0), np.ones((16, 8, 7))
    ), None))
    del state["grid"]["T"]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    cfg = write_config(tmp_path, {
        "pipeline": "diagnose", "model": {"k": 3},
        "diagnose": {"states": [str(path)]},
    })
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "diagnose.states[0]: malformed artifact" in err and "'T'" in err


@pytest.mark.parametrize("field", ["states", "points"])
def test_diagnose_rejects_a_malformed_artifact(tmp_path, capsys, field):
    # a well-formed state next to a malformed point: every file is read
    # before the first state artifact is written
    model = {"kind": "potential", "eps": 0.0, "k": 3}
    state = tmp_path / "state.json"
    state.write_text(hand_built_state(model))
    bad = tmp_path / "bad.json"
    bad.write_text("{}" if field == "states" else '{"entries": [{}]}')
    paths = {"states": [str(state)], "points": []}
    paths[field] = [str(bad)]
    assert_diagnose_refuses(tmp_path, capsys, model, paths, f"diagnose.{field}[0]")


def hand_built_state(model):
    """A k = 3 state file whose section is the resolved model config."""
    grid = CylinderGrid(S=2.0, N_s=16, N_t=8, k=3, T=0.0)
    section = resolve_config({"model": model}, "simulate")["model"]
    return state_json(FloerState(grid, np.ones((16, 8, 7))), section)


def assert_diagnose_refuses(tmp_path, capsys, model, paths, *names):
    """diagnose exits 2 naming each of names, and writes only its manifest."""
    cfg = write_config(tmp_path, {"pipeline": "diagnose", "model": model,
                                  "diagnose": paths}, name="dg.json")
    out = tmp_path / "o"
    rc = main(["diagnose", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    manifest = read_manifest(str(out))
    assert manifest["status"] == "config-error"
    assert manifest["artifacts"] == []
    assert os.listdir(out) == ["manifest.json"]


@pytest.fixture(scope="module")
def n1_path(tmp_path_factory):
    """fixed_point_n1.json at k = 4, whose gauge switches between +1 and -1."""
    tmp = tmp_path_factory.mktemp("n1")
    cfg = write_config(tmp, {"pipeline": "fixed-points", "model": {"k": 4},
                             "fixed_points": {"modes": [1], "steps": 30}})
    assert main(["fixed-points", "--config", cfg, "--out", str(tmp / "o")]) == 0
    return tmp / "o" / "fixed_point_n1.json"


def test_points_file_stores_the_gauge_mode_of_each_entry(n1_path):
    entries = json.loads(n1_path.read_text())["entries"]
    assert {e["gauge_index"] for e in entries} == {1, -1}
    for e in entries:
        coeffs = np.array([complex(re, im) for re, im in e["coeffs"]])
        assert e["gauge_index"] == gauge_mode(coeffs)


@pytest.mark.parametrize("sign, stored", [
    (1, None), (1, "x"), (1, True), (1, 1.0), (1, 7), (1, -1), (-1, 1),
], ids=["null", "string", "bool", "float", "outside_band", "plus_as_minus",
        "minus_as_plus"])
def test_diagnose_refuses_a_point_whose_gauge_is_not_its_gauge_mode(
        tmp_path, capsys, n1_path, sign, stored):
    # true and 1.0 equal a +1 gauge in value, not in type
    payload = json.loads(n1_path.read_text())
    entries = payload["entries"]
    j = max(i for i, e in enumerate(entries) if e["gauge_index"] == sign)
    entries[j]["gauge_index"] = stored
    path = tmp_path / "points.json"
    path.write_text(json.dumps(payload))
    assert_diagnose_refuses(tmp_path, capsys, {"k": 4}, {"points": [str(path)]},
                            "diagnose.points[0]: malformed artifact",
                            f"entries[{j}]: gauge_index")


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside_another"])
def test_diagnose_refuses_a_zero_point(tmp_path, capsys, n1_path, beside):
    payload = json.loads(n1_path.read_text())
    payload["entries"][-1]["coeffs"] = [[0.0, 0.0]] * 9
    path = tmp_path / "points.json"
    path.write_text(json.dumps(payload))
    points = [str(path), str(n1_path)] if beside else [str(path)]
    assert_diagnose_refuses(tmp_path, capsys, {"k": 4}, {"points": points},
                            "diagnose.points[0]: malformed artifact", "zero field")


def _list_coeffs(payload):
    # the former encoding: [re, im] pairs nested per node and mode
    C = read_state(json.dumps(payload))[0].coeffs
    return np.stack([C.real, C.imag], axis=-1).tolist()


def _short_coeffs(payload):
    return base64.b64encode(base64.b64decode(payload["coeffs"])[:-16]).decode()


@pytest.mark.parametrize(
    "encode",
    [_list_coeffs, lambda payload: "not base64!", _short_coeffs],
    ids=["list", "not_base64", "one_short"],
)
def test_diagnose_refuses_a_state_in_another_encoding(tmp_path, capsys, encode):
    model = {"kind": "potential", "eps": 0.0, "k": 3}
    payload = json.loads(hand_built_state(model))
    payload["coeffs"] = encode(payload)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert_diagnose_refuses(tmp_path, capsys, model, {"states": [str(path)]},
                            "diagnose.states[0]: malformed artifact")


@pytest.fixture(scope="module")
def benchmark_state(tmp_path_factory):
    """floer_state.json of the benchmark's k = 4 cylinder (32 x 32)."""
    tmp = tmp_path_factory.mktemp("k4")
    cfg = write_config(tmp, {
        "pipeline": "floer",
        "floer": {"N_s": 32, "N_t": 32, "tol": 1e-6, "continuation_steps": 30},
    })
    assert main(["floer", "--config", cfg, "--out", str(tmp / "o")]) == 0
    return tmp / "o" / "floer_state.json"


def test_floer_state_file_round_trips_exactly(benchmark_state):
    text = benchmark_state.read_text()
    state, model = read_state(text)
    assert state_json(state, model) == text
    # the end rows hold -0.0 imaginary parts, which the file keeps
    imag = state.coeffs.imag
    assert np.any((imag == 0) & np.signbit(imag))
    assert model == resolve_config({}, "floer")["model"]


def test_state_json_round_trip():
    # every bit survives, signed zeros included: array_equal ignores them
    grid = CylinderGrid(S=2.0, N_s=16, N_t=8, k=1, T=0.25)
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((16, 8, 3)) + 1j * rng.standard_normal((16, 8, 3))
    arr[0].imag = -0.0
    arr[-1, :, 1] = complex(-0.0, 0.0)
    state = FloerState(grid, arr)
    back, model = read_state(state_json(state, {"k": 1}))
    assert back.grid == grid and back.grid.T == 0.25 and model == {"k": 1}
    assert back.coeffs.tobytes() == state.coeffs.tobytes()
    assert back.coeffs.flags.writeable


@pytest.mark.parametrize("model, field", [
    ({"eps": 0.1}, "model.eps = 0.05, not 0.1"),
    ({"kernel": {"type": "exponential", "rate": 2.0}},
     "model.kernel.rate = 1.0, not 2.0"),
    ({"modulated": True}, "model.modulated = false, not true"),
], ids=["eps", "kernel_rate", "modulated"])
def test_diagnose_refuses_a_state_solved_under_another_model(
        tmp_path, capsys, benchmark_state, model, field):
    assert_diagnose_refuses(tmp_path, capsys, model,
                            {"states": [str(benchmark_state)]},
                            "diagnose.states[0]", field)


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


def test_profile_csv_round_trip():
    rng = np.random.default_rng(3)
    field = SpectralField(5, rng.standard_normal(11) + 1j * rng.standard_normal(11))
    prof = normal_profile(field, range(0, 6), deriv_order=2)
    text = decay_csv(prof, 2)
    lines = text.strip().split("\n")
    assert lines[0].startswith("ell,alpha,norm,norm_times_ell_1")
    assert len(lines) == 1 + prof.ell_values.size
    cells = lines[2].split(",")
    assert int(cells[0]) == int(prof.ell_values[1])
    assert int(cells[1]) == 2
    assert abs(float(cells[2]) - prof.norms[1]) == 0.0


def test_report_csv():
    rep = distinctness_report([mode_point(0, 3), mode_point(1, 3)])
    lines = distances_csv(rep).strip().split("\n")
    assert lines[0] == "i,d0,d1"
    assert len(lines) == 3
    assert abs(float(lines[1].split(",")[2]) - np.pi / 2.0) < 1e-12
