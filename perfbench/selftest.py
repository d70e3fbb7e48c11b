"""Self-tests of the benchmark's own machinery (checker, names, failures, spans).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They run tiny pipelines only and take a few seconds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _scratch(name: str) -> Path:
    path = run.ROOT / ".bench_build" / "perfbench" / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _moved(coeffs: list, angle: float) -> list:
    """The point rotated by exactly `angle` in the Fubini-Study metric."""
    a = workloads._complex(coeffs)
    a = a / np.linalg.norm(a)
    q = np.random.default_rng(0).standard_normal(a.size) + 0j
    q -= np.vdot(a, q) * a
    q /= np.linalg.norm(q)
    b = math.cos(angle) * a + math.sin(angle) * q
    return [[float(z.real), float(z.imag)] for z in b]


def test_checker_rejects_1e_9_and_accepts_1e_12():
    ledger = json.loads((HERE / "ledger.json").read_text(encoding="utf-8"))
    ref = ledger["workloads"]["continuation"]["answers"]["fixed-points"]
    assert workloads.check_points(ref, ref) == []
    for angle, ok in ((1e-9, False), (1e-12, True)):
        got = json.loads(json.dumps(ref))
        got["points"]["1"]["coeffs"] = _moved(ref["points"]["1"]["coeffs"], angle)
        d = workloads.fs_distance(workloads._complex(got["points"]["1"]["coeffs"]),
                                  workloads._complex(ref["points"]["1"]["coeffs"]))
        assert abs(d - angle) < 1e-3 * angle
        assert (workloads.check_points(got, ref) == []) == ok


def test_metric_names_match_the_spec_and_the_run():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in list(e2e) + list(per_layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert e2e == run.END_TO_END_UNITS
    produced = {k: u for k, (_, u) in layers.layer_metrics(Tracer(), 0).items()}
    produced.update({"process.cpu_s": "s", "trace.overhead_s": "s",
                     "process.wall_s": "s", "host.kernel_s": "s"})
    assert per_layer == produced
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_nonzero_exit_counts_as_failure():
    work = _scratch("exit")
    step = workloads.Step("bad", "floer", {"pipeline": "floer", "floer": {"N_s": 4}})
    (work / "bad.json").write_text(json.dumps(step.config), encoding="utf-8")
    from nlsfloer import cli

    fake = workloads.Workload("fake", lambda w: [step], lambda got, ref: {})
    rec = run.run_iteration(fake, [step], cli, work, 0, {"answers": {}})
    assert rec["codes"]["bad"] == 2
    assert rec["failed"] == 1 and "exit code 2" in rec["misses"]["bad"][0]


FAKE_SOURCE = '''
import time
def leaf():
    time.sleep(0.001)
def inner():
    leaf(); leaf()
    time.sleep(0.002)
def outer():
    inner(); inner(); leaf()
    time.sleep(0.002)
'''


def test_span_self_times_are_nonnegative_and_children_fit_in_parents():
    mod = types.ModuleType("fake_layer")
    exec(FAKE_SOURCE, mod.__dict__)
    sys.modules["fake_layer"] = mod
    tr = Tracer()
    try:
        tr.install([Target("fake.leaf", "fake_layer", "leaf", record=False),
                    Target("fake.inner", "fake_layer", "inner"),
                    Target("fake.outer", "fake_layer", "outer")], [mod])
        t0 = time.perf_counter()
        mod.outer()
        elapsed = time.perf_counter() - t0
    finally:
        tr.uninstall()
        del sys.modules["fake_layer"]
    assert [s[0] for s in tr.spans] == ["fake.outer", "fake.inner", "fake.inner"]
    assert all(s >= 0.0 for s in tr.span_self_times())
    for i, (_, start, end, _, _) in enumerate(tr.spans):
        kids = [e - s for _, s, e, parent, _ in tr.spans if parent == i]
        assert sum(kids) <= end - start
    assert all(s.self_time >= 0.0 for s in tr.stats.values())
    total_self = sum(s.self_time for s in tr.stats.values())
    assert abs(total_self - tr.stat("fake.outer").total) < 1e-9
    assert tr.stat("fake.outer").total <= elapsed
    assert tr.stat("fake.leaf").calls == 5


def test_traced_counts_repeat_exactly():
    work = _scratch("repeat")
    steps = [
        workloads.Step("fp", "fixed-points", {
            "pipeline": "fixed-points", "model": {"k": 2},
            "fixed_points": {"modes": [0, 1], "steps": 20}}),
        workloads.Step("cyl", "floer", {
            "pipeline": "floer", "model": {"k": 2},
            "floer": {"N_s": 16, "N_t": 8, "continuation_steps": 20}}),
    ]
    for step in steps:
        (work / f"{step.name}.json").write_text(json.dumps(step.config), encoding="utf-8")
    from nlsfloer import cli

    fake = workloads.Workload("fake", lambda w: steps, lambda got, ref: {})
    counts = []
    for _ in range(2):
        tr = Tracer()
        rec = run.run_iteration(fake, steps, cli, work, 0, None, tr)
        assert rec["failed"] == 0, rec["misses"]
        m = layers.layer_metrics(tr, rec["artifact_bytes"])
        counts.append({k: v for k, (v, unit) in m.items() if unit in ("count", "B")})
    assert counts[0]["floer.lsmr.itn"] > 0
    assert counts[0]["dynamics.newton_fixed_point.calls"] > 0
    assert counts[0] == counts[1]


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
