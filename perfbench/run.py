"""Benchmark of the nls-floer pipelines, driven in-process through cli.main.

    python3 perfbench/run.py --workload floer --seed 1 --seconds 50 --trace 0

One caller in one process runs the workload's pipeline calls back to back
(a closed loop), with a one-thread BLAS pool, repeating the whole workload
while the next repetition should end within --seconds (at least once).
Fresh interpreters time the set-up (setup_probe.py) before the first
repetition, after the one that passes half of --seconds, and after the
last.  A fixed reference kernel, timed before and after every pipeline
call, measures the host's speed meanwhile; wall_ref_s and setup_s are
times in reference seconds (README.md, "Steadiness").
Every call's answers are checked against ledger.json.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each iteration runs once untraced and once traced, and the last
line carries the per-layer metrics.  Working files go to
.bench_build/perfbench/ in the checkout.  Exit code 2 means the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

# One BLAS thread, set before numpy loads and inherited by the set-up
# probes.  On a 2-vCPU host the default two-thread pool made the floer steps
# slower and their run-to-run spread wider; README.md gives the figures.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

import layers
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The reference kernel's time on a host of reference speed: one reference
# second is the time in which that host does 1/REF_KERNEL_S kernels.
REF_KERNEL_S = 0.1

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "pass_frac": "frac"}


def read_loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def blas_threads() -> Dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({parts[5] for parts in (line.split() for line in fh)
                           if len(parts) >= 6 and "openblas" in parts[5].lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def reference_kernel() -> float:
    """Wall time of a fixed kernel in the package's mix of work.

    Short FFTs, a small matrix-vector product and interpreted Python, as in
    the transforms, Jacobian blocks and loops of the package, which it does
    not call: a change to the package cannot move it, the host's speed can.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48))
    v = rng.standard_normal(48) + 0j
    t0 = time.perf_counter()
    for _ in range(4000):
        v = np.fft.ifft(np.fft.fft(v) * 0.5)
        v = (a @ v) / np.linalg.norm(v)
        sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0


def measure_setup(workload: str, out: Path) -> float:
    """Wall time of a fresh interpreter doing the set-up, then exiting."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()}")
    return time.perf_counter() - t0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_step(cli, step, work: Path, seed: int, call=None) -> int:
    """One pipeline call; its stdout and stderr go to <step>.log."""
    out = work / step.name
    shutil.rmtree(out, ignore_errors=True)
    argv = [step.pipeline, "--config", str(work / f"{step.name}.json"),
            "--out", str(out), "--seed", str(seed)]
    with open(work / f"{step.name}.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return call(cli.main, argv) if call else cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            return 1


def run_iteration(workload, steps, cli, work: Path, seed: int,
                  ledger: Optional[dict], tracer=None) -> dict:
    """Run every step once; check answers; return times, answers and misses."""
    call = None
    if tracer is not None:
        tracer.reset()
        tracer.install(layers.TARGETS, layers.package_modules())

        def call(fn, argv):
            tracer.run_id += 1
            return tracer.call(layers.CLI_SPAN, fn, argv)

    codes, answers, misses, step_wall = {}, {}, {}, {}
    cpu = 0.0
    kernel = []
    try:
        for step in steps:
            kernel.append(reference_kernel())
            t0, c0 = time.perf_counter(), time.process_time()
            codes[step.name] = run_step(cli, step, work, seed, call)
            step_wall[step.name] = time.perf_counter() - t0
            cpu += time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    kernel.append(reference_kernel())
    for step in steps:
        misses[step.name] = []
        if codes[step.name] != 0:
            misses[step.name].append(f"exit code {codes[step.name]}")
        try:
            answers[step.name] = workloads.read_answers(step, work / step.name)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            misses[step.name].append(f"answers unreadable: {exc!r}")
    # a step without answers has already missed; the checks need them all
    if ledger is not None and len(answers) == len(steps):
        for name, found in workload.check(answers, ledger["answers"]).items():
            misses[name].extend(found)
    return {
        "traced": tracer is not None,
        "wall_s": sum(step_wall.values()),
        "step_wall_s": step_wall,
        "cpu_s": cpu,
        "kernel_s": kernel,
        "codes": codes,
        "answers": answers,
        "misses": {k: v for k, v in misses.items() if v},
        "failed": sum(1 for v in misses.values() if v),
        "artifact_bytes": sum(_tree_bytes(work / s.name) for s in steps
                              if (work / s.name).is_dir()),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed: expected an integer in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds: must be positive")
    return args


def _print_table(rows):
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "nlsfloer" / "cli.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_start = read_loadavg()

    setup: List[float] = []

    def probe():
        setup.append(measure_setup(args.workload, work / f"probe{len(setup)}"))

    try:
        probe()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    ledger = json.loads((HERE / "ledger.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    steps, cli = workloads.prepare(args.workload, work / "run")
    ref = ledger["workloads"][args.workload]
    tracer = Tracer() if args.trace else None

    plain: List[dict] = []
    traced: List[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_iteration(workload, steps, cli, work / "run", args.seed, ref))
        if tracer is not None:
            rec = run_iteration(workload, steps, cli, work / "run", args.seed, ref,
                                tracer)
            rec["layers"] = layers.layer_metrics(tracer, rec["artifact_bytes"])
            tracer.write_spans(str(work / f"spans{len(traced)}.json"))
            traced.append(rec)
        took = time.perf_counter() - t0
        # a set-up in the middle too, so that setup_s samples the whole run
        if len(setup) == 1 and time.perf_counter() - start > args.seconds / 2:
            probe()
        # whole iterations only, while the next one should end in time
        if time.perf_counter() - start + took > args.seconds:
            break
    while len(setup) < 3:
        probe()

    records = plain + traced
    attempted = len(steps) * len(records)
    failed = sum(r["failed"] for r in records)
    # Whole-run means: the timed phase per iteration over the host's mean speed
    # across that same phase.  Medians of the two could fall in different
    # phases of the host's speed; README.md, "Steadiness".
    wall = statistics.mean(r["wall_s"] for r in plain)
    kernel = statistics.mean(k for r in plain for k in r["kernel_s"])
    # the plain times behind wall_ref_s: per-layer metrics, and table rows always
    raw = {"process.wall_s": (wall, "s"), "host.kernel_s": (kernel, "s")}
    if tracer is None:
        metrics = {
            "wall_ref_s": wall / kernel * REF_KERNEL_S,
            "setup_s": statistics.median(setup) / kernel * REF_KERNEL_S,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        # the lower median is one traced iteration's own value, so counts stay whole
        metrics = {name: (statistics.median_low(r["layers"][name][0] for r in traced),
                          unit)
                   for name, (_, unit) in traced[0]["layers"].items()}
        metrics["process.cpu_s"] = (statistics.mean(r["cpu_s"] for r in plain), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "s")
        metrics.update(raw)

    env = environment()
    env["loadavg_start"], env["loadavg_end"] = load_start, read_loadavg()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup,
        "iterations": [{k: r[k] for k in
                        ("traced", "wall_s", "step_wall_s", "cpu_s", "kernel_s", "codes",
                         "misses")}
                       for r in records],
        "answers": plain[0]["answers"],
    }
    (work / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} iteration(s), closed loop, 1 caller")
    print("environment " + json.dumps(env, sort_keys=True))
    for r in records:
        for name, found in r["misses"].items():
            print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    _print_table([(name, value, unit) for name, (value, unit) in
                  {**metrics, **raw}.items()]
                 + [("fail_frac", failed / attempted, f"({failed}/{attempted})")])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
