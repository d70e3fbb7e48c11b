"""Record the reference answers that run.py checks every iteration against.

    python3 perfbench/record_ledger.py --commit <id>

Runs each workload once, untraced and unchecked, and rewrites ledger.json
with the answers it computed and the wall time beside them.  Only re-record
on purpose: the ledger is what makes a change that moves an answer fail.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads

# Only hofer's random starts draw from the seed, and its answer does not
# depend on them; the ledger records the one seed it was run with.
SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the answers come from")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.ROOT / "src"))
    ledger = {"commit": args.commit, "seed": SEED,
              "environment": run.environment(), "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        work = run.ROOT / ".bench_build" / "perfbench" / f"ledger-{name}"
        shutil.rmtree(work, ignore_errors=True)
        steps, cli = workloads.prepare(name, work)
        rec = run.run_iteration(workload, steps, cli, work, SEED, None)
        if rec["misses"]:
            print(f"{name}: {rec['misses']}", file=sys.stderr)
            return 1
        ledger["workloads"][name] = {"wall_s": rec["wall_s"], "cpu_s": rec["cpu_s"],
                                     "answers": rec["answers"]}
        print(f"{name}: wall {rec['wall_s']:.2f} s, cpu {rec['cpu_s']:.2f} s")
    (run.HERE / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
