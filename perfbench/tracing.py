"""In-memory layer tracing for the benchmark, installed from outside the package.

The tracer replaces each traced function with a thin wrapper in every
module namespace that bound it (``evolve_many`` lives in ``dynamics`` but
is looked up there by ``newton_fixed_point``; ``lsmr`` is scipy's but is
bound in ``floer``), and restores the originals on ``uninstall``.

Every wrapped call keeps per-name totals (calls, rows, total and self
time, plus workload counters such as LSMR iterations).  Coarse calls are
also kept as span records ``(name, start, end, parent, run)``; the hot
leaves (the transforms and the density values/gradients, tens of
thousands of calls per iteration) are only aggregated, and their time is charged to
the enclosing span as child time.  Self time is a span's duration minus
the time its children cover.  Nothing is written until ``write_spans``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One traced function: reported name, defining module, attribute.

    rows_arg names the positional argument whose leading dimensions count
    rows of work; hook(stat, args, kwargs, result) adds workload counters.
    """

    name: str
    module: str
    attr: str
    record: bool = True
    rows_arg: Optional[int] = None
    hook: Optional[Callable] = None


class Stat:
    __slots__ = ("calls", "rows", "total", "self_time", "counters")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters: Dict[str, float] = {}

    def add(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    """Aggregates and span records for every wrapped call.

    A frame on the stack is ``[child_seconds, span_index]``; the bottom
    frame stands for "no parent" and has index -1.
    """

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.spans: List[list] = []
        self.run_id = 0
        self._stack: List[list] = [[0.0, -1]]
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, target: Target) -> Callable:
        stat = self.stats.setdefault(target.name, Stat())
        stack, clock, spans = self._stack, time.perf_counter, self.spans
        rows_arg, hook, name = target.rows_arg, target.hook, target.name

        if not target.record:

            def leaf(*args, **kwargs):
                frame = [0.0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    stat.calls += 1
                    stat.total += dur
                    stat.self_time += dur - frame[0]
                    if rows_arg is not None:
                        a = args[rows_arg]
                        stat.rows += a.size // a.shape[-1]

            return leaf

        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            parent = stack[-1][1]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                spans[index] = [name, t0, t1, parent, self.run_id]
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if rows_arg is not None:
                    a = args[rows_arg]
                    stat.rows += a.size // a.shape[-1]
                if hook is not None and result is not None:
                    hook(stat, args, kwargs, result)

        return span

    def install(self, targets: Iterable[Target], modules: Iterable[object]):
        """Wrap each target in every given module that bound the same object."""
        import importlib

        modules = list(modules)
        for target in targets:
            original = getattr(importlib.import_module(target.module), target.attr)
            wrapper = self.wrap(original, target)
            bound = False
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
                        bound = True
            if not bound:
                raise RuntimeError(f"{target.name}: no module binds {target.attr}")

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn as a recorded span, as if it had been wrapped."""
        return self.wrap(fn, Target(name, "", ""))(*args, **kwargs)

    # -- results ------------------------------------------------------------

    def reset(self):
        """Zero every aggregate in place; installed wrappers keep theirs."""
        for stat in self.stats.values():
            stat.__init__()
        self.spans.clear()
        self.run_id = 0

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def span_self_times(self) -> List[float]:
        """Self time of every recorded span, from the records alone.

        Leaf time is not in the records, so this is an upper bound on the
        self time kept in the aggregates; both are never negative.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "run"], "spans": self.spans},
                fh,
            )
