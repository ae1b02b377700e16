"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from outside the program: `wrap` replaces a public
function of a semiflux module, in every semiflux module that bound it, with a
wrapper that opens a span around the call.  A span is [name, start, end,
parent index]; self time is its duration minus the durations of its direct
children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TOL_S = 1e-9


class Tracer:
    def __init__(self, package: str = "semiflux"):
        self.package = package
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, start: float, end: float):
        if self._stack.pop() != idx:
            raise RuntimeError("span closed out of order")
        rec = self.spans[idx]
        rec[1], rec[2] = start, end

    def wrap(self, module_name: str, func_name: str, span_name: str,
             after=None) -> bool:
        """Trace calls of module_name.func_name as span_name.

        `after(tracer, args, result)` runs once the span has closed.  A
        target that no longer exists is listed in `absent` instead of
        failing the run.
        """
        module = sys.modules.get(module_name)
        target = getattr(module, func_name, None)
        if not callable(target):
            self.absent.append(f"{module_name}.{func_name}")
            return False
        tracer = self
        clock = time.perf_counter

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            idx = tracer.open(span_name)
            t0 = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.close(idx, t0, clock())
            if after is not None:
                after(tracer, args, result)
            return result

        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, attr, wrapper)
        return True


def summarize(spans) -> dict:
    """Per span name: inclusive time (outermost spans of that name only),
    self time and call count; plus the self-time total under each root."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict = {}
    root_self = [0.0] * n
    min_self = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_t = dur - child_time[i]
        min_self = min(min_self, self_t)
        entry = by_name.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
        entry["self"] += self_t
        entry["calls"] += 1
        root, nested = i, False
        while spans[root][3] >= 0:
            root = spans[root][3]
            nested = nested or spans[root][0] == name
        if not nested:
            entry["incl"] += dur
        root_self[root] += self_t
    roots = [{"name": spans[i][0], "wall": spans[i][2] - spans[i][1],
              "self_sum": root_self[i]} for i in range(n) if spans[i][3] < 0]
    return {"by_name": by_name, "roots": roots, "min_self": min_self}


def incl_under(spans, name: str, ancestor: str) -> float:
    """Total duration of `name` spans that have an `ancestor` span above."""
    total = 0.0
    for rec in spans:
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            total += rec[2] - rec[1]
    return total


def self_time_errors(summary: dict) -> list:
    """Self times must be >= 0 and sum to no more than each root's wall."""
    errors = []
    if summary["min_self"] < -TOL_S:
        errors.append(f"negative self time {summary['min_self']!r}")
    for root in summary["roots"]:
        if root["self_sum"] > root["wall"] + TOL_S:
            errors.append(f"self times under {root['name']} sum to "
                          f"{root['self_sum']!r} > wall {root['wall']!r}")
    return errors
