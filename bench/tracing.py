"""Spans around the calls into each layer, for the traced run.

The tracer replaces module attributes with timing wrappers.  The program
looks these names up at call time (``cli`` calls ``optimize.class_report``,
``class_report`` calls its module's ``local_value``, and so on), so the
wrappers see every call without a change to the program.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _csv_counts(bound) -> dict:
    path = bound.arguments["path"]
    with open(path, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    return {"rows": rows, "bytes": os.path.getsize(path)}


# (module, attribute, counts computed from the call's bound arguments)
LAYERS = (
    ("cli", "parse_game_spec", None),
    ("cli", "parse_behaviour_spec", None),
    ("optimize", "class_report", lambda b: {"calls": 1}),
    ("optimize", "local_value",
     lambda b: {"strategies": 2 ** (b.arguments["game"].nu - 1)}),
    ("engine", "class_ceilings", None),
    ("engine", "simulate_rounds", lambda b: {"rounds": b.arguments["n"]}),
    ("channel", "rounds_to_csv", _csv_counts),
    ("dynamics", "scaling_fit", None),
    ("dynamics", "estimate_sigma",
     lambda b: {"updates": b.arguments["reps"] * b.arguments["sched"].steps}),
    ("dynamics", "fit_loglog_slope", None),
)


class Tracer:
    """Records spans while installed; ``job`` tags the spans of one job."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._originals = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name, count):
        sig = inspect.signature(func)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(idx)
                if count is not None:
                    self.spans[idx].counts = count(sig.bind(*args, **kwargs))
        return wrapper

    def install(self):
        for mod_name, attr, count in LAYERS:
            module = getattr(self.package, mod_name)
            func = getattr(module, attr)
            self._originals.append((module, attr, func))
            setattr(module, attr, self._wrap(func, f"{mod_name}.{attr}", count))

    def uninstall(self):
        for module, attr, func in self._originals:
            setattr(module, attr, func)
        self._originals.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "job": s.job,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "counts": s.counts}) + "\n")


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: busy seconds, self seconds and summed counts.

    Busy time counts only the outermost span of a name, so a layer that
    calls itself (a nested behaviour spec) is not counted twice.  Self time
    is a span's duration minus its children's.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, dict] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0})
        t["self_s"] += s.end - s.start - child_time[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t["busy_s"] += s.end - s.start
        for k, v in s.counts.items():
            t[k] = t.get(k, 0) + v
    return totals
