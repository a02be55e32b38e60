"""Outside-in span recorder for the traced run.

The recorder replaces, for the length of a traced pass, every public
function that one ``selfaffine`` module imports from another (and each
module's own public functions) by a wrapper that records a span.  Because
the modules call each other through these names, nested calls get parent
spans: ``cli.main`` -> ``expansion.expand_level``, ``attractor.osc_verdict``
-> ``beurling.upper_density_profile``, and so on.  Nothing in the package
changes; restoring puts the original functions back.

Spans stay in memory as ``[name, start, end, parent, workload, command]``
lists and are written out when the benchmark ends.  For the calls whose
inputs and results the work counters need (``KEEP``), the span also keeps a
reference to the arguments and the return value.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "pairs", "pointset", "expansion", "beurling", "sdensity", "attractor", "cantor")

#: Span names whose arguments and results the counters read.
KEEP = {
    "expansion.expand_level",
    "beurling.upper_density_profile",
    "beurling.lower_density_profile",
    "sdensity.upper_s_density_profile",
    "sdensity.sample_self_similar_measure",
    "attractor.raster_attractor",
    "cantor.translation_dominance_check",
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple] = []  # (span index, args, kwargs, result) for KEEP names
        self.workload = ""
        self.command = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, calls, stack = self.spans, self.calls, self._stack
        perf = time.perf_counter
        keep = name in KEEP

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf(), None, stack[-1] if stack else None,
                          self.workload, self.command])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if keep:
                calls.append((idx, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, where they are looked up."""
        for layer in LAYERS:
            module = importlib.import_module(f"selfaffine.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("selfaffine.")):
                    continue
                name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "workload", "command")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans, first: int = 0) -> dict[str, float]:
    """Self time per span name over spans[first:]: duration minus child coverage.

    Spans come from one thread and nest strictly, so the children of a span
    cover disjoint parts of it and their durations can simply be summed.
    """
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans[first:]:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, *_rest) in enumerate(spans[first:], start=first):
        out[name] += (end - start) - child[i]
    return dict(out)


def root_time(spans, first: int = 0) -> float:
    """Summed duration of the top-level spans in spans[first:]."""
    return sum(end - start for _, start, end, parent, *_ in spans[first:] if parent is None)
