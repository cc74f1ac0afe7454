"""Outside-in spans around circlaw's module functions.

`Tracer.install` replaces every public function of the layer modules (the
names in each module's `__all__` that the module itself defines) with a
wrapper that records a span: name, start, end, parent span. Callers inside
the package reach these functions through module attributes or module
globals, so replacing the attribute is enough to see each call between
layers; nothing under `src/` is edited. Spans stay in memory until the run
ends and are then written out as one JSON file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable

LAYERS = ("cli", "harness", "diagnostics", "ensemble", "spectral", "measures")

# Spectral calls also record n^3 / 1e9 of their matrix argument, an exact
# work count, so that seconds per unit of n3 give the achieved kernel rate.
N3_LAYERS = ("spectral",)


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index (-1 at the root), n3].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, with_n3: bool) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n3 = 0.0
            if with_n3 and args:
                shape = getattr(args[0], "shape", ())
                if len(shape) == 2:
                    n3 = shape[0] * shape[1] * min(shape) / 1e9
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, n3])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"circlaw.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                setattr(module, attr,
                        self._wrap(f"{layer}.{attr}", fn, layer in N3_LAYERS))


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, call count and summed n3.

    Self time is a span's duration minus the durations of its direct child
    spans, so the self times of all spans add up to the root spans' time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _n3 in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent, n3), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "n3": 0.0})
        entry["self_s"] += (end - start) - inner
        entry["calls"] += 1
        entry["n3"] += n3
    return out
