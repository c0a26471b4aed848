"""Span tracer that measures fnspace layers from outside the library.

A traced pass rebinds each layer function at every name an fnspace module
holds for it (for example ``fnspace.harness.least_squares_fit`` and
``fnspace.models.sigma_k``), so calls between modules pass through a
wrapper.  Each wrapper appends one span (name, start, end, parent) to an
in-memory list; nothing is written until the pass ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; count(counts, bound_args, result)
        adds the layer's work counts after the call returns."""
        sig = inspect.signature(fn) if count is not None else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, out)
            return out

        return traced

    def install(self, layers) -> None:
        """layers: iterable of (span name, owner module, attribute, counter).

        Every attribute of a loaded fnspace module that is the original
        function is rebound to the wrapper."""
        mods = [m for key, m in sys.modules.items() if key == "fnspace" or key.startswith("fnspace.")]
        for name, owner, attr, count in layers:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{span name: (total self time in s, span count)}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            busy, calls = out.get(name, (0.0, 0))
            out[name] = (busy + (end - start) - covered, calls + 1)
        return out
