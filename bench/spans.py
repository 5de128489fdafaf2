"""In-memory span tracer that wraps module attributes from the outside.

The package under test is not modified. A traced run replaces a name in
the module where the *caller* looks it up (``aime.aime_model.adam_step``,
not only ``aime.neural_net.adam_step``), so calls made through
``from .neural_net import adam_step`` are seen too. Each call records one
span ``(name, start, end, parent)``; spans stay in memory until the run
ends and are then written out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested call spans and work counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span named ``name``."""
        index = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` with a traced version until restore().

        ``count(counters, args, kwargs, result)``, when given, runs after
        each call, outside the span, to add computed work to the counters.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (span minus its children) and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, handle, chain: int) -> None:
        """Write every span to an open text file, one JSON object per line;
        ``parent`` is an index into this tracer's spans, -1 for a root."""
        for name, start, end, parent in self.spans:
            handle.write(
                json.dumps(
                    {
                        "chain": chain,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
                + "\n"
            )
