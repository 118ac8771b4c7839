"""In-memory spans around calls into the program's public functions.

A Tracer replaces `module.attr` with a wrapper that records one span per
call: (layer, start, end, parent). The wrapper is installed where the caller
looks the name up (e.g. `eulerstat.ensemble.generate_sample`, the name
`_evolve_one` calls), so nothing in the program changes. Spans stay in
memory; the benchmark reads them when the traced run has ended.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped names; `remove()` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span named layer."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, time.perf_counter(), parent=parent))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, dotted: str, layer: str) -> None:
        """Wrap `package.module.attr`; a name the program no longer has is
        recorded in `missing` instead of failing."""
        module_name, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(dotted)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(layer, original, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def durations(self, layer: str) -> list[float]:
        return [s.duration for s in self.spans if s.layer == layer]

    def self_times(self, layer: str) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another (the traced run is
        serial), so the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - covered[i] for i, s in enumerate(self.spans) if s.layer == layer]

    def total_under(self, root_layer: str, layer: str) -> float:
        """Summed duration of `layer` spans whose outermost span is a
        `root_layer` span (a layer never nests inside itself here)."""
        total = 0.0
        for s in self.spans:
            if s.layer != layer:
                continue
            root = s
            while root.parent is not None:
                root = self.spans[root.parent]
            if root.layer == root_layer:
                total += s.duration
        return total
