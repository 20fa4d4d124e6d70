"""In-memory spans and counters recorded around calls into the package.

Spans are taken only in the benchmark's own code, at the boundary where a
task calls a public function of one of the package's modules.  A span's name
is ``<layer>.<function>``; the layer is the module name (``chain``,
``stationary``, ...), or ``bench`` for the task span that encloses a task's
calls.  With tracing off, :meth:`Tracer.call` is a plain call, so untraced
timings carry no span bookkeeping.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index, task_id]`` lists."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.task_id = -1
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.task_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def totals(spans: list[list]) -> dict[str, tuple[int, int]]:
    """Per span name: (summed duration in ns, number of spans)."""
    out: dict[str, tuple[int, int]] = {}
    for name, start, end, _, _ in spans:
        ns, n = out.get(name, (0, 0))
        out[name] = (ns + end - start, n + 1)
    return out


def self_times(spans: list[list]) -> dict[str, int]:
    """Per layer: span time not covered by the span's children, in ns."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, int] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + (end - start - child_ns[k])
    return out
