"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers that the tracer installs over public qopf
functions while a ``with tracer.active():`` block runs, and removes again
when it ends.  The wrappers replace the module attribute through which the
pipeline itself looks the function up (``harness.best_rcm`` inside
``prepare_case``, ``saddle.grad`` inside ``saddle.run``, ...), so calls the
program makes internally are timed as well as the benchmark's own calls.
Outside an active block the program runs unmodified.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index] row per span; parent -1 = root
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Time every call of ``owner.attr`` while active.

        ``name`` is a span name, or a function of the call's (args, kwargs)
        returning one; ``observe`` receives (span name, result) after each
        call.
        """
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs)
            with self.span(label):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(label, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    @contextmanager
    def active(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for label, start, end, _ in self.spans if label == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0.0 when the layer
        was never called."""
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called ``name`` minus the part of
        each that its direct child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return sum(end - start - child_time[i]
                   for i, (label, start, end, _) in enumerate(self.spans)
                   if label == name)
