"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: the benchmark replaces the
public entry points of each layer with ``Tracer.wrap`` wrappers that open a
span, call the original unchanged, and close the span. Spans live in flat in-memory arrays
(name id, parent index, start, end) and are aggregated, and written out, only
after the run ends. A span's self time is its duration minus the durations of
its direct children, so the self times of one root span's tree sum to the
root's duration.
"""
from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # counts observed at the same boundaries as the spans
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(result, *args)`` runs after it closes."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result, *args)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` over every span."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_sum
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_sum = np.bincount(names, weights=self_time, minlength=k)
        return {name: {"calls": float(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_sum[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> int:
        """Save every span to an ``.npz`` file; returns the span count."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_s=np.frombuffer(self.start, dtype=np.float64),
                 end_s=np.frombuffer(self.end, dtype=np.float64))
        return len(self.start)


@contextlib.contextmanager
def patched(pairs):
    """Set ``(owner, attribute, value)`` triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in pairs]
    try:
        for owner, attr, value in pairs:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
