"""In-memory span recording around the public functions of nrlab's layer modules.

A Tracer wraps every public function defined in one of the layer modules and
rebinds the wrapper in every loaded ``nrlab`` namespace that holds the
function, so calls made inside the library (``enumerate_ssb_bursts`` calling
``detect_pss`` through ``nrlab.detector``'s globals, ``map_ssb`` calling
``gen_sss`` through ``nrlab.waveform``'s) are recorded as well. Wrappers are
installed only while a traced job runs and are removed afterwards, so an
untraced job runs the library unchanged. A module imported while they are
installed would keep the wrappers it imported, so import every nrlab module
a job uses before the first traced job.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("detector", "exposure", "waveform", "sequences", "sounding", "otasim", "io", "cli")


@dataclass
class Span:
    """One timed call: `parent` indexes Tracer.spans, `job` is the job id."""

    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `counters` maps a span name to a function
    (args, kwargs, result) -> dict of counts recorded on that span."""

    def __init__(self, counters: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._counters = counters or {}

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), float("nan"),
                    self._stack[-1] if self._stack else None, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = self._counters.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counts.update(counter(args, kwargs, result))
                return result
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def installed(self, job: int):
        """Wrap the layer functions for the duration of one job."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "nrlab" or name.startswith("nrlab.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"nrlab.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        patched = []
        for module in namespaces:
            ns = vars(module)
            for attr, obj in list(ns.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    patched.append((ns, attr, obj))
                    ns[attr] = wrapper
        self.job = job
        try:
            yield
        finally:
            self.job = None
            for ns, attr, obj in patched:
                ns[attr] = obj

    def write(self, path) -> None:
        """Write all spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job,
                                     "counts": s.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(s.duration - covered)
    return result
