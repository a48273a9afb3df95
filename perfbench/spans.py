"""In-memory span recorder wrapped around the layers' public functions.

The benchmark times the layers from outside: during a traced operation
it replaces each layer entry point (the name its callers look up) with
a wrapper that opens a span, and puts the originals back afterwards.
Nothing under ``src/`` records anything itself.

A span is ``(name, start, end, parent)`` on the host's monotonic
``perf_counter`` clock.  Spans stay in memory; :func:`chrome_trace`
turns them into trace_event JSON when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  Every site a layer function is looked
# up from at call time is patched: the defining module for callers that
# import it lazily, and the importing module for callers that bound the
# name at import time (``repro.api``, the parallel executor and the dist
# coordinator rebuild the graph per run).
LAYER_FUNCTIONS = (
    ("repro.lang.parser", "parse", "lang.parse"),
    ("repro.api", "parse", "lang.parse"),
    ("repro.graph", "build_graph", "graph.build"),
    ("repro.api", "build_graph", "graph.build"),
    ("repro.parallel.executor", "build_graph", "graph.build"),
    ("repro.dist.coordinator", "build_graph", "graph.build"),
    ("repro.partitioner", "partition", "partitioner.partition"),
    ("repro.api", "partition", "partitioner.partition"),
    ("repro.parallel.executor", "partition", "partitioner.partition"),
    ("repro.dist.coordinator", "partition", "partitioner.partition"),
    ("repro.graph", "validate_graph", "graph.validate"),
    ("repro.api", "validate_graph", "graph.validate"),
    ("repro.translator", "translate", "translator.translate"),
    ("repro.api", "translate", "translator.translate"),
    ("repro.baseline.sequential", "run_sequential", "seq.run"),
    ("repro.baseline.static_pr", "run_static", "static.run"),
    ("repro.parallel.executor", "run_parallel", "parallel.run"),
    ("repro.dist.coordinator", "run_distributed", "dist.run"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None

    @property
    def dur(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """A stack of open spans per thread over one shared span list."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = Span(id=len(self.spans), name=name,
                 parent=stack[-1] if stack else None,
                 start=time.perf_counter())
        self.spans.append(s)
        stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _machine_factory(self, machine_cls):
        """``Machine(...)`` as a span, and its ``.run`` as another."""
        def traced_machine(*args, **kwargs):
            with self.span("sim.init"):
                machine = machine_cls(*args, **kwargs)
            machine.run = self.wrap(machine.run, "sim.run")
            return machine
        return traced_machine

    @contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in LAYER_FUNCTIONS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            machine_mod = sys.modules["repro.sim.machine"]
            saved.append((machine_mod, "Machine", machine_mod.Machine))
            machine_mod.Machine = self._machine_factory(machine_mod.Machine)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping children (spans from another thread) are not counted
    twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        end = s.end if s.end is not None else s.start
        cover, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, s.start)
            hi = min(c.end if c.end is not None else c.start, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    cover += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            cover += cur_hi - cur_lo
        out[s.id] = (end - s.start) - cover
    return out


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Every span below ``root`` (spans are recorded in start order)."""
    inside = {root}
    out = []
    end = spans[root].end
    for s in spans[root + 1:]:
        if end is not None and s.start >= end:
            break
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def chrome_trace(spans: list[Span]) -> dict:
    """trace_event JSON: one complete event per span, in microseconds."""
    t0 = min((s.start for s in spans), default=0.0)
    return {"traceEvents": [
        {"name": s.name, "ph": "X", "pid": 1, "tid": 1,
         "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
         "args": {"id": s.id, "parent": s.parent}}
        for s in spans], "displayTimeUnit": "ms"}
