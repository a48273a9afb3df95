"""Sequential reference interpreter — the "compiled C version" proxy.

Section 5.3.4 of the paper compares PODS running on one PE against "the
most efficient sequential version (written in a conventional language)"
and finds PODS roughly 2x slower (1.72 s vs 0.9 s for a 32x32
conduction).  This interpreter plays the sequential role: it executes the
same IdLite program with a *native* cost model — the same 80386/80387
arithmetic times, but none of the parallel machinery (no token matching,
no context switches, no presence bits, no page management):

* array access = offset multiply + add + load/store (no bounds or
  presence checks a C compiler would not emit);
* loop overhead = increment + compare + branch per iteration;
* function call = CALL/RET pair;
* scalar moves are free (register allocation).

It is also the semantic oracle the simulator's results are tested
against, and — through the pluggable :class:`Clock` and the hooks below
— the one SPMD interpreter under the static baseline and the parallel
and dist backends.  Programs run in the closure form
:mod:`repro.baseline.lower` produces once per run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

from repro.baseline.lower import (
    ARRAY_READ,
    ARRAY_WRITE,
    RESERVED_FRAMES,
    Lowering,
    frames_per_call,
    is_istructure,
)
from repro.common.errors import (
    ExecutionError,
    MissingWriteError,
    SingleAssignmentViolation,
)
from repro.lang import ast_nodes as A
from repro.runtime.arrays import flat_size, offset_fn, row_strides
from repro.runtime.values import ArrayValue
from repro.sim import timing as T

ABSENT = object()  # the value of a never-written cell


class Clock:
    """Accumulates modeled execution time.  Subclasses may attribute
    costs to multiple PEs (see the static baseline)."""

    def __init__(self) -> None:
        self.time = 0.0

    def charge(self, cost: float) -> None:
        self.time += cost

    def finish_time(self) -> float:
        return self.time


class SeqArray:
    """A host-side I-structure: plain storage + single assignment."""

    __slots__ = ("array_id", "dims", "cells", "offset")

    _next_id = 1

    def __init__(self, dims: tuple[int, ...]) -> None:
        if any((not isinstance(d, int)) or d < 1 for d in dims):
            raise ExecutionError(f"bad array dimensions {dims!r}")
        self.array_id = SeqArray._next_id
        SeqArray._next_id += 1
        self.dims = dims
        self.cells: list[Any] = [ABSENT] * flat_size(dims)
        # indices -> flat offset, bounds-checked (an instance closure).
        self.offset = offset_fn(self.array_id, dims, row_strides(dims))

    def read(self, indices: tuple[int, ...]) -> Any:
        value = self.cells[self.offset(indices)]
        if value is ABSENT:
            raise MissingWriteError(self.array_id, indices)
        return value

    def write(self, indices: tuple[int, ...], value: Any) -> int:
        off = self.offset(indices)
        if self.cells[off] is not ABSENT:
            raise SingleAssignmentViolation(self.array_id, off)
        self.cells[off] = value
        return off

    def to_value(self) -> ArrayValue:
        flat = [None if c is ABSENT else c for c in self.cells]
        return ArrayValue(self.dims, flat)


@dataclass
class SeqResult:
    value: Any
    time_us: float
    op_count: int = 0

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6


class Interpreter:
    """Runs a program's lowered closures against a cost clock.

    Substrates override the hooks the lowering binds: the array hooks
    (:meth:`on_alloc`, :meth:`on_array_read`, :meth:`on_array_write`),
    :meth:`run_distributed` and ``iter_hook``, a callable run before
    every ``for`` iteration (None: no call at all).  Given the
    partitioned ``graph``, loops the Partitioner distributed run through
    :meth:`run_distributed`; without it every loop runs whole.
    """

    iter_hook = None

    def __init__(self, program: A.Program, clock: Clock | None = None,
                 entry: str = "main", graph=None) -> None:
        self.program = program
        self.clock = clock or Clock()
        self.entry = entry
        self.op_count = 0
        self.in_distributed = 0
        # AST loop node -> its (partitioned) code block.
        self.block_of = {} if graph is None else {
            id(b.ast_ref): b for b in graph.loop_blocks()
            if b.ast_ref is not None}
        # The call-depth guard: as many IdLite calls as fit in CPython's
        # recursion limit at this program's closure frames per call, so
        # over-deep recursion fails here, the same on every substrate.
        self.max_depth = ((sys.getrecursionlimit() - RESERVED_FRAMES)
                          // frames_per_call(program))

    # -- entry ------------------------------------------------------------

    def run(self, args: tuple, materialize: bool = True) -> SeqResult:
        fn = self.program.functions.get(self.entry)
        if fn is None:
            raise ExecutionError(f"no function {self.entry!r}")
        if len(args) != len(fn.params):
            raise ExecutionError(
                f"{self.entry} expects {len(fn.params)} args, got {len(args)}")
        call = Lowering(self).function(self.entry)[0]
        value = call(list(args), 0)
        if materialize and is_istructure(value):
            value = value.to_value()
        return SeqResult(value=value, time_us=self.clock.finish_time(),
                         op_count=self.op_count)

    # -- distributed loops ------------------------------------------------

    def distributed_block(self, stmt: A.For):
        """The partitioned code block whose Range Filter splits ``stmt``
        across PEs, or None for a loop every PE runs whole."""
        block = self.block_of.get(id(stmt))
        if block is not None and block.distributed \
                and block.range_filter is not None:
            return block
        return None

    def run_distributed(self, block, descending: bool, arr, fixed: tuple,
                        init, limit, run_range) -> None:
        """Run a distributed loop: ``run_range(first, last)`` per owned
        subrange of ``init..limit`` (overridden by the SPMD substrates)."""
        run_range(init, limit)

    # -- array hooks (overridden by the SPMD substrates) -----------------

    def on_alloc(self, dims: tuple[int, ...]) -> SeqArray:
        self.clock.charge(T.ALLOC_ARRAY)
        return SeqArray(dims)

    def on_array_read(self, arr: SeqArray, indices: tuple) -> Any:
        self.clock.charge(ARRAY_READ)
        return arr.read(indices)

    def on_array_write(self, arr: SeqArray, indices: tuple, value: Any) -> None:
        self.clock.charge(ARRAY_WRITE)
        arr.write(indices, value)


def run_sequential(program: A.Program, args: tuple = (),
                   entry: str = "main") -> SeqResult:
    """Run ``program`` on the sequential reference interpreter."""
    return Interpreter(program, entry=entry).run(args)
