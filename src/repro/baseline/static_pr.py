"""Pingali & Rogers-style static-compilation baseline (paper Section 6).

P&R compile Id programs into C for the iPSC/2: "once the programs are
compiled into native code, processes are statically scheduled onto
processor nodes and execution proceeds in a completely control-driven
manner".  The two mechanisms PODS has and this approach lacks are dynamic
(data-driven) SP activation and split-phase reads with context switching.

We model that execution style as a *critical-path SPMD simulation* built
on the sequential interpreter:

* one virtual clock per PE; scalar/control code is replicated on every
  PE (SPMD), distributed-loop iterations are attributed to the PE that
  owns them under the very same first-element-ownership partitioning the
  PODS Partitioner computes;
* every array element records the time its value becomes available on
  its owner; a reader must wait for ``avail`` plus a blocking transfer
  when the element is remote (page-grain caching amortizes repeats, as
  both systems cache pages);
* those records are per-array tables built when the array is allocated,
  as the Array Manager builds its header (Section 4.1): the header's
  page-owner table, one ``avail`` time per element and, per PE, one
  cached-since time per page (:class:`StaticArray`);
* there is no overlap: waits extend the reader's clock directly, which
  is exactly the cost of blocking (non-split-phase) communication.

Pipelined sweeps emerge naturally: PE k's first rows become available
early, so PE k+1 starts its dependent rows after a stagger, not after
the whole predecessor chunk — matching the doacross behaviour a good
static compiler achieves, while still paying full message latency per
miss.  Wall-clock time is the max over the PE clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ExecutionError, MissingWriteError
from repro.graph import ir
from repro.lang import ast_nodes as A
from repro.runtime.arrays import ArrayHeader
from repro.baseline.sequential import (
    ABSENT,
    ARRAY_READ,
    ARRAY_WRITE,
    Clock,
    Interpreter,
    SeqArray,
)
from repro.sim import timing as T

# Blocking remote-read round trip: request + whole-page reply.
_PAGE_BYTES = 32 * 8 + 32


def _remote_read_rt(page_size: int, element_bytes: int) -> float:
    return (T.message_latency(32)
            + T.message_latency(page_size * element_bytes + 32)
            + T.am_send_page(page_size) + T.am_receive_page(page_size))


REMOTE_WRITE_SEND = T.RU_MSG_COST + T.MEM_WRITE
REMOTE_WRITE_LATENCY = T.message_latency(32)


class PEClocks(Clock):
    """One clock per PE plus a context: None (replicated SPMD code,
    charged to every PE) or a specific PE (a distributed-loop
    iteration)."""

    def __init__(self, num_pes: int) -> None:
        super().__init__()
        self.times = [0.0] * num_pes
        self.ctx: int | None = None

    def charge(self, cost: float) -> None:
        if self.ctx is None:
            times = self.times
            for p in range(len(times)):
                times[p] += cost
        else:
            self.times[self.ctx] += cost

    def finish_time(self) -> float:
        return max(self.times)


class StaticArray(SeqArray):
    """A ``SeqArray`` with the per-array tables of the timing model.

    ``page_owner`` is the header's page table; ``avail[off]`` is when
    element ``off``'s value is available at its owner (0.0 until
    written); ``cached[pe][page]`` is since when ``pe`` has held a copy
    of ``page`` (-1.0: never).
    """

    __slots__ = ("header", "page_owner", "avail", "cached")

    def __init__(self, dims: tuple[int, ...], page_size: int,
                 num_pes: int) -> None:
        super().__init__(dims)
        header = self.header = ArrayHeader(self.array_id, self.dims,
                                           page_size, num_pes)
        self.page_owner = header.page_owner
        self.avail = [0.0] * header.total_elements
        self.cached = [[-1.0] * header.pages for _ in range(num_pes)]


@dataclass
class StaticResult:
    value: Any
    time_us: float
    pe_times: list[float]
    remote_misses: int = 0

    @property
    def time_s(self) -> float:
        return self.time_us / 1e6


class StaticInterpreter(Interpreter):
    """SPMD critical-path executor (see module docstring)."""

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 config: SimConfig) -> None:
        self.num_pes = config.machine.num_pes
        self.page_size = config.machine.page_size
        self.element_bytes = config.machine.element_bytes
        self.cache_enabled = config.machine.cache_enabled
        clocks = PEClocks(self.num_pes)
        super().__init__(program, clock=clocks, graph=graph)
        self.clocks = clocks
        self.times = clocks.times
        self.remote_misses = 0
        self.remote_rt = _remote_read_rt(self.page_size, self.element_bytes)

    # -- distributed loops --------------------------------------------------

    def run_distributed(self, block, descending, arr, fixed, init, limit,
                        run_range) -> None:
        if not isinstance(arr, StaticArray):
            raise ExecutionError("range-filter array did not resolve")
        rf = block.range_filter
        header = arr.header

        entry = max(self.clocks.times)  # SPMD: everyone enters together
        for p in range(self.num_pes):
            self.clocks.times[p] = max(self.clocks.times[p], entry)
        self.in_distributed += 1
        try:
            for p in range(self.num_pes):
                first, last = header.filtered_range(
                    p, init, limit, descending=descending,
                    fixed=fixed, dim=rf.dim)
                self.clocks.ctx = p
                run_range(first, last)
        finally:
            self.clocks.ctx = None
            self.in_distributed -= 1

    # -- array hooks -------------------------------------------------------

    def on_alloc(self, dims: tuple[int, ...]) -> StaticArray:
        self.clock.charge(T.ALLOC_ARRAY)
        return StaticArray(dims, self.page_size, self.num_pes)

    def on_array_read(self, arr: StaticArray, indices: tuple) -> Any:
        off = arr.offset(indices)
        avail = arr.avail[off]
        page = off // self.page_size
        owner = arr.page_owner[page]
        cache = self.cache_enabled
        times = self.times
        ctx = self.clocks.ctx
        if ctx is None:
            # Replicated SPMD code: every non-owner PE must fetch the
            # element (round trips happen in parallel across PEs, so each
            # clock pays its own).
            self.clocks.charge(ARRAY_READ)
            for p in range(self.num_pes):
                if times[p] < avail:
                    times[p] = avail
                if p == owner:
                    continue
                if cache and arr.cached[p][page] >= avail:
                    continue
                times[p] += self.remote_rt
                self.remote_misses += 1
                if cache:
                    arr.cached[p][page] = times[p]
        else:
            t = times[ctx] + ARRAY_READ
            if t < avail:
                t = avail
            if owner != ctx:
                cached = arr.cached[ctx]
                if not (cache and cached[page] >= avail):
                    # Blocking miss: full round trip, no overlap.
                    t += self.remote_rt
                    self.remote_misses += 1
                    if cache:
                        cached[page] = t
            times[ctx] = t
        value = arr.cells[off]
        if value is ABSENT:
            raise MissingWriteError(arr.array_id, indices)
        return value

    def on_array_write(self, arr: StaticArray, indices: tuple,
                       value) -> None:
        ctx = self.clocks.ctx
        times = self.times
        if ctx is None:
            self.clocks.charge(ARRAY_WRITE)
            arr.avail[arr.write(indices, value)] = max(times)
            return
        times[ctx] += ARRAY_WRITE
        off = arr.write(indices, value)
        when = times[ctx]
        if arr.page_owner[off // self.page_size] != ctx:
            # Forwarded write: sender pays the send overhead; the value
            # lands after the message latency.
            when = times[ctx] = when + REMOTE_WRITE_SEND
            when += REMOTE_WRITE_LATENCY
        arr.avail[off] = when


def run_static(program, args: tuple = (), num_pes: int = 1,
               config: SimConfig | None = None) -> StaticResult:
    """Run the P&R-style baseline.  ``program`` is a repro.api.Program."""
    if config is None:
        config = SimConfig(machine=MachineConfig(num_pes=num_pes))
    interp = StaticInterpreter(program.ast, program.graph, config)
    seq = interp.run(args)
    return StaticResult(
        value=seq.value,
        time_us=interp.clocks.finish_time(),
        pe_times=list(interp.clocks.times),
        remote_misses=interp.remote_misses,
    )
