"""The SPMD interpreter shared by the parallel and dist backends.

Every worker process (parallel) or executor thread (dist) runs the whole
program SPMD-style on the lowered interpreter: replicated scalar and
control code, distributed loops cut to the Range-Filter subranges of the
identities it executes, under the same first-element-ownership math as
every other substrate.  Arrays allocated by replicated code are shared
(every executor computes the same allocation sequence number, so they
agree on an array's identity without a message); arrays allocated inside
a distributed iteration are private ``SeqArray`` temporaries.

A backend is a storage adapter: :meth:`SpmdInterpreter.alloc_shared`,
:meth:`read_shared` and :meth:`write_shared` over its ``shared_type``
(``ShmArray`` segments, ``DistArray`` handles).  A shared array carries
its :class:`~repro.runtime.arrays.ArrayHeader`, built once when it is
allocated, as ``header``: the Range Filter's geometry.  Shared arrays
report their access counters through ``stats()``, which
:meth:`telemetry` folds into the per-executor record both backends send
home.
"""

from __future__ import annotations

from functools import partial

from repro.baseline.sequential import Interpreter, SeqArray
from repro.graph import ir
from repro.lang import ast_nodes as A


class SpmdInterpreter(Interpreter):
    """SPMD executor: same program, own Range-Filter subranges.

    A normal executor runs one identity; a takeover runs several.
    Identities run lowest-first for ascending distributed loops and
    highest-first for descending ones, matching the global iteration
    order, so sweep-style adjacent-range dependencies between two adopted
    identities resolve against this executor's own earlier writes instead
    of self-deadlocking.

    ``injector`` is the backend's fault injector: its ``iter`` hook runs
    before every ``for`` iteration and its ``write`` hook before every
    shared write, each not even called when no clause could fire on it.
    """

    shared_type: type = type(None)

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 identities: tuple[int, ...], entry: str,
                 injector) -> None:
        super().__init__(program, entry=entry, graph=graph)
        self.identities = identities
        self.injector = injector
        if injector.arms("iter"):
            self.iter_hook = partial(injector.fire, "iter")
        self.fire_write = injector.arms("write")
        self.alloc_seq = 0
        self.shared_arrays: list = []
        self.rf_counts: dict[tuple[str, int, int, int], int] = {}

    # -- storage adapter ---------------------------------------------------

    def alloc_shared(self, seq: int, dims: tuple[int, ...]):
        raise NotImplementedError

    def read_shared(self, arr, indices: tuple):
        raise NotImplementedError

    def write_shared(self, arr, indices: tuple, value) -> None:
        raise NotImplementedError

    # -- interpreter hooks -------------------------------------------------

    def on_alloc(self, dims: tuple[int, ...]):
        if self.in_distributed:
            return SeqArray(dims)  # executor-private temporary
        self.alloc_seq += 1
        arr = self.alloc_shared(self.alloc_seq, tuple(dims))
        self.shared_arrays.append(arr)
        return arr

    def on_array_read(self, arr, indices: tuple):
        if arr.__class__ is self.shared_type:
            return self.read_shared(arr, indices)
        return arr.read(indices)

    def on_array_write(self, arr, indices: tuple, value) -> None:
        if arr.__class__ is self.shared_type:
            if self.fire_write:
                self.injector.fire("write")
            self.write_shared(arr, indices, value)
        else:
            arr.write(indices, value)

    def run_distributed(self, block, descending, arr, fixed, init, limit,
                        run_range) -> None:
        if arr.__class__ is not self.shared_type:
            # RF array is executor-private (shouldn't happen): run it all.
            run_range(init, limit)
            return
        header = arr.header
        step = -1 if descending else 1
        idents = (tuple(reversed(self.identities)) if descending
                  else self.identities)
        self.in_distributed += 1
        try:
            for ident in idents:
                first, last = header.filtered_range(
                    ident, init, limit, descending=descending,
                    fixed=fixed, dim=block.range_filter.dim)
                items = max(0, (last - first) * step + 1)
                key = (block.name, first, last, items)
                self.rf_counts[key] = self.rf_counts.get(key, 0) + 1
                run_range(first, last)
        finally:
            self.in_distributed -= 1

    # -- reporting -------------------------------------------------------

    def telemetry(self, wall_time_s: float) -> dict:
        out = {"wall_time_s": wall_time_s, "shared_reads": 0,
               "shared_writes": 0, "deferred_reads": 0, "spin_wait_s": 0.0,
               "max_spin_wait_s": 0.0, "replayed_present": 0,
               "stall_reports": 0, "pages_touched": {},
               "rf_subranges": [(name, first, last, items, count)
                                for (name, first, last, items), count
                                in self.rf_counts.items()]}
        for arr in self.shared_arrays:
            s = arr.stats()
            out["shared_reads"] += s["reads"]
            out["shared_writes"] += s["writes"]
            out["deferred_reads"] += s["deferred_reads"]
            out["spin_wait_s"] += s["spin_wait_s"]
            out["max_spin_wait_s"] = max(out["max_spin_wait_s"],
                                         s["max_spin_wait_s"])
            out["replayed_present"] += s["replayed_present"]
            out["stall_reports"] += s["stall_reports"]
            if s["pages_touched"]:
                out["pages_touched"][arr.name] = s["pages_touched"]
        return out
