"""Shared-memory I-structures for the real-parallel backend.

Each distributed array lives in one POSIX shared-memory segment holding
an ownership-epoch table, a flag byte and an 8-byte value per element:

    [epochs: 8 bytes x epoch_slots][flags: 1 byte/elem][values: 8 bytes/elem]

The flag encodes presence and type (I-structure presence bits):

    0 = absent, 1 = float, 2 = int, 3 = bool

A write stores the value first and sets the flag last; a read spins until
the flag is non-zero.  On x86-64 with CPython this is sound: aligned
8-byte stores are atomic and the interpreter does not reorder the two
statements.  Single assignment is enforced by testing the flag before
writing — a best-effort check (two simultaneous writers could both pass
it), exactly the kind of race single-assignment *programs* never exhibit.

The epoch table carries one monotonically increasing *ownership epoch*
per worker slot, stamped by each generation of a worker when it attaches.
It is what makes recovery safe against half-dead predecessors: a replay
generation bumps its slot's epoch, and a stale generation that wakes up
later notices the bump on its next access and raises
:class:`~repro.common.errors.WorkerSuperseded` instead of racing its own
successor.  (Even an undetected late write is benign — single assignment
means the replay would have stored the identical value — the epoch just
turns "benign by argument" into "detected".)

Recovery replays set ``replay=True``: a write that finds the presence
bit already set (its predecessor got that far before dying) verifies the
stored value and moves on instead of raising a single-assignment
violation — this is what makes re-execution idempotent.
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from typing import Callable

import _posixshmem

from repro.common.errors import (BoundsViolation, DeferredReadTimeout,
                                 ExecutionError, SingleAssignmentViolation,
                                 WorkerSuperseded)

FLAG_ABSENT = 0
FLAG_FLOAT = 1
FLAG_INT = 2
FLAG_BOOL = 3

_PACK = struct.Struct("<d")
_PACK_INT = struct.Struct("<q")


class Segment:
    """A POSIX shared-memory segment, opened without the resource tracker.

    ``multiprocessing.shared_memory.SharedMemory`` registers every create
    *and* every attach with the tracker process, which would unlink a
    segment when the first process that touched it exits.  Unregistering
    each attachment instead makes two unregisters hit the tracker's one
    set entry, and it prints a ``KeyError`` traceback.  Python before
    3.13 has no ``track=False``.  Ownership here is explicit (the parent
    unlinks every segment through the run's ``ShmManifest``), so
    segments never touch the tracker at all.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, create: bool = False,
                 size: int = 0) -> None:
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            self._mmap = mmap.mmap(fd, os.fstat(fd).st_size)
        except OSError:
            if create:
                unlink_segment(name)
            raise
        finally:
            os.close(fd)  # the mapping keeps the segment open
        self.name = name
        self.size = len(self._mmap)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def unlink_segment(name: str) -> None:
    """Remove segment ``name`` (``FileNotFoundError`` when absent)."""
    _posixshmem.shm_unlink("/" + name)


class ShmArray:
    """One shared I-structure array (attached or created).

    ``epoch_slots`` sizes the ownership-epoch table (one slot per
    worker) and must agree between the creator and every attacher —
    the executor passes the run's worker count everywhere.  ``slot`` /
    ``generation`` identify this attachment for epoch stamping and
    staleness checks (``generation=0`` disables both, for standalone
    host-side use).  ``exist_ok`` turns creation into create-or-attach,
    which is what a replayed worker 0 needs: its predecessor may or may
    not have gotten around to creating the segment.
    """

    def __init__(self, name: str, dims: tuple[int, ...], create: bool,
                 attach_timeout_s: float = 10.0,
                 page_size: int = 32, epoch_slots: int = 1,
                 slot: int = 0, generation: int = 0,
                 replay: bool = False, exist_ok: bool = False) -> None:
        self.dims = dims
        self.page_size = page_size
        if epoch_slots < 1:
            raise ExecutionError(f"epoch_slots must be >= 1, got {epoch_slots}")
        self.epoch_slots = epoch_slots
        self.slot = slot
        self.generation = generation
        self.replay = replay
        total = 1
        for d in dims:
            total *= d
        self.total = total
        strides = [1] * len(dims)
        for k in range(len(dims) - 2, -1, -1):
            strides[k] = strides[k + 1] * dims[k + 1]
        self.strides = tuple(strides)
        self._epoch_bytes = 8 * epoch_slots
        size = self._epoch_bytes + total * 9  # epochs + flag + value bytes

        if create:
            # POSIX shm_open + ftruncate hands out zero-filled pages, so
            # the flag region is already FLAG_ABSENT (and every epoch 0)
            # everywhere.  Never zero it explicitly: attachers may
            # already be writing by the time the creator gets scheduled
            # again, and a late memset would erase their presence bits.
            try:
                self.shm = Segment(name, create=True, size=size)
            except FileExistsError:
                if not exist_ok:
                    raise
                # A predecessor generation created it; replay attaches.
                self.shm = self._attach(name, size, attach_timeout_s)
        else:
            self.shm = self._attach(name, size, attach_timeout_s)
        self.name = name
        self._epochs = self.shm.buf[:self._epoch_bytes]
        self._flags = self.shm.buf[self._epoch_bytes:self._epoch_bytes + total]
        self._vals = self.shm.buf[self._epoch_bytes + total:
                                  self._epoch_bytes + total + 8 * total]
        if generation:
            self.set_epoch(slot, generation)
        # Telemetry counters, all process-local (each worker holds its
        # own attachment): fed into per-worker WorkerTelemetry and from
        # there into the run's shared MetricsRegistry (repro.obs).
        self.reads = 0
        self.writes = 0
        self.deferred_reads = 0
        self.spin_wait_s = 0.0
        self.max_spin_wait_s = 0.0
        self.replayed_present = 0
        self.stall_reports = 0
        self.pages_touched: set[int] = set()

    @staticmethod
    def _attach(name: str, size: int,
                attach_timeout_s: float) -> Segment:
        deadline = time.monotonic() + attach_timeout_s
        while True:
            try:
                shm = Segment(name)
                # The creator opens the segment before sizing it; an
                # attach landing in that window sees a short file.
                if shm.size >= size:
                    return shm
                shm.close()
            except (FileNotFoundError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise ExecutionError(f"shared array {name} never appeared")
            time.sleep(0.001)

    # -- ownership epochs -----------------------------------------------

    def epoch(self, slot: int) -> int:
        """Current ownership epoch of ``slot`` (0 = never stamped)."""
        return _PACK_INT.unpack_from(self._epochs, slot * 8)[0]

    def set_epoch(self, slot: int, generation: int) -> None:
        """Stamp ``slot``'s epoch; monotonic (never lowers the value)."""
        if generation > self.epoch(slot):
            _PACK_INT.pack_into(self._epochs, slot * 8, generation)

    def _check_superseded(self) -> None:
        current = _PACK_INT.unpack_from(self._epochs, self.slot * 8)[0]
        if current > self.generation:
            raise WorkerSuperseded(self.slot, self.generation, current)

    # -- geometry --------------------------------------------------------

    def offset(self, indices: tuple[int, ...]) -> int:
        if len(indices) != len(self.dims):
            raise BoundsViolation(self.name, indices, self.dims)
        off = 0
        for idx, dim, stride in zip(indices, self.dims, self.strides):
            if not 1 <= idx <= dim:
                raise BoundsViolation(self.name, indices, self.dims)
            off += (idx - 1) * stride
        return off

    def owner_of_offset(self, off: int) -> int:
        """Worker slot whose shared-memory segment holds ``off``.

        Uses the same sequential page-dealing math as the simulator's
        Array Manager (``epoch_slots`` plays the ``num_pes`` role).  For
        outer-dimension Range Filters the segment owner of a row start
        is exactly the worker responsible for writing the row; for other
        elements it is the best available hint of who the writer is.
        """
        from repro.runtime.arrays import num_pages, segment_of_page

        pages = num_pages(self.total, self.page_size)
        try:
            return segment_of_page(off // self.page_size, pages,
                                   self.epoch_slots)
        except Exception:  # more slots than pages: fall back to slot 0
            return 0

    # -- element access --------------------------------------------------

    def write(self, indices: tuple[int, ...], value) -> None:
        off = self.offset(indices)
        self.writes += 1
        self.pages_touched.add(off // self.page_size)
        if self._flags[off] != FLAG_ABSENT:
            if self.replay:
                # Idempotent replay: the predecessor generation got this
                # far before dying.  Single assignment guarantees the
                # recomputed value is identical; verify to keep genuine
                # violations (double writes in the program) detectable
                # even under replay.
                if self._read_present(off, self._flags[off]) != value:
                    raise SingleAssignmentViolation(0, off)
                self.replayed_present += 1
                return
            raise SingleAssignmentViolation(0, off)
        if self.generation:
            self._check_superseded()
        base = off * 8
        if isinstance(value, bool):
            _PACK_INT.pack_into(self._vals, base, int(value))
            flag = FLAG_BOOL
        elif isinstance(value, int):
            _PACK_INT.pack_into(self._vals, base, value)
            flag = FLAG_INT
        elif isinstance(value, float):
            _PACK.pack_into(self._vals, base, value)
            flag = FLAG_FLOAT
        else:
            raise ExecutionError(f"cannot store {type(value).__name__} in a "
                                 "shared array")
        self._flags[off] = flag  # presence bit set last

    def read(self, indices: tuple[int, ...], timeout_s: float = 30.0,
             spin_ceiling_s: float | None = None,
             on_stall: Callable[[dict], None] | None = None,
             on_spin: Callable[[], None] | None = None):
        """I-structure read: spin until the element is present.

        A spin that lasts ``spin_ceiling_s`` (and every further multiple
        of it) invokes ``on_stall`` with a structured report — array,
        indices, flat offset, owning worker slot, seconds waited — which
        the worker forwards to the supervisor; ``on_spin`` fires once
        when the spin begins (the fault-injection hook).  A spin that
        outlives ``timeout_s`` raises
        :class:`~repro.common.errors.DeferredReadTimeout`.
        """
        off = self.offset(indices)
        self.reads += 1
        flag = self._flags[off]
        if flag == FLAG_ABSENT:
            self.deferred_reads += 1
            if on_spin is not None:
                on_spin()
            spin_start = time.monotonic()
            deadline = spin_start + timeout_s
            next_stall = (spin_start + spin_ceiling_s
                          if spin_ceiling_s else None)
            pause = 1e-6
            try:
                while True:
                    flag = self._flags[off]
                    if flag != FLAG_ABSENT:
                        break
                    if self.generation:
                        self._check_superseded()
                    now = time.monotonic()
                    if next_stall is not None and now >= next_stall:
                        self.stall_reports += 1
                        if on_stall is not None:
                            on_stall({"array": self.name,
                                      "indices": list(indices),
                                      "offset": off,
                                      "owner": self.owner_of_offset(off),
                                      "waited_s": now - spin_start})
                        next_stall = now + spin_ceiling_s
                    if now > deadline:
                        raise DeferredReadTimeout(
                            self.name, indices, off,
                            self.owner_of_offset(off), now - spin_start)
                    time.sleep(pause)
                    pause = min(pause * 2, 0.001)
            finally:
                waited = time.monotonic() - spin_start
                self.spin_wait_s += waited
                if waited > self.max_spin_wait_s:
                    self.max_spin_wait_s = waited
        return self._read_present(off, flag)

    def _read_present(self, off: int, flag: int):
        base = off * 8
        if flag == FLAG_FLOAT:
            return _PACK.unpack_from(self._vals, base)[0]
        value = _PACK_INT.unpack_from(self._vals, base)[0]
        return bool(value) if flag == FLAG_BOOL else value

    def stats(self) -> dict:
        """This attachment's access counters (one worker's view)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "deferred_reads": self.deferred_reads,
            "spin_wait_s": self.spin_wait_s,
            "max_spin_wait_s": self.max_spin_wait_s,
            "replayed_present": self.replayed_present,
            "stall_reports": self.stall_reports,
            "pages_touched": sorted(self.pages_touched),
        }

    def seed(self, off: int, value) -> None:
        """Host-side restore: store one checkpointed element by offset.

        Same store-value-then-flag ordering as :meth:`write`, but no
        telemetry and no single-assignment bookkeeping — the resuming
        parent owns the segment and no worker is attached yet.
        """
        if not 0 <= off < self.total:
            raise BoundsViolation(self.name, (off,), self.dims)
        base = off * 8
        if isinstance(value, bool):
            _PACK_INT.pack_into(self._vals, base, int(value))
            flag = FLAG_BOOL
        elif isinstance(value, int):
            _PACK_INT.pack_into(self._vals, base, value)
            flag = FLAG_INT
        elif isinstance(value, float):
            _PACK.pack_into(self._vals, base, value)
            flag = FLAG_FLOAT
        else:
            raise ExecutionError(f"cannot seed {type(value).__name__} into "
                                 "a shared array")
        self._flags[off] = flag  # presence bit set last

    def dump(self) -> dict:
        """Present elements as ``{flat offset: value}`` (checkpoint
        capture).  Monotone presence bits make this safe to call while
        workers are still writing: any flagged element has its value
        stored (write orders value before flag), and absent elements
        are simply not yet part of the cut.
        """
        out = {}
        for off in range(self.total):
            flag = self._flags[off]
            if flag != FLAG_ABSENT:
                out[off] = self._read_present(off, flag)
        return out

    def snapshot(self) -> list:
        """Host-side copy (absent -> None); call after workers finish."""
        out = []
        for off in range(self.total):
            flag = self._flags[off]
            if flag == FLAG_ABSENT:
                out.append(None)
            elif flag == FLAG_FLOAT:
                out.append(_PACK.unpack_from(self._vals, off * 8)[0])
            else:
                v = _PACK_INT.unpack_from(self._vals, off * 8)[0]
                out.append(bool(v) if flag == FLAG_BOOL else v)
        return out

    def to_value(self):
        """Materialize into a host-side ArrayValue."""
        from repro.runtime.values import ArrayValue

        return ArrayValue(self.dims, self.snapshot())

    def close(self) -> None:
        # Memoryview slices must be released before closing the segment.
        self._epochs.release()
        self._flags.release()
        self._vals.release()
        self.shm.close()

    def unlink(self) -> None:
        try:
            unlink_segment(self.name)
        except FileNotFoundError:
            pass
