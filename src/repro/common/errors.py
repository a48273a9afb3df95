"""Exception hierarchy shared by every PODS subsystem.

Each layer of the pipeline (language, graph, translation, partitioning,
runtime, simulation) raises its own subclass of :class:`PodsError` so callers
can catch at the granularity they care about.
"""

from __future__ import annotations

from typing import NamedTuple


class PodsError(Exception):
    """Base class for every error raised by the repro package."""


class SourceLocation(NamedTuple):
    """A position in an IdLite source file (1-based line/column)."""

    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


class LanguageError(PodsError):
    """An error detected in IdLite source code."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(LanguageError):
    """The lexer met a character sequence it cannot tokenize."""


class ParseError(LanguageError):
    """The parser met an unexpected token."""


class SemanticError(LanguageError):
    """Scope, arity, or single-assignment violation found at compile time."""


class GraphError(PodsError):
    """The dataflow graph is malformed (dangling arcs, bad ports, ...)."""


class RunRegressionError(PodsError):
    """A stored run record regressed against its baseline.

    Raised by the ``pods runs diff`` / ``pods runs regress`` gates so CI
    consumers get the shared one-line ``error[Type/code]`` rendering and
    nonzero exit of every other structured failure."""


class TranslationError(PodsError):
    """The PODS Translator could not order or lower a code block."""


class PartitionError(PodsError):
    """The PODS Partitioner was asked to distribute an unsupported shape."""


class RuntimeFault(PodsError):
    """Base class for faults raised while a PODS program executes."""


class SingleAssignmentViolation(RuntimeFault):
    """An I-structure element was written twice (forbidden by Id semantics)."""

    def __init__(self, array_id: int, offset: int) -> None:
        self.array_id = array_id
        self.offset = offset
        super().__init__(
            f"single-assignment violation: array {array_id} offset {offset} "
            "written twice"
        )


class BoundsViolation(RuntimeFault):
    """An array access fell outside the declared bounds."""

    def __init__(self, array_id: int, indices: tuple[int, ...], dims: tuple[int, ...]) -> None:
        self.array_id = array_id
        self.indices = indices
        self.dims = dims
        super().__init__(
            f"index {indices} out of bounds for array {array_id} with dims {dims}"
        )


def _progress_report(blocked: list[str], channels: list[str],
                     last_progress_us: float | None) -> str:
    """Shared diagnostic tail for stuck-machine errors.

    Lists the blocked SPs, any channels with undelivered (unacked)
    messages, and when the machine last made real progress — the three
    facts that distinguish a dataflow deadlock (missing write, no
    pending traffic) from a livelock or lost-message partition (traffic
    pending, progress stopped).
    """
    detail = ""
    if blocked:
        shown = "\n  ".join(blocked[:20])
        detail += f"\nblocked waiters:\n  {shown}"
        if len(blocked) > 20:
            detail += f"\n  ... and {len(blocked) - 20} more"
    if channels:
        shown = "\n  ".join(channels[:20])
        detail += f"\npending message/ack channels:\n  {shown}"
        if len(channels) > 20:
            detail += f"\n  ... and {len(channels) - 20} more"
    if last_progress_us is not None:
        detail += f"\nlast progress at t={last_progress_us:.1f} us"
    return detail


class DeadlockError(RuntimeFault):
    """The machine went idle while SPs were still blocked.

    Under single assignment this means some element was read but never
    written; the diagnostic lists the blocked readers to make the missing
    write findable, plus any channels still holding undelivered messages
    and the last-progress time — so deadlock (no pending traffic),
    livelock, and lost-message cases read differently from the error
    text alone.
    """

    def __init__(self, message: str, blocked: list[str] | None = None,
                 channels: list[str] | None = None,
                 last_progress_us: float | None = None) -> None:
        self.blocked = blocked or []
        self.channels = channels or []
        self.last_progress_us = last_progress_us
        super().__init__(message + _progress_report(
            self.blocked, self.channels, last_progress_us))


class PEHaltError(RuntimeFault):
    """A halted (crashed) PE stranded the rest of the machine.

    Raised by the simulator when progress stops and a ``pe-halt`` fault
    is the cause: a channel to the dead PE exhausted its retransmit
    budget, or the machine drained with the dead PE holding tokens or
    I-structure pages other SPs need.  Carries the lost PE, the stranded
    SPs (``PE.describe_blocked`` lines), and the channels with
    undelivered messages.
    """

    def __init__(self, pe: int, stranded: list[str] | None = None,
                 channels: list[str] | None = None,
                 sim_time_us: float | None = None,
                 last_progress_us: float | None = None) -> None:
        self.pe = pe
        self.stranded = stranded or []
        self.channels = channels or []
        self.sim_time_us = sim_time_us
        when = (f" at t={sim_time_us:.1f} us"
                if sim_time_us is not None else "")
        super().__init__(
            f"PE {pe} halted and cannot recover{when}" + _progress_report(
                self.stranded, self.channels, last_progress_us))


class LivelockError(RuntimeFault):
    """The machine kept firing events without making progress.

    Raised when a channel exhausts its retransmit budget against a
    live-but-unreachable receiver, when the quiescence detector sees
    nothing but retransmissions for longer than the configured window,
    or when a run crosses ``SimConfig.max_sim_time_us`` — the guarantee
    is a structured failure, never a hang.
    """

    def __init__(self, message: str, blocked: list[str] | None = None,
                 channels: list[str] | None = None,
                 sim_time_us: float | None = None,
                 last_progress_us: float | None = None) -> None:
        self.blocked = blocked or []
        self.channels = channels or []
        self.sim_time_us = sim_time_us
        self.last_progress_us = last_progress_us
        super().__init__(message + _progress_report(
            self.blocked, self.channels, last_progress_us))


class ExecutionError(RuntimeFault):
    """An instruction failed while executing (bad opcode, type error, ...)."""


class CallDepthError(ExecutionError):
    """IdLite calls nested deeper than the SPMD interpreter's guard.

    The guard is sized so it fires before CPython's own recursion limit
    on every substrate; the parallel and dist backends report it as
    worker-side text, which the shared taxonomy classifies back to the
    ``execution`` code.
    """


class MissingWriteError(ExecutionError):
    """A read of an element no execution order could have written.

    The sequential interpreter's eager analogue of the dataflow
    machine's :class:`DeadlockError`: where the simulator blocks forever
    on the absent element (and diagnoses the drained machine), the
    sequential order reads it immediately and fails here.  Both land on
    the ``deadlock`` code of the shared error taxonomy
    (:func:`repro.backend.classify_error`).
    """

    def __init__(self, array_id: int, indices: tuple[int, ...]) -> None:
        self.array_id = array_id
        self.indices = indices
        super().__init__(
            f"sequential read of unwritten element {indices} of array "
            f"{array_id} (the program has a true data race)"
        )


class DeferredReadTimeout(ExecutionError):
    """A deferred read spun past its bound (missing write -> deadlock).

    Raised by :meth:`repro.parallel.shm_arrays.ShmArray.read` when an
    absent element never turns present within the read timeout.  Carries
    enough structure for the supervisor (and a human) to see *what* was
    being waited on: the array, the 1-based element index, the flat
    offset, and the worker whose shared-memory segment holds the element
    (the likely — though under inner-dimension Range Filters not
    guaranteed — writer).
    """

    def __init__(self, array: str, indices: tuple[int, ...], offset: int,
                 owner: int, waited_s: float) -> None:
        self.array = array
        self.indices = indices
        self.offset = offset
        self.owner = owner
        self.waited_s = waited_s
        super().__init__(
            f"deferred read of {array}{list(indices)} (offset {offset}, "
            f"segment owner: worker {owner}) timed out after "
            f"{waited_s:.3f}s (missing write -> deadlock)")


class WorkerSuperseded(ExecutionError):
    """A stale worker generation noticed it has been replaced.

    A worker that hangs long enough for the supervisor to respawn it may
    eventually wake up and keep writing.  The ownership-epoch counters on
    each shared segment let it detect the replacement on its next shared
    access and exit instead of racing its own successor (whose replay
    would have made the duplicate writes benign anyway — single
    assignment means the values are identical — but a prompt exit keeps
    the zombie from burning a core).
    """

    def __init__(self, worker: int, generation: int, current: int) -> None:
        self.worker = worker
        self.generation = generation
        self.current = current
        super().__init__(
            f"worker {worker} generation {generation} superseded by "
            f"generation {current}; exiting")


class WorkerFailure:
    """Structured record of one failed real-parallel worker.

    ``kind`` classifies how the supervisor saw the worker die:

    * ``"error"`` — the worker reported an exception before exiting
      (``detail`` carries the remote traceback);
    * ``"crash"`` — the process exited nonzero/by signal without
      reporting (``exitcode`` is negative for a signal, per
      ``multiprocessing``);
    * ``"lost"`` — the process exited cleanly but never delivered its
      completion message (e.g. it was dropped pre-result);
    * ``"hang"`` — the worker was still alive at the run deadline and
      had to be terminated;
    * ``"stall"`` — the worker was blocked in a deferred-read spin on an
      element that provably can never arrive (every other worker was
      simultaneously blocked or done — the wall-clock analogue of the
      simulator's :class:`DeadlockError`).

    ``generation`` counts executions of the worker's subrange: 1 is the
    original launch, higher values are recovery respawns/takeovers.
    """

    __slots__ = ("worker", "exitcode", "kind", "detail", "generation")

    def __init__(self, worker: int, exitcode: int | None = None,
                 kind: str = "crash", detail: str = "",
                 generation: int = 1) -> None:
        self.worker = worker
        self.exitcode = exitcode
        self.kind = kind
        self.detail = detail
        self.generation = generation

    def __repr__(self) -> str:
        return (f"WorkerFailure(worker={self.worker}, kind={self.kind!r}, "
                f"exitcode={self.exitcode}, generation={self.generation})")

    def describe(self) -> str:
        code = "?" if self.exitcode is None else self.exitcode
        line = f"worker {self.worker}: {self.kind} (exitcode {code}"
        if self.generation > 1:
            line += f", generation {self.generation}"
        line += ")"
        if self.detail:
            line += f"\n{self.detail.rstrip()}"
        return line


class ParallelExecutionError(ExecutionError):
    """One or more real-parallel workers failed; carries the records.

    Subclasses :class:`ExecutionError` so existing ``except
    ExecutionError`` call sites keep working; ``failures`` holds one
    :class:`WorkerFailure` per dead/hung/erroring worker.  When the run
    used the recovery layer, ``recovery`` carries its
    :class:`repro.parallel.recovery.RecoveryLog` so callers can see what
    was attempted before the run was abandoned.
    """

    def __init__(self, message: str,
                 failures: list[WorkerFailure] | None = None,
                 recovery=None) -> None:
        self.failures = list(failures or [])
        self.recovery = recovery
        if self.failures:
            message += "\n" + "\n".join(f.describe() for f in self.failures)
        if recovery is not None and getattr(recovery, "events", None):
            message += f"\nrecovery: {recovery.summary()}"
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling re-calls __init__(message), which
        # would drop failures/recovery and re-append describe() text.
        # The distributed backend ships these across a process pipe
        # (forked coordinator -> standby), so preserve them faithfully.
        return (_restore_parallel_error,
                (type(self), str(self), self.failures, self.recovery))


def _restore_parallel_error(cls, message, failures, recovery):
    """Unpickle helper for :class:`ParallelExecutionError` subclasses."""
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    exc.failures = failures
    exc.recovery = recovery
    return exc


class TransportError(RuntimeFault):
    """The distributed backend's TCP message layer gave up on a link.

    Raised (or reported as a node-side failure detail) when a
    per-(src, dst) channel exhausts its retransmit budget or a peer
    connection exhausts its reconnect budget — the wall-clock analogue
    of the simulator's :class:`LivelockError` on an unreachable
    receiver.  Carries the endpoints so a partition reads differently
    from a crashed peer in the error text.
    """

    def __init__(self, src: int, dst: int, reason: str) -> None:
        self.src = src
        self.dst = dst
        self.reason = reason
        super().__init__(f"transport node {src} -> node {dst}: {reason}")


class DistExecutionError(ParallelExecutionError):
    """One or more distributed nodes failed; carries the records.

    Subclasses :class:`ParallelExecutionError` so the shared error
    taxonomy's detail sniffing (worker-side tracebacks reported as
    text) classifies node-side program faults — single-assignment,
    bounds, deferred-read deadlock — to the same codes on the ``dist``
    backend as everywhere else.  ``failures`` holds one
    :class:`WorkerFailure` per dead/erroring *node*.
    """


class NodeLossError(DistExecutionError):
    """A lost node could not be healed by takeover.

    The structured endpoint of the distributed backend's degradation
    ladder: node loss is first healed by reassigning the dead node's
    RF subranges to survivors (idempotent presence-bit replay); this
    error is raised only when that ladder is exhausted — recovery
    disabled, the global takeover budget spent, or no survivors left.
    Maps to the ``node-loss`` code of the shared taxonomy.
    """

