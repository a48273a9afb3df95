"""Real-parallel execution with ``multiprocessing`` workers.

The paper targets physical iPSC/2 nodes; on a modern laptop the GIL rules
out threads, so this backend runs one *process* per PE (the substitution
recorded in DESIGN.md).  The execution model mirrors PODS' Data
Distributed Execution:

* every worker runs the program SPMD-style — replicated scalar/control
  code, deterministic by single assignment;
* distributed loops (as decided by the very same Partitioner) iterate
  only the worker's Range-Filter subrange, under the identical
  first-element-ownership math;
* distributed arrays live in shared memory with real presence bits;
  reads of not-yet-written elements spin (I-structure deferred reads),
  which also gives sweep pipelining for free;
* arrays allocated inside a distributed iteration are worker-private.

Process lifecycle is supervised: each worker reports over its own
one-way pipe, and the parent blocks on every pipe and on the sentinels
of exited workers at once, so a message wakes it on arrival and a
crashed, lost, or hung worker surfaces as a structured
:class:`WorkerFailure` — never as a silently truncated result or a
full-timeout stall.  Shared segments are tracked in an append-only
manifest (:mod:`repro.parallel.manifest`) and reclaimed on every exit
path — including ``KeyboardInterrupt``/SIGTERM; the failure paths
themselves are testable through deterministic fault injection
(:mod:`repro.parallel.faults`).

On top of the supervisor sits the *self-healing* layer
(:mod:`repro.parallel.recovery`).  Single assignment makes a dead
worker's subrange idempotently re-executable — presence bits turn the
replay's already-done prefix into no-ops — so a retriable failure
(``crash``/``lost``) respawns the worker against the same segments
after deterministic backoff; per-worker retry exhaustion reassigns the
orphaned *identity* to a degraded-mode takeover process (an identity,
not a process, owns a Range-Filter subrange — the replacement re-derives
the exact subrange from the identity via the same first-element-
ownership math).  Ownership epochs on each segment make a half-dead
predecessor's late writes detectable (:class:`WorkerSuperseded`) and
benign.  A deferred-read stall watchdog bounds every spin
(``ParallelConfig.spin_ceiling_s``): spinning workers report *who* they
are blocked on, and when every live worker is provably blocked at one
instant the run aborts as a deadlock immediately — causal, not
timeout-driven.

The backend exists to demonstrate genuine wall-clock speedup of the
partitioning scheme on real cores; the instruction-level simulator
remains the quantitative instrument, as in the paper.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import connection
from typing import Any

from repro.common.config import ParallelConfig
from repro.common.errors import (ExecutionError, ParallelExecutionError,
                                 WorkerFailure, WorkerSuperseded)
from repro.graph import build_graph, ir
from repro.lang import ast_nodes as A
from repro.partitioner import partition
from repro.baseline.spmd import SpmdInterpreter
from repro.parallel.faults import FaultInjector, FaultPlan, resolve_plan
from repro.parallel.manifest import ShmManifest
from repro.common.retry import RetryPolicy
from repro.parallel.recovery import RecoveryEvent, RecoveryLog
from repro.parallel.shm_arrays import ShmArray

log = logging.getLogger("repro.parallel")

_RETRIABLE = ("crash", "lost")
# Characters of traceback an ``err`` message carries after the exception
# line; a call-depth failure's full traceback runs to tens of kilobytes.
_TRACEBACK_TAIL = 4096


@dataclass(frozen=True)
class _WorkerSpec:
    """What one worker process is asked to execute.

    ``identities`` are the PE numbers whose Range-Filter subranges this
    process runs — ``(slot,)`` normally; several after a degraded-mode
    takeover adopts orphans.  ``generation`` counts executions (1 =
    original launch); a replay sets ``replay`` so already-present
    elements are verified instead of re-written.
    """

    slot: int
    identities: tuple[int, ...]
    generation: int = 1
    kind: str = "worker"  # worker | respawn | takeover
    replay: bool = False


@dataclass
class WorkerTelemetry:
    """One worker's self-reported execution profile."""

    worker: int
    wall_time_s: float = 0.0
    shared_reads: int = 0
    shared_writes: int = 0
    deferred_reads: int = 0
    spin_wait_s: float = 0.0
    max_spin_wait_s: float = 0.0
    replayed_present: int = 0
    stall_reports: int = 0
    # (loop block, first, last, iteration items, times executed) — an
    # inner-loop RF runs once per enclosing iteration, hence the count.
    rf_subranges: list[tuple[str, int, int, int, int]] = field(
        default_factory=list)
    # shared array name -> page indices this worker wrote at least one
    # element of (page grain as in MachineConfig.page_size)
    pages_touched: dict[str, list[int]] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, worker: int, d: dict) -> "WorkerTelemetry":
        return cls(
            worker=worker,
            wall_time_s=d.get("wall_time_s", 0.0),
            shared_reads=d.get("shared_reads", 0),
            shared_writes=d.get("shared_writes", 0),
            deferred_reads=d.get("deferred_reads", 0),
            spin_wait_s=d.get("spin_wait_s", 0.0),
            max_spin_wait_s=d.get("max_spin_wait_s", 0.0),
            replayed_present=d.get("replayed_present", 0),
            stall_reports=d.get("stall_reports", 0),
            rf_subranges=[tuple(r) for r in d.get("rf_subranges", [])],
            pages_touched={k: list(v)
                           for k, v in d.get("pages_touched", {}).items()},
        )


def telemetry_registry(worker_stats: list[WorkerTelemetry],
                       spin_cause: str = "istructure-defer") -> "MetricsRegistry":
    """Fold per-worker telemetry into one :class:`MetricsRegistry`.

    The semantic metric families (``rf.*``, ``array.*``) use the same
    names and label shapes as the simulator's registry (see
    :meth:`repro.obs.recorder.ObsRecorder.build_registry`), so a
    differential test can assert that e.g. Range-Filter subranges agree
    between backends by comparing registry rows directly.  Workers map
    onto the ``pe`` label — the backend's wall-clock counterpart.

    ``spin_cause`` labels the blocked-read wait rows: this backend's
    spins are I-structure defers on shared memory; the distributed
    backend reuses the fold with ``remote-read`` (its blocked reads are
    split-phase network reads — see the WAIT vocabulary in ObsConfig).
    """
    from repro.obs.registry import MetricsRegistry

    reg = MetricsRegistry()
    pages: dict[str, set[int]] = {}
    for t in worker_stats:
        pe = str(t.worker)
        reg.set_gauge("par.wall_time_s", t.wall_time_s, pe=pe)
        reg.inc("array.element_reads", t.shared_reads, pe=pe, scope="shared")
        reg.inc("array.element_writes", t.shared_writes, pe=pe)
        reg.inc("array.deferred_reads", t.deferred_reads, pe=pe)
        reg.observe("par.spin_wait_s", t.spin_wait_s, pe=pe)
        reg.set_gauge("par.max_spin_wait_s", t.max_spin_wait_s, pe=pe)
        # Same metric family as the simulator's wait-state attribution
        # (see ObsRecorder.build_registry): a worker spinning on an
        # absent shared-array element is the wall-clock counterpart of
        # the simulator's istructure-defer wait.
        reg.set_gauge("wait.us", t.spin_wait_s * 1e6, pe=pe,
                      cause=spin_cause)
        for name, first, last, items, count in t.rf_subranges:
            reg.inc("rf.subrange", count, pe=pe, block=name,
                    first=first, last=last)
            reg.inc("rf.items", items * count, pe=pe)
        for name, touched in t.pages_touched.items():
            pages.setdefault(name, set()).update(touched)
    for i, name in enumerate(sorted(pages)):
        # Shared segments allocate in a replicated, deterministic order;
        # index them 1-based like the simulator's array ids.
        reg.set_gauge("array.pages_touched", len(pages[name]),
                      array=str(i + 1))
    return reg


@dataclass
class ParallelResult:
    value: Any
    wall_time_s: float
    workers: int
    worker_stats: list[WorkerTelemetry] = field(default_factory=list)
    registry: Any = None  # MetricsRegistry over the worker telemetry
    recovery: RecoveryLog | None = None
    # Checkpoint/restore summary (None unless the run wrote or consumed
    # a pods-ckpt/v1 document): snapshots, elements, restored_elements,
    # resumed_from — the run record's ``ckpt`` provenance section.
    ckpt: dict | None = None

    def telemetry_table(self) -> str:
        """Per-worker profile as an aligned text block."""
        lines = ["worker  wall(s)  sh-reads  sh-writes  deferred  "
                 "max-spin(ms)  rf-subranges"]
        for t in self.worker_stats:
            ranges = " ".join(
                f"{name}[{first}..{last}]" + (f"*{count}" if count > 1
                                              else "")
                for name, first, last, _items, count in t.rf_subranges)
            lines.append(f"{t.worker:>6}  {t.wall_time_s:>7.3f}  "
                         f"{t.shared_reads:>8}  {t.shared_writes:>9}  "
                         f"{t.deferred_reads:>8}  "
                         f"{t.max_spin_wait_s * 1e3:>12.2f}  "
                         f"{ranges or '-'}")
        return "\n".join(lines)

    def recovery_table(self) -> str:
        """Recovery timeline for ``pods profile`` (see RecoveryLog)."""
        if self.recovery is None:
            return "recovery\n--------\n(recovery disabled)"
        return self.recovery.table()


class _WorkerInterpreter(SpmdInterpreter):
    """Shared-memory storage adapter: shared arrays are ``ShmArray``
    segments named by the run tag and allocation sequence number.

    (Pathological cross-range dependencies between identities a takeover
    adopted can still deadlock a degraded run — the stall watchdog then
    aborts it with a structured diagnosis rather than hanging.)
    """

    shared_type = ShmArray

    def __init__(self, program: A.Program, graph: ir.ProgramGraph,
                 spec: _WorkerSpec, num_workers: int, run_tag: str,
                 page_size: int, entry: str,
                 manifest: ShmManifest | None = None,
                 injector: FaultInjector | None = None,
                 read_timeout_s: float = 30.0,
                 spin_ceiling_s: float | None = None,
                 stall_fn=None, alloc_fn=None) -> None:
        super().__init__(program, graph, spec.identities, entry,
                         injector or FaultInjector(FaultPlan(), spec.slot))
        self.spec = spec
        self.worker = spec.slot
        self.num_workers = num_workers
        self.run_tag = run_tag
        self.page_size = page_size
        self.manifest = manifest
        self.read_timeout_s = read_timeout_s
        self.spin_ceiling_s = spin_ceiling_s
        self.stall_fn = stall_fn
        self.alloc_fn = alloc_fn
        # Pre-bound so the read hot path doesn't allocate a closure per
        # deferred read; None when no spin fault is armed.
        self._on_spin = (partial(self.injector.fire, "spin")
                         if self.injector.arms("spin") else None)

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> ShmArray:
        # The process running identity 0 creates the segment.  A
        # replay's create falls back to attach (exist_ok) — its
        # predecessor may already have created it.
        name = f"{self.run_tag}_{seq}"
        create = 0 in self.identities
        if create and self.manifest is not None:
            # Record before creating: a death in the gap costs a no-op
            # unlink, while the reverse order would leak the segment.
            self.manifest.record(name)
        arr = ShmArray(name, dims, create=create,
                       page_size=self.page_size,
                       epoch_slots=self.num_workers,
                       slot=self.worker, generation=self.spec.generation,
                       replay=self.spec.replay, exist_ok=self.spec.replay)
        # Claim every adopted identity's epoch slot, so a stale
        # predecessor of any of them self-detects as superseded.
        for ident in self.identities:
            arr.set_epoch(ident, self.spec.generation)
        if create and self.alloc_fn is not None:
            # Checkpointing only: tell the supervisor the segment's name
            # and geometry so it can attach and snapshot.  alloc_fn is
            # None when checkpointing is off — no message, no cost.
            self.alloc_fn(seq, name, dims)
        return arr

    def read_shared(self, arr: ShmArray, indices: tuple) -> Any:
        return arr.read(indices, timeout_s=self.read_timeout_s,
                        spin_ceiling_s=self.spin_ceiling_s,
                        on_stall=self.stall_fn, on_spin=self._on_spin)

    def write_shared(self, arr: ShmArray, indices: tuple, value: Any) -> None:
        arr.write(indices, value)

    def cleanup(self) -> None:
        for arr in self.shared_arrays:
            arr.close()


def _worker_main(program, graph, spec: _WorkerSpec, num_workers, run_tag,
                 page_size, entry, args, conn, manifest_path,
                 read_timeout_s, spin_ceiling_s, plan,
                 report_allocs=False) -> None:
    # Fork inherits the parent's SIGTERM→KeyboardInterrupt handler; a
    # terminated worker should just die, not unwind through it.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass
    injector = FaultInjector(plan, spec.slot, generation=spec.generation)
    manifest = ShmManifest(manifest_path, run_tag)

    def stall_fn(info: dict) -> None:
        # Timestamp worker-side with the system-wide monotonic clock so
        # the supervisor can reason about *when* the spin provably
        # covered an instant (pipe latency must not widen the
        # interval — the deadlock quorum's soundness depends on it).
        now = time.monotonic()
        info = dict(info)
        info["t_spin_start"] = now - info["waited_s"]
        info["t_report"] = now
        conn.send(("stall", spec.slot, spec.generation, info))

    alloc_fn = None
    if report_allocs:
        def alloc_fn(seq: int, name: str, dims: tuple) -> None:
            conn.send(("alloc", spec.slot, spec.generation,
                       (seq, name, dims)))

    interp = _WorkerInterpreter(program, graph, spec, num_workers,
                                run_tag, page_size, entry,
                                manifest=manifest, injector=injector,
                                read_timeout_s=read_timeout_s,
                                spin_ceiling_s=spin_ceiling_s,
                                stall_fn=stall_fn, alloc_fn=alloc_fn)
    t0 = time.perf_counter()
    try:
        result = interp.run(tuple(args), materialize=False)
        injector.fire("result")
        if 0 in spec.identities:
            value = result.value
            if isinstance(value, ShmArray):
                # Other workers may still be writing; the parent attaches
                # and snapshots only after every worker reports done.
                conn.send(("result", spec.slot, spec.generation,
                           ("array", (value.name, value.dims))))
            else:
                conn.send(("result", spec.slot, spec.generation,
                           ("ok", value)))
        conn.send(("done", spec.slot, spec.generation,
                   interp.telemetry(time.perf_counter() - t0)))
    except WorkerSuperseded as exc:
        # A successor generation owns this subrange now; exit quietly.
        conn.send(("superseded", spec.slot, spec.generation, str(exc)))
    except BaseException as exc:  # noqa: BLE001 - must cross the process
        import traceback

        conn.send(("err", spec.slot, spec.generation,
                   f"{type(exc).__name__}: {exc}\n"
                   f"{traceback.format_exc()[-_TRACEBACK_TAIL:]}"))
    finally:
        interp.cleanup()


@dataclass
class _Rec:
    """Supervisor-side record of one worker process and its pipe."""

    spec: _WorkerSpec
    proc: Any
    conn: Any  # read end of the worker's one-way pipe; closed at EOF


def run_parallel(program_ast: A.Program, args: tuple = (), workers: int = 2,
                 entry: str = "main", page_size: int = 32,
                 timeout_s: float = 120.0,
                 config: ParallelConfig | None = None,
                 faults=None, ckpt=None, restore=None) -> ParallelResult:
    """Execute ``program_ast`` on real, supervised, self-healing processes.

    Retriable worker failures (``crash``/``lost``) are healed by the
    recovery layer when ``config.recovery`` is on (the default):
    respawns with deterministic backoff, then degraded-mode takeover on
    per-worker retry exhaustion (see :mod:`repro.parallel.recovery`).
    Unrecoverable runs raise :class:`ParallelExecutionError` (an
    :class:`ExecutionError`) carrying one :class:`WorkerFailure` per
    failed worker plus the :class:`RecoveryLog`; a partial result is
    never returned.  ``faults`` takes a spec string or
    :class:`FaultPlan` (``None`` defers to ``config.fault_spec``, then
    the ``PODS_FAULTS`` environment variable).  ``KeyboardInterrupt``
    and SIGTERM terminate the workers, reclaim every shared segment via
    the manifest, and re-raise.
    """
    cfg = config or ParallelConfig(workers=workers, page_size=page_size,
                                   timeout_s=timeout_s)
    plan = resolve_plan(faults if faults is not None else cfg.fault_spec)
    policy = RetryPolicy.from_config(cfg)
    nw = cfg.workers

    graph = build_graph(program_ast, entry=entry)
    partition(graph)

    run_tag = f"pods{os.getpid()}_{int(time.monotonic_ns() % 1_000_000_000)}"
    manifest = ShmManifest.create(run_tag)
    ctx = mp.get_context("fork")

    rlog = RecoveryLog()
    t0_mono = time.monotonic()

    def t() -> float:
        return time.monotonic() - t0_mono

    active: dict[int, _Rec] = {}
    recs: list[_Rec] = []  # every generation ever started
    pending_spawns: list[tuple[float, _WorkerSpec]] = []
    completed: dict[int, dict] = {}
    remaining: set[int] = set(range(nw))
    retries_used: dict[int, int] = {}
    total_retries = 0
    # slot -> (t_spin_start, t_report, generation, info) latest stall
    stalls: dict[int, tuple] = {}
    # When the latest ``done`` was handled: a stall reported before it
    # is no deadlock evidence (see check_deadlock).
    stall_floor = 0.0
    failures: list[WorkerFailure] = []
    result_msg: tuple | None = None
    fatal_message: str | None = None
    # Checkpointing only: allocation ordinal -> (segment name, dims),
    # reported by workers so the supervisor can attach and snapshot.
    allocs: dict[int, tuple[str, tuple]] = {}

    def spawn(spec: _WorkerSpec) -> None:
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(program_ast, graph, spec, nw, run_tag, cfg.page_size,
                  entry, args, writer, manifest.path, cfg.read_timeout_s,
                  cfg.spin_ceiling_s, plan, ckpt is not None))
        proc.start()
        # Closed before the next fork, so the worker holds the only write
        # end: its exit, even mid-message, is always EOF on ``reader``.
        writer.close()
        rec = _Rec(spec=spec, proc=proc, conn=reader)
        recs.append(rec)
        active[spec.slot] = rec
        stalls.pop(spec.slot, None)

    def fail(rec: _Rec, wf: WorkerFailure) -> None:
        nonlocal total_retries, fatal_message
        rlog.record(RecoveryEvent(
            t(), "failure", wf.worker, wf.generation,
            detail=f"{wf.kind} (exitcode "
                   f"{'?' if wf.exitcode is None else wf.exitcode})"))
        if not policy.enabled or wf.kind not in _RETRIABLE:
            failures.append(wf)
            return
        spec = rec.spec
        total_retries += 1
        if total_retries > policy.max_retries_total:
            fatal_message = (f"recovery budget exhausted "
                             f"({policy.max_retries_total} retries)")
            failures.append(wf)
            return
        slot = spec.slot
        attempt = retries_used.get(slot, 0) + 1
        retries_used[slot] = attempt
        if attempt <= policy.max_retries_per_worker:
            delay = policy.backoff_s(slot, attempt)
            newspec = replace(spec, generation=spec.generation + 1,
                              kind="respawn", replay=True)
            pending_spawns.append((time.monotonic() + delay, newspec))
            rlog.record(RecoveryEvent(
                t(), "respawn", slot, newspec.generation,
                detail=(f"attempt {attempt}/{policy.max_retries_per_worker}"
                        f" after {wf.kind}; backoff {delay * 1e3:.0f} ms"),
                dur_s=delay))
            log.info("pods.parallel: respawning worker %d (generation %d) "
                     "after %s", slot, newspec.generation, wf.kind)
            return
        # Per-worker budget exhausted: reassign the orphaned identities.
        rlog.record(RecoveryEvent(
            t(), "exhausted", slot, spec.generation,
            detail=f"{policy.max_retries_per_worker} retries used"))
        ids = set(spec.identities)
        gens = [spec.generation]
        keep = []
        for due, s in pending_spawns:
            if s.kind == "takeover":
                # Merge not-yet-started takeovers into one.
                ids.update(s.identities)
                gens.append(s.generation)
            else:
                keep.append((due, s))
        pending_spawns[:] = keep
        survivors = sorted(set(active) | set(completed))
        if not survivors and not keep:
            fatal_message = ("all workers exhausted their retry budget; "
                            "no survivor to take over")
            failures.append(wf)
            return
        delay = policy.backoff_s(slot, attempt)
        newspec = _WorkerSpec(slot=min(ids), identities=tuple(sorted(ids)),
                              generation=max(gens) + 1, kind="takeover",
                              replay=True)
        pending_spawns.append((time.monotonic() + delay, newspec))
        rlog.record(RecoveryEvent(
            t(), "takeover", newspec.slot, newspec.generation,
            detail=(f"identities {newspec.identities} reassigned after "
                    f"worker {slot} exhausted retries; survivors "
                    f"{survivors}"),
            dur_s=delay))
        log.warning(
            "pods.parallel: DEGRADED MODE — worker %d exhausted its retry "
            "budget; subrange identities %s reassigned to a recovery "
            "worker (generation %d)", slot, newspec.identities,
            newspec.generation)

    def handle(msg: tuple) -> None:
        nonlocal result_msg, stall_floor
        tag, slot, gen, payload = msg
        if tag == "alloc":
            # Any generation may report: allocation order is
            # deterministic, so ordinal -> segment is stable.
            seq, name, dims = payload
            allocs.setdefault(seq, (name, tuple(dims)))
            return
        if tag == "superseded":
            rlog.record(RecoveryEvent(t(), "superseded", slot, gen,
                                      detail=str(payload)))
            return
        rec = active.get(slot)
        if rec is None or rec.spec.generation != gen:
            return  # stale generation: a zombie predecessor's late message
        if tag == "result":
            result_msg = payload
        elif tag == "done":
            completed[slot] = payload
            remaining.difference_update(rec.spec.identities)
            del active[slot]
            # It may have satisfied a blocked read after a stall report
            # (pipes do not order one worker's messages against
            # another's), so only later reports are deadlock evidence;
            # truly blocked workers re-report at the next ceiling.
            stall_floor = time.monotonic()
        elif tag == "err":
            del active[slot]
            fail(rec, WorkerFailure(slot, exitcode=None, kind="error",
                                    detail=payload, generation=gen))
        elif tag == "stall":
            stalls[slot] = (payload["t_spin_start"], payload["t_report"],
                            gen, payload)
            rlog.record(RecoveryEvent(
                t(), "stall", slot, gen,
                detail=(f"{payload['array']}{payload['indices']} "
                        f"(segment owner: worker {payload['owner']}) "
                        f"waited {payload['waited_s']:.3f}s")))

    def check_deadlock() -> None:
        """Abort when every live worker is provably blocked at once.

        Each stall report carries the interval [spin start, report time]
        during which its worker was certainly inside a deferred-read
        spin (worker-side monotonic timestamps).  Only intervals ending
        after the latest completion was handled (``stall_floor``) count:
        the completed worker may have written the awaited element after
        an earlier report.  If every live worker's latest interval
        shares a common instant, the last such instant comes after every
        completed worker's final write, so at it no process that could
        ever produce a write was running — only workers write — and the
        blocked reads can never be satisfied: deadlock, reported
        causally instead of after ``read_timeout_s``.
        """
        nonlocal fatal_message
        if failures or pending_spawns or not active:
            return
        intervals = []
        for slot, rec in active.items():
            iv = stalls.get(slot)
            if iv is None or iv[2] != rec.spec.generation \
                    or iv[1] < stall_floor:
                return  # this worker is not provably blocked
            intervals.append((slot, iv))
        lo = max(iv[0] for _, iv in intervals)
        hi = min(iv[1] for _, iv in intervals)
        if lo > hi:
            return
        for slot, iv in sorted(intervals):
            info = iv[3]
            failures.append(WorkerFailure(
                slot, exitcode=None, kind="stall",
                detail=(f"blocked on {info['array']}{info['indices']} "
                        f"(segment owner: worker {info['owner']}) for "
                        f"{info['waited_s']:.3f}s"),
                generation=active[slot].spec.generation))
        fatal_message = ("every live worker blocked in a deferred-read "
                         "spin (missing write -> deadlock)")

    def drain(rec: _Rec) -> None:
        """Handle every message waiting in ``rec``'s pipe; close at EOF."""
        try:
            while rec.conn.poll():
                handle(rec.conn.recv())
        except (EOFError, OSError):  # a torn last frame is EOF too
            rec.conn.close()

    def exited(rec: _Rec) -> None:
        """At EOF, sentinel fired, no ``done``: crashed or lost."""
        rec.proc.join()
        code = rec.proc.exitcode
        del active[rec.spec.slot]
        fail(rec, WorkerFailure(
            rec.spec.slot, exitcode=code,
            kind="lost" if code == 0 else "crash",
            detail="exited without reporting a result",
            generation=rec.spec.generation))

    def do_snapshot(now: float | None = None) -> None:
        """Snapshot every reported segment into the checkpoint store.

        Monotonicity makes this safe with zero coordination: presence
        flags only flip on and the value is stored before the flag, so
        a concurrent dump sees each element either absent or complete.
        """
        arrays = []
        for seq in sorted(allocs):
            name, dims = allocs[seq]
            try:
                arr = ShmArray(name, dims, create=False,
                               page_size=cfg.page_size, epoch_slots=nw,
                               attach_timeout_s=0.5)
            except ExecutionError:
                continue  # torn down already; skip this snapshot's view
            try:
                arrays.append((seq, dims, cfg.page_size, arr.dump()))
            finally:
                arr.close()
        done = set(range(nw)) - remaining
        try:
            ckpt.snapshot(arrays, done, nw, now=now)
        except OSError as exc:  # pragma: no cover - disk trouble
            log.warning("pods.ckpt: snapshot failed: %s", exc)

    def _sigterm(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt("SIGTERM")

    try:
        prev_handler = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread
        prev_handler = None

    start = time.perf_counter()
    deadline = time.monotonic() + cfg.timeout_s
    try:
        if restore is not None:
            # Pre-create and seed every checkpointed segment under the
            # names replay allocation will derive (allocation ordinal is
            # deterministic), so workers attach instead of creating and
            # every pre-seeded write becomes a presence-bit verify.
            for ordinal in restore.ordinals():
                dims, elements = restore.array(ordinal)
                name = f"{run_tag}_{ordinal}"
                manifest.record(name)
                arr = ShmArray(name, dims, create=True,
                               page_size=cfg.page_size, epoch_slots=nw)
                try:
                    for off, value in elements.items():
                        arr.seed(off, value)
                finally:
                    arr.close()
                allocs[ordinal] = (name, dims)
        for w in range(nw):
            spawn(_WorkerSpec(slot=w, identities=(w,),
                              replay=restore is not None))
        while True:
            check_deadlock()
            if failures or not remaining:
                break
            now = time.monotonic()
            if ckpt is not None and ckpt.due(now):
                do_snapshot(now)
            due = [s for d, s in pending_spawns if d <= now]
            if due:
                pending_spawns[:] = [(d, s) for d, s in pending_spawns
                                     if d > now]
                for s in due:
                    spawn(s)
            if now >= deadline:
                for slot in sorted(active):
                    rec = active.pop(slot)
                    failures.append(WorkerFailure(
                        slot, exitcode=None, kind="hang",
                        detail=f"still running at the {cfg.timeout_s:g}s "
                               "deadline; terminated",
                        generation=rec.spec.generation))
                for _, s in pending_spawns:
                    failures.append(WorkerFailure(
                        s.slot, exitcode=None, kind="hang",
                        detail="recovery respawn still pending at the run "
                               "deadline",
                        generation=s.generation))
                pending_spawns.clear()
                break
            if not active and not pending_spawns:
                fatal_message = ("no live worker or pending respawn covers "
                                 f"identities {sorted(remaining)}")
                failures.append(WorkerFailure(
                    min(remaining), exitcode=None, kind="lost",
                    detail="identity left uncovered (supervisor invariant "
                           "violation)"))
                break
            # Every generation's pipe is read to EOF; a live worker's
            # sentinel is watched once its pipe is closed.
            wake = min([deadline, *(d for d, _ in pending_spawns)]
                       + ([ckpt.next_due] if ckpt is not None else []))
            watch = {rec.conn: rec for rec in recs if not rec.conn.closed}
            watch.update((rec.proc.sentinel, rec)
                         for rec in active.values() if rec.conn.closed)
            for obj in connection.wait(list(watch), timeout=wake - now):
                rec = watch[obj]
                if obj is rec.conn:
                    drain(rec)
                elif active.get(rec.spec.slot) is rec:
                    exited(rec)
        wall = time.perf_counter() - start

        if failures:
            if fatal_message is not None:
                message = f"parallel run failed: {fatal_message}"
            else:
                hung = [f.worker for f in failures if f.kind == "hang"]
                if hung and len(hung) == len(failures):
                    message = (f"parallel run timed out after "
                               f"{cfg.timeout_s:g}s; unjoined workers: "
                               f"{hung}")
                else:
                    message = (f"parallel run failed: {len(failures)} "
                               "worker failure(s) were not recoverable")
            raise ParallelExecutionError(message, failures, recovery=rlog)

        if result_msg is None:
            raise ParallelExecutionError(
                "worker 0 completed without producing a result",
                [WorkerFailure(0, exitcode=None, kind="lost",
                               detail="no result message received")],
                recovery=rlog)

        status, payload = result_msg
        if status == "array":
            name, dims = payload
            arr = ShmArray(name, tuple(dims), create=False,
                           page_size=cfg.page_size, epoch_slots=nw)
            try:
                payload = arr.to_value()
            finally:
                arr.close()
        if ckpt is not None:
            do_snapshot()  # final cut: the complete run, restartable
        stats = [WorkerTelemetry.from_dict(w, completed.get(w, {}))
                 for w in range(nw)]
        rlog.replayed_elements = sum(s.replayed_present for s in stats)
        registry = telemetry_registry(stats)
        rlog.to_registry(registry)
        ckpt_info = ckpt.stats() if ckpt is not None else None
        if restore is not None:
            ckpt_info = dict(ckpt_info or {})
            ckpt_info["restored_elements"] = restore.total_elements
            ckpt_info["resumed_from"] = restore.id
        if ckpt_info:
            for key in ("snapshots", "elements", "restored_elements"):
                if ckpt_info.get(key):
                    registry.inc(f"ckpt.{key}", ckpt_info[key])
        return ParallelResult(value=payload, wall_time_s=wall, workers=nw,
                              worker_stats=stats, registry=registry,
                              recovery=rlog, ckpt=ckpt_info)
    except KeyboardInterrupt:
        # SIGTERM/interrupt drain: one last consistent cut before the
        # finally clause reclaims every shared segment.
        if ckpt is not None and allocs:
            do_snapshot()
        raise
    finally:
        # Uniform teardown for success, failure, and interrupt alike:
        # stop every process ever started, close its pipe after the
        # join (no worker meets a broken pipe), and reclaim all shared
        # segments via the manifest (plus prefix sweep).
        for rec in recs:
            if rec.proc.is_alive():
                rec.proc.terminate()
        for rec in recs:
            rec.proc.join(timeout=5.0)
            if rec.proc.is_alive():  # pragma: no cover - terminate refused
                rec.proc.kill()
                rec.proc.join()
            rec.conn.close()
        manifest.cleanup()
        if prev_handler is not None:
            try:
                signal.signal(signal.SIGTERM, prev_handler)
            except ValueError:  # pragma: no cover
                pass
