"""Self-healing policy and bookkeeping for the real-parallel backend.

PODS' single-assignment discipline makes recovery unusually cheap: an
I-structure element is written at most once, so re-running a dead
worker's Range-Filter subrange against the same shared segments is
*idempotent* — elements the predecessor already produced are simply
observed present (and value-checked) instead of recomputed, and the
replay fills in exactly the missing suffix.  No rollback, no logging,
no coordination protocol: recovery is plain re-execution.

This module holds the two passive pieces; the supervisor in
:mod:`repro.parallel.executor` drives them:

* :class:`RetryPolicy` — how many times to respawn, with what backoff.
  Jitter is derived deterministically from ``(seed, worker, attempt)``
  so recovery schedules are reproducible run-to-run, matching the
  repo-wide determinism discipline.  It lives in
  :mod:`repro.common.retry` (shared with the distributed backend's
  transport).
* :class:`RecoveryLog` — what actually happened: an ordered event list
  (respawns, takeovers, stall reports, supersessions), aggregate
  counters, and exporters into the shared
  :class:`repro.obs.MetricsRegistry` (the ``recovery.*`` family), the
  Perfetto trace, and the ``pods profile`` table.

Escalation ladder (implemented by the supervisor):

1. a retriable :class:`~repro.common.errors.WorkerFailure` (``crash`` or
   ``lost``) → **respawn** the same worker identity after backoff; the
   replay generation bumps the segments' ownership epoch so a half-dead
   predecessor is detectable (:class:`~repro.common.errors.WorkerSuperseded`);
2. per-worker retries exhausted → **takeover**: the orphaned identity is
   adopted by a fresh degraded-mode process (grouped with other orphans),
   using the same first-element-ownership math — an identity, not a
   process, owns a subrange;
3. global retry budget exhausted, or a non-retriable failure (``error``,
   ``hang``, ``stall``) → abort with
   :class:`~repro.common.errors.ParallelExecutionError` carrying the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EVENT_KINDS", "RecoveryEvent", "RecoveryLog"]

# Event kinds recorded by the supervisor, in the order they typically
# appear.  ``failure`` covers every WorkerFailure observed (including
# the ones recovery then heals); ``respawn``/``takeover`` are the two
# healing actions; ``stall`` is a deferred-read watchdog report;
# ``superseded`` is a zombie generation exiting on its own; ``exhausted``
# marks a worker whose per-identity retry budget ran out.
EVENT_KINDS = ("failure", "respawn", "takeover", "stall", "superseded",
               "exhausted", "failover")


@dataclass(frozen=True)
class RecoveryEvent:
    """One entry in the recovery timeline.

    ``t_s`` is seconds since the run started (supervisor clock),
    ``worker`` the slot the event concerns, ``generation`` the execution
    generation involved, ``detail`` a short human-readable qualifier and
    ``dur_s`` an optional span length (backoff waits, takeover spans).
    """

    t_s: float
    kind: str
    worker: int
    generation: int = 1
    detail: str = ""
    dur_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown recovery event kind {self.kind!r}")

    def describe(self) -> str:
        line = (f"[{self.t_s:8.3f}s] {self.kind:<10} worker {self.worker} "
                f"gen {self.generation}")
        if self.detail:
            line += f"  {self.detail}"
        return line


@dataclass
class RecoveryLog:
    """Ordered record of everything the recovery layer did in one run."""

    events: list[RecoveryEvent] = field(default_factory=list)
    respawns: int = 0
    takeovers: int = 0
    stall_reports: int = 0
    supersessions: int = 0
    failures_seen: int = 0
    backoff_total_s: float = 0.0
    replayed_elements: int = 0

    def record(self, event: RecoveryEvent) -> None:
        self.events.append(event)
        if event.kind == "respawn":
            self.respawns += 1
            self.backoff_total_s += event.dur_s
        elif event.kind == "takeover":
            self.takeovers += 1
            self.backoff_total_s += event.dur_s
        elif event.kind == "stall":
            self.stall_reports += 1
        elif event.kind == "superseded":
            self.supersessions += 1
        elif event.kind == "failure":
            self.failures_seen += 1

    @property
    def healed(self) -> bool:
        """Whether any healing action (respawn/takeover) happened."""
        return bool(self.respawns or self.takeovers)

    def to_registry(self, registry) -> None:
        """Fold into a :class:`repro.obs.MetricsRegistry`.

        Rows are emitted only for nonzero values so a zero-fault run's
        registry is byte-identical with recovery enabled or disabled —
        the cross-backend differential and bench goldens depend on it.
        """
        pairs = (
            ("recovery.respawns", self.respawns),
            ("recovery.takeovers", self.takeovers),
            ("recovery.stall_reports", self.stall_reports),
            ("recovery.supersessions", self.supersessions),
            ("recovery.failures_seen", self.failures_seen),
            ("recovery.replayed_elements", self.replayed_elements),
        )
        for name, value in pairs:
            if value:
                registry.inc(name, value)
        if self.backoff_total_s > 0:
            registry.observe("recovery.backoff_s", self.backoff_total_s)

    def table(self) -> str:
        """Render the recovery timeline for ``pods profile``."""
        lines = ["recovery", "--------"]
        if not self.events:
            lines.append("(no recovery activity)")
            return "\n".join(lines)
        lines.extend(e.describe() for e in self.events)
        lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        parts = [f"failures={self.failures_seen}",
                 f"respawns={self.respawns}",
                 f"takeovers={self.takeovers}"]
        if self.stall_reports:
            parts.append(f"stall_reports={self.stall_reports}")
        if self.supersessions:
            parts.append(f"supersessions={self.supersessions}")
        if self.replayed_elements:
            parts.append(f"replayed_elements={self.replayed_elements}")
        if self.backoff_total_s > 0:
            parts.append(f"backoff_s={self.backoff_total_s:.3f}")
        return " ".join(parts)
