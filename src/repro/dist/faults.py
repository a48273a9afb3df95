"""Deterministic fault injection for the distributed backend.

The transport (:mod:`repro.dist.transport`) and the node-loss machinery
(:mod:`repro.dist.coordinator`) exist to survive a hostile network;
these hooks make the hostility reproducible.  A plan is a spec string in
the shared grammar of :mod:`repro.common.faultplan` (also read from the
``PODS_DIST_FAULTS`` environment variable — its own variable, so a chaos
soak cannot poison the parallel or simulator dialects), with the
distributed vocabulary:

Frame-level actions, applied at the sending node's transmit boundary
(retransmissions pass through the injector again, so a healed loss is a
*genuine* retransmission, not a bookkeeping fiction):

* ``drop``  — the outgoing frame copy is lost (reliable frames heal by
  retransmission; heartbeats are simply missed);
* ``delay`` — the frame is held for ``seconds`` before hitting the wire;
* ``partition:a=A,b=B[,at=T,dur=S]`` — every frame between nodes A and B
  (both directions — each side's injector matches its own sends) is
  dropped during the window ``[T, T+S)`` measured from node start
  (``dur=0`` = forever).  A window shorter than the retransmit budget's
  reach heals; a longer one becomes a node-loss.

Frame qualifiers: ``src=``/``dst=`` restrict to one sender/receiver
(``dst=-1`` is the coordinator link), ``kind=`` to one frame class
(``data``, ``ack``, ``hb``), ``after=N`` skips the first N matching
frames, ``count=K`` arms the fault for K matches (0 = unlimited).

Process-level action:

* ``node-kill:node=K[,on=E,after=N,gen=G,exitcode=C]`` — ``os._exit``
  at the N-th trigger of event ``E`` (``iter``, ``write``, ``result``,
  ``hb``), the distributed twin of the parallel dialect's ``kill``.
  ``gen`` restricts to one executor generation on that node (1 = the
  original, 2+ = takeover replays, 0 = all — which with a kill exhausts
  the takeover budget).
* ``coord-kill[:on=E,after=N,exitcode=C]`` — ``os._exit`` the *primary
  coordinator process* at the N-th coordinator-side trigger of event
  ``E`` (``start`` = after the start broadcast, ``hb`` = a heartbeat
  arriving, ``done`` = a done report, ``result`` = the result report).
  Only the primary arms the clause — the promoted standby never
  re-fires it, so the scenario tests exactly one failover.  Requires
  ``DistConfig.failover`` (the default); with the inline coordinator
  the kill would take the whole client down.

Parsing is strict (``ValueError`` naming the offending clause); plans
are a test/chaos instrument, not production configuration.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.common import faultplan

DEFAULT_KILL_EXITCODE = 113  # same convention as repro.parallel.faults

FRAME_ACTIONS = ("drop", "delay", "partition")
KILL_ACTIONS = ("node-kill",)
COORD_ACTIONS = ("coord-kill",)

FRAME_KINDS = ("data", "ack", "hb")
KILL_EVENTS = ("iter", "write", "result", "hb")
COORD_EVENTS = ("start", "hb", "done", "result")

ANY = -2  # -1 is the coordinator address, so "any" sits below it

_SCHEMA = {
    "src": int, "dst": int, "kind": str, "after": int, "count": int,
    "seconds": float,
    "a": int, "b": int, "at": float, "dur": float,
    "node": int, "on": str, "gen": int, "exitcode": int,
}

DELAY_DEFAULT_S = 0.5


@dataclass(frozen=True)
class DistFault:
    """One clause of a distributed fault plan."""

    action: str
    # frame-fault qualifiers
    src: int = ANY
    dst: int = ANY
    kind: str = ""
    after: int = 0
    count: int = 1
    seconds: float = 0.0
    # partition qualifiers
    a: int = ANY
    b: int = ANY
    at: float = 0.0
    dur: float = 0.0
    # node-kill qualifiers
    node: int = ANY
    on: str = ""
    gen: int = 1
    exitcode: int = DEFAULT_KILL_EXITCODE

    def __post_init__(self) -> None:
        if self.action not in FRAME_ACTIONS + KILL_ACTIONS + COORD_ACTIONS:
            raise ValueError(f"unknown dist fault action {self.action!r}")
        if self.action == "coord-kill":
            if not self.on:
                object.__setattr__(self, "on", "start")
            if self.on not in COORD_EVENTS:
                raise ValueError(
                    f"unknown coord-kill trigger {self.on!r}")
            if self.after < 0:
                raise ValueError("fault after must be >= 0")
            return
        if self.action in ("drop", "delay"):
            if self.kind and self.kind not in FRAME_KINDS:
                raise ValueError(f"unknown frame kind {self.kind!r}")
            if self.after < 0:
                raise ValueError("fault after must be >= 0")
            if self.count < 0:
                raise ValueError("fault count must be >= 0")
            if self.seconds < 0:
                raise ValueError("fault seconds must be >= 0")
            if self.action == "delay" and self.seconds == 0.0:
                object.__setattr__(self, "seconds", DELAY_DEFAULT_S)
        elif self.action == "partition":
            if self.a < 0 or self.b < 0 or self.a == self.b:
                raise ValueError("partition needs distinct a=<n>,b=<n>")
            if self.at < 0 or self.dur < 0:
                raise ValueError("partition at/dur must be >= 0")
        else:  # node-kill
            if self.node < 0:
                raise ValueError("node-kill needs node=<k>")
            if not self.on:
                object.__setattr__(self, "on", "iter")
            if self.on not in KILL_EVENTS:
                raise ValueError(f"unknown kill trigger {self.on!r}")
            if self.after < 0:
                raise ValueError("fault after must be >= 0")
            if self.gen < 0:
                raise ValueError("fault gen must be >= 0")

    def matches_frame(self, src: int, dst: int, kind: str) -> bool:
        return ((self.src == ANY or self.src == src)
                and (self.dst == ANY or self.dst == dst)
                and (not self.kind or self.kind == kind))


@dataclass(frozen=True)
class DistFaultPlan:
    """A parsed set of distributed faults (empty = healthy cluster)."""

    faults: tuple[DistFault, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def frame_faults(self) -> tuple[DistFault, ...]:
        return tuple(f for f in self.faults if f.action in FRAME_ACTIONS)

    def kill_faults(self) -> tuple[DistFault, ...]:
        return tuple(f for f in self.faults if f.action in KILL_ACTIONS)

    def coord_faults(self) -> tuple[DistFault, ...]:
        return tuple(f for f in self.faults if f.action in COORD_ACTIONS)

    @staticmethod
    def parse(spec: str | None) -> "DistFaultPlan":
        """Parse the shared ``action:key=value,...;...`` grammar."""
        if not spec or not spec.strip():
            return DistFaultPlan()
        faults = []
        for action, argstr in faultplan.split_clauses(spec):
            clause = f"{action}:{argstr}" if argstr else action
            kwargs = faultplan.parse_clause_args(argstr, _SCHEMA, clause)
            try:
                faults.append(DistFault(action=action, **kwargs))
            except ValueError as exc:
                raise ValueError(
                    f"bad fault clause {clause!r}: {exc}") from None
        return DistFaultPlan(tuple(faults))

    @staticmethod
    def from_env() -> "DistFaultPlan":
        return faultplan.parse_from_env(faultplan.DIST_ENV_VAR,
                                        DistFaultPlan.parse)


def resolve_dist_plan(faults) -> DistFaultPlan:
    """Coerce ``None`` / spec string / plan into a :class:`DistFaultPlan`.

    ``None`` defers to ``PODS_DIST_FAULTS`` — the distributed dialect's
    own variable, never shadowed by ``PODS_FAULTS``/``PODS_SIM_FAULTS``.
    """
    if faults is None:
        return DistFaultPlan.from_env()
    if isinstance(faults, DistFaultPlan):
        return faults
    if isinstance(faults, str):
        return DistFaultPlan.parse(faults)
    raise ValueError(
        f"cannot build a DistFaultPlan from {type(faults).__name__}")


class DistFaultInjector:
    """One node's runtime for a plan: frame filter + kill triggers.

    Frame decisions are deterministic in traffic order (per-clause
    ``after``/``count`` windows); partitions use a wall-clock window
    from injector construction, which is the honest choice for a
    backend whose failure detector is itself wall-clock driven.  Kill
    counters restart on each executor generation, mirroring the
    parallel dialect (a replay re-executes its subrange from the top).
    """

    def __init__(self, plan: DistFaultPlan, node: int,
                 generation: int = 1) -> None:
        self.node = node
        self._frames = list(plan.frame_faults())
        self._matched = [0] * len(self._frames)
        self._fired = [0] * len(self._frames)
        self._kills_all = list(plan.kill_faults())
        self._t0 = time.monotonic()
        self._counts: dict[str, int] = {}
        self._kills: list[DistFault] = []
        self.set_generation(generation)

    def set_generation(self, generation: int) -> None:
        """Select the kill clauses armed for this executor generation."""
        self._kills = [f for f in self._kills_all
                       if f.node == self.node and f.gen in (0, generation)]
        self._counts = {event: 0 for event in KILL_EVENTS}

    # -- frame filter (transport transmit boundary) ----------------------

    def decide_frame(self, dst: int, kind: str) -> tuple[bool, float]:
        """(drop, extra delay seconds) for one outgoing frame."""
        if not self._frames:
            return False, 0.0
        drop = False
        delay_s = 0.0
        now = time.monotonic() - self._t0
        for i, f in enumerate(self._frames):
            if f.action == "partition":
                if ({self.node, dst} == {f.a, f.b}
                        and now >= f.at
                        and (f.dur == 0.0 or now < f.at + f.dur)):
                    drop = True
                continue
            if not f.matches_frame(self.node, dst, kind):
                continue
            seq = self._matched[i]
            self._matched[i] = seq + 1
            if seq < f.after:
                continue
            if f.count and self._fired[i] >= f.count:
                continue
            self._fired[i] += 1
            if f.action == "drop":
                drop = True
            else:
                delay_s += f.seconds
        return drop, delay_s

    # -- kill triggers (interpreter / heartbeat hooks) -------------------

    def arms(self, event: str) -> bool:
        """Whether a kill clause of this node, in any generation, triggers
        on ``event`` (executors skip the hook call entirely otherwise)."""
        return any(f.node == self.node and f.on == event
                   for f in self._kills_all)

    def fire(self, event: str) -> None:
        if not self._kills:
            return
        count = self._counts[event]
        self._counts[event] = count + 1
        for f in self._kills:
            if f.on != event or count != f.after:
                continue
            # Die like a power loss: no cleanup, no goodbye frame.
            os._exit(f.exitcode)


class CoordKillSwitch:
    """``coord-kill`` runtime, armed only inside the primary coordinator.

    The promoted standby constructs its supervisor without a plan, so a
    clause fires at most once per run — the failover itself is what the
    scenario measures.
    """

    def __init__(self, plan: DistFaultPlan | None) -> None:
        self._kills = list(plan.coord_faults()) if plan else []
        self._counts = {event: 0 for event in COORD_EVENTS}

    def __bool__(self) -> bool:
        return bool(self._kills)

    def fire(self, event: str) -> None:
        if not self._kills:
            return
        count = self._counts[event]
        self._counts[event] = count + 1
        for f in self._kills:
            if f.on != event or count != f.after:
                continue
            # Same power-loss semantics as node-kill: no result frame,
            # no shutdown broadcast, the listening socket just vanishes.
            os._exit(f.exitcode)
