"""Deterministic fault injection for the real-parallel backend.

The supervisor in :mod:`repro.parallel.executor` exists to turn worker
death into structured errors; these hooks exist to *cause* worker death
on demand so the failure paths are testable.  A fault plan is a list of
faults, each bound to one worker and one trigger event:

* ``kill``  — ``os._exit`` with a nonzero code (a crash the parent sees
  only through the exitcode, like a segfault or OOM kill);
* ``hang``  — sleep for ``seconds`` (a stuck worker the parent must
  time out and terminate);
* ``drop``  — ``os._exit(0)`` (a clean exit that never delivers its
  result/telemetry message — a "lost" worker);
* ``delay`` — sleep ``seconds`` before every matching event from
  ``after`` onward (slow writes widening race windows).

Trigger events, counted per worker:

* ``iter``   — one distributed-loop iteration is about to run;
* ``write``  — one shared-array write is about to happen;
* ``result`` — the worker is about to send its result/telemetry;
* ``spin``   — a deferred read just found its element absent and is
  about to start spinning.

Each fault also carries a generation qualifier ``gen``: 1 (the default)
fires only in a worker's first execution, ``gen=k`` only in its *k*-th
(recovery respawns/takeovers count up from 2 — ``gen=2`` is the
crash-on-respawn idiom), and ``gen=0`` fires in every generation (which
with ``kill`` exhausts the retry budget).  Event counts restart from
zero in each generation, since a replay re-executes the subrange from
the top.

Plans parse from a compact spec string (also accepted via the
``PODS_FAULTS`` environment variable)::

    kill:worker=1,on=iter,after=3
    hang:worker=0,seconds=60;drop:worker=2
    kill:worker=1,on=write,after=2,gen=2

Recovery-path idioms: ``kill:worker=K,on=write,after=N`` crashes
mid-write (after N completed writes), ``kill:worker=K,gen=2`` crashes
the respawn, ``hang:worker=K,on=spin`` hangs a worker inside a
deferred-read spin.

Faults are a test/bench instrument: parsing is strict and raises
``ValueError`` on anything malformed rather than guessing.

The spec syntax (clause splitting, key=value parsing, env handling) is
the shared grammar of :mod:`repro.common.faultplan`; the simulated
machine's network faults (:mod:`repro.sim.netfaults`) speak the same
dialect with a different action vocabulary.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.common import faultplan

DEFAULT_KILL_EXITCODE = 113

_ACTIONS = ("kill", "hang", "drop", "delay")
_EVENTS = ("iter", "write", "result", "spin")
_DEFAULT_EVENT = {"kill": "iter", "hang": "iter", "drop": "result",
                  "delay": "write"}

# The parallel dialect's qualifier schema (see common/faultplan.py).
_SCHEMA = {"worker": int, "after": int, "exitcode": int, "gen": int,
           "seconds": float, "on": str}


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``action`` on ``worker`` at trigger ``on``.

    ``gen`` restricts the fault to one execution generation of the
    worker (1 = original launch, 2+ = recovery replays, 0 = all).
    """

    action: str
    worker: int
    on: str = ""
    after: int = 0
    seconds: float = 60.0
    exitcode: int = DEFAULT_KILL_EXITCODE
    gen: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not self.on:
            object.__setattr__(self, "on", _DEFAULT_EVENT[self.action])
        if self.on not in _EVENTS:
            raise ValueError(f"unknown fault trigger {self.on!r}")
        if self.worker < 0:
            raise ValueError("fault worker must be >= 0")
        if self.after < 0:
            raise ValueError("fault after must be >= 0")
        if self.gen < 0:
            raise ValueError("fault gen must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A set of faults for one run (empty = normal operation)."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @staticmethod
    def parse(spec: str | None) -> "FaultPlan":
        """Parse ``action:key=value,...[;action:...]`` into a plan."""
        if not spec or not spec.strip():
            return FaultPlan()
        faults = []
        for action, argstr in faultplan.split_clauses(spec):
            clause = f"{action}:{argstr}" if argstr else action
            kwargs = faultplan.parse_clause_args(argstr, _SCHEMA, clause)
            if "worker" not in kwargs:
                raise ValueError(f"fault {clause!r} needs worker=<k>")
            try:
                faults.append(Fault(action=action, **kwargs))
            except ValueError as exc:
                # Name the offending clause: an unknown action or a bad
                # qualifier combination must be findable in a multi-
                # clause spec (and, via from_env, in the env variable).
                raise ValueError(
                    f"bad fault clause {clause!r}: {exc}") from None
        return FaultPlan(tuple(faults))

    @staticmethod
    def from_env() -> "FaultPlan":
        return faultplan.parse_from_env(faultplan.PARALLEL_ENV_VAR,
                                        FaultPlan.parse)


def resolve_plan(faults) -> FaultPlan:
    """Coerce ``None`` / spec string / plan into a :class:`FaultPlan`.

    ``None`` defers to the ``PODS_FAULTS`` environment variable so a
    whole test process (or a chaos soak) can inject faults without
    threading arguments through every call site.
    """
    if faults is None:
        return FaultPlan.from_env()
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return FaultPlan.parse(faults)
    raise ValueError(f"cannot build a FaultPlan from {type(faults).__name__}")


class FaultInjector:
    """Per-worker runtime that fires the plan's faults at their triggers.

    Instantiated inside the worker process; ``fire`` is called from the
    interpreter hot hooks, so the no-fault path is a single truthiness
    check on an empty list.
    """

    def __init__(self, plan: FaultPlan, worker: int,
                 generation: int = 1) -> None:
        self._mine = [f for f in plan.faults
                      if f.worker == worker and f.gen in (0, generation)]
        self._counts = {event: 0 for event in _EVENTS}

    def arms(self, event: str) -> bool:
        """Whether any of this worker's faults triggers on ``event`` (the
        interpreter skips the hook call entirely otherwise)."""
        return any(f.on == event for f in self._mine)

    def fire(self, event: str) -> None:
        if not self._mine:
            return
        count = self._counts[event]
        self._counts[event] = count + 1
        for f in self._mine:
            if f.on != event:
                continue
            if f.action == "delay":
                if count >= f.after:
                    time.sleep(f.seconds)
                continue
            if count != f.after:
                continue
            if f.action == "kill":
                # Bypass interpreter cleanup and atexit — die like a
                # segfaulting process would.
                os._exit(f.exitcode)
            elif f.action == "hang":
                time.sleep(f.seconds)
            elif f.action == "drop":
                os._exit(0)
