"""Distributed chaos driver: the node-loss fault matrix as a check.

Runs a battery of ``PODS_DIST_FAULTS``-dialect plans
(:mod:`repro.dist.faults`) against a real multi-process cluster and
verifies the fault-tolerance contract end to end:

* healed runs (dropped frames, delayed heartbeats, a partition shorter
  than the retransmit budget's reach, a killed node within the takeover
  budget) return values equal to the sequential oracle at 1e-12;
* heartbeat silence fences the slow node and a survivor adopts its
  subranges (``recovery.takeovers >= 1``);
* an exhausted takeover budget raises the structured
  :class:`~repro.common.errors.NodeLossError`
  (``error[NodeLossError/node-loss]``), never a hang;
* SIGTERM drains cleanly: the coordinator tears the cluster down and no
  node process outlives it;
* nothing leaks: after every scenario the process tree, the open-socket
  count and ``/dev/shm`` are back to their pre-scenario state.

Used by the CI ``dist-chaos`` job::

    PYTHONPATH=src python -m repro.dist.chaos --nodes 3 --verbose
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.api import compile_source
from repro.backend import classify_error, get_backend, render_error
from repro.common.chaoslib import (check_leaks, open_sockets, run_matrix,
                                   shm_entries)
from repro.common.config import DistConfig
from repro.common.errors import NodeLossError

# Same shape as the simulator chaos program: row i's readers race row
# i-1's writers, so every run exercises remote reads, owner-side
# deferral and page-grain replies.  Rows split across identity blocks
# also produce cross-identity writes — the traffic whose loss the
# takeover's presence-bit replay must reconstruct.
ROW_SWEEP = """
function main(n) {
    B = matrix(n, n);
    for j = 1 to n { B[1, j] = 1.0 * j; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = B[i - 1, j] * 0.5 + 1.0; }
    }
    s = 0.0;
    for j = 1 to n { next s = s + B[n, j]; }
    return s;
}
"""

N = 8
N_LONG = 16  # long enough that heartbeat silence is detected mid-run
# Long enough that the sweep outlives a timed fault detector by about a
# second: ~1.2 s at 2 and 3 nodes on a 2-core host, against 0.2 s for
# the fence deadline and ~0.03 s for the coordinator kill.
N_SLOW_DETECT = 320

# Recovery knobs tightened so detection/takeover happen within a short
# scenario; production defaults are tuned for real networks, not tests.
FAST_RECOVERY = {
    "heartbeat_interval_s": 0.04,
    "heartbeat_timeout_s": 0.4,
    "poll_interval_s": 0.02,
    "retry_backoff_s": 0.01,
    "retry_backoff_max_s": 0.05,
    "retransmit_timeout_s": 0.05,
}


@dataclass
class Scenario:
    name: str
    faults: str
    n: int = N                          # row-sweep size for this run
    heals: bool = True                  # expect a correct value back
    error_code: str | None = None       # expected taxonomy code when not
    error_type: type | None = None      # expected exception class
    cfg: dict = field(default_factory=dict)      # DistConfig overrides
    expect_min: dict = field(default_factory=dict)  # NetStats attr -> min
    takeovers: tuple = (0, 0)           # (min, max) expected takeovers
    failover: bool = False              # expect a standby promotion
    # When the fault is only detected after a timeout, that deadline: a
    # sweep that ends sooner cannot have exercised the fault.
    detect_s: float = 0.0


def scenarios(nodes: int) -> list[Scenario]:
    slow = nodes - 1  # highest node: never the result-reporting one
    return [
        # Reliable delivery heals frame loss by genuine retransmission.
        Scenario("drop-data", "drop:kind=data,count=4",
                 cfg=dict(FAST_RECOVERY),
                 expect_min={"dropped": 4, "retransmits": 1}),
        # Delayed (not lost) frames: dedup absorbs late retransmitted
        # copies; delivery stays exactly-once.
        Scenario("delay-data", "delay:kind=data,seconds=0.2,count=3",
                 cfg=dict(FAST_RECOVERY),
                 expect_min={"delayed": 3}),
        # Heartbeats delayed past the failure detector's deadline: the
        # node is fenced as a zombie and a survivor takes over, even
        # though the process never crashed.  A run that finishes before
        # the deadline would (correctly) never need the fence.
        Scenario("delay-hb-fence",
                 f"delay:src={slow},kind=hb,seconds=2.0,count=0",
                 n=N_SLOW_DETECT, cfg={**FAST_RECOVERY,
                                       "heartbeat_timeout_s": 0.2,
                                       "read_timeout_s": 15.0},
                 takeovers=(1, nodes - 1), detect_s=0.2),
        # A partition shorter than the retransmit budget's reach heals
        # with no membership change at all.
        Scenario("partition-heal", "partition:a=0,b=1,dur=0.4",
                 cfg={**FAST_RECOVERY, "retransmit_budget": 64,
                      "read_timeout_s": 15.0},
                 expect_min={"retransmits": 1}),
        # A node dies mid-sweep: heartbeat silence -> fence -> takeover
        # re-runs its subranges on a survivor.
        Scenario("node-kill-takeover", "node-kill:node=1,on=iter,after=2",
                 n=N_LONG, cfg=dict(FAST_RECOVERY), takeovers=(1, 1)),
        # A node dies *late*, after survivors already pushed writes into
        # its store: the presence-bit replay (survivor caches) plus the
        # subrange re-execution must reconstruct the lost segment.
        Scenario("late-kill-replay", "node-kill:node=1,on=write,after=30",
                 n=N_LONG, cfg=dict(FAST_RECOVERY), takeovers=(1, 1)),
        # Takeover budget exhausted: the structured error, not a hang.
        Scenario("kill-budget-exhausted",
                 "node-kill:node=1,on=iter,after=2",
                 n=N_LONG, heals=False, error_code="node-loss",
                 error_type=NodeLossError,
                 cfg={**FAST_RECOVERY, "max_takeovers": 0}),
        # The coordinator itself dies mid-run (power-loss semantics: no
        # shutdown broadcast, its listener just vanishes).  The warm
        # standby fences the dead generation, nodes rejoin on the
        # pre-announced standby port with their report memories, and the
        # run completes with no node membership change at all.
        # The sweep must outlive the third heartbeat or the run
        # (correctly) finishes first and no standby promotion is ever
        # needed.
        Scenario("coord-kill-midrun", "coord-kill:on=hb,after=2",
                 n=N_SLOW_DETECT, cfg={**FAST_RECOVERY,
                                       "heartbeat_interval_s": 0.01,
                                       "read_timeout_s": 15.0},
                 failover=True, detect_s=3 * 0.01),
        # The coordinator dies *late* — right as a node's first done
        # report arrives, before the state mutation it announces.  The
        # node's remembered reports resync the promoted standby, so the
        # nearly-complete run still finishes without re-execution.
        Scenario("coord-kill-on-done", "coord-kill:on=done",
                 n=N_LONG, cfg=dict(FAST_RECOVERY), failover=True),
    ]


def _dist_config(nodes: int, faults: str | None = None,
                 **over) -> DistConfig:
    return DistConfig(nodes=nodes, fault_spec=faults, **over)


# -- scenarios ------------------------------------------------------------


def run_scenario(sc: Scenario, nodes: int, oracle_of,
                 verbose: bool) -> list[str]:
    """Run one scenario; return a list of problems (empty = pass)."""
    problems: list[str] = []
    sockets0 = open_sockets()
    shm0 = shm_entries()
    program = compile_source(ROW_SWEEP)
    cfg = _dist_config(nodes, faults=sc.faults, **sc.cfg)

    if not sc.heals:
        try:
            program.run((sc.n,), backend="dist", config=cfg)
        except sc.error_type as exc:
            code = classify_error(exc)
            if code != sc.error_code:
                problems.append(f"expected taxonomy code "
                                f"{sc.error_code!r}, got {code!r}")
            if verbose:
                print(f"    raised (expected): "
                      f"{render_error(exc).splitlines()[0]}")
        except Exception as exc:  # noqa: BLE001 - diagnosing wrong type
            problems.append(
                f"expected {sc.error_type.__name__}, got "
                f"{type(exc).__name__}: {str(exc).splitlines()[0]}")
        else:
            problems.append(
                f"expected {sc.error_type.__name__}, run healed")
        check_leaks(problems, sockets0, shm0)
        return problems

    try:
        res = program.run((sc.n,), backend="dist", config=cfg)
    except Exception as exc:  # noqa: BLE001 - the scenario must heal
        problems.append(f"expected heal, got {type(exc).__name__}: "
                        f"{str(exc).splitlines()[0]}")
        check_leaks(problems, sockets0, shm0)
        return problems

    want = oracle_of(sc.n)
    if not (abs(res.value - want) <= 1e-12):
        problems.append(f"value diverged: {res.value!r} != {want!r}")
    takeovers = res.raw.recovery.takeovers
    lo, hi = sc.takeovers
    if res.raw.wall_time_s <= sc.detect_s:
        # Recovery counts from a run this short say nothing: grow n.
        problems.append(f"sweep too short to exercise the fault: "
                        f"{res.raw.wall_time_s:.2f}s <= {sc.detect_s:g}s "
                        f"detector deadline at n={sc.n}")
    else:
        if not (lo <= takeovers <= hi):
            problems.append(f"takeovers: want [{lo}, {hi}], "
                            f"got {takeovers}")
        kinds = [e.kind for e in res.raw.recovery.events]
        if sc.failover and "failover" not in kinds:
            problems.append(
                f"expected a failover event, got kinds {kinds}")
    ns = res.raw.netstats
    for attr, floor in sc.expect_min.items():
        got = getattr(ns, attr)
        if got < floor:
            problems.append(f"netstats.{attr}: want >= {floor}, "
                            f"got {got}")
    if verbose:
        print(f"    wall {res.raw.wall_time_s:.2f}s "
              f"retx={ns.retransmits} drop={ns.dropped} "
              f"delay={ns.delayed} dup_disc={ns.dup_discarded} "
              f"takeovers={takeovers}")
    check_leaks(problems, sockets0, shm0)
    return problems


# -- SIGTERM drain --------------------------------------------------------

# Marker lands in every forked node's cmdline, so orphans are findable.
_STERM_MARKER = "pods_dist_chaos_sigterm_probe"

_STERM_SCRIPT = "\n".join([
    f"{_STERM_MARKER} = True",
    "from repro.api import compile_source",
    "from repro.common.config import DistConfig",
    f"src = {ROW_SWEEP!r}",
    "cfg = DistConfig(nodes=@NODES@, read_timeout_s=120.0, "
    "timeout_s=120.0)",
    "print('READY', flush=True)",
    "compile_source(src).run((512,), backend='dist', config=cfg)",
])


def _marker_procs() -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if _STERM_MARKER.encode() in cmdline:
            pids.append(int(entry))
    return pids


def run_sigterm_drain(nodes: int, verbose: bool) -> list[str]:
    """SIGTERM mid-run must drain the whole tree, leaving no orphans."""
    problems: list[str] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.getcwd(), "src"),
                    env.get("PYTHONPATH", "")] if p)
    proc = subprocess.Popen(
        [sys.executable, "-c",
         _STERM_SCRIPT.replace("@NODES@", str(nodes))],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        # Wait for the run to actually be in flight, then terminate it.
        line = proc.stdout.readline()
        if b"READY" not in line:
            problems.append(f"probe failed to start: {line!r}")
            proc.kill()
            proc.wait(timeout=10)
            return problems
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            problems.append("coordinator did not exit within 15s of "
                            "SIGTERM")
            proc.kill()
            proc.wait(timeout=10)
        else:
            if proc.returncode == 0:
                problems.append("probe finished before SIGTERM landed; "
                                "drain not exercised (grow the probe)")
    finally:
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    orphans = _marker_procs()
    while orphans and time.monotonic() < deadline:
        time.sleep(0.1)
        orphans = _marker_procs()
    if orphans:
        problems.append(f"node processes outlived the coordinator: "
                        f"{orphans}")
        for pid in orphans:  # don't poison later scenarios
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    if verbose and not problems:
        print(f"    coordinator exit code {proc.returncode}, "
              f"no orphans")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.chaos",
        description="run the distributed node-loss fault matrix")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.nodes < 2:
        print("chaos needs --nodes >= 2 (a 1-node cluster has no "
              "network)", file=sys.stderr)
        return 2

    seq = get_backend("seq")
    oracle_cache: dict[int, float] = {}

    def oracle_of(n: int) -> float:
        if n not in oracle_cache:
            oracle_cache[n] = seq.run(compile_source(ROW_SWEEP),
                                      (n,)).value
        return oracle_cache[n]

    cases = [(sc.name,
              lambda sc=sc: run_scenario(sc, args.nodes, oracle_of,
                                         args.verbose))
             for sc in scenarios(args.nodes)]
    cases.append(("sigterm-drain",
                  lambda: run_sigterm_drain(args.nodes, args.verbose)))
    return run_matrix(cases, "dist chaos", f"{args.nodes} nodes",
                      name_width=22)


if __name__ == "__main__":
    sys.exit(main())
