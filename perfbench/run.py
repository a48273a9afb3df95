#!/usr/bin/env python3
"""The repo benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sim-simple --seed 1 --seconds 20 --trace 0

Run from the repository root (it imports ``src/`` directly; nothing is
installed or built).  With ``--trace 0`` it reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it interleaves traced
and untraced iterations and reports the per-layer metrics, including
the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Everything
else it writes goes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_PROBES = 5
# Per-layer metric prefixes that belong to one operation key; a workload
# that does not run that operation reports them as 0.
LAYER_PREFIXES = ("sim.p2", "sim.p32", "seq", "static", "parallel", "dist",
                  "obs")


class Deadline(BaseException):
    """The run overran DEADLINE_S (raised from SIGALRM)."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def parse_args(argv):
    from bench import WORKLOAD_NAMES

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def provenance(args, load1: float) -> dict:
    """Where and on what the numbers were taken."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".idl"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1m": load1, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def probe_setups(args) -> list[float]:
    """Set up ``SETUP_PROBES`` times, each in a fresh interpreter: import
    ``repro``, compile the programs, warm up every substrate once."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import bench; "
            "print(bench.probe_setup(sys.argv[3], int(sys.argv[4])))")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(ROOT / "src"),
             args.workload, str(args.seed)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        out.append(float(proc.stdout.split()[-1]))
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def select_metrics(spec: dict, trace: int, values: dict,
                   exercised: set[str]) -> dict:
    """The metrics of ``spec`` for this mode, as ``{name: {value, unit}}``.

    A per-layer metric of an operation the workload does not run is 0;
    any other missing metric is an error in the benchmark itself.
    """
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if name not in values:
            prefix = next((p for p in LAYER_PREFIXES
                           if name.startswith(p + ".")), None)
            if not trace or prefix is None or prefix in exercised:
                raise KeyError(f"metric {name!r} was not measured")
            values[name] = 0
        out[name] = {"value": values[name], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    from procwatch import (Watch, leaked_shm, reclaim,
                           stop_resource_tracker)

    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load1 = os.getloadavg()[0]
    watch = Watch(out_dir / f"{tag}.stderr")
    shm_prefix = f"pods{os.getpid()}_"
    shm_left: list[str] = []
    try:
        setups = [] if args.trace else probe_setups(args)
        sys.path.insert(0, str(src))
        from bench import Bench, make_workload
        bench = Bench(make_workload(args.workload, args.seed), args.seed,
                      watch=watch)
        bench.setup(traced=bool(args.trace))
        bench.loop(args.seconds, traced=bool(args.trace))
        if args.trace and bench.workload.obs_probe:
            bench.obs_probe()
        shm_left = leaked_shm(shm_prefix)
        leaked = watch.leaked_children()
        stop_resource_tracker()
        stray = watch.tracebacks()
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        captured = watch.restore()
        stop_resource_tracker()
        reclaim(shm_left or leaked_shm(shm_prefix))
    if captured.strip():
        print(f"--- stderr of the run ({len(captured)} bytes, "
              f"{out_dir.name}/{tag}.stderr) ---", file=sys.stderr)
        sys.stderr.write(captured)

    values = bench.end_to_end(statistics.median(setups) if setups else 0.0,
                              peak_rss_mb())
    values.update(bench.per_layer())
    for sub in ("parallel", "dist"):
        values[f"{sub}.stray_tracebacks"] = stray.get(sub, 0)
        values[f"{sub}.leaked_children"] = leaked.get(sub, 0)
    values["parallel.leaked_shm"] = len(shm_left)
    exercised = {c.key for c in bench.workload.calls}
    if bench.workload.obs_probe:
        exercised.add("obs")
    metrics = select_metrics(spec, args.trace, values, exercised)

    prov = provenance(args, load1)
    prov["why"] = next((w["why"] for w in spec["workloads"]
                        if w["name"] == args.workload), None)
    for key, value in prov.items():
        print(f"# {key}: {value}")
    plain = sum(1 for it in bench.iterations if not it.traced)
    print(f"# iterations: {len(bench.iterations)} ({plain} untraced), "
          f"operations attempted: {bench.attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for key, code, detail in bench.failures:
        print(f"FAILED {key} [{code}] {detail.splitlines()[0]}")
    print(f"# stray tracebacks {stray}, leaked children {leaked}, "
          f"leaked shm {shm_left}")

    doc = {"provenance": prov, "metrics": metrics, "all_values": values,
           "setup_probes_s": setups,
           "iterations": [[it.traced, it.walls] for it in bench.iterations],
           "failures": bench.failures, "stray_tracebacks": stray,
           "leaked_children": leaked, "leaked_shm": shm_left}
    (out_dir / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        from spans import chrome_trace
        (out_dir / f"{tag}.spans.json").write_text(
            json.dumps(chrome_trace(bench.tracer.spans)) + "\n")
    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": len(bench.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
