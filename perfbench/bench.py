"""Workloads, the closed operation loop, oracle checks and metrics.

An *operation* is one ``Backend.run`` call (or, on ``cold-start``, one
compile of the SIMPLE source); an *iteration* runs each of a
workload's operations once, in an order drawn from the seed, with one
operation in flight.  Every operation is checked against the
sequential oracle computed during set-up, and every modeled quantity
must repeat exactly from one iteration to the next.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from spans import Tracer, descendants, self_times

TOLERANCE = 1e-12
WARMUP_ROUNDS = 2
# After each iteration of a workload whose operations do not compile,
# one compile per this many seconds of the iteration is timed, so that
# compile_s samples the whole run rather than one moment of it.
COMPILE_EVERY_S = 0.5

TRIVIAL_SOURCE = """
function main(n, a, b) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = a * i + b * j; }
    }
    return A;
}
"""

# Layers a compile_source call is split into, by span name.
COMPILE_LAYERS = ("lang.parse", "graph.build", "partitioner.partition",
                  "graph.validate", "translator.translate")
SIM_UNITS = ("EU", "AM", "RU")


@dataclass(frozen=True)
class Call:
    """One operation: ``program`` run on ``backend`` at ``parallelism``.

    ``key`` names the operation in metrics (``sim.p2``, ``seq``, ...);
    ``options`` pass through to ``Backend.run`` (config, faults).
    """

    key: str
    backend: str
    parallelism: int
    program: str
    args: tuple
    options: tuple = ()


@dataclass
class Workload:
    name: str
    calls: tuple[Call, ...]
    compile_each_iteration: bool = False
    obs_probe: bool = False


def make_workload(name: str, seed: int) -> Workload:
    """The named workload; ``seed`` fixes the trivial program's inputs."""
    rng = random.Random(seed)
    trivial = (4, rng.randint(1, 99) / 8, rng.randint(1, 99) / 16)
    if name == "sim-simple":
        return Workload(name, (
            Call("sim.p2", "sim", 2, "simple", (16, 1)),
            Call("sim.p32", "sim", 32, "simple", (16, 1))), obs_probe=True)
    if name == "spmd-simple":
        return Workload(name, (
            Call("seq", "seq", 1, "simple", (32, 1)),
            Call("static", "static", 8, "simple", (32, 1)),
            Call("parallel", "parallel", 2, "simple", (32, 1)),
            Call("dist", "dist", 2, "simple", (32, 1))))
    if name == "cold-start":
        return Workload(name, (
            Call("seq", "seq", 1, "trivial", trivial),
            Call("sim.p2", "sim", 2, "trivial", trivial),
            Call("parallel", "parallel", 2, "trivial", trivial),
            Call("dist", "dist", 2, "trivial", trivial)),
            compile_each_iteration=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("sim-simple", "spmd-simple", "cold-start")


def values_match(expected, got, tol: float = TOLERANCE) -> bool:
    """True when ``got`` equals the oracle value within ``tol``.

    Scalars compare by absolute difference; arrays element by element
    over their nested-list form.
    """
    if hasattr(expected, "to_nested"):
        expected = expected.to_nested()
    if hasattr(got, "to_nested"):
        got = got.to_nested()
    if isinstance(expected, list):
        return (isinstance(got, list) and len(got) == len(expected)
                and all(values_match(e, g, tol)
                        for e, g in zip(expected, got)))
    if isinstance(expected, (int, float)) and isinstance(got, (int, float)):
        return math.isfinite(got) and abs(got - expected) <= tol
    return got == expected


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def result_counts(key: str, result) -> dict:
    """Per-layer counts read from one result, as ``key.<count>``."""
    raw = result.raw
    out = {}
    if result.time_us is not None:
        out["time_us"] = result.time_us
    stats = getattr(raw, "stats", None)
    if stats is not None:
        out.update({
            "events": stats.events_processed,
            "instructions": stats.instructions,
            "context_switches": stats.context_switches,
            "remote_reads": stats.remote_reads,
            "cache_hit_rate": stats.cache_hit_rate,
            "messages": stats.total("messages_sent")})
        util = stats.utilizations()
        out.update({f"util.{u}": util[u] for u in SIM_UNITS})
    if hasattr(raw, "op_count"):
        out["ops"] = raw.op_count
    if hasattr(raw, "remote_misses"):
        out["remote_misses"] = raw.remote_misses
    workers = getattr(raw, "worker_stats", None)
    if workers:
        walls = [w.wall_time_s for w in workers]
        out.update({
            "worker_wall_max_s": max(walls),
            "imbalance": max(walls) / (sum(walls) / len(walls))
            if sum(walls) > 0 else 1.0,
            "shared_reads": sum(w.shared_reads for w in workers),
            "shared_writes": sum(w.shared_writes for w in workers),
            "deferred_reads": sum(w.deferred_reads for w in workers),
            "spin_wait_s": sum(w.spin_wait_s for w in workers),
            "recovery_events": len(raw.recovery.events)
            if raw.recovery is not None else 0})
    net = getattr(raw, "netstats", None)
    if net is not None and key == "dist":
        out.update({"net.sent": net.sent, "net.acks_sent": net.acks_sent,
                    "net.retransmits": net.retransmits})
    return {f"{key}.{name}": value for name, value in out.items()}


@dataclass
class Iteration:
    traced: bool
    walls: dict = field(default_factory=dict)     # call key -> seconds
    counts: dict = field(default_factory=dict)    # metric -> value
    root: int | None = None                       # span id of "op"

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class _NoWatch:
    def before(self, key: str) -> None:
        pass

    def after(self, key: str) -> None:
        pass


class Bench:
    """Runs one workload's set-up, iterations and checks in-process.

    ``watch`` is told before and after every backend call (the run
    script attributes stray stderr and child processes with it).
    """

    def __init__(self, workload: Workload, seed: int,
                 tracer: Tracer | None = None, watch=None) -> None:
        import repro.backend
        from repro import compile_source
        from repro.apps.simple_app import simple_source

        self._backend = repro.backend
        self._compile_source = compile_source
        self.workload = workload
        self.order_rng = random.Random(seed)
        self.tracer = tracer or Tracer()
        self.watch = watch or _NoWatch()
        self.sources = {"simple": simple_source(), "trivial": TRIVIAL_SOURCE}
        self.programs: dict = {}
        self.oracle: dict = {}
        self.expected: dict = {}
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []
        self.iterations: list[Iteration] = []
        self.compile_walls: list[float] = []
        self.compile_spans: list[int] = []
        self.obs: dict = {}
        self._tracing = False

    # -- checks -----------------------------------------------------------

    def fail(self, key: str, code: str, detail: str) -> None:
        self.failures.append((key, code, detail))

    def expect(self, name: str, value) -> str | None:
        """Record ``value``; a problem text if it differs from the first."""
        ref = self.expected.setdefault(name, value)
        return None if ref == value else f"{name} {value!r} != first {ref!r}"

    def check(self, key: str, problems: list[tuple[str, str]]) -> bool:
        """Count one failed operation for any problems found in it."""
        if problems:
            self.fail(key, problems[0][0], "; ".join(p for _, p in problems))
        return not problems

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    # -- operations -------------------------------------------------------

    def compile(self, name: str):
        """Compile a program from source; record its wall time."""
        span = (self.tracer.span(f"compile:{name}") if self._tracing
                else nullcontext())
        t0 = time.perf_counter()
        with span as s:
            program = self._compile_source(self.sources[name])
        wall = time.perf_counter() - t0
        if name == "simple":
            self.compile_walls.append(wall)
            if s is not None:
                self.compile_spans.append(s.id)
        return program, wall

    def check_compile(self, program) -> bool:
        return self.check("compile", [
            ("nondeterministic", msg)
            for name, value in compile_counts(program).items()
            if (msg := self.expect(name, value))])

    def run_call(self, call: Call, it: Iteration) -> None:
        """One backend run, checked against the oracle."""
        self.attempted += 1
        program = self.programs[call.program]
        span = self.tracer.span(call.key) if self._tracing else nullcontext()
        self.watch.before(call.key)
        try:
            t0 = time.perf_counter()
            with span:
                result = self._backend.get_backend(call.backend).run(
                    program, call.args, parallelism=call.parallelism,
                    **dict(call.options))
            wall = time.perf_counter() - t0
        except Exception as exc:  # every failure is counted, none fatal
            self.fail(call.key, self._backend.classify_error(exc),
                      self._backend.render_error(exc))
            return
        finally:
            self.watch.after(call.key)
        problems = []
        if not values_match(self.oracle[(call.program, call.args)],
                            result.value):
            problems.append(("value-mismatch", f"value {result.value!r} "
                             f"differs from the seq oracle by more than "
                             f"{TOLERANCE}"))
        counts = result_counts(call.key, result)
        # Everything but the parallel/dist telemetry is modeled: exact.
        if call.backend not in ("parallel", "dist"):
            problems += [("nondeterministic", msg)
                         for name, value in counts.items()
                         if (msg := self.expect(name, value))]
        self.check(call.key, problems)
        it.walls[call.key] = wall
        it.counts.update(counts)

    # -- phases -----------------------------------------------------------

    def setup_round(self) -> None:
        """Compile the programs and warm up every substrate used."""
        for name in ("simple", "trivial"):
            self.programs[name], _ = self.compile(name)
        seen = set()
        for call in self.workload.calls:
            if (call.backend, call.parallelism) in seen:
                continue
            seen.add((call.backend, call.parallelism))
            self._backend.get_backend(call.backend).run(
                self.programs["trivial"], (4, 1.0, 1.0),
                parallelism=call.parallelism)

    def setup(self, traced: bool = False) -> None:
        """Warm-up rounds, then the seq oracle."""
        self._tracing = traced
        try:
            with self.tracer.installed() if traced else nullcontext():
                for _ in range(WARMUP_ROUNDS):
                    self.setup_round()
        finally:
            self._tracing = False
        self.check_compile(self.programs["simple"])
        seq = self._backend.get_backend("seq")
        for call in self.workload.calls:
            key = (call.program, call.args)
            if key not in self.oracle:
                self.oracle[key] = seq.run(self.programs[call.program],
                                           call.args).value

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration(traced=traced)
        calls = list(self.workload.calls)
        self.order_rng.shuffle(calls)
        self._tracing = traced
        installed = self.tracer.installed() if traced else nullcontext()
        try:
            with installed:
                root = (self.tracer.span("op") if traced else nullcontext())
                with root as r:
                    if self.workload.compile_each_iteration:
                        self.attempted += 1
                        try:
                            program, it.walls["compile"] = \
                                self.compile("simple")
                        except Exception as exc:
                            self.fail("compile",
                                      self._backend.classify_error(exc),
                                      self._backend.render_error(exc))
                        else:
                            self.check_compile(program)
                    for call in calls:
                        self.run_call(call, it)
                it.root = r.id if r is not None else None
                if not self.workload.compile_each_iteration:
                    for _ in range(math.ceil(it.wall / COMPILE_EVERY_S)):
                        self.compile("simple")
        finally:
            self._tracing = False
        self.iterations.append(it)
        return it

    def loop(self, seconds: float, traced: bool) -> None:
        """Iterate until ``seconds`` have passed (alternating traced and
        untraced iterations when ``traced``; at least one of each)."""
        deadline = time.perf_counter() + seconds
        n, last = 0, 0.0
        # Stop before an iteration that would end past the deadline.
        while n < (2 if traced else 1) or \
                time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            self.iteration(traced and n % 2 == 1)
            last = time.perf_counter() - t0
            n += 1

    def obs_probe(self) -> None:
        """sim-simple's 32-PE point again, with every ObsConfig flag on,
        then each exporter of ``repro.obs`` over its output."""
        from repro.backend import BackendResult
        from repro.common.config import MachineConfig, ObsConfig, SimConfig
        from repro.obs.critpath import critical_path
        from repro.obs.export import perfetto_json
        from repro.obs.runrecord import build_record
        from repro.sim.machine import Machine

        call = next(c for c in self.workload.calls if c.key == "sim.p32")
        config = SimConfig(machine=MachineConfig(num_pes=call.parallelism),
                           obs=ObsConfig(metrics=True, timelines=True,
                                         trace=True, waits=True))
        self.attempted += 1
        program = self.programs[call.program]
        t0 = time.perf_counter()
        machine = Machine(program.pods, config)
        raw = machine.run(call.args)
        self.obs["obs.observed_run_s"] = time.perf_counter() - t0
        # Observability must change neither the value nor modeled time.
        problems = []
        if not values_match(self.oracle[(call.program, call.args)],
                            raw.value):
            problems.append(("value-mismatch", "observed run value differs"))
        if msg := self.expect(f"{call.key}.time_us", raw.finish_time_us):
            problems.append(("nondeterministic", msg))
        self.check("obs", problems)
        stats = raw.stats
        netspans = stats.netstats.spans if stats.netstats else ()
        with self.tracer.span("obs.perfetto") as s:
            perfetto_json(stats.timelines, machine.tracer.events,
                          num_pes=call.parallelism, waits=stats.waits,
                          finish_us=stats.finish_time_us, netspans=netspans)
        self.obs["obs.perfetto_s"] = s.dur
        with self.tracer.span("obs.critpath") as s:
            critical_path(stats.waits, stats.finish_time_us)
        self.obs["obs.critpath_s"] = s.dur
        result = BackendResult(backend="sim", value=raw.value,
                               parallelism=call.parallelism,
                               time_us=raw.finish_time_us,
                               registry=stats.registry, raw=raw)
        with self.tracer.span("obs.run_record") as s:
            build_record(result, program=program, args=call.args)
        self.obs["obs.run_record_s"] = s.dur

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        plain = [it.wall for it in self.iterations if not it.traced]
        return {"setup_s": setup_s,
                "compile_s": _median(self.compile_walls),
                "op_wall_s": _median(plain),
                "peak_rss_mb": peak_rss_mb}

    def per_layer(self) -> dict:
        """Every per-layer metric this process can compute (0 for the
        layers the workload does not exercise)."""
        plain = [it for it in self.iterations if not it.traced]
        traced = [it for it in self.iterations if it.traced]
        out: dict = {}
        # Parallel/dist telemetry is host-measured: its median over all
        # iterations.  The other counts repeat exactly.
        for name in {n for it in self.iterations for n in it.counts}:
            out[name] = _median([it.counts[name] for it in self.iterations
                                 if name in it.counts])
        for sub in ("sim", "seq", "static", "parallel", "dist"):
            out[f"{sub}_wall_s"] = _median([
                sum(w for k, w in it.walls.items()
                    if k == sub or k.startswith(sub + "."))
                for it in plain])
        out["sim_events_per_s"] = _median([
            sum(it.counts.get(f"{k}.events", 0) for k in it.walls)
            / max(sum(w for k, w in it.walls.items()
                      if k.startswith("sim.")), 1e-12)
            for it in plain if any(k.startswith("sim.") for k in it.walls)])
        exp = self.expected
        out.update(exp)
        out["modeled_time_us"] = sum(exp.get(f"{k}.time_us", 0.0)
                                     for k in ("sim.p2", "sim.p32"))
        out["seq_time_us"] = exp.get("seq.time_us", 0.0)
        out["static_time_us"] = exp.get("static.time_us", 0.0)
        out["fail_ratio"] = self.fail_ratio

        spans = self.tracer.spans
        st = self_times(spans)
        layer_samples: dict[str, list[float]] = {}
        for sid in self.compile_spans:
            sums = dict.fromkeys(COMPILE_LAYERS, 0.0)
            for s in descendants(spans, sid):
                if s.name in sums:
                    sums[s.name] += st[s.id]
            for layer, value in sums.items():
                layer_samples.setdefault(f"{layer}_s", []).append(value)
            layer_samples.setdefault("compile.self_s", []).append(st[sid])
        for it in traced:
            layer = op_layer_times(spans, st, it.root)
            for sub in ("parallel", "dist"):
                if f"{sub}.worker_wall_max_s" in it.counts:
                    layer[f"{sub}.outside_s"] = (
                        layer[f"{sub}.run_s"]
                        - it.counts[f"{sub}.worker_wall_max_s"])
            for name, value in layer.items():
                layer_samples.setdefault(name, []).append(value)
        for name, xs in layer_samples.items():
            out[name] = _median(xs)
        for key in ("sim.p2", "sim.p32"):
            events = out.get(f"{key}.events", 0)
            out[f"{key}.host_us_per_event"] = (
                out.get(f"{key}.run_s", 0.0) / events * 1e6 if events else 0.0)
        ops = out.get("seq.ops", 0)
        out["seq.ns_per_op"] = out.get("seq.run_s", 0.0) / ops * 1e9 \
            if ops else 0.0
        if traced and plain:
            base = _median([it.wall for it in plain])
            over = _median([it.wall for it in traced]) - base
            out["trace.overhead_s"] = over
            out["trace.overhead_ratio"] = over / base if base else 0.0
        if self.obs:
            out.update(self.obs)
            plain_p32 = out["sim.p32.init_s"] + out["sim.p32.run_s"]
            out["obs.overhead_ratio"] = (
                self.obs["obs.observed_run_s"] / plain_p32 - 1.0)
        return out


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of import, compile and warm-up in a fresh process."""
    t0 = time.perf_counter()
    import repro.backend  # noqa: F401
    import repro.dist.coordinator  # noqa: F401
    import repro.parallel.executor  # noqa: F401
    Bench(make_workload(workload, seed), seed).setup_round()
    return time.perf_counter() - t0


def compile_counts(program) -> dict:
    """Sizes of one compiled program's IR after each pass."""
    return {
        "graph.nodes": sum(len(b.defs) for b in program.graph.blocks.values()),
        "partitioner.distributed_loops":
            len(program.partition_report.distributed),
        "translator.instructions": program.pods.instruction_count()}


def op_layer_times(spans, st: dict, root: int) -> dict:
    """Per-layer times of one traced iteration rooted at span ``root``.

    Leaf layers report self time.  ``parallel.run_s``/``dist.run_s`` are
    inclusive (``outside_s`` subtracts the slowest worker from them);
    their graph rebuild is reported apart as ``rebuild_s``.
    """
    out: dict[str, float] = {"backend.self_s": 0.0}
    for call in (s for s in descendants(spans, root) if s.parent == root):
        if call.name.startswith("compile:"):
            continue
        out["backend.self_s"] += st[call.id]
        inner = descendants(spans, call.id)
        key = call.name
        if key.startswith("sim."):
            out[f"{key}.init_s"] = sum(st[s.id] for s in inner
                                       if s.name == "sim.init")
            out[f"{key}.run_s"] = sum(st[s.id] for s in inner
                                      if s.name == "sim.run")
        elif key in ("seq", "static"):
            out[f"{key}.run_s"] = sum(st[s.id] for s in inner
                                      if s.name == f"{key}.run")
        elif key in ("parallel", "dist"):
            out[f"{key}.run_s"] = sum(s.dur for s in inner
                                      if s.name == f"{key}.run")
            out[f"{key}.rebuild_s"] = sum(
                st[s.id] for s in inner
                if s.name in ("graph.build", "partitioner.partition"))
    return out
