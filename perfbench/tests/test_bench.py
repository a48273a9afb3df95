"""Tests of the benchmark's own code: span arithmetic, metric names,
failure accounting and the oracle check.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pytest

from bench import Bench, Call, Workload, values_match
from run import select_metrics
from spans import Span, Tracer, descendants, self_times

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TRIVIAL = (4, 1.5, 0.25)


def test_self_time_subtracts_nested_children():
    spans = [Span(0, "op", None, 0.0, 10.0),
             Span(1, "a", 0, 1.0, 4.0),
             Span(2, "a.leaf", 1, 2.0, 3.0),
             Span(3, "b", 0, 5.0, 7.0)]
    st = self_times(spans)
    assert st == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    assert [s.id for s in descendants(spans, 0)] == [1, 2, 3]
    assert [s.id for s in descendants(spans, 1)] == [2]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [Span(0, "p", None, 0.0, 10.0),
             Span(1, "x", 0, 1.0, 4.0),
             Span(2, "y", 0, 3.0, 6.0),    # overlaps x: 1..6 covered once
             Span(3, "z", 0, 9.0, 12.0)]   # runs past p: 9..10 counted
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_restores_patches():
    import repro.api

    tracer = Tracer()
    original = repro.api.parse
    with tracer.installed(), tracer.span("compile:trivial"):
        repro.api.compile_source("function main() { return 1; }")
    assert repro.api.parse is original
    names = {s.name: s for s in tracer.spans}
    assert names["lang.parse"].parent == names["compile:trivial"].id
    assert names["translator.translate"].parent == names["compile:trivial"].id
    assert all(s.end is not None for s in tracer.spans)


def test_metric_names_and_units_use_the_allowed_charset():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.match(n)] == []
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert [u for u in units if not UNIT.match(u)] == []
    assert not NAME.match("sim p2") and not NAME.match("lat(ms)")


def _bench(*calls):
    bench = Bench(Workload("test", calls), seed=1)
    bench.setup()
    return bench


def test_fail_ratio_rises_when_an_operation_is_forced_to_fail():
    from repro.common.config import ParallelConfig

    seq = Call("seq", "seq", 1, "trivial", TRIVIAL)
    healthy = _bench(seq, Call("parallel", "parallel", 2, "trivial", TRIVIAL))
    healthy.iteration(traced=False)
    assert (healthy.attempted, healthy.failures) == (2, [])
    assert healthy.fail_ratio == 0.0

    killed = Call("parallel", "parallel", 2, "trivial", TRIVIAL, options=(
        ("config", ParallelConfig(workers=2, recovery=False)),
        ("faults", "kill:worker=1,on=result")))
    bench = _bench(seq, killed)
    it = bench.iteration(traced=False)
    assert bench.attempted == 2 and bench.fail_ratio == 0.5
    assert [(k, code) for k, code, _ in bench.failures] == \
        [("parallel", "worker-failure")]
    assert "parallel" not in it.walls and "seq" in it.walls


def test_oracle_check_rejects_a_perturbed_value():
    bench = _bench(Call("seq", "seq", 1, "trivial", TRIVIAL))
    oracle = bench.oracle[("trivial", TRIVIAL)].to_nested()
    assert values_match(oracle, oracle)
    close = [row[:] for row in oracle]
    close[2][3] += 1e-13
    assert values_match(oracle, close)
    far = [row[:] for row in oracle]
    far[2][3] += 1e-9
    assert not values_match(oracle, far)
    assert not values_match(oracle, far[:3])
    assert not values_match(1.0, float("nan"))

    bench.oracle[("trivial", TRIVIAL)] = far
    bench.iteration(traced=False)
    assert [code for _, code, _ in bench.failures] == ["value-mismatch"]


def test_modeled_quantities_must_repeat_exactly():
    bench = _bench(Call("sim.p2", "sim", 2, "trivial", TRIVIAL))
    bench.iteration(traced=False)
    assert bench.failures == []
    bench.expected["sim.p2.time_us"] += 1.0
    bench.iteration(traced=False)
    assert [(k, code) for k, code, _ in bench.failures] == \
        [("sim.p2", "nondeterministic")]
    assert bench.fail_ratio == 0.5


def test_traced_iteration_yields_every_layer_metric_it_exercises():
    bench = _bench(Call("seq", "seq", 1, "trivial", TRIVIAL),
                   Call("sim.p2", "sim", 2, "trivial", TRIVIAL))
    bench.loop(0.0, traced=True)
    values = bench.per_layer()
    assert values["seq.run_s"] > 0 and values["sim.p2.run_s"] > 0
    assert values["sim.p2.events"] > 0 and values["seq.ops"] > 0
    assert [n for n in values if not NAME.match(n)] == []
    values.update(dict.fromkeys(
        ("parallel.stray_tracebacks", "parallel.leaked_children",
         "parallel.leaked_shm", "dist.stray_tracebacks",
         "dist.leaked_children"), 0))
    with pytest.raises(KeyError, match="not measured"):
        select_metrics(SPEC, 0, dict(values), {"seq", "sim.p2"})
    metrics = select_metrics(SPEC, 1, dict(values), {"seq", "sim.p2"})
    assert metrics["sim.p32.run_s"] == {"value": 0, "unit": "s"}
    del values["seq.run_s"]
    with pytest.raises(KeyError, match="seq.run_s"):
        select_metrics(SPEC, 1, dict(values), {"seq", "sim.p2"})
