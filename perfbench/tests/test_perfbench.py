"""The benchmark's own tests: harness smoke runs, output checks, spans.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

import pytest

import harness
import hostref
import spans
import workloads

#: Trace lengths at which every workload's mechanism checks still fire.
TINY = {"rank_wide": 2000, "cluster_kv": 1500, "cluster_chaos": 1500}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_smoke_passes_every_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    metrics, log, samples = harness.measure(
        workload, seed=3, seconds=0.01, work_dir=str(tmp_path),
        requests=TINY[name], probes=1,
    )
    assert log.failures == []
    assert log.attempted == 1 + 1 + harness.MIN_PASSES
    assert set(metrics) == set(harness.END_TO_END)
    for key in ("setup_s", "cold_wall_s", "wall_s", "requests_per_s",
                "peak_rss_mb"):
        assert metrics[key] > 0
    assert metrics["error_rate"] == 0
    assert log.sim["sim.records_sha256"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_reports_every_layer(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    metrics, log, _ = harness.trace_layers(
        workload, seed=3, seconds=0.01, work_dir=str(tmp_path),
        requests=TINY[name],
    )
    assert log.failures == []
    assert set(metrics) == set(harness.PER_LAYER)
    assert metrics["engine.s"] > 0
    assert metrics["export.json_s"] > 0
    assert metrics["trace.gen_s"] > 0
    assert metrics["cost.fill_calls"] > 0
    if workload.is_cluster:
        assert metrics["cluster.loop_s"] > 0
        assert metrics["routing.probe_calls"] > 0
        assert metrics["autoscale.control_calls"] > 0
    else:
        assert metrics["cluster.loop_s"] == 0
    if workload.recorded_subrun:
        assert metrics["obs.events"] > 0


def test_shims_are_removed_after_a_traced_pass(tmp_path):
    originals = [vars(spans._resolve(target))[attr]
                 for target, attr, _ in spans.SHIMS]
    harness.trace_layers(workloads.WORKLOADS["rank_wide"], seed=0,
                         seconds=0.01, work_dir=str(tmp_path), requests=500)
    assert originals == [vars(spans._resolve(target))[attr]
                         for target, attr, _ in spans.SHIMS]


def _tiny_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    setup = workload.build(seed=1, requests=TINY[name])
    out = workloads.run_pass(workload, setup, str(tmp_path / "out.json"))
    return workload, out


@pytest.mark.parametrize("name", ["rank_wide", "cluster_kv"])
def test_dropped_record_fails_the_output_check(name, tmp_path):
    workload, out = _tiny_pass(name, tmp_path)
    assert workloads.check(workload, out, workloads.counters(out)) == []
    if workload.is_cluster:
        out.result.deployments[0].serving.records.pop()
    else:
        out.result.records.pop()
    failures = workloads.check(workload, out, workloads.counters(out))
    assert any("exactly one record" in failure for failure in failures)


def test_unconserved_summary_fails_the_output_check(tmp_path):
    workload, out = _tiny_pass("rank_wide", tmp_path)
    out.summary["completed"] -= 1
    failures = workloads.check(workload, out, workloads.counters(out))
    assert any("completed + rejected + failed" in f for f in failures)


def test_mechanism_that_did_not_fire_fails_the_check(tmp_path):
    workload, out = _tiny_pass("cluster_kv", tmp_path)
    layer = workloads.counters(out)
    layer["cache.evictions"] = 0
    assert workloads.check(workload, out, layer) == [
        "cache.evictions == 0: mechanism did not fire"
    ]


def test_sampler_takes_out_its_own_time_and_rescales():
    sampler = hostref.HostSampler()
    nominal = hostref.REF_NOMINAL_S
    # Samples averaging 5/3 of the nominal time (two at 2x, one at 1x),
    # plus one held up 60x and left out, in a 3.0 s span.
    sampler.samples = [2 * nominal, nominal, 2 * nominal, 60 * nominal]
    raw, normalised = sampler.normalise(3.0)
    assert raw == pytest.approx(3.0 - 65 * nominal)
    assert normalised == pytest.approx(raw * 3 / 5)


def test_sampler_samples_inside_the_span_only():
    sampler = hostref.HostSampler()
    period = hostref.SAMPLE_PERIOD_S
    with sampler:
        deadline = hostref.perf_counter() + 8 * period
        while hostref.perf_counter() < deadline:
            pass
    taken = len(sampler.samples)
    assert taken >= 4 and all(s > 0 for s in sampler.samples)
    deadline = hostref.perf_counter() + 4 * period
    while hostref.perf_counter() < deadline:
        pass
    assert len(sampler.samples) == taken


def test_changed_simulated_output_fails_the_pass():
    log = harness.PassLog()
    assert log.record([], {"sim.records_sha256": "a"})
    assert not log.record([], {"sim.records_sha256": "b"})
    assert (log.attempted, log.failed) == (2, 1)


def test_nested_span_self_time(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    recorder = spans.SpanRecorder()
    with recorder.span("root"):                # 0 .. 10
        with recorder.span("a"):               # 1 .. 3
            pass
        with recorder.span("a"):               # 4 .. 6
            with recorder.span("b"):           # 4.5 .. 5
                pass
    totals = recorder.layer_totals()
    assert totals["root"] == (1, pytest.approx(10.0 - 2.0 - 2.0))
    assert totals["a"] == (2, pytest.approx(2.0 + 1.5))
    assert totals["b"] == (1, pytest.approx(0.5))
    assert sum(secs for _, secs in totals.values()) == pytest.approx(10.0)
    assert list(recorder.parents) == [-1, 0, 0, 2]


def test_wrapped_calls_nest_and_count():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap(lambda x: x + 1, "inner")
    outer = recorder.wrap(lambda x: inner(x) * inner(x), "outer")
    assert outer(2) == 9
    totals = recorder.layer_totals()
    assert totals["outer"][0] == 1
    assert totals["inner"][0] == 2
    assert list(recorder.parents) == [-1, 0, 0]


def test_open_span_refuses_totals():
    recorder = spans.SpanRecorder()
    recorder.begin("open")
    with pytest.raises(RuntimeError, match="still open"):
        recorder.layer_totals()
