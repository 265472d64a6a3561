"""Tracer hook surface and recording levels.

Host wall-clock attribution is not the tracer's job: see
``tests/test_bench_spans.py`` for the span breakdown.
"""

import pytest

from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    LIFECYCLE_KINDS,
    TRACE_LEVELS,
    RecordingTracer,
    Tracer,
)
from repro.serving import (
    Deployment,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_cluster,
    simulate_trace,
)


def _run(level="full", seed=0, policy="fcfs", num_requests=16):
    trace = generate_trace(TraceSpec(
        num_requests=num_requests, arrival_rate_per_s=2.0, prompt_mean=32.0,
        gen_mean=8.0, seed=seed,
    ))
    tracer = RecordingTracer(level)
    result = simulate_trace(
        trace,
        ServingConfig(model="gpt-125m", num_ranks=2, dpus_per_rank=8,
                      max_batch=4, policy=policy),
        tracer=tracer,
    )
    return tracer, result


def test_null_tracer_is_disabled_noop():
    t = Tracer()
    assert t.enabled is False
    assert t.wants_engine_detail is False
    # One hook takes every kind in the schema with its declared payload;
    # no per-kind hook methods remain.
    for kind, spec in EVENT_SCHEMA.items():
        payload = {name: typ() for name, typ in spec.fields}
        assert t.emit(kind, 0.0, 0, 1, **payload) is None
        assert not hasattr(Tracer, kind)
        assert not hasattr(RecordingTracer, kind)
    assert t.sample(0.0, 0, 0, 0, 0) is None


def test_null_tracer_run_matches_untraced_run():
    trace = generate_trace(TraceSpec(num_requests=12, seed=1))
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    plain = simulate_trace(trace, config)
    nulled = simulate_trace(trace, config, tracer=Tracer())
    assert plain.makespan_s == nulled.makespan_s
    assert plain.output_tokens == nulled.output_tokens


def test_recording_tracer_rejects_unknown_level():
    with pytest.raises(ValueError, match="trace level"):
        RecordingTracer("verbose")
    assert set(TRACE_LEVELS) == {"lifecycle", "full"}


def test_recording_tracer_rejects_tiny_series_cap():
    # Refused up front, not by the first sampled series mid-run.
    with pytest.raises(ValueError, match="max_series_samples"):
        RecordingTracer(max_series_samples=1)


def test_lifecycle_kinds_exclude_decode_segment():
    assert "decode_segment" in EVENT_KINDS
    assert "decode_segment" not in LIFECYCLE_KINDS
    assert set(LIFECYCLE_KINDS) < set(EVENT_KINDS)


def test_full_recording_captures_all_lifecycle_stages():
    tracer, result = _run()
    kinds = {e.kind for e in tracer.events}
    assert {"arrive", "admit", "prefill_chunk_start", "prefill_chunk_end",
            "first_token", "decode_segment", "finish"} <= kinds
    completed = sum(r.status == "completed" for r in result.records)
    counters = tracer.registry.counters
    assert counters["arrivals"].value == len(result.records)
    assert counters["completions"].value == completed
    assert counters["output_tokens"].value == result.output_tokens
    assert counters["prefill_tokens"].value == result.prefill_tokens


def test_lifecycle_level_drops_engine_detail():
    tracer, _ = _run(level="lifecycle")
    assert tracer.wants_engine_detail is False
    assert all(e.kind != "decode_segment" for e in tracer.events)
    assert tracer.registry.series == {}  # no sampled time series


def test_full_level_samples_per_rank_series():
    tracer, result = _run()
    names = set(tracer.registry.series)
    for rank in range(result.config.num_ranks):
        assert f"rank{rank}/kv_bytes" in names
        assert f"rank{rank}/batch" in names
        assert f"rank{rank}/queue_depth" in names


def _crashed_runs():
    """A rank crash that loses requests after their first token: under
    a cluster they are retried (their records keep the original
    arrival), standalone they fail terminally."""
    trace = generate_trace(TraceSpec(
        num_requests=96, seed=1, scenario="bursty", arrival_rate_per_s=10.0,
        gen_mean=64.0, priority_weights=(1.0, 1.0),
    ))
    plan = FaultPlan((FaultSpec("crash", 0, 4.0),))
    cluster_tracer = RecordingTracer("full")
    cluster = simulate_cluster(
        trace,
        [Deployment(ServingConfig(model="gpt-125m", num_ranks=2), name="a"),
         Deployment(ServingConfig(model="gpt-350m", num_ranks=2), name="b")],
        tracer=cluster_tracer, faults=plan,
        retry_policy=RetryPolicy(max_retries=5),
    )
    assert any(r.retries for r in cluster.records)
    standalone_tracer = RecordingTracer("full")
    standalone = simulate_trace(
        trace, ServingConfig(model="gpt-125m", num_ranks=2),
        tracer=standalone_tracer, faults=plan,
    )
    assert any(r.status == "failed" for r in standalone.records)
    return [(cluster_tracer, cluster), (standalone_tracer, standalone)]


def test_histograms_match_record_timings():
    for tracer, result in [_run()] + _crashed_runs():
        done = [r for r in result.records if r.status == "completed"]
        hists = tracer.registry.histograms
        for name in ("ttft_s", "latency_s", "queue_s", "tpot_s"):
            expected = [getattr(r, name) for r in done]
            if name == "tpot_s":
                expected = [
                    v for v, r in zip(expected, done) if r.gen_tokens >= 2
                ]
            assert hists[name].count == len(expected), name
            assert hists[name].total == pytest.approx(sum(expected)), name
        # Completed, rejected, shed and crash-lost requests all leave the
        # in-flight table.
        assert tracer._inflight == {}


def test_events_are_per_rank_chronological():
    """Non-arrive events advance with the rank's clock; arrive events
    are stamped with the request's (earlier) arrival time and are
    nondecreasing among themselves per rank."""
    tracer, _ = _run()
    last, last_arrive = {}, {}
    for e in tracer.events:
        track = last_arrive if e.kind == "arrive" else last
        assert track.get(e.rank, 0.0) <= e.t_s + 1e-12, e
        track[e.rank] = e.t_s


def test_events_for_and_lifecycle_by_request():
    tracer, result = _run()
    grouped = tracer.lifecycle_by_request()
    assert set(grouped) == {r.req_id for r in result.records}
    for req_id, events in grouped.items():
        assert events[0].kind == "arrive"
        assert events == [
            e for e in tracer.events_for(req_id) if e.kind != "decode_segment"
        ]
    assert all(
        e.req_id is None for e in tracer.events_for(None)
    )

