"""Packed running set ≡ per-request event engine, bit for bit.

From :data:`~repro.serving.engine.rank_engine.PACKED_MIN_BATCH` running
requests up, the event engine keeps its batch as numpy columns and costs
decode with dense-table gathers.  The packed path must not change a
single bit: records, every ``RankStats`` field and the full tracer
event stream (order and payloads) are compared *exactly* with the threshold forced to 1 (every batch packs),
set mid-range (batches pack and unpack as they cross it) and set above
any batch (nothing packs).  The grid covers every policy on steady,
bursty and diurnal traffic over roomy and KV-starved deployments
(preemption), a prefix-cache conversational run, a ``least_kv``
autoscaled cluster and a faulted cluster with crashes, stalls, a
degrade window and retries.
"""

import dataclasses

import pytest

import repro.serving.engine.rank_engine as rank_engine
from repro.obs import RecordingTracer
from repro.serving import (
    POLICIES,
    Autoscaler,
    AutoscalerConfig,
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
from repro.serving.engine.rank_engine import _RankEngine

#: Every event-driven batch packs / batches of 3+ pack (so runs cross the
#: threshold both ways) / nothing packs.
FORCED, MID, NEVER = 1, 3, 10**9


def _observe(monkeypatch, threshold, run):
    """Everything observable about ``run(tracer)`` at ``threshold``.

    Also returns whether any decode step took the packed path.
    """
    monkeypatch.setattr(rank_engine, "PACKED_MIN_BATCH", threshold)
    packed = []
    original = _RankEngine._packed

    def spy(engine):
        on = original(engine)
        packed.append(on)
        return on

    monkeypatch.setattr(_RankEngine, "_packed", spy)
    tracer = RecordingTracer("full")
    result = run(tracer)
    monkeypatch.undo()
    if hasattr(result, "deployments"):
        stats = [s for dep in result.deployments
                 for s in dep.serving.rank_stats]
    else:
        stats = result.rank_stats
    observed = (
        [(r.req_id, r.rank, r.status, r.admit_s, r.first_token_s,
          r.finish_s, r.preemptions, r.cached_tokens)
         for r in result.records],
        [dataclasses.astuple(s) for s in stats],
        [(e.kind, e.t_s, e.rank, e.req_id, list(e.data.items()))
         for e in tracer.events],
    )
    return observed, any(packed), stats


def _assert_packed_identical(monkeypatch, run):
    """The packed runs equal the per-request run; returns its rank stats."""
    want, packed, stats = _observe(monkeypatch, NEVER, run)
    assert not packed
    for threshold in (FORCED, MID):
        got, packed, _ = _observe(monkeypatch, threshold, run)
        assert packed, f"threshold {threshold}: packed path never taken"
        for part, a, b in zip(("records", "stats", "events"),
                              want, got):
            assert a == b, f"threshold {threshold}: {part} differ"
    return stats


def _spec(scenario, starved, seed):
    return TraceSpec(
        num_requests=24, seed=seed, scenario=scenario,
        # Slow arrivals on the starved rank provably fire preemption.
        arrival_rate_per_s=0.003 if starved else 2.0,
        prompt_mean=96.0, prompt_sigma=0.8, prompt_max=384,
        gen_mean=48.0, gen_max=256,
        priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
    )


def _config(policy, starved):
    if starved:
        return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                             max_batch=16, policy=policy,
                             prefill_chunk_tokens=16)
    return ServingConfig(model="gpt-125m", num_ranks=2, dpus_per_rank=8,
                         max_batch=8, policy=policy, prefill_chunk_tokens=16)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("scenario", ("steady", "bursty", "diurnal"))
@pytest.mark.parametrize("starved", (False, True), ids=("roomy", "starved"))
def test_packed_matches_per_request(monkeypatch, policy, scenario, starved):
    trace = generate_trace(_spec(scenario, starved, seed=len(policy)))
    config = _config(policy, starved)
    _assert_packed_identical(monkeypatch, lambda tracer:
                             simulate_trace(trace, config, tracer=tracer))


def test_packed_preemptions_fire_on_starved_rank(monkeypatch):
    # Guards the grid above against going vacuous on its hardest path.
    trace = generate_trace(_spec("bursty", True, seed=8))
    stats = _assert_packed_identical(
        monkeypatch, lambda tracer: simulate_trace(
            trace, _config("priority", True), tracer=tracer))
    assert sum(s.preemptions for s in stats) > 0


def test_packed_matches_at_default_threshold_on_wide_batch(monkeypatch):
    trace = generate_trace(TraceSpec(
        num_requests=1500, seed=3, scenario="bursty",
        arrival_rate_per_s=256.0, burst_rate_multiplier=8.0,
        prompt_mean=16.0, gen_mean=32.0,
    ))
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=256,
                           max_batch=512)

    def run(tracer):
        return simulate_trace(trace, config, tracer=tracer)

    want, packed, _ = _observe(monkeypatch, NEVER, run)
    got, packed, _ = _observe(monkeypatch, rank_engine.PACKED_MIN_BATCH, run)
    assert packed
    assert got == want


def test_packed_matches_with_prefix_cache(monkeypatch):
    trace = generate_trace(TraceSpec(
        num_requests=120, seed=4, scenario="conversational",
        arrival_rate_per_s=0.05, prompt_mean=64.0, prompt_sigma=0.8,
        prompt_max=128, gen_mean=32.0, gen_max=64, sessions=20,
        turns_mean=6.0, turns_max=8, think_time_mean_s=20.0,
        system_prompt_pool=4, system_prompt_tokens=128,
        priority_weights=(0.3, 0.7), slo_ttft_s=(3600.0, 14400.0),
    ))
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=2,
                           max_batch=16, policy="priority",
                           prefix_cache=True)
    stats = _assert_packed_identical(
        monkeypatch, lambda tracer: simulate_trace(
            trace, config, tracer=tracer))
    assert sum(s.cache_hits for s in stats) > 0
    assert sum(s.cache_evictions for s in stats) > 0


def _deployments():
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=16), name="a", tier=0),
        Deployment(ServingConfig(model="gpt-350m", num_ranks=2), name="b",
                   tier=1),
    ]


def _cluster_trace(seed):
    return generate_trace(TraceSpec(
        num_requests=160, seed=seed, scenario="bursty",
        arrival_rate_per_s=30.0, priority_weights=(1.0, 1.0),
    ))


def test_packed_matches_in_autoscaled_least_kv_cluster(monkeypatch):
    trace = _cluster_trace(5)

    def run(tracer):
        scaler = Autoscaler(AutoscalerConfig(
            max_replicas=3, queue_high=4.0, queue_low=1.0, interval_s=2.0,
        ))
        return simulate_cluster(trace, _deployments(), router="least_kv",
                                autoscaler=scaler, tracer=tracer)

    _assert_packed_identical(monkeypatch, run)


def test_packed_matches_in_faulted_cluster(monkeypatch):
    trace = _cluster_trace(3)
    plan = FaultPlan((
        FaultSpec("crash", 0, 1.0),
        FaultSpec("stall", 3, 1.0, duration_s=200.0),
        FaultSpec("degrade", 1, 0.0, duration_s=1e6, factor=3.0),
    ))

    def run(tracer):
        return simulate_cluster(trace, _deployments(), tracer=tracer,
                                faults=plan,
                                retry_policy=RetryPolicy(max_retries=5))

    _assert_packed_identical(monkeypatch, run)
    tracer = RecordingTracer("full")
    run(tracer)
    kinds = {e.kind for e in tracer.events}
    assert {"fault_crash", "retry"} <= kinds


def test_loop_engine_never_packs(monkeypatch):
    trace = generate_trace(_spec("bursty", False, seed=1))
    config = _config("fcfs", False)
    _, packed, _ = _observe(monkeypatch, FORCED, lambda tracer:
                            simulate_trace(trace, dataclasses.replace(
                                config, engine="loop")))
    assert not packed
    _, packed, _ = _observe(monkeypatch, FORCED, lambda tracer:
                            simulate_trace(trace, config))
    assert packed
