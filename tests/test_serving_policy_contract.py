"""The scheduling-policy hook contract, driven through the engines.

:class:`~repro.serving.policy.SchedulingPolicy` documents what a hook
may read from the per-request state it receives: ``state.request.<field>``
(any :class:`~repro.serving.trace.Request` field), ``state.tokens_out``
and ``state.kv_private``.  The two test-local subclasses below
re-implement built-in hooks using only those fields.  Run on a KV-starved
conversational fixture with the prefix cache on (evictions and
preemptions fire), each must produce records and rank stats
bit-identical to its built-in twin on the event and loop engines, both
standalone and behind the cluster's per-request submission path.

``DocumentedFcfs`` re-implements the default admission key, which
makes the event engine keep its ready queue as a heap on that key: the
oracle for whatever the engine does with the built-in ``fcfs`` order.
It must match ``fcfs`` bit for bit (records, rank stats and the full
event stream) standalone at narrow and wide batches on a KV-starved
rank with oversized requests, under a sampled crash plan whose
retries fire, and on a crafted trace where a retry lands at exactly a
fresh arrival's time with the smaller ``req_id`` (so it is submitted
after a request that sorts behind it).
"""

import dataclasses
import math

import pytest

from repro.obs import RecordingTracer
from repro.serving import (
    ChunkedPrefillPolicy,
    Deployment,
    FaultPlan,
    FaultSpec,
    FcfsPolicy,
    PriorityPolicy,
    Request,
    RetryPolicy,
    SchedulingPolicy,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_cluster,
    simulate_trace,
)

ENGINES = ("event", "loop")
#: Seeds 0 and 6 fire preemptions on this fixture; every seed evicts.
SEEDS = (0, 1, 6)


class DocumentedPriority(SchedulingPolicy):
    """``PriorityPolicy``'s admission order and victim choice, written
    against the documented state fields only."""

    name = "documented_priority"

    def admission_key(self, state):
        request = state.request
        deadline = (request.arrival_s + request.slo_ttft_s
                    if request.slo_ttft_s > 0 else math.inf)
        return (request.priority, deadline, request.arrival_s,
                request.req_id)

    def select_victims(self, candidate, running, need_bytes):
        tier = candidate.request.priority
        lower = [s for s in running if s.request.priority > tier]
        lower.sort(key=lambda s: (-s.request.priority, s.tokens_out))
        victims, freed = [], 0
        for state in lower:
            if freed >= need_bytes:
                break
            victims.append(state)
            freed += state.kv_private
        return victims if freed >= need_bytes else []


class DocumentedChunked(SchedulingPolicy):
    """``ChunkedPrefillPolicy.prefill_chunk`` with a fixed budget."""

    name = "documented_chunked"

    def __init__(self, chunk_tokens):
        self.chunk_tokens = chunk_tokens

    def prefill_chunk(self, remaining_tokens):
        return min(remaining_tokens, self.chunk_tokens)


class DocumentedFcfs(SchedulingPolicy):
    """The default FCFS admission key, written against the documented
    state fields."""

    name = "documented_fcfs"

    def admission_key(self, state):
        return (state.request.arrival_s, state.request.req_id)


def _trace(seed):
    return generate_trace(TraceSpec(
        num_requests=28, seed=seed, scenario="conversational",
        arrival_rate_per_s=0.02 + 0.015 * (seed % 3),
        prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
        gen_mean=24.0, gen_max=64,
        priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
        sessions=8 + seed % 3, turns_mean=3.0, turns_max=4,
        think_time_mean_s=4.0,
        system_prompt_pool=2, system_prompt_tokens=48,
    ))


def _config(policy, engine):
    # One DPU leaves ~1.5k KV tokens after the weights: retained cache
    # entries and running requests fight for it.
    return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                         max_batch=8, policy=policy, engine=engine,
                         prefill_chunk_tokens=16, prefix_cache=True)


def _observed(result):
    return ([dataclasses.astuple(r) for r in result.records],
            [dataclasses.astuple(s) for s in result.rank_stats])


PAIRS = {
    "priority": (lambda: PriorityPolicy(), lambda: DocumentedPriority()),
    "chunked_prefill": (lambda: ChunkedPrefillPolicy(chunk_tokens=16),
                        lambda: DocumentedChunked(16)),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", sorted(PAIRS))
def test_documented_policy_matches_builtin_standalone(policy, engine):
    builtin, documented = PAIRS[policy]
    preemptions = evictions = 0
    for seed in SEEDS:
        trace = _trace(seed)
        config = _config(policy, engine)
        want = simulate_trace(trace, config, sched_policy=builtin())
        got = simulate_trace(trace, config, sched_policy=documented())
        assert _observed(got) == _observed(want), f"seed {seed}"
        preemptions += want.preemptions
        evictions += want.cache_evictions
    # The fixture must exercise the hooks under KV pressure.
    assert evictions > 0
    if policy == "priority":
        assert preemptions > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", sorted(PAIRS))
def test_documented_policy_matches_builtin_clustered(policy, engine):
    builtin, documented = PAIRS[policy]
    trace = _trace(0)

    def run(make_policy):
        deployment = Deployment(_config(policy, engine), name="only")
        deployment.sched_policy = make_policy()
        result = simulate_cluster(trace, [deployment], router="round_robin")
        return _observed(result.deployments[0].serving)

    assert run(documented) == run(builtin)


def _events(tracer):
    return [(e.kind, e.t_s, e.rank, e.req_id, list(e.data.items()))
            for e in tracer.events]


def _starved_trace():
    """Bursts onto a rank with room for ~7k KV tokens: admission blocks
    on KV mid-round, and every 97th request is too big to ever fit."""
    trace = generate_trace(TraceSpec(
        num_requests=800, seed=0, scenario="bursty",
        arrival_rate_per_s=16.0, burst_rate_multiplier=32.0,
        prompt_mean=24.0, prompt_sigma=0.8, prompt_max=512,
        gen_mean=32.0, gen_max=256,
    ))
    return [
        dataclasses.replace(r, prompt_tokens=4000, gen_tokens=4000)
        if r.req_id % 97 == 5 else r
        for r in trace
    ]


@pytest.mark.parametrize("max_batch", (8, 128))
def test_documented_fcfs_matches_builtin_standalone(max_batch):
    trace = _starved_trace()
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=4,
                           max_batch=max_batch)

    def run(policy):
        tracer = RecordingTracer("full")
        result = simulate_trace(trace, config, sched_policy=policy,
                                tracer=tracer)
        return _observed(result), _events(tracer), result

    want, want_events, result = run(FcfsPolicy())
    got, got_events, _ = run(DocumentedFcfs())
    assert got == want
    assert got_events == want_events
    assert any(r.status == "rejected" for r in result.records)
    if max_batch == 128:
        # The wide batch runs out of KV before it runs out of slots.
        peak = result.rank_stats[0].kv_peak_bytes
        assert peak > 0.99 * result.kv_capacity_bytes


def _cluster_observed(result):
    return ([dataclasses.astuple(r) for r in result.records],
            [dataclasses.astuple(s) for dep in result.deployments
             for s in dep.serving.rank_stats])


def test_documented_fcfs_matches_builtin_under_retries():
    trace = generate_trace(TraceSpec(
        num_requests=300, seed=3, scenario="bursty",
        arrival_rate_per_s=2.0, burst_rate_multiplier=8.0,
        prompt_mean=32.0, gen_mean=32.0,
    ))
    horizon = max(r.arrival_s for r in trace)
    plan = FaultPlan.sample(seed=5, ranks=range(3), horizon_s=horizon,
                            crash_rate=0.7, stall_s=2.0)

    def run(make_policy):
        deployments = []
        for i in range(3):
            deployment = Deployment(
                ServingConfig(model="gpt-125m", num_ranks=1,
                              dpus_per_rank=8, max_batch=8),
                name=f"d{i}",
            )
            deployment.sched_policy = make_policy()
            deployments.append(deployment)
        return simulate_cluster(trace, deployments, router="round_robin",
                                faults=plan,
                                retry_policy=RetryPolicy(max_retries=3))

    want = run(FcfsPolicy)
    assert sum(r.retries for r in want.records) > 0
    assert _cluster_observed(run(DocumentedFcfs)) == _cluster_observed(want)


def test_documented_fcfs_matches_builtin_on_a_retry_tie():
    """Request 1 arrives at 6.0 while the only replica is stalled, so
    it backs off 0.5 s (no jitter) and is retried at 6.5, the arrival
    time of request 2.  A fresh arrival wins the tie, so the replica
    gets request 2 first, then request 1, which sorts ahead of it.  With
    one batch slot, FCFS must admit request 1 first."""
    trace = [
        Request(req_id=0, arrival_s=0.0, prompt_tokens=16, gen_tokens=8),
        Request(req_id=1, arrival_s=6.0, prompt_tokens=16, gen_tokens=8),
        Request(req_id=2, arrival_s=6.5, prompt_tokens=32, gen_tokens=4),
    ]
    plan = FaultPlan((FaultSpec("stall", 0, 5.0, 1.25),))

    def run(policy):
        deployment = Deployment(
            ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=8,
                          max_batch=1),
            name="only",
        )
        deployment.sched_policy = policy
        tracer = RecordingTracer("full")
        result = simulate_cluster(
            trace, [deployment], router="round_robin", tracer=tracer,
            faults=plan,
            retry_policy=RetryPolicy(backoff_base_s=0.5, jitter=0.0),
        )
        return result, _events(tracer)

    want, want_events = run(FcfsPolicy())
    got, got_events = run(DocumentedFcfs())
    retried, late = want.records[1], want.records[2]
    assert retried.retries == 1
    assert [e[:4] for e in want_events if e[0] == "retry"] == [
        ("retry", 6.5, -1, 1)
    ]
    assert retried.admit_s < late.admit_s
    assert _cluster_observed(got) == _cluster_observed(want)
    assert got_events == want_events
