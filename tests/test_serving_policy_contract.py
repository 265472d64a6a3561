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
"""

import dataclasses
import math

import pytest

from repro.serving import (
    ChunkedPrefillPolicy,
    Deployment,
    PriorityPolicy,
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
