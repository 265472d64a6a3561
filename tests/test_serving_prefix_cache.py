"""KV prefix cache: unit semantics, byte accounting, adversarial fuzz.

Three layers of evidence that the prefix cache is sound:

1. **Unit semantics** — :class:`~repro.serving.engine.cache.PrefixCache`
   in isolation: refcount/children pinning, LRU ordering, chain-aware
   eviction planning, and the error contract (double insert, releasing
   below zero, evicting a referenced entry).
2. **Deterministic byte accounting** — a hand-built two-session trace
   where every cache entry's depth and owned bytes are computable by
   hand from the model's KV-cache geometry; shared system-prompt pages
   must count once against MRAM no matter how many sessions chain off
   them.
3. **Adversarial fuzz** — seeded conversational traces on a KV-starved
   single-rank priority deployment, interleaving cache hits, LRU
   evictions and priority preemptions.  Every preemption must observe
   an empty evictable pool (the eviction-before-preemption contract,
   checked through the traced ``cache_evictable_bytes``), the replay
   oracle must reconstruct the metrics table from the event stream
   alone, and the corpus must provably fire hits, evictions *and*
   preemptions — otherwise the harness proves less than it claims.
"""

import dataclasses
import math

import pytest

from repro.model import get_model_config
from repro.obs import RecordingTracer, replay_result
from repro.serving import (
    PrefixCache,
    Request,
    ServingConfig,
    TraceSpec,
    generate_trace,
    metrics_table,
    simulate_trace,
)
from repro.serving.policy import get_policy

from test_serving_invariants import _check_cache_audit, _check_invariants

MODEL = get_model_config("gpt-125m")


def _kv(tokens: int) -> int:
    return MODEL.kv_cache_bytes(1, tokens)


# ---------------------------------------------------------------------------
# unit semantics
# ---------------------------------------------------------------------------

def test_insert_acquire_release_and_error_contract():
    cache = PrefixCache()
    entry = cache.insert(("sys", 0), 32, 100, None, now_s=1.0)
    assert cache.get(("sys", 0)) is entry
    assert cache.total_bytes == 100
    with pytest.raises(ValueError, match="already present"):
        cache.insert(("sys", 0), 32, 100, None, now_s=2.0)

    cache.acquire(entry, now_s=3.0)
    assert entry.refcount == 1 and entry.last_used_s == 3.0
    with pytest.raises(ValueError, match="still referenced"):
        cache.evict(entry)
    cache.release(entry)
    with pytest.raises(ValueError, match="below zero"):
        cache.release(entry)

    cache.evict(entry)
    assert cache.total_bytes == 0
    assert len(cache) == 0


def test_children_pin_parent_until_tip_evicted():
    cache = PrefixCache()
    parent = cache.insert(("sys", 0), 32, 100, None, now_s=0.0)
    child = cache.insert(("sess", 0, 1), 64, 50, parent, now_s=1.0)
    assert parent.children == 1
    with pytest.raises(ValueError, match="still referenced"):
        cache.evict(parent)
    # Only the childless tip is evictable; the parent joins after.
    assert cache.evictable() == [child]
    cache.evict(child)
    assert parent.children == 0
    assert cache.evictable() == [parent]
    cache.evict(parent)
    assert cache.total_bytes == 0


def test_lookup_prefers_session_context_over_shared_prompt():
    cache = PrefixCache()
    sys_entry = cache.insert(("sys", 7), 32, 100, None, now_s=0.0)
    sess_entry = cache.insert(("sess", 3, 1), 64, 50, sys_entry, now_s=1.0)
    turn1 = Request(req_id=0, arrival_s=0.0, prompt_tokens=80, gen_tokens=4,
                    session_id=3, turn=1, shared_prefix_id=7,
                    shared_prefix_tokens=32, context_tokens=32)
    assert cache.lookup(turn1) is sess_entry
    # A different session's first turn only sees the shared prompt.
    turn0 = Request(req_id=1, arrival_s=0.0, prompt_tokens=40, gen_tokens=4,
                    session_id=5, turn=0, shared_prefix_id=7,
                    shared_prefix_tokens=32)
    assert cache.lookup(turn0) is sys_entry
    # No session, no shared prefix: never hits.
    single = Request(req_id=2, arrival_s=0.0, prompt_tokens=16, gen_tokens=4)
    assert cache.lookup(single) is None


def test_evictable_is_lru_ordered_with_seq_tie_break():
    cache = PrefixCache()
    a = cache.insert(("sys", 0), 8, 10, None, now_s=5.0)
    b = cache.insert(("sys", 1), 8, 10, None, now_s=2.0)
    c = cache.insert(("sys", 2), 8, 10, None, now_s=2.0)
    assert cache.evictable() == [b, c, a]  # time, then insertion seq
    cache.acquire(a, now_s=1.0)  # referenced: out of the pool entirely
    assert cache.evictable() == [b, c]
    assert cache.evictable_bytes() == 20
    assert cache.evictable(exclude={id(b)}) == [c]


def test_plan_evictions_reclaims_chain_tip_first():
    """A refcount-zero session chain is reclaimable in one plan: the
    planner simulates the tip's release so the parent becomes a
    candidate in the next round, and the planned order is executable
    (tip strictly before parent)."""
    cache = PrefixCache()
    policy = get_policy("fcfs")
    parent = cache.insert(("sys", 0), 32, 100, None, now_s=0.0)
    child = cache.insert(("sess", 0, 1), 64, 50, parent, now_s=1.0)
    planned, freed = cache.plan_evictions(policy, need_bytes=150)
    assert planned == [child, parent]
    assert freed == 150
    # Planning must not mutate the cache.
    assert cache.total_bytes == 150 and parent.children == 1
    for entry in planned:
        cache.evict(entry)
    assert cache.total_bytes == 0

    # The hit chain is exempt even when it is the only reclaimable set.
    parent = cache.insert(("sys", 1), 32, 100, None, now_s=0.0)
    child = cache.insert(("sess", 1, 1), 64, 50, parent, now_s=1.0)
    planned, freed = cache.plan_evictions(
        policy, need_bytes=150, exclude=PrefixCache.chain(child)
    )
    assert planned == [] and freed == 0


def test_default_policy_eviction_takes_lru_prefix():
    cache = PrefixCache()
    policy = get_policy("fcfs")
    entries = [
        cache.insert(("sys", i), 8, 10, None, now_s=float(i))
        for i in range(4)
    ]
    chosen = policy.select_cache_evictions(cache.evictable(), 25)
    assert chosen == entries[:3]  # 10 + 10 + 10 >= 25, oldest first
    planned, freed = cache.plan_evictions(policy, need_bytes=25)
    assert planned == entries[:3] and freed == 30


# ---------------------------------------------------------------------------
# deterministic byte accounting
# ---------------------------------------------------------------------------

def _two_session_trace():
    """Two 2-turn sessions sharing system prompt 0, arriving far apart
    (fully sequential: every hit and insertion is hand-computable)."""
    shared, user, gen = 32, 16, 8
    requests = []
    rid = 0
    for sid, start in ((0, 0.0), (1, 500.0)):
        context = 0
        for turn in range(2):
            requests.append(Request(
                req_id=rid, arrival_s=start + 200.0 * turn,
                prompt_tokens=shared + context + user, gen_tokens=gen,
                session_id=sid, turn=turn, shared_prefix_id=0,
                shared_prefix_tokens=shared, context_tokens=context,
                final_turn=(turn == 1),
            ))
            context += user + gen
            rid += 1
    return requests


def test_two_sessions_share_system_prompt_bytes_once():
    trace = _two_session_trace()
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=16,
                           max_batch=4, prefix_cache=True)
    result = simulate_trace(trace, config)
    assert [r.status for r in result.records] == ["completed"] * 4

    # Hits: session 0 turn 1 (full context), session 1 turn 0 (shared
    # prompt only) and session 1 turn 1.  Only the very first request
    # misses.
    assert [r.cache_hit for r in result.records] == [False, True, True, True]
    assert [r.cached_tokens for r in result.records] == [0, 56, 32, 56]
    assert result.cache_hits == 3 and result.cache_misses == 1
    (rs,) = result.rank_stats
    assert rs.cache_hit_tokens == 56 + 32 + 56

    # Retained at drain: the shared prompt entry plus each session's
    # turn-1 context entry chained off it.  The shared pages count once.
    (cache,) = result.prefix_caches
    sys_entry = cache.get(("sys", 0))
    assert sys_entry.depth_tokens == 32
    assert sys_entry.owned_bytes == _kv(32)
    assert sys_entry.children == 2
    for sid in (0, 1):
        entry = cache.get(("sess", sid, 1))
        assert entry.parent is sys_entry
        assert entry.depth_tokens == 56  # prompt 48 + gen 8
        assert entry.owned_bytes == _kv(56) - _kv(32)
        assert entry.refcount == 0 and entry.children == 0
    assert cache.total_bytes == 2 * _kv(56) - _kv(32)
    assert rs.kv_final_bytes == cache.total_bytes
    _check_cache_audit(result)

    # The deduped reservation shows up in the aggregate counters: every
    # admission's full KV demand is logical, only the suffix reserved —
    # the gap is exactly the cached depths of the three hits.
    assert rs.kv_logical_bytes == 2 * (_kv(56) + _kv(80))
    assert rs.kv_reserved_bytes == (
        rs.kv_logical_bytes - (_kv(56) + _kv(32) + _kv(56))
    )
    # Session 1's first turn prefills 16 tokens instead of 48: a
    # strictly earlier first token than the identical cold request.
    assert result.records[2].ttft_s < result.records[0].ttft_s


def test_turn_entry_not_retained_after_final_turn():
    """A single-session, single-turn request leaves nothing behind but
    the shared prompt (final turns donate nothing forward)."""
    trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=48, gen_tokens=8,
                     session_id=0, turn=0, shared_prefix_id=0,
                     shared_prefix_tokens=32, final_turn=True)]
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=16,
                           max_batch=4, prefix_cache=True)
    result = simulate_trace(trace, config)
    (cache,) = result.prefix_caches
    assert [e.key for e in cache.entries()] == [("sys", 0)]
    assert cache.total_bytes == _kv(32)
    assert result.rank_stats[0].kv_final_bytes == _kv(32)


# ---------------------------------------------------------------------------
# adversarial fuzz: hits x evictions x preemptions
# ---------------------------------------------------------------------------

FUZZ_SEEDS = range(8)


def _fuzz_spec(seed: int) -> TraceSpec:
    """Conversational churn: many short sessions over a small prompt
    pool, arrival bursts controlled by the seed."""
    return TraceSpec(
        num_requests=28,
        arrival_rate_per_s=0.02 + 0.015 * (seed % 3),
        scenario="conversational",
        prompt_mean=48.0,
        prompt_sigma=0.8,
        prompt_max=128,
        gen_mean=24.0,
        gen_max=64,
        priority_weights=(0.3, 0.7),
        slo_ttft_s=(50.0, 500.0),
        sessions=8 + seed % 3,
        turns_mean=3.0,
        turns_max=4,
        think_time_mean_s=4.0,
        system_prompt_pool=2,
        system_prompt_tokens=48,
        seed=seed,
    )


def _starved_config() -> ServingConfig:
    """Single starved rank under the priority policy: one DPU's MRAM
    (~1.5k KV tokens after weights) forces retained cache entries and
    running requests to fight, so LRU eviction fires constantly and
    tier-0 arrivals still have to preempt tier-1 decodes."""
    return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                         max_batch=8, policy="priority",
                         prefill_chunk_tokens=16, prefix_cache=True)


def test_fuzz_eviction_before_preemption_and_replay_oracle():
    hits = evictions = preemptions = 0
    for seed in FUZZ_SEEDS:
        trace = generate_trace(_fuzz_spec(seed))
        config = _starved_config()
        tracer = RecordingTracer("full")
        result = simulate_trace(trace, config, tracer=tracer)

        _check_invariants(trace, result)
        _check_cache_audit(result)

        # Eviction-before-preemption: at the instant any preemption
        # fires, the evictable pool must already be empty — the engine
        # traces the pool size it observed.
        preempt_events = [e for e in tracer.events if e.kind == "preempt"]
        for event in preempt_events:
            assert event.data["cache_evictable_bytes"] == 0, (seed, event)

        # Replay oracle: aggregates recomputed from the event stream
        # alone reproduce the engine's metrics table.
        replayed = replay_result(
            tracer.events, result.config,
            result.kv_capacity_bytes, result.weight_bytes,
        )
        expected, actual = metrics_table(result), metrics_table(replayed)
        assert len(expected) == len(actual)
        for row_e, row_a in zip(expected, actual):
            assert row_e.keys() == row_a.keys()
            for key in row_e:
                ve, va = row_e[key], row_a[key]
                if isinstance(ve, float):
                    assert math.isclose(
                        ve, va, rel_tol=1e-9, abs_tol=1e-12
                    ), (seed, key, ve, va)
                else:
                    assert ve == va, (seed, key, ve, va)

        hits += result.cache_hits
        evictions += result.cache_evictions
        preemptions += result.preemptions
        assert result.cache_evictions == len(
            [e for e in tracer.events if e.kind == "cache_evict"]
        )
    # The corpus must exercise all three interleaved mechanisms.
    assert hits > 0
    assert evictions > 0
    assert preemptions > 0


def test_fuzz_is_deterministic():
    trace = generate_trace(_fuzz_spec(0))
    a = simulate_trace(trace, _starved_config())
    b = simulate_trace(trace, _starved_config())
    assert a.records == b.records
    assert a.rank_stats == b.rank_stats


def test_fuzz_engines_agree_under_starvation():
    """Event vs loop with cache, eviction and preemption all active."""
    for seed in (0, 3, 5):
        trace = generate_trace(_fuzz_spec(seed))
        event = simulate_trace(
            trace, dataclasses.replace(_starved_config(), engine="event")
        )
        loop = simulate_trace(
            trace, dataclasses.replace(_starved_config(), engine="loop")
        )
        assert [r.status for r in event.records] == [
            r.status for r in loop.records
        ]
        assert event.cache_hits == loop.cache_hits
        assert event.cache_evictions == loop.cache_evictions
        assert event.preemptions == loop.preemptions
        for ev, lp in zip(event.records, loop.records):
            for field in ("admit_s", "first_token_s", "finish_s"):
                a, b = getattr(ev, field), getattr(lp, field)
                if a is None or b is None:
                    assert a == b
                else:
                    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
