"""Event vs loop engine: metric identity.

The event engine advances the running batch by whole closed-form
segments between scheduler events and takes wide batches in bulk; the
loop engine is the per-token reference that keeps every per-request
path.  Both must make identical scheduling decisions and report
identical metrics — integer counters exactly, float timestamps and
energies to summation rounding.  The seeded property harness below
sweeps every policy, every arrival scenario and both roomy and
KV-starved deployments (the starved configs exercise preemption,
rejection and requeue paths through the segment machinery); a wide
KV-starved deployment drives the bulk paths against the oracle.
"""

import dataclasses
import math

import pytest

from repro.model import SchemePolicy, get_model_config
from repro.model.cost import decode_segment_stats, decode_step_weight_stats
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem
from repro.serving import (
    ENGINES,
    POLICIES,
    SCENARIOS,
    Request,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_trace,
    summary,
)

ALL_POLICIES = sorted(POLICIES)
SEEDS = range(10)


def _spec(seed: int) -> TraceSpec:
    """Small randomized trace cycling through the arrival scenarios."""
    return TraceSpec(
        num_requests=12 + (seed % 3) * 4,
        arrival_rate_per_s=0.002 + 0.002 * seed if seed % 2 else 0.5 + 0.25 * seed,
        scenario=SCENARIOS[seed % len(SCENARIOS)],
        prompt_mean=64.0 + 32.0 * (seed % 3),
        prompt_sigma=0.8,
        prompt_max=384,
        gen_mean=48.0,
        gen_max=256,
        priority_weights=(0.3, 0.7),
        slo_ttft_s=(50.0, 500.0),
        seed=seed,
    )


def _config(policy: str, seed: int) -> ServingConfig:
    """Alternate roomy and KV-starved deployments (preemption fires)."""
    if seed % 2:
        return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                             max_batch=16, policy=policy,
                             prefill_chunk_tokens=16)
    return ServingConfig(model="gpt-125m", num_ranks=2, dpus_per_rank=8,
                         max_batch=4, policy=policy, prefill_chunk_tokens=16)


def _assert_equivalent(trace, config, engines=None):
    """Every engine in ``engines`` (default: all but ``event``) must
    reproduce the event engine's result."""
    if engines is None:
        engines = [e for e in ENGINES if e != "event"]
    event = simulate_trace(trace, dataclasses.replace(config, engine="event"))
    for engine in engines:
        other = simulate_trace(trace, dataclasses.replace(config, engine=engine))
        _assert_result_equal(event, other, len(trace))


def _assert_result_equal(event, loop, n_requests):
    assert len(event.records) == len(loop.records) == n_requests
    for ev, lp in zip(event.records, loop.records):
        # Scheduling decisions are identical: same request, same rank,
        # same terminal status, same preemption count.
        assert ev.req_id == lp.req_id
        assert ev.rank == lp.rank
        assert ev.status == lp.status
        assert ev.preemptions == lp.preemptions
        assert ev.session_id == lp.session_id
        assert ev.turn == lp.turn
        assert ev.cache_hit == lp.cache_hit
        assert ev.cached_tokens == lp.cached_tokens
        # Timestamps agree to float-summation rounding.
        for field in ("admit_s", "first_token_s", "finish_s"):
            a, b = getattr(ev, field), getattr(lp, field)
            if a is None or b is None:
                assert a == b, (field, ev, lp)
            else:
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (
                    field, a, b, ev.req_id,
                )
        assert ev.ttft_s == pytest.approx(lp.ttft_s, rel=1e-9, abs=1e-12)
        assert ev.tpot_s == pytest.approx(lp.tpot_s, rel=1e-9, abs=1e-12)

    for rs_ev, rs_lp in zip(event.rank_stats, loop.rank_stats):
        assert rs_ev.output_tokens == rs_lp.output_tokens
        assert rs_ev.prefill_tokens == rs_lp.prefill_tokens
        assert rs_ev.decode_iterations == rs_lp.decode_iterations
        assert rs_ev.preemptions == rs_lp.preemptions
        assert rs_ev.requeues == rs_lp.requeues
        assert rs_ev.recompute_tokens == rs_lp.recompute_tokens
        assert rs_ev.kv_peak_bytes == rs_lp.kv_peak_bytes
        assert rs_ev.cache_hits == rs_lp.cache_hits
        assert rs_ev.cache_misses == rs_lp.cache_misses
        assert rs_ev.cache_evictions == rs_lp.cache_evictions
        assert rs_ev.cache_hit_tokens == rs_lp.cache_hit_tokens
        assert rs_ev.kv_logical_bytes == rs_lp.kv_logical_bytes
        assert rs_ev.kv_reserved_bytes == rs_lp.kv_reserved_bytes
        assert rs_ev.kv_final_bytes == rs_lp.kv_final_bytes
        assert rs_ev.finish_s == pytest.approx(rs_lp.finish_s, rel=1e-9)
        assert rs_ev.busy_s == pytest.approx(rs_lp.busy_s, rel=1e-9)
        assert rs_ev.energy_j == pytest.approx(rs_lp.energy_j, rel=1e-9)
    assert event.makespan_s == pytest.approx(loop.makespan_s, rel=1e-9)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_engines_metric_identical_across_seeds(policy):
    """Seeded sweep over scenarios and deployments, per policy."""
    for seed in SEEDS:
        trace = generate_trace(_spec(seed))
        _assert_equivalent(trace, _config(policy, seed))


def test_engines_agree_when_dpus_exceed_head_dim():
    """More DPUs than attention columns: the per-step region of the
    cumulative attention table (where the DPU count still grows with the
    KV length, so energy is not linear in aggregated stats) is actually
    exercised."""
    trace = generate_trace(TraceSpec(num_requests=12, seed=4, prompt_mean=8,
                                     prompt_max=32, gen_mean=64, gen_max=200))
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=128,
                           max_batch=4)
    model = get_model_config("gpt-125m")
    assert 128 > model.head_dim  # the corner this test pins
    _assert_equivalent(trace, config)


def test_event_engine_is_default_and_summary_reports_it():
    trace = generate_trace(TraceSpec(num_requests=4, seed=0, prompt_mean=8,
                                     gen_mean=4))
    config = ServingConfig(model="gpt-125m", num_ranks=1)
    assert config.engine == "event"
    flat = summary(simulate_trace(trace, config))
    assert flat["engine"] == "event"


def test_unknown_engine_rejected():
    assert ENGINES == ("event", "loop")
    with pytest.raises(ValueError, match="unknown serving engine"):
        ServingConfig(engine="turbo")


def test_single_long_request_identical_per_engine():
    """One unloaded request: the whole decode is a single segment."""
    trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=32, gen_tokens=200)]
    config = ServingConfig(model="gpt-125m", num_ranks=1)
    _assert_equivalent(trace, config)


def test_arrival_mid_segment_admitted_at_same_boundary():
    """A request arriving while another decodes must be admitted at the
    same iteration boundary under both engines (the event engine bisects
    the closed-form segment latency to find it)."""
    first = simulate_trace(
        [Request(req_id=0, arrival_s=0.0, prompt_tokens=16, gen_tokens=64)],
        ServingConfig(model="gpt-125m", num_ranks=1, engine="loop"),
    )
    midpoint = first.records[0].finish_s / 2
    trace = [
        Request(req_id=0, arrival_s=0.0, prompt_tokens=16, gen_tokens=64),
        Request(req_id=1, arrival_s=midpoint, prompt_tokens=8, gen_tokens=8),
    ]
    config = ServingConfig(model="gpt-125m", num_ranks=1)
    _assert_equivalent(trace, config)
    event = simulate_trace(trace, config)
    late = next(r for r in event.records if r.req_id == 1)
    assert late.admit_s >= midpoint  # joined mid-decode, not at the end
    assert late.finish_s < event.makespan_s or late.finish_s == event.makespan_s


# ---------------------------------------------------------------------------
# prefix-cache differential oracle
# ---------------------------------------------------------------------------

def _conv_spec(seed: int) -> TraceSpec:
    """A small conversational session trace with shared system prompts."""
    return TraceSpec(
        num_requests=24,
        arrival_rate_per_s=0.05,
        scenario="conversational",
        prompt_mean=48.0,
        prompt_sigma=0.8,
        prompt_max=192,
        gen_mean=24.0,
        gen_max=96,
        sessions=8,
        turns_mean=3.0,
        turns_max=5,
        think_time_mean_s=5.0,
        system_prompt_pool=2,
        system_prompt_tokens=48,
        seed=seed,
    )


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_prefix_cache_differential_oracle(policy):
    """Cache-on vs cache-off, per engine: the exact same request set
    completes (the cache must never change which requests are
    servable), TTFT never gets worse, and the two engines stay
    metric-identical with the cache enabled.

    The TTFT oracle is the aggregate — total TTFT over the completed
    set must not increase for any (engine, seed) run.  It is *not*
    per-request: a hit frees batch slots and KV earlier, so neighbours
    admit sooner, the decode batch runs wider (slower per iteration),
    and under reordering policies a different request may take the
    freed slot — an individual request can legitimately see a later
    first token even though every run's total strictly improves.
    """
    hits = 0
    for seed in SEEDS:
        trace = generate_trace(_conv_spec(seed))
        config = ServingConfig(model="gpt-125m", num_ranks=2,
                               dpus_per_rank=16, max_batch=8, policy=policy,
                               prefill_chunk_tokens=16)
        for engine in ("event", "loop"):
            cfg = dataclasses.replace(config, engine=engine)
            off = simulate_trace(trace, cfg)
            on = simulate_trace(
                trace, dataclasses.replace(cfg, prefix_cache=True)
            )
            ttft_on = ttft_off = 0.0
            for rec_on, rec_off in zip(on.records, off.records):
                assert rec_on.req_id == rec_off.req_id
                assert rec_on.status == rec_off.status
                if rec_on.status != "completed":
                    continue
                ttft_on += rec_on.ttft_s
                ttft_off += rec_off.ttft_s
            assert ttft_on <= ttft_off + 1e-9, (policy, engine, seed)
            hits += on.cache_hits
        _assert_equivalent(
            trace, dataclasses.replace(config, prefix_cache=True)
        )
    # The corpus must actually exercise the cache, or the oracle above
    # proves nothing.
    assert hits > 0


# ---------------------------------------------------------------------------
# model-level segment cost
# ---------------------------------------------------------------------------

def test_decode_segment_stats_matches_per_token_loop():
    """Counts exact, latencies to rounding, vs a per-token reference that
    costs each step's attention through the functional-kernel cost path
    (independent of the closed-form range sums)."""
    from repro.model.decoder import attention_gemm_costs

    model = get_model_config("gpt-125m")
    policy = SchemePolicy("W1A3")
    system = UpmemSystem(UpmemConfig(num_ranks=1))
    kv_lens = (16, 40, 7)
    tokens = 5
    segment = decode_segment_stats(model, policy, kv_lens, tokens, system=system)

    reference = decode_step_weight_stats(
        model, policy, len(kv_lens), system=system
    ).scaled(tokens)
    for kv in kv_lens:
        per_request = ExecutionStats()
        for t in range(tokens):
            for stats in attention_gemm_costs(
                model.num_heads, model.head_dim, 1, 1, kv + t + 1, system
            ).values():
                per_request = per_request + stats
        reference = reference + per_request.scaled(model.num_layers)
    assert segment.allclose(reference)
    # Counts must be exact, not merely close.
    assert segment.n_macs == reference.n_macs
    assert segment.n_lookups == reference.n_lookups
    assert segment.n_instructions == reference.n_instructions


def test_decode_segment_stats_edges_and_validation():
    model = get_model_config("gpt-125m")
    policy = SchemePolicy("W1A3")
    empty = decode_segment_stats(model, policy, (), 4)
    assert empty.n_macs == 0 and empty.total_s == 0.0
    zero = decode_segment_stats(model, policy, (8,), 0)
    assert zero.n_macs == 0
    with pytest.raises(ValueError, match="tokens"):
        decode_segment_stats(model, policy, (8,), -1)
    with pytest.raises(ValueError, match="kv_lens"):
        decode_segment_stats(model, policy, (-2,), 4)


# ---------------------------------------------------------------------------
# the event engine's bulk paths against the per-token oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_starved_wide_deployment_matches_loop(policy, monkeypatch):
    """Bursts of 100 onto a 128-wide rank with KV room for ~74 of them:
    every round of admission stops on KV with batch slots still free,
    an oversized request in each burst is rejected mid-round, the
    priority policy preempts, and the admitted prefills and decode
    batches are wide enough for the bulk paths, which must land every
    decision where the loop engine does."""
    from repro.serving.engine.rank_engine import PACKED_MIN_BATCH, _RankEngine

    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=8,
                           max_batch=128, policy=policy,
                           prefill_chunk_tokens=64)
    trace = []
    for burst in range(3):
        for i in range(100):
            rid = len(trace)
            big = i == 40
            trace.append(Request(
                req_id=rid, arrival_s=burst * 400.0,
                prompt_tokens=8000 if big else 64 + (rid * 7) % 64,
                gen_tokens=8000 if big else 64 + (rid * 13) % 64,
                priority=rid % 2, slo_ttft_s=50.0,
            ))
    widths = []
    original = _RankEngine._prefill_stage

    def spy(engine):
        widths.append(len(engine.prefilling))
        original(engine)

    monkeypatch.setattr(_RankEngine, "_prefill_stage", spy)
    event = simulate_trace(trace, config)
    monkeypatch.undo()
    assert max(widths) >= PACKED_MIN_BATCH
    assert sum(r.status == "rejected" for r in event.records) == 3
    if policy == "priority":
        assert event.preemptions > 0
    stats = event.rank_stats[0]
    assert stats.kv_peak_bytes > 0.95 * event.kv_capacity_bytes
    _assert_equivalent(trace, config)


def test_records_are_lazy_but_complete():
    """The result holds records as columns: ``len`` works without
    materialisation, iteration yields req_id-sorted RequestRecords."""
    trace = generate_trace(TraceSpec(num_requests=32, seed=1))
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    result = simulate_trace(trace, config)
    records = result.records
    assert len(records) == 32
    assert records._items is None  # len() must not materialise
    ids = [r.req_id for r in records]
    assert ids == sorted(ids) == list(range(32))
    assert records[5].req_id == 5
