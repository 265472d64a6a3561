"""Continuous-batching scheduler: consistency with the model cost layer,
KV admission, sharding and metric aggregation."""

import pytest

from repro.experiments.tables import percentile, percentiles
from repro.model import SchemePolicy, get_model_config
from repro.model.cost import model_inference_cost
from repro.pim.upmem import UpmemConfig, UpmemSystem
from repro.serving import (
    Request,
    ServingConfig,
    TraceSpec,
    generate_trace,
    metrics_table,
    simulate_trace,
    summary,
)

SMALL = ServingConfig(model="gpt-125m", num_ranks=1, max_batch=4)


def _single(prompt=16, gen=4, arrival=0.5):
    return [Request(req_id=0, arrival_s=arrival, prompt_tokens=prompt,
                    gen_tokens=gen)]


# ---------------------------------------------------------------------------
# consistency with the model cost layer
# ---------------------------------------------------------------------------

def test_single_request_latency_matches_model_inference_cost():
    """An unloaded single request costs exactly prefill + decode of the
    model-level pipeline (same substrate, batch 1)."""
    result = simulate_trace(_single(prompt=16, gen=4), SMALL)
    (rec,) = result.records
    cost = model_inference_cost(
        get_model_config("gpt-125m"), SchemePolicy("W1A3"), batch=1,
        prefill_tokens=16, decode_tokens=4,
        system=UpmemSystem(UpmemConfig(num_ranks=1)),
    )
    assert rec.status == "completed"
    assert rec.latency_s == pytest.approx(cost.total_s, rel=1e-9)
    # TTFT is prefill plus the first decode iteration.
    first_decode = rec.first_token_s - rec.admit_s - cost.prefill.latency_s
    assert rec.ttft_s == pytest.approx(
        cost.prefill.latency_s + first_decode, rel=1e-9
    )
    assert first_decode > 0
    assert result.output_tokens == 4
    assert result.prefill_tokens == 16


def test_makespan_and_clock_account_for_arrival():
    result = simulate_trace(_single(arrival=2.0, gen=2), SMALL)
    (rec,) = result.records
    assert rec.admit_s == pytest.approx(2.0)
    assert result.makespan_s >= 2.0
    assert rec.finish_s == pytest.approx(result.makespan_s)


# ---------------------------------------------------------------------------
# continuous batching
# ---------------------------------------------------------------------------

def test_batched_decode_is_cheaper_than_serial():
    """Two concurrent requests share weight GEMMs: the makespan is
    shorter than serving them back to back."""
    trace = [
        Request(req_id=i, arrival_s=0.0, prompt_tokens=8, gen_tokens=8)
        for i in range(2)
    ]
    batched = simulate_trace(trace, SMALL).makespan_s
    serial = 2 * simulate_trace(trace[:1], SMALL).makespan_s
    assert batched < serial


def test_short_request_drains_before_long_one():
    """Continuous batching lets a short request complete while a long one
    keeps decoding (no static batch barrier)."""
    trace = [
        Request(req_id=0, arrival_s=0.0, prompt_tokens=8, gen_tokens=64),
        Request(req_id=1, arrival_s=0.0, prompt_tokens=8, gen_tokens=2),
    ]
    result = simulate_trace(trace, SMALL)
    short = next(r for r in result.records if r.req_id == 1)
    long = next(r for r in result.records if r.req_id == 0)
    assert short.finish_s < long.finish_s
    # The long request was not restarted or stalled to completion first.
    assert long.first_token_s < short.finish_s


def test_max_batch_respected_and_late_arrival_joins():
    config = ServingConfig(model="gpt-125m", num_ranks=1, max_batch=2)
    trace = [
        Request(req_id=i, arrival_s=0.0, prompt_tokens=4, gen_tokens=16)
        for i in range(3)
    ]
    result = simulate_trace(trace, config)
    assert all(r.status == "completed" for r in result.records)
    records = sorted(result.records, key=lambda r: r.req_id)
    # The third request had to wait for a batch slot.
    assert records[2].queue_s > 0.0


# ---------------------------------------------------------------------------
# KV-cache admission
# ---------------------------------------------------------------------------

def test_kv_admission_queues_when_cache_is_full():
    """With MRAM for only ~one reservation, requests serialise."""
    model = get_model_config("gpt-125m")
    config = ServingConfig(model="gpt-125m", num_ranks=1, max_batch=8,
                           dpus_per_rank=1)
    capacity = simulate_trace([], config).kv_capacity_bytes
    # Size the request so one reservation fits but two do not.
    per_token = model.kv_cache_bytes(1, 1)
    seq = capacity // per_token
    assert model.kv_cache_bytes(1, seq) <= capacity < 2 * model.kv_cache_bytes(1, seq)
    prompt, gen = 16, seq - 16
    need = model.kv_cache_bytes(1, prompt + gen)
    trace = [
        Request(req_id=i, arrival_s=0.0, prompt_tokens=prompt, gen_tokens=gen)
        for i in range(2)
    ]
    result = simulate_trace(trace, config)
    assert result.kv_capacity_bytes < 2 * need
    assert all(r.status == "completed" for r in result.records)
    first, second = sorted(result.records, key=lambda r: r.admit_s)
    # The second admission waits for the first request to finish.
    assert second.admit_s >= first.finish_s


def test_oversized_request_rejected_not_deadlocked():
    model = get_model_config("gpt-125m")
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=3)
    capacity = simulate_trace([], config).kv_capacity_bytes
    too_long = 1
    while model.kv_cache_bytes(1, 8 + too_long) <= capacity:
        too_long *= 2
    trace = [
        Request(req_id=0, arrival_s=0.0, prompt_tokens=8, gen_tokens=too_long),
        Request(req_id=1, arrival_s=0.0, prompt_tokens=8, gen_tokens=2),
    ]
    result = simulate_trace(trace, config)
    by_id = {r.req_id: r for r in result.records}
    assert by_id[0].status == "rejected"
    assert by_id[0].finish_s is None
    assert by_id[1].status == "completed"


def test_model_too_big_for_replica_raises():
    with pytest.raises(ValueError, match="MRAM"):
        simulate_trace([], ServingConfig(model="gpt-6.7b", scheme="W4A4",
                                         dpus_per_rank=1))


# ---------------------------------------------------------------------------
# sharding and metrics
# ---------------------------------------------------------------------------

def test_round_robin_sharding_across_ranks():
    config = ServingConfig(model="gpt-125m", num_ranks=2, max_batch=4)
    trace = generate_trace(TraceSpec(num_requests=8, seed=2))
    result = simulate_trace(trace, config)
    per_rank = {rs.rank for rs in result.rank_stats}
    assert per_rank == {0, 1}
    counts = [sum(r.rank == rank for r in result.records) for rank in (0, 1)]
    assert counts == [4, 4]
    assert result.makespan_s == max(rs.finish_s for rs in result.rank_stats)


def test_metrics_table_scopes_and_summary():
    config = ServingConfig(model="gpt-125m", num_ranks=2, max_batch=4)
    trace = generate_trace(TraceSpec(num_requests=10, seed=6))
    result = simulate_trace(trace, config)
    table = metrics_table(result)
    assert [row["scope"] for row in table] == ["all", "rank0", "rank1"]
    all_row = table[0]
    assert all_row["completed"] == 10
    assert all_row["output_tokens"] == result.output_tokens
    assert all_row["output_tokens_per_s"] > 0
    assert all_row["energy_j"] == pytest.approx(result.total_energy_j)
    assert 0 < all_row["utilization"] <= 1.0
    assert all_row["ttft_p50_s"] <= all_row["ttft_p99_s"]
    assert all_row["latency_p50_s"] <= all_row["latency_p99_s"]
    flat = summary(result)
    assert flat["model"] == "gpt-125m"
    assert flat["ttft_p99_s"] == all_row["ttft_p99_s"]
    # Energy splits across ranks.
    assert result.total_energy_j == pytest.approx(
        table[1]["energy_j"] + table[2]["energy_j"]
    )


def test_tpot_excludes_single_token_requests():
    """A gen=1 request has no post-first-token interval; its placeholder
    0.0 must not drag the TPOT aggregates down."""
    trace = [
        Request(req_id=0, arrival_s=0.0, prompt_tokens=8, gen_tokens=1),
        Request(req_id=1, arrival_s=0.0, prompt_tokens=8, gen_tokens=16),
    ]
    result = simulate_trace(trace, SMALL)
    multi = next(r for r in result.records if r.req_id == 1)
    all_row = metrics_table(result)[0]
    assert all_row["tpot_mean_s"] == pytest.approx(multi.tpot_s)
    assert all_row["tpot_p99_s"] == pytest.approx(multi.tpot_s)


def test_allclose_rejects_non_stats():
    from repro.pim.upmem import ExecutionStats
    with pytest.raises(TypeError):
        ExecutionStats().allclose({"not": "stats"})


def test_percentile_helper():
    assert percentile([], 99) == 0.0
    assert percentile([5.0], 50) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    # The sort-once helper is bit-identical to sorting per quantile.
    def sort_per_quantile(values, q):
        ordered = sorted(values)
        position = (len(ordered) - 1) * q / 100.0
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        frac = position - low
        return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)

    values = [((7 * i) % 13) / 3.0 + i * 1e-3 for i in range(41)]
    qs = (0, 12.5, 50, 95, 99, 100)
    assert percentiles(values, qs) == [sort_per_quantile(values, q) for q in qs]
    assert percentiles([], qs) == [0.0] * len(qs)
    assert percentiles([5.0], (50, 99)) == [5.0, 5.0]
    with pytest.raises(ValueError):
        percentiles([1.0], (50, -1))


def test_simulation_is_deterministic():
    trace = generate_trace(TraceSpec(num_requests=12, seed=11))
    a = simulate_trace(trace, SMALL)
    b = simulate_trace(trace, SMALL)
    assert a.records == b.records
    assert a.makespan_s == b.makespan_s
    assert a.total_energy_j == b.total_energy_j
