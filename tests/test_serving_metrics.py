"""Per-request rows and aggregate tables: None timestamps, zero edges,
and one metrics implementation (records path == dict-rows path)."""

import dataclasses
import math

import pytest

from repro.experiments.io import read_csv, write_csv
from repro.experiments.tables import (
    percentile,
    percentiles,
    safe_ratio,
    serving_table,
)
from repro.serving import (
    Deployment,
    FaultPlan,
    FaultSpec,
    Request,
    RetryPolicy,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_cluster,
    simulate_trace,
)
from repro.serving.engine.records import ColumnRecords
from repro.serving.metrics import (
    cluster_rows,
    metrics_table,
    record_rows,
    summary,
)
from repro.serving.engine import RequestRecord, ServingResult


def _result(**record_kwargs):
    """A one-request ServingResult with controllable record fields."""
    defaults = dict(req_id=0, rank=0, arrival_s=1.0, prompt_tokens=8,
                    gen_tokens=4, priority=0, slo_ttft_s=0.0)
    defaults.update(record_kwargs)
    return ServingResult(
        config=ServingConfig(model="gpt-125m", num_ranks=1),
        records=[RequestRecord(**defaults)],
        rank_stats=[],
        kv_capacity_bytes=0,
        weight_bytes=0,
    )


def test_record_rows_keep_missing_timestamps_none():
    """A rejected request has no admission/first-token/finish time — the
    row must say so with None, not a fake 0.0 reading as trace start."""
    rows = record_rows(_result(status="rejected"))
    row = rows[0]
    assert row["status"] == "rejected"
    assert row["admit_s"] is None
    assert row["first_token_s"] is None
    assert row["finish_s"] is None
    assert row["arrival_s"] == 1.0


def test_record_rows_none_round_trips_csv(tmp_path):
    """None cells serialise to empty CSV cells and are dropped on read,
    so the round-trip never manufactures numbers."""
    rows = record_rows(_result(status="rejected"))
    path = str(tmp_path / "records.csv")
    write_csv(path, rows)
    back = read_csv(path)
    assert "admit_s" not in back[0]
    assert "finish_s" not in back[0]
    assert back[0]["arrival_s"] == 1.0
    assert back[0]["status"] == "rejected"


def test_record_rows_completed_request_keeps_floats():
    rows = record_rows(_result(
        status="completed", admit_s=2.0, first_token_s=3.0, finish_s=5.0
    ))
    row = rows[0]
    assert row["admit_s"] == 2.0
    assert row["first_token_s"] == 3.0
    assert row["finish_s"] == 5.0
    assert row["latency_s"] == 4.0


def test_safe_ratio_edges():
    assert safe_ratio(6.0, 3.0) == 2.0
    assert safe_ratio(1.0, 0.0) == 0.0
    assert safe_ratio(1.0, -2.0) == 0.0
    assert safe_ratio(0.0, 0.0, default=1.0) == 1.0
    assert math.isinf(safe_ratio(1.0, 0.0, default=math.inf))


def test_metrics_table_rejected_only_run_is_well_formed():
    """Zero output tokens, zero busy time, no completions: every rate
    and share must come out 0.0 / defaulted, never raise."""
    table = metrics_table(_result(status="rejected"))
    row = table[0]
    assert row["scope"] == "all"
    assert row["completed"] == 0
    assert row["rejected"] == 1
    assert row["output_tokens"] == 0
    assert row["output_tokens_per_s"] == 0.0
    assert row["energy_mj_per_token"] == 0.0
    assert row["utilization"] == 0.0
    assert row["ttft_mean_s"] == 0.0
    assert row["slo_attainment"] == 1.0  # no SLO-carrying request


def test_metrics_table_zero_makespan():
    """An instantly-rejected trace has makespan 0; utilization must not
    divide by it."""
    result = _result(status="rejected")
    assert result.makespan_s == 0.0
    assert metrics_table(result)[0]["utilization"] == 0.0


def test_serving_table_empty_rows():
    assert serving_table([]) == []


def test_metrics_table_empty_result():
    empty = ServingResult(
        config=ServingConfig(model="gpt-125m"), records=[], rank_stats=[],
        kv_capacity_bytes=0, weight_bytes=0,
    )
    assert metrics_table(empty) == []
    assert summary(empty)["scope"] == "all"


def test_metrics_table_healthy_run_unchanged():
    """The guard refactor must not move any value on a normal run."""
    trace = generate_trace(TraceSpec(num_requests=12, seed=2))
    result = simulate_trace(trace, ServingConfig(model="gpt-125m", num_ranks=2))
    table = metrics_table(result)
    row = table[0]
    assert row["completed"] == 12
    assert row["output_tokens_per_s"] > 0
    assert row["energy_mj_per_token"] > 0
    assert 0.0 < row["utilization"] <= 1.0
    assert row["energy_mj_per_token"] == pytest.approx(
        1e3 * result.total_energy_j / result.output_tokens
    )


# ---------------------------------------------------------------------------
# prefix-cache counters: TTFT split and type-faithful round-trips
# ---------------------------------------------------------------------------

def _cached_result():
    trace = generate_trace(TraceSpec(
        num_requests=20, seed=3, scenario="conversational",
        arrival_rate_per_s=0.05,
        prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
        gen_mean=24.0, gen_max=64,
        sessions=6, turns_mean=3.0, turns_max=4, think_time_mean_s=5.0,
        system_prompt_pool=2, system_prompt_tokens=48,
    ))
    return simulate_trace(trace, ServingConfig(
        model="gpt-125m", num_ranks=2, dpus_per_rank=8, max_batch=8,
        prefix_cache=True,
    ))


def test_serving_table_splits_ttft_by_cache_hit():
    """``ttft_hit_*`` / ``ttft_miss_*`` partition the completed set, and
    the row counts agree with the hit flags."""
    result = _cached_result()
    rows = record_rows(result)
    hits = [r for r in rows if r["status"] == "completed" and r["cache_hit"]]
    assert hits  # the fixture must exercise the split
    table = serving_table(rows)
    row = table[0]
    assert row["cache_hit_requests"] == len(hits)
    assert row["ttft_hit_p50_s"] > 0
    assert row["ttft_miss_p50_s"] > 0
    assert row["ttft_hit_p50_s"] <= row["ttft_hit_p95_s"]
    assert row["ttft_miss_p50_s"] <= row["ttft_miss_p95_s"]


def test_cache_record_rows_round_trip_csv_type_faithful(tmp_path):
    """The new per-request columns survive write/read exactly:
    ``cache_hit`` stays a bool (not the string "True"), the session and
    token counters stay ints."""
    rows = record_rows(_cached_result())
    path = str(tmp_path / "records.csv")
    write_csv(path, rows)
    back = read_csv(path)
    assert back == rows
    hit = next(r for r in back if r["cache_hit"])
    assert hit["cache_hit"] is True
    assert isinstance(hit["cached_tokens"], int) and hit["cached_tokens"] > 0
    assert isinstance(hit["session_id"], int)
    assert isinstance(hit["turn"], int)


def test_cache_metrics_table_round_trips_csv(tmp_path):
    """Aggregate cache counters (ints) and ratios (floats) round-trip
    through the CSV writer for the ``all`` row and every rank row."""
    table = metrics_table(_cached_result())
    path = str(tmp_path / "metrics.csv")
    write_csv(path, table)
    back = read_csv(path)
    assert back == table
    for row in back:
        assert isinstance(row["cache_hits"], int)
        assert isinstance(row["cache_misses"], int)
        assert isinstance(row["cache_evictions"], int)
        assert isinstance(row["cache_hit_rate"], float)
        assert isinstance(row["kv_dedup_factor"], float)
    assert back[0]["cache_hit_rate"] > 0.0
    assert back[0]["kv_dedup_factor"] > 1.0


def test_cache_timeline_rows_round_trip_csv(tmp_path):
    """``cache_hit`` / ``cache_evict`` events flatten into timeline rows
    whose ``key`` column stays a string through the CSV round-trip (it
    is in the io string-column allowlist)."""
    from repro.obs import RecordingTracer, timeline_rows
    from test_serving_prefix_cache import _fuzz_spec, _starved_config

    trace = generate_trace(_fuzz_spec(0))
    tracer = RecordingTracer("full")
    simulate_trace(trace, _starved_config(), tracer=tracer)
    rows = timeline_rows(tracer.events)
    kinds = {r["event"] for r in rows}
    assert {"cache_hit", "cache_evict"} <= kinds
    path = str(tmp_path / "timeline.csv")
    write_csv(path, rows)
    back = read_csv(path)
    evict = next(r for r in back if r["event"] == "cache_evict")
    assert isinstance(evict["key"], str) and ":" in evict["key"]
    assert isinstance(evict["depth_tokens"], int)
    hit = next(r for r in back if r["event"] == "cache_hit")
    assert isinstance(hit["cached_tokens"], int)
    assert isinstance(hit["kv_saved_bytes"], int)


# ---------------------------------------------------------------------------
# one metrics implementation: records path == rows path, bit for bit
# ---------------------------------------------------------------------------

def _per_row_serving_table(rows):
    """The per-row ``serving_table`` that predates the shared
    per-field scope rows: an independent oracle for both paths."""
    if not rows:
        return []
    scopes = [("all", list(rows))]
    by_rank = {}
    for r in rows:
        by_rank.setdefault(r["rank"], []).append(r)
    for rank in sorted(by_rank):
        scopes.append((f"rank{rank}", by_rank[rank]))
    table = []
    for scope, group in scopes:
        done = [r for r in group if r["status"] == "completed"]
        ttfts = [r["ttft_s"] for r in done]
        tpots = [r["tpot_s"] for r in done if r["gen_tokens"] >= 2]
        latencies = [r["latency_s"] for r in done]
        output_tokens = sum(r["gen_tokens"] for r in done)
        window = max((r["finish_s"] for r in done), default=0.0)
        slo_rows = [r for r in group if r.get("slo_ttft_s", 0.0) > 0]
        slo_met = sum(
            r["status"] == "completed" and r["ttft_s"] <= r["slo_ttft_s"]
            for r in slo_rows
        )
        hit_ttfts = [r["ttft_s"] for r in done if r.get("cache_hit", False)]
        miss_ttfts = [r["ttft_s"] for r in done
                      if not r.get("cache_hit", False)]
        ttft_p50, ttft_p95, ttft_p99 = percentiles(ttfts, (50, 95, 99))
        hit_p50, hit_p95 = percentiles(hit_ttfts, (50, 95))
        miss_p50, miss_p95 = percentiles(miss_ttfts, (50, 95))
        latency_p50, latency_p95, latency_p99 = percentiles(
            latencies, (50, 95, 99))
        table.append({
            "scope": scope,
            "requests": len(group),
            "completed": len(done),
            "rejected": sum(r["status"] == "rejected" for r in group),
            "failed": sum(r["status"] == "failed" for r in group),
            "preemptions": sum(r.get("preemptions", 0) for r in group),
            "retries": sum(r.get("retries", 0) for r in group),
            "failovers": sum(r.get("failovers", 0) for r in group),
            "shed": sum(bool(r.get("shed", False)) for r in group),
            "slo_requests": len(slo_rows),
            "slo_attainment": safe_ratio(slo_met, len(slo_rows),
                                         default=1.0),
            "ttft_p50_s": ttft_p50,
            "ttft_p95_s": ttft_p95,
            "ttft_p99_s": ttft_p99,
            "ttft_mean_s": safe_ratio(sum(ttfts), len(ttfts)),
            "cache_hit_requests": len(hit_ttfts),
            "ttft_hit_p50_s": hit_p50,
            "ttft_hit_p95_s": hit_p95,
            "ttft_miss_p50_s": miss_p50,
            "ttft_miss_p95_s": miss_p95,
            "tpot_mean_s": safe_ratio(sum(tpots), len(tpots)),
            "tpot_p99_s": percentile(tpots, 99),
            "latency_p50_s": latency_p50,
            "latency_p95_s": latency_p95,
            "latency_p99_s": latency_p99,
            "queue_mean_s": safe_ratio(sum(r["queue_s"] for r in done),
                                       len(done)),
            "output_tokens": output_tokens,
            "output_tokens_per_s": safe_ratio(output_tokens, window),
        })
    return table


def _reference_table(result):
    """The per-row table over ``record_rows(result)`` plus the
    enrichment ``metrics_table`` applies."""
    table = _per_row_serving_table(record_rows(result))
    by_scope = {row["scope"]: row for row in table}
    stats = result.rank_stats
    if "all" in by_scope:
        row = by_scope["all"]
        hits, misses = result.cache_hits, result.cache_misses
        row.update({
            "makespan_s": result.makespan_s,
            "prefill_tokens": result.prefill_tokens,
            "energy_j": result.total_energy_j,
            "energy_mj_per_token": safe_ratio(
                1e3 * result.total_energy_j, result.output_tokens),
            "utilization": safe_ratio(sum(rs.busy_s for rs in stats),
                                      len(stats) * result.makespan_s),
            "requeues": sum(rs.requeues for rs in stats),
            "recompute_tokens": sum(rs.recompute_tokens for rs in stats),
            "kv_peak_bytes": max((rs.kv_peak_bytes for rs in stats),
                                 default=0),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_evictions": result.cache_evictions,
            "cache_hit_rate": safe_ratio(hits, hits + misses),
            "cache_hit_tokens": sum(rs.cache_hit_tokens for rs in stats),
            "kv_dedup_factor": safe_ratio(
                sum(rs.kv_logical_bytes for rs in stats),
                sum(rs.kv_reserved_bytes for rs in stats), default=1.0),
        })
    for rs in stats:
        row = by_scope.get(f"rank{rs.rank}")
        if row is None:
            continue
        row.update({
            "makespan_s": rs.finish_s,
            "prefill_tokens": rs.prefill_tokens,
            "energy_j": rs.energy_j,
            "energy_mj_per_token": safe_ratio(1e3 * rs.energy_j,
                                              rs.output_tokens),
            "utilization": rs.utilization,
            "requeues": rs.requeues,
            "recompute_tokens": rs.recompute_tokens,
            "kv_peak_bytes": rs.kv_peak_bytes,
            "cache_hits": rs.cache_hits,
            "cache_misses": rs.cache_misses,
            "cache_evictions": rs.cache_evictions,
            "cache_hit_rate": safe_ratio(
                rs.cache_hits, rs.cache_hits + rs.cache_misses),
            "cache_hit_tokens": rs.cache_hit_tokens,
            "kv_dedup_factor": safe_ratio(
                rs.kv_logical_bytes, rs.kv_reserved_bytes, default=1.0),
        })
    return table


def _reference_summary(result):
    table = _reference_table(result)
    row = dict(table[0]) if table else {"scope": "all"}
    config = result.config
    row.update({
        "model": config.model, "scheme": config.scheme,
        "kernel": config.kernel, "policy": config.policy,
        "engine": config.engine, "prefix_cache": config.prefix_cache,
        "num_ranks": config.num_ranks,
        "dpus_per_rank": config.dpus_per_rank,
        "max_batch": config.max_batch,
        "kv_capacity_bytes": result.kv_capacity_bytes,
        "weight_bytes": result.weight_bytes,
    })
    return row


def _assert_one_implementation(result):
    """``repr`` equality checks every float bit for bit, and key order."""
    rows = record_rows(result)
    assert repr(serving_table(rows)) == repr(_per_row_serving_table(rows))
    assert repr(metrics_table(result)) == repr(_reference_table(result))
    assert repr(summary(result)) == repr(_reference_summary(result))


def _starved_trace():
    """An SLO-carrying request no replica can hold, then low-priority
    fillers evicted by SLO-carrying arrivals, then a one-token request."""
    trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=4096,
                     gen_tokens=4096, slo_ttft_s=5.0)]
    rid, t = 1, 0.0
    for _ in range(6):
        for priority, slo in ((3, 0.0), (3, 0.0), (0, 1.0), (0, 40.0)):
            trace.append(Request(req_id=rid, arrival_s=t, prompt_tokens=192,
                                 gen_tokens=191 - rid % 3,
                                 priority=priority, slo_ttft_s=slo))
            rid += 1
        t += 1.5
    trace.append(Request(req_id=rid, arrival_s=t, prompt_tokens=8,
                         gen_tokens=1))
    return trace


@pytest.mark.parametrize("ranks", [1, 4])
def test_metrics_from_records_match_serving_table(ranks):
    trace = generate_trace(TraceSpec(num_requests=80, seed=ranks,
                                     scenario="bursty",
                                     priority_weights=(1.0, 1.0),
                                     slo_ttft_s=(1.0, 30.0)))
    # A rejected SLO-carrying request ahead of every completed one.
    trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                     gen_tokens=10**6, slo_ttft_s=1.0)] + [
        dataclasses.replace(req, req_id=req.req_id + 1) for req in trace
    ]
    result = simulate_trace(trace, ServingConfig(model="gpt-125m",
                                                 num_ranks=ranks))
    row = metrics_table(result)[0]
    assert row["rejected"] == 1
    assert 0.0 < row["slo_attainment"] < 1.0
    assert len(metrics_table(result)) == ranks + 1
    _assert_one_implementation(result)


def test_single_rank_scope_is_the_all_row_renamed():
    trace = generate_trace(TraceSpec(num_requests=40, seed=9))
    result = simulate_trace(trace, ServingConfig(model="gpt-125m",
                                                 num_ranks=1))
    table = metrics_table(result)
    assert [row["scope"] for row in table] == ["all", "rank0"]
    assert table[1] is not table[0]
    aggregate = {k: v for k, v in table[0].items() if k != "scope"}
    rank = {k: v for k, v in table[1].items() if k != "scope"}
    assert list(aggregate) == list(rank)
    for key in serving_table(record_rows(result))[0]:
        if key != "scope":
            assert repr(aggregate[key]) == repr(rank[key]), key


def test_metrics_match_on_rejections_and_preemptions():
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                           max_batch=8, policy="priority")
    result = simulate_trace(_starved_trace(), config)
    statuses = {rec.status for rec in result.records}
    assert statuses == {"completed", "rejected"}
    assert sum(rec.preemptions for rec in result.records) > 0
    assert isinstance(result.records, ColumnRecords)
    _assert_one_implementation(result)


def test_metrics_match_on_prefix_cache_split():
    result = _cached_result()
    hits = [rec.cache_hit for rec in result.records
            if rec.status == "completed"]
    assert any(hits) and not all(hits)
    _assert_one_implementation(result)


def test_metrics_match_on_empty_result():
    empty = ServingResult(
        config=ServingConfig(model="gpt-125m"), records=[], rank_stats=[],
        kv_capacity_bytes=0, weight_bytes=0,
    )
    _assert_one_implementation(empty)
    columns = ServingResult(
        config=ServingConfig(model="gpt-125m"),
        records=ColumnRecords({
            field.name: [] for field in dataclasses.fields(RequestRecord)
        }),
        rank_stats=[], kv_capacity_bytes=0, weight_bytes=0,
    )
    _assert_one_implementation(columns)


def _faulted_cluster(shed: bool = True):
    trace = generate_trace(TraceSpec(
        num_requests=120, seed=3, scenario="bursty",
        arrival_rate_per_s=30.0, priority_weights=(1.0, 1.0),
        slo_ttft_s=(2.0, 20.0),
    ))
    deployments = [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2), name="a",
                   tier=0),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1), name="b",
                   tier=1),
    ]
    plan = FaultPlan((FaultSpec("crash", 0, 0.5), FaultSpec("crash", 2, 1.0)))
    return simulate_cluster(
        trace, deployments, faults=plan,
        retry_policy=RetryPolicy(max_retries=int(shed), backoff_base_s=0.1),
        shed_tier=1 if shed else None,
    )


@pytest.mark.parametrize("shed", [True, False])
def test_metrics_match_on_failed_shed_and_retried_requests(shed):
    """Every record of a faulted cluster as one result.  With shedding
    and one retry: shed requests on rank -1 and retried, failed-over
    ones.  Without either: requests failed on the crashed replicas."""
    cluster = _faulted_cluster(shed)
    records = cluster.records
    if shed:
        assert any(rec.shed for rec in records)
        assert any(rec.retries and rec.status == "completed"
                   for rec in records)
        assert any(rec.failovers for rec in records)
    else:
        assert any(rec.status == "failed" and rec.rank >= 0
                   for rec in records)
    deps = cluster.deployments
    result = ServingResult(
        config=deps[0].serving.config, records=records,
        rank_stats=[rs for dep in deps for rs in dep.serving.rank_stats],
        kv_capacity_bytes=0, weight_bytes=0,
    )
    assert len(metrics_table(result)) > 2
    _assert_one_implementation(result)


def test_cluster_rows_of_faulted_cluster_match_reference():
    """Each ``cluster_rows`` row is the reference summary of its
    deployment's slice plus the cluster keys."""
    result = _faulted_cluster()
    rows = cluster_rows(result)
    assert len(rows) == len(result.deployments)
    for row, dep in zip(rows, result.deployments):
        reference = _reference_summary(dep.serving)
        reference.update({
            "deployment": dep.name, "tier": dep.tier, "routed": dep.routed,
            "replicas": dep.replicas_final,
            "replicas_peak": dep.replicas_peak,
            "scale_ups": dep.scale_ups, "scale_downs": dep.scale_downs,
            "replacements": dep.replacements,
        })
        assert repr(row) == repr(reference)
