"""Serving metrics: per-request rows and aggregate summary tables.

Converts a :class:`~repro.serving.engine.records.ServingResult` into the
rows the :mod:`repro.experiments.io` writers consume:

* :func:`record_rows` — one row per request (timestamps plus the
  derived TTFT / TPOT / latency values), as a
  :class:`~repro.experiments.io.RowTable` over the records' columns,
* :func:`metrics_table` — percentile summary rows (one ``all`` scope
  plus one per rank) enriched with energy, utilization and throughput
  from the per-rank counters,
* :func:`summary` — a single flat dict for JSON payloads and quick
  assertions (the ``all`` row alone),
* :func:`cluster_rows` / :func:`cluster_summary` — the cluster-level
  equivalents: one row per deployment of a
  :class:`~repro.serving.cluster.ClusterResult` (feeding
  :func:`repro.experiments.tables.cluster_table`) and one flat
  cluster-wide dict computed in a single pass over all records.

Metrics glossary (all times in seconds):

============  ========================================================
TTFT          time to first token: request arrival to the first
              generated token (queueing + prefill + first decode step)
TPOT          time per output token after the first
latency       arrival to last generated token
queue         arrival to admission (KV-cache / batch-slot wait)
makespan      trace start until the last rank goes idle
tokens/s      generated tokens over the scope's busy window
SLO attain.   share of SLO-carrying requests whose TTFT met the SLO
preemptions   KV-pressure evictions (victims re-queue and recompute
              their prefix)
cache hit     share of prefix-cache admissions that resumed from a
              cached KV prefix (0 with the cache disabled)
KV dedup      logical KV bytes over bytes actually reserved — how much
              MRAM the shared prefixes saved (1.0 = no sharing)
============  ========================================================

The percentile rows are built straight from ``result.records``: each
field of a scope's requests is gathered, attribute by attribute, into
one list (no per-request row dicts), and one function,
:func:`repro.experiments.tables._scope_row`, aggregates them.
:func:`~repro.experiments.tables.serving_table` fills the same lists
from dict rows, so ``metrics_table(result)`` equals
``serving_table(record_rows(result))`` plus the enrichment, bit for
bit.  A one-rank run aggregates its records once and reuses the
``all`` row as its rank row.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Sequence

from repro.experiments.io import RowTable
from repro.experiments.tables import (
    _attr_columns,
    _record_columns,
    _scope_row,
    _scope_table,
    percentile,
    percentiles,
    safe_ratio,
)
from repro.serving.engine import RankStats, ServingResult

__all__ = [
    "record_rows",
    "metrics_table",
    "summary",
    "cluster_rows",
    "cluster_summary",
]


#: The record fields (and derived properties) of a :func:`record_rows`
#: row, in row order.
_ROW_FIELDS = (
    "req_id", "rank", "status", "arrival_s", "prompt_tokens", "gen_tokens",
    "priority", "slo_ttft_s", "preemptions", "session_id", "turn",
    "cache_hit", "cached_tokens", "retries", "failovers", "shed",
    "admit_s", "first_token_s", "finish_s", "queue_s", "ttft_s", "tpot_s",
    "latency_s",
)


def record_rows(result: ServingResult) -> RowTable:
    """One JSON/CSV-ready row per request in ``result``, as a
    :class:`~repro.experiments.io.RowTable` over the records' columns
    (column records or record objects, derived properties included);
    no row dict exists until a row is read.

    Requests that never reached a milestone (a rejected request has no
    admission, a truncated run may have no finish) carry ``None`` for
    that timestamp — rendered as JSON ``null`` and an empty CSV cell —
    rather than a fake ``0.0`` that would read as "at trace start".
    :func:`~repro.experiments.io.write_json`, ``write_csv`` and
    ``serving_table`` take the table as it is; stdlib ``json`` needs
    ``list(rows)``.
    """
    return RowTable(dict(zip(
        _ROW_FIELDS, _record_columns(result.records, _ROW_FIELDS)
    )))


def _enrich(row: dict, stats: Sequence[RankStats], makespan: float) -> dict:
    """Add the replica counters of ``stats`` over ``makespan`` to
    ``row``: every rank's over the result's makespan for the ``all``
    row, ``[rs]`` over ``rs.finish_s`` for a rank row."""
    energy = sum(rs.energy_j for rs in stats)
    hits = sum(rs.cache_hits for rs in stats)
    misses = sum(rs.cache_misses for rs in stats)
    row["makespan_s"] = makespan
    row["prefill_tokens"] = sum(rs.prefill_tokens for rs in stats)
    row["energy_j"] = energy
    row["energy_mj_per_token"] = safe_ratio(
        1e3 * energy, sum(rs.output_tokens for rs in stats)
    )
    row["utilization"] = safe_ratio(
        sum(rs.busy_s for rs in stats), len(stats) * makespan
    )
    row["requeues"] = sum(rs.requeues for rs in stats)
    row["recompute_tokens"] = sum(rs.recompute_tokens for rs in stats)
    row["kv_peak_bytes"] = max(
        (rs.kv_peak_bytes for rs in stats), default=0
    )
    row["cache_hits"] = hits
    row["cache_misses"] = misses
    row["cache_evictions"] = sum(rs.cache_evictions for rs in stats)
    row["cache_hit_rate"] = safe_ratio(hits, hits + misses)
    row["cache_hit_tokens"] = sum(rs.cache_hit_tokens for rs in stats)
    row["kv_dedup_factor"] = safe_ratio(
        sum(rs.kv_logical_bytes for rs in stats),
        sum(rs.kv_reserved_bytes for rs in stats),
        default=1.0,
    )
    return row


def metrics_table(result: ServingResult) -> List[dict]:
    """Percentile summary rows enriched with energy and utilization.

    The ``all`` row carries deployment-level totals (makespan, energy,
    energy per token, preemption/requeue counters); each ``rank<i>`` row
    carries that replica's counters, so imbalance across the round-robin
    shards is visible.  The rows equal
    ``serving_table(record_rows(result))`` but are aggregated straight
    from the records.
    """
    table = _scope_table(*_attr_columns(result.records))
    if not table:
        return table
    _enrich(table[0], result.rank_stats, result.makespan_s)
    by_scope = {row["scope"]: row for row in table}
    for rs in result.rank_stats:
        row = by_scope.get(f"rank{rs.rank}")
        if row is not None:
            _enrich(row, [rs], rs.finish_s)
    return table


def summary(result: ServingResult) -> dict:
    """Flat deployment-level summary (the ``all`` row plus config keys).

    Only the ``all`` scope is aggregated; the per-rank rows of
    :func:`metrics_table` are not built.
    """
    if len(result.records):
        row = _enrich(
            _scope_row("all", *_attr_columns(result.records)),
            result.rank_stats, result.makespan_s,
        )
    else:
        row = {"scope": "all"}
    row.update(
        {
            "model": result.config.model,
            "scheme": result.config.scheme,
            "kernel": result.config.kernel,
            "policy": result.config.policy,
            "engine": result.config.engine,
            "prefix_cache": result.config.prefix_cache,
            "num_ranks": result.config.num_ranks,
            "dpus_per_rank": result.config.dpus_per_rank,
            "max_batch": result.config.max_batch,
            "kv_capacity_bytes": result.kv_capacity_bytes,
            "weight_bytes": result.weight_bytes,
        }
    )
    return row


def cluster_rows(result) -> List[dict]:
    """One flat summary row per deployment of a cluster run.

    ``result`` is a :class:`~repro.serving.cluster.ClusterResult`.  Each
    row is the deployment's ordinary :func:`summary` (its slice of the
    run is a full ServingResult) extended with the cluster-level keys —
    deployment name, tier, routed count, replica counts and scale
    events — in the shape
    :func:`repro.experiments.tables.cluster_table` consumes.
    """
    rows = []
    for dep in result.deployments:
        row = summary(dep.serving)
        row.update(
            {
                "deployment": dep.name,
                "tier": dep.tier,
                "routed": dep.routed,
                "replicas": dep.replicas_final,
                "replicas_peak": dep.replicas_peak,
                "scale_ups": dep.scale_ups,
                "scale_downs": dep.scale_downs,
                "replacements": dep.replacements,
            }
        )
        rows.append(row)
    return rows


def cluster_summary(result) -> dict:
    """Flat cluster-wide summary in one pass over every deployment's
    records and the cluster's failed records.

    Percentiles are computed over *completed* requests across every
    deployment (unlike the aggregate row of
    :func:`~repro.experiments.tables.cluster_table`, which cannot
    re-derive them from per-deployment rows).  Built directly from the
    records' field columns rather than via :func:`serving_table` so
    million-request cluster benches skip the per-rank row machinery.
    """
    ttfts: List[float] = []
    latencies: List[float] = []
    requests = rejected = failed = retries = failovers = shed = 0
    goodput_tokens = slo_requests = slo_met = 0
    # Part by part (percentiles sort, so record order does not matter).
    for records in [dep.serving.records for dep in result.deployments] + [
        result.failed_records
    ]:
        (status, ttft, latency, slos, gens, retry, failover,
         shedded) = _record_columns(records, (
             "status", "ttft_s", "latency_s", "slo_ttft_s", "gen_tokens",
             "retries", "failovers", "shed",
         ))
        done = [s == "completed" for s in status]
        done_ttfts = list(compress(ttft, done))
        ttfts.extend(done_ttfts)
        latencies.extend(compress(latency, done))
        # Every SLO-carrying request counts; only completed ones can
        # meet it.  Rejections are counted by actual status: a future
        # non-completed terminal state (truncated, cancelled) must not
        # masquerade as one.
        slo_requests += sum(slo > 0 for slo in slos)
        slo_met += sum(
            slo > 0 and t <= slo
            for t, slo in zip(done_ttfts, compress(slos, done))
        )
        requests += len(status)
        rejected += status.count("rejected")
        failed += status.count("failed")
        retries += sum(retry)
        failovers += sum(failover)
        shed += sum(map(bool, shedded))
        goodput_tokens += sum(compress(gens, done))
    makespan = result.makespan_s
    output_tokens = result.output_tokens
    energy = result.total_energy_j
    unavailability, recovery = _availability(result, makespan)
    fault_kinds = [e["kind"] for e in result.fault_events]
    ttft_p50, ttft_p95, ttft_p99 = percentiles(ttfts, (50, 95, 99))
    return {
        "router": result.router,
        "deployments": len(result.deployments),
        "replicas": sum(d.replicas_final for d in result.deployments),
        "replicas_peak": sum(d.replicas_peak for d in result.deployments),
        "requests": requests,
        "completed": len(ttfts),
        "rejected": rejected,
        "failed": failed,
        "retries": retries,
        "failovers": failovers,
        "shed": shed,
        "routed": sum(d.routed for d in result.deployments),
        "preemptions": sum(
            d.serving.preemptions for d in result.deployments
        ),
        "slo_requests": slo_requests,
        "slo_attainment": safe_ratio(slo_met, slo_requests, default=1.0),
        "ttft_p50_s": ttft_p50,
        "ttft_p95_s": ttft_p95,
        "ttft_p99_s": ttft_p99,
        "latency_p95_s": percentile(latencies, 95),
        "output_tokens": output_tokens,
        "output_tokens_per_s": safe_ratio(output_tokens, makespan),
        "goodput_tokens": goodput_tokens,
        "goodput_tokens_per_s": safe_ratio(goodput_tokens, makespan),
        "energy_j": energy,
        "energy_mj_per_token": safe_ratio(1e3 * energy, output_tokens),
        "makespan_s": makespan,
        "scale_ups": sum(d.scale_ups for d in result.deployments),
        "scale_downs": sum(d.scale_downs for d in result.deployments),
        "replacements": sum(d.replacements for d in result.deployments),
        "scale_events": len(result.scale_events),
        "cold_start_s": result.cold_start_s,
        "cold_start_bytes": result.cold_start_bytes,
        "crashes": fault_kinds.count("crash"),
        "stalls": fault_kinds.count("stall"),
        "degrades": fault_kinds.count("degrade"),
        "unavailability_s": unavailability,
        "recovery_time_s": recovery,
    }


def _availability(result, makespan: float) -> tuple:
    """Replica-seconds of lost capacity and total time-to-recovery.

    Each crash contributes a dead interval from the crash until its
    replacement is *ready* (the ``replace`` scale event paired by
    ``dead_rank``, at its decision time plus cold start) or — never
    replaced — until the makespan.  Stall windows add their frozen
    durations (clipped to the makespan).  ``recovery_time_s`` sums the
    paired detection→replacement-ready spans (detection, not the
    effective crash boundary, which lazy segment commits can push past
    the replacement) — the cluster's MTTR numerator.
    """
    replace_ready = {}
    for event in result.scale_events:
        if event.get("action") == "replace" and "dead_rank" in event:
            replace_ready.setdefault(
                event["dead_rank"], event["t_s"] + event["cold_start_s"]
            )
    unavailability = 0.0
    recovery = 0.0
    for event in result.fault_events:
        if event["kind"] == "crash":
            t_crash = event["t_s"]
            ready = replace_ready.get(event["rank"])
            if ready is not None:
                detected = event.get("detected_s", t_crash)
                recovery += max(ready - detected, 0.0)
                unavailability += max(ready - t_crash, 0.0)
            else:
                unavailability += max(makespan - t_crash, 0.0)
        elif event["kind"] == "stall":
            start = event["t_s"]
            end = min(start + event["duration_s"], makespan)
            unavailability += max(end - start, 0.0)
    return unavailability, recovery
