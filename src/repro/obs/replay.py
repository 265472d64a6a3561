"""Replay a recorded trace back into serving records and rank stats.

The trace layer doubles as a correctness oracle: every quantity the
scheduler aggregates (:class:`~repro.serving.engine.records.RequestRecord`
timestamps, :class:`~repro.serving.engine.records.RankStats` counters, busy
time and energy) is also derivable from the ``full``-level event stream
alone.  :func:`replay_result` performs that derivation, so

``metrics_table(replay_result(tracer.events, ...)) ==
metrics_table(original_result)``

is an end-to-end check that the engines emit their events at exactly
the points the aggregates are computed from — any missed or misplaced
emission breaks the identity (``tests/test_obs_equivalence.py``).  Float
sums accumulate in event order, which is the engines' accumulation
order, so the identity holds to summation rounding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.tracer import EVENT_SCHEMA, TraceEvent
from repro.serving.engine import (
    RankStats,
    RequestRecord,
    ServingConfig,
    ServingResult,
)

__all__ = ["replay_result", "replay_fault_counters"]


def replay_result(
    events: Sequence[TraceEvent],
    config: Optional[ServingConfig] = None,
    kv_capacity_bytes: int = 0,
    weight_bytes: int = 0,
) -> ServingResult:
    """Reconstruct a :class:`ServingResult` from a ``full``-level trace.

    ``config`` sizes the rank-stats list (its ``num_ranks``) and is
    carried through verbatim; ``kv_capacity_bytes`` / ``weight_bytes``
    are pass-through context (the trace does not encode them).  Raises
    :class:`ValueError` when a non-arrive event references a request the
    trace never saw arrive — a truncated or reordered trace.
    """
    config = config if config is not None else ServingConfig()
    stats = {rank: RankStats(rank=rank) for rank in range(config.num_ranks)}
    records: Dict[int, RequestRecord] = {}
    finish: Dict[int, float] = {}

    def rank_stats(rank: int) -> RankStats:
        entry = stats.get(rank)
        if entry is None:  # more ranks than the config claims
            entry = stats[rank] = RankStats(rank=rank)
        return entry

    def record(event: TraceEvent) -> RequestRecord:
        try:
            return records[event.req_id]
        except KeyError:
            raise ValueError(
                f"{event.kind} event for request {event.req_id} with no "
                f"preceding arrive event; trace is truncated or reordered"
            ) from None

    for event in events:
        kind, t, rank, data = event.kind, event.t_s, event.rank, event.data
        if EVENT_SCHEMA[kind].scope == "cluster":
            # Cluster-lane events (rank -1) carry no per-rank engine
            # state; the single-deployment oracle ignores them.
            continue
        rs = rank_stats(rank)
        if kind != "arrive":
            finish[rank] = max(finish.get(rank, 0.0), t)
        if kind == "arrive":
            records[event.req_id] = RequestRecord(
                req_id=event.req_id,
                rank=rank,
                arrival_s=t,
                prompt_tokens=data["prompt_tokens"],
                gen_tokens=data["gen_tokens"],
                priority=data["priority"],
                slo_ttft_s=data["slo_ttft_s"],
                session_id=data.get("session_id", -1),
                turn=data.get("turn", 0),
            )
        elif kind == "admit":
            rec = record(event)
            cached = data.get("cached_tokens", -1)
            if rec.admit_s is None:
                rec.admit_s = t
                if cached >= 0:
                    rec.cache_hit = cached > 0
                    rec.cached_tokens = cached
            else:
                rs.requeues += 1
                rs.recompute_tokens += data["prefix_tokens"]
            if cached > 0:
                rs.cache_hits += 1
                rs.cache_hit_tokens += cached
            elif cached == 0:
                rs.cache_misses += 1
            rs.kv_reserved_bytes += data["kv_bytes"]
            rs.kv_logical_bytes += data.get("kv_full_bytes", data["kv_bytes"])
            if data["kv_used_bytes"] > rs.kv_peak_bytes:
                rs.kv_peak_bytes = data["kv_used_bytes"]
        elif kind == "cache_hit":
            record(event)  # validates the request arrived
        elif kind == "cache_evict":
            rs.cache_evictions += 1
        elif kind == "preempt":
            record(event).preemptions += 1
            rs.preemptions += 1
        elif kind == "reject":
            record(event).status = "rejected"
        elif kind == "prefill_chunk_end":
            record(event)
            rs.prefill_tokens += data["chunk_tokens"]
            rs.busy_s += data["latency_s"]
            rs.energy_j += data["energy_j"]
        elif kind == "first_token":
            record(event).first_token_s = t
        elif kind == "decode_segment":
            rs.decode_iterations += data["tokens"]
            rs.output_tokens += data["tokens"] * data["batch"]
            rs.busy_s += data["latency_s"]
            rs.energy_j += data["energy_j"]
        elif kind == "finish":
            record(event).finish_s = t
        elif kind == "fault_crash":
            # A standalone (non-cluster) engine marks its losses as
            # terminal failures at the crash instant; under a cluster
            # the recovery loop re-submits them and later events
            # overwrite these fields, so the derivation stays exact
            # either way.
            for req_id in data["lost_req_ids"]:
                lost = records.get(req_id)
                if lost is None:
                    raise ValueError(
                        f"fault_crash lists request {req_id} with no "
                        f"preceding arrive event; trace is truncated or "
                        f"reordered"
                    )
                lost.status = "failed"
                lost.finish_s = t

    for rank, rs in stats.items():
        rs.finish_s = finish.get(rank, 0.0)

    ordered: List[RequestRecord] = sorted(
        records.values(), key=lambda rec: rec.req_id
    )
    return ServingResult(
        config=config,
        records=ordered,
        rank_stats=[stats[r] for r in sorted(stats)],
        kv_capacity_bytes=kv_capacity_bytes,
        weight_bytes=weight_bytes,
    )


def replay_fault_counters(events: Sequence[TraceEvent]) -> dict:
    """Reconstruct the fault-and-recovery counters from a trace alone.

    The cluster-replay analogue of :func:`replay_result`'s identity: the
    returned dict must match the :class:`~repro.serving.cluster
    .ClusterResult` aggregates (``retries``, ``failovers``, ``shed``)
    and the fault-event tallies (``crashes``, ``stalls``, ``degrades``,
    ``lost_requests``, ``replacements``) exactly, proving the recovery
    loop traces every action it takes.  Each tally but
    ``lost_requests`` is the registry counter of its kinds in
    :data:`~repro.obs.tracer.EVENT_SCHEMA`.  Per-request retry/failover
    attempts are returned under ``retry_attempts`` / ``failover_counts``
    keyed by request id.
    """
    counters = {
        "crashes": 0, "stalls": 0, "degrades": 0, "lost_requests": 0,
        "retries": 0, "failovers": 0, "shed": 0, "replacements": 0,
    }
    retry_attempts: Dict[int, int] = {}
    failover_counts: Dict[int, int] = {}
    for event in events:
        kind, req_id, data = event.kind, event.req_id, event.data
        counter = EVENT_SCHEMA[kind].counter
        if counter in counters:
            counters[counter] += 1
        if kind == "fault_crash":
            counters["lost_requests"] += len(data["lost_req_ids"])
        elif kind == "retry":
            attempts = retry_attempts.get(req_id, 0) + 1
            retry_attempts[req_id] = attempts
            if data["attempt"] != attempts:
                raise ValueError(
                    f"retry event for request {req_id} claims "
                    f"attempt {data['attempt']} but the trace shows "
                    f"{attempts}; trace is truncated or reordered"
                )
        elif kind == "failover":
            failover_counts[req_id] = failover_counts.get(req_id, 0) + 1
    counters["retry_attempts"] = retry_attempts
    counters["failover_counts"] = failover_counts
    return counters
