"""Per-request lifecycle tracing for the serving engines.

The rank engines in :mod:`repro.serving.scheduler` carry instrumentation
hooks that emit **typed lifecycle events** (:data:`EVENT_KINDS`) through
a :class:`Tracer`:

================== ======================================================
``arrive``          request joined the rank's queue (t = arrival time)
``admit``           KV reservation made, prefill scheduled (``readmit``
                    marks a re-admission after preemption)
``preempt``         KV-pressure eviction: the victim's KV is dropped
``requeue``         the evicted victim re-enters the ready queue
``reject``          the request can never fit the KV budget
``prefill_chunk_start`` / ``prefill_chunk_end``
                    one prefill chunk's span (whole prompts are the
                    single-chunk case)
``first_token``     the request's first generated token
``cache_hit``       admission resumed from a cached KV prefix (the
                    ``kv_saved_bytes`` never left MRAM)
``cache_evict``     a refcount-zero cached prefix was dropped under KV
                    pressure (rank-level, no request; always *before*
                    any preemption at the same decision point)
``decode_segment``  one engine decode advance (rank-level, no request):
                    the per-token loop emits ``tokens=1`` per iteration,
                    the event engine one multi-token segment per
                    scheduler event
``finish``          last token produced, KV released
================== ======================================================

The default is **no tracer at all**: the engines guard every hook behind
a single ``is not None`` check, so the untraced hot path pays one
branch per scheduler event (see the overhead floor in
``tools/bench.py``).  :class:`Tracer` itself is the no-op null
implementation; :class:`RecordingTracer` appends :class:`TraceEvent`
records and double-enters them into a
:class:`~repro.obs.registry.MetricsRegistry` (lifecycle counters, TTFT /
TPOT / latency / queue-wait log-histograms, and — at level ``full`` —
sampled per-rank KV / batch / queue-depth time series).

Every lifecycle event except ``decode_segment`` is request-scoped and
engine-independent: the event and loop engines emit the *same* kind
sequence per request with timestamps equal to float rounding
(``tests/test_obs_equivalence.py`` pins this), which is what makes the
trace a correctness oracle — aggregates recomputed from it by
:func:`repro.obs.replay.replay_result` must match
:func:`repro.serving.metrics.metrics_table` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = [
    "EVENT_KINDS",
    "LIFECYCLE_KINDS",
    "CLUSTER_KINDS",
    "FAULT_EVENT_KINDS",
    "TRACE_LEVELS",
    "TraceEvent",
    "Tracer",
    "RecordingTracer",
]

#: Cluster-scoped kinds emitted by :mod:`repro.serving.cluster` (not by
#: rank engines): routing decisions, autoscaler actions and the fault
#: recovery loop's retries / failovers / load-sheds.  They carry
#: ``rank = -1`` — the synthetic "cluster" lane — and are ignored by the
#: single-deployment replay oracle.
CLUSTER_KINDS = (
    "route",
    "scale_up",
    "scale_up_warm",
    "scale_down",
    "replace",
    "retry",
    "failover",
    "shed",
)

#: Rank-scoped fault-injection kinds of a
#: :class:`~repro.serving.faults.FaultPlan`: a replica crash, emitted by
#: the engine that dies (the payload lists the lost request ids), and a
#: transient stall window and a latency-degradation window, each emitted
#: once as scheduled (start, full duration) by the plan's owner — see
#: :meth:`~repro.serving.faults.FaultPlan.trace_windows`.
FAULT_EVENT_KINDS = (
    "fault_crash",
    "fault_stall",
    "fault_degrade",
)

#: Every event kind a rank engine — or the cluster layer above it — can
#: emit.
EVENT_KINDS = (
    "arrive",
    "admit",
    "preempt",
    "requeue",
    "reject",
    "prefill_chunk_start",
    "prefill_chunk_end",
    "first_token",
    "cache_hit",
    "cache_evict",
    "decode_segment",
    "finish",
) + FAULT_EVENT_KINDS + CLUSTER_KINDS

#: Request-scoped kinds, identical across engines (``decode_segment`` is
#: engine-granularity: per token for the loop, per segment for the event
#: engine; ``cache_evict`` is rank-scoped — it names a cache entry, not
#: a request — though likewise engine-independent; the fault kinds are
#: rank-scoped too, and the cluster kinds are not engine events at all).
LIFECYCLE_KINDS = tuple(
    k for k in EVENT_KINDS
    if k not in ("decode_segment", "cache_evict")
    + FAULT_EVENT_KINDS + CLUSTER_KINDS
)

#: Recording levels: ``lifecycle`` keeps request-scoped events only;
#: ``full`` adds decode segments and sampled per-rank time series (what
#: the replay oracle and the Chrome-trace counter tracks need).
TRACE_LEVELS = ("lifecycle", "full")


@dataclass
class TraceEvent:
    """One typed engine event.

    ``t_s`` is the simulation clock at emission (for span-like kinds the
    *end* of the span; ``prefill_chunk_start`` carries the start).
    ``req_id`` is ``None`` for rank-scoped kinds (``decode_segment``).
    ``data`` holds the kind-specific payload (token counts, KV bytes,
    latency and energy of costed spans).
    """

    kind: str
    t_s: float
    rank: int
    req_id: Optional[int] = None
    data: dict = field(default_factory=dict)


class Tracer:
    """The null tracer: every hook is a no-op and ``enabled`` is False.

    The engines skip hook calls entirely when ``enabled`` is false (they
    keep ``None`` instead of the tracer), so this class is both the
    do-nothing default and the documentation of the hook surface.
    Subclasses override the hooks they care about and set ``enabled``.
    """

    #: Engines only call hooks when this is true.
    enabled = False
    #: Engines only call :meth:`sample` / :meth:`decode_segment` when
    #: this is true (the ``full`` recording level).
    wants_engine_detail = False

    def arrive(self, t_s: float, rank: int, request) -> None:
        """A request reached its rank's queue."""

    def admit(self, t_s: float, rank: int, req_id: int, kv_bytes: int,
              kv_used_bytes: int, readmit: bool, prefix_tokens: int,
              cached_tokens: int = -1, kv_full_bytes: int = 0) -> None:
        """A request reserved KV and entered the prefill stage.

        ``kv_bytes`` is the reservation actually made this admission
        (the uncached tail when resuming from a prefix cache);
        ``kv_full_bytes`` the request's full logical footprint.
        ``cached_tokens`` is the prefix-cache outcome: -1 cache
        disabled, 0 miss, > 0 the resumed depth.
        """

    def preempt(self, t_s: float, rank: int, req_id: int, kv_bytes: int,
                tokens_out: int, cache_evictable_bytes: int = 0) -> None:
        """A running request was evicted under KV pressure.

        ``cache_evictable_bytes`` is what the rank's prefix cache could
        still reclaim at this instant — 0 by the eviction-before-
        preemption contract (cached pages always go first).
        """

    def requeue(self, t_s: float, rank: int, req_id: int) -> None:
        """An evicted request re-entered the ready queue."""

    def reject(self, t_s: float, rank: int, req_id: int, kv_bytes: int) -> None:
        """A request that can never fit the KV budget was rejected."""

    def prefill_chunk_start(self, t_s: float, rank: int, req_id: int,
                            done_tokens: int, chunk_tokens: int) -> None:
        """One prefill chunk began (``t_s`` is the chunk start)."""

    def prefill_chunk_end(self, t_s: float, rank: int, req_id: int,
                          chunk_tokens: int, latency_s: float,
                          energy_j: float) -> None:
        """One prefill chunk completed (``t_s`` is the chunk end)."""

    def first_token(self, t_s: float, rank: int, req_id: int) -> None:
        """A request produced its first generated token."""

    def cache_hit(self, t_s: float, rank: int, req_id: int,
                  cached_tokens: int, kv_saved_bytes: int) -> None:
        """An admission resumed from a cached KV prefix."""

    def cache_evict(self, t_s: float, rank: int, key: str,
                    depth_tokens: int, kv_bytes: int) -> None:
        """A cached prefix (``key`` like ``"sys:2"``/``"sess:5:3"``) was
        dropped to make room, releasing ``kv_bytes`` of MRAM."""

    def decode_segment(self, t_s: float, rank: int, batch: int, tokens: int,
                       latency_s: float, energy_j: float) -> None:
        """The running batch advanced ``tokens`` decode iterations."""

    def finish(self, t_s: float, rank: int, req_id: int, tokens_out: int) -> None:
        """A request produced its last token and released its KV."""

    def sample(self, t_s: float, rank: int, kv_used_bytes: int, batch: int,
               queue_depth: int) -> None:
        """Periodic rank snapshot: KV occupancy, batch size, queue depth."""

    def route(self, t_s: float, deployment: str, req_id: int,
              router: str) -> None:
        """The cluster router assigned a request to a deployment."""

    def scale_up(self, t_s: float, deployment: str, replicas: int,
                 cold_start_s: float, weight_bytes: int,
                 depth: float = 0.0, threshold: float = 0.0,
                 warm: bool = False) -> None:
        """The autoscaler added a replica (usable after ``cold_start_s``).

        ``depth`` / ``threshold`` record the observed queue depth and
        the per-replica trigger that fired; ``warm`` marks the reuse of
        a retired weights-resident replica (no cold-start broadcast).
        """

    def scale_down(self, t_s: float, deployment: str, replicas: int,
                   depth: float = 0.0, threshold: float = 0.0) -> None:
        """The autoscaler retired an idle replica."""

    def replace(self, t_s: float, deployment: str, replicas: int,
                cold_start_s: float, weight_bytes: int,
                dead_rank: int) -> None:
        """The autoscaler replaced a crashed replica (cold-start
        broadcast charged; ``dead_rank`` is the replica it replaces)."""

    def retry(self, t_s: float, deployment: str, req_id: int,
              attempt: int, backoff_s: float) -> None:
        """A crash-lost request re-entered the cluster (``t_s`` is the
        re-submission time, after the backoff)."""

    def failover(self, t_s: float, deployment: str, req_id: int,
                 from_rank: int) -> None:
        """A retried request was re-routed away from its dead replica."""

    def shed(self, t_s: float, deployment: str, req_id: int,
             priority: int) -> None:
        """The load-shedder dropped a queued low-tier request."""

    def fault_crash(self, t_s: float, rank: int, lost_req_ids,
                    kv_lost_bytes: int) -> None:
        """A replica died, losing ``lost_req_ids`` and its KV/cache."""

    def fault_stall(self, t_s: float, rank: int, duration_s: float) -> None:
        """A stall window: frozen for ``duration_s`` from ``t_s``."""

    def fault_degrade(self, t_s: float, rank: int, duration_s: float,
                      factor: float) -> None:
        """A ``factor``× latency window of ``duration_s`` from ``t_s``."""


class RecordingTracer(Tracer):
    """Record engine events and aggregate them into a metric registry.

    ``level`` is one of :data:`TRACE_LEVELS`.  At ``lifecycle`` only
    request-scoped events are kept; ``full`` adds rank-level decode
    segments and the sampled KV / batch / queue-depth time series, which
    the Chrome-trace exporter renders as counter tracks and
    :func:`repro.obs.replay.replay_result` replays into a full
    :class:`~repro.serving.scheduler.ServingResult`.

    Attributes
    ----------
    events:
        Chronological (per rank) :class:`TraceEvent` list.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` the events are
        double-entered into.
    """

    enabled = True

    def __init__(self, level: str = "full", max_series_samples: int = 4096) -> None:
        if level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace level {level!r}; expected one of {TRACE_LEVELS}"
            )
        self.level = level
        self.wants_engine_detail = level == "full"
        self.events: List[TraceEvent] = []
        self.registry = MetricsRegistry()
        self._max_series_samples = max_series_samples
        # Per-request (arrival_s, gen_tokens, admit_s, first_token_s),
        # kept so finish events can observe TTFT/TPOT/latency/queue
        # histograms without a second pass.
        self._inflight: Dict[int, List[float]] = {}

    # -- helpers -------------------------------------------------------------

    def events_for(self, req_id: Optional[int]) -> List[TraceEvent]:
        """All recorded events scoped to one request id."""
        return [e for e in self.events if e.req_id == req_id]

    def lifecycle_events(self) -> List[TraceEvent]:
        """Recorded request-scoped events (:data:`LIFECYCLE_KINDS`)."""
        return [e for e in self.events if e.kind in LIFECYCLE_KINDS]

    def lifecycle_by_request(self) -> Dict[int, List[TraceEvent]]:
        """Per-request lifecycle sequences, keyed by request id."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.lifecycle_events():
            grouped.setdefault(event.req_id, []).append(event)
        return grouped

    # -- hooks ---------------------------------------------------------------

    def arrive(self, t_s: float, rank: int, request) -> None:
        """Record the arrival and open the in-flight tracking entry."""
        self.events.append(TraceEvent(
            "arrive", t_s, rank, request.req_id,
            {
                "prompt_tokens": request.prompt_tokens,
                "gen_tokens": request.gen_tokens,
                "priority": request.priority,
                "slo_ttft_s": request.slo_ttft_s,
                "session_id": request.session_id,
                "turn": request.turn,
            },
        ))
        self.registry.counter("arrivals").inc()
        self._inflight[request.req_id] = [t_s, float(request.gen_tokens), -1.0, -1.0]

    def admit(self, t_s: float, rank: int, req_id: int, kv_bytes: int,
              kv_used_bytes: int, readmit: bool, prefix_tokens: int,
              cached_tokens: int = -1, kv_full_bytes: int = 0) -> None:
        """Record the admission and update the KV-occupancy gauge."""
        self.events.append(TraceEvent(
            "admit", t_s, rank, req_id,
            {
                "kv_bytes": kv_bytes,
                "kv_used_bytes": kv_used_bytes,
                "readmit": readmit,
                "prefix_tokens": prefix_tokens,
                "cached_tokens": cached_tokens,
                "kv_full_bytes": kv_full_bytes,
            },
        ))
        self.registry.counter("admissions").inc()
        if readmit:
            self.registry.counter("requeues").inc()
            self.registry.counter("recompute_tokens").inc(prefix_tokens)
        if cached_tokens > 0:
            self.registry.counter("cache_hits").inc()
            self.registry.counter("cache_hit_tokens").inc(cached_tokens)
        elif cached_tokens == 0:
            self.registry.counter("cache_misses").inc()
        self.registry.gauge(f"rank{rank}/kv_used_bytes").set(float(kv_used_bytes))
        entry = self._inflight.get(req_id)
        if entry is not None and entry[2] < 0.0:
            entry[2] = t_s

    def preempt(self, t_s: float, rank: int, req_id: int, kv_bytes: int,
                tokens_out: int, cache_evictable_bytes: int = 0) -> None:
        """Record the eviction."""
        self.events.append(TraceEvent(
            "preempt", t_s, rank, req_id,
            {
                "kv_bytes": kv_bytes,
                "tokens_out": tokens_out,
                "cache_evictable_bytes": cache_evictable_bytes,
            },
        ))
        self.registry.counter("preemptions").inc()

    def requeue(self, t_s: float, rank: int, req_id: int) -> None:
        """Record the victim's return to the ready queue."""
        self.events.append(TraceEvent("requeue", t_s, rank, req_id))

    def reject(self, t_s: float, rank: int, req_id: int, kv_bytes: int) -> None:
        """Record the rejection and close the in-flight entry."""
        self.events.append(TraceEvent(
            "reject", t_s, rank, req_id, {"kv_bytes": kv_bytes}
        ))
        self.registry.counter("rejections").inc()
        self._inflight.pop(req_id, None)

    def prefill_chunk_start(self, t_s: float, rank: int, req_id: int,
                            done_tokens: int, chunk_tokens: int) -> None:
        """Record the chunk start."""
        self.events.append(TraceEvent(
            "prefill_chunk_start", t_s, rank, req_id,
            {"done_tokens": done_tokens, "chunk_tokens": chunk_tokens},
        ))

    def prefill_chunk_end(self, t_s: float, rank: int, req_id: int,
                          chunk_tokens: int, latency_s: float,
                          energy_j: float) -> None:
        """Record the chunk end with its costed latency and energy."""
        self.events.append(TraceEvent(
            "prefill_chunk_end", t_s, rank, req_id,
            {
                "chunk_tokens": chunk_tokens,
                "latency_s": latency_s,
                "energy_j": energy_j,
            },
        ))
        self.registry.counter("prefill_chunks").inc()
        self.registry.counter("prefill_tokens").inc(chunk_tokens)

    def first_token(self, t_s: float, rank: int, req_id: int) -> None:
        """Record the first token and observe the TTFT histogram."""
        self.events.append(TraceEvent("first_token", t_s, rank, req_id))
        entry = self._inflight.get(req_id)
        if entry is not None:
            entry[3] = t_s
            self.registry.histogram("ttft_s").observe(t_s - entry[0])

    def cache_hit(self, t_s: float, rank: int, req_id: int,
                  cached_tokens: int, kv_saved_bytes: int) -> None:
        """Record a prefix-cache resume (paired with its admit event)."""
        self.events.append(TraceEvent(
            "cache_hit", t_s, rank, req_id,
            {"cached_tokens": cached_tokens, "kv_saved_bytes": kv_saved_bytes},
        ))
        self.registry.counter("kv_saved_bytes").inc(kv_saved_bytes)

    def cache_evict(self, t_s: float, rank: int, key: str,
                    depth_tokens: int, kv_bytes: int) -> None:
        """Record a cache eviction (rank-scoped; no request)."""
        self.events.append(TraceEvent(
            "cache_evict", t_s, rank, None,
            {"key": key, "depth_tokens": depth_tokens, "kv_bytes": kv_bytes},
        ))
        self.registry.counter("cache_evictions").inc()

    def decode_segment(self, t_s: float, rank: int, batch: int, tokens: int,
                       latency_s: float, energy_j: float) -> None:
        """Record one rank-level decode advance (``full`` level only)."""
        self.events.append(TraceEvent(
            "decode_segment", t_s, rank, None,
            {
                "batch": batch,
                "tokens": tokens,
                "latency_s": latency_s,
                "energy_j": energy_j,
            },
        ))
        self.registry.counter("decode_segments").inc()
        self.registry.counter("output_tokens").inc(tokens * batch)

    def finish(self, t_s: float, rank: int, req_id: int, tokens_out: int) -> None:
        """Record the completion and observe latency/TPOT/queue hists."""
        self.events.append(TraceEvent(
            "finish", t_s, rank, req_id, {"tokens_out": tokens_out}
        ))
        self.registry.counter("completions").inc()
        entry = self._inflight.pop(req_id, None)
        if entry is None:
            return
        arrival, gen_tokens, admit, first = entry
        self.registry.histogram("latency_s").observe(t_s - arrival)
        if admit >= 0.0:
            self.registry.histogram("queue_s").observe(admit - arrival)
        if first >= 0.0 and gen_tokens >= 2:
            self.registry.histogram("tpot_s").observe(
                (t_s - first) / (gen_tokens - 1.0)
            )

    def sample(self, t_s: float, rank: int, kv_used_bytes: int, batch: int,
               queue_depth: int) -> None:
        """Append one point to each of the rank's sampled time series."""
        cap = self._max_series_samples
        reg = self.registry
        reg.timeseries(f"rank{rank}/kv_bytes", cap).sample(t_s, float(kv_used_bytes))
        reg.timeseries(f"rank{rank}/batch", cap).sample(t_s, float(batch))
        reg.timeseries(f"rank{rank}/queue_depth", cap).sample(t_s, float(queue_depth))

    def route(self, t_s: float, deployment: str, req_id: int,
              router: str) -> None:
        """Record one routing decision (cluster lane, rank ``-1``)."""
        self.events.append(TraceEvent(
            "route", t_s, -1, req_id,
            {"deployment": deployment, "router": router},
        ))
        self.registry.counter("routes").inc()

    def scale_up(self, t_s: float, deployment: str, replicas: int,
                 cold_start_s: float, weight_bytes: int,
                 depth: float = 0.0, threshold: float = 0.0,
                 warm: bool = False) -> None:
        """Record a replica addition with its cold-start transfer cost
        and the queue observation that triggered it."""
        kind = "scale_up_warm" if warm else "scale_up"
        self.events.append(TraceEvent(
            kind, t_s, -1, None,
            {
                "deployment": deployment,
                "replicas": replicas,
                "cold_start_s": cold_start_s,
                "weight_bytes": weight_bytes,
                "depth": depth,
                "threshold": threshold,
            },
        ))
        self.registry.counter("scale_ups").inc()
        if warm:
            self.registry.counter("scale_ups_warm").inc()

    def scale_down(self, t_s: float, deployment: str, replicas: int,
                   depth: float = 0.0, threshold: float = 0.0) -> None:
        """Record an idle replica's retirement."""
        self.events.append(TraceEvent(
            "scale_down", t_s, -1, None,
            {
                "deployment": deployment,
                "replicas": replicas,
                "depth": depth,
                "threshold": threshold,
            },
        ))
        self.registry.counter("scale_downs").inc()

    def replace(self, t_s: float, deployment: str, replicas: int,
                cold_start_s: float, weight_bytes: int,
                dead_rank: int) -> None:
        """Record the replacement of a crashed replica."""
        self.events.append(TraceEvent(
            "replace", t_s, -1, None,
            {
                "deployment": deployment,
                "replicas": replicas,
                "cold_start_s": cold_start_s,
                "weight_bytes": weight_bytes,
                "dead_rank": dead_rank,
            },
        ))
        self.registry.counter("replacements").inc()

    def retry(self, t_s: float, deployment: str, req_id: int,
              attempt: int, backoff_s: float) -> None:
        """Record a crash-lost request's re-entry into the cluster."""
        self.events.append(TraceEvent(
            "retry", t_s, -1, req_id,
            {"deployment": deployment, "attempt": attempt,
             "backoff_s": backoff_s},
        ))
        self.registry.counter("retries").inc()

    def failover(self, t_s: float, deployment: str, req_id: int,
                 from_rank: int) -> None:
        """Record a re-route away from a dead replica."""
        self.events.append(TraceEvent(
            "failover", t_s, -1, req_id,
            {"deployment": deployment, "from_rank": from_rank},
        ))
        self.registry.counter("failovers").inc()

    def shed(self, t_s: float, deployment: str, req_id: int,
             priority: int) -> None:
        """Record a load-shed drop and close the in-flight entry."""
        self.events.append(TraceEvent(
            "shed", t_s, -1, req_id,
            {"deployment": deployment, "priority": priority},
        ))
        self.registry.counter("shed").inc()
        self._inflight.pop(req_id, None)

    def fault_crash(self, t_s: float, rank: int, lost_req_ids,
                    kv_lost_bytes: int) -> None:
        """Record a replica crash with the request ids it lost."""
        self.events.append(TraceEvent(
            "fault_crash", t_s, rank, None,
            {"lost_req_ids": list(lost_req_ids),
             "kv_lost_bytes": kv_lost_bytes},
        ))
        self.registry.counter("crashes").inc()

    def fault_stall(self, t_s: float, rank: int, duration_s: float) -> None:
        """Record a stall window."""
        self.events.append(TraceEvent(
            "fault_stall", t_s, rank, None, {"duration_s": duration_s}
        ))
        self.registry.counter("stalls").inc()

    def fault_degrade(self, t_s: float, rank: int, duration_s: float,
                      factor: float) -> None:
        """Record a degradation window."""
        self.events.append(TraceEvent(
            "fault_degrade", t_s, rank, None,
            {"duration_s": duration_s, "factor": factor},
        ))
        self.registry.counter("degrades").inc()
