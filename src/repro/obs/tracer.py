"""Per-request lifecycle tracing for the serving engines.

Every event kind is declared once, in :data:`EVENT_SCHEMA`: its scope
(``request``, ``rank`` or ``cluster``), its ordered payload fields with
their types, the registry counter one event increments and a one-line
meaning.  The rank engines (:mod:`repro.serving.engine`), the cluster
layer (:mod:`repro.serving.cluster`, :mod:`repro.serving.autoscale`)
and fault plans (:mod:`repro.serving.faults`) all report through the
single :meth:`Tracer.emit` hook; :class:`RecordingTracer`, the Chrome
exporter (:mod:`repro.obs.export`) and the replay oracle
(:mod:`repro.obs.replay`) read the table instead of re-listing kinds.

The default is **no tracer at all**: the engines store ``None`` when the
tracer is absent or disabled and guard every emission behind a single
``is not None`` check, so the untraced hot path pays one branch per
scheduler event (see the overhead floor in ``tools/bench.py``).
:class:`Tracer` itself is the no-op null implementation;
:class:`RecordingTracer` appends :class:`TraceEvent` records and
double-enters them into a :class:`~repro.obs.registry.MetricsRegistry`
(per-kind counters, TTFT / TPOT / latency / queue-wait log-histograms,
and — at level ``full`` — sampled per-rank KV / batch / queue-depth time
series).

Every request-scoped kind is engine-independent: the event and loop
engines emit the *same* kind sequence per request with timestamps equal
to float rounding (``tests/test_obs_equivalence.py`` pins this), which
is what makes the trace a correctness oracle — aggregates recomputed
from it by :func:`repro.obs.replay.replay_result` must match
:func:`repro.serving.metrics.metrics_table` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_KINDS",
    "LIFECYCLE_KINDS",
    "CLUSTER_KINDS",
    "FAULT_EVENT_KINDS",
    "TRACE_LEVELS",
    "EventKind",
    "TraceEvent",
    "Tracer",
    "RecordingTracer",
]


class EventKind(NamedTuple):
    """One row of :data:`EVENT_SCHEMA`."""

    #: ``request`` (engine lifecycle of one request, engine-independent),
    #: ``rank`` (one replica, no request: ``req_id`` is ``None``) or
    #: ``cluster`` (the routing / autoscaling / recovery layer, traced on
    #: the synthetic ``rank = -1`` lane).
    scope: str
    #: Ordered ``(name, type)`` payload fields: the ``data`` keys of a
    #: recorded event, in this order.
    fields: Tuple[Tuple[str, type], ...]
    #: Registry counter one event of this kind increments (or ``None``).
    counter: Optional[str]
    #: One-line meaning.
    doc: str


def _kind(scope: str, counter: Optional[str], doc: str, **fields: type) -> EventKind:
    """A schema row; keyword order is the payload field order."""
    return EventKind(scope, tuple(fields.items()), counter, doc)


_SCALE_UP_FIELDS = dict(deployment=str, replicas=int, cold_start_s=float,
                        weight_bytes=int, depth=float, threshold=float)

#: The event schema, in canonical kind order.  ``t_s`` is the simulation
#: clock at emission (the *end* of span-like kinds; ``prefill_chunk_start``
#: and the fault windows carry their start).
EVENT_SCHEMA: Dict[str, EventKind] = {
    "arrive": _kind(
        "request", "arrivals",
        "request joined its rank's queue (stamped with its arrival time)",
        prompt_tokens=int, gen_tokens=int, priority=int, slo_ttft_s=float,
        session_id=int, turn=int),
    "admit": _kind(
        "request", "admissions",
        "KV reserved, prefill scheduled (`readmit` marks a re-admission "
        "after preemption; `cached_tokens` -1 cache off, 0 miss, >0 hit)",
        kv_bytes=int, kv_used_bytes=int, readmit=bool, prefix_tokens=int,
        cached_tokens=int, kv_full_bytes=int),
    "preempt": _kind(
        "request", "preemptions",
        "KV-pressure eviction of a running request (its KV is dropped)",
        kv_bytes=int, tokens_out=int, cache_evictable_bytes=int),
    "requeue": _kind(
        "request", None, "the preempted victim re-entered the ready queue"),
    "reject": _kind(
        "request", "rejections", "the request can never fit the KV budget",
        kv_bytes=int),
    "prefill_chunk_start": _kind(
        "request", None, "one prefill chunk began",
        done_tokens=int, chunk_tokens=int),
    "prefill_chunk_end": _kind(
        "request", "prefill_chunks",
        "one prefill chunk ended, with its costed latency and energy",
        chunk_tokens=int, latency_s=float, energy_j=float),
    "first_token": _kind(
        "request", None, "the request's first generated token"),
    "cache_hit": _kind(
        "request", None,
        "admission resumed from a cached KV prefix (paired with its admit)",
        cached_tokens=int, kv_saved_bytes=int),
    "cache_evict": _kind(
        "rank", "cache_evictions",
        "a refcount-zero cached prefix was dropped under KV pressure "
        "(always before any preemption at the same decision point)",
        key=str, depth_tokens=int, kv_bytes=int),
    "decode_segment": _kind(
        "rank", "decode_segments",
        "one engine decode advance (`full` level; per token for the loop "
        "engine, per segment for the event engine)",
        batch=int, tokens=int, latency_s=float, energy_j=float),
    "finish": _kind(
        "request", "completions", "last token produced, KV released",
        tokens_out=int),
    "fault_crash": _kind(
        "rank", "crashes",
        "a replica died, losing its in-flight requests and its KV/cache",
        lost_req_ids=list, kv_lost_bytes=int),
    "fault_stall": _kind(
        "rank", "stalls", "a scheduled stall window (frozen replica)",
        duration_s=float),
    "fault_degrade": _kind(
        "rank", "degrades", "a scheduled `factor`x latency window",
        duration_s=float, factor=float),
    "route": _kind(
        "cluster", "routes", "the router assigned a request to a deployment",
        deployment=str, router=str),
    "scale_up": _kind(
        "cluster", "scale_ups",
        "the autoscaler added a cold replica (usable after `cold_start_s`)",
        **_SCALE_UP_FIELDS),
    "scale_up_warm": _kind(
        "cluster", "scale_ups",
        "the autoscaler re-activated a retired, weights-resident replica",
        **_SCALE_UP_FIELDS),
    "scale_down": _kind(
        "cluster", "scale_downs", "the autoscaler retired an idle replica",
        deployment=str, replicas=int, depth=float, threshold=float),
    "replace": _kind(
        "cluster", "replacements",
        "the autoscaler replaced the crashed replica `dead_rank`",
        deployment=str, replicas=int, cold_start_s=float, weight_bytes=int,
        dead_rank=int),
    "retry": _kind(
        "cluster", "retries",
        "a lost request re-entered the cluster (stamped after its backoff)",
        deployment=str, attempt=int, backoff_s=float),
    "failover": _kind(
        "cluster", "failovers",
        "a request was re-routed away from a dead or frozen target",
        deployment=str, from_rank=int),
    "shed": _kind(
        "cluster", "shed", "the load-shedder dropped a low-tier arrival",
        deployment=str, priority=int),
}

#: Every event kind, in schema order.
EVENT_KINDS = tuple(EVENT_SCHEMA)

#: Request-scoped kinds, identical across engines.
LIFECYCLE_KINDS = tuple(
    k for k, spec in EVENT_SCHEMA.items() if spec.scope == "request"
)

#: Cluster-scoped kinds (``rank = -1``); the single-deployment replay
#: oracle ignores them.
CLUSTER_KINDS = tuple(
    k for k, spec in EVENT_SCHEMA.items() if spec.scope == "cluster"
)

#: Fault-injection kinds of a :class:`~repro.serving.faults.FaultPlan`.
#: Crashes are emitted by the engine that dies; stall and degrade windows
#: once each as scheduled by the plan's owner
#: (:meth:`~repro.serving.faults.FaultPlan.trace_windows`).
FAULT_EVENT_KINDS = tuple(k for k in EVENT_SCHEMA if k.startswith("fault_"))

#: Recording levels: ``lifecycle`` leaves out the engine detail;
#: ``full`` adds decode segments and sampled per-rank time series (what
#: the replay oracle and the Chrome-trace counter tracks need).
TRACE_LEVELS = ("lifecycle", "full")


@dataclass
class TraceEvent:
    """One recorded event: a kind of :data:`EVENT_SCHEMA` at ``t_s``.

    ``req_id`` is ``None`` for kinds that name no request; ``data`` holds
    the kind's declared payload fields, in declaration order.
    """

    kind: str
    t_s: float
    rank: int
    req_id: Optional[int] = None
    data: dict = field(default_factory=dict)


class Tracer:
    """The null tracer: :meth:`emit` is a no-op and ``enabled`` is False.

    The engines keep ``None`` instead of a disabled tracer, so this class
    is both the do-nothing default and the documentation of the hook
    surface: one :meth:`emit` for every kind of :data:`EVENT_SCHEMA`
    plus the periodic :meth:`sample`.
    """

    #: Emitters only call :meth:`emit` when this is true.
    enabled = False
    #: Engines only emit ``decode_segment`` and call :meth:`sample` when
    #: this is true (the ``full`` recording level).
    wants_engine_detail = False

    def emit(self, kind: str, t_s: float, rank: int,
             req_id: Optional[int] = None, **fields) -> None:
        """Report one event: ``fields`` are the kind's declared payload."""

    def sample(self, t_s: float, rank: int, kv_used_bytes: int, batch: int,
               queue_depth: int) -> None:
        """Periodic rank snapshot: KV occupancy, batch size, queue depth."""


class RecordingTracer(Tracer):
    """Record events and aggregate them into a metric registry.

    ``level`` is one of :data:`TRACE_LEVELS`.  ``full`` adds rank-level
    decode segments and the sampled KV / batch / queue-depth time series,
    which the Chrome-trace exporter renders as counter tracks and
    :func:`repro.obs.replay.replay_result` replays into a full
    :class:`~repro.serving.engine.records.ServingResult`.

    Each completed request is observed once in the TTFT / TPOT / latency /
    queue-wait histograms, at its finish and from its original arrival —
    a request lost in a crash and retried is timed like its record in
    :func:`~repro.serving.metrics.metrics_table`.

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
        if max_series_samples < 2:
            raise ValueError(
                f"max_series_samples must be >= 2, got {max_series_samples}"
            )
        self.level = level
        self.wants_engine_detail = level == "full"
        self.events: List[TraceEvent] = []
        self.registry = MetricsRegistry()
        self._max_series_samples = max_series_samples
        # Per-request (arrival_s, gen_tokens, admit_s, first_token_s) of
        # the current attempt, observed into the histograms at finish.
        self._inflight: Dict[int, List[float]] = {}
        # Original arrival of requests lost to a crash, awaiting retry.
        self._origin: Dict[int, float] = {}

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

    def emit(self, kind: str, t_s: float, rank: int,
             req_id: Optional[int] = None, **fields) -> None:
        """Record the event, count it under its schema counter and apply
        the kind's extra aggregation (:meth:`_derive`)."""
        counter = EVENT_SCHEMA[kind].counter
        self.events.append(TraceEvent(kind, t_s, rank, req_id, fields))
        if counter is not None:
            self.registry.counter(counter).inc()
        self._derive(kind, t_s, rank, req_id, fields)

    def _derive(self, kind: str, t_s: float, rank: int,
                req_id: Optional[int], data: dict) -> None:
        """The aggregation a few kinds add beyond their counter; a no-op
        for every other kind."""
        reg = self.registry
        inflight = self._inflight
        if kind == "arrive":
            arrival = self._origin.pop(req_id, t_s)
            inflight[req_id] = [arrival, float(data["gen_tokens"]), -1.0, -1.0]
        elif kind == "admit":
            if data["readmit"]:
                reg.counter("requeues").inc()
                reg.counter("recompute_tokens").inc(data["prefix_tokens"])
            cached = data["cached_tokens"]
            if cached > 0:
                reg.counter("cache_hits").inc()
                reg.counter("cache_hit_tokens").inc(cached)
            elif cached == 0:
                reg.counter("cache_misses").inc()
            reg.gauge(f"rank{rank}/kv_used_bytes").set(float(data["kv_used_bytes"]))
            entry = inflight.get(req_id)
            if entry is not None and entry[2] < 0.0:
                entry[2] = t_s
        elif kind == "prefill_chunk_end":
            reg.counter("prefill_tokens").inc(data["chunk_tokens"])
        elif kind == "decode_segment":
            reg.counter("output_tokens").inc(data["tokens"] * data["batch"])
        elif kind == "first_token":
            entry = inflight.get(req_id)
            if entry is not None:
                entry[3] = t_s
        elif kind == "finish":
            entry = inflight.pop(req_id, None)
            if entry is None:
                return
            arrival, gen_tokens, admit, first = entry
            if first >= 0.0:
                reg.histogram("ttft_s").observe(first - arrival)
            reg.histogram("latency_s").observe(t_s - arrival)
            if admit >= 0.0:
                reg.histogram("queue_s").observe(admit - arrival)
            if first >= 0.0 and gen_tokens >= 2:
                reg.histogram("tpot_s").observe(
                    (t_s - first) / (gen_tokens - 1.0)
                )
        elif kind in ("reject", "shed"):
            inflight.pop(req_id, None)
            self._origin.pop(req_id, None)
        elif kind == "fault_crash":
            # Lost requests leave the in-flight table; a retry re-arrives
            # under its original arrival time.
            for lost in data["lost_req_ids"]:
                entry = inflight.pop(lost, None)
                if entry is not None:
                    self._origin[lost] = entry[0]
        elif kind == "retry":
            # A request bounced before any replica saw it arrived at the
            # retry time minus its backoff.
            self._origin.setdefault(req_id, t_s - data["backoff_s"])
        elif kind == "cache_hit":
            reg.counter("kv_saved_bytes").inc(data["kv_saved_bytes"])
        elif kind == "scale_up_warm":
            reg.counter("scale_ups_warm").inc()

    def sample(self, t_s: float, rank: int, kv_used_bytes: int, batch: int,
               queue_depth: int) -> None:
        """Append one point to each of the rank's sampled time series."""
        cap = self._max_series_samples
        reg = self.registry
        reg.timeseries(f"rank{rank}/kv_bytes", cap).sample(t_s, float(kv_used_bytes))
        reg.timeseries(f"rank{rank}/batch", cap).sample(t_s, float(batch))
        reg.timeseries(f"rank{rank}/queue_depth", cap).sample(t_s, float(queue_depth))
