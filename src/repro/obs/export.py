"""Trace exporters: Chrome trace-event JSON and flat timeline rows.

Two render targets for a recorded serving trace
(:class:`~repro.obs.tracer.RecordingTracer`):

* :func:`chrome_trace` — the Chrome trace-event format (the JSON object
  form, ``{"traceEvents": [...]}``), which loads directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Each serving rank
  becomes a *process*; thread 0 is the rank's engine lane carrying
  decode-segment slices and fault windows, and every request gets its
  own thread with ``queued`` / ``prefill`` / ``decode`` slices.  Every
  other kind of :data:`~repro.obs.tracer.EVENT_SCHEMA` is one instant
  marker carrying its payload, placed by the kind's scope: the request's
  thread, the rank's engine lane, or the ``cluster`` process (pid -1).
  The sampled KV / batch / queue-depth series render as per-rank counter
  tracks.  Timestamps are simulated microseconds.
* :func:`timeline_rows` — one flat dict per event, ready for
  :func:`repro.experiments.io.write_csv` / ``write_json`` (the
  ``--timeline-out`` serving CLI flag).

:func:`validate_chrome_trace` is the schema gate CI runs against
exported traces: it checks the structural contract Perfetto relies on
(phase kinds, pid/tid integers, non-negative timestamps and durations,
numeric counter args) and returns per-phase counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.io import write_csv, write_json
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import EVENT_SCHEMA, RecordingTracer, TraceEvent

__all__ = [
    "chrome_trace",
    "timeline_rows",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_timeline",
]

_US = 1e6  # seconds -> trace-event microseconds

#: Chrome trace phases this exporter emits: complete slices, counters,
#: metadata and instant markers.
_PHASES = ("X", "C", "M", "i")


def _slice(name: str, pid: int, tid: int, start_s: float, dur_s: float,
           args: Optional[dict] = None) -> dict:
    """One complete ('X') slice event in microseconds."""
    event = {
        "name": name,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": start_s * _US,
        "dur": max(dur_s, 0.0) * _US,
    }
    if args:
        event["args"] = args
    return event


def _instant(name: str, pid: int, tid: int, t_s: float,
             args: Optional[dict] = None) -> dict:
    """One instant ('i') marker event, thread-scoped."""
    event = {"name": name, "ph": "i", "pid": pid, "tid": tid,
             "ts": t_s * _US, "s": "t"}
    if args:
        event["args"] = args
    return event


def _metadata(kind: str, pid: int, tid: int, label: str) -> dict:
    """One metadata ('M') event naming a process or thread."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "ts": 0.0, "args": {"name": label}}


def chrome_trace(events: Sequence[TraceEvent],
                 registry: Optional[MetricsRegistry] = None) -> dict:
    """Render recorded events (plus optional counter series) to JSON form.

    Returns the trace-event *object* format: ``traceEvents`` plus
    ``displayTimeUnit``.  Request slices are reconstructed from the
    lifecycle stream — ``queued`` spans arrive→admit (re-queues open a
    new span at preemption), ``prefill`` spans each chunk, ``decode``
    spans the first admission's prefill end (or re-admissions' requeue
    end) to finish/preempt — so a preempted request shows its whole
    sawtooth.  ``registry`` supplies the sampled per-rank series
    (``rank<N>/<counter>`` names) rendered as counter tracks.
    """
    trace: List[dict] = []
    ranks = sorted({e.rank for e in events})
    for rank in ranks:
        # Rank -1 is the synthetic cluster lane (routing + autoscaling).
        if rank < 0:
            trace.append(_metadata("process_name", rank, 0, "cluster"))
            trace.append(_metadata("thread_name", rank, 0, "router"))
        else:
            trace.append(_metadata("process_name", rank, 0, f"rank {rank}"))
            trace.append(_metadata("thread_name", rank, 0, "engine"))

    # Per-request reconstruction state: open queue span, open run span,
    # open prefill chunk.
    queued_since: Dict[int, float] = {}
    running_since: Dict[int, float] = {}
    chunk_since: Dict[int, float] = {}
    named: set = set()
    for event in events:
        kind, rank, req_id, t, data = (
            event.kind, event.rank, event.req_id, event.t_s, event.data
        )
        scope = EVENT_SCHEMA[kind].scope
        if scope == "cluster":
            # Cluster-lane instants: all on the router thread, so a
            # million routed requests don't fan out into request threads.
            args = dict(data)
            if req_id is not None:
                args["req_id"] = req_id
            trace.append(_instant(kind, rank, 0, t, args))
            continue
        tid = 0 if req_id is None else req_id + 1
        if req_id is not None and req_id not in named:
            named.add(req_id)
            trace.append(_metadata("thread_name", rank, tid, f"req {req_id}"))
        if kind in ("arrive", "requeue"):
            queued_since[req_id] = t
        elif kind == "admit":
            start = queued_since.pop(req_id, t)
            trace.append(_slice("queued", rank, tid, start, t - start))
            running_since[req_id] = t
        elif kind == "prefill_chunk_start":
            chunk_since[req_id] = t
        elif kind == "prefill_chunk_end":
            start = chunk_since.pop(req_id, t - data["latency_s"])
            trace.append(_slice(
                "prefill", rank, tid, start, t - start,
                {"tokens": data["chunk_tokens"], "energy_j": data["energy_j"]},
            ))
            running_since[req_id] = t
        elif kind == "preempt":
            start = running_since.pop(req_id, t)
            trace.append(_slice(
                "decode", rank, tid, start, t - start,
                {"tokens_out": data["tokens_out"]},
            ))
            trace.append(_instant("preempt", rank, tid, t,
                                  {"kv_bytes": data["kv_bytes"]}))
        elif kind == "reject":
            start = queued_since.pop(req_id, t)
            trace.append(_slice("queued", rank, tid, start, t - start))
            trace.append(_instant("reject", rank, tid, t,
                                  {"kv_bytes": data["kv_bytes"]}))
        elif kind == "finish":
            start = running_since.pop(req_id, t)
            trace.append(_slice("decode", rank, tid, start, t - start,
                                {"tokens_out": data["tokens_out"]}))
        elif kind == "decode_segment":
            trace.append(_slice(
                "decode_segment", rank, 0, t - data["latency_s"],
                data["latency_s"],
                {"batch": data["batch"], "tokens": data["tokens"]},
            ))
        elif kind in ("fault_stall", "fault_degrade"):
            trace.append(_slice(kind, rank, 0, t, data["duration_s"],
                                {k: v for k, v in data.items()
                                 if k != "duration_s"}))
        else:
            # Every other kind is one instant marker carrying its payload,
            # on the request's thread or (rank scope) the engine lane.
            args = dict(data)
            if kind == "fault_crash":
                # The lost work, counted and listed, is inspectable.
                args = {"lost_requests": len(data["lost_req_ids"]), **args}
            trace.append(_instant(kind, rank, tid, t, args))

    if registry is not None:
        for name in sorted(registry.series):
            series = registry.series[name]
            rank_label, _, counter = name.partition("/")
            if not (rank_label.startswith("rank")
                    and rank_label[4:].isdigit() and counter):
                continue
            pid = int(rank_label[4:])
            for t, value in zip(series.times, series.values):
                trace.append({
                    "name": counter, "ph": "C", "pid": pid, "tid": 0,
                    "ts": t * _US, "args": {counter: value},
                })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: dict) -> Dict[str, int]:
    """Validate the structural schema of a Chrome trace-event payload.

    Checks the contract Perfetto's JSON importer relies on and raises
    :class:`ValueError` naming the first offending event.  Returns the
    per-phase event counts (``slices`` / ``counters`` / ``metadata`` /
    ``instants``) so callers can assert coverage.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("payload must be a dict with a 'traceEvents' list")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    counts = {"slices": 0, "counters": 0, "metadata": 0, "instants": 0}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: event must be a dict")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"{where}: unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: name must be a non-empty string")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: X event needs a non-negative dur")
            counts["slices"] += 1
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ValueError(
                    f"{where}: C event needs numeric args to plot"
                )
            counts["counters"] += 1
        elif ph == "M":
            args = event.get("args", {})
            if event["name"] not in ("process_name", "thread_name") or not \
                    isinstance(args.get("name"), str):
                raise ValueError(f"{where}: malformed metadata event")
            counts["metadata"] += 1
        else:  # "i"
            if event.get("s") not in ("t", "p", "g"):
                raise ValueError(f"{where}: instant event needs a scope 's'")
            counts["instants"] += 1
    return counts


def timeline_rows(events: Sequence[TraceEvent]) -> List[dict]:
    """Flatten recorded events into CSV/JSON-ready timeline rows.

    One row per event — ``event`` / ``t_s`` / ``rank`` / ``req_id`` plus
    the kind's payload fields.  Events that name no request carry
    ``req_id=None`` (an empty CSV cell, absent after ``read_csv``).  The
    ``event`` column and every ``str`` payload field of
    :data:`~repro.obs.tracer.EVENT_SCHEMA` are string columns in
    :mod:`repro.experiments.io` and list fields travel as JSON arrays, so
    the rows round-trip type-faithfully through ``write_csv`` /
    ``read_csv``.
    """
    rows = []
    for event in events:
        row = {"event": event.kind, "t_s": event.t_s, "rank": event.rank,
               "req_id": event.req_id}
        row.update(event.data)
        rows.append(row)
    return rows


def write_chrome_trace(path: str, tracer: RecordingTracer) -> dict:
    """Export a recording tracer's trace to ``path``; returns the payload."""
    payload = chrome_trace(tracer.events, tracer.registry)
    write_json(path, payload)
    return payload


def write_timeline(path: str, tracer: RecordingTracer) -> None:
    """Export the timeline to ``path``.

    A ``.csv`` path writes the flat event rows; any other path writes a
    JSON payload bundling the trace level, event rows, sampled series
    points and the full metric-registry snapshot.
    """
    rows = timeline_rows(tracer.events)
    if path.endswith(".csv"):
        write_csv(path, rows)
        return
    write_json(path, {
        "level": tracer.level,
        "events": rows,
        "series": tracer.registry.series_rows(),
        "metrics": tracer.registry.snapshot(),
    })
