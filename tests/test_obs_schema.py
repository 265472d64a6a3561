"""The event schema contract: one table drives every trace consumer.

:data:`repro.obs.tracer.EVENT_SCHEMA` declares each kind's scope,
ordered payload fields, registry counter and meaning once.  Three
fixtures together fire every kind in it:

* a KV-starved standalone rank under the ``priority`` policy with the
  prefix cache, plus one request too large to ever fit (preempt,
  requeue, reject, cache hits and evictions),
* an autoscaled ``least_kv`` cluster (routes, cold and warm scale-ups,
  scale-downs),
* a faulted cluster with a crash, a stall, a degrade window, tier
  shedding, retries, failovers and an autoscaler replacement.

Across them every recorded payload must carry exactly its kind's
declared fields in order, every kind must fire, the Chrome exporter
must render every kind, and the timeline CSV must round-trip every row.
"""

import dataclasses
import math
import os
import re

import pytest

from repro.experiments.io import DEFAULT_STRING_COLUMNS, read_csv
from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    RecordingTracer,
    chrome_trace,
    timeline_rows,
    validate_chrome_trace,
    write_timeline,
)
from repro.obs.tracer import CLUSTER_KINDS, FAULT_EVENT_KINDS, LIFECYCLE_KINDS
from repro.serving import (
    Autoscaler,
    AutoscalerConfig,
    Deployment,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_cluster,
    simulate_trace,
)

ARCHITECTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "ARCHITECTURE.md"
)


def starved_standalone_run():
    """Conversational churn on one starved priority rank with the prefix
    cache, plus a trailing request that can never fit the KV budget."""
    trace = generate_trace(TraceSpec(
        num_requests=28, arrival_rate_per_s=0.02, scenario="conversational",
        prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128, gen_mean=24.0,
        gen_max=64, priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
        sessions=9, turns_mean=3.0, turns_max=4, think_time_mean_s=4.0,
        system_prompt_pool=2, system_prompt_tokens=48, seed=7,
    ))
    last = trace[-1]
    huge = dataclasses.replace(
        last, req_id=last.req_id + 1, prompt_tokens=100_000, session_id=-1,
        turn=0, shared_prefix_id=-1, shared_prefix_tokens=0,
    )
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                           max_batch=8, policy="priority",
                           prefill_chunk_tokens=16, prefix_cache=True)
    tracer = RecordingTracer("full")
    return tracer, simulate_trace(list(trace) + [huge], config, tracer=tracer)


def _bursty(seed):
    return generate_trace(TraceSpec(
        num_requests=160, seed=seed, scenario="bursty",
        arrival_rate_per_s=30.0, priority_weights=(1.0, 1.0),
    ))


def autoscaled_cluster_run():
    """Least-KV routing over three KV-starved deployments with a fast
    autoscaler that scales up, down and back up warm."""
    deployments = [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                 dpus_per_rank=8), name="tight", tier=0),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=16), name="mid", tier=1),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=64), name="roomy", tier=0),
    ]
    scaler = Autoscaler(AutoscalerConfig(max_replicas=3, queue_high=2.0,
                                         interval_s=1.0))
    tracer = RecordingTracer("full")
    return tracer, simulate_cluster(
        _bursty(4), deployments, router="least_kv", autoscaler=scaler,
        tracer=tracer,
    )


def faulted_cluster_run():
    """A crash with retries and failovers, a stall, a degrade window,
    tier-1 shedding and an autoscaler that replaces the corpse."""
    deployments = [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2), name="a",
                   tier=0),
        Deployment(ServingConfig(model="gpt-350m", num_ranks=2), name="b",
                   tier=1),
    ]
    plan = FaultPlan((
        FaultSpec("crash", 0, 2.0),
        FaultSpec("stall", 3, 1.0, duration_s=200.0),
        FaultSpec("degrade", 1, 0.0, duration_s=1e6, factor=3.0),
    ))
    scaler = Autoscaler(AutoscalerConfig(max_replicas=3, queue_high=4.0,
                                         interval_s=1.0))
    tracer = RecordingTracer("full")
    return tracer, simulate_cluster(
        _bursty(2), deployments, autoscaler=scaler, tracer=tracer,
        faults=plan, retry_policy=RetryPolicy(max_retries=5), shed_tier=1,
    )


FIXTURES = {
    "starved": starved_standalone_run,
    "autoscaled": autoscaled_cluster_run,
    "faulted": faulted_cluster_run,
}


@pytest.fixture(scope="module")
def tracers():
    return {name: run()[0] for name, run in FIXTURES.items()}


@pytest.fixture(scope="module")
def traces(tracers):
    return {name: tracer.events for name, tracer in tracers.items()}


def _typed(value, typ) -> bool:
    if typ is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, typ)


def test_kind_tuples_derive_from_the_schema():
    assert EVENT_KINDS == tuple(EVENT_SCHEMA)
    for kind, spec in EVENT_SCHEMA.items():
        assert spec.scope in ("request", "rank", "cluster"), kind
        assert (kind in LIFECYCLE_KINDS) == (spec.scope == "request")
        assert (kind in CLUSTER_KINDS) == (spec.scope == "cluster")
        assert spec.doc
    assert set(FAULT_EVENT_KINDS) == {
        "fault_crash", "fault_stall", "fault_degrade"
    }


def test_payloads_match_declared_fields_in_order(traces):
    for name, events in traces.items():
        for event in events:
            spec = EVENT_SCHEMA[event.kind]
            assert list(event.data) == [f for f, _ in spec.fields], (
                name, event)
            for field, typ in spec.fields:
                assert _typed(event.data[field], typ), (name, event, field)
            if spec.scope == "cluster":
                assert event.rank == -1, (name, event)
            else:
                assert event.rank >= 0, (name, event)
            if spec.scope == "rank":
                assert event.req_id is None, (name, event)
            elif spec.scope == "request":
                assert event.req_id is not None, (name, event)


def test_every_schema_kind_is_emitted(traces):
    emitted = {e.kind for events in traces.values() for e in events}
    assert emitted == set(EVENT_SCHEMA)


#: The Chrome entry a stateful kind opens (edge 0) or closes (edge 1);
#: every other kind is an instant or a window slice of its own name
#: starting at the event.
RENDERED_AS = {
    "arrive": ("queued", 0),
    "requeue": ("queued", 0),
    "admit": ("queued", 1),
    "prefill_chunk_start": ("prefill", 0),
    "prefill_chunk_end": ("prefill", 1),
    "finish": ("decode", 1),
    "decode_segment": ("decode_segment", 1),
}


def test_chrome_trace_renders_every_emitted_kind(traces):
    """Each kind leaves its own mark — an entry of the expected name with
    the expected edge at the event's time — on its own lane: the
    request's thread, the rank's engine lane or the cluster lane."""
    rendered = set()
    for events in traces.values():
        doc = chrome_trace(events)
        validate_chrome_trace(doc)
        entries = {}
        for entry in doc["traceEvents"]:
            if entry["ph"] in ("X", "i"):
                start = entry["ts"]
                end = start + entry.get("dur", 0.0)
                key = (entry["name"], entry["pid"], entry["tid"])
                entries.setdefault(key, []).append((start, end))
        for event in events:
            if event.kind in rendered:
                continue
            name, edge = RENDERED_AS.get(event.kind, (event.kind, 0))
            on_request_thread = EVENT_SCHEMA[event.kind].scope == "request"
            tid = event.req_id + 1 if on_request_thread else 0
            t_us = event.t_s * 1e6
            if any(
                math.isclose(t_us, span[edge], rel_tol=1e-9, abs_tol=1e-3)
                for span in entries.get((name, event.rank, tid), ())
            ):
                rendered.add(event.kind)
    assert rendered == set(EVENT_SCHEMA)


def test_string_fields_are_csv_string_columns():
    for kind, spec in EVENT_SCHEMA.items():
        for field, typ in spec.fields:
            if typ is str:
                assert field in DEFAULT_STRING_COLUMNS, (kind, field)


def test_timeline_csv_round_trips_every_kind(tracers, tmp_path):
    seen = set()
    for name, tracer in tracers.items():
        path = str(tmp_path / f"{name}.csv")
        write_timeline(path, tracer)
        rows = read_csv(path)
        # A None req_id is an empty cell, absent after the read.
        assert rows == [
            {k: v for k, v in row.items() if v is not None}
            for row in timeline_rows(tracer.events)
        ]
        seen.update(row["event"] for row in rows)
        for row in rows:
            if row["event"] == "fault_crash":
                assert row["lost_req_ids"]
                assert all(isinstance(i, int) for i in row["lost_req_ids"])
    assert seen == set(EVENT_SCHEMA)


def test_recording_tracer_rejects_undeclared_kinds():
    with pytest.raises(KeyError):
        RecordingTracer().emit("teleport", 0.0, 0)


def test_architecture_event_table_lists_every_kind():
    with open(ARCHITECTURE, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Lifecycle events", 1)[1].split("\n### ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    assert set(EVENT_SCHEMA) <= documented
