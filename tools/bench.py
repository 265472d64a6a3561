#!/usr/bin/env python
"""Performance benchmark: sweep and trace-simulation wall-clock.

Seeds the repo's performance trajectory: runs (a) a model-level sweep,
(b) the decode cost in both aggregation modes (loop vs closed form),
(c) a 1000-request serving trace on gpt-1.3b, (d) the four scheduling
policies on a bursty long-prefill trace, (e) the event-driven serving
engine against the per-token loop engine on a long-generation trace,
(f) the event engine on a 1M-request wide-batch trace, (f') the event
engine across decode batch widths, with its bulk paths as shipped,
off and forced on (the curve behind its ``PACKED_MIN_BATCH``
threshold), (g) a 100k-request bursty scaling trace (plus tracing
overhead and the span breakdown of the engine's host wall), (g') the
results path of that run (metrics tables, request/trace rows and the
JSON export, stage by stage)
and (h) a 1M-request cluster run across eight heterogeneous
deployments (plus a router comparison
and an autoscaled run), then writes the wall-clock numbers, simulated
throughput and the policy-comparison table — plus environment metadata
(python / platform / git SHA / UTC timestamp) so trajectories are
comparable across machines — to ``BENCH_serving.json``.

Usage::

    PYTHONPATH=src python tools/bench.py [--output BENCH_serving.json] [--check]

``--check`` exits non-zero if the trace simulation misses its
wall-clock budget (10 s for 1000 requests), if the event engine's
speedup over the loop engine falls below 10x at 1000 requests, if the
event engine loses requests on the 1M-request wide-batch trace or
misses its wall budget there (simulation alone, and trace generation
plus simulation), if the 100k-request scaling run misses its budget, if a disabled tracer on the
100k scaling run receives any event or changes its records or rank
stats, if the results path of the scaling result
misses its budget, or if the
chunked-prefill policy stops beating FCFS p95 TTFT on the bursty
long-prefill scenario (or drops completed requests), if the 1M-request
cluster run misses its 300 s budget or loses requests, or if the
autoscaled cluster run produces no scale events, so CI catches
performance and scheduling-quality regressions on the serving path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from datetime import datetime, timezone
from typing import Optional
from unittest.mock import patch

TRACE_REQUESTS = 1000
TRACE_BUDGET_S = 10.0
DECODE_TOKENS = 256
POLICY_REQUESTS = 200
ENGINE_REQUESTS = 1000
ENGINE_SPEEDUP_FLOOR = 10.0
WIDE_REQUESTS = 1_000_000
WIDE_BUDGET_S = 60.0
# Shared runners jitter single-shot wall clocks by 2x; the wide-batch
# and batch-width walls are best-of-N so they measure engine cost, not
# scheduler noise.
TIMING_REPS = 2
BATCH_WIDTH_REQUESTS = 50_000
BATCH_WIDTHS = (8, 16, 32, 128, 512, 2048)
SCALING_REQUESTS = 100_000
SCALING_BUDGET_S = 180.0
CACHE_REQUESTS = 2000
CACHE_HIT_RATE_FLOOR = 0.5
CLUSTER_REQUESTS = 1_000_000
CLUSTER_BUDGET_S = 300.0
CLUSTER_ROUTER_REQUESTS = 100_000
CLUSTER_AUTOSCALE_REQUESTS = 100_000
FAULT_REQUESTS = 20_000
FAULT_BUDGET_S = 120.0
# Crashing 1 in 4 replicas (with replacement) must keep goodput within
# 10% of the fault-free completed count on the same trace.
FAULT_GOODPUT_FLOOR = 0.9
OBS_TRACED_REQUESTS = 20_000
# Untraced / disabled-tracer pairs behind the reported overhead ratio
# (median; not gated: both arms run the same code, so the ratio is host
# noise around 1).  Even, so each order runs equally often.
OBS_OVERHEAD_REPS = 4
# The results path (metrics, rows, JSON export) of the 100k scaling
# result: each stage is the median of this many alternating reps, and
# their sum must stay inside the budget.
RESULTS_PATH_REPS = 3
RESULTS_PATH_BUDGET_S = 12.0
# perfbench's span recorder (``spans.SpanRecorder`` and its ``SHIMS``
# on the serving stack's public entry points) attributes host wall.
PERFBENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)
#: ``(_RankEngine method, span layer)``: the object engine's scheduler
#: phases, wrapped on top of ``SHIMS`` for the observability breakdown.
ENGINE_PHASES = (
    ("_collect_arrivals", "engine.admission"),
    ("_admit", "engine.admission"),
    ("_admit_window", "engine.admission"),
    ("_prefill_stage", "engine.prefill"),
    ("_decode_segment", "engine.decode"),
    ("_decode_iteration", "engine.decode"),
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@contextmanager
def engine_spans():
    """Record host wall as spans for the duration of the ``with`` block.

    Yields a fresh ``spans.SpanRecorder`` shimmed onto perfbench's
    ``SHIMS`` and onto the :data:`ENGINE_PHASES` methods of
    ``_RankEngine``; every original is restored on exit.
    """
    if PERFBENCH_DIR not in sys.path:
        sys.path.insert(0, PERFBENCH_DIR)
    import spans
    from repro.serving.engine.rank_engine import _RankEngine

    recorder = spans.SpanRecorder()
    with ExitStack() as stack:
        stack.enter_context(spans.recording(recorder))
        for method, layer in ENGINE_PHASES:
            wrapped = recorder.wrap(vars(_RankEngine)[method], layer)
            stack.enter_context(patch.object(_RankEngine, method, wrapped))
        yield recorder


def span_layers(recorder) -> dict:
    """``{layer: {calls, self_s, share}}`` from ``recorder``'s closed spans.

    ``share`` is the layer's self time over the sum of all self times,
    which is the total duration of the top-level spans.
    """
    totals = recorder.layer_totals()
    total = sum(self_s for _, self_s in totals.values())
    return {
        layer: {
            "calls": calls,
            "self_s": self_s,
            "share": self_s / total if total else 0.0,
        }
        for layer, (calls, self_s) in sorted(totals.items())
    }


def environment_meta() -> dict:
    """Python / platform / git / timestamp metadata for the payload.

    ``dirty`` is True when the working tree differs from ``git_sha``
    (``git status --porcelain`` lists anything), so a number measured on
    uncommitted code says so; ``None`` when git is unavailable.
    """
    def git(*args: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", *args], capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout
        except (OSError, subprocess.SubprocessError):
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": sha.strip() if sha is not None else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }


def bench_sweep() -> dict:
    from repro.experiments.sweep import SweepSpec, run_sweep

    spec = SweepSpec(models=("gpt-1.3b",), schemes=("W1A3",),
                     prefill_lens=(128,), decode_tokens=DECODE_TOKENS)
    rows, wall = _timed(lambda: run_sweep(spec))
    return {
        "grid_points": spec.grid_size,
        "decode_tokens": DECODE_TOKENS,
        "wall_s": wall,
        "ok_rows": sum(r["status"] == "ok" for r in rows),
    }


def bench_decode_methods() -> dict:
    from repro.model import SchemePolicy, get_model_config
    from repro.model.cost import decode_phase_stats

    config = get_model_config("gpt-1.3b")
    policy = SchemePolicy("W1A3")
    loop_stats, loop_wall = _timed(
        lambda: decode_phase_stats(config, policy, 1, 128, DECODE_TOKENS,
                                   method="loop")
    )
    closed_stats, closed_wall = _timed(
        lambda: decode_phase_stats(config, policy, 1, 128, DECODE_TOKENS,
                                   method="closed_form")
    )
    assert loop_stats.allclose(closed_stats)
    return {
        "decode_tokens": DECODE_TOKENS,
        "loop_wall_s": loop_wall,
        "closed_form_wall_s": closed_wall,
        "speedup": loop_wall / closed_wall if closed_wall > 0 else 0.0,
    }


def bench_serving() -> dict:
    from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_trace

    trace = generate_trace(TraceSpec(num_requests=TRACE_REQUESTS, seed=0))
    config = ServingConfig(model="gpt-1.3b")
    result, wall = _timed(lambda: simulate_trace(trace, config))
    completed = sum(r.status == "completed" for r in result.records)
    return {
        "requests": TRACE_REQUESTS,
        "completed": completed,
        "wall_s": wall,
        "wall_budget_s": TRACE_BUDGET_S,
        "simulated_makespan_s": result.makespan_s,
        "simulated_output_tokens": result.output_tokens,
        "simulated_tokens_per_s": (
            result.output_tokens / result.makespan_s if result.makespan_s else 0.0
        ),
        "requests_per_wall_s": TRACE_REQUESTS / wall if wall else 0.0,
    }


def bench_engines() -> dict:
    """Event-driven vs per-token loop engine on a long-generation trace.

    The regime where closed-form segments pay off: few thousand-token
    generations per batch slot, so the loop engine walks millions of
    per-token iterations while the event engine visits one closed-form
    segment per scheduler event.  Both engines run the same trace and
    must agree on completions and generated tokens (the equivalence
    tests pin the full metric set).
    """
    import dataclasses

    from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_trace

    trace = generate_trace(TraceSpec(
        num_requests=ENGINE_REQUESTS, seed=0, arrival_rate_per_s=8.0,
        prompt_mean=128.0, gen_mean=4096.0, gen_max=16384,
    ))
    config = ServingConfig(model="gpt-1.3b", num_ranks=4, max_batch=4)
    loop_result, loop_wall = _timed(
        lambda: simulate_trace(trace, dataclasses.replace(config, engine="loop"))
    )
    event_result, event_wall = _timed(
        lambda: simulate_trace(trace, dataclasses.replace(config, engine="event"))
    )
    return {
        "requests": ENGINE_REQUESTS,
        "gen_mean": 4096,
        "loop_wall_s": loop_wall,
        "event_wall_s": event_wall,
        "speedup": loop_wall / event_wall if event_wall > 0 else 0.0,
        "speedup_floor": ENGINE_SPEEDUP_FLOOR,
        "output_tokens": event_result.output_tokens,
        "loop_output_tokens": loop_result.output_tokens,
        "tokens_match": loop_result.output_tokens == event_result.output_tokens,
        "completed": sum(
            r.status == "completed" for r in event_result.records
        ),
    }


def _wide_spec(requests: int):
    """Short bursty requests on gpt-125m: the wide-batch trace family."""
    from repro.serving import TraceSpec

    return TraceSpec(
        num_requests=requests, seed=0, scenario="bursty",
        arrival_rate_per_s=256.0, burst_rate_multiplier=8.0,
        prompt_mean=16.0, gen_mean=32.0,
    )


def bench_wide() -> dict:
    """The event engine on a million-request wide-batch trace.

    A saturated single replica with a wide continuous batch
    (``max_batch=2048``) over a million short bursty requests: the
    regime of the event engine's bulk paths (window admission, the
    packed running set).  ``wall_s`` is the
    simulation alone, ``e2e_wall_s`` what a user runs end to end --
    generate the trace, then simulate it -- each best of
    :data:`TIMING_REPS`.  Every trace entry must come back as a record.
    """
    from repro.serving import ServingConfig, generate_trace, simulate_trace

    trace, trace_wall = _timed(lambda: generate_trace(_wide_spec(WIDE_REQUESTS)))
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=256,
                           max_batch=2048)
    result, wall = min(
        (_timed(lambda: simulate_trace(trace, config))
         for _ in range(TIMING_REPS)),
        key=lambda pair: pair[1],
    )
    e2e_wall = min(
        _timed(lambda: simulate_trace(
            generate_trace(_wide_spec(WIDE_REQUESTS)), config
        ))[1]
        for _ in range(TIMING_REPS)
    )
    records = result.records
    statuses = records.column("status")
    return {
        "requests": WIDE_REQUESTS,
        "timing_reps": TIMING_REPS,
        "trace_wall_s": trace_wall,
        "wall_s": wall,
        "e2e_wall_s": e2e_wall,
        "wall_budget_s": WIDE_BUDGET_S,
        "requests_per_wall_s": WIDE_REQUESTS / wall if wall else 0.0,
        "lost": WIDE_REQUESTS - len(records),
        "completed": statuses.count("completed"),
        "rejected": statuses.count("rejected"),
        "simulated_output_tokens": result.output_tokens,
        "mean_batch": result.output_tokens / sum(
            s.decode_iterations for s in result.rank_stats
        ),
    }


def bench_batch_width() -> dict:
    """Event engine wall clock across decode batch widths.

    One 50k-request wide-batch trace on a single 256-DPU gpt-125m
    replica, served at each ``max_batch`` in :data:`BATCH_WIDTHS` by the
    event engine as shipped (bulk paths from ``PACKED_MIN_BATCH`` up),
    with the bulk paths off (``per_request``) and forced on for every
    batch (``packed``).  Where ``packed`` starts beating
    ``per_request`` is the threshold the engine ships with.  Each wall
    is best of :data:`TIMING_REPS`.
    """
    from repro.serving import ServingConfig, generate_trace, simulate_trace
    from repro.serving.engine import rank_engine

    trace = generate_trace(_wide_spec(BATCH_WIDTH_REQUESTS))
    shipped = rank_engine.PACKED_MIN_BATCH
    variants = (
        ("event", shipped),
        ("per_request", BATCH_WIDTH_REQUESTS + 1),
        ("packed", 1),
    )
    rows = []
    try:
        for max_batch in BATCH_WIDTHS:
            config = ServingConfig(model="gpt-125m", num_ranks=1,
                                   dpus_per_rank=256, max_batch=max_batch)
            row = {"max_batch": max_batch}
            for name, threshold in variants:
                rank_engine.PACKED_MIN_BATCH = threshold
                result, row[f"{name}_wall_s"] = min(
                    (_timed(lambda: simulate_trace(trace, config))
                     for _ in range(TIMING_REPS)),
                    key=lambda pair: pair[1],
                )
                if name == "event":
                    row["mean_batch"] = result.output_tokens / sum(
                        s.decode_iterations for s in result.rank_stats
                    )
            row["packed_speedup"] = (
                row["per_request_wall_s"] / row["packed_wall_s"]
            )
            rows.append(row)
    finally:
        rank_engine.PACKED_MIN_BATCH = shipped
    return {
        "requests": BATCH_WIDTH_REQUESTS,
        "packed_min_batch": shipped,
        "timing_reps": TIMING_REPS,
        "rows": rows,
    }


def _scaling_run() -> tuple:
    """The scaling entry's trace spec and serving config."""
    from repro.serving import ServingConfig, TraceSpec

    spec = TraceSpec(
        num_requests=SCALING_REQUESTS, seed=0, scenario="bursty",
        arrival_rate_per_s=32.0, burst_rate_multiplier=8.0,
    )
    return spec, ServingConfig(model="gpt-1.3b", num_ranks=8)


def bench_scaling() -> dict:
    """100k-request bursty trace on the event engine (the scaling entry)."""
    from repro.serving import generate_trace, simulate_trace

    spec, config = _scaling_run()
    trace, trace_wall = _timed(lambda: generate_trace(spec))
    result, wall = _timed(lambda: simulate_trace(trace, config))
    return {
        "requests": SCALING_REQUESTS,
        "scenario": spec.scenario,
        "trace_wall_s": trace_wall,
        "wall_s": wall,
        "wall_budget_s": SCALING_BUDGET_S,
        "completed": sum(r.status == "completed" for r in result.records),
        "simulated_makespan_s": result.makespan_s,
        "simulated_output_tokens": result.output_tokens,
        "requests_per_wall_s": SCALING_REQUESTS / wall if wall else 0.0,
    }


def bench_observability() -> dict:
    """Tracing overhead and the span breakdown of the engine's host wall.

    Three measurements: (a) the 100k-request scaling trace with a
    *disabled* tracer passed in — at runtime this is the same code path
    as passing no tracer at all (the engine stores ``None`` either
    way).  After one warm-up run, untraced and disabled-tracer runs go
    back to back in alternating order, :data:`OBS_OVERHEAD_REPS` pairs.
    The disabled tracer counts the hook calls that reach it: the gate
    is that it sees none and that its runs' records and rank stats
    equal the untraced runs'.  The median of the per-pair wall ratios
    is reported, not gated (identical code, so it measures host noise);
    (b) a 20k-request slice with a full
    :class:`RecordingTracer`, reporting the absolute cost of recording
    every lifecycle event plus sampled series; (c) a 1000-request run
    under :func:`engine_spans`, whose self times attribute its host
    wall clock to the engine's admission / prefill / decode phases,
    the cost-table fills and the driver.
    """
    from repro.obs import RecordingTracer, Tracer
    from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_trace
    from repro.serving.engine import driver

    class CountingTracer(Tracer):
        """A disabled tracer that counts every hook call reaching it."""

        calls = 0

        def emit(self, *args, **kwargs) -> None:
            self.calls += 1

        def sample(self, *args, **kwargs) -> None:
            self.calls += 1

    spec, config = _scaling_run()
    trace = generate_trace(spec)
    simulate_trace(trace, config)  # warm the cost caches
    walls = {"untraced": [], "disabled": []}
    observed = {}
    disabled_calls = 0
    for rep in range(OBS_OVERHEAD_REPS):
        order = ("untraced", "disabled") if rep % 2 == 0 else (
            "disabled", "untraced")
        for name in order:
            tracer = CountingTracer() if name == "disabled" else None
            result, wall = _timed(
                lambda: simulate_trace(trace, config, tracer=tracer)
            )
            walls[name].append(wall)
            if tracer is not None:
                disabled_calls += tracer.calls
            observed[name] = (result.records, result.rank_stats)
    ratios = [disabled / untraced for disabled, untraced
              in zip(walls["disabled"], walls["untraced"])]

    sub = trace[:OBS_TRACED_REQUESTS]
    _, sub_wall = _timed(lambda: simulate_trace(sub, config))
    tracer = RecordingTracer("full")
    _, traced_wall = _timed(lambda: simulate_trace(sub, config, tracer=tracer))

    span_trace = generate_trace(TraceSpec(num_requests=TRACE_REQUESTS, seed=0))
    with engine_spans() as recorder:
        # Looked up on the module, so the driver's shim is the root span.
        driver.simulate_trace(span_trace, ServingConfig(model="gpt-1.3b"))
    return {
        "requests": SCALING_REQUESTS,
        "overhead_reps": OBS_OVERHEAD_REPS,
        "disabled_wall_s": statistics.median(walls["disabled"]),
        "untraced_wall_s": statistics.median(walls["untraced"]),
        "disabled_overhead_ratio": statistics.median(ratios),
        "disabled_overhead_ratios": ratios,
        "disabled_tracer_calls": disabled_calls,
        "disabled_identical": observed["disabled"] == observed["untraced"],
        "traced_requests": OBS_TRACED_REQUESTS,
        "traced_wall_s": traced_wall,
        "traced_untraced_wall_s": sub_wall,
        "traced_overhead_ratio": traced_wall / sub_wall if sub_wall else 0.0,
        "traced_events": len(tracer.events),
        "spans": span_layers(recorder),
    }


def bench_results_path() -> dict:
    """Host wall of the results path on the 100k scaling result.

    Times the stages the serving CLI runs after the simulation —
    ``metrics_table``, ``summary``, ``record_rows``, ``trace_rows`` and
    ``write_json`` of the payload they make — in turn, for
    :data:`RESULTS_PATH_REPS` reps, and reports each stage's median,
    so a regression in the output path names its stage.
    """
    from repro.experiments.io import write_json
    from repro.serving import generate_trace, simulate_trace, trace_rows
    from repro.serving.metrics import metrics_table, record_rows, summary

    spec, config = _scaling_run()
    trace = generate_trace(spec)
    result = simulate_trace(trace, config)
    payload = {
        "summary": summary(result),
        "metrics": metrics_table(result),
        "requests": record_rows(result),
        "trace": trace_rows(trace),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        stages = {
            "metrics_table": lambda: metrics_table(result),
            "summary": lambda: summary(result),
            "record_rows": lambda: record_rows(result),
            "trace_rows": lambda: trace_rows(trace),
            "write_json": lambda: write_json(path, payload),
        }
        samples = {name: [] for name in stages}
        for _ in range(RESULTS_PATH_REPS):
            for name, stage in stages.items():
                samples[name].append(_timed(stage)[1])
        export_bytes = os.path.getsize(path)
    medians = {name: statistics.median(walls)
               for name, walls in samples.items()}
    return {
        "requests": SCALING_REQUESTS,
        "reps": RESULTS_PATH_REPS,
        "stages_s": medians,
        "samples_s": samples,
        "total_s": sum(medians.values()),
        "wall_budget_s": RESULTS_PATH_BUDGET_S,
        "export_bytes": export_bytes,
    }


def bench_prefix_cache() -> dict:
    """KV prefix cache on vs off over a conversational session trace.

    Many multi-turn sessions share a small system-prompt pool and carry
    their context forward, so most admissions can resume from a cached
    prefix.  Both runs serve the identical trace; the cache run must
    complete the same request set with a no-worse p95 TTFT, and the
    hit-rate/dedup numbers quantify how much prefill work and MRAM the
    shared prefixes saved.
    """
    import dataclasses

    from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_trace, summary

    spec = TraceSpec(
        num_requests=CACHE_REQUESTS, seed=0, scenario="conversational",
        arrival_rate_per_s=4.0,
        prompt_mean=64.0, prompt_sigma=0.8, prompt_max=128,
        gen_mean=32.0, gen_max=64,
        sessions=320, turns_mean=7.0, turns_max=8, think_time_mean_s=20.0,
        system_prompt_pool=8, system_prompt_tokens=128,
    )
    trace, trace_wall = _timed(lambda: generate_trace(spec))
    config = ServingConfig(model="gpt-350m", num_ranks=4, max_batch=16)
    off_result, off_wall = _timed(lambda: simulate_trace(trace, config))
    on_result, on_wall = _timed(lambda: simulate_trace(
        trace, dataclasses.replace(config, prefix_cache=True)
    ))
    on, off = summary(on_result), summary(off_result)
    return {
        "requests": CACHE_REQUESTS,
        "sessions": spec.sessions,
        "trace_wall_s": trace_wall,
        "off_wall_s": off_wall,
        "on_wall_s": on_wall,
        "completed_off": off["completed"],
        "completed_on": on["completed"],
        "cache_hit_rate": on["cache_hit_rate"],
        "cache_hit_rate_floor": CACHE_HIT_RATE_FLOOR,
        "cache_hit_tokens": on["cache_hit_tokens"],
        "cache_evictions": on["cache_evictions"],
        "kv_dedup_factor": on["kv_dedup_factor"],
        "ttft_p50_off_s": off["ttft_p50_s"],
        "ttft_p50_on_s": on["ttft_p50_s"],
        "ttft_p95_off_s": off["ttft_p95_s"],
        "ttft_p95_on_s": on["ttft_p95_s"],
        "ttft_p95_speedup": (
            off["ttft_p95_s"] / on["ttft_p95_s"] if on["ttft_p95_s"] else 0.0
        ),
    }


def bench_policies() -> dict:
    """All scheduling policies on one bursty long-prefill trace.

    The scenario is sized so prefills dominate (long log-normal prompts,
    short generations) and arrivals come in MMPP bursts — the regime
    where chunked prefill's decode interleaving pays off in tail TTFT.
    """
    from repro.experiments.tables import policy_table
    from repro.serving import (
        POLICIES, ServingConfig, TraceSpec, generate_trace, simulate_trace,
        summary,
    )

    spec = TraceSpec(
        num_requests=POLICY_REQUESTS, seed=0, scenario="bursty",
        arrival_rate_per_s=1.0, burst_rate_multiplier=10.0,
        burst_dwell_s=4.0, calm_dwell_s=12.0,
        prompt_mean=448.0, prompt_sigma=0.8, prompt_max=1024,
        gen_mean=32.0, gen_max=128,
        priority_weights=(0.2, 0.8), slo_ttft_s=(600.0, 3600.0),
    )
    trace = generate_trace(spec)
    summaries = []
    walls = {}
    for name in sorted(POLICIES):
        config = ServingConfig(model="gpt-350m", num_ranks=4, max_batch=16,
                               policy=name, prefill_chunk_tokens=32)
        result, wall = _timed(lambda: simulate_trace(trace, config))
        walls[name] = wall
        row = summary(result)
        row["scenario"] = spec.scenario
        summaries.append(row)
    table = policy_table(summaries)
    by_policy = {row["policy"]: row for row in table}
    fcfs, chunked = by_policy["fcfs"], by_policy["chunked_prefill"]
    return {
        "requests": POLICY_REQUESTS,
        "scenario": spec.scenario,
        "wall_s": walls,
        "table": table,
        "chunked_vs_fcfs_ttft_p95_speedup": (
            fcfs["ttft_p95_s"] / chunked["ttft_p95_s"]
            if chunked["ttft_p95_s"] else 0.0
        ),
        "chunked_completed_delta": chunked["completed"] - fcfs["completed"],
    }


def _cluster_deployments():
    """Eight heterogeneous deployments in two model tiers."""
    from repro.serving import Deployment, ServingConfig

    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2),
                   name=f"small-{i}", tier=0)
        for i in range(4)
    ] + [
        Deployment(ServingConfig(model="gpt-350m", num_ranks=2),
                   name=f"mid-{i}", tier=1)
        for i in range(4)
    ]


def bench_cluster() -> dict:
    """Multi-deployment cluster serving: scale, routers, autoscaling.

    Three measurements: (a) the headline 1M-request bursty trace routed
    round-robin across eight heterogeneous deployments (two model
    tiers, sixteen rank replicas) under a 300 s wall budget; (b) a
    100k-request router comparison (round_robin / least_kv / p2c) on
    the same deployment mix; (c) a 100k-request autoscaled run whose
    queue-driven controller must produce scale events, each scale-up
    charged as a weight broadcast.  Every run must conserve requests —
    a record for each trace entry, completed or rejected, none lost.
    """
    from repro.serving import (
        Autoscaler, AutoscalerConfig, TraceSpec, cluster_summary,
        generate_trace, simulate_cluster,
    )

    spec = TraceSpec(
        num_requests=CLUSTER_REQUESTS, seed=0, scenario="bursty",
        arrival_rate_per_s=64.0, burst_rate_multiplier=8.0,
    )
    trace, trace_wall = _timed(lambda: generate_trace(spec))
    deployments = _cluster_deployments()
    result, wall = _timed(
        lambda: simulate_cluster(trace, deployments, router="round_robin")
    )
    flat = cluster_summary(result)

    sub = trace[:CLUSTER_ROUTER_REQUESTS]
    comparison = []
    for router in ("round_robin", "least_kv", "p2c"):
        sub_result, sub_wall = _timed(
            lambda: simulate_cluster(sub, _cluster_deployments(),
                                     router=router)
        )
        row = cluster_summary(sub_result)
        comparison.append({
            "router": router,
            "requests": len(sub),
            "lost": len(sub) - sub_result.requests,
            "completed": row["completed"],
            "rejected": row["rejected"],
            "ttft_p50_s": row["ttft_p50_s"],
            "ttft_p95_s": row["ttft_p95_s"],
            "latency_p95_s": row["latency_p95_s"],
            "simulated_makespan_s": row["makespan_s"],
            "wall_s": sub_wall,
        })

    scaler = Autoscaler(AutoscalerConfig(
        max_replicas=4, queue_high=8.0, queue_low=1.0, interval_s=30.0,
    ))
    auto_trace = trace[:CLUSTER_AUTOSCALE_REQUESTS]
    auto_result, auto_wall = _timed(
        lambda: simulate_cluster(auto_trace, _cluster_deployments(),
                                 router="round_robin", autoscaler=scaler)
    )
    auto = cluster_summary(auto_result)

    return {
        "requests": CLUSTER_REQUESTS,
        "deployments": len(result.deployments),
        "replicas": flat["replicas"],
        "router": "round_robin",
        "trace_wall_s": trace_wall,
        "wall_s": wall,
        "wall_budget_s": CLUSTER_BUDGET_S,
        "lost": CLUSTER_REQUESTS - result.requests,
        "completed": flat["completed"],
        "rejected": flat["rejected"],
        "simulated_makespan_s": flat["makespan_s"],
        "simulated_output_tokens": flat["output_tokens"],
        "requests_per_wall_s": CLUSTER_REQUESTS / wall if wall else 0.0,
        "router_comparison": comparison,
        "autoscale": {
            "requests": len(auto_trace),
            "lost": len(auto_trace) - auto_result.requests,
            "completed": auto["completed"],
            "wall_s": auto_wall,
            "scale_events": auto["scale_events"],
            "scale_ups": auto["scale_ups"],
            "scale_downs": auto["scale_downs"],
            "replicas_peak": auto["replicas_peak"],
            "cold_start_s": auto["cold_start_s"],
            "cold_start_bytes": auto["cold_start_bytes"],
        },
    }


def bench_faults() -> dict:
    """Fault-tolerance entry: chaos run vs fault-free on the same trace.

    Serves the identical bursty trace four ways on the heterogeneous
    deployment mix: (a) fault-free, (b) with an explicitly *empty*
    :class:`FaultPlan` and (c) with a plan whose crash and stall sit at
    10x the fault-free makespan, so they never fire (the backlog drains
    long after the last arrival, so a time past the arrival horizon
    alone can still fire mid-drain) — both must leave every
    record and the makespan identical, the bit-identity contract the
    goldens pin — and (d) under a seeded chaos plan (replica crashes
    plus stall windows) with retries and an autoscaler replacing the
    corpses.  The ``--check`` gate requires request conservation, both
    identities, and chaos-run
    goodput (completed requests) of at least
    ``FAULT_GOODPUT_FLOOR`` x the fault-free completed count — the
    recovery loop must actually recover, not merely account for losses.
    """
    from repro.serving import (
        Autoscaler, AutoscalerConfig, FaultPlan, FaultSpec, RetryPolicy,
        TraceSpec, cluster_summary, generate_trace, simulate_cluster,
    )

    spec = TraceSpec(
        num_requests=FAULT_REQUESTS, seed=0, scenario="bursty",
        arrival_rate_per_s=64.0, burst_rate_multiplier=8.0,
    )
    trace, trace_wall = _timed(lambda: generate_trace(spec))
    base_result, base_wall = _timed(
        lambda: simulate_cluster(trace, _cluster_deployments(),
                                 router="round_robin")
    )
    horizon = max(r.arrival_s for r in trace)

    def identical_to_base(plan) -> bool:
        result = simulate_cluster(
            trace, _cluster_deployments(), router="round_robin", faults=plan,
        )
        return result.makespan_s == base_result.makespan_s and [
            (r.req_id, r.status, r.first_token_s, r.finish_s)
            for r in result.records
        ] == [
            (r.req_id, r.status, r.first_token_s, r.finish_s)
            for r in base_result.records
        ]

    identical = identical_to_base(FaultPlan())
    late = 10 * base_result.makespan_s
    never_firing_identical = identical_to_base(FaultPlan((
        FaultSpec("crash", 0, late), FaultSpec("stall", 1, late, 2.0),
    )))

    total_ranks = sum(
        d.config.num_ranks for d in _cluster_deployments()
    )
    plan = FaultPlan.sample(
        seed=7, ranks=range(total_ranks), horizon_s=horizon,
        crash_rate=0.25, stall_s=2.0,
    )
    scaler = Autoscaler(AutoscalerConfig(
        max_replicas=4, queue_high=8.0, queue_low=1.0, interval_s=10.0,
    ))
    fault_result, fault_wall = _timed(
        lambda: simulate_cluster(
            trace, _cluster_deployments(), router="round_robin",
            autoscaler=scaler, faults=plan,
            retry_policy=RetryPolicy(max_retries=3),
        )
    )
    flat = cluster_summary(fault_result)
    base = cluster_summary(base_result)
    return {
        "requests": FAULT_REQUESTS,
        "trace_wall_s": trace_wall,
        "base_wall_s": base_wall,
        "fault_wall_s": fault_wall,
        "fault_wall_budget_s": FAULT_BUDGET_S,
        "empty_plan_identical": identical,
        "never_firing_plan_identical": never_firing_identical,
        "crashes": flat["crashes"],
        "stalls": flat["stalls"],
        "replacements": flat["replacements"],
        "retries": flat["retries"],
        "failovers": flat["failovers"],
        "lost": FAULT_REQUESTS - fault_result.requests,
        "base_completed": base["completed"],
        "completed": flat["completed"],
        "failed": flat["failed"],
        "goodput_ratio": (
            flat["completed"] / base["completed"]
            if base["completed"] else 0.0
        ),
        "goodput_floor": FAULT_GOODPUT_FLOOR,
        "goodput_tokens_per_s": flat["goodput_tokens_per_s"],
        "unavailability_s": flat["unavailability_s"],
        "recovery_time_s": flat["recovery_time_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_serving.json", metavar="PATH")
    parser.add_argument("--check", action="store_true",
                        help="fail if the trace simulation misses its budget")
    args = parser.parse_args(argv)

    payload = {
        "meta": environment_meta(),
        "sweep": bench_sweep(),
        "decode": bench_decode_methods(),
        "serving": bench_serving(),
        "engines": bench_engines(),
        "wide": bench_wide(),
        "batch_width": bench_batch_width(),
        "scaling": bench_scaling(),
        "observability": bench_observability(),
        "results_path": bench_results_path(),
        "policies": bench_policies(),
        "prefix_cache": bench_prefix_cache(),
        "cluster": bench_cluster(),
        "faults": bench_faults(),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    serving = payload["serving"]
    decode = payload["decode"]
    engines = payload["engines"]
    wide = payload["wide"]
    scaling = payload["scaling"]
    obs = payload["observability"]
    results = payload["results_path"]
    policies = payload["policies"]
    cache = payload["prefix_cache"]
    cluster = payload["cluster"]
    print(f"sweep: {payload['sweep']['wall_s']:.3f} s "
          f"({payload['sweep']['grid_points']} point(s))")
    print(f"decode closed-form: {decode['closed_form_wall_s']*1e3:.1f} ms "
          f"vs loop {decode['loop_wall_s']*1e3:.1f} ms "
          f"({decode['speedup']:.1f}x)")
    print(f"serving: {serving['requests']} requests in {serving['wall_s']:.3f} s "
          f"wall ({serving['simulated_tokens_per_s']:.1f} simulated tok/s)")
    print(f"engines (long generation): event {engines['event_wall_s']:.3f} s "
          f"vs loop {engines['loop_wall_s']:.3f} s "
          f"({engines['speedup']:.1f}x)")
    print(f"wide: {wide['requests']} requests in {wide['wall_s']:.2f} s wall "
          f"({wide['e2e_wall_s']:.2f} s with trace generation) "
          f"({wide['requests_per_wall_s']:.0f} requests/s, mean batch "
          f"{wide['mean_batch']:.0f})")
    width = payload["batch_width"]
    print("batch width (event / per-request / packed wall s): " + "; ".join(
        f"{row['max_batch']}: {row['event_wall_s']:.2f} / "
        f"{row['per_request_wall_s']:.2f} / {row['packed_wall_s']:.2f}"
        for row in width["rows"]
    ) + f" (bulk from {width['packed_min_batch']})")
    print(f"scaling: {scaling['requests']} bursty requests in "
          f"{scaling['wall_s']:.1f} s wall "
          f"({scaling['requests_per_wall_s']:.0f} requests/s)")
    print(f"observability: disabled tracer {obs['disabled_overhead_ratio']:.3f}x "
          f"untraced at {obs['requests']} requests; full recording "
          f"{obs['traced_overhead_ratio']:.2f}x at {obs['traced_requests']} "
          f"({obs['traced_events']} events)")
    print(f"results path: {results['total_s']:.2f} s at "
          f"{results['requests']} requests (" + ", ".join(
              f"{name} {wall:.3f}" for name, wall
              in results["stages_s"].items()) + ")")
    print(f"policies ({policies['scenario']} long-prefill): chunked_prefill "
          f"p95 TTFT {policies['chunked_vs_fcfs_ttft_p95_speedup']:.3f}x vs fcfs")
    print(f"prefix cache: hit rate {cache['cache_hit_rate']:.3f}, dedup "
          f"{cache['kv_dedup_factor']:.2f}x, p95 TTFT "
          f"{cache['ttft_p95_speedup']:.3f}x vs cache-off at "
          f"{cache['requests']} conversational requests")
    print(f"cluster: {cluster['requests']} requests across "
          f"{cluster['deployments']} deployments in {cluster['wall_s']:.1f} s "
          f"wall ({cluster['requests_per_wall_s']:.0f} requests/s); "
          f"autoscale {cluster['autoscale']['scale_events']} scale event(s)")
    faults = payload["faults"]
    print(f"faults: {faults['crashes']} crash(es) + {faults['stalls']} "
          f"stall(s) over {faults['requests']} requests; "
          f"{faults['retries']} retries, {faults['replacements']} "
          f"replacement(s), goodput {faults['goodput_ratio']:.3f}x "
          f"fault-free (floor {faults['goodput_floor']}) in "
          f"{faults['fault_wall_s']:.1f} s wall")
    print(f"wrote {args.output}")

    if args.check:
        if serving["wall_s"] > TRACE_BUDGET_S:
            print(
                f"FAIL: {serving['requests']}-request trace took "
                f"{serving['wall_s']:.2f} s (> {TRACE_BUDGET_S} s budget)",
                file=sys.stderr,
            )
            return 1
        if not engines["tokens_match"]:
            print(
                f"FAIL: event engine generated {engines['output_tokens']} "
                f"tokens vs the loop engine's "
                f"{engines['loop_output_tokens']} on the same trace",
                file=sys.stderr,
            )
            return 1
        if engines["speedup"] < ENGINE_SPEEDUP_FLOOR:
            print(
                f"FAIL: event engine is only {engines['speedup']:.1f}x the "
                f"loop engine at {engines['requests']} requests "
                f"(floor {ENGINE_SPEEDUP_FLOOR}x)",
                file=sys.stderr,
            )
            return 1
        if wide["lost"] != 0:
            print(
                f"FAIL: the event engine lost {wide['lost']} request(s) at "
                f"{wide['requests']} wide-batch requests (every trace entry "
                f"must produce a record)",
                file=sys.stderr,
            )
            return 1
        if wide["wall_s"] > WIDE_BUDGET_S:
            print(
                f"FAIL: the event engine took {wide['wall_s']:.1f} s for "
                f"{wide['requests']} wide-batch requests "
                f"(> {WIDE_BUDGET_S} s budget)",
                file=sys.stderr,
            )
            return 1
        if wide["e2e_wall_s"] > WIDE_BUDGET_S:
            print(
                f"FAIL: generating and simulating {wide['requests']} "
                f"wide-batch requests took {wide['e2e_wall_s']:.1f} s "
                f"(> {WIDE_BUDGET_S} s budget)",
                file=sys.stderr,
            )
            return 1
        if scaling["wall_s"] > SCALING_BUDGET_S:
            print(
                f"FAIL: {scaling['requests']}-request scaling trace took "
                f"{scaling['wall_s']:.1f} s (> {SCALING_BUDGET_S} s budget)",
                file=sys.stderr,
            )
            return 1
        if obs["disabled_tracer_calls"] or not obs["disabled_identical"]:
            print(
                f"FAIL: a disabled tracer on the {obs['requests']}-request "
                f"run received {obs['disabled_tracer_calls']} hook call(s) "
                f"(expected 0); records and rank stats identical to the "
                f"untraced run: {obs['disabled_identical']}",
                file=sys.stderr,
            )
            return 1
        if results["total_s"] > RESULTS_PATH_BUDGET_S:
            print(
                f"FAIL: the results path of the {results['requests']}-"
                f"request scaling result took {results['total_s']:.2f} s "
                f"(> {RESULTS_PATH_BUDGET_S} s budget); stages: " + ", ".join(
                    f"{name} {wall:.3f} s" for name, wall
                    in results["stages_s"].items()),
                file=sys.stderr,
            )
            return 1
        if policies["chunked_vs_fcfs_ttft_p95_speedup"] < 1.0:
            print(
                f"FAIL: chunked_prefill p95 TTFT is "
                f"{policies['chunked_vs_fcfs_ttft_p95_speedup']:.3f}x fcfs "
                f"(expected >= 1.0) on the bursty long-prefill scenario",
                file=sys.stderr,
            )
            return 1
        if policies["chunked_completed_delta"] < 0:
            print(
                f"FAIL: chunked_prefill dropped "
                f"{-policies['chunked_completed_delta']} completed request(s) "
                f"vs fcfs",
                file=sys.stderr,
            )
            return 1
        if cache["cache_hit_rate"] < CACHE_HIT_RATE_FLOOR:
            print(
                f"FAIL: prefix-cache hit rate {cache['cache_hit_rate']:.3f} "
                f"is below the {CACHE_HIT_RATE_FLOOR} floor on the "
                f"conversational trace",
                file=sys.stderr,
            )
            return 1
        if cache["ttft_p95_on_s"] > cache["ttft_p95_off_s"] + 1e-9:
            print(
                f"FAIL: prefix cache worsened p95 TTFT "
                f"({cache['ttft_p95_on_s']:.3f} s on vs "
                f"{cache['ttft_p95_off_s']:.3f} s off)",
                file=sys.stderr,
            )
            return 1
        if cache["completed_on"] != cache["completed_off"]:
            print(
                f"FAIL: prefix cache changed the completed set "
                f"({cache['completed_on']} on vs {cache['completed_off']} off)",
                file=sys.stderr,
            )
            return 1
        if cluster["wall_s"] > CLUSTER_BUDGET_S:
            print(
                f"FAIL: {cluster['requests']}-request cluster trace took "
                f"{cluster['wall_s']:.1f} s (> {CLUSTER_BUDGET_S} s budget)",
                file=sys.stderr,
            )
            return 1
        lost_runs = [("headline", cluster["lost"])] + [
            (row["router"], row["lost"])
            for row in cluster["router_comparison"]
        ] + [("autoscale", cluster["autoscale"]["lost"])]
        for run, lost in lost_runs:
            if lost != 0:
                print(
                    f"FAIL: cluster run {run!r} lost {lost} request(s) "
                    f"(every trace entry must produce a record)",
                    file=sys.stderr,
                )
                return 1
        if cluster["autoscale"]["scale_events"] == 0:
            print(
                "FAIL: the autoscaled cluster run produced no scale events",
                file=sys.stderr,
            )
            return 1
        if not faults["empty_plan_identical"]:
            print(
                "FAIL: an empty FaultPlan changed the fault-free cluster "
                "run (must be bit-identical to passing no plan at all)",
                file=sys.stderr,
            )
            return 1
        if not faults["never_firing_plan_identical"]:
            print(
                "FAIL: a FaultPlan whose crash and stall lie past the "
                "fault-free makespan changed the cluster run (must be "
                "bit-identical to passing no plan at all)",
                file=sys.stderr,
            )
            return 1
        if faults["lost"] != 0:
            print(
                f"FAIL: the chaos run lost {faults['lost']} request(s) — "
                f"completed + rejected + failed must equal the trace size",
                file=sys.stderr,
            )
            return 1
        if faults["crashes"] == 0:
            print(
                "FAIL: the chaos plan scheduled no crashes (the gate is "
                "vacuous without injected faults)",
                file=sys.stderr,
            )
            return 1
        if faults["completed"] < faults["goodput_floor"] * faults["base_completed"]:
            print(
                f"FAIL: chaos-run goodput {faults['completed']} completed "
                f"is below {faults['goodput_floor']} x the fault-free "
                f"{faults['base_completed']} (ratio "
                f"{faults['goodput_ratio']:.3f})",
                file=sys.stderr,
            )
            return 1
        if faults["fault_wall_s"] > faults["fault_wall_budget_s"]:
            print(
                f"FAIL: the {faults['requests']}-request chaos run took "
                f"{faults['fault_wall_s']:.1f} s "
                f"(> {faults['fault_wall_budget_s']} s budget)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
