"""Benchmark orchestration: untraced end-to-end runs and traced layer runs.

:func:`measure` gives the end-to-end metrics from untraced passes;
:func:`trace_layers` gives the per-layer metrics from passes run under
the :mod:`spans` shims, alternated with untraced passes so the tracing
overhead is measured on the same warm process.  Every pass is checked
(:func:`workloads.check`) and its simulated outputs must equal the
first pass's, or it counts as failed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import RecordingTracer, chrome_trace, validate_chrome_trace
from repro.obs.replay import replay_fault_counters
from repro.serving.cluster import simulate_cluster
from repro.serving.metrics import cluster_summary
from repro.serving.trace import generate_trace

import hostref
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Fresh processes per run, each giving one ``setup_s`` and one
#: ``cold_wall_s`` sample (the run reports their medians).
PROBES = 5
#: Fewest timed passes of each kind per run, whatever ``--seconds`` says.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 150

#: ``name -> unit`` for the end-to-end metrics an untraced run reports.
#: The times are normalised to the reference host (:mod:`hostref`); the
#: ``raw_*`` ones and ``host_ref_s`` are the unnormalised medians.
END_TO_END = {
    "setup_s": "s",
    "cold_wall_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "raw_setup_s": "s",
    "raw_cold_wall_s": "s",
    "raw_wall_s": "s",
    "host_ref_s": "s",
}

#: Span layer -> (calls metric or None, self-seconds metric).
LAYER_SPANS = {
    "trace.gen": (None, "trace.gen_s"),
    "trace.rows": (None, "trace.rows_s"),
    "engine": (None, "engine.s"),
    "engine.driver": (None, "engine.driver_s"),
    "cost.fill": ("cost.fill_calls", "cost.fill_s"),
    "routing.select": ("routing.select_calls", "routing.select_s"),
    "routing.probe": ("routing.probe_calls", "routing.probe_s"),
    "autoscale.control": ("autoscale.control_calls", "autoscale.control_s"),
    "cluster.loop": (None, "cluster.loop_s"),
    "metrics": (None, "metrics.s"),
    "metrics.rows": (None, "metrics.rows_s"),
    "export.json": (None, "export.json_s"),
    "pass": (None, "span.glue_s"),
}

#: ``name -> unit`` for every per-layer metric a traced run reports.
PER_LAYER = {
    "trace.gen_s": "s",
    "trace.rows_s": "s",
    "engine.s": "s",
    "engine.driver_s": "s",
    "engine.decode_iterations": "count",
    "engine.mean_batch": "requests",
    "engine.host_us_per_iteration": "us",
    "engine.prefill_tokens": "tokens",
    "engine.preemptions": "count",
    "engine.rejected": "count",
    "cost.fill_calls": "count",
    "cost.fill_s": "s",
    "cost.cold_fill_s": "s",
    "cache.hit_rate": "ratio",
    "cache.hit_tokens": "tokens",
    "cache.evictions": "count",
    "routing.select_calls": "count",
    "routing.select_s": "s",
    "routing.probe_calls": "count",
    "routing.probe_s": "s",
    "autoscale.control_calls": "count",
    "autoscale.control_s": "s",
    "autoscale.scale_events": "count",
    "autoscale.replacements": "count",
    "cluster.loop_s": "s",
    "faults.crashes": "count",
    "faults.stalls": "count",
    "faults.retries": "count",
    "faults.failovers": "count",
    "faults.failed": "count",
    "metrics.s": "s",
    "metrics.rows_s": "s",
    "export.json_s": "s",
    "export.bytes": "bytes",
    "obs.record_s": "s",
    "obs.events": "count",
    "obs.chrome_export_s": "s",
    "span.traced_wall_s": "s",
    "span.untraced_wall_s": "s",
    "span.overhead_s": "s",
    "span.glue_s": "s",
}


class PassLog:
    """Attempted / failed pass counts and the first pass's sim digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sim: Optional[dict] = None

    def record(self, failures: List[str], sim: Optional[dict]) -> bool:
        """Count one pass; returns True when it passed every check."""
        failures = list(failures)
        if sim is not None:
            if self.sim is None:
                self.sim = sim
            elif sim != self.sim:
                failures.append("simulated outputs differ from the first pass")
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)
        return not failures


def _work_path(work_dir: str, workload: workloads.Workload, tag: str) -> str:
    return os.path.join(work_dir, f"{workload.name}-{os.getpid()}-{tag}.json")


def _run_pass(workload, setup, out_path, log: PassLog,
              recorder: Optional[spans.SpanRecorder] = None,
              sampler: Optional[hostref.HostSampler] = None):
    """One checked pass; ``(wall_s, counters)`` or ``None`` on failure.

    With a ``recorder`` the pass runs under the span shims, inside one
    root ``pass`` span whose self time is the pipeline's own glue.  With
    a ``sampler`` (untraced only) the host is sampled during the timed
    pass.  The previous pass's garbage is collected first, outside the
    timing, so every pass starts from a heap like a fresh process's.
    """
    gc.collect()
    try:
        if recorder is None:
            with sampler or contextlib.nullcontext():
                start = perf_counter()
                out = workloads.run_pass(workload, setup, out_path)
                wall = perf_counter() - start
        else:
            with spans.recording(recorder), recorder.span("pass") as root:
                out = workloads.run_pass(workload, setup, out_path)
            wall = recorder.ends[root] - recorder.starts[root]
    except Exception:  # a pass that raises is a counted failure
        traceback.print_exc(file=sys.stderr)
        log.record(["pass raised; traceback on stderr"], None)
        return None
    layer = workloads.counters(out)
    if not log.record(workloads.check(workload, out, layer),
                      workloads.sim_digest(out)):
        return None
    return wall, layer


def _probe(workload, seed: int, requests: int, out_path: str,
           log: PassLog) -> Optional[dict]:
    """One fresh-process probe; its report dict or ``None``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload.name,
         str(seed), str(requests), out_path],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        log.record([f"probe exited {proc.returncode}"], None)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not log.record(report["failures"], report["sim"]):
        return None
    return report


def _median(values: List[float]) -> float:
    """Median, or 0.0 when every pass of the kind failed."""
    return statistics.median(values) if values else 0.0


def measure(workload: workloads.Workload, seed: int, seconds: float,
            work_dir: str, requests: Optional[int] = None,
            probes: int = PROBES) -> Tuple[Dict[str, float], PassLog, dict]:
    """End-to-end metrics from untraced passes.

    One untimed warm-up pass fills the process-wide caches.  The next
    ``seconds`` are split into ``probes`` equal slots; each starts with
    a fresh-process probe (one ``setup_s`` and one ``cold_wall_s``
    sample) and fills the rest with warm passes (at least
    :data:`MIN_PASSES` in all).  Every timed span is sampled by a
    :class:`hostref.HostSampler` and normalised by it; the raw medians
    are reported too.  Returns the metrics, the pass log and the raw
    samples.
    """
    requests = requests or workload.requests
    log = PassLog()
    out_path = _work_path(work_dir, workload, "pass")
    setup = workload.build(seed, requests)
    _run_pass(workload, setup, out_path, log)
    samples: Dict[str, List[float]] = {
        key: [] for key in ("setup_s", "cold_wall_s", "wall_s", "raw_setup_s",
                            "raw_cold_wall_s", "raw_wall_s", "host_ref_s")
    }
    sampler = hostref.HostSampler()
    tries = 0
    start = perf_counter()
    for index in range(probes):
        report = _probe(workload, seed, requests, out_path, log)
        if report is not None:
            for key in ("setup_s", "cold_wall_s", "raw_setup_s",
                        "raw_cold_wall_s"):
                samples[key].append(report[key])
        slot_end = start + (index + 1) * seconds / probes
        while (perf_counter() < slot_end
               or (index == probes - 1 and tries < MIN_PASSES)):
            tries += 1
            done = _run_pass(workload, workload.fresh(setup), out_path, log,
                             sampler=sampler)
            if done is not None:
                raw, normalised = sampler.normalise(done[0])
                samples["raw_wall_s"].append(raw)
                samples["wall_s"].append(normalised)
                samples["host_ref_s"].extend(sampler.samples)
    metrics = {key: _median(values) for key, values in samples.items()}
    wall = metrics["wall_s"]
    metrics.update({
        "requests_per_s": requests / wall if wall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "error_rate": log.failed / log.attempted,
    })
    return {key: metrics[key] for key in END_TO_END}, log, samples


def _clear_process_caches() -> None:
    """Empty every ``functools.lru_cache`` in the ``repro`` package."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _layer_metrics(recorder: spans.SpanRecorder, wall: float,
                   layer: Dict[str, float]) -> Dict[str, float]:
    totals = recorder.layer_totals()
    metrics: Dict[str, float] = {"span.traced_wall_s": wall}
    for name, (calls_metric, secs_metric) in LAYER_SPANS.items():
        count, secs = totals.get(name, (0, 0.0))
        metrics[secs_metric] = secs
        if calls_metric is not None:
            metrics[calls_metric] = count
    metrics.update(layer)
    iterations = layer["engine.decode_iterations"]
    metrics["engine.host_us_per_iteration"] = (
        1e6 * metrics["engine.s"] / iterations if iterations else 0.0
    )
    return metrics


def _obs_run(workload: workloads.Workload, seed: int, requests: int,
             log: PassLog) -> Dict[str, float]:
    """Recorded cluster run: Chrome export, schema and replay checks."""
    setup = workload.build(seed, requests)
    trace = generate_trace(setup.spec)
    options = workload.cluster_options(trace, seed)
    tracer = RecordingTracer("full")
    start = perf_counter()
    result = simulate_cluster(trace, setup.deployments, tracer=tracer,
                              **options)
    record_s = perf_counter() - start
    start = perf_counter()
    doc = chrome_trace(tracer.events, tracer.registry)
    export_s = perf_counter() - start
    failures = []
    try:
        validate_chrome_trace(doc)
    except ValueError as exc:
        failures.append(f"chrome trace invalid: {exc}")
    replayed = replay_fault_counters(tracer.events)
    flat = cluster_summary(result)
    for key in ("crashes", "retries", "failovers", "shed", "replacements"):
        if replayed[key] != flat[key]:
            failures.append(
                f"replayed {key} {replayed[key]} != cluster_summary "
                f"{flat[key]}"
            )
    # A stall window that never meets a busy step (idle or already dead
    # replica) is scheduled, so cluster_summary counts it, but leaves no
    # trace event; only the observed ones can be replayed.
    if replayed["stalls"] > flat["stalls"]:
        failures.append(
            f"replayed stalls {replayed['stalls']} > scheduled "
            f"{flat['stalls']}"
        )
    log.record(failures, None)
    return {"obs.record_s": record_s, "obs.events": len(tracer.events),
            "obs.chrome_export_s": export_s}


def trace_layers(workload: workloads.Workload, seed: int, seconds: float,
                 work_dir: str, requests: Optional[int] = None
                 ) -> Tuple[Dict[str, float], PassLog, dict]:
    """Per-layer metrics from traced passes.

    The first traced pass runs with the process-wide caches empty and
    gives ``cost.cold_fill_s``; then untraced and traced warm passes
    alternate for ``seconds`` (at least :data:`MIN_PASSES` of each), and
    every per-layer metric is the median over the traced warm passes.
    Workloads with ``recorded_subrun`` add the ``obs`` sub-run.
    """
    requests = requests or workload.requests
    log = PassLog()
    out_path = _work_path(work_dir, workload, "pass")
    setup = workload.build(seed, requests)
    _clear_process_caches()
    recorder = spans.SpanRecorder()
    _run_pass(workload, setup, out_path, log, recorder)
    cold_fill = recorder.layer_totals().get("cost.fill", (0, 0.0))[1]
    traced: List[Dict[str, float]] = []
    untraced: List[float] = []
    start = perf_counter()
    tries = 0
    while tries < MIN_PASSES or perf_counter() - start < seconds:
        tries += 1
        done = _run_pass(workload, workload.fresh(setup), out_path, log)
        if done is not None:
            untraced.append(done[0])
        recorder = spans.SpanRecorder()
        done = _run_pass(workload, workload.fresh(setup), out_path, log,
                         recorder)
        if done is not None:
            traced.append(_layer_metrics(recorder, *done))
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in traced[0] if traced else ():
        metrics[name] = _median([m[name] for m in traced])
    metrics["cost.cold_fill_s"] = cold_fill
    metrics["span.untraced_wall_s"] = _median(untraced)
    metrics["span.overhead_s"] = (
        metrics["span.traced_wall_s"] - metrics["span.untraced_wall_s"]
    )
    if workload.recorded_subrun:
        try:
            metrics.update(_obs_run(workload, seed, requests, log))
        except Exception:  # a sub-run that raises is a counted failure
            traceback.print_exc(file=sys.stderr)
            log.record(["recorded sub-run raised; traceback on stderr"], None)
    samples = {"traced_wall_s": [m["span.traced_wall_s"] for m in traced],
               "untraced_wall_s": untraced}
    return metrics, log, samples


def run_meta(workload: workloads.Workload, seed: int,
             requests: Optional[int] = None) -> dict:
    """What was measured: code version, interpreter, host and inputs."""
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            dirty = bool(status.stdout.strip())
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": usable,
        "workload": workload.name,
        "seed": seed,
        "requests": requests or workload.requests,
    }
