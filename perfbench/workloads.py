"""The benchmark's workloads and the serving pipeline pass it times.

A pass runs the same steps as ``python -m repro.serving ... --output
run.json``: ``generate_trace`` -> ``simulate_trace`` /
``simulate_cluster`` -> ``metrics_table`` + ``summary`` (or
``cluster_rows`` + ``cluster_table`` + ``cluster_summary``) ->
``record_rows`` + ``trace_rows`` -> ``write_json``.  Every step is looked
up through its module at call time, so the span shims of
:mod:`spans` see it.  No ``engine=`` is set anywhere: each workload runs
the default engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments import io as exp_io
from repro.experiments import tables as exp_tables
from repro.serving import cluster as serving_cluster
from repro.serving import metrics as serving_metrics
from repro.serving import trace as serving_trace
from repro.serving.autoscale import Autoscaler, AutoscalerConfig
from repro.serving.cluster import Deployment
from repro.serving.engine import driver as engine_driver
from repro.serving.engine.config import ServingConfig
from repro.serving.faults import FaultPlan, RetryPolicy
from repro.serving.trace import TraceSpec

#: ``rank_wide``'s mean decode batch must exceed this many times the
#: ``max_batch=16`` cap that bounds ``cluster_kv``'s.
WIDE_BATCH_FACTOR = 4
NARROW_MAX_BATCH = 16


@dataclass
class Setup:
    """What a workload builds before any trace: configs and deployments."""

    spec: TraceSpec
    config: Optional[ServingConfig]
    deployments: Optional[List[Deployment]]


@dataclass
class PassOutput:
    """Everything one pipeline pass produced."""

    trace: list
    result: object
    summary: dict
    rows: List[dict]
    export_bytes: int


@dataclass(frozen=True)
class Workload:
    """One named input mix and how to serve it."""

    name: str
    requests: int
    spec: Callable[[int, int], TraceSpec]
    mechanisms: Callable[[dict], List[str]]
    config: Optional[ServingConfig] = None
    deployments: Optional[Callable[[], List[Deployment]]] = None
    cluster_options: Optional[Callable[[list, int], dict]] = None
    #: Traced runs add a RecordingTracer sub-run (Chrome export + replay).
    recorded_subrun: bool = False

    @property
    def is_cluster(self) -> bool:
        return self.deployments is not None

    def build(self, seed: int, requests: Optional[int] = None) -> Setup:
        """Configs and a first set of fresh deployments."""
        return Setup(
            spec=self.spec(seed, requests or self.requests),
            config=self.config,
            deployments=self.deployments() if self.is_cluster else None,
        )

    def fresh(self, setup: Setup) -> Setup:
        """``setup`` with new deployments (they hold live engine state)."""
        if not self.is_cluster:
            return setup
        return dataclasses.replace(setup, deployments=self.deployments())


# -- rank_wide ---------------------------------------------------------------

def _wide_spec(seed: int, requests: int) -> TraceSpec:
    return TraceSpec(
        num_requests=requests, seed=seed, scenario="bursty",
        arrival_rate_per_s=256.0, burst_rate_multiplier=8.0,
        prompt_mean=16.0, gen_mean=32.0,
    )


def _wide_mechanisms(counters: dict) -> List[str]:
    floor = WIDE_BATCH_FACTOR * NARROW_MAX_BATCH
    if counters["engine.mean_batch"] <= floor:
        return [f"engine.mean_batch {counters['engine.mean_batch']:.1f} "
                f"<= {floor}: not the wide-batch regime"]
    return []


# -- cluster_kv / cluster_chaos ----------------------------------------------

def _mix(dpus_small: int, dpus_mid: int, **options) -> List[Deployment]:
    """4x gpt-125m (tier 0) + 4x gpt-350m (tier 1), one replica each."""
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                 dpus_per_rank=dpus_small, **options),
                   name=f"small-{i}", tier=0)
        for i in range(4)
    ] + [
        Deployment(ServingConfig(model="gpt-350m", num_ranks=1,
                                 dpus_per_rank=dpus_mid, **options),
                   name=f"mid-{i}", tier=1)
        for i in range(4)
    ]


def _kv_spec(seed: int, requests: int) -> TraceSpec:
    return TraceSpec(
        num_requests=requests, seed=seed, scenario="conversational",
        arrival_rate_per_s=0.01,
        prompt_mean=64.0, prompt_sigma=0.8, prompt_max=128,
        gen_mean=32.0, gen_max=64,
        sessions=max(1, requests // 6), turns_mean=6.0, turns_max=8,
        think_time_mean_s=20.0,
        system_prompt_pool=8, system_prompt_tokens=128,
        priority_weights=(0.3, 0.7), slo_ttft_s=(3600.0, 14400.0),
    )


def _kv_deployments() -> List[Deployment]:
    # Two / four DPUs per replica leave room for ~3300 / ~2300 KV tokens,
    # so sixteen carried conversations overflow it and the prefix cache
    # must evict and the priority policy preempt.
    return _mix(2, 4, policy="priority", prefix_cache=True)


def _kv_options(trace, seed: int) -> dict:
    return {
        "router": "least_kv",
        "autoscaler": Autoscaler(AutoscalerConfig(
            max_replicas=3, queue_high=4.0, queue_low=1.0, interval_s=10.0,
        )),
    }


def _kv_mechanisms(counters: dict) -> List[str]:
    failures = []
    for key in ("cache.evictions", "engine.preemptions",
                "autoscale.scale_events"):
        if counters[key] <= 0:
            failures.append(f"{key} == 0: mechanism did not fire")
    if counters["engine.mean_batch"] > NARROW_MAX_BATCH:
        failures.append(
            f"engine.mean_batch {counters['engine.mean_batch']:.1f} exceeds "
            f"max_batch {NARROW_MAX_BATCH}"
        )
    return failures


def _chaos_spec(seed: int, requests: int) -> TraceSpec:
    return TraceSpec(
        num_requests=requests, seed=seed, scenario="bursty",
        arrival_rate_per_s=0.5, burst_rate_multiplier=8.0,
        priority_weights=(0.5, 0.5), slo_ttft_s=(60.0, 600.0),
    )


def _chaos_deployments() -> List[Deployment]:
    return _mix(64, 64)


#: Crash (and stall) probability per replica in the sampled chaos plan,
#: and the exact crash and stall counts a plan must hold: later fault
#: seeds are tried until one does, so every workload seed exercises
#: recovery and does a comparable amount of it.
CHAOS_CRASH_RATE = 0.5
CHAOS_CRASHES = 3
CHAOS_STALLS = 3


def _chaos_plan(trace, seed: int, ranks: int) -> FaultPlan:
    """The seeded crash + stall plan over the trace's arrival horizon."""
    horizon = max((r.arrival_s for r in trace), default=0.0)
    for attempt in range(1000):
        plan = FaultPlan.sample(
            seed=seed * 1000 + attempt, ranks=range(ranks),
            horizon_s=max(horizon, 1.0), crash_rate=CHAOS_CRASH_RATE,
            stall_s=2.0,
        )
        kinds = [spec.kind for spec in plan.specs]
        if (kinds.count("crash"), kinds.count("stall")) == \
                (CHAOS_CRASHES, CHAOS_STALLS):
            return plan
    raise ValueError(f"no fault plan with {CHAOS_CRASHES} crashes and "
                     f"{CHAOS_STALLS} stalls")


def _chaos_options(trace, seed: int) -> dict:
    return {
        "router": "round_robin",
        "autoscaler": Autoscaler(AutoscalerConfig(
            max_replicas=3, queue_high=8.0, queue_low=1.0, interval_s=10.0,
        )),
        "faults": _chaos_plan(trace, seed, ranks=8),
        "retry_policy": RetryPolicy(max_retries=3, seed=seed),
    }


def _chaos_mechanisms(counters: dict) -> List[str]:
    return [
        f"{key} == 0: mechanism did not fire"
        for key in ("faults.crashes", "faults.retries",
                    "autoscale.replacements")
        if counters[key] <= 0
    ]


#: The workloads by name.  Why each exists, and which layers it stresses,
#: is in README.md and BENCHMARK.json.  Trace lengths keep one pass near
#: 1-1.5 s on a 2-core host, so a run holds enough passes for a median.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="rank_wide",
            requests=15_000,
            spec=_wide_spec,
            config=ServingConfig(model="gpt-125m", num_ranks=1,
                                 dpus_per_rank=256, max_batch=2048),
            mechanisms=_wide_mechanisms,
        ),
        Workload(
            name="cluster_kv",
            requests=7_000,
            spec=_kv_spec,
            deployments=_kv_deployments,
            cluster_options=_kv_options,
            mechanisms=_kv_mechanisms,
        ),
        Workload(
            name="cluster_chaos",
            requests=10_000,
            spec=_chaos_spec,
            deployments=_chaos_deployments,
            cluster_options=_chaos_options,
            mechanisms=_chaos_mechanisms,
            recorded_subrun=True,
        ),
    )
}


# -- the pass ----------------------------------------------------------------

def run_pass(workload: Workload, setup: Setup, out_path: str) -> PassOutput:
    """One pipeline pass, as the serving CLI's JSON output path runs it."""
    spec = setup.spec
    trace = serving_trace.generate_trace(spec)
    if workload.is_cluster:
        options = workload.cluster_options(trace, spec.seed)
        result = serving_cluster.simulate_cluster(
            trace, setup.deployments, **options
        )
        rows = serving_metrics.cluster_rows(result)
        table = exp_tables.cluster_table(rows)
        flat = serving_metrics.cluster_summary(result)
        payload = {
            "trace_spec": dataclasses.asdict(spec),
            "summary": flat,
            "deployments": rows,
            "metrics": table,
            "scale_events": result.scale_events,
            "fault_events": result.fault_events,
        }
    else:
        result = engine_driver.simulate_trace(trace, setup.config)
        table = serving_metrics.metrics_table(result)
        flat = serving_metrics.summary(result)
        rows = [flat]
        payload = {
            "trace_spec": dataclasses.asdict(spec),
            "summary": flat,
            "metrics": table,
        }
    payload["requests"] = serving_metrics.record_rows(result)
    payload["trace"] = serving_trace.trace_rows(trace)
    exp_io.write_json(out_path, payload)
    return PassOutput(trace, result, flat, rows, os.path.getsize(out_path))


# -- outputs: counters, digest, checks ----------------------------------------

def _rank_stats(result) -> list:
    if hasattr(result, "deployments"):
        return [rs for dep in result.deployments
                for rs in dep.serving.rank_stats]
    return list(result.rank_stats)


def counters(out: PassOutput) -> Dict[str, float]:
    """The per-layer counts one pass produced (simulated work, not time)."""
    stats = _rank_stats(out.result)
    flat = out.summary
    iterations = sum(rs.decode_iterations for rs in stats)
    output_tokens = sum(rs.output_tokens for rs in stats)
    hits = sum(row["cache_hits"] for row in out.rows)
    misses = sum(row["cache_misses"] for row in out.rows)
    return {
        "engine.decode_iterations": iterations,
        "engine.mean_batch": output_tokens / iterations if iterations else 0.0,
        "engine.prefill_tokens": sum(rs.prefill_tokens for rs in stats),
        "engine.preemptions": sum(rs.preemptions for rs in stats),
        "engine.rejected": flat["rejected"],
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.hit_tokens": sum(row["cache_hit_tokens"] for row in out.rows),
        "cache.evictions": sum(row["cache_evictions"] for row in out.rows),
        "autoscale.scale_events": flat.get("scale_events", 0),
        "autoscale.replacements": flat.get("replacements", 0),
        "faults.crashes": flat.get("crashes", 0),
        "faults.stalls": flat.get("stalls", 0),
        "faults.retries": flat.get("retries", 0),
        "faults.failovers": flat.get("failovers", 0),
        "faults.failed": flat["failed"],
        "export.bytes": out.export_bytes,
    }


SIM_KEYS = ("ttft_p50_s", "ttft_p99_s", "output_tokens_per_s",
            "energy_mj_per_token", "slo_attainment")


def sim_digest(out: PassOutput) -> Dict[str, object]:
    """Simulated outputs plus a hash of every request's outcome.

    A speed-only change must leave all of these bit-identical.
    """
    digest = hashlib.sha256()
    for rec in out.result.records:
        digest.update(
            f"{rec.req_id},{rec.status},{rec.first_token_s!r},"
            f"{rec.finish_s!r}\n".encode()
        )
    sim = {f"sim.{key}": out.summary[key] for key in SIM_KEYS}
    sim["sim.records_sha256"] = digest.hexdigest()
    return sim


def check(workload: Workload, out: PassOutput,
          layer_counters: Dict[str, float]) -> List[str]:
    """Output checks for one pass; returns the failures (empty = pass)."""
    failures = []
    requests = len(out.trace)
    trace_ids = sorted(r.req_id for r in out.trace)
    record_ids = sorted(rec.req_id for rec in out.result.records)
    if record_ids != trace_ids:
        failures.append(
            f"{len(record_ids)} record(s) for {requests} request(s): not "
            f"exactly one record per trace req_id"
        )
    flat = out.summary
    accounted = flat["completed"] + flat["rejected"] + flat["failed"]
    if accounted != requests:
        failures.append(
            f"completed + rejected + failed = {accounted} != {requests}"
        )
    for metric in ("ttft", "latency"):
        keys = [f"{metric}_p{q}_s" for q in (50, 95, 99)]
        values = [flat[key] for key in keys if key in flat]
        if values != sorted(values):
            failures.append(f"{metric} percentiles out of order: {values}")
    if out.export_bytes <= 0:
        failures.append("empty JSON export")
    failures.extend(workload.mechanisms(layer_counters))
    return failures
