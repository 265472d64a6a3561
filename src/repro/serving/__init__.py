"""Request-level serving on the DRAM-PIM substrate (the traffic layer).

Bridges the per-request inference costs in :mod:`repro.model` to
datacenter-style serving: a stream of requests (arrival time, prompt
length, generation length) is scheduled onto rank-sharded model
replicas with continuous batching and KV-cache admission, producing
TTFT / TPOT / latency-percentile / throughput / energy metrics — for a
single deployment or a heterogeneous routed cluster of them.

* :mod:`repro.serving.trace` — :class:`Request`, the columns-first
  :class:`~repro.serving.trace.Trace`, seeded synthetic traces
  (steady Poisson, bursty MMPP, diurnal and conversational
  session arrival scenarios; log-normal lengths; priority tiers with
  TTFT SLOs),
* :mod:`repro.serving.policy` — pluggable scheduling policies
  (``fcfs`` / ``sjf`` / ``priority`` / ``chunked_prefill``) with
  KV-pressure preemption and cache-eviction selection,
* :mod:`repro.serving.engine` — the layered continuous-batching engine
  package (config / prefix cache / records / cost spine / rank engine /
  driver) behind :func:`simulate_trace`, :class:`PrefixCache`, ...,
* :mod:`repro.serving.routing` — the :data:`ROUTERS` registry of
  request-routing policies (``round_robin`` / ``least_kv`` / ``p2c`` /
  ``slo_affinity``), used for single-deployment rank sharding and
  cluster-level deployment routing alike,
* :mod:`repro.serving.cluster` — :class:`Deployment` replicas behind a
  router composed into a :class:`Cluster`
  (:func:`simulate_cluster`),
* :mod:`repro.serving.autoscale` — the queue-driven
  :class:`Autoscaler`, charging replica cold-starts as DRAM-PIM weight
  transfers (and replacing crashed replicas under fault injection),
* :mod:`repro.serving.faults` — seeded fault injection
  (:class:`FaultPlan` crash / stall / degrade schedules) and the
  :class:`RetryPolicy` backing the cluster's crash-recovery loop,
* :mod:`repro.serving.metrics` — per-request rows and percentile
  summary tables (incl. SLO attainment, preemption counters and the
  cluster-level rows),
* :mod:`repro.serving.cli` — the ``python -m repro.serving`` command
  line (single-deployment and ``--cluster`` modes).
"""

from repro.serving.trace import (
    Request,
    SCENARIOS,
    TraceSpec,
    generate_trace,
    rows_to_trace,
    trace_rows,
)
from repro.serving.policy import (
    POLICIES,
    ChunkedPrefillPolicy,
    FcfsPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    SjfPolicy,
    get_policy,
)
from repro.serving.engine import (
    ENGINES,
    CacheEntry,
    PrefixCache,
    RankStats,
    RequestRecord,
    ServingConfig,
    ServingResult,
    simulate_trace,
)
from repro.serving.routing import (
    ROUTERS,
    LeastKvRouter,
    P2cRouter,
    RoundRobinRouter,
    RoutingPolicy,
    SloAffinityRouter,
    get_router,
)
from repro.serving.cluster import (
    Cluster,
    ClusterResult,
    Deployment,
    DeploymentResult,
    simulate_cluster,
)
from repro.serving.autoscale import Autoscaler, AutoscalerConfig
from repro.serving.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.serving.metrics import (
    cluster_rows,
    cluster_summary,
    metrics_table,
    record_rows,
    summary,
)
from repro.serving.cli import build_parser, main

__all__ = [
    "Request",
    "SCENARIOS",
    "TraceSpec",
    "generate_trace",
    "trace_rows",
    "rows_to_trace",
    "POLICIES",
    "SchedulingPolicy",
    "FcfsPolicy",
    "SjfPolicy",
    "PriorityPolicy",
    "ChunkedPrefillPolicy",
    "get_policy",
    "ENGINES",
    "CacheEntry",
    "PrefixCache",
    "ServingConfig",
    "RequestRecord",
    "RankStats",
    "ServingResult",
    "simulate_trace",
    "ROUTERS",
    "RoutingPolicy",
    "RoundRobinRouter",
    "LeastKvRouter",
    "P2cRouter",
    "SloAffinityRouter",
    "get_router",
    "Deployment",
    "DeploymentResult",
    "Cluster",
    "ClusterResult",
    "simulate_cluster",
    "Autoscaler",
    "AutoscalerConfig",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "record_rows",
    "metrics_table",
    "summary",
    "cluster_rows",
    "cluster_summary",
    "build_parser",
    "main",
]
