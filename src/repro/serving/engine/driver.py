"""Single-deployment serving driver.

:func:`simulate_trace` assembles the pieces the engine package splits
apart — resolve the model and scheme, size the per-replica KV budget,
build the run's one :class:`~repro.serving.engine.costs._CostCache`
(every replica of a deployment has the same cost identity), shard
the trace across rank engines via the routing layer's
:class:`~repro.serving.routing.RoundRobinRouter`, and drain each engine
— returning the :class:`~repro.serving.engine.records.ServingResult`
the metrics layer consumes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.model.config import get_model_config
from repro.model.cost import policy_weight_bytes
from repro.model.policy import SchemePolicy
from repro.pim.energy import EnergyModel
from repro.pim.upmem import UpmemConfig, UpmemSystem
from repro.serving.engine.cache import PrefixCache
from repro.serving.engine.config import ServingConfig
from repro.serving.engine.costs import _CostCache
from repro.serving.engine.rank_engine import _RankEngine
from repro.serving.engine.records import (
    ColumnRecords,
    RankStats,
    RequestRecord,
    ServingResult,
)
from repro.serving.engine.soa_engine import _SoaEngine
from repro.serving.policy import SchedulingPolicy
from repro.serving.routing import RoundRobinRouter
from repro.serving.trace import Request, Trace

__all__ = ["simulate_trace", "make_engine"]


def make_engine(
    rank: int,
    cache: _CostCache,
    config: ServingConfig,
    kv_capacity: int,
    policy: SchedulingPolicy,
    tracer=None,
    profiler=None,
):
    """Build the rank engine selected by ``config.engine``.

    The seam the driver and the cluster layer share: ``"event"`` and
    ``"loop"`` construct the object engine
    (:class:`~repro.serving.engine.rank_engine._RankEngine`), ``"soa"``
    the columnar :class:`~repro.serving.engine.soa_engine._SoaEngine`.
    Both expose the same incremental API (``submit`` / ``advance`` /
    ``finalize`` / ``has_work`` / ``queue_depth`` / ``next_event_s`` /
    ``records`` / ``retired``).
    """
    cls = _SoaEngine if config.engine == "soa" else _RankEngine
    return cls(rank, cache, config, kv_capacity, policy,
               tracer=tracer, profiler=profiler)


def _simulate_trace_soa(
    trace: Trace,
    config: ServingConfig,
    cache: _CostCache,
    kv_capacity: int,
    weight_bytes: int,
    sched_policy: SchedulingPolicy,
) -> ServingResult:
    """Columnar fast path of :func:`simulate_trace` (``engine="soa"``).

    Same sharding as the object path: the vectorized rank assignment
    reproduces :class:`~repro.serving.routing.RoundRobinRouter` exactly
    — its counter advances on *every* request, so non-session requests
    land on ``position mod num_ranks`` and session turns on
    ``session_id mod num_ranks``.
    """
    cols = trace.columns
    n = len(trace)
    num_ranks = config.num_ranks
    session = cols["session_id"]
    ranks = np.where(
        session >= 0,
        session % num_ranks,
        np.arange(n, dtype=np.int64) % num_ranks,
    )
    rank_stats: List[RankStats] = []
    outputs: List[dict] = []
    for rank in range(num_ranks):
        mask = ranks == rank
        shard = {key: value[mask] for key, value in cols.items()}
        engine = _SoaEngine(rank, cache, config, kv_capacity, sched_policy)
        engine.submit_columns(shard)
        rank_stats.append(engine.drain())
        outputs.append(engine.output_columns())
    merged = {
        key: np.concatenate([out[key] for out in outputs])
        for key in outputs[0]
    }
    return ServingResult(
        config=config,
        records=ColumnRecords(merged),
        rank_stats=rank_stats,
        kv_capacity_bytes=kv_capacity,
        weight_bytes=weight_bytes,
    )


def simulate_trace(
    trace: Sequence[Request],
    config: Optional[ServingConfig] = None,
    scheme_policy: Optional[SchemePolicy] = None,
    energy_model: Optional[EnergyModel] = None,
    sched_policy: Optional[SchedulingPolicy] = None,
    tracer=None,
    profiler=None,
    faults=None,
) -> ServingResult:
    """Simulate serving ``trace`` under ``config``; returns the full result.

    Requests are assigned to rank replicas by the routing layer's
    :class:`~repro.serving.routing.RoundRobinRouter` — round-robin in
    arrival order, except session turns, which all land on
    ``session_id mod num_ranks`` so a rank's prefix cache can serve the
    whole conversation; each replica then runs its continuous-batching
    engine independently.  The replicas share one memoised cost cache,
    built for this call and dropped with it; its values are pure
    functions of their keys, so sharing never changes a result.
    ``scheme_policy`` defaults to the uniform ``config.scheme``
    quantization policy; ``sched_policy`` overrides the scheduling
    policy named by ``config.policy`` (useful for pre-configured policy
    instances).  ``tracer`` (a :class:`repro.obs.tracer.Tracer`, e.g.
    the recording tracer) receives every engine lifecycle event;
    ``profiler`` (a :class:`repro.obs.profile.SelfProfiler`) accumulates
    the engines' own wall-clock phase times.  Both default to off with
    no hot-path cost beyond one branch per scheduler event.  ``faults``
    (a :class:`~repro.serving.faults.FaultPlan`) injects crashes, stalls
    and degradations into the replica engines *without* a recovery
    layer — lost requests end ``failed`` (the cluster layer adds
    retries); requires an object engine.  A traced faulted run records
    each stall and degrade window once, as scheduled
    (:meth:`~repro.serving.faults.FaultPlan.trace_windows`).

    Raises
    ------
    ValueError
        If the packed weights of the model/policy do not leave any MRAM
        for KV cache on a replica.
    """
    trace = Trace.of(trace).ordered()
    config = config if config is not None else ServingConfig()
    model = get_model_config(config.model)
    scheme_policy = (
        scheme_policy if scheme_policy is not None else SchemePolicy(config.scheme)
    )
    energy_model = energy_model if energy_model is not None else EnergyModel()
    sched_policy = sched_policy if sched_policy is not None else config.make_policy()
    system = UpmemSystem(
        UpmemConfig(num_ranks=1, dpus_per_rank=config.dpus_per_rank)
    )
    weight_bytes = policy_weight_bytes(model, scheme_policy)
    mram_total = config.dpus_per_rank * system.timings.mram_bytes
    kv_capacity = mram_total - weight_bytes
    if kv_capacity <= 0:
        raise ValueError(
            f"packed weights ({weight_bytes} B) exceed a replica's MRAM "
            f"({mram_total} B); use more DPUs per rank or a narrower scheme"
        )
    cache = _CostCache(model, scheme_policy, system, config.kernel, energy_model)

    have_faults = faults is not None and not faults.empty
    if config.engine == "soa":
        if tracer is not None and tracer.enabled:
            raise ValueError(
                "engine tracing requires an object engine (engine='event' "
                "or 'loop'); the soa engine emits no per-event trace"
            )
        if profiler is not None:
            raise ValueError(
                "the self-profiler requires an object engine "
                "(engine='event' or 'loop')"
            )
        if have_faults:
            raise ValueError(
                "fault injection requires an object engine (engine='event' "
                "or 'loop'); the soa engine has no fault hooks"
            )
        return _simulate_trace_soa(
            trace, config, cache, kv_capacity, weight_bytes, sched_policy
        )

    if have_faults and tracer is not None and tracer.enabled:
        faults.trace_windows(tracer)
    shards: List[List[Request]] = [[] for _ in range(config.num_ranks)]
    router = RoundRobinRouter()
    for request in trace:
        shards[router.select(request, shards)].append(request)

    records: List[RequestRecord] = []
    rank_stats: List[RankStats] = []
    prefix_caches: List[PrefixCache] = []
    for rank, shard in enumerate(shards):
        engine = _RankEngine(rank, cache, config, kv_capacity, sched_policy,
                             tracer=tracer, profiler=profiler)
        for request in shard:
            engine.submit(request)
        if have_faults:
            faults.apply(engine)
        shard_records, shard_stats = engine.run()
        records.extend(shard_records)
        rank_stats.append(shard_stats)
        if engine.prefix_cache is not None:
            prefix_caches.append(engine.prefix_cache)
    records.sort(key=lambda rec: rec.req_id)
    return ServingResult(
        config=config,
        records=records,
        rank_stats=rank_stats,
        kv_capacity_bytes=kv_capacity,
        weight_bytes=weight_bytes,
        prefix_caches=tuple(prefix_caches),
    )
