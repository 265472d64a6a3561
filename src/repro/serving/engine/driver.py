"""The replica seam and the single-deployment serving driver.

Every replica — a rank of :func:`simulate_trace` or of a
:class:`~repro.serving.cluster.Deployment` — is sized, built and
collected through the same three functions:

* :func:`replica_budget` resolves a config's model, scheme policy and
  energy model into the cost-spine arguments, the packed weight bytes
  and the KV capacity left in a replica's MRAM, and refuses a scheme
  the config's kernel cannot run;
* :func:`make_engine` builds a replica's engine and arms it with a
  fault plan;
* :func:`collect_result` turns drained engines into one
  :class:`~repro.serving.engine.records.ServingResult`.

:func:`simulate_trace` shards the trace once with the rule of the
``round_robin`` router (:mod:`repro.serving.routing`), applied
vectorized over the trace columns, then runs each replica to
completion and collects the result.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kernels.cost import gemm_cost
from repro.model.config import get_model_config
from repro.model.cost import policy_weight_bytes
from repro.model.policy import SchemePolicy
from repro.pim.buffer import BufferOverflowError
from repro.pim.energy import EnergyModel
from repro.pim.upmem import UpmemConfig, UpmemSystem
from repro.serving.engine.config import ServingConfig
from repro.serving.engine.costs import _CostCache
from repro.serving.engine.rank_engine import _RankEngine
from repro.serving.engine.records import ColumnRecords, ServingResult
from repro.serving.policy import SchedulingPolicy
from repro.serving.trace import Request, Trace

__all__ = ["simulate_trace", "make_engine", "replica_budget", "collect_result"]


def replica_budget(
    config: ServingConfig,
    scheme_policy: Optional[SchemePolicy] = None,
    energy_model: Optional[EnergyModel] = None,
    name: Optional[str] = None,
) -> tuple:
    """Size one replica of ``config``.

    Returns ``(cost_args, weight_bytes, kv_capacity)``: the
    :class:`~repro.serving.engine.costs._CostCache` constructor
    arguments (model, scheme policy, one-rank UPMEM system, kernel,
    energy model), the packed weight bytes, and the MRAM left for KV
    cache.  ``scheme_policy`` defaults to the uniform ``config.scheme``
    policy and ``energy_model`` to :class:`EnergyModel`; ``name``
    prefixes the error with the deployment it belongs to.

    Raises
    ------
    ValueError
        If the packed weights leave no MRAM for KV cache, or if a
        scheme the policy resolves to cannot run on ``config.kernel``
        (its LUTs overflow WRAM, or the naive kernel rejects its
        codecs).
    """
    model = get_model_config(config.model)
    if scheme_policy is None:
        scheme_policy = SchemePolicy(config.scheme)
    if energy_model is None:
        energy_model = EnergyModel()
    system = UpmemSystem(
        UpmemConfig(num_ranks=1, dpus_per_rank=config.dpus_per_rank)
    )
    owner = f"deployment {name!r}: " if name is not None else ""
    weight_bytes = policy_weight_bytes(model, scheme_policy)
    mram_total = config.dpus_per_rank * system.timings.mram_bytes
    kv_capacity = mram_total - weight_bytes
    if kv_capacity <= 0:
        raise ValueError(
            f"{owner}packed weights ({weight_bytes} B) exceed a replica's "
            f"MRAM ({mram_total} B); use more DPUs per rank or a narrower "
            f"scheme"
        )
    # Cost each distinct scheme once, on the first batch-1 decode weight
    # GEMM it governs.  The LUT kernels' WRAM check does not depend on
    # the shape, so a scheme that overflows here would overflow at the
    # run's first prefill; the costs land in the gemm_cost memo the run
    # reads.
    checked = set()
    for layer in range(model.num_layers):
        for projection, (k, n) in model.projection_shapes().items():
            scheme = scheme_policy.scheme_for(layer, projection)
            if scheme in checked:
                continue
            checked.add(scheme)
            try:
                gemm_cost(scheme, 1, k, n, system=system, kernel=config.kernel)
            except BufferOverflowError as exc:
                raise ValueError(
                    f"{owner}scheme {scheme.name} cannot run on kernel "
                    f"{config.kernel!r}: {exc}"
                ) from exc
    cost_args = (model, scheme_policy, system, config.kernel, energy_model)
    return cost_args, weight_bytes, kv_capacity


def make_engine(
    rank: int,
    cache: _CostCache,
    config: ServingConfig,
    kv_capacity: int,
    policy: SchedulingPolicy,
    tracer=None,
    faults=None,
):
    """Build the rank engine of replica ``rank``.

    The :class:`~repro.serving.engine.rank_engine._RankEngine` advances
    as ``config.engine`` selects and registers the specs of ``faults``
    (a :class:`~repro.serving.faults.FaultPlan`) that target ``rank``.
    """
    return _RankEngine(rank, cache, config, kv_capacity, policy,
                       tracer=tracer, faults=faults)


def collect_result(
    config: ServingConfig,
    engines: Sequence,
    kv_capacity: int,
    weight_bytes: int,
) -> ServingResult:
    """One :class:`ServingResult` from drained ``engines`` of ``config``.

    Every engine's outcome columns are combined into one
    :class:`~repro.serving.engine.records.ColumnRecords` sorted by
    ``req_id``; no record object is built until one is read.
    """
    return ServingResult(
        config=config,
        records=ColumnRecords.merge([engine.records for engine in engines]),
        rank_stats=[engine.stats for engine in engines],
        kv_capacity_bytes=kv_capacity,
        weight_bytes=weight_bytes,
        prefix_caches=tuple(
            engine.prefix_cache for engine in engines
            if engine.prefix_cache is not None
        ),
    )


def simulate_trace(
    trace: Sequence[Request],
    config: Optional[ServingConfig] = None,
    scheme_policy: Optional[SchemePolicy] = None,
    energy_model: Optional[EnergyModel] = None,
    sched_policy: Optional[SchedulingPolicy] = None,
    tracer=None,
    faults=None,
) -> ServingResult:
    """Simulate serving ``trace`` under ``config``; returns the full result.

    Requests are assigned to rank replicas round-robin in arrival order,
    except session turns, which all land on ``session_id mod
    num_ranks`` so a rank's prefix cache can serve the whole
    conversation — the rule of the ``round_robin`` router
    (:mod:`repro.serving.routing`), whose counter advances on every
    request, applied to the whole trace at once.
    Each replica then runs its continuous-batching engine
    independently.  The replicas share one memoised cost cache, built
    for this call and dropped with it; its values are pure functions of
    their keys, so sharing never changes a result.  ``scheme_policy``
    defaults to the uniform ``config.scheme`` quantization policy;
    ``sched_policy`` overrides the scheduling policy named by
    ``config.policy`` (useful for pre-configured policy instances).
    ``tracer`` (a :class:`repro.obs.tracer.Tracer`, e.g. the recording
    tracer) receives every engine lifecycle event; it defaults to off
    with no hot-path cost beyond one branch per emission site.  The
    engines time nothing themselves: ``tools/bench.py`` attributes
    their host wall clock by wrapping engine methods in spans from
    outside.  ``faults`` (a
    :class:`~repro.serving.faults.FaultPlan`) injects crashes, stalls
    and degradations into the replica engines *without* a recovery
    layer — lost requests end ``failed`` (the cluster layer adds
    retries).  A traced faulted run records each stall and degrade
    window once, as scheduled
    (:meth:`~repro.serving.faults.FaultPlan.trace_windows`).

    Raises
    ------
    ValueError
        If the packed weights of the model/policy do not leave any MRAM
        for KV cache on a replica, or if a scheme of the policy cannot
        run on ``config.kernel`` (see :func:`replica_budget`).  Both are
        raised before any request is simulated.
    """
    trace = Trace.of(trace).ordered()
    config = config if config is not None else ServingConfig()
    cost_args, weight_bytes, kv_capacity = replica_budget(
        config, scheme_policy, energy_model
    )
    cache = _CostCache(*cost_args)
    sched_policy = sched_policy if sched_policy is not None else config.make_policy()
    if faults is not None and tracer is not None and tracer.enabled:
        faults.trace_windows(tracer)
    num_ranks = config.num_ranks
    columns = trace.columns
    session = columns["session_id"]
    ranks = np.where(
        session >= 0,
        session % num_ranks,
        np.arange(len(trace), dtype=np.int64) % num_ranks,
    )
    engines = []
    for rank in range(num_ranks):
        engine = make_engine(rank, cache, config, kv_capacity, sched_policy,
                             tracer=tracer, faults=faults)
        mask = ranks == rank
        engine.submit_columns(
            {key: array[mask] for key, array in columns.items()}
        )
        engine.run()
        engines.append(engine)
    return collect_result(config, engines, kv_capacity, weight_bytes)
