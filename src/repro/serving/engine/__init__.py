"""Layered request-level serving engine with continuous batching.

The engine package simulates serving a trace of inference requests on
the UPMEM substrate the way a production stack would, split along its
natural seams:

* :mod:`~repro.serving.engine.config` — :class:`ServingConfig`, the
  frozen deployment/scheduling knob bundle (and the :data:`ENGINES`
  decode-advance registry).
* :mod:`~repro.serving.engine.cache` — the refcounted KV
  :class:`PrefixCache` and its :class:`CacheEntry` chains.
* :mod:`~repro.serving.engine.records` — result types
  (:class:`RequestRecord`, :class:`RankStats`, :class:`ServingResult`).
* :mod:`~repro.serving.engine.costs` — the memoised analytical cost
  spine (``_CostCache``), one per cost identity per run: shared by
  every replica of a deployment and, in a cluster, by every deployment
  with the same model, scheme policy, UPMEM config, kernel and energy
  model.
* :mod:`~repro.serving.engine.rank_engine` — one replica's
  continuous-batching engine (``_RankEngine``), driveable either
  run-to-drain or incrementally (``submit`` / ``advance`` /
  ``finalize``) by the cluster layer.
* :mod:`~repro.serving.engine.driver` — the replica seam the
  single-deployment driver and the cluster layer share:
  ``replica_budget`` (cost-spine arguments, packed weight bytes, KV
  capacity), ``make_engine`` (the one place an engine is built and
  armed with a fault plan) and ``collect_result`` (drained engines to
  a :class:`ServingResult`); and :func:`simulate_trace`, which shards
  a trace once, runs each replica and collects the result.

A quick tour of the simulated semantics (details on the classes):

* **Per-rank sharding** — the deployment is ``num_ranks`` model
  replicas; requests are assigned round-robin in arrival order (session
  turns land on ``session_id mod num_ranks``) — the routing layer's
  round-robin rule, applied to the whole trace at once — and served
  entirely by their rank.
* **Continuous batching** — each rank admits newly arrived requests
  between iterations, prefills them (optionally chunked), and advances
  every running request one token per iteration.
* **Event-driven decode** — ``engine="event"`` advances the running
  batch whole multi-token segments between scheduler events in closed
  form, and takes wide batches' admission, prefill and decode in bulk
  over its request columns; ``engine="loop"`` is the per-token
  reference walk that keeps every per-request path.
* **Pluggable scheduling** — admission order, preemption victims and
  prefill chunking come from a
  :class:`~repro.serving.policy.SchedulingPolicy`; requests reserve
  their full KV footprint at admission, and under pressure the policy
  may preempt (victims requeue and recompute their prefix).
* **KV prefix cache** — ``prefix_cache=True`` retains finished turns'
  and shared system prompts' KV for cheap re-admission, with LRU
  eviction firing strictly before preemption.

>>> from repro.serving.engine import ServingConfig, simulate_trace
>>> ServingConfig().engine
'event'
"""

from repro.serving.engine.cache import CacheEntry, PrefixCache
from repro.serving.engine.config import ENGINES, ServingConfig
from repro.serving.engine.costs import _CostCache
from repro.serving.engine.driver import make_engine, simulate_trace
from repro.serving.engine.rank_engine import _RankEngine, _RequestState
from repro.serving.engine.records import RankStats, RequestRecord, ServingResult

__all__ = [
    "ENGINES",
    "CacheEntry",
    "PrefixCache",
    "ServingConfig",
    "RequestRecord",
    "RankStats",
    "ServingResult",
    "simulate_trace",
]
