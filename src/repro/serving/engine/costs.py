"""Memoised cost spine shared by every rank engine of one cost identity.

:class:`_CostCache` turns the closed-form analytical cost model
(:mod:`repro.model.cost`) into O(1) dict lookups for the engine's hot
path.  One instance per *cost identity* per simulation
(:func:`cost_identity`: model, scheme policy by value, UPMEM config,
kernel, energy model): every engine of a deployment shares it, and a
:class:`~repro.serving.cluster.Cluster` hands one instance to all of its
deployments with the same identity, so a run pays the analytical
evaluations once per *shape*, not once per replica or per deployment.
Every memoised value is a pure function of its key — independent of
which engine asked first or in what order — so sharing never changes a
result.  Nothing outlives the run: the caches belong to the
deployments (or the :func:`~repro.serving.engine.driver.simulate_trace`
call) that built them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels.cost import _cached_naive_sum_k as _naive_sum_k_lru
from repro.kernels.cost import _cached_naive_sum_n as _naive_sum_n_lru

# The cost cache memoises sums locally by integer KV keys, so the lru
# layer (whose frozen-dataclass keys re-hash the whole timing config per
# lookup) only adds overhead — call the undecorated bodies directly.
_naive_sum_n = _naive_sum_n_lru.__wrapped__
_naive_sum_k = _naive_sum_k_lru.__wrapped__
from repro.model.config import ModelConfig
from repro.model.cost import decode_step_weight_stats, prefill_chunk_stats
from repro.model.decoder import ATTENTION_SCHEME
from repro.model.policy import SchemePolicy
from repro.quant.schemes import resolve_scheme
from repro.pim.energy import EnergyModel
from repro.pim.upmem import ExecutionStats, UpmemSystem

__all__ = ["_CostCache", "SegmentCostTable", "cost_identity"]

#: Spacing of the cumulative-attention checkpoints above the floor: a
#: depth's value is its checkpoint's plus one closed-form tail of at
#: most this many steps.
ATTN_CHECKPOINT = 64


def cost_identity(
    model: ModelConfig,
    policy: SchemePolicy,
    system: UpmemSystem,
    kernel: str,
    energy_model: EnergyModel,
) -> tuple:
    """The value key two cost spines must share to be interchangeable.

    Equal keys mean equal cost surfaces: the same model, the same scheme
    policy *by value* (default plus layer and projection overrides —
    :class:`~repro.model.policy.SchemePolicy` itself compares by
    identity), the same UPMEM configuration, kernel and energy model.
    """
    return (
        model,
        policy.default,
        tuple(sorted(policy.layer_overrides.items())),
        tuple(sorted(policy.projection_overrides.items())),
        system.config,
        kernel,
        energy_model,
    )


class _CostCache:
    """Memoised (latency, energy) scalars for the engine's cost queries.

    One instance per cost identity per simulation (see the module
    docstring): distinct prefill-chunk shapes, batch sizes and KV
    lengths each cost one analytical evaluation, after which an engine
    iteration is a handful of dict lookups.  A whole
    prompt is the ``(done=0, chunk=prompt)`` special case of a chunk,
    bit-identical to the prefill phase of
    :func:`~repro.model.cost.model_inference_cost`.

    The event engine widens the per-iteration tables with a *segment*
    table: a multi-token decode segment at batch ``B`` over per-request
    KV ranges costs ``B`` lookups in the cumulative attention table
    (:meth:`attn_cum`, keyed by KV depth; differences of cumulative
    sums give any ``[kv_lo, kv_hi]`` range in O(1)) plus the
    batch-keyed :meth:`weight_step` entry scaled by the segment length
    — the memoisation key space is exactly (batch, KV-depth range).

    Every entry is a pure function of its key, so engines of any number
    of deployments can share one instance in any fill order:
    :meth:`attn_cum` above the DPU-count floor extends from fixed
    checkpoints (every :data:`ATTN_CHECKPOINT` depths past the floor,
    chained from the floor) rather than from whichever depth happened to
    be cached.
    """

    def __init__(
        self,
        model: ModelConfig,
        policy: SchemePolicy,
        system: UpmemSystem,
        kernel: str,
        energy_model: EnergyModel,
    ) -> None:
        self.model = model
        self.policy = policy
        self.system = system
        self.kernel = kernel
        self.energy = energy_model
        self._chunk: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._weight_step: Dict[int, Tuple[float, float]] = {}
        self._attn_step: Dict[int, Tuple[float, float]] = {}
        # Cumulative attention scalars, keyed by KV depth.  Below
        # ``_attn_cum_floor`` the attention matmuls' DPU count still
        # grows with the KV length, so per-step energy attribution is
        # not linear in the aggregated stats and the cumulative sum is
        # built step by step; past the floor the DPU count is constant
        # and whole ranges collapse to one closed-form evaluation.
        self._attn_cum: Dict[int, Tuple[float, float]] = {0: (0.0, 0.0)}
        self._attn_cum_floor = (
            system.total_dpus if system.total_dpus > model.head_dim else 0
        )
        # Deepest checkpoint (floor + j * ATTN_CHECKPOINT) already in
        # ``_attn_cum``; below the floor nothing is a checkpoint yet.
        self._attn_checkpoint = -1
        # Attention matmuls are always costed on the naive int8-MAC path
        # at ATTENTION_SCHEME precision; resolve once so cache misses
        # call the shared cost functions directly (the public wrappers'
        # per-call scheme/config resolution and defensive copies are
        # measurable at event-engine miss rates).
        self._attn_scheme = resolve_scheme(ATTENTION_SCHEME)
        self._segment_table: Optional["SegmentCostTable"] = None

    def segment_table(self) -> "SegmentCostTable":
        """The dense :class:`SegmentCostTable` view over this cache.

        Built lazily (a run whose batches stay narrow never pays for
        it) and memoised, so every engine sharing this cache shares one
        table the same way the scalar dict caches are shared.
        """
        if self._segment_table is None:
            self._segment_table = SegmentCostTable(self)
        return self._segment_table

    def _scalars(self, stats: ExecutionStats) -> Tuple[float, float]:
        return stats.total_s, self.energy.total_j(stats)

    def prefill_chunk(self, done_tokens: int, chunk_tokens: int) -> Tuple[float, float]:
        """(latency_s, energy_j) of one prefill chunk after ``done_tokens``."""
        key = (done_tokens, chunk_tokens)
        hit = self._chunk.get(key)
        if hit is None:
            stats = prefill_chunk_stats(
                self.model, self.policy, 1, done_tokens, chunk_tokens,
                system=self.system, kernel=self.kernel,
            )
            hit = self._scalars(stats)
            self._chunk[key] = hit
        return hit

    def weight_step(self, batch: int) -> Tuple[float, float]:
        """(latency_s, energy_j) of one decode step's weight GEMMs at ``batch``."""
        hit = self._weight_step.get(batch)
        if hit is None:
            stats = decode_step_weight_stats(
                self.model, self.policy, batch, system=self.system, kernel=self.kernel
            )
            hit = self._scalars(stats)
            self._weight_step[batch] = hit
        return hit

    def attn_step(self, kv_len: int) -> Tuple[float, float]:
        """(latency_s, energy_j) of one request's attention at ``kv_len``.

        Both attention matmuls for a single sequence, scaled to all
        layers (attention shapes are layer-independent).
        """
        hit = self._attn_step.get(kv_len)
        if hit is None:
            # Single-term instance of the closed-form range sums: the
            # same stats as costing both matmuls individually, without
            # the per-call bank/buffer modelling objects.
            heads, head_dim = self.model.num_heads, self.model.head_dim
            config = self.system.config
            per_layer = _naive_sum_n(
                self._attn_scheme, heads, head_dim, kv_len, kv_len, config
            ) + _naive_sum_k(
                self._attn_scheme, heads, head_dim, kv_len, kv_len, config
            )
            hit = self._scalars(per_layer.scaled(self.model.num_layers))
            self._attn_step[kv_len] = hit
        return hit

    def attn_cum(self, kv_len: int) -> Tuple[float, float]:
        """Cumulative ``sum(attn_step(kv) for kv in [1, kv_len])`` scalars.

        Matches the per-step sum the loop engine would accumulate
        (latency to float rounding, energy attributed per step): below
        :attr:`_attn_cum_floor` the sum extends step by step through the
        memoised :meth:`attn_step` entries, above it whole tails come
        from one :func:`~repro.model.cost.decode_attention_stats_sum`
        evaluation (valid there because the attention DPU count — and
        with it the energy model's per-DPU scaling — is constant).

        The result is a pure function of ``kv_len``: above the floor a
        depth extends from its checkpoint, the deepest
        ``floor + j * ATTN_CHECKPOINT`` below it, and each checkpoint
        extends from the previous one.  The chain is filled iteratively,
        so any depth is reachable without recursion.
        """
        cum = self._attn_cum
        hit = cum.get(kv_len)
        if hit is not None:
            return hit
        floor = self._attn_cum_floor
        if kv_len <= floor:
            start = kv_len
            while start > 1 and (start - 1) not in cum:
                start -= 1
            lat, energy = cum[start - 1]
            for kv in range(start, kv_len + 1):
                step_lat, step_energy = self.attn_step(kv)
                lat += step_lat
                energy += step_energy
                cum[kv] = (lat, energy)
            return cum[kv_len]
        base = kv_len - 1 - (kv_len - 1 - floor) % ATTN_CHECKPOINT
        if self._attn_checkpoint < base:
            checkpoint = self._attn_checkpoint
            if checkpoint < floor:
                self.attn_cum(floor)
                checkpoint = floor
            while checkpoint < base:
                cum[checkpoint + ATTN_CHECKPOINT] = self._attn_extend(
                    checkpoint, checkpoint + ATTN_CHECKPOINT
                )
                checkpoint += ATTN_CHECKPOINT
            self._attn_checkpoint = base
        hit = cum[kv_len] = self._attn_extend(base, kv_len)
        return hit

    def _attn_extend(self, base: int, kv_len: int) -> Tuple[float, float]:
        """``attn_cum(base)`` plus the closed-form tail ``(base, kv_len]``.

        Equivalent of ``decode_attention_stats_sum(model, 1, base + 1,
        kv_len)`` scaled to all layers, via the shared cached sums.
        """
        base_lat, base_energy = self._attn_cum[base]
        heads, head_dim = self.model.num_heads, self.model.head_dim
        config = self.system.config
        tail = (
            _naive_sum_n(
                self._attn_scheme, heads, head_dim, base + 1, kv_len, config
            )
            + _naive_sum_k(
                self._attn_scheme, heads, head_dim, base + 1, kv_len, config
            )
        ).scaled(self.model.num_layers)
        return base_lat + tail.total_s, base_energy + self.energy.total_j(tail)

    def attn_segment(self, kv_lo: int, kv_hi: int) -> Tuple[float, float]:
        """(latency_s, energy_j) of one request's attention over a KV range.

        The sum of :meth:`attn_step` for every ``kv`` in
        ``[kv_lo, kv_hi]`` — the attention cost of one multi-token
        decode segment — as a difference of two cumulative entries.
        """
        lo_lat, lo_energy = self.attn_cum(kv_lo - 1)
        hi_lat, hi_energy = self.attn_cum(kv_hi)
        return hi_lat - lo_lat, hi_energy - lo_energy


class SegmentCostTable:
    """Dense cumulative attention tables for vectorized segment costing.

    The event engine costs a wide decode batch with a handful of numpy
    gathers instead of per-request dict lookups: ``cum_lat[kv]`` /
    ``cum_energy[kv]`` hold
    :meth:`_CostCache.attn_cum` for every KV depth up to :attr:`max_kv`,
    and ``step_lat[kv]`` / ``step_energy[kv]`` the per-step
    :meth:`_CostCache.attn_step` values (``step[0]`` is 0 — depth 0 has
    no attention step).  The step tables are filled from ``attn_step``
    itself, not differenced from the cumulative ones: ``cum[kv] -
    cum[kv - 1]`` differs from the step value in the last bits.  A
    batch's segment cost over per-request ranges ``(kv, kv + tokens]``
    is then the terms ``cum[kv + tokens] - cum[kv]`` added left to
    right.

    ``cum_*[kv]`` and ``step_*[kv]`` equal :meth:`_CostCache.attn_cum`
    and :meth:`_CostCache.attn_step` exactly (both are pure functions of
    the depth), so the dense and the dict views of a cache agree bit for
    bit.  Storage doubles on growth, so incremental (cluster)
    submissions extend it in amortised O(1) per depth.
    """

    def __init__(self, cache: _CostCache) -> None:
        self._cache = cache
        #: Deepest KV length with valid table entries.
        self.max_kv = 0
        self.cum_lat = np.zeros(1)
        self.cum_energy = np.zeros(1)
        self.step_lat = np.zeros(1)
        self.step_energy = np.zeros(1)

    def ensure(self, max_kv: int) -> None:
        """Extend the tables to cover KV depths up to ``max_kv``."""
        if max_kv <= self.max_kv:
            return
        size = self.cum_lat.size
        if max_kv + 1 > size:
            new_size = max(2 * size, max_kv + 1)
            for name in ("cum_lat", "cum_energy", "step_lat", "step_energy"):
                old = getattr(self, name)
                grown = np.zeros(new_size)
                grown[: old.size] = old
                setattr(self, name, grown)
        lo = self.max_kv + 1
        depths = range(lo, max_kv + 1)
        cum = np.asarray([self._cache.attn_cum(kv) for kv in depths])
        step = np.asarray([self._cache.attn_step(kv) for kv in depths])
        self.cum_lat[lo : max_kv + 1] = cum[:, 0]
        self.cum_energy[lo : max_kv + 1] = cum[:, 1]
        self.step_lat[lo : max_kv + 1] = step[:, 0]
        self.step_energy[lo : max_kv + 1] = step[:, 1]
        self.max_kv = max_kv
