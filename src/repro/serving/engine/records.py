"""Result records produced by serving simulations.

:class:`RequestRecord` is the per-request outcome (timestamps plus the
derived latency metrics), :class:`RankStats` the per-replica aggregate
counters, and :class:`ServingResult` the bundle a whole simulation
returns — the input type of :mod:`repro.serving.metrics` and of the
cluster layer's per-deployment slices.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.serving.engine.config import ServingConfig

__all__ = ["RequestRecord", "RankStats", "ServingResult", "ColumnRecords"]


@dataclass
class RequestRecord:
    """Outcome of one request: timestamps plus the derived serving metrics.

    Timestamps are absolute simulation seconds; ``None`` until the event
    happens (rejected requests never admit).  ``admit_s`` is the *first*
    admission — a preempted request keeps it, and every eviction bumps
    ``preemptions``.  ``cache_hit`` / ``cached_tokens`` describe the
    prefix-cache outcome of that first admission (always miss/0 with the
    cache disabled).

    ``status`` is one of three terminal outcomes: ``"completed"``,
    ``"rejected"`` (infeasible KV footprint) or ``"failed"`` (lost to a
    replica crash with the retry budget exhausted, shed under
    post-failure overload, or stranded on a dead fleet).  ``retries``
    counts crash-driven re-submissions, ``failovers`` the re-routes that
    landed on a different replica than the crashed one, and ``shed``
    marks a request dropped by the load-shedder; all are zero in
    fault-free runs.
    """

    req_id: int
    rank: int
    arrival_s: float
    prompt_tokens: int
    gen_tokens: int
    priority: int = 0
    slo_ttft_s: float = 0.0
    status: str = "completed"
    admit_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    preemptions: int = 0
    session_id: int = -1
    turn: int = 0
    cache_hit: bool = False
    cached_tokens: int = 0
    retries: int = 0
    failovers: int = 0
    shed: bool = False

    @classmethod
    def from_request(cls, request, rank: int) -> "RequestRecord":
        """A fresh record for ``request`` placed on replica ``rank``
        (``-1`` for a request the cluster failed before placing it)."""
        return cls(
            req_id=request.req_id, rank=rank, arrival_s=request.arrival_s,
            prompt_tokens=request.prompt_tokens,
            gen_tokens=request.gen_tokens, priority=request.priority,
            slo_ttft_s=request.slo_ttft_s, session_id=request.session_id,
            turn=request.turn,
        )

    @property
    def queue_s(self) -> float:
        """Arrival-to-first-admission wait."""
        return (self.admit_s - self.arrival_s) if self.admit_s is not None else 0.0

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to the first generated token."""
        return (
            (self.first_token_s - self.arrival_s)
            if self.first_token_s is not None
            else 0.0
        )

    @property
    def latency_s(self) -> float:
        """End-to-end request latency (arrival to last token)."""
        return (self.finish_s - self.arrival_s) if self.finish_s is not None else 0.0

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token requests)."""
        if self.finish_s is None or self.first_token_s is None or self.gen_tokens < 2:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.gen_tokens - 1)

class ColumnRecords(Sequence):
    """Request records materialised lazily from column arrays.

    The structure-of-arrays engine finishes a run holding its outcome as
    numpy columns; building a million :class:`RequestRecord` objects up
    front would cost seconds the caller may never need (the benches only
    read aggregate counters).  This sequence keeps the columns and
    builds the record list — sorted by ``req_id``, matching the driver's
    contract — on first element access; ``len()`` stays O(1) and never
    materialises.

    ``columns`` maps field names to equal-length arrays: ``req_id``,
    ``rank``, ``arrival_s``, ``prompt_tokens``, ``gen_tokens``,
    ``priority``, ``slo_ttft_s``, ``session_id``, ``turn``,
    ``rejected`` (bool), ``admit_s`` / ``first_token_s`` / ``finish_s``
    (NaN = never happened) and ``preemptions``.
    """

    def __init__(self, columns: dict) -> None:
        self._columns = columns
        self._items: Optional[List[RequestRecord]] = None

    def __len__(self) -> int:
        return int(self._columns["req_id"].size)

    def _materialize(self) -> List[RequestRecord]:
        if self._items is not None:
            return self._items
        cols = self._columns
        order = np.argsort(cols["req_id"], kind="stable")

        def column(name: str) -> list:
            return cols[name][order].tolist()

        def stamp(name: str) -> list:
            return [None if math.isnan(t) else t for t in column(name)]

        status = np.where(cols["rejected"][order], "rejected", "completed")
        self._items = list(map(
            RequestRecord,
            column("req_id"), column("rank"), column("arrival_s"),
            column("prompt_tokens"), column("gen_tokens"),
            column("priority"), column("slo_ttft_s"), status.tolist(),
            stamp("admit_s"), stamp("first_token_s"), stamp("finish_s"),
            column("preemptions"), column("session_id"), column("turn"),
        ))
        return self._items

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())


@dataclass
class RankStats:
    """Per-replica aggregate counters for one simulation."""

    rank: int
    finish_s: float = 0.0
    busy_s: float = 0.0
    energy_j: float = 0.0
    prefill_tokens: int = 0
    output_tokens: int = 0
    decode_iterations: int = 0
    preemptions: int = 0
    requeues: int = 0
    recompute_tokens: int = 0
    kv_peak_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_hit_tokens: int = 0
    kv_logical_bytes: int = 0
    kv_reserved_bytes: int = 0
    kv_final_bytes: int = 0

    @property
    def utilization(self) -> float:
        """Busy share of the rank's active window."""
        return self.busy_s / self.finish_s if self.finish_s > 0 else 0.0


@dataclass
class ServingResult:
    """Everything a simulation produced, ready for metric aggregation."""

    config: ServingConfig
    records: List[RequestRecord]
    rank_stats: List[RankStats]
    kv_capacity_bytes: int
    weight_bytes: int
    #: Per-rank :class:`~repro.serving.engine.cache.PrefixCache`
    #: instances at drain (empty when the cache is disabled, and for
    #: replayed results).
    prefix_caches: Tuple = ()

    @property
    def makespan_s(self) -> float:
        """Time from trace start until the last rank goes idle."""
        return max((rs.finish_s for rs in self.rank_stats), default=0.0)

    @property
    def total_energy_j(self) -> float:
        """Energy across every replica, in joules."""
        return sum(rs.energy_j for rs in self.rank_stats)

    @property
    def output_tokens(self) -> int:
        """Tokens generated across every replica."""
        return sum(rs.output_tokens for rs in self.rank_stats)

    @property
    def prefill_tokens(self) -> int:
        """Prompt (and recomputed prefix) tokens prefilled across replicas."""
        return sum(rs.prefill_tokens for rs in self.rank_stats)

    @property
    def preemptions(self) -> int:
        """KV-pressure evictions across every replica."""
        return sum(rs.preemptions for rs in self.rank_stats)

    @property
    def cache_hits(self) -> int:
        """Prefix-cache admission hits across every replica."""
        return sum(rs.cache_hits for rs in self.rank_stats)

    @property
    def cache_misses(self) -> int:
        """Prefix-cache admission misses across every replica."""
        return sum(rs.cache_misses for rs in self.rank_stats)

    @property
    def cache_evictions(self) -> int:
        """Prefix-cache entry evictions across every replica."""
        return sum(rs.cache_evictions for rs in self.rank_stats)
