"""The full UPMEM system the kernels execute on.

A system is ``num_ranks`` ranks of ``dpus_per_rank`` DPUs; every DPU owns
one DRAM bank (:class:`~repro.pim.dram.DramBank`), one 64 KB WRAM
(:class:`~repro.pim.buffer.LocalBuffer`) and one in-order core
(:class:`~repro.pim.processor.DpuProcessor`).  Kernels partition work
across DPUs, cost the *critical-path* DPU analytically, and report the
result as an :class:`ExecutionStats` whose four latency terms mirror the
paper's cost model:

* ``lut_load_s`` — ``L_D`` × LUT entry pairs staged from DRAM to WRAM,
* ``compute_s`` — ``L_local`` × lookups (or int8-MAC time for baselines),
* ``reorder_s`` — software weight-reordering overhead (zero when the
  reordering LUT is used — the paper's RC optimisation),
* ``dma_s`` — tiled DRAM→WRAM streaming of operands and outputs,
* ``host_s`` — host↔PIM transfers of activations and results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.pim.buffer import LocalBuffer
from repro.pim.dram import DramBank
from repro.pim.processor import DpuProcessor, InstructionCosts
from repro.pim.timing import DEFAULT_TIMINGS, UpmemTimings
from repro.pim.transfer import TransferModel

__all__ = ["UpmemSystem", "UpmemConfig", "ExecutionStats"]


@dataclass
class ExecutionStats:
    """Latency breakdown plus event counts for one kernel invocation.

    Latency fields are seconds on the critical-path DPU; count fields are
    per-invocation totals on that same DPU unless noted otherwise.
    """

    kernel: str = ""
    lut_load_s: float = 0.0
    compute_s: float = 0.0
    reorder_s: float = 0.0
    dma_s: float = 0.0
    host_s: float = 0.0
    n_lut_entry_pairs: int = 0
    n_lookups: int = 0
    n_macs: int = 0
    n_reorders: int = 0
    n_instructions: int = 0
    dma_bytes: int = 0
    host_bytes: int = 0
    dram_activations: int = 0
    wram_peak_bytes: int = 0
    n_dpus_used: int = 0

    @property
    def total_s(self) -> float:
        """End-to-end latency: the four on-DPU terms plus host transfers."""
        return self.lut_load_s + self.compute_s + self.reorder_s + self.dma_s + self.host_s

    @property
    def device_s(self) -> float:
        """On-DPU latency, excluding host transfers."""
        return self.lut_load_s + self.compute_s + self.reorder_s + self.dma_s

    def breakdown(self) -> dict:
        """Latency terms by name, for plotting Fig. 13-style stacks."""
        return {
            "lut_load": self.lut_load_s,
            "compute": self.compute_s,
            "reorder": self.reorder_s,
            "dma": self.dma_s,
            "host": self.host_s,
        }

    #: Fields that compose by ``max`` under sequential composition (the
    #: rest add); see :meth:`__add__` and :meth:`scaled`.
    MAX_FIELDS = ("wram_peak_bytes", "n_dpus_used")

    def __add__(self, other: "ExecutionStats") -> "ExecutionStats":
        """Sequential composition (e.g. summing per-layer stats).

        Hand-unrolled over the field list (kept in sync by
        ``tests/test_pim_upmem.py``): this runs millions of times in
        model sweeps and the serving simulator, where the generic
        ``dataclasses.fields`` walk used to dominate the profile.
        """
        if not isinstance(other, ExecutionStats):
            return NotImplemented
        return ExecutionStats(
            kernel=self.kernel or other.kernel,
            lut_load_s=self.lut_load_s + other.lut_load_s,
            compute_s=self.compute_s + other.compute_s,
            reorder_s=self.reorder_s + other.reorder_s,
            dma_s=self.dma_s + other.dma_s,
            host_s=self.host_s + other.host_s,
            n_lut_entry_pairs=self.n_lut_entry_pairs + other.n_lut_entry_pairs,
            n_lookups=self.n_lookups + other.n_lookups,
            n_macs=self.n_macs + other.n_macs,
            n_reorders=self.n_reorders + other.n_reorders,
            n_instructions=self.n_instructions + other.n_instructions,
            dma_bytes=self.dma_bytes + other.dma_bytes,
            host_bytes=self.host_bytes + other.host_bytes,
            dram_activations=self.dram_activations + other.dram_activations,
            wram_peak_bytes=max(self.wram_peak_bytes, other.wram_peak_bytes),
            n_dpus_used=max(self.n_dpus_used, other.n_dpus_used),
        )

    def scaled(self, n: int) -> "ExecutionStats":
        """``n`` sequential repetitions of this invocation.

        Equivalent (up to float-summation rounding in the latency terms;
        the count fields are exact) to adding ``n`` copies of ``self``
        with :meth:`__add__`: additive fields are multiplied by ``n``
        while the max-composed fields (``wram_peak_bytes``,
        ``n_dpus_used``) are unchanged.  ``n == 0`` yields empty stats.
        """
        if n < 0:
            raise ValueError(f"repetition count must be non-negative, got {n}")
        if n == 0:
            return ExecutionStats(kernel=self.kernel)
        return ExecutionStats(
            kernel=self.kernel,
            lut_load_s=self.lut_load_s * n,
            compute_s=self.compute_s * n,
            reorder_s=self.reorder_s * n,
            dma_s=self.dma_s * n,
            host_s=self.host_s * n,
            n_lut_entry_pairs=self.n_lut_entry_pairs * n,
            n_lookups=self.n_lookups * n,
            n_macs=self.n_macs * n,
            n_reorders=self.n_reorders * n,
            n_instructions=self.n_instructions * n,
            dma_bytes=self.dma_bytes * n,
            host_bytes=self.host_bytes * n,
            dram_activations=self.dram_activations * n,
            wram_peak_bytes=self.wram_peak_bytes,
            n_dpus_used=self.n_dpus_used,
        )

    def copy(self) -> "ExecutionStats":
        """Independent mutable copy (fast ``dataclasses.replace(self)``)."""
        return ExecutionStats(
            kernel=self.kernel,
            lut_load_s=self.lut_load_s,
            compute_s=self.compute_s,
            reorder_s=self.reorder_s,
            dma_s=self.dma_s,
            host_s=self.host_s,
            n_lut_entry_pairs=self.n_lut_entry_pairs,
            n_lookups=self.n_lookups,
            n_macs=self.n_macs,
            n_reorders=self.n_reorders,
            n_instructions=self.n_instructions,
            dma_bytes=self.dma_bytes,
            host_bytes=self.host_bytes,
            dram_activations=self.dram_activations,
            wram_peak_bytes=self.wram_peak_bytes,
            n_dpus_used=self.n_dpus_used,
        )

    def allclose(self, other: "ExecutionStats", rel_tol: float = 1e-9) -> bool:
        """Field-by-field equality: counts exact, latencies to ``rel_tol``.

        This is the equivalence contract between the step-by-step decode
        loop and its closed-form aggregation in :mod:`repro.model.cost`:
        integer event counts must match *exactly*, while the float
        latency terms may differ by floating-point summation rounding
        (summing ``N`` identical doubles sequentially and multiplying
        once round differently in the last ulps).
        """
        if not isinstance(other, ExecutionStats):
            raise TypeError(
                f"allclose expects an ExecutionStats, got {type(other).__name__}"
            )
        for f in fields(ExecutionStats):
            if f.name == "kernel":
                continue
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, int) and isinstance(b, int):
                if a != b:
                    return False
            elif not math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0):
                return False
        return True


@dataclass(frozen=True)
class UpmemConfig:
    """Shape and timing of one UPMEM deployment.

    The paper's evaluation platform populates 4 ranks of 64 DPUs each; the
    default here is a single rank so unit costs stay easy to audit.
    """

    num_ranks: int = 1
    dpus_per_rank: int = 64
    tasklets_per_dpu: int = 16
    timings: UpmemTimings = field(default_factory=lambda: DEFAULT_TIMINGS)

    def __post_init__(self) -> None:
        if self.num_ranks < 1 or self.dpus_per_rank < 1:
            raise ValueError("num_ranks and dpus_per_rank must be >= 1")
        if self.tasklets_per_dpu < 1:
            raise ValueError("tasklets_per_dpu must be >= 1")

    @property
    def total_dpus(self) -> int:
        """DPUs across every rank."""
        return self.num_ranks * self.dpus_per_rank

    def partition(self, n_items: int) -> tuple[int, int]:
        """Split ``n_items`` across DPUs.

        Returns ``(n_dpus_used, items_on_critical_dpu)``.  The critical
        DPU carries the ceiling share; with fewer items than DPUs each
        used DPU carries one.
        """
        if n_items < 0:
            raise ValueError("n_items must be non-negative")
        if n_items == 0:
            return 0, 0
        n_dpus = min(self.num_ranks * self.dpus_per_rank, n_items)
        return n_dpus, -(-n_items // n_dpus)  # ceiling division


def _cached_frozen_hash(self) -> int:
    """Per-instance hash cache for frozen config dataclasses.

    Configs key every memoised cost-table lookup, and the generated
    dataclass ``__hash__`` re-hashes the whole (nested) field tuple on
    each call — measurable at simulator lookup rates.  Instances are
    frozen, so the first computed hash is stashed on the instance.
    """
    cached = self.__dict__.get("_hash_cache")
    if cached is None:
        cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash_cache", cached)
    return cached


UpmemConfig.__hash__ = _cached_frozen_hash  # type: ignore[assignment]
UpmemTimings.__hash__ = _cached_frozen_hash  # type: ignore[assignment]


class UpmemSystem:
    """Factory and partitioner for a rank × DPU grid.

    Kernels only ever instantiate *one* representative bank / buffer /
    processor: the grid is homogeneous and work is balanced, so the
    critical-path DPU is any maximally-loaded one.
    """

    def __init__(self, config: UpmemConfig | None = None) -> None:
        self.config = config if config is not None else UpmemConfig()
        self.transfer = TransferModel(self.config.timings)

    @property
    def timings(self) -> UpmemTimings:
        """The platform timing constants of :attr:`config`."""
        return self.config.timings

    @property
    def total_dpus(self) -> int:
        """DPUs across every rank of :attr:`config`."""
        return self.config.total_dpus

    def partition(self, n_items: int) -> tuple[int, int]:
        """Split ``n_items`` across DPUs (see :meth:`UpmemConfig.partition`)."""
        return self.config.partition(n_items)

    def new_dram_bank(self) -> DramBank:
        """A fresh MRAM bank of one DPU."""
        return DramBank(capacity_bytes=self.timings.mram_bytes)

    def new_local_buffer(self) -> LocalBuffer:
        """A fresh WRAM buffer of one DPU."""
        return LocalBuffer(capacity_bytes=self.timings.wram_bytes)

    def new_processor(self, costs: InstructionCosts | None = None) -> DpuProcessor:
        """A fresh DPU core; ``costs`` defaults to the timings' counts."""
        return DpuProcessor(
            timings=self.timings, costs=costs, tasklets=self.config.tasklets_per_dpu
        )

    def broadcast_s(self, nbytes: int) -> float:
        """Host→PIM broadcast of shared data (activations) to every rank."""
        return self.transfer.broadcast_s(nbytes, self.config.num_ranks)

    def scatter_s(self, total_bytes: int) -> float:
        """Host→PIM distribution of per-DPU private data (weights)."""
        return self.transfer.scatter_s(total_bytes, self.config.num_ranks)

    def gather_s(self, total_bytes: int) -> float:
        """PIM→host collection of per-DPU outputs."""
        return self.transfer.gather_s(total_bytes, self.config.num_ranks)
