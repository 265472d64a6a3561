"""Per-event energy model (the paper's Fig. 14 and Fig. 17(b)).

Energy is attributed to the same events :class:`~repro.pim.upmem.ExecutionStats`
counts: DRAM (MRAM) traffic, WRAM traffic, retired DPU instructions and
host-bus bytes, plus static power integrated over the kernel's latency.
The per-event constants are modelling parameters in picojoules — they
default to values representative of a DDR4-class PIM DIMM, and studies
that sweep them (e.g. a low-power WRAM variant) just construct a new
:class:`EnergyModel`.

Example
-------
Attribute energy to a hand-built stats record (2 DPUs, 1000 lookups of
12 instructions each, 4 KB of DMA traffic, 8 KB over the host bus):

>>> from repro.pim.energy import EnergyModel
>>> from repro.pim.upmem import ExecutionStats
>>> stats = ExecutionStats(kernel="lut_gemm", n_lookups=1000,
...                        n_instructions=12000, dma_bytes=4096,
...                        host_bytes=8192, n_dpus_used=2)
>>> model = EnergyModel()
>>> breakdown = model.breakdown(stats)
>>> int(breakdown.compute_pj)       # 2 DPUs x 12000 instr x 10 pJ
240000
>>> int(breakdown.dram_pj)          # 2 DPUs x 4096 B x 25 pJ/B
204800
>>> int(breakdown.host_pj)          # 8192 B x 150 pJ/B (bus, not per-DPU)
1228800
>>> breakdown.static_pj             # no latency recorded -> no static term
0.0
>>> sorted(breakdown.as_dict())
['compute', 'dram', 'host', 'static', 'wram']

Doubling an event constant scales only its component:

>>> hot = EnergyModel(instruction_pj=20.0)
>>> int(hot.breakdown(stats).compute_pj)
480000
>>> int(hot.breakdown(stats).dram_pj)
204800
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pim.upmem import ExecutionStats

__all__ = ["EnergyModel", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component for one kernel invocation, in picojoules."""

    dram_pj: float = 0.0
    wram_pj: float = 0.0
    compute_pj: float = 0.0
    host_pj: float = 0.0
    static_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Sum of every component, in picojoules."""
        return self.dram_pj + self.wram_pj + self.compute_pj + self.host_pj + self.static_pj

    @property
    def total_j(self) -> float:
        """Sum of every component, in joules."""
        return self.total_pj * 1e-12

    def as_dict(self) -> dict:
        """Per-component picojoules keyed by component name."""
        return {
            "dram": self.dram_pj,
            "wram": self.wram_pj,
            "compute": self.compute_pj,
            "host": self.host_pj,
            "static": self.static_pj,
        }


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy constants.

    Attributes
    ----------
    dram_pj_per_byte:
        Reading or writing one MRAM byte (row activation amortised in;
        the explicit activation surcharge below captures locality).
    dram_pj_per_activation:
        Surcharge per row activation, so streaming patterns with poor
        row-buffer locality cost more (tracked via ``dram_activations``).
    wram_pj_per_byte:
        SRAM access energy; LUT lookups and operand reads hit WRAM.
    instruction_pj:
        Energy per retired DPU instruction.
    host_pj_per_byte:
        Moving one byte over the host memory bus.
    static_w_per_dpu:
        Static (leakage + clock) power per active DPU, integrated over
        the kernel's device time.
    wram_bytes_per_lookup:
        WRAM bytes touched by one fused lookup: one canonical entry
        (4 B), one reordering entry (1 B) and an accumulator read +
        write (4 B each), matching the entry widths in
        :class:`~repro.pim.timing.UpmemTimings`.
    """

    dram_pj_per_byte: float = 25.0
    dram_pj_per_activation: float = 909.0
    wram_pj_per_byte: float = 1.2
    instruction_pj: float = 10.0
    host_pj_per_byte: float = 150.0
    static_w_per_dpu: float = 0.08
    wram_bytes_per_lookup: int = 13

    def breakdown(self, stats: ExecutionStats) -> EnergyBreakdown:
        """Attribute energy to the events recorded in ``stats``.

        Latency-side fields in ``stats`` are critical-path values, while
        the count fields are per-DPU; the grid is balanced, so totals are
        scaled by ``n_dpus_used``.
        """
        n_dpus = max(stats.n_dpus_used, 1)
        dram_pj = n_dpus * (
            stats.dma_bytes * self.dram_pj_per_byte
            + stats.dram_activations * self.dram_pj_per_activation
        )
        # Every DMA'd byte lands in WRAM, and each lookup touches the
        # canonical entry, the reordering entry and the accumulator there.
        wram_pj = n_dpus * (
            (stats.dma_bytes + self.wram_bytes_per_lookup * stats.n_lookups)
            * self.wram_pj_per_byte
        )
        compute_pj = n_dpus * stats.n_instructions * self.instruction_pj
        host_pj = stats.host_bytes * self.host_pj_per_byte
        static_pj = n_dpus * self.static_w_per_dpu * stats.device_s * 1e12
        return EnergyBreakdown(
            dram_pj=dram_pj,
            wram_pj=wram_pj,
            compute_pj=compute_pj,
            host_pj=host_pj,
            static_pj=static_pj,
        )

    def total_j(self, stats: ExecutionStats) -> float:
        """Total energy in joules; same terms as :meth:`breakdown`, fused.

        Kept as explicit arithmetic (no :class:`EnergyBreakdown`
        construction) because the serving simulator calls this once per
        memoised cost entry; ``tests/test_pim_substrate.py`` pins the
        equivalence with :meth:`breakdown`.
        """
        n_dpus = max(stats.n_dpus_used, 1)
        total_pj = (
            n_dpus
            * (
                stats.dma_bytes * self.dram_pj_per_byte
                + stats.dram_activations * self.dram_pj_per_activation
                + (stats.dma_bytes + self.wram_bytes_per_lookup * stats.n_lookups)
                * self.wram_pj_per_byte
                + stats.n_instructions * self.instruction_pj
                + self.static_w_per_dpu * stats.device_s * 1e12
            )
            + stats.host_bytes * self.host_pj_per_byte
        )
        return total_pj * 1e-12
