"""Bank-level PIM substrate (HBM-PIM style) for Section VI-K.

Where the UPMEM model in :mod:`repro.pim.upmem` places a programmable
core next to each bank, bank-level PIM places a fixed-function unit in
the bank's column path that consumes one DRAM burst per command.  The
paper's Section VI-K compares two such units on this substrate:

* a **SIMD MAC** unit (the HBM-PIM design point): ``simd_lanes``
  multipliers consume one burst of weights per column command, so the
  command count scales with the *dequantized* operand width regardless of
  how few bits the codes carry, and
* a **canonical-LUT** unit (the paper's proposal carried down to the
  bank level): the burst is interpreted as packed low-bit codes and each
  command resolves ``simd_lanes × (8 / weight_bits)`` products by table
  lookup, after a one-time staging of the canonical LUT into the unit's
  latches.

Both are costed with command-level :class:`DramTimings` (tCCD between
column commands, tRCD/tRP around row conflicts), independent from the
DPU-side :class:`~repro.pim.timing.UpmemTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BankLevelPim", "BankPimConfig", "DramTimings", "BankPimResult"]


@dataclass(frozen=True)
class DramTimings:
    """Command-level DRAM timing parameters for a bank-level PIM stack."""

    clock_hz: float = 1.2e9
    tCCD: int = 2  # cycles between back-to-back column commands
    tRCD: int = 14  # activate → column command
    tRP: int = 14  # precharge before activating a new row
    burst_bytes: int = 32  # data returned per column command
    row_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if min(self.tCCD, self.tRCD, self.tRP) < 0:
            raise ValueError("timing parameters must be non-negative")
        if self.burst_bytes <= 0 or self.row_bytes < self.burst_bytes:
            raise ValueError("row_bytes must be >= burst_bytes > 0")

    @property
    def cycle_time_s(self) -> float:
        """Seconds per DRAM clock cycle."""
        return 1.0 / self.clock_hz

    def stream_time_s(self, nbytes: int) -> float:
        """Time to stream ``nbytes`` through the column path of one bank."""
        if nbytes <= 0:
            return 0.0
        bursts = -(-nbytes // self.burst_bytes)
        rows = -(-nbytes // self.row_bytes)
        cycles = bursts * self.tCCD + rows * (self.tRCD + self.tRP)
        return cycles * self.cycle_time_s


@dataclass(frozen=True)
class BankPimConfig:
    """Shape of the bank-level PIM deployment."""

    num_banks: int = 128
    simd_lanes: int = 16
    unit: str = "mac"  # "mac" (HBM-PIM SIMD MAC) or "lut" (canonical LUT)
    operand_bytes: int = 2  # dequantized operand width the MAC unit computes on
    lut_entry_bytes: int = 2
    timings: DramTimings = field(default_factory=DramTimings)

    def __post_init__(self) -> None:
        if self.unit not in ("mac", "lut"):
            raise ValueError(f"unit must be 'mac' or 'lut', got {self.unit!r}")
        if self.num_banks < 1 or self.simd_lanes < 1:
            raise ValueError("num_banks and simd_lanes must be >= 1")
        if self.operand_bytes < 1 or self.lut_entry_bytes < 1:
            raise ValueError("operand widths must be >= 1 byte")


@dataclass
class BankPimResult:
    """Latency decomposition for one bank-level GEMM."""

    unit: str
    lut_stage_s: float
    stream_s: float
    n_commands: int
    n_banks_used: int

    @property
    def total_s(self) -> float:
        """LUT staging plus operand streaming time."""
        return self.lut_stage_s + self.stream_s


class BankLevelPim:
    """Analytical GEMM cost on a bank-level PIM stack."""

    def __init__(self, config: BankPimConfig | None = None) -> None:
        self.config = config if config is not None else BankPimConfig()

    def _elements_per_command(self, weight_bits: int) -> int:
        cfg = self.config
        if cfg.unit == "mac":
            # The MAC unit multiplies dequantized operands: one burst feeds
            # simd_lanes operands of operand_bytes each, whatever the
            # original code width was.
            return cfg.simd_lanes
        # The LUT unit consumes packed codes straight from the burst.
        packing = max(1, 8 // weight_bits)
        return cfg.simd_lanes * packing

    def gemm_latency(
        self, m: int, k: int, n: int, weight_bits: int = 8, activation_bits: int = 8
    ) -> BankPimResult:
        """Cost an ``[m, k] × [k, n]`` GEMM partitioned column-wise over banks.

        Returns the critical-path bank's latency decomposition.
        """
        if min(m, k, n) < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if weight_bits < 1 or activation_bits < 1:
            raise ValueError("bit widths must be >= 1")
        cfg = self.config
        t = cfg.timings
        if m == 0 or k == 0 or n == 0:
            return BankPimResult(cfg.unit, 0.0, 0.0, 0, 0)

        n_banks = min(cfg.num_banks, n)
        cols_per_bank = -(-n // n_banks)

        lut_stage_s = 0.0
        if cfg.unit == "lut":
            # One-time staging of the canonical LUT into the unit's latches.
            entries = 2**weight_bits * 2**activation_bits
            lut_stage_s = t.stream_time_s(entries * cfg.lut_entry_bytes)

        per_cmd = self._elements_per_command(weight_bits)
        macs = m * k * cols_per_bank
        n_commands = -(-macs // per_cmd)
        if cfg.unit == "mac":
            bytes_streamed = n_commands * cfg.simd_lanes * cfg.operand_bytes
        else:
            bytes_streamed = n_commands * t.burst_bytes
        stream_s = t.stream_time_s(bytes_streamed)
        return BankPimResult(cfg.unit, lut_stage_s, stream_s, n_commands, n_banks)
