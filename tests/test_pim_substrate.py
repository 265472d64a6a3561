"""Tests for the per-DPU substrate: DramBank, LocalBuffer, DpuProcessor,
TransferModel and EnergyModel."""

import dataclasses

import numpy as np
import pytest

from repro.pim import (
    DEFAULT_TIMINGS,
    DpuProcessor,
    DramBank,
    EnergyModel,
    InstructionCosts,
    LocalBuffer,
    TransferModel,
)
from repro.pim.buffer import BufferOverflowError
from repro.pim.upmem import ExecutionStats


class TestDramBank:
    def test_sequential_stream_activates_each_row_once(self):
        bank = DramBank(capacity_bytes=64 * 1024, row_bytes=8192)
        bank.read(0, 3 * 8192)
        assert bank.stats.activations == 3
        assert bank.stats.row_hits == 0

    def test_repeated_access_to_open_row_hits(self):
        bank = DramBank(row_bytes=8192)
        bank.read(0, 64)
        bank.read(64, 64)
        bank.read(128, 64)
        assert bank.stats.activations == 1
        assert bank.stats.row_hits == 2
        assert bank.stats.row_hit_rate == pytest.approx(2 / 3)

    def test_precharge_forces_reactivation(self):
        bank = DramBank()
        bank.read(0, 8)
        bank.precharge()
        bank.read(0, 8)
        assert bank.stats.activations == 2

    def test_write_tracked_separately(self):
        bank = DramBank()
        bank.write(0, 100)
        assert bank.stats.writes == 1 and bank.stats.bytes_written == 100
        assert bank.stats.reads == 0

    def test_out_of_range_access_rejected(self):
        bank = DramBank(capacity_bytes=1024, row_bytes=256)
        with pytest.raises(ValueError):
            bank.read(1000, 100)

    def test_reset_clears_counters_and_row(self):
        bank = DramBank()
        bank.read(0, 8)
        bank.reset_stats()
        assert bank.stats.reads == 0 and bank.open_row is None


class _WalkingBank(DramBank):
    """Reference bank: the per-row walk the O(1) accounting replaced."""

    def _touch_rows(self, address, nbytes):
        if nbytes == 0:
            return
        first = address // self.row_bytes
        last = (address + nbytes - 1) // self.row_bytes
        for row in range(first, last + 1):
            if row == self.open_row:
                self.stats.row_hits += 1
            else:
                self.stats.row_misses += 1
                self.open_row = row


def _bank_access(rng, bank):
    """One seeded ``(address, nbytes)`` drawn from the edge-case mix."""
    cap, row = bank.capacity_bytes, bank.row_bytes
    kind = rng.integers(7)
    if kind == 0:  # zero-byte access
        return int(rng.integers(cap + 1)), 0
    if kind == 1:  # inside a single row
        start = int(rng.integers(cap // row)) * row
        lo = int(rng.integers(row))
        return start + lo, int(rng.integers(1, row - lo + 1))
    if kind == 2:  # row-aligned, whole rows
        rows = int(rng.integers(1, cap // row + 1))
        start = int(rng.integers(cap // row - rows + 1)) * row
        return start, rows * row
    if kind == 3:  # the last byte of the bank
        return cap - 1, 1
    if kind == 4:  # starts in the open row (a first-row hit), spans on
        base = bank.open_row if bank.open_row is not None else 0
        address = base * row + int(rng.integers(row))
        return address, int(rng.integers(0, cap - address + 1))
    if kind == 5:  # runs to the end of the bank
        address = int(rng.integers(cap))
        return address, cap - address
    address = int(rng.integers(cap))
    return address, int(rng.integers(0, cap - address + 1))


@pytest.mark.parametrize("row_bytes", [1, 64, 8192])
@pytest.mark.parametrize("seed", range(4))
def test_dram_row_accounting_matches_per_row_walk(row_bytes, seed):
    rng = np.random.default_rng(seed)
    cap = row_bytes * 48
    fast = DramBank(capacity_bytes=cap, row_bytes=row_bytes)
    walk = _WalkingBank(capacity_bytes=cap, row_bytes=row_bytes)
    hits = misses = 0
    for _ in range(600):
        op = rng.choice(["read", "write", "read", "write", "precharge", "reset"])
        if op == "precharge":
            fast.precharge()
            walk.precharge()
        elif op == "reset":
            hits += fast.stats.row_hits
            misses += fast.stats.row_misses
            fast.reset_stats()
            walk.reset_stats()
        else:
            address, nbytes = _bank_access(rng, fast)
            assert getattr(fast, op)(address, nbytes) == getattr(walk, op)(
                address, nbytes
            )
        assert fast.open_row == walk.open_row
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(walk.stats)
    # The mix must exercise both outcomes of the first row.
    assert hits + fast.stats.row_hits > 0
    assert misses + fast.stats.row_misses > 0


class TestLocalBuffer:
    def test_capacity_accounting(self):
        buf = LocalBuffer(capacity_bytes=1024)
        buf.alloc("a", 100)
        assert buf.bytes_used == 104  # aligned to 8
        assert buf.bytes_free == 920

    def test_overflow_raises(self):
        buf = LocalBuffer(capacity_bytes=64)
        buf.alloc("a", 60)
        with pytest.raises(BufferOverflowError):
            buf.alloc("b", 8)

    def test_free_returns_capacity(self):
        buf = LocalBuffer(capacity_bytes=128)
        buf.alloc("a", 64)
        buf.free("a")
        assert buf.bytes_used == 0
        buf.alloc("b", 120)  # fits again

    def test_peak_survives_clear(self):
        buf = LocalBuffer(capacity_bytes=256)
        buf.alloc("a", 200)
        buf.clear()
        assert buf.bytes_used == 0
        assert buf.peak_bytes == 200

    def test_duplicate_name_rejected(self):
        buf = LocalBuffer()
        buf.alloc("lut", 16)
        with pytest.raises(KeyError):
            buf.alloc("lut", 16)

    def test_default_is_64kb(self):
        assert LocalBuffer().capacity_bytes == 64 * 1024


class TestDpuProcessor:
    def test_lookup_time_matches_l_local(self):
        proc = DpuProcessor()
        assert proc.lookup_time_s(10) == pytest.approx(
            10 * DEFAULT_TIMINGS.local_lookup_latency_s
        )

    def test_instruction_counter_accumulates(self):
        proc = DpuProcessor()
        proc.lookup_time_s(2)
        proc.mac_time_s(3)
        expected = 2 * proc.costs.lookup + 3 * proc.costs.mac_int8
        assert proc.instructions_retired == expected
        proc.reset()
        assert proc.instructions_retired == 0

    def test_costs_default_from_timings(self):
        proc = DpuProcessor()
        assert proc.costs == InstructionCosts(
            lookup=DEFAULT_TIMINGS.lookup_instructions,
            mac_int8=DEFAULT_TIMINGS.mac_instructions_int8,
            reorder=DEFAULT_TIMINGS.reorder_instructions,
        )

    def test_pipeline_utilization_saturates(self):
        assert DpuProcessor(tasklets=16).pipeline_utilization == 1.0
        assert DpuProcessor(tasklets=1).pipeline_utilization < 0.1

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValueError):
            DpuProcessor().execute(-1)


class TestTransferModel:
    def test_broadcast_pays_one_payload(self):
        tm = TransferModel()
        t1 = tm.broadcast_s(1 << 20, num_ranks=1)
        t4 = TransferModel().broadcast_s(1 << 20, num_ranks=4)
        assert t1 == pytest.approx(t4)

    def test_scatter_scales_with_ranks(self):
        nbytes = 1 << 24
        t1 = TransferModel().scatter_s(nbytes, num_ranks=1)
        t4 = TransferModel().scatter_s(nbytes, num_ranks=4)
        assert t4 < t1

    def test_zero_bytes_is_free(self):
        tm = TransferModel()
        assert tm.broadcast_s(0, 2) == 0.0
        assert tm.gather_s(0, 2) == 0.0

    def test_bytes_moved_recorded(self):
        tm = TransferModel()
        tm.broadcast_s(100, num_ranks=4)
        tm.gather_s(50, num_ranks=4)
        assert tm.bytes_moved == 100 * 4 + 50


class TestEnergyModel:
    def _stats(self):
        return ExecutionStats(
            compute_s=1e-3,
            dma_s=1e-4,
            n_lookups=1000,
            n_instructions=12000,
            dma_bytes=4096,
            host_bytes=8192,
            dram_activations=4,
            n_dpus_used=2,
        )

    def test_breakdown_components(self):
        model = EnergyModel()
        b = model.breakdown(self._stats())
        assert b.compute_pj == pytest.approx(2 * 12000 * model.instruction_pj)
        assert b.host_pj == pytest.approx(8192 * model.host_pj_per_byte)
        assert b.dram_pj == pytest.approx(
            2 * (4096 * model.dram_pj_per_byte + 4 * model.dram_pj_per_activation)
        )
        assert b.total_pj == pytest.approx(
            b.dram_pj + b.wram_pj + b.compute_pj + b.host_pj + b.static_pj
        )

    def test_static_energy_scales_with_device_time(self):
        model = EnergyModel()
        slow = self._stats()
        fast = ExecutionStats(n_dpus_used=2)
        assert model.breakdown(slow).static_pj > model.breakdown(fast).static_pj

    def test_total_j_conversion(self):
        model = EnergyModel()
        b = model.breakdown(self._stats())
        assert model.total_j(self._stats()) == pytest.approx(b.total_pj * 1e-12)

    def test_fused_total_j_matches_breakdown_for_varied_stats(self):
        """total_j is a fused formula (no EnergyBreakdown construction);
        it must track breakdown().total_j across every component mix,
        including the latency-driven static term and custom constants."""
        model = EnergyModel(instruction_pj=17.0, static_w_per_dpu=0.3)
        cases = [
            ExecutionStats(),
            self._stats(),
            ExecutionStats(compute_s=0.5, dma_s=0.25, n_dpus_used=7,
                           n_lookups=123, dma_bytes=999, host_bytes=1,
                           dram_activations=13, n_instructions=456),
        ]
        for stats in cases:
            assert model.total_j(stats) == pytest.approx(
                model.breakdown(stats).total_j, rel=1e-12
            )
