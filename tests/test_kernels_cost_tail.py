"""The arithmetic GEMM cost tail against the object models it replaced.

The cost-only path computes every :class:`ExecutionStats` field in
closed form: WRAM staging from the aligned LUT sizes, DRAM row
activations of the kernel's three back-to-back accesses, host terms
from the :mod:`repro.pim.transfer` expressions.  The oracle here walks
the modelling objects instead — a :class:`LocalBuffer` that stages the
LUTs, a :class:`DramBank` that sees the three accesses, a
:class:`TransferModel` behind the host terms — and a seeded fuzz over
schemes x kernels x shapes x :class:`UpmemConfig` checks that both
produce the same stats, bit for bit, and the same error type and
message.
"""

import numpy as np
import pytest

import repro.kernels.cost as cost_module
import repro.model.cost as model_cost
from repro.kernels import (
    gemm_cost,
    lut_gemm,
    naive_pim_gemm,
    quantize_gemm_operands,
    software_reorder_gemm,
)
from repro.kernels.baselines import _check_naive_codecs
from repro.kernels.cost import COST_KERNELS
from repro.kernels.lut_gemm import _code_bytes, _wram_alloc
from repro.kernels.packing import elems_per_byte
from repro.model.config import get_model_config
from repro.model.cost import prefill_chunk_stats
from repro.model.policy import SchemePolicy
from repro.pim import buffer as buffer_module
from repro.pim import dram as dram_module
from repro.pim import upmem as upmem_module
from repro.pim.buffer import BufferOverflowError, LocalBuffer
from repro.pim.timing import UpmemTimings
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem
from repro.quant import get_scheme, list_schemes

FUZZ_CASES = 20_000


# -- the object oracle ---------------------------------------------------------


def _oracle_stream_dma(system, dma_bytes, wram_tile_bytes):
    if dma_bytes <= 0:
        return 0.0
    if wram_tile_bytes <= 0:
        raise ValueError("no WRAM left for streaming tiles")
    t = system.timings
    n_transfers = -(-dma_bytes // wram_tile_bytes)
    cycles = n_transfers * t.dma_setup_cycles + dma_bytes / t.dram_to_wram_bytes_per_cycle
    return cycles * t.cycle_time_s


def _oracle_finish(system, stats, buffer, weight_bytes, m, k, n, cols, acb):
    t = system.timings
    act_bytes = m * k * acb
    out_bytes = m * cols * t.accumulator_bytes
    stats.dma_bytes = weight_bytes + act_bytes + out_bytes
    stats.dma_s = _oracle_stream_dma(system, stats.dma_bytes, buffer.bytes_free)
    bank = system.new_dram_bank()
    bank.read(0, weight_bytes)
    bank.read(weight_bytes, act_bytes)
    bank.write(weight_bytes + act_bytes, out_bytes)
    stats.dram_activations = bank.stats.activations
    stats.wram_peak_bytes = buffer.peak_bytes
    out_total = m * n * t.accumulator_bytes
    stats.host_bytes = act_bytes * system.config.num_ranks + out_total
    stats.host_s = system.broadcast_s(act_bytes) + system.gather_s(out_total)


def _oracle_cost(scheme, m, k, n, kernel, config):
    """One GEMM's stats by walking a buffer, a bank and a transfer model."""
    system = UpmemSystem(config)
    t = system.timings
    stats = ExecutionStats(kernel=kernel)
    if kernel == "naive_pim_gemm":
        _check_naive_codecs(scheme.activation_codec, scheme.weight_codec)
    n_dpus, cols = system.partition(n)
    stats.n_dpus_used = n_dpus
    if n_dpus == 0 or m == 0 or k == 0:
        return stats
    if kernel == "naive_pim_gemm":
        stats.n_macs = m * k * cols
        stats.compute_s = stats.n_macs * t.int8_mac_latency_s
        stats.n_instructions = stats.n_macs * t.mac_instructions_int8
        buffer = system.new_local_buffer()
        _oracle_finish(system, stats, buffer, k * cols, m, k, n, cols,
                       _code_bytes(scheme.activation_bits))
        return stats

    software_reorder = kernel == "software_reorder_gemm"
    clut, rlut = cost_module._scheme_luts(scheme, software_reorder)
    buffer = system.new_local_buffer()
    lut_bytes = clut.nbytes(t.lut_entry_bytes)
    if not software_reorder:
        lut_bytes += rlut.nbytes(t.reorder_entry_bytes)
    if lut_bytes > buffer.bytes_free:
        raise BufferOverflowError(
            f"the {scheme.weight_bits}-bit x {scheme.activation_bits}-bit LUTs need "
            f"{lut_bytes} B but only {buffer.bytes_free} B of WRAM are free; "
            f"this scheme cannot run on the LUT kernel (use naive_pim_gemm "
            f"or a narrower configuration)"
        )
    buffer.alloc("canonical_lut", clut.nbytes(t.lut_entry_bytes))
    stats.n_lut_entry_pairs = clut.num_entries
    if not software_reorder:
        buffer.alloc("reordering_lut", rlut.nbytes(t.reorder_entry_bytes))
        stats.n_lut_entry_pairs = clut.num_entries + rlut.num_entries
    stats.lut_load_s = stats.n_lut_entry_pairs * t.dram_entry_load_latency_s
    stats.n_lookups = m * k * cols
    stats.compute_s = stats.n_lookups * t.local_lookup_latency_s
    stats.n_instructions = stats.n_lookups * t.lookup_instructions
    if software_reorder:
        stats.n_reorders = stats.n_lookups
        stats.reorder_s = stats.n_reorders * t.reorder_latency_s
        stats.n_instructions += stats.n_reorders * t.reorder_instructions
    weight_bytes = -(-k // elems_per_byte(scheme.weight_bits)) * cols
    _oracle_finish(system, stats, buffer, weight_bytes, m, k, n, cols,
                   _code_bytes(scheme.activation_bits))
    return stats


def _outcome(fn):
    """``("ok", value)`` or ``(error type, message)`` of one evaluation.

    An :class:`ExecutionStats` value is compared by its field dict.
    """
    try:
        value = fn()
        return "ok", vars(value) if isinstance(value, ExecutionStats) else value
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


# -- the fuzz ------------------------------------------------------------------


def _fuzz_configs():
    """Deployments that reach every branch of the tail.

    Besides rank/DPU shapes and the default timings: WRAM sizes exactly
    at a scheme's LUT staging and one byte under it (no WRAM left for
    streaming tiles; LUTs that do not fit), a small bank (capacity
    errors on each of the three accesses), a bank narrower than one row
    and an empty WRAM.
    """
    configs = [
        UpmemConfig(),
        UpmemConfig(num_ranks=4),
        UpmemConfig(num_ranks=2, dpus_per_rank=3),
        UpmemConfig(num_ranks=1, dpus_per_rank=1),
        UpmemConfig(timings=UpmemTimings(mram_bytes=200_000)),
        UpmemConfig(timings=UpmemTimings(mram_bytes=5_000)),
        UpmemConfig(timings=UpmemTimings(wram_bytes=0)),
        UpmemConfig(timings=UpmemTimings(wram_bytes=100, clock_hz=175e6)),
    ]
    t = UpmemTimings()
    wram_sizes = set()
    for name in ("W1A3", "W2A2", "W4A4"):
        for software_reorder in (False, True):
            clut, rlut = cost_module._scheme_luts(get_scheme(name), software_reorder)
            staged = clut.nbytes(t.lut_entry_bytes)
            if rlut is not None:
                staged += rlut.nbytes(t.reorder_entry_bytes)
            wram_sizes.update((staged - 1, staged))
    for wram in sorted(wram_sizes):
        configs.append(UpmemConfig(timings=UpmemTimings(wram_bytes=wram)))
    return configs


def _fuzz_dim(rng):
    kind = rng.integers(6)
    if kind == 0:
        return 0
    if kind == 1:
        return int(rng.integers(1, 4))
    if kind == 2:
        return int(rng.integers(1, 300))
    if kind == 3:
        return int(rng.integers(300, 5000))
    if kind == 4:
        return int(rng.integers(5000, 20000))
    return int(rng.choice([63, 64, 65, 255, 256, 257, 8191, 8192, 8193]))


def test_arithmetic_tail_matches_object_oracle_on_seeded_fuzz():
    rng = np.random.default_rng(2024)
    schemes = [get_scheme(name) for name in list_schemes()]
    configs = _fuzz_configs()
    seen = set()
    for case in range(FUZZ_CASES):
        scheme = schemes[rng.integers(len(schemes))]
        kernel = COST_KERNELS[rng.integers(len(COST_KERNELS))]
        config = configs[rng.integers(len(configs))]
        m, k, n = (_fuzz_dim(rng) for _ in range(3))
        expected = _outcome(lambda: _oracle_cost(scheme, m, k, n, kernel, config))
        got = _outcome(
            lambda: cost_module._cached_cost.__wrapped__(scheme, m, k, n, kernel, config)
        )
        assert got == expected, (case, scheme.name, kernel, config, m, k, n)
        if expected[0] == "ok":
            seen.add("ok")
        else:
            seen.add((expected[0].__name__, expected[1].split(" ")[0]))
    # Every branch of the tail was reached, errors included.
    assert seen >= {
        "ok",
        ("BufferOverflowError", "the"),  # LUTs larger than WRAM
        ("ValueError", "no"),  # no WRAM left for streaming tiles
        ("ValueError", "access"),  # bank capacity
        ("ValueError", "capacity_bytes"),  # empty WRAM / sub-row bank
        ("ValueError", "naive_pim_gemm"),  # wide codecs on the int8 MAC
        ("ValueError", "integer"),  # minifloat codecs on the int8 MAC
    }, seen


def test_wram_staging_matches_local_buffer():
    # Registered LUTs are 8-byte multiples, so the aligned-allocation
    # overflow is reached here, against LocalBuffer.alloc directly.
    rng = np.random.default_rng(8)
    for _ in range(5000):
        capacity = int(rng.integers(1, 200))
        requests = [("canonical_lut", int(rng.integers(0, 120))),
                    ("reordering_lut", int(rng.integers(0, 120)))]
        buffer = LocalBuffer(capacity_bytes=capacity)
        used = 0
        for name, nbytes in requests:
            expected = _outcome(lambda: buffer.alloc(name, nbytes))
            got = _outcome(lambda: _wram_alloc(capacity, used, name, nbytes))
            if expected[0] == "ok":
                assert got[0] == "ok"
                used = got[1]
                assert (used, used) == (buffer.bytes_used, buffer.peak_bytes)
            else:
                assert got == expected
                break


def test_tail_matches_oracle_at_row_and_capacity_boundaries():
    # Random shapes rarely land the MRAM stream exactly on a row edge or
    # exactly at the bank's end; these do (naive: dma = 2k + 4 at m=1,
    # cols=1, so k = 4094 is one 8 KB row and k = 32766 fills 64 KB).
    scheme = get_scheme("W8A8")
    configs = (
        UpmemConfig(num_ranks=1, dpus_per_rank=1),
        UpmemConfig(num_ranks=1, dpus_per_rank=1,
                    timings=UpmemTimings(mram_bytes=1 << 16)),
    )
    cases = 0
    for config in configs:
        for k in (*range(4088, 4101), *range(8188, 8194), *range(32760, 32772)):
            expected = _outcome(
                lambda: _oracle_cost(scheme, 1, k, 1, "naive_pim_gemm", config))
            got = _outcome(lambda: cost_module._cached_cost.__wrapped__(
                scheme, 1, k, 1, "naive_pim_gemm", config))
            assert got == expected, (config, k)
            cases += expected[0] == "ok" and (2 * k + 4) % 8192 == 0
    assert cases >= 3


@pytest.mark.parametrize("access", range(3))
def test_bank_capacity_error_names_the_failing_access(access):
    # Weights alone, weights plus activations, then the outputs overflow.
    config = UpmemConfig(num_ranks=1, dpus_per_rank=1,
                         timings=UpmemTimings(mram_bytes=1 << 16))
    m, k, n = [(1, 1 << 17, 1), (1 << 8, 1 << 8, 1), (1 << 12, 1, 4)][access]
    scheme = get_scheme("W8A8")
    expected = _outcome(lambda: _oracle_cost(scheme, m, k, n, "naive_pim_gemm", config))
    assert expected[0] is ValueError and "exceeds bank capacity" in expected[1]
    system = UpmemSystem(config)
    with pytest.raises(ValueError) as info:
        gemm_cost(scheme, m, k, n, system=system, kernel="naive_pim_gemm")
    assert str(info.value) == expected[1]


def test_naive_range_sums_read_the_row_width_without_a_bank(monkeypatch):
    _forbid_modelling_objects(monkeypatch)
    cost_module._cached_naive_sum_n.cache_clear()
    cost_module._cached_naive_sum_k.cache_clear()
    config = UpmemConfig(num_ranks=2)
    by_n = cost_module.naive_gemm_cost_sum_n("W8A8", 12, 64, 1, 300, system=None)
    by_k = cost_module._cached_naive_sum_k(get_scheme("W8A8"), 12, 64, 1, 300, config)
    assert by_n.dram_activations > 0 and by_k.dram_activations > 0
    small = UpmemConfig(timings=UpmemTimings(mram_bytes=4096))
    with pytest.raises(ValueError, match="capacity_bytes must be at least one row"):
        cost_module._cached_naive_sum_n(get_scheme("W8A8"), 1, 1, 1, 2, small)


# Shapes for the range sums: (m, fixed dim, lo, hi) with empty ranges,
# zero dimensions, ranges crossing the total DPU count on the small
# deployments and ranges whose later terms overflow a small bank.
NAIVE_SUM_SHAPES = [
    (2, 8, 1, 1), (0, 8, 1, 5), (4, 0, 3, 9), (12, 64, 5, 4),
    (12, 64, 1, 40), (1, 1000, 1, 40), (3, 2000, 1, 30), (12, 3, 300, 420),
]


def _naive_sum_configs():
    """The fuzz deployments plus a one-DPU bank of two rows, where a
    range's later terms overflow the bank."""
    return _fuzz_configs() + [
        UpmemConfig(num_ranks=1, dpus_per_rank=1,
                    timings=UpmemTimings(mram_bytes=1 << 14)),
    ]


def _loop_outcome(scheme, m, fixed, lo, hi, axis, config):
    """The per-call loop a naive range sum collapses, as an outcome."""
    system = UpmemSystem(config)
    total = ExecutionStats(kernel="naive_pim_gemm")
    try:
        for x in range(lo, hi + 1):
            k, n = (fixed, x) if axis == "n" else (x, fixed)
            total = total + gemm_cost(scheme, m, k, n, system=system,
                                      kernel="naive_pim_gemm")
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return "ok", total


@pytest.mark.parametrize("axis", ["n", "k"])
def test_naive_range_sums_match_the_per_call_loop_on_degenerate_configs(axis):
    summed = (cost_module.naive_gemm_cost_sum_n if axis == "n"
              else cost_module.naive_gemm_cost_sum_k)
    seen = set()
    for config in _naive_sum_configs():
        for m, fixed, lo, hi in NAIVE_SUM_SHAPES:
            case = (config, m, fixed, lo, hi)
            expected = _loop_outcome("W8A8", m, fixed, lo, hi, axis, config)
            try:
                got = ("ok", summed("W8A8", m, fixed, lo, hi,
                                    system=UpmemSystem(config)))
            except Exception as exc:  # noqa: BLE001
                got = (type(exc), str(exc))
            if expected[0] != "ok":
                assert got == expected, case
                seen.add(expected[1].split(" ")[0])
                continue
            assert got[0] == "ok", (case, got)
            loop, closed = expected[1], got[1]
            for name, value in vars(loop).items():
                if isinstance(value, float):
                    assert closed.allclose(loop), (case, name)
                else:
                    assert getattr(closed, name) == value, (case, name)
            seen.add("ok")
    # Empty WRAM, a sub-row bank and an overflowing later term were all hit.
    assert seen >= {"ok", "capacity_bytes", "access"}, seen


def test_naive_range_sum_on_empty_wram_raises_the_per_call_error():
    system = UpmemSystem(UpmemConfig(timings=UpmemTimings(wram_bytes=0)))
    for summed in (cost_module.naive_gemm_cost_sum_n,
                   cost_module.naive_gemm_cost_sum_k):
        with pytest.raises(ValueError, match="capacity_bytes must be positive"):
            summed("W8A8", 2, 8, 1, 1, system=system)


# -- structure: no modelling objects on the cost-only path ---------------------


def _forbid_modelling_objects(monkeypatch):
    """Make building a bank, a buffer or a system fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("the cost-only path built a modelling object")

    monkeypatch.setattr(dram_module.DramBank, "__post_init__", refuse)
    monkeypatch.setattr(buffer_module.LocalBuffer, "__init__", refuse)
    monkeypatch.setattr(upmem_module.UpmemSystem, "__init__", refuse)


def _clear_cost_memos():
    cost_module._cached_cost.cache_clear()
    cost_module._scheme_luts.cache_clear()
    model_cost._block_weight_stats.cache_clear()


def test_cold_cost_fills_build_no_bank_buffer_or_system(monkeypatch):
    system = UpmemSystem(UpmemConfig(num_ranks=2))
    model = get_model_config("gpt-125m")
    policies = (
        SchemePolicy("W4A4"),
        SchemePolicy("W1A3", layer_overrides={2: "W2A2"}),
    )
    _clear_cost_memos()
    _forbid_modelling_objects(monkeypatch)
    for kernel in COST_KERNELS:
        for name in ("W1A3", "W4A4", "W4A4-FP"):
            if kernel == "naive_pim_gemm" and name == "W4A4-FP":
                continue
            assert gemm_cost(name, 7, 96, 300, system=system, kernel=kernel).n_dpus_used
            assert gemm_cost(name, 5, 33, 70, kernel=kernel).n_dpus_used
        for policy in policies:
            stats = prefill_chunk_stats(model, policy, 1, 12, 9, system=system,
                                        kernel=kernel)
            assert stats.total_s > 0
    _clear_cost_memos()


@pytest.mark.parametrize(
    "fn, kernel",
    [(lut_gemm, "lut_gemm"), (software_reorder_gemm, "software_reorder_gemm"),
     (naive_pim_gemm, "naive_pim_gemm")],
)
def test_functional_kernels_still_count_host_bytes_on_the_system(fn, kernel):
    rng = np.random.default_rng(4)
    scheme = get_scheme("W2A2")
    system = UpmemSystem(UpmemConfig(num_ranks=3))
    expected = 0
    for m, k, n in ((4, 16, 8), (3, 40, 250), (2, 5, 1)):
        a_q, w_q = quantize_gemm_operands(
            rng.normal(size=(m, k)), rng.normal(size=(k, n)), scheme
        )
        stats = fn(a_q, w_q, system=system).stats
        expected += stats.host_bytes
        assert stats == gemm_cost(scheme, m, k, n, system=system, kernel=kernel)
        assert system.transfer.bytes_moved == expected
    # Activations are broadcast to every rank, outputs gathered once.
    assert expected == sum(
        m * k * 3 + m * n * 4 for m, k, n in ((4, 16, 8), (3, 40, 250), (2, 5, 1))
    )

