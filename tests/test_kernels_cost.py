"""Cost-only GEMM entry points must match the functional kernels exactly."""

import numpy as np
import pytest

import repro.kernels.cost as cost_module
from repro.kernels import (
    gemm_cost,
    batch_gemm_cost,
    lut_gemm,
    naive_pim_gemm,
    quantize_gemm_operands,
    software_reorder_gemm,
)
from repro.kernels.lut import CanonicalLut, ReorderingLut
from repro.pim.buffer import BufferOverflowError
from repro.pim.upmem import UpmemConfig, UpmemSystem
from repro.quant import get_scheme, list_schemes

KERNEL_FNS = {
    "lut_gemm": lut_gemm,
    "software_reorder_gemm": software_reorder_gemm,
    "naive_pim_gemm": naive_pim_gemm,
}


@pytest.mark.parametrize("scheme_name", ["W1A3", "W2A2", "W4A4"])
@pytest.mark.parametrize("kernel", sorted(KERNEL_FNS))
def test_cost_matches_functional_kernel(scheme_name, kernel):
    scheme = get_scheme(scheme_name)
    rng = np.random.default_rng(7)
    a_q, w_q = quantize_gemm_operands(
        rng.normal(size=(5, 24)), rng.normal(size=(24, 10)), scheme
    )
    functional = KERNEL_FNS[kernel](a_q, w_q).stats
    analytical = gemm_cost(scheme, 5, 24, 10, kernel=kernel)
    assert analytical == functional


def test_cost_matches_on_multi_rank_system():
    scheme = get_scheme("W1A3")
    system = UpmemSystem(UpmemConfig(num_ranks=4))
    rng = np.random.default_rng(0)
    a_q, w_q = quantize_gemm_operands(
        rng.normal(size=(3, 16)), rng.normal(size=(16, 300)), scheme
    )
    assert gemm_cost(scheme, 3, 16, 300, system=system) == lut_gemm(a_q, w_q, system=system).stats


def test_cost_accepts_scheme_names():
    assert gemm_cost("w1a3", 4, 8, 8) == gemm_cost(get_scheme("W1A3"), 4, 8, 8)


def test_cost_returns_independent_copies():
    first = gemm_cost("W1A3", 4, 8, 8)
    first.compute_s = -1.0
    assert gemm_cost("W1A3", 4, 8, 8).compute_s >= 0.0


def test_cost_zero_dimensions():
    stats = gemm_cost("W1A3", 0, 8, 8)
    assert stats.total_s == 0.0
    assert gemm_cost("W1A3", 4, 8, 0).n_dpus_used == 0


def test_cost_rejects_negative_dimensions_and_bad_kernel():
    with pytest.raises(ValueError):
        gemm_cost("W1A3", -1, 8, 8)
    with pytest.raises(ValueError):
        gemm_cost("W1A3", 4, 8, 8, kernel="fused_gemm")


def test_lut_cost_overflows_for_wide_schemes():
    with pytest.raises(BufferOverflowError):
        gemm_cost("W8A8", 4, 8, 8, kernel="lut_gemm")
    # ...but the naive baseline runs W8A8 fine.
    assert gemm_cost("W8A8", 4, 8, 8, kernel="naive_pim_gemm").n_macs > 0


def test_naive_cost_rejects_wide_and_floating_codecs():
    with pytest.raises(ValueError):
        gemm_cost("W16A16", 4, 8, 8, kernel="naive_pim_gemm")
    with pytest.raises(ValueError):
        gemm_cost("W1A4-FP", 4, 8, 8, kernel="naive_pim_gemm")


def test_floating_scheme_costs_on_lut_kernel():
    scheme = get_scheme("W1A4-FP")
    rng = np.random.default_rng(1)
    a_q, w_q = quantize_gemm_operands(
        rng.normal(size=(3, 8)), rng.normal(size=(8, 6)), scheme
    )
    assert gemm_cost(scheme, 3, 8, 6) == lut_gemm(a_q, w_q).stats


def test_batch_gemm_cost_is_sequential_sum():
    shapes = [("W1A3", 4, 16, 8), ("W4A4", 2, 16, 8)]
    total = batch_gemm_cost(shapes)
    expected = gemm_cost("W1A3", 4, 16, 8) + gemm_cost("W4A4", 2, 16, 8)
    assert total.total_s == pytest.approx(expected.total_s)
    assert total.n_lookups == expected.n_lookups
    assert total.wram_peak_bytes == expected.wram_peak_bytes


# -- LUT reuse across shapes -------------------------------------------------

LUT_KERNELS = ("lut_gemm", "software_reorder_gemm")


def _lut_capable_schemes():
    """Registered schemes whose LUTs fit WRAM on both LUT kernels."""
    system = UpmemSystem()
    free, timings = system.new_local_buffer().bytes_free, system.timings
    names = []
    for name in list_schemes():
        clut, rlut = cost_module._scheme_luts(get_scheme(name), False)
        need = clut.nbytes(timings.lut_entry_bytes)
        need += rlut.nbytes(timings.reorder_entry_bytes)
        if need <= free:
            names.append(name)
    return names


def _clear_cost_caches():
    cost_module._cached_cost.cache_clear()
    cost_module._scheme_luts.cache_clear()


def test_lut_pair_built_once_per_scheme_and_kernel(monkeypatch):
    builds = {"canonical": 0, "reordering": 0}
    canonical_build = CanonicalLut.build.__func__
    reordering_build = ReorderingLut.build.__func__

    def count_canonical(cls, weights, activations):
        builds["canonical"] += 1
        return canonical_build(cls, weights, activations)

    def count_reordering(cls, bits):
        builds["reordering"] += 1
        return reordering_build(cls, bits)

    monkeypatch.setattr(CanonicalLut, "build", classmethod(count_canonical))
    monkeypatch.setattr(ReorderingLut, "build", classmethod(count_reordering))
    _clear_cost_caches()
    schemes = ("W1A3", "W2A2", "W4A4-FP")
    rng = np.random.default_rng(3)
    for _ in range(40):
        m, k, n = (int(x) for x in rng.integers(1, 300, size=3))
        for name in schemes:
            for kernel in LUT_KERNELS:
                gemm_cost(name, m, k, n, kernel=kernel)
    # One canonical LUT per (scheme, kernel); a reordering LUT only for
    # the RC kernel.
    assert builds == {"canonical": 2 * len(schemes), "reordering": len(schemes)}
    _clear_cost_caches()


@pytest.mark.parametrize("kernel", LUT_KERNELS)
def test_reused_luts_still_match_functional_kernels(kernel):
    _clear_cost_caches()
    schemes = _lut_capable_schemes()
    assert {"W1A3", "W2A2", "W4A4"} <= set(schemes)
    # Warm the LUT memo from shapes the checks below never use.
    for name in schemes:
        gemm_cost(name, 1, 3, 5, kernel=kernel)
        gemm_cost(name, 7, 2, 90, kernel=kernel)
    rng = np.random.default_rng(11)
    for name in schemes:
        scheme = get_scheme(name)
        for m, k, n in ((2, 16, 8), (5, 33, 70), (9, 8, 130)):
            a_q, w_q = quantize_gemm_operands(
                rng.normal(size=(m, k)), rng.normal(size=(k, n)), scheme
            )
            functional = KERNEL_FNS[kernel](a_q, w_q).stats
            assert gemm_cost(scheme, m, k, n, kernel=kernel) == functional, (
                name, m, k, n,
            )


@pytest.mark.parametrize("kernel", LUT_KERNELS)
def test_wram_overflow_is_never_cached(kernel):
    _clear_cost_caches()
    for m, k, n in ((4, 8, 8), (1, 768, 768), (16, 64, 3000), (4, 8, 8)):
        assert gemm_cost("W2A2", m, k, n, kernel=kernel).n_lookups > 0
        with pytest.raises(BufferOverflowError):
            gemm_cost("W8A8", m, k, n, kernel=kernel)
