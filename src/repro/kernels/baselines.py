"""Baseline kernels for the paper's OP / LC / RC ablation.

The paper builds its design up from a naive port in three optimisation
steps — operand packing (OP), LUT compute (LC) and reordering-LUT
conversion (RC) — and reports each rung's latency.  The rungs map to
kernels as:

=====================  ====  ====  ====
kernel                  OP    LC    RC
=====================  ====  ====  ====
``naive_pim_gemm``      --    --    --
``software_reorder``    x     x     --
``lut_gemm``            x     x     x
=====================  ====  ====  ====

All three produce bit-identical accumulators (the optimisations are
performance-only), so any pair can be cross-checked numerically while
their :class:`~repro.pim.upmem.ExecutionStats` expose the latency deltas.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.lut_gemm import (
    GemmResult,
    _check_operands,
    _code_bytes,
    _finish_stats,
    lut_gemm,
)
from repro.pim.buffer import check_wram_capacity
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem
from repro.quant.tensor import QuantizedTensor

__all__ = ["naive_pim_gemm", "software_reorder_gemm", "ablation_sweep"]


def _check_naive_codecs(activation_codec, weight_codec) -> None:
    """Validate that both codecs fit the DPU's native 8-bit multiplier."""
    if activation_codec.bits > 8 or weight_codec.bits > 8:
        raise ValueError("naive_pim_gemm models the native 8-bit multiplier")
    if getattr(activation_codec, "is_floating", False) or getattr(
        weight_codec, "is_floating", False
    ):
        raise ValueError("integer baseline cannot consume minifloat operands")


def _naive_cost_stats(
    config: UpmemConfig, activation_bits: int, m: int, k: int, n: int
) -> ExecutionStats:
    """Analytical cost of the naive int8-MAC baseline on the critical DPU.

    Shared by :func:`naive_pim_gemm` and the cost-only entry point
    (:func:`repro.kernels.cost.gemm_cost`), mirroring
    :func:`repro.kernels.lut_gemm._lut_cost_stats`; pure arithmetic on
    ``config``.  No LUT is staged, so the whole WRAM tiles the streams.
    """
    t = config.timings
    stats = ExecutionStats(kernel="naive_pim_gemm")
    n_dpus, cols = config.partition(n)
    stats.n_dpus_used = n_dpus
    if n_dpus == 0 or m == 0 or k == 0:
        return stats

    stats.n_macs = m * k * cols
    stats.compute_s = stats.n_macs * t.int8_mac_latency_s
    stats.n_instructions = stats.n_macs * t.mac_instructions_int8

    check_wram_capacity(t.wram_bytes)
    weight_bytes = k * cols  # one byte per unpacked weight
    _finish_stats(
        config, stats, t.wram_bytes, weight_bytes, m, k, n, cols,
        _code_bytes(activation_bits),
    )
    return stats


def naive_pim_gemm(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    system: UpmemSystem | None = None,
) -> GemmResult:
    """Naive PIM baseline: unpacked operands, native int8 MACs, no LUTs.

    Each weight occupies a full byte in MRAM (no OP) and every product is
    computed with the DPU's 8-bit multiplier (no LC), which is also why
    this baseline does not extend past 8-bit codes.
    """
    system = system if system is not None else UpmemSystem()
    m, k, n = _check_operands(activations, weights)
    _check_naive_codecs(activations.codec, weights.codec)

    a_int = activations.values_per_index().astype(np.int64)[activations.indices()]
    w_int = weights.values_per_index().astype(np.int64)[weights.indices()]
    acc = a_int @ w_int
    output = acc.astype(np.float64) * (activations.scale * weights.scale)

    stats = _naive_cost_stats(system.config, activations.bits, m, k, n)
    system.transfer.record(stats.host_bytes)
    return GemmResult(output=output, accumulator=acc, stats=stats)


def software_reorder_gemm(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    system: UpmemSystem | None = None,
) -> GemmResult:
    """OP+LC without RC: packed weights decoded by shift/mask per lookup."""
    return lut_gemm(activations, weights, system=system, software_reorder=True)


def ablation_sweep(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    system: UpmemSystem | None = None,
) -> dict:
    """Run all three rungs; returns ``{kernel_name: GemmResult}``.

    The returned stats reproduce the paper's optimisation-breakdown bars
    (naive → +OP+LC → +RC) for one GEMM shape.
    """
    results = {}
    for fn in (naive_pim_gemm, software_reorder_gemm, lut_gemm):
        res = fn(activations, weights, system=system)
        results[res.stats.kernel] = res
    return results
