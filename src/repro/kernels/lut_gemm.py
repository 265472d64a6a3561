"""LUT-based GEMM on the UPMEM substrate (the paper's full OP+LC+RC design).

Functional semantics
--------------------
``lut_gemm(activations, weights)`` computes ``A @ W`` for an ``[M, K]``
activation tensor and a ``[K, N]`` weight tensor, both
:class:`~repro.quant.tensor.QuantizedTensor`.  On the device everything
happens in LUT-index space: weights are bit-packed (OP), each packed byte
addresses the reordering LUT (RC) to recover per-element weight indices,
and each (weight index, activation index) pair addresses the canonical
LUT (LC) whose entry is accumulated.  For integer codec pairs the
accumulator is exact ``int64`` and **bit-identical** to the numpy integer
matmul of the zero-point-corrected codes; scales are applied once per
output at the host.

Cost semantics
--------------
Every kernel returns an :class:`~repro.pim.upmem.ExecutionStats` whose
terms are anchored to :class:`~repro.pim.timing.UpmemTimings` exactly as
the paper's analytical model (Section VI-I):

* ``lut_load_s  = n_lut_entry_pairs × L_D``
* ``compute_s   = n_lookups × L_local``
* ``reorder_s   = n_reorders × reorder_latency`` (software-reorder only)
* ``dma_s``     — tiled MRAM→WRAM streaming of packed weights,
  activation codes and output accumulators, tile size set by what is
  left of the 64 KB WRAM after the LUTs are staged,
* ``host_s``    — activation broadcast in, output gather back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.lut import CanonicalLut, ReorderingLut
from repro.kernels.packing import elems_per_byte, pack_codes, unpack_codes
from repro.pim.buffer import WRAM_ALIGNMENT, BufferOverflowError, check_wram_capacity
from repro.pim.dram import DRAM_ROW_BYTES, check_bank_geometry
from repro.pim.timing import UpmemTimings
from repro.pim.transfer import broadcast_time_s, scatter_time_s
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem
from repro.quant.tensor import QuantizedTensor

__all__ = ["GemmResult", "lut_gemm", "quantize_gemm_operands"]


@dataclass
class GemmResult:
    """Numeric output plus the analytical cost of producing it.

    Attributes
    ----------
    output:
        ``[M, N]`` ``float64`` result with scales applied.
    accumulator:
        ``[M, N]`` raw device-side accumulator (``int64`` for integer
        codec pairs — the bit-exactness contract is on this array).
    stats:
        :class:`ExecutionStats` for the critical-path DPU.
    """

    output: np.ndarray
    accumulator: np.ndarray
    stats: ExecutionStats


def quantize_gemm_operands(
    activations: np.ndarray, weights: np.ndarray, scheme
) -> tuple[QuantizedTensor, QuantizedTensor]:
    """Quantize float operands per a :class:`~repro.quant.schemes.QuantScheme`."""
    a_q = scheme.activation_codec.quantize(np.asarray(activations))
    w_q = scheme.weight_codec.quantize(np.asarray(weights))
    return a_q, w_q


def _check_operands(activations: QuantizedTensor, weights: QuantizedTensor) -> tuple[int, int, int]:
    if activations.codes.ndim != 2 or weights.codes.ndim != 2:
        raise ValueError(
            f"expected 2-D operands, got activations {activations.shape} "
            f"and weights {weights.shape}"
        )
    m, k = activations.shape
    kw, n = weights.shape
    if k != kw:
        raise ValueError(f"inner dimensions differ: activations K={k}, weights K={kw}")
    return m, k, n


def _code_bytes(bits: int) -> int:
    """Bytes per unpacked code (activations are stored one code per slot)."""
    return (bits + 7) // 8


def _accumulate(clut: CanonicalLut, w_idx: np.ndarray, a_idx: np.ndarray) -> np.ndarray:
    """Row-at-a-time LUT gather-and-accumulate (the DPU inner loop)."""
    m = a_idx.shape[0]
    n = w_idx.shape[1]
    acc = np.zeros((m, n), dtype=clut.table.dtype)
    for row in range(m):
        entries = clut.table[w_idx, a_idx[row][:, None]]
        acc[row] = entries.sum(axis=0)
    return acc


def _stream_dma(timings: UpmemTimings, dma_bytes: int, wram_tile_bytes: int) -> float:
    """Tiled MRAM→WRAM streaming time for ``dma_bytes`` on one DPU."""
    if dma_bytes <= 0:
        return 0.0
    if wram_tile_bytes <= 0:
        raise ValueError("no WRAM left for streaming tiles")
    n_transfers = -(-dma_bytes // wram_tile_bytes)
    cycles = (
        n_transfers * timings.dma_setup_cycles
        + dma_bytes / timings.dram_to_wram_bytes_per_cycle
    )
    return cycles * timings.cycle_time_s


def _wram_alloc(capacity: int, used: int, name: str, nbytes: int) -> int:
    """WRAM bytes in use after staging ``nbytes`` under ``name``.

    :meth:`~repro.pim.buffer.LocalBuffer.alloc` as arithmetic: the
    request is rounded up to :data:`WRAM_ALIGNMENT` and must fit what is
    still free.
    """
    size = -(-nbytes // WRAM_ALIGNMENT) * WRAM_ALIGNMENT
    if size > capacity - used:
        raise BufferOverflowError(
            f"cannot allocate {size} B for {name!r}: "
            f"{capacity - used} B free of {capacity} B"
        )
    return used + size


def _check_mram_layout(mram_bytes: int, *accesses: int) -> None:
    """Raise as a :class:`~repro.pim.dram.DramBank` would on the first of
    ``accesses`` (run back to back from offset 0) that overflows it."""
    address = 0
    for nbytes in accesses:
        if address + nbytes > mram_bytes:
            raise ValueError(
                f"access [{address}, {address + nbytes}) exceeds bank capacity "
                f"{mram_bytes}"
            )
        address += nbytes


def _finish_stats(
    config: UpmemConfig,
    stats: ExecutionStats,
    wram_free: int,
    weight_bytes: int,
    m: int,
    k: int,
    n: int,
    cols: int,
    act_code_bytes: int,
) -> None:
    """Shared cost tail: DMA streaming, DRAM row activations and host transfers.

    MRAM layout is weights at offset 0, activation codes after, outputs
    after that; every kernel shares it so their stats stay comparable.
    Every term is closed-form: the three accesses are checked against
    the bank capacity in order, as a :class:`~repro.pim.dram.DramBank`
    would, and because they run back to back from offset 0 on a fresh
    bank each spanned row is activated exactly once (an access that
    starts mid-row hits the row its predecessor left open).
    """
    t = config.timings
    act_bytes = m * k * act_code_bytes
    out_bytes = m * cols * t.accumulator_bytes
    stats.dma_bytes = weight_bytes + act_bytes + out_bytes
    stats.dma_s = _stream_dma(t, stats.dma_bytes, wram_free)

    check_bank_geometry(t.mram_bytes)
    _check_mram_layout(t.mram_bytes, weight_bytes, act_bytes, out_bytes)
    stats.dram_activations = -(-stats.dma_bytes // DRAM_ROW_BYTES)

    out_total = m * n * t.accumulator_bytes
    stats.host_bytes = act_bytes * config.num_ranks + out_total
    stats.host_s = broadcast_time_s(t, act_bytes) + scatter_time_s(
        t, out_total, config.num_ranks
    )


def _lut_cost_stats(
    config: UpmemConfig,
    clut: CanonicalLut,
    rlut: ReorderingLut | None,
    weight_bits: int,
    activation_bits: int,
    m: int,
    k: int,
    n: int,
    software_reorder: bool,
) -> ExecutionStats:
    """Analytical cost of one LUT GEMM on the critical-path DPU.

    Shared by the functional kernel (:func:`lut_gemm`) and the cost-only
    entry point (:func:`repro.kernels.cost.gemm_cost`) so model-level
    sweeps are guaranteed to report exactly what the kernel would.
    ``rlut`` must be ``None`` iff ``software_reorder`` is set.  Pure
    arithmetic on ``config``: the LUTs are staged into WRAM with the
    :class:`~repro.pim.buffer.LocalBuffer` rules (see :func:`_wram_alloc`).
    """
    t = config.timings
    stats = ExecutionStats(
        kernel="software_reorder_gemm" if software_reorder else "lut_gemm"
    )
    n_dpus, cols = config.partition(n)
    stats.n_dpus_used = n_dpus
    if n_dpus == 0 or m == 0 or k == 0:
        return stats

    check_wram_capacity(t.wram_bytes)
    wram = t.wram_bytes
    clut_bytes = clut.nbytes(t.lut_entry_bytes)
    lut_bytes = clut_bytes
    if not software_reorder:
        rlut_bytes = rlut.nbytes(t.reorder_entry_bytes)
        lut_bytes += rlut_bytes
    if lut_bytes > wram:
        raise BufferOverflowError(
            f"the {weight_bits}-bit x {activation_bits}-bit LUTs need "
            f"{lut_bytes} B but only {wram} B of WRAM are free; "
            f"this scheme cannot run on the LUT kernel (use naive_pim_gemm "
            f"or a narrower configuration)"
        )
    staged = _wram_alloc(wram, 0, "canonical_lut", clut_bytes)
    stats.n_lut_entry_pairs = clut.num_entries
    if not software_reorder:
        staged = _wram_alloc(wram, staged, "reordering_lut", rlut_bytes)
        # Both LUTs are staged from DRAM entry by entry at L_D each, so
        # the loads sum (the tables are different sizes and cannot be
        # fetched pairwise).
        stats.n_lut_entry_pairs = clut.num_entries + rlut.num_entries
    stats.lut_load_s = stats.n_lut_entry_pairs * t.dram_entry_load_latency_s
    stats.wram_peak_bytes = staged

    stats.n_lookups = m * k * cols
    stats.compute_s = stats.n_lookups * t.local_lookup_latency_s
    stats.n_instructions = stats.n_lookups * t.lookup_instructions
    if software_reorder:
        stats.n_reorders = stats.n_lookups
        stats.reorder_s = stats.n_reorders * t.reorder_latency_s
        stats.n_instructions += stats.n_reorders * t.reorder_instructions

    kb = -(-k // elems_per_byte(weight_bits))
    weight_bytes = kb * cols
    _finish_stats(
        config, stats, wram - staged, weight_bytes, m, k, n, cols,
        _code_bytes(activation_bits),
    )
    return stats


def lut_gemm(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    system: UpmemSystem | None = None,
    software_reorder: bool = False,
) -> GemmResult:
    """LUT-based GEMM; the paper's LoCaLUT kernel.

    Parameters
    ----------
    activations, weights:
        ``[M, K]`` and ``[K, N]`` quantized tensors.
    system:
        UPMEM deployment to cost against; defaults to one rank.
    software_reorder:
        Ablation switch (OP+LC without RC): packed weights are decoded
        with shift/mask arithmetic instead of the reordering LUT, adding
        ``reorder_latency`` per lookup and dropping the reordering LUT
        from WRAM.  Numerics are unchanged.
    """
    system = system if system is not None else UpmemSystem()
    m, k, n = _check_operands(activations, weights)

    # --- functional path -------------------------------------------------
    a_idx = activations.indices()
    w_idx_ref = weights.indices()
    packed = pack_codes(w_idx_ref, weights.bits)
    if software_reorder:
        rlut = None
        w_idx = unpack_codes(packed, weights.bits, k)
    else:
        rlut = ReorderingLut.build(weights.bits)
        w_idx = rlut.decode(packed, k)
    clut = CanonicalLut.build(weights, activations)
    acc = _accumulate(clut, w_idx, a_idx)
    output = acc.astype(np.float64) * (activations.scale * weights.scale)

    # --- cost path (critical-path DPU, N partitioned column-wise) --------
    stats = _lut_cost_stats(
        system.config, clut, rlut, weights.bits, activations.bits, m, k, n,
        software_reorder,
    )
    system.transfer.record(stats.host_bytes)
    return GemmResult(output=output, accumulator=acc, stats=stats)
