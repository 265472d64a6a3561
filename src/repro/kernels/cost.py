"""Cost-only GEMM entry points for model-level sweeps.

The functional kernels in :mod:`repro.kernels.lut_gemm` and
:mod:`repro.kernels.baselines` materialise real operand arrays, which is
what the bit-exactness tests need but is far too slow for sweeping whole
transformer models (a single GPT-6.7B FFN projection is a
``[M, 4096] x [4096, 16384]`` GEMM).  :func:`gemm_cost` produces the
*identical* :class:`~repro.pim.upmem.ExecutionStats` from just the GEMM
shape and the quantization scheme: it builds LUT objects with the same
builders the kernel uses and routes them through the very same shared
cost functions (``_lut_cost_stats`` / ``_naive_cost_stats``), so
consistency with the functional kernels is structural, not coincidental.
Those functions share one cost tail that is pure arithmetic on the
:class:`~repro.pim.upmem.UpmemConfig`: WRAM staging follows the
8-byte-aligned LUT sizes, the DRAM row activations of the kernel's
three back-to-back accesses have a closed form, and the host terms are
the :mod:`repro.pim.transfer` expressions.  No
:class:`~repro.pim.dram.DramBank`, :class:`~repro.pim.buffer.LocalBuffer`
or :class:`~repro.pim.upmem.UpmemSystem` is built; those stay as the
reference models the tests hold the tail to.
The LUTs depend only on the scheme's codecs, so each (scheme, kernel)
pair builds its tables once and every GEMM shape reads them; the
per-shape results are memoised on top.  Errors are never memoised, so
the WRAM-overflow check runs on every call for a scheme whose LUTs do
not fit.

Example
-------
>>> from repro.kernels.cost import gemm_cost
>>> stats = gemm_cost("W1A3", m=16, k=768, n=768)
>>> stats.kernel
'lut_gemm'
>>> stats.n_lookups == 16 * 768 * 12  # 768 columns over 64 DPUs
True
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Tuple, Union

import numpy as np

from repro.kernels.baselines import _check_naive_codecs, _naive_cost_stats
from repro.kernels.lut import CanonicalLut, ReorderingLut
from repro.kernels.lut_gemm import _check_mram_layout, _code_bytes, _lut_cost_stats
from repro.pim.buffer import check_wram_capacity
from repro.pim.dram import DRAM_ROW_BYTES, check_bank_geometry
from repro.pim.upmem import ExecutionStats, UpmemConfig, UpmemSystem
from repro.quant.schemes import QuantScheme, resolve_scheme
from repro.quant.tensor import QuantizedTensor

__all__ = [
    "COST_KERNELS",
    "gemm_cost",
    "batch_gemm_cost",
    "naive_gemm_cost_sum_n",
    "naive_gemm_cost_sum_k",
]

#: Kernel names accepted by :func:`gemm_cost`, ordered as the paper's
#: optimisation ladder (naive -> +OP+LC -> +RC).
COST_KERNELS = ("naive_pim_gemm", "software_reorder_gemm", "lut_gemm")

SchemeLike = Union[str, QuantScheme]
Shape = Tuple[SchemeLike, int, int, int]


def _dummy_operands(scheme: QuantScheme) -> tuple[QuantizedTensor, QuantizedTensor]:
    """Empty tensors carrying the scheme's codecs (for LUT construction).

    LUT sizing and entry values only depend on the codecs, never on the
    actual codes, so zero-element tensors suffice.
    """
    empty = np.zeros((0,), dtype=np.int64)
    a = QuantizedTensor(codes=empty, scale=1.0, zero_point=0, codec=scheme.activation_codec)
    w = QuantizedTensor(codes=empty, scale=1.0, zero_point=0, codec=scheme.weight_codec)
    return a, w


@lru_cache(maxsize=64)
def _scheme_luts(
    scheme: QuantScheme, software_reorder: bool
) -> tuple[CanonicalLut, ReorderingLut | None]:
    """The scheme's canonical and reordering LUTs, built once per kernel.

    The tables depend only on the codecs, never on the GEMM shape, so
    every shape costed under one (scheme, kernel) reads the same pair.
    The reordering LUT is ``None`` for the software-reorder kernel.
    """
    activations, weights = _dummy_operands(scheme)
    rlut = None if software_reorder else ReorderingLut.build(scheme.weight_bits)
    return CanonicalLut.build(weights, activations), rlut


@lru_cache(maxsize=65536)
def _cached_cost(
    scheme: QuantScheme, m: int, k: int, n: int, kernel: str, config: UpmemConfig
) -> ExecutionStats:
    """Memoised cost computation (schemes and configs are frozen/hashable)."""
    if kernel == "naive_pim_gemm":
        _check_naive_codecs(scheme.activation_codec, scheme.weight_codec)
        return _naive_cost_stats(config, scheme.activation_bits, m, k, n)
    software_reorder = kernel == "software_reorder_gemm"
    clut, rlut = _scheme_luts(scheme, software_reorder)
    return _lut_cost_stats(
        config,
        clut,
        rlut,
        scheme.weight_bits,
        scheme.activation_bits,
        m,
        k,
        n,
        software_reorder,
    )


def check_kernel(kernel: str) -> None:
    """Reject a kernel name outside :data:`COST_KERNELS`."""
    if kernel not in COST_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {COST_KERNELS}")


def check_gemm_dims(m: int, k: int, n: int) -> None:
    """Reject a GEMM shape with a negative dimension."""
    if m < 0 or k < 0 or n < 0:
        raise ValueError(f"GEMM dimensions must be non-negative, got {(m, k, n)}")


def gemm_cost(
    scheme: SchemeLike,
    m: int,
    k: int,
    n: int,
    system: UpmemSystem | None = None,
    kernel: str = "lut_gemm",
) -> ExecutionStats:
    """Analytical :class:`ExecutionStats` for one ``[m, k] x [k, n]`` GEMM.

    Parameters
    ----------
    scheme:
        A :class:`~repro.quant.schemes.QuantScheme` or its name
        (e.g. ``"W1A3"``).
    m, k, n:
        GEMM shape: activations ``[m, k]``, weights ``[k, n]``.
    system:
        UPMEM deployment to cost against; defaults to one rank.
    kernel:
        One of :data:`COST_KERNELS`.

    Raises
    ------
    BufferOverflowError
        When the scheme's LUTs do not fit the 64 KB WRAM (LUT kernels).
    ValueError
        For shapes with negative dimensions, unknown kernel names, or
        schemes the naive int8 baseline cannot run.

    Notes
    -----
    Only ``system.config`` is consulted (results are memoised per
    config) and every field is computed in closed form, without
    modelling objects.  Unlike the functional kernels, which add each
    call's ``stats.host_bytes`` to ``system.transfer.bytes_moved``, this
    path does not mutate the caller's system; host-bus traffic is still
    fully reported per call via ``stats.host_bytes``.

    Example
    -------
    >>> from repro.kernels import lut_gemm, quantize_gemm_operands
    >>> from repro.quant import get_scheme
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> a, w = quantize_gemm_operands(
    ...     rng.normal(size=(4, 32)), rng.normal(size=(32, 16)), get_scheme("W2A2")
    ... )
    >>> gemm_cost("W2A2", 4, 32, 16) == lut_gemm(a, w).stats
    True
    """
    check_kernel(kernel)
    check_gemm_dims(m, k, n)
    resolved = resolve_scheme(scheme)
    config = system.config if system is not None else UpmemConfig()
    # Stats are mutable; hand each caller an independent copy of the
    # cached instance so sweeps cannot corrupt one another.
    return _cached_cost(resolved, m, k, n, kernel, config).copy()


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Exact ``sum(floor((a * i + b) / m) for i in range(n))``.

    The classic Euclid-like recurrence (here iterative), exact with
    Python integers in ``O(log)`` steps.  Requires ``n, a, b >= 0`` and
    ``m > 0``.
    """
    ans = 0
    while True:
        if a >= m:
            ans += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return ans
        n, b, m, a = y_max // m, y_max % m, a, m


def _sum_ceil_linear(a: int, b: int, f: int, lo: int, hi: int) -> int:
    """Exact ``sum(ceil((a * x + b) / f) for x in range(lo, hi + 1))``."""
    if hi < lo:
        return 0
    return _floor_sum(hi - lo + 1, f, a, a * lo + b + f - 1)


def _naive_sum_geometry(config: UpmemConfig):
    """Shared constants for the analytical naive-GEMM range sums.

    Runs the per-call checks of
    :func:`repro.kernels.baselines._naive_cost_stats` in its order (WRAM,
    then bank geometry), so a sum raises what its first non-empty term
    would; callers return their empty-term results before calling it.
    """
    t = config.timings
    check_wram_capacity(t.wram_bytes)
    check_bank_geometry(t.mram_bytes)
    return t, t.wram_bytes, DRAM_ROW_BYTES


def _finish_naive_sum(
    stats: ExecutionStats,
    config: UpmemConfig,
    n_terms: int,
    total_macs: int,
    total_dma_bytes: int,
    total_transfers: int,
    total_activations: int,
    total_act_bytes: int,
    total_out_bytes: int,
) -> ExecutionStats:
    """Fill a summed naive-cost stats record from aggregate event counts.

    Mirrors :func:`repro.kernels.baselines._naive_cost_stats` term by
    term: every latency field is the real-number sum of the per-call
    values (identical event counts, one float evaluation instead of
    ``n_terms``).
    """
    t = config.timings
    stats.n_macs = total_macs
    stats.n_instructions = total_macs * t.mac_instructions_int8
    stats.compute_s = total_macs * t.int8_mac_latency_s
    stats.dma_bytes = total_dma_bytes
    stats.dma_s = (
        total_transfers * t.dma_setup_cycles
        + total_dma_bytes / t.dram_to_wram_bytes_per_cycle
    ) * t.cycle_time_s
    stats.dram_activations = total_activations
    stats.host_bytes = total_act_bytes * config.num_ranks + total_out_bytes
    stats.host_s = (
        2 * n_terms * t.host_latency_s
        + total_act_bytes / t.host_bandwidth_bytes_per_s
        + total_out_bytes / (t.host_bandwidth_bytes_per_s * config.num_ranks)
    )
    return stats


@lru_cache(maxsize=65536)
def _cached_naive_sum_n(
    scheme: QuantScheme, m: int, k: int, lo: int, hi: int, config: UpmemConfig
) -> ExecutionStats:
    """Memoised ``sum(naive cost over n in [lo, hi])`` (see public wrapper)."""
    n_dpus_total = config.total_dpus
    stats = ExecutionStats(kernel="naive_pim_gemm")
    if hi < lo:
        return stats
    stats.n_dpus_used = min(n_dpus_total, hi)
    if m == 0 or k == 0:
        return stats
    t, wram_free, row_bytes = _naive_sum_geometry(config)
    acb = _code_bytes(scheme.activation_bits)
    ab = t.accumulator_bytes

    n_terms = hi - lo + 1
    sum_n = (lo + hi) * n_terms // 2
    total_macs = total_dma = total_transfers = total_activations = 0

    def add_group(count: int, cols: int) -> None:
        nonlocal total_macs, total_dma, total_transfers, total_activations
        dma_bytes = k * cols + m * k * acb + ab * m * cols
        if dma_bytes > t.mram_bytes:
            # Groups run in ascending cols: this is the first failing term.
            _check_mram_layout(t.mram_bytes, k * cols, m * k * acb, ab * m * cols)
        total_macs += count * m * k * cols
        total_dma += count * dma_bytes
        total_transfers += count * -(-dma_bytes // wram_free)
        total_activations += count * -(-dma_bytes // row_bytes)

    # n <= total DPUs: one column per DPU on the critical path.
    small_hi = min(hi, n_dpus_total)
    if lo <= small_hi:
        add_group(small_hi - lo + 1, 1)
    # n > total DPUs: cols = ceil(n / D) is piecewise constant; walk the
    # O(range / D) groups, each contributing count * per-term events.
    wide_lo = max(lo, n_dpus_total + 1)
    if wide_lo <= hi:
        q_lo = -(-wide_lo // n_dpus_total)
        q_hi = -(-hi // n_dpus_total)
        for q in range(q_lo, q_hi + 1):
            first = max(wide_lo, (q - 1) * n_dpus_total + 1)
            last = min(hi, q * n_dpus_total)
            add_group(last - first + 1, q)

    return _finish_naive_sum(
        stats, config, n_terms, total_macs, total_dma, total_transfers,
        total_activations, n_terms * m * k * acb, ab * m * sum_n,
    )


@lru_cache(maxsize=65536)
def _cached_naive_sum_k(
    scheme: QuantScheme, m: int, n: int, lo: int, hi: int, config: UpmemConfig
) -> ExecutionStats:
    """Memoised ``sum(naive cost over k in [lo, hi])`` (see public wrapper)."""
    stats = ExecutionStats(kernel="naive_pim_gemm")
    if hi < lo or n == 0:
        return stats
    n_dpus = min(config.total_dpus, n)
    stats.n_dpus_used = n_dpus
    if m == 0:
        return stats
    t, wram_free, row_bytes = _naive_sum_geometry(config)
    acb = _code_bytes(scheme.activation_bits)
    ab = t.accumulator_bytes

    cols = -(-n // n_dpus)
    n_terms = hi - lo + 1
    sum_k = (lo + hi) * n_terms // 2
    # Per-term dma_bytes is affine in k: slope * k + intercept.
    slope = cols + m * acb
    intercept = ab * m * cols
    if slope * hi + intercept > t.mram_bytes:
        # The first term past the bank raises, as the per-call loop would.
        k = max(lo, (t.mram_bytes - intercept) // slope + 1)
        _check_mram_layout(t.mram_bytes, k * cols, m * k * acb, intercept)
    return _finish_naive_sum(
        stats, config, n_terms,
        m * cols * sum_k,
        slope * sum_k + n_terms * intercept,
        _sum_ceil_linear(slope, intercept, wram_free, lo, hi),
        _sum_ceil_linear(slope, intercept, row_bytes, lo, hi),
        m * acb * sum_k,
        n_terms * m * n * ab,
    )


def _check_sum_range(m: int, fixed: int, lo: int, hi: int) -> None:
    if m < 0 or fixed < 0:
        raise ValueError(f"GEMM dimensions must be non-negative, got {(m, fixed)}")
    if lo < 1:
        raise ValueError(f"range start must be >= 1, got {lo}")


def naive_gemm_cost_sum_n(
    scheme: SchemeLike,
    m: int,
    k: int,
    n_lo: int,
    n_hi: int,
    system: UpmemSystem | None = None,
) -> ExecutionStats:
    """Closed-form ``sum(gemm_cost(scheme, m, k, n, kernel="naive_pim_gemm")
    for n in range(n_lo, n_hi + 1))``.

    The decode phase's attention-score matmul grows its ``N`` dimension
    by one KV position per generated token; this entry point collapses
    the whole token loop into one analytical evaluation.  Event counts
    are *exactly* the loop's sums (ceiling terms via an exact Euclid-like
    series); the latency floats are the real-number sums, which agree
    with sequential accumulation to float rounding (see
    :meth:`ExecutionStats.allclose`).  An empty range (``n_hi < n_lo``)
    yields empty stats.
    """
    _check_sum_range(m, k, n_lo, n_hi)
    resolved = resolve_scheme(scheme)
    _check_naive_codecs(resolved.activation_codec, resolved.weight_codec)
    config = system.config if system is not None else UpmemConfig()
    return _cached_naive_sum_n(resolved, m, k, n_lo, n_hi, config).copy()


def naive_gemm_cost_sum_k(
    scheme: SchemeLike,
    m: int,
    n: int,
    k_lo: int,
    k_hi: int,
    system: UpmemSystem | None = None,
) -> ExecutionStats:
    """Closed-form ``sum(gemm_cost(scheme, m, k, n, kernel="naive_pim_gemm")
    for k in range(k_lo, k_hi + 1))``.

    Counterpart of :func:`naive_gemm_cost_sum_n` for the attention-value
    matmul, whose *inner* (``K``) dimension grows with the KV length.
    Same exactness contract: counts exact, latencies to float rounding.
    """
    _check_sum_range(m, n, k_lo, k_hi)
    resolved = resolve_scheme(scheme)
    _check_naive_codecs(resolved.activation_codec, resolved.weight_codec)
    config = system.config if system is not None else UpmemConfig()
    return _cached_naive_sum_k(resolved, m, n, k_lo, k_hi, config).copy()


def batch_gemm_cost(
    shapes: Iterable[Shape],
    system: UpmemSystem | None = None,
    kernel: str = "lut_gemm",
) -> ExecutionStats:
    """Sequentially-composed cost of a batch of GEMMs.

    ``shapes`` is an iterable of ``(scheme, m, k, n)`` tuples — e.g. every
    projection in a decoder block.  Latency and event counts add; WRAM
    peak and DPUs used take the maximum (see
    :meth:`ExecutionStats.__add__`).
    """
    total = ExecutionStats()
    for scheme, m, k, n in shapes:
        total = total + gemm_cost(scheme, m, k, n, system=system, kernel=kernel)
    return total
