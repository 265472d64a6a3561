"""Minifloat codecs for the floating-point extension of LoCaLUT.

Section VI-K of the paper extends LoCaLUT to quantized floating-point
operands (FP4 / FP8 / FP16) by exploiting the fact that a LUT treats operand
codes as opaque symbols: the number of LUT entries depends only on the
operand bit width, not on the numeric format.  This module supplies the
codecs used for those experiments (Fig. 21).

A minifloat value is encoded as ``(-1)^s * 2^(e - bias) * (1 + m / 2^M)``
with ``E`` exponent bits and ``M`` mantissa bits; subnormals are supported
when ``e == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["MinifloatCodec", "FP4", "FP8_E4M3", "FP16"]


@dataclass(frozen=True)
class MinifloatCodec:
    """An ``E``-exponent-bit, ``M``-mantissa-bit floating point codec.

    The codec maps a floating point tensor to integer codes in
    ``[0, 2**(1 + E + M))`` by rounding to the nearest representable value.
    """

    exponent_bits: int
    mantissa_bits: int
    name: str = "minifloat"

    def __post_init__(self) -> None:
        if self.exponent_bits < 1:
            raise ValueError("exponent_bits must be >= 1")
        if self.mantissa_bits < 0:
            raise ValueError("mantissa_bits must be >= 0")

    @property
    def bits(self) -> int:
        """Total bit width (sign + exponent + mantissa)."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def num_levels(self) -> int:
        """Number of distinct codes (including redundant zero encodings)."""
        return 2**self.bits

    @property
    def is_floating(self) -> bool:
        """Always True: minifloat codes are floating-point values."""
        return True

    @property
    def bias(self) -> int:
        """Exponent bias, following the IEEE convention."""
        return 2 ** (self.exponent_bits - 1) - 1

    def code_values(self) -> np.ndarray:
        """Real value represented by each of the ``num_levels`` codes."""
        return _code_value_table(self.exponent_bits, self.mantissa_bits)

    def quantize(self, values: np.ndarray):
        """Round ``values`` to the nearest representable minifloat.

        Returns a :class:`~repro.quant.tensor.QuantizedTensor` whose codes
        index into :meth:`code_values` and whose scale is a per-tensor
        power-of-two-free scale chosen so the largest magnitude maps near the
        top of the representable range.
        """
        from repro.quant.tensor import QuantizedTensor

        values = np.asarray(values, dtype=np.float64)
        table = self.code_values()
        max_repr = float(np.max(np.abs(table)))
        max_abs = float(np.max(np.abs(values))) if values.size else 0.0
        scale = (max_abs / max_repr) if max_abs > 0 else 1.0
        scaled = values / scale
        codes = _nearest_codes(scaled, table)
        return QuantizedTensor(codes=codes, scale=scale, zero_point=0, codec=self)

    def to_indices(self, codes: np.ndarray) -> np.ndarray:
        """Codes are already LUT indices for minifloats."""
        return np.asarray(codes, dtype=np.int64)

    def from_indices(self, indices: np.ndarray) -> np.ndarray:
        """LUT indices are already minifloat codes."""
        return np.asarray(indices, dtype=np.int64)


@lru_cache(maxsize=32)
def _code_value_table(exponent_bits: int, mantissa_bits: int) -> np.ndarray:
    """Enumerate the real value of every (sign, exponent, mantissa) code."""
    bias = 2 ** (exponent_bits - 1) - 1
    n_exp = 2**exponent_bits
    n_man = 2**mantissa_bits
    values = np.empty(2 * n_exp * n_man, dtype=np.float64)
    idx = 0
    for sign in (0, 1):
        for exp in range(n_exp):
            for man in range(n_man):
                if exp == 0:
                    # Subnormal: no implicit leading one.
                    magnitude = (man / n_man) * 2.0 ** (1 - bias)
                else:
                    magnitude = (1.0 + man / n_man) * 2.0 ** (exp - bias)
                values[idx] = -magnitude if sign else magnitude
                idx += 1
    return values


def _nearest_codes(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Return, for each value, the index of the nearest table entry.

    A value halfway between two entries rounds to the one with an even
    code (round half to even): a code's lowest bit is its mantissa's
    lowest bit, or its exponent's when there are no mantissa bits.
    """
    order = np.argsort(table)
    sorted_table = table[order]
    pos = np.searchsorted(sorted_table, values)
    pos = np.clip(pos, 1, len(sorted_table) - 1)
    left_gap = values - sorted_table[pos - 1]
    right_gap = sorted_table[pos] - values
    choose_right = (left_gap > right_gap) | (
        (left_gap == right_gap) & (order[pos] % 2 == 0)
    )
    nearest_sorted = np.where(choose_right, pos, pos - 1)
    return order[nearest_sorted].astype(np.int64)


#: 4-bit minifloat (1 sign, 2 exponent, 1 mantissa) — the "FP4" format.
FP4 = MinifloatCodec(exponent_bits=2, mantissa_bits=1, name="fp4")

#: 8-bit minifloat (1 sign, 4 exponent, 3 mantissa) — OCP FP8 E4M3.
FP8_E4M3 = MinifloatCodec(exponent_bits=4, mantissa_bits=3, name="fp8_e4m3")

#: IEEE half precision.
FP16 = MinifloatCodec(exponent_bits=5, mantissa_bits=10, name="fp16")
