"""Quantized tensor container.

A :class:`QuantizedTensor` holds integer codes plus the metadata needed to
dequantize them (scale, zero point, codec).  All LUT kernels operate on the
code/index space of these tensors; the dequantized values only reappear at
the host when outputs are rescaled (step 6 in Fig. 4(b) of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["QuantizedTensor"]


@dataclass
class QuantizedTensor:
    """Integer codes together with the information to dequantize them.

    Attributes
    ----------
    codes:
        Integer array of quantized codes (``int64``).
    scale:
        Positive float so that ``value = (code - zero_point) * scale`` for
        integer codecs; for minifloat codecs ``value = table[code] * scale``.
    zero_point:
        Integer offset (0 for symmetric quantization and minifloats).
    codec:
        The codec that produced this tensor (``IntegerCodec`` or
        ``MinifloatCodec``).
    """

    codes: np.ndarray
    scale: float
    zero_point: int
    codec: Any

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def shape(self) -> tuple:
        """Shape of the code array."""
        return self.codes.shape

    @property
    def bits(self) -> int:
        """Bit width of the codec."""
        return self.codec.bits

    @property
    def nbytes(self) -> int:
        """Storage footprint of the packed codes in bytes (bit-packed)."""
        total_bits = self.codes.size * self.bits
        return (total_bits + 7) // 8

    def dequantize(self) -> np.ndarray:
        """Reconstruct the approximate floating point values.

        Minifloat codes are routed through :meth:`indices` before hitting
        the value table, so codecs whose code layout is not the identity
        (e.g. signed or sign-magnitude layouts) cannot index the table
        out of order — the table produced by :meth:`values_per_index` is
        by construction ordered by LUT index, not by raw code.
        """
        if getattr(self.codec, "is_floating", False):
            table = self.values_per_index()
            return table[self.indices()] * self.scale
        return (self.codes.astype(np.float64) - self.zero_point) * self.scale

    def indices(self) -> np.ndarray:
        """Codes mapped into the non-negative LUT index space."""
        return self.codec.to_indices(self.codes)

    def values_per_index(self) -> np.ndarray:
        """Real value represented by each LUT index (before scaling).

        Entry ``i`` of the returned array is the dequantized value (divided
        by ``scale``) of LUT index ``i``.  LUT builders use this to fill
        entries from packed index tuples.
        """
        if getattr(self.codec, "is_floating", False):
            return self.codec.code_values()
        index_codes = self.codec.from_indices(np.arange(self.codec.num_levels))
        return index_codes.astype(np.float64) - self.zero_point

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantizedTensor(shape={self.shape}, bits={self.bits}, "
            f"scale={self.scale:.4g}, zero_point={self.zero_point})"
        )
