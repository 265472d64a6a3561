"""Canonical and reordering LUT construction (the paper's LC and RC).

**Canonical LUT (LC).**  For low-bit operands the product of a weight
code and an activation code can only take ``2**bw * 2**ba`` distinct
values, so the multiply in the GEMM inner loop is replaced by a table
lookup.  The table is *canonical*: it is indexed by the operands' LUT
indices (:meth:`~repro.quant.integer.IntegerCodec.to_indices`), making it
independent of the code layout (sign convention, zero point, or even a
minifloat bit pattern — the LUT treats codes as opaque symbols, which is
what enables the Section VI-K floating-point extension).

**Reordering LUT (RC).**  Packed weights store several codes per byte.
Extracting code ``i`` from a byte in software costs shift/mask
instructions per element; the reordering LUT instead maps (byte value,
slot) → weight LUT index in a single load, so the packed byte read from
DRAM is used *as an address* and the unpack disappears from the inner
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.packing import elems_per_byte

__all__ = ["CanonicalLut", "ReorderingLut"]


@dataclass
class CanonicalLut:
    """Product table indexed by ``[weight_index, activation_index]``.

    For integer codec pairs the entries are exact ``int64`` products of
    the (zero-point-corrected) code values, so accumulating entries is
    bit-identical to an integer matmul.  When either codec is a
    minifloat the entries are ``float64`` products of the decoded values.
    """

    table: np.ndarray
    weight_values: np.ndarray
    activation_values: np.ndarray

    @classmethod
    def build(cls, weight_tensor, activation_tensor) -> "CanonicalLut":
        """Build from two :class:`~repro.quant.tensor.QuantizedTensor`.

        Only the codecs and zero points are consulted — the entry values
        exclude the scales, which the host applies once per output
        (step 6 in the paper's Fig. 4(b)).
        """
        w_vals = weight_tensor.values_per_index()
        a_vals = activation_tensor.values_per_index()
        integer_pair = not (
            getattr(weight_tensor.codec, "is_floating", False)
            or getattr(activation_tensor.codec, "is_floating", False)
        )
        if integer_pair:
            table = np.outer(w_vals.astype(np.int64), a_vals.astype(np.int64))
        else:
            table = np.outer(w_vals, a_vals).astype(np.float64)
        return cls(table=table, weight_values=w_vals, activation_values=a_vals)

    @property
    def num_entries(self) -> int:
        """Table entries: weight levels × activation levels."""
        return self.table.size

    def nbytes(self, entry_bytes: int = 4) -> int:
        """WRAM footprint at ``entry_bytes`` per entry."""
        return self.num_entries * entry_bytes

    def lookup(self, weight_indices: np.ndarray, activation_indices: np.ndarray) -> np.ndarray:
        """Gather products for broadcast-compatible index arrays."""
        return self.table[weight_indices, activation_indices]


@dataclass
class ReorderingLut:
    """(packed byte, slot) → weight LUT index.

    ``table[b, s]`` is the ``bits``-wide index stored in slot ``s`` of
    byte value ``b``; it has ``256 × (8 / bits)`` single-byte entries.
    """

    bits: int
    table: np.ndarray

    @classmethod
    def build(cls, bits: int) -> "ReorderingLut":
        """The table for ``bits``-wide weights packed into bytes."""
        epb = elems_per_byte(bits)
        byte_values = np.arange(256, dtype=np.int64)
        table = np.stack(
            [(byte_values >> (slot * bits)) & (2**bits - 1) for slot in range(epb)],
            axis=1,
        )
        return cls(bits=bits, table=table)

    @property
    def slots(self) -> int:
        """Weight elements per packed byte (``8 / bits``)."""
        return self.table.shape[1]

    @property
    def num_entries(self) -> int:
        """Table entries: 256 byte values × :attr:`slots`."""
        return self.table.size

    def nbytes(self, entry_bytes: int = 1) -> int:
        """WRAM footprint at ``entry_bytes`` per entry."""
        return self.num_entries * entry_bytes

    def decode(self, packed: np.ndarray, count: int) -> np.ndarray:
        """Recover weight indices from packed bytes by pure table lookup.

        ``packed`` is ``[Kb, ...]`` ``uint8``; returns ``[count, ...]``
        indices — functionally identical to
        :func:`repro.kernels.packing.unpack_codes` but with no shift/mask
        arithmetic, mirroring what the DPU inner loop does with RC on.
        """
        packed = np.asarray(packed, dtype=np.uint8)
        per_slot = self.table[packed.astype(np.int64)]  # [Kb, ..., slots]
        # Move the slot axis next to Kb and flatten: [Kb * slots, ...]
        per_slot = np.moveaxis(per_slot, -1, 1)
        flat = per_slot.reshape((packed.shape[0] * self.slots,) + packed.shape[1:])
        if count < 0 or count > flat.shape[0]:
            raise ValueError(f"count {count} out of range")
        return flat[:count]
