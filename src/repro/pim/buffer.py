"""The 64 KB SRAM local buffer (WRAM) attached to each DPU.

Every operand a DPU touches must first be staged in WRAM: the canonical
LUT, the reordering LUT, the activation tile, the packed-weight tile and
the partial outputs all compete for the same 64 KB.  The capacity
accounting here is what forces kernels to tile their DRAM streams — the
tile size a kernel can afford directly sets how many DMA transfers (and
hence how much ``dma_setup_cycles`` overhead) it pays.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["LocalBuffer", "BufferOverflowError", "WRAM_ALIGNMENT", "check_wram_capacity"]

#: Allocation granularity of WRAM; UPMEM DMA requires 8-byte alignment.
WRAM_ALIGNMENT = 8


def check_wram_capacity(capacity_bytes: int) -> None:
    """Reject a local buffer with no usable capacity."""
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")


class BufferOverflowError(MemoryError):
    """Raised when an allocation does not fit in the local buffer."""


class LocalBuffer:
    """Bump-style allocator over a fixed-capacity WRAM.

    Parameters
    ----------
    capacity_bytes:
        Usable WRAM capacity (64 KB on the evaluated platform).
    alignment:
        Allocation granularity; UPMEM DMA requires 8-byte alignment.
    """

    def __init__(
        self, capacity_bytes: int = 64 * 1024, alignment: int = WRAM_ALIGNMENT
    ) -> None:
        check_wram_capacity(capacity_bytes)
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        self.capacity_bytes = capacity_bytes
        self.alignment = alignment
        self._allocations: Dict[str, Tuple[int, int]] = {}
        self._bytes_used = 0
        self.peak_bytes = 0

    def _aligned(self, nbytes: int) -> int:
        return ((nbytes + self.alignment - 1) // self.alignment) * self.alignment

    @property
    def bytes_used(self) -> int:
        """Aligned bytes currently allocated."""
        return self._bytes_used

    @property
    def bytes_free(self) -> int:
        """Bytes still available for allocation."""
        return self.capacity_bytes - self._bytes_used

    def can_fit(self, nbytes: int) -> bool:
        """True when ``nbytes`` (after alignment) fits in the free space."""
        return self._aligned(nbytes) <= self.bytes_free

    def alloc(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` under ``name``; returns the aligned size.

        Raises
        ------
        BufferOverflowError
            If the aligned request exceeds the free capacity.
        KeyError
            If ``name`` is already allocated.
        """
        if name in self._allocations:
            raise KeyError(f"buffer region {name!r} already allocated")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        size = self._aligned(nbytes)
        if size > self.bytes_free:
            raise BufferOverflowError(
                f"cannot allocate {size} B for {name!r}: "
                f"{self.bytes_free} B free of {self.capacity_bytes} B"
            )
        self._allocations[name] = (nbytes, size)
        self._bytes_used += size
        self.peak_bytes = max(self.peak_bytes, self._bytes_used)
        return size

    def free(self, name: str) -> None:
        """Release the region allocated under ``name``."""
        _, size = self._allocations.pop(name)
        self._bytes_used -= size

    def clear(self) -> None:
        """Release every allocation (peak accounting is preserved)."""
        self._allocations.clear()
        self._bytes_used = 0

    def allocations(self) -> Dict[str, int]:
        """Mapping of region name to requested (unaligned) size."""
        return {name: req for name, (req, _) in self._allocations.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._allocations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalBuffer(used={self.bytes_used}/{self.capacity_bytes} B, "
            f"peak={self.peak_bytes} B, regions={sorted(self._allocations)})"
        )
