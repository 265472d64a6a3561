"""Per-bank DRAM (MRAM) model with row-buffer bookkeeping.

Each UPMEM DPU owns one 64 MB DRAM bank (called MRAM in the UPMEM
programming model).  Accesses go through a single open row buffer: a read
that hits the open row only pays a column access, while a read to a
different row pays a precharge plus an activation first.  Kernels use the
book-keeping here to report how many row activations their streaming
pattern causes — the dominant share of DRAM energy in the paper's
Fig. 14 breakdown — while the *latency* of DRAM→WRAM movement is anchored
to the profiled DMA constants in :class:`repro.pim.timing.UpmemTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DRAM_ROW_BYTES", "DramBank", "DramBankStats", "check_bank_geometry"]

#: Row-buffer width of one bank (the evaluated platform's 8 KB rows).
DRAM_ROW_BYTES = 8192


def check_bank_geometry(capacity_bytes: int, row_bytes: int = DRAM_ROW_BYTES) -> None:
    """Reject a bank narrower than one row (or with non-positive rows)."""
    if row_bytes <= 0:
        raise ValueError(f"row_bytes must be positive, got {row_bytes}")
    if capacity_bytes < row_bytes:
        raise ValueError("capacity_bytes must be at least one row")


@dataclass
class DramBankStats:
    """Counters accumulated by a :class:`DramBank`."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def activations(self) -> int:
        """Row activations equal row-buffer misses (closed rows included)."""
        return self.row_misses

    @property
    def row_hit_rate(self) -> float:
        """Share of row-buffer accesses that hit the open row (0 if none)."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


@dataclass
class DramBank:
    """One DRAM bank with a single open-row buffer.

    Attributes
    ----------
    capacity_bytes:
        Total bank capacity (64 MB per DPU on the evaluated platform).
    row_bytes:
        Row-buffer width; a streaming access opens each row it spans
        once, except a first row that is already open (a hit).  The
        accounting is O(1) per access however many rows it spans (see
        :meth:`_touch_rows`).
    """

    capacity_bytes: int = 64 * 1024 * 1024
    row_bytes: int = DRAM_ROW_BYTES
    open_row: int | None = None
    stats: DramBankStats = field(default_factory=DramBankStats)

    def __post_init__(self) -> None:
        check_bank_geometry(self.capacity_bytes, self.row_bytes)

    @property
    def num_rows(self) -> int:
        """Rows in the bank (capacity over row width)."""
        return self.capacity_bytes // self.row_bytes

    def _check_range(self, address: int, nbytes: int) -> None:
        if address < 0 or nbytes < 0:
            raise ValueError("address and nbytes must be non-negative")
        if address + nbytes > self.capacity_bytes:
            raise ValueError(
                f"access [{address}, {address + nbytes}) exceeds bank capacity "
                f"{self.capacity_bytes}"
            )

    def _touch_rows(self, address: int, nbytes: int) -> None:
        """Account one access's spanned rows through the row buffer.

        Equal to visiting each spanned row in order (hit if it is the
        open row, else miss and open it), in O(1): the rows are distinct
        and ascending, so only the first can hit the open row, every
        later row misses the row just opened before it, and the access
        leaves the last row open.
        """
        if nbytes == 0:
            return
        first = address // self.row_bytes
        last = (address + nbytes - 1) // self.row_bytes
        if first == self.open_row:
            self.stats.row_hits += 1
            self.stats.row_misses += last - first
        else:
            self.stats.row_misses += last - first + 1
        self.open_row = last

    def read(self, address: int, nbytes: int) -> int:
        """Record a read; returns the number of row activations it caused."""
        self._check_range(address, nbytes)
        before = self.stats.row_misses
        self._touch_rows(address, nbytes)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return self.stats.row_misses - before

    def write(self, address: int, nbytes: int) -> int:
        """Record a write; returns the number of row activations it caused."""
        self._check_range(address, nbytes)
        before = self.stats.row_misses
        self._touch_rows(address, nbytes)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return self.stats.row_misses - before

    def precharge(self) -> None:
        """Close the open row (the next access will activate again)."""
        self.open_row = None

    def reset_stats(self) -> None:
        """Zero the access counters and close the open row."""
        self.stats = DramBankStats()
        self.open_row = None
