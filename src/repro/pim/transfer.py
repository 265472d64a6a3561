"""Host ↔ PIM data-movement costs.

UPMEM ranks sit on the memory bus, so the host moves data to and from the
DPUs with explicit copy calls.  Two patterns matter for the paper's
kernels: *broadcast* (the same activation tile is replicated to every
rank; the replicas are written rank-parallel so the cost is one copy of
the payload) and *scatter/gather* (per-DPU private data — packed weights
in, partial outputs back — whose aggregate volume is spread across ranks
transferring in parallel).

Example
-------
With the default platform (2 GB/s per rank, 20 µs launch latency),
broadcasting 2 MB costs one payload over one rank's bandwidth plus the
fixed latency — 1.02 ms — regardless of the rank count:

>>> from repro.pim.transfer import TransferModel
>>> tm = TransferModel()
>>> round(tm.broadcast_s(2_000_000, num_ranks=1) * 1e6)
1020
>>> round(tm.broadcast_s(2_000_000, num_ranks=4) * 1e6)
1020

Scatter/gather spreads the aggregate volume across ranks, so more ranks
means proportionally less time (plus the same fixed latency):

>>> round(tm.scatter_s(4_000_000, num_ranks=1) * 1e6)
2020
>>> round(tm.scatter_s(4_000_000, num_ranks=4) * 1e6)
520

The model counts every byte that crossed the bus (broadcast replicas
included) for energy accounting:

>>> tm.reset(); tm.broadcast_s(1000, num_ranks=4) > 0
True
>>> tm.bytes_moved
4000
"""

from __future__ import annotations

from repro.pim.timing import DEFAULT_TIMINGS, UpmemTimings

__all__ = ["TransferModel", "broadcast_time_s", "scatter_time_s"]


def broadcast_time_s(timings: UpmemTimings, nbytes: int) -> float:
    """Latency of replicating ``nbytes`` to every rank.

    Rank copies proceed in parallel, so the time is a single payload
    over the per-rank bandwidth plus the fixed launch latency.
    """
    if nbytes == 0:
        return 0.0
    return timings.host_latency_s + nbytes / timings.host_bandwidth_bytes_per_s


def scatter_time_s(timings: UpmemTimings, total_bytes: int, num_ranks: int) -> float:
    """Latency of moving ``total_bytes`` of per-DPU data split across ranks."""
    if total_bytes == 0:
        return 0.0
    bandwidth = timings.host_bandwidth_bytes_per_s * num_ranks
    return timings.host_latency_s + total_bytes / bandwidth


class TransferModel:
    """Bulk-transfer latency between the host and PIM ranks."""

    def __init__(self, timings: UpmemTimings = DEFAULT_TIMINGS) -> None:
        self.timings = timings
        self.bytes_moved = 0

    def record(self, nbytes: int) -> None:
        """Count ``nbytes`` that crossed the bus."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_moved += nbytes

    def broadcast_s(self, nbytes: int, num_ranks: int = 1) -> float:
        """Replicate ``nbytes`` to every rank (see :func:`broadcast_time_s`)."""
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.record(nbytes * num_ranks)
        return broadcast_time_s(self.timings, nbytes)

    def scatter_s(self, total_bytes: int, num_ranks: int = 1) -> float:
        """Move ``total_bytes`` of per-DPU private data, split across ranks."""
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.record(total_bytes)
        return scatter_time_s(self.timings, total_bytes, num_ranks)

    #: Gather shares the scatter cost model (symmetric bus).
    gather_s = scatter_s

    def reset(self) -> None:
        """Zero the moved-bytes counter."""
        self.bytes_moved = 0
