"""Host-speed sampling: a fixed micro-workload timed during every span.

The shared hosts this benchmark runs on change speed by up to 2x, both
from one second to the next and in spells of many minutes (in user CPU
time, with no steal time).  A pass timed alone therefore measures the
host as much as the code, and a reference timed before and after a pass
misses what the host did during it.

:class:`HostSampler` samples the host *inside* the timed span instead:
a wall-clock interval timer (``SIGALRM``) interrupts the span every
:data:`SAMPLE_PERIOD_S`, and the handler times one run of
:func:`reference`, a fixed stdlib-only slice of the pipeline's mix (a
heap-driven loop over tuple-keyed dict caches and float math).  The
reference touches no ``repro`` code, so no change to the repo moves it.
:meth:`HostSampler.normalise` takes the handler's time out of the span
and rescales the rest to a host on which :func:`reference` takes
:data:`REF_NOMINAL_S`.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

#: A fixed scale: about the reference's wall on the host the benchmark
#: was tuned on at its fast speed (2 vCPUs, Python 3.11; 0.6 ms in its
#: slow spells).  Normalised times are seconds on a host where
#: :func:`reference` takes this long.
REF_NOMINAL_S = 3.6e-4
#: Wall seconds between two samples: ~1.5% of the span goes to them.
SAMPLE_PERIOD_S = 0.025
#: Samples slower than this many times the span's median are dropped: a
#: slow spell costs up to 2x, a sample held up by a scheduler tick 10x+.
OUTLIER_FACTOR = 3.0

_STEPS = 400
_KEYS = 1024


def reference() -> float:
    """Run the fixed reference workload once; returns its checksum."""
    cache = {}
    heap = [(0.001 * i, i) for i in range(64)]
    total = 0.0
    for step in range(_STEPS):
        now, index = heapq.heappop(heap)
        key = ((index * 31 + step) % _KEYS, step % 7)
        cost = cache.get(key)
        if cost is None:
            cost = math.log1p(key[0]) * 1e-3 + math.sqrt(key[1] + 1.0) * 1e-4
            cache[key] = cost
        total += cost
        heapq.heappush(heap, (now + cost, index))
    return total


def timed_reference() -> float:
    """Wall seconds of one :func:`reference` run.

    The cyclic collector is off while it runs (the reference makes no
    cycles), so its time does not depend on the heap around it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Times :func:`reference` every :data:`SAMPLE_PERIOD_S` while open.

    Use as ``with sampler:`` around exactly the span being timed; each
    ``with`` starts a fresh set of samples.  Signals run between
    bytecodes of the main thread, so a long C call delays a sample.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(timed_reference())

    def __enter__(self) -> "HostSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall_s: float) -> Tuple[float, float]:
        """``(raw_s, normalised_s)`` for a span of ``wall_s`` just sampled.

        ``raw_s`` is the span without the samples' own time.  The host's
        speed is the mean sample, which weights the host's fast and slow
        moments by how long the span spent in each, over the samples
        within :data:`OUTLIER_FACTOR` of the median: now and then one
        sample is held up for a scheduler tick (4-12 ms against
        ~0.4 ms), which would skew the mean, most of all over the few
        samples of a set-up.  A span too short to hold a sample is
        scaled by one reference run after it.
        """
        raw = wall_s - sum(self.samples)
        samples = self.samples or [timed_reference()]
        cap = OUTLIER_FACTOR * statistics.median(samples)
        kept = [s for s in samples if s <= cap]
        return raw, raw * REF_NOMINAL_S * len(kept) / sum(kept)
