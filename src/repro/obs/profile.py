"""Self-profiling of the serving engines' own wall-clock phases.

Where the tracer records *simulated* time, :class:`SelfProfiler` records
where the simulator itself spends *host* wall-clock: admission (arrival
collection + ready-queue work + KV admission control), prefill costing,
decode advancement, and — inside the event engine — the closed-form
segment-costing block (cumulative attention-table lookups plus the
arrival-boundary bisection).  ``tools/bench.py`` reports the phase
breakdown so hot-path regressions are attributable to a phase instead
of a whole run.

Pass an instance to :func:`repro.serving.engine.driver.simulate_trace` via
``profiler=``; it accumulates across every rank engine of the run.
When no profiler is passed the engines skip all timing (one ``is not
None`` check per scheduler event).

>>> prof = SelfProfiler()
>>> prof.add("prefill", 0.25)
>>> prof.add("prefill", 0.25)
>>> report = prof.report()
>>> report["phases"]["prefill"]["calls"]
2
>>> report["phases"]["prefill"]["share"] == 1.0
True
"""

from __future__ import annotations

from typing import Dict

__all__ = ["SelfProfiler"]


class SelfProfiler:
    """Accumulates wall-clock seconds and call counts per engine phase."""

    def __init__(self) -> None:
        self.phase_s: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of wall clock to ``phase``."""
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1

    @property
    def total_s(self) -> float:
        """Wall clock accumulated across all phases.

        ``segment_costing`` is nested inside ``decode`` and excluded
        from the total to avoid double counting.
        """
        return sum(
            s for phase, s in self.phase_s.items() if phase != "segment_costing"
        )

    def report(self) -> dict:
        """JSON-ready breakdown: per-phase wall, calls and share of total."""
        total = self.total_s
        return {
            "total_s": total,
            "phases": {
                phase: {
                    "wall_s": self.phase_s[phase],
                    "calls": self.phase_calls[phase],
                    "share": self.phase_s[phase] / total if total else 0.0,
                }
                for phase in sorted(self.phase_s)
            },
        }
