"""In-order DPU instruction-cost model.

The UPMEM DPU is a fine-grained multithreaded in-order core: a single
tasklet observes an ~11-cycle round trip per instruction, and only with
enough resident tasklets does the pipeline retire one instruction per
cycle.  The paper sidesteps modelling the pipeline explicitly by
profiling two aggregate constants (``L_D`` and ``L_local``); this module
keeps the same anchoring — per-instruction time is ``L_local / 12`` — but
exposes instruction *counts* so kernels can be costed from first
principles and ablated (e.g. the software-reorder baseline pays
``reorder`` instructions per weight element that the reordering LUT
removes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pim.timing import DEFAULT_TIMINGS, UpmemTimings

__all__ = ["DpuProcessor", "InstructionCosts"]

#: Pipeline depth of the DPU; a lone tasklet retires one instruction per
#: this many cycles.
PIPELINE_DEPTH = 11


@dataclass(frozen=True)
class InstructionCosts:
    """Instruction counts for the primitive operations kernels issue.

    The defaults mirror the constants in :class:`UpmemTimings`: a fused
    lookup (reordering-LUT access + canonical-LUT access + accumulate) is
    12 instructions, an int8 MAC (the Naive PIM baseline's inner loop) is
    9, and reordering one packed weight element in software (load, shift,
    mask, permute, repack) is 7.
    """

    lookup: int = 12
    mac_int8: int = 9
    reorder: int = 7
    load: int = 1
    store: int = 1
    alu: int = 1

    @classmethod
    def from_timings(cls, timings: UpmemTimings) -> "InstructionCosts":
        """The instruction counts embedded in ``timings``."""
        return cls(
            lookup=timings.lookup_instructions,
            mac_int8=timings.mac_instructions_int8,
            reorder=timings.reorder_instructions,
        )


class DpuProcessor:
    """One DPU core: converts instruction counts into time.

    Parameters
    ----------
    timings:
        Platform timing constants; per-instruction time is anchored to
        ``L_local / lookup_instructions``.
    costs:
        Instruction counts per primitive; defaults to the counts embedded
        in ``timings``.
    tasklets:
        Resident hardware threads.  Informational only — the profiled
        ``L_local`` already reflects the per-tasklet view the paper uses,
        so time is not rescaled by tasklet count.
    """

    def __init__(
        self,
        timings: UpmemTimings = DEFAULT_TIMINGS,
        costs: InstructionCosts | None = None,
        tasklets: int = 16,
    ) -> None:
        if tasklets < 1:
            raise ValueError("tasklets must be >= 1")
        self.timings = timings
        self.costs = costs if costs is not None else InstructionCosts.from_timings(timings)
        self.tasklets = tasklets
        self.instructions_retired = 0

    @property
    def pipeline_utilization(self) -> float:
        """Fraction of peak issue rate the resident tasklets can sustain."""
        return min(1.0, self.tasklets / PIPELINE_DEPTH)

    def execute(self, num_instructions: float) -> float:
        """Retire ``num_instructions``; returns the elapsed time in seconds."""
        if num_instructions < 0:
            raise ValueError("num_instructions must be non-negative")
        self.instructions_retired += int(num_instructions)
        return self.timings.instruction_time_s(num_instructions)

    def lookup_time_s(self, n: int) -> float:
        """Time for ``n`` fused LUT lookups (reorder + canonical + accumulate)."""
        return self.execute(n * self.costs.lookup)

    def mac_time_s(self, n: int) -> float:
        """Time for ``n`` int8 multiply-accumulates (Naive PIM baseline)."""
        return self.execute(n * self.costs.mac_int8)

    def reorder_time_s(self, n: int) -> float:
        """Time to reorder ``n`` packed weight elements in software."""
        return self.execute(n * self.costs.reorder)

    def reset(self) -> None:
        """Zero the retired-instruction counter."""
        self.instructions_retired = 0
