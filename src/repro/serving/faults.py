"""Seeded fault injection and recovery policies for the serving stack.

The fleet-scale story of the cluster layer only survives contact with
real hardware if replicas are allowed to fail: DPU ranks stall, degrade
and die.  This module supplies the *plan* side of that failure model —
deterministic, seeded schedules of replica faults — plus the
:class:`RetryPolicy` the cluster's recovery loop uses to re-drive
requests that a crash threw away.

Fault taxonomy (:data:`FAULT_KINDS`):

``crash``
    The replica dies at ``t_s``: every in-flight request (pending,
    ready, prefilling, running) is lost along with its KV reservations
    and the replica's prefix-cache entries.  The engine never serves
    again (``dead``).  Inside a cluster the lost requests re-enter the
    router through the :class:`RetryPolicy`; standalone engines turn
    them into terminal ``failed`` records.
``stall``
    The replica freezes for ``duration_s`` starting at ``t_s`` — the
    clock jumps over the window, nothing is scheduled inside it, and
    queued arrivals simply wait.  Health-aware routing excludes the
    replica for the window.
``degrade``
    Every costed step that *starts* inside ``[t_s, t_s + duration_s)``
    takes ``factor``× its modeled latency (failing DPUs serve slowly,
    not wrongly); energy is unchanged — the same work is done, slower.

Faults are injected through the event-engine hooks
(:meth:`~repro.serving.engine.rank_engine._RankEngine.fail_at` /
``stall`` / ``degrade``), which the engine constructor calls with the
plan it is built with.  A :class:`FaultPlan` with no specs
is the explicit no-fault plan: applying it is a no-op and every
simulation that receives one is bit-identical to a run with no plan at
all (the goldens pin this).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Tuple

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "RetryPolicy"]

#: Fault kinds a :class:`FaultSpec` may schedule.
FAULT_KINDS = ("crash", "stall", "degrade")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault on one replica.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rank:
        Cluster-global replica id the fault targets (the ``rank`` the
        records carry).
    t_s:
        Fault start time in simulation seconds.
    duration_s:
        Window length for ``stall`` / ``degrade`` (must be positive
        there; must be 0 for ``crash`` — death has no end).
    factor:
        Latency multiplier for ``degrade`` (> 1; ignored otherwise).
    """

    kind: str
    rank: int
    t_s: float
    duration_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if not 0.0 <= self.t_s < math.inf:
            raise ValueError(
                f"fault t_s must be finite and >= 0, got {self.t_s}"
            )
        if self.kind == "crash":
            if self.duration_s != 0.0:
                raise ValueError(
                    f"a crash has no duration; got duration_s={self.duration_s}"
                )
        elif not 0.0 < self.duration_s < math.inf:
            raise ValueError(
                f"{self.kind} needs a finite duration_s > 0, got "
                f"{self.duration_s}"
            )
        if self.kind == "degrade" and not 1.0 < self.factor < math.inf:
            raise ValueError(
                f"degrade factor must be finite and > 1.0, got {self.factor}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` entries.

    The plan is data, not behavior: :meth:`apply` registers each spec
    on the engine whose ``rank`` it targets, and the engines execute
    them at their scheduler boundaries.  An empty plan (:attr:`empty`)
    applies as a no-op, so ``FaultPlan()`` is the explicit "no faults"
    value and is bit-identical to passing no plan at all.
    """

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Normalise to a sorted tuple so iteration order (and therefore
        # every downstream schedule) is independent of authoring order.
        ordered = tuple(sorted(
            self.specs, key=lambda s: (s.t_s, s.rank, FAULT_KINDS.index(s.kind))
        ))
        object.__setattr__(self, "specs", ordered)

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing (the no-fault plan)."""
        return not self.specs

    def for_rank(self, rank: int) -> Tuple[FaultSpec, ...]:
        """The specs targeting one replica, in time order."""
        return tuple(s for s in self.specs if s.rank == rank)

    def apply(self, engine) -> None:
        """Register this plan's specs for ``engine.rank`` on ``engine``.

        Calls the rank engine's ``fail_at`` / ``stall`` / ``degrade``
        hooks; its constructor does, when it is built with a plan (see
        :func:`~repro.serving.engine.driver.make_engine`).
        """
        for spec in self.for_rank(engine.rank):
            if spec.kind == "crash":
                engine.fail_at(spec.t_s)
            elif spec.kind == "stall":
                engine.stall(spec.t_s, spec.duration_s)
            else:
                engine.degrade(spec.t_s, spec.duration_s, spec.factor)

    def trace_windows(self, tracer) -> None:
        """Emit one ``fault_stall`` / ``fault_degrade`` event per window.

        A window is traced as *scheduled* — stamped at its start, with
        its full duration, on the rank it targets — whether or not that
        replica is busy, idle or already dead while it is open.  These
        are the same windows the cluster's fault log (and so
        :func:`~repro.serving.metrics.cluster_summary`) counts, which
        makes :func:`~repro.obs.replay.replay_fault_counters`' stall and
        degrade tallies equal it exactly.  Crashes are traced by the
        engine that dies, with the requests it lost.
        """
        for spec in self.specs:
            if spec.kind == "stall":
                tracer.emit("fault_stall", spec.t_s, spec.rank,
                            duration_s=spec.duration_s)
            elif spec.kind == "degrade":
                tracer.emit("fault_degrade", spec.t_s, spec.rank,
                            duration_s=spec.duration_s, factor=spec.factor)

    @classmethod
    def sample(
        cls,
        seed: int,
        ranks: Iterable[int],
        horizon_s: float,
        crash_rate: float = 0.25,
        stall_s: float = 0.0,
        degrade_rate: float = 0.0,
        degrade_s: float = 10.0,
        degrade_factor: float = 4.0,
    ) -> "FaultPlan":
        """Sample a seeded plan over ``ranks`` for a ``horizon_s`` trace.

        Each replica independently crashes with probability
        ``crash_rate`` at a uniform time in ``(0, horizon_s)``; when
        ``stall_s`` > 0 it independently stalls (same per-replica
        probability) for ``stall_s`` seconds starting at a uniform time;
        when ``degrade_rate`` > 0 it degrades by ``degrade_factor`` for
        ``degrade_s`` seconds.  The RNG stream depends only on ``seed``
        and the rank list, so the same arguments always produce the
        same plan.
        """
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError(f"crash_rate must be in [0, 1], got {crash_rate}")
        if not 0.0 <= degrade_rate <= 1.0:
            raise ValueError(
                f"degrade_rate must be in [0, 1], got {degrade_rate}"
            )
        if not 0.0 <= stall_s < math.inf:
            raise ValueError(f"stall_s must be finite and >= 0, got {stall_s}")
        if not 0.0 < horizon_s < math.inf:
            raise ValueError(
                f"horizon_s must be finite and > 0, got {horizon_s}"
            )
        rng = random.Random(seed)
        specs = []
        for rank in ranks:
            if rng.random() < crash_rate:
                t = rng.uniform(0.05, 0.95) * horizon_s
                specs.append(FaultSpec("crash", rank, t))
            if stall_s > 0 and rng.random() < crash_rate:
                t = rng.uniform(0.05, 0.95) * horizon_s
                specs.append(FaultSpec("stall", rank, t, stall_s))
            if degrade_rate > 0 and rng.random() < degrade_rate:
                t = rng.uniform(0.05, 0.95) * horizon_s
                specs.append(
                    FaultSpec("degrade", rank, t, degrade_s, degrade_factor)
                )
        return cls(tuple(specs))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, seeded-backoff retries for crash-lost requests.

    A request lost to a replica crash re-enters the cluster after an
    exponential backoff: attempt ``k`` (1-based) waits
    ``backoff_base_s * backoff_mult**(k - 1)`` seconds, stretched by a
    deterministic jitter in ``[0, jitter)`` drawn from a stream seeded
    by ``(seed, req_id, k)`` — the same request retries at the same
    instants on every run.  A request exhausts its budget after
    ``max_retries`` re-submissions and becomes a terminal ``failed``
    record (the conservation invariant counts it alongside completed
    and rejected).
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_mult: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 < self.backoff_base_s < math.inf:
            raise ValueError(
                f"backoff_base_s must be finite and > 0, got "
                f"{self.backoff_base_s}"
            )
        if not 1.0 <= self.backoff_mult < math.inf:
            raise ValueError(
                f"backoff_mult must be finite and >= 1.0, got "
                f"{self.backoff_mult}"
            )
        if not 0.0 <= self.jitter < math.inf:
            raise ValueError(
                f"jitter must be finite and >= 0, got {self.jitter}"
            )

    def backoff_s(self, req_id: int, attempt: int) -> float:
        """Backoff before re-submission ``attempt`` (1-based) of a request.

        Deterministic: the jitter stream is keyed by
        ``(seed, req_id, attempt)`` so a chaos run replays exactly.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = self.backoff_base_s * self.backoff_mult ** (attempt - 1)
        if self.jitter <= 0:
            return base
        rng = random.Random(
            (self.seed * 1_000_003 + req_id) * 1_009 + attempt
        )
        return base * (1.0 + self.jitter * rng.random())
