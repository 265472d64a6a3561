"""One replica's continuous-batching engine.

:class:`_RankEngine` owns a single rank's scheduler state (pending →
ready → prefilling → running) and advances it one scheduler iteration
at a time (:meth:`_RankEngine._step`) through one drive path,
:meth:`_RankEngine.advance`:

* **Run-to-drain** (:meth:`_RankEngine.run`, which is
  ``advance(math.inf)`` then :meth:`_RankEngine.finalize`) — the
  single-deployment driver hands each rank its whole shard in arrival
  order, then drains the engine in one call.
* **Incremental** (:meth:`_RankEngine.submit` /
  :meth:`_RankEngine.advance` / :meth:`_RankEngine.finalize`) — the
  cluster layer reveals arrivals one routing decision at a time and
  advances the engine lazily to a time horizon, so routers can observe
  live queue depth and KV occupancy between arrivals.

**Request slots.**  A request is an integer *slot* into the engine's
append-only columns (Python lists, which index faster than numpy
scalars on the narrow path): the immutable :class:`Request` fields, the
mutable scheduling state (tokens out, prefill progress, cached tokens,
private KV bytes, cache entry) and the outcome (admission, first-token
and finish stamps, status, preemptions, cache hit).  There is one representation with two ways in:
:meth:`_RankEngine.submit` appends one slot from a request object (the
cluster path) and :meth:`_RankEngine.submit_columns` extends every
column from a trace shard's arrays at once (the
:func:`~repro.serving.engine.driver.simulate_trace` path).  The pending
queue is a cursor over submission order, and the prefill stage and
running batch are slot lists.  The ready queue is a heap of
``(key, seq, slot)``, or, for a policy that keeps the default FCFS
admission key and never preempts, the slot range ``[_head, _next)``
(see *Bulk paths* below).  :attr:`_RankEngine.records` is a
:class:`~repro.serving.engine.records.ColumnRecords` over the terminal
slots of those columns; no per-request object is built on the way.

**Policies.**  Each built-in :class:`~repro.serving.policy.SchedulingPolicy`
hook has a slot form in :mod:`repro.serving.policy`, written next to it
(the ``fcfs`` / ``sjf`` / ``priority`` admission keys, the ``priority``
victim choice), which the engine evaluates straight from its columns.
A hook a subclass overrides is called with a :class:`_RequestState`
view of the slot (``.request``, ``.tokens_out``, ``.kv_private``),
built only for that call.

A :class:`~repro.serving.faults.FaultPlan` passed to the constructor
registers its specs for the engine's rank through the fault hooks
(:meth:`_RankEngine.fail_at` / ``stall`` / ``degrade``).

**Bulk paths.**  The event engine (not the per-token ``loop``
reference, which keeps every per-request path as the oracle) batches
the per-request work of wide batches, each path bit-identical to the
per-request one it replaces:

* *FIFO cursor and window admission.*  Without a prefix cache, a
  policy that inherits :meth:`~repro.serving.policy.SchedulingPolicy.admission_key`
  and ``select_victims`` (``fcfs``, ``chunked_prefill``) admits in
  submission order, so the ready queue is the slot range
  ``[_head, _next)`` and one admission round walks it once
  (:meth:`_RankEngine._admit_window`), writing the admitted runs by
  slice assignment.  Submission order is the heap's
  ``(arrival_s, req_id)`` order for a sorted trace; the first
  submission that breaks it (a cluster retry submitted right after a
  fresh arrival at the same instant with a larger ``req_id``) moves
  the range into the heap for good (:meth:`_RankEngine._to_heap`).
* *Packed running set.*  A running batch at least
  :data:`PACKED_MIN_BATCH` wide is kept as numpy columns of each
  running request's KV depth and tokens left, costed with gathers from
  the dense :class:`~repro.serving.engine.costs.SegmentCostTable`
  instead of one dict lookup per request, and retired in one pass
  (:meth:`_RankEngine._retire_packed`).

Sums accumulate left to right in running order (:func:`_seq_sum`).
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from operator import eq, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.engine.cache import CacheEntry, PrefixCache
from repro.serving.engine.config import ServingConfig
from repro.serving.engine.costs import SegmentCostTable, _CostCache
from repro.serving.engine.records import (
    ColumnRecords,
    RankStats,
    RequestRecord,
)
from repro.serving.policy import SchedulingPolicy, _inherited
from repro.serving.trace import _REQUEST_FIELDS, Request, _unchecked_request

__all__ = ["_RequestState", "_RankEngine", "PACKED_MIN_BATCH"]

#: Batch width from which the event engine costs decode on the packed
#: running set.  Below it per-request dict lookups are cheaper than
#: numpy call overhead; the crossover is measured by the
#: ``batch_width`` entry of ``tools/bench.py``.
PACKED_MIN_BATCH = 64

#: Slots by which :meth:`_RankEngine.submit` grows the state and outcome
#: columns at a time, so a single submission appends only its request.
_SLOT_CHUNK = 64


def _seq_sum(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...`` accumulated left to right
    (``terms`` non-empty).

    The same float as the per-request loop's running ``+=``;
    ``ndarray.sum()`` adds pairwise and rounds differently.
    """
    terms = terms.copy()
    terms[0] += start
    return float(terms.cumsum()[-1])


class _RequestState:
    """A scheduling policy's view of one request slot of a rank engine.

    Built for one call of a policy hook a subclass overrides: a snapshot
    of the slot at the call.  ``request`` is the immutable
    :class:`Request`, ``tokens_out`` the tokens generated so far and
    ``kv_private`` the KV bytes the request reserved this admission (its
    footprint minus any cached prefix; 0 while not admitted).  ``slot``
    is the engine's index of the request.
    """

    __slots__ = ("slot", "request", "tokens_out", "kv_private")

    def __init__(self, slot: int, request: Request, tokens_out: int,
                 kv_private: int) -> None:
        self.slot = slot
        self.request = request
        self.tokens_out = tokens_out
        self.kv_private = kv_private


class _RankEngine:
    """One replica's continuous-batching engine, driven by a policy."""

    def __init__(
        self,
        rank: int,
        cache: _CostCache,
        config: ServingConfig,
        kv_capacity: int,
        policy: SchedulingPolicy,
        tracer=None,
        faults=None,
    ) -> None:
        self.cache = cache
        self.config = config
        self.kv_capacity = kv_capacity
        self.policy = policy
        self.rank = rank
        # Null-tracer fast path: a disabled (or absent) tracer is stored
        # as None, so every emission site is one `is not None` branch.
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self._detail = (
            self._trace is not None and self._trace.wants_engine_detail
        )
        self.stats = RankStats(rank=rank)
        self.kv_queued_bytes = 0
        #: Cluster-managed flag: a retired replica receives no new work
        #: from its deployment (the engine itself never reads it).
        self.retired = False
        # Fault-injection state.  ``_has_faults`` stays False until a
        # hook arms it, so fault-free runs execute the original step
        # loop verbatim (the goldens pin this bit-identity).
        self.dead = False
        self._has_faults = False
        self._crash_s = math.inf
        self._stalls: List[Tuple[float, float]] = []
        self._degrades: List[Tuple[float, float, float]] = []
        #: Cluster seam: called as ``on_crash(engine, t_s, lost)`` with
        #: the crash-lost ``(Request, RequestRecord)`` pairs so the
        #: recovery loop can retry them.  When unset (standalone runs)
        #: the lost requests become terminal ``failed`` records.
        self.on_crash: Optional[Callable] = None
        # -- request slots (see the module docstring) --
        # Immutable request fields, one list per Request field.
        self._fields: Tuple[list, ...] = tuple([] for _ in _REQUEST_FIELDS)
        (self._req_id, self._arrival, self._prompt, self._gen,
         self._priority, self._slo, self._session, self._turn,
         self._prefix_id, self._prefix_tokens, self._context,
         self._final) = self._fields
        # The request object of a slot, once one exists (submitted as
        # one, or built for a policy view, a cache lookup or a crash).
        self._req: List[Optional[Request]] = []
        # Mutable scheduling state.  ``_done`` counts the prefilled part
        # of the prefix a prefilling slot must prefill before it may
        # decode (prompt plus the tokens generated before a preemption;
        # ``_tokens_out`` is constant while a slot prefills), and a
        # cache hit pre-credits it.  ``_kv_private`` is the KV reserved
        # this admission; the full footprint is ``_kv_per_token`` times
        # prompt plus generated tokens.
        self._tokens_out: List[int] = []
        self._done: List[int] = []
        self._cached: List[int] = []
        self._kv_private: List[int] = []
        self._entry: List[Optional[CacheEntry]] = []
        # Outcome: first-admission stamp, first-token and finish stamps,
        # status, preemptions, and the first admission's cache outcome.
        self._admit_s: List[Optional[float]] = []
        self._first_s: List[Optional[float]] = []
        self._finish_s: List[Optional[float]] = []
        self._status: List[str] = []
        self._preemptions: List[int] = []
        self._hit: List[bool] = []
        self._hit_tokens: List[int] = []
        # Slots with a terminal record, in the order they became one
        # (machine integers: a slot number outlives its request).
        self._terminal = array("q")
        # The state and outcome columns a new slot starts at 0 / None
        # in.  They may run ahead of the submitted slots (see _reserve).
        self._zeroed = (self._tokens_out, self._done, self._cached,
                        self._kv_private, self._preemptions,
                        self._hit_tokens)
        self._unset = (self._entry, self._admit_s, self._first_s,
                       self._finish_s)
        self._kv_per_token = cache.model.kv_cache_bytes(1, 1)
        self._next = 0  # pending queue: slots [_next, len(_arrival))
        # Ready queue: slots [_head, _next) on the FIFO cursor, plus the
        # heap (see the module docstring); off the cursor _head == _next.
        self._head = 0
        self.ready: List[Tuple[Tuple, int, int]] = []
        self.prefilling: List[int] = []
        self.running: List[int] = []
        self.clock = 0.0
        self.kv_used = 0
        self._seq = 0  # heap tie-break counter
        self._event_driven = config.engine == "event"
        self.prefix_cache = PrefixCache() if config.prefix_cache else None
        self._fifo = (
            self._event_driven and self.prefix_cache is None
            and _inherited(policy, SchedulingPolicy, "admission_key",
                           "select_victims")
        )
        # The columns a policy's slot forms read (see policy.py).
        self._columns = dict(zip(_REQUEST_FIELDS, self._fields),
                             tokens_out=self._tokens_out,
                             kv_private=self._kv_private)
        self._key = self._key_function()
        self._victims = self._victims_function()
        # Packed running set (see the module docstring): while ``_kv``
        # is not None, ``_kv[i]`` / ``_left[i]`` are the KV depth and
        # tokens left of ``running[i]`` for every packed position, whose
        # ``_tokens_out`` is stale until :meth:`_unpack` writes it back.
        # ``_fresh`` lists the packed positions yet to emit a token.
        self._kv: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._fresh: List[int] = []
        self._table: Optional[SegmentCostTable] = None
        if faults is not None:
            faults.apply(self)

    def _key_function(self) -> Callable[[int], Tuple]:
        """The policy's admission key as a function of a slot: the
        policy's slot form, else its hook called on a view."""
        key = self.policy._slot_admission_key(self._columns)
        if key is not None:
            return key
        admission_key = self.policy.admission_key
        return lambda slot: admission_key(self._view(slot))

    def _victims_function(self) -> Callable[..., List[int]]:
        """The policy's victim choice as a function of the candidate
        slot, the running slots and the KV bytes missing, returning
        running slots: the policy's slot form, else its hook called on
        views."""
        victims = self.policy._slot_victims(self._columns)
        if victims is not None:
            return victims
        select_victims = self.policy.select_victims

        def hook_victims(slot: int, running: List[int],
                         need_bytes: int) -> List[int]:
            victims = select_victims(
                self._view(slot), list(map(self._view, running)), need_bytes
            )
            return [victim.slot for victim in victims]
        return hook_victims

    # -- request slots ---------------------------------------------------------

    def _request(self, slot: int) -> Request:
        """The :class:`Request` of ``slot``, built from its columns once."""
        request = self._req[slot]
        if request is None:
            request = self._req[slot] = _unchecked_request(
                *(column[slot] for column in self._fields)
            )
        return request

    def _kv_bytes(self, slot: int) -> int:
        """The full logical KV footprint of ``slot`` (prompt plus every
        generated token); the model's KV size is linear in tokens."""
        return self._kv_per_token * (self._prompt[slot] + self._gen[slot])

    def _view(self, slot: int) -> _RequestState:
        """A policy's view of ``slot`` as it stands."""
        return _RequestState(slot, self._request(slot),
                             self._tokens_out[slot], self._kv_private[slot])

    def _record(self, slot: int) -> RequestRecord:
        """A :class:`RequestRecord` of ``slot``'s outcome so far."""
        return RequestRecord(
            self._req_id[slot], self.rank, self._arrival[slot],
            self._prompt[slot], self._gen[slot], self._priority[slot],
            self._slo[slot], self._status[slot], self._admit_s[slot],
            self._first_s[slot], self._finish_s[slot],
            self._preemptions[slot], self._session[slot], self._turn[slot],
            self._hit[slot], self._hit_tokens[slot],
        )

    @property
    def records(self) -> ColumnRecords:
        """This engine's terminal records, sorted by ``req_id`` (ties in
        the order they became terminal), read from its columns.

        Slots lost to a crash with an ``on_crash`` seam set are not
        records of this engine (the cluster owns them); every other
        submitted request is one once the engine has drained.
        """
        slots = array("q", sorted(self._terminal,
                                  key=self._req_id.__getitem__))
        count = len(slots)
        if count == len(self._req_id) and all(map(eq, slots, range(count))):
            slots = None  # every slot, in slot order
        zeros = [0] * len(self._req_id)
        return ColumnRecords({
            "req_id": self._req_id,
            "rank": [self.rank] * len(self._req_id),
            "arrival_s": self._arrival,
            "prompt_tokens": self._prompt,
            "gen_tokens": self._gen,
            "priority": self._priority,
            "slo_ttft_s": self._slo,
            "status": self._status,
            "admit_s": self._admit_s,
            "first_token_s": self._first_s,
            "finish_s": self._finish_s,
            "preemptions": self._preemptions,
            "session_id": self._session,
            "turn": self._turn,
            "cache_hit": self._hit,
            "cached_tokens": self._hit_tokens,
            "retries": zeros,
            "failovers": zeros,
            "shed": [False] * len(self._req_id),
        }, slots)

    # -- incremental driving (cluster seam) -----------------------------------

    @property
    def has_work(self) -> bool:
        """True while any request is pending, queued, prefilling or running."""
        return bool(
            self._head < len(self._arrival) or self.ready
            or self.prefilling or self.running
        )

    def queue_depth(self) -> int:
        """Requests waiting to be served (uncollected + ready queue)."""
        return len(self._arrival) - self._head + len(self.ready)

    def next_event_s(self) -> float:
        """Simulation time of this engine's next scheduler step.

        The current clock while work is in flight, the head arrival
        (clamped to the clock) when only future arrivals remain, and
        ``inf`` when drained.
        """
        if (self._head < self._next or self.ready or self.prefilling
                or self.running):
            return self.clock
        if self._next < len(self._arrival):
            return max(self.clock, self._arrival[self._next])
        return math.inf

    def submit(self, request: Request) -> None:
        """Append ``request`` to the pending queue (arrival order).

        The pending queue is consumed head-first by
        :meth:`_collect_arrivals`, so submissions must arrive in
        non-decreasing arrival time — the cluster's global event loop
        guarantees this by processing arrivals in time order.
        """
        if self.dead:
            raise ValueError(
                f"replica {self.rank} is dead; route request "
                f"{request.req_id} elsewhere"
            )
        arrival = self._arrival
        if self._next < len(arrival) and request.arrival_s < arrival[-1]:
            raise ValueError(
                f"request {request.req_id} submitted out of arrival order "
                f"({request.arrival_s} < {arrival[-1]})"
            )
        if (self._fifo and arrival and request.arrival_s <= arrival[-1]
                and (request.arrival_s, request.req_id)
                < (arrival[-1], self._req_id[-1])):
            self._to_heap()
        self._req_id.append(request.req_id)
        arrival.append(request.arrival_s)
        self._prompt.append(request.prompt_tokens)
        self._gen.append(request.gen_tokens)
        self._priority.append(request.priority)
        self._slo.append(request.slo_ttft_s)
        self._session.append(request.session_id)
        self._turn.append(request.turn)
        self._prefix_id.append(request.shared_prefix_id)
        self._prefix_tokens.append(request.shared_prefix_tokens)
        self._context.append(request.context_tokens)
        self._final.append(request.final_turn)
        self._req.append(request)
        slot = len(arrival) - 1
        if slot == len(self._status):
            self._reserve(slot + _SLOT_CHUNK)
        self.kv_queued_bytes += self._kv_bytes(slot)

    def _reserve(self, slots: int) -> None:
        """Extend the state and outcome columns to at least ``slots``
        slots (a new slot's state is 0 / None, its status completed)."""
        count = slots - len(self._status)
        if count <= 0:
            return
        zeros = [0] * count
        for column in self._zeroed:
            column.extend(zeros)
        nones = [None] * count
        for column in self._unset:
            column.extend(nones)
        self._status.extend(["completed"] * count)
        self._hit.extend([False] * count)

    def submit_columns(self, columns: Dict[str, np.ndarray]) -> None:
        """Append a whole shard at once: ``columns`` maps every
        :class:`Request` field to an array of already-validated values
        (a :class:`~repro.serving.trace.Trace`'s columns, or a masked
        slice of them) in non-decreasing arrival order.

        Equivalent to :meth:`submit` of each row in turn.
        """
        arrival = columns["arrival_s"]
        count = len(arrival)
        if count == 0:
            return
        if self.dead:
            raise ValueError(f"replica {self.rank} is dead")
        if np.any(arrival[1:] < arrival[:-1]) or (
            self._next < len(self._arrival)
            and arrival[0] < self._arrival[-1]
        ):
            raise ValueError("shard submitted out of arrival order")
        if self._fifo:
            ids = columns["req_id"]
            tied = arrival[1:] == arrival[:-1]
            if np.any(ids[1:][tied] < ids[:-1][tied]) or (
                self._req_id and (float(arrival[0]), int(ids[0]))
                < (self._arrival[-1], self._req_id[-1])
            ):
                self._to_heap()
        for column, name in zip(self._fields, _REQUEST_FIELDS):
            column.extend(columns[name].tolist())
        self._req.extend([None] * count)
        self._reserve(len(self._req))
        self.kv_queued_bytes += self._kv_per_token * int(
            (columns["prompt_tokens"] + columns["gen_tokens"]).sum()
        )

    def advance(self, horizon_s: float) -> None:
        """Run scheduler steps whose start time is at or before ``horizon_s``.

        ``advance(math.inf)`` drains the engine completely; a decode
        segment that *starts* before the horizon may finish past it (the
        engine never splits a committed segment).
        """
        if self._has_faults:
            self._advance_faulted(horizon_s)
            return
        while self.has_work and self.next_event_s() <= horizon_s:
            self._step()

    def finalize(self) -> RankStats:
        """Close the books once drained: stamp finish time and final KV."""
        self.stats.finish_s = self.clock
        # Whatever KV is still reserved at drain belongs to the cache
        # (every request released or donated its private pages).
        self.stats.kv_final_bytes = self.kv_used
        return self.stats

    # -- fault injection ------------------------------------------------------

    def fail_at(self, t_s: float) -> None:
        """Schedule a crash: the replica dies at the first scheduler-step
        boundary at or past ``t_s``, losing all in-flight requests, KV
        reservations and prefix-cache entries (a committed step is never
        split, so a segment started before ``t_s`` completes first)."""
        if t_s < 0:
            raise ValueError(f"fail_at t_s must be >= 0, got {t_s}")
        self._crash_s = min(self._crash_s, t_s)
        self._has_faults = True

    @property
    def crash_s(self) -> float:
        """Scheduled crash time (``inf`` when none is scheduled)."""
        return self._crash_s

    def stall(self, t_s: float, duration_s: float) -> None:
        """Schedule a transient freeze over ``[t_s, t_s + duration_s)``:
        no step starts inside the window (the clock jumps over it) and
        health-aware routing excludes the replica for its duration."""
        if t_s < 0:
            raise ValueError(f"stall t_s must be >= 0, got {t_s}")
        if duration_s <= 0:
            raise ValueError(f"stall duration_s must be > 0, got {duration_s}")
        self._stalls.append((t_s, t_s + duration_s))
        self._stalls.sort()
        self._has_faults = True

    def degrade(self, t_s: float, duration_s: float, factor: float) -> None:
        """Schedule a slowdown: every costed step that *starts* inside
        ``[t_s, t_s + duration_s)`` takes ``factor``× its modeled
        latency (energy is unchanged — the same work, done slower)."""
        if t_s < 0:
            raise ValueError(f"degrade t_s must be >= 0, got {t_s}")
        if duration_s <= 0:
            raise ValueError(
                f"degrade duration_s must be > 0, got {duration_s}"
            )
        if factor <= 1.0:
            raise ValueError(f"degrade factor must be > 1.0, got {factor}")
        self._degrades.append((t_s, t_s + duration_s, factor))
        self._degrades.sort(key=lambda w: w[0])
        self._has_faults = True

    def is_stalled(self, t_s: float) -> bool:
        """True while ``t_s`` falls inside a scheduled stall window."""
        return any(start <= t_s < end for start, end in self._stalls)

    def stall_edge_after(self, t_s: float) -> float:
        """Earliest stall-window start or end strictly after ``t_s``
        (``inf`` when none): :meth:`is_stalled` is constant from ``t_s``
        up to that edge."""
        return min(
            (edge for window in self._stalls for edge in window
             if edge > t_s),
            default=math.inf,
        )

    def _fault_factor(self) -> float:
        """Latency multiplier for a step starting at the current clock."""
        factor = 1.0
        for start, end, window_factor in self._degrades:
            if start <= self.clock < end:
                factor *= window_factor
        return factor

    def _crash(self) -> None:
        """Die at the scheduled crash time, losing all in-flight state.

        An idle death leaves the clock at the end of the last work, so
        a crash scheduled after the replica drained does not stretch
        its ``finish_s`` (nor the run's makespan).
        """
        t = max(self.clock, self._crash_s)
        if self.has_work:
            self.clock = t
        self.dead = True
        self.retired = True
        self._unpack()
        lost = self.prefilling + self.running
        lost.extend(range(self._head, self._next))
        while self.ready:
            lost.append(heapq.heappop(self.ready)[2])
        # Pending requests were never collected, so their arrive events
        # have not fired yet — emit them now so the replay oracle sees
        # an arrival before the crash that lost them.
        pending = range(self._next, len(self._arrival))
        if self._trace is not None:
            for slot in pending:
                self._trace_arrive(slot)
        lost.extend(pending)
        self._head = self._next = len(self._arrival)
        self.prefilling = []
        self.running = []
        kv_lost = self.kv_used
        self.kv_used = 0
        self.kv_queued_bytes = 0
        # The rank's memory died with it: drop every cache entry.
        if self.prefix_cache is not None:
            self.prefix_cache = PrefixCache()
        lost.sort(key=self._req_id.__getitem__)
        if self._trace is not None:
            self._trace.emit(
                "fault_crash", t, self.rank,
                lost_req_ids=[self._req_id[slot] for slot in lost],
                kv_lost_bytes=kv_lost,
            )
        if self.on_crash is not None:
            self.on_crash(self, t, [
                (self._request(slot), self._record(slot)) for slot in lost
            ])
        else:
            for slot in lost:
                self._status[slot] = "failed"
                self._finish_s[slot] = t
            self._terminal.extend(lost)

    def _advance_faulted(self, horizon_s: float) -> None:
        """The :meth:`advance` loop with crash/stall/degrade applied.

        Crashes fire at the first step boundary at or past the crash
        time; stalls jump the clock over their window; degradations are
        applied at the costed sites via :meth:`_fault_factor`.  Stall
        and degrade windows are traced once each by the plan's owner
        (:meth:`~repro.serving.faults.FaultPlan.trace_windows`), not
        here, so a window on an idle or dead replica is traced too.
        """
        if self.dead:
            return
        while self.has_work and self.next_event_s() <= horizon_s:
            t = max(self.clock, self.next_event_s())
            if t >= self._crash_s:
                self._crash()
                return
            stalled = False
            for start, end in self._stalls:
                if start <= t < end:
                    if self._crash_s < end:
                        # Died mid-stall: never wakes up.
                        self._crash()
                        return
                    self.clock = end
                    stalled = True
                    break
            if stalled:
                continue
            self._step()
        if self._crash_s < math.inf and horizon_s >= self._crash_s:
            # Idle (or past-horizon) death: the replica dies on
            # schedule even with no work in flight.
            self._crash()

    # -- ready-queue helpers ------------------------------------------------

    def _enqueue(self, slot: int) -> None:
        heapq.heappush(self.ready, (self._key(slot), self._seq, slot))
        self._seq += 1

    def _to_heap(self) -> None:
        """Leave the FIFO cursor for good: push the ready range onto the
        heap, where every later arrival goes too."""
        self._fifo = False
        for slot in range(self._head, self._next):
            self._enqueue(slot)
        self._head = self._next

    def _collect_arrivals(self) -> None:
        # Submission order is arrival order, so the arrived slots are
        # the pending prefix up to the clock.
        start = self._next
        end = bisect_right(self._arrival, self.clock, start)
        if start == end:
            return
        if self._trace is not None:
            for slot in range(start, end):
                self._trace_arrive(slot)
        self._next = end
        if self._fifo:
            return
        ready, key, seq = self.ready, self._key, self._seq
        for slot in range(start, end):
            heapq.heappush(ready, (key(slot), seq, slot))
            seq += 1
        self._seq = seq
        self._head = end

    def _trace_arrive(self, slot: int) -> None:
        """Emit ``arrive``, stamped with the request's arrival time."""
        self._trace.emit(
            "arrive", self._arrival[slot], self.rank, self._req_id[slot],
            prompt_tokens=self._prompt[slot],
            gen_tokens=self._gen[slot], priority=self._priority[slot],
            slo_ttft_s=self._slo[slot], session_id=self._session[slot],
            turn=self._turn[slot],
        )

    # -- admission + preemption ---------------------------------------------

    def _preempt(
        self, victims: Sequence[int], evictable_bytes: int = 0
    ) -> None:
        pc = self.prefix_cache
        for slot in victims:
            self.running.remove(slot)
            self.kv_used -= self._kv_private[slot]
            self._preemptions[slot] += 1
            self.stats.preemptions += 1
            self._done[slot] = 0
            if self._trace is not None:
                req_id = self._req_id[slot]
                self._trace.emit(
                    "preempt", self.clock, self.rank, req_id,
                    kv_bytes=self._kv_private[slot],
                    tokens_out=self._tokens_out[slot],
                    cache_evictable_bytes=evictable_bytes,
                )
                self._trace.emit("requeue", self.clock, self.rank, req_id)
            entry = self._entry[slot]
            if pc is not None and entry is not None:
                pc.release(entry)
                self._entry[slot] = None
            self._cached[slot] = 0
            self._kv_private[slot] = 0
            self.kv_queued_bytes += self._kv_bytes(slot)
            self._enqueue(slot)

    def _evict_entries(self, entries: Sequence[CacheEntry]) -> None:
        """Execute a planned eviction list (children precede parents)."""
        pc = self.prefix_cache
        for entry in entries:
            pc.evict(entry)
            self.kv_used -= entry.owned_bytes
            self.stats.cache_evictions += 1
            if self._trace is not None:
                self._trace.emit(
                    "cache_evict", self.clock, self.rank,
                    key=":".join(map(str, entry.key)),
                    depth_tokens=entry.depth_tokens,
                    kv_bytes=entry.owned_bytes,
                )

    def _admit(self) -> None:
        if self._fifo:
            self._admit_window()
            return
        pc = self.prefix_cache
        model = self.cache.model
        stats = self.stats
        max_batch = self.config.max_batch
        prompt, gen, kv_per_token = self._prompt, self._gen, self._kv_per_token
        while self.ready:
            if len(self.running) + len(self.prefilling) >= max_batch:
                break
            key, seq, slot = heapq.heappop(self.ready)
            kv_bytes = kv_per_token * (prompt[slot] + gen[slot])
            # Rejection ignores the cache on purpose: admission must
            # stay feasible even if the hit is later evicted after a
            # preemption, so the cache never changes *which* requests
            # are servable, only how cheaply.
            if kv_bytes > self.kv_capacity:
                self._status[slot] = "rejected"
                self.kv_queued_bytes -= kv_bytes
                self._terminal.append(slot)
                if self._trace is not None:
                    self._trace.emit("reject", self.clock, self.rank,
                                     self._req_id[slot], kv_bytes=kv_bytes)
                continue
            hit = pc.lookup(self._request(slot)) if pc is not None else None
            cached = hit.depth_tokens if hit is not None else 0
            need = kv_bytes - (
                model.kv_cache_bytes(1, cached) if cached else 0
            )
            if self.kv_used + need > self.kv_capacity:
                gap = self.kv_used + need - self.kv_capacity
                plan: List[CacheEntry] = []
                freed = 0
                exclude: set = frozenset()
                if pc is not None:
                    exclude = pc.chain(hit)
                    plan, freed = pc.plan_evictions(self.policy, gap, exclude)
                if freed >= gap:
                    # Eviction alone closes the gap: no preemption.
                    self._evict_entries(plan)
                else:
                    # Victim selection reads the running slots'
                    # ``tokens_out``, and preemption edits the batch.
                    self._unpack()
                    victims = self._victims(slot, self.running, gap - freed)
                    # Honor the policy contract: evict/preempt only if
                    # that actually closes the KV gap — and evictions
                    # always go first, leaving nothing reclaimable by
                    # the time a victim is preempted.
                    if victims and sum(
                        self._kv_private[v] for v in victims
                    ) >= gap - freed:
                        self._evict_entries(plan)
                        evictable = (
                            pc.evictable_bytes(exclude)
                            if pc is not None and self._trace is not None
                            else 0
                        )
                        self._preempt(victims, evictable)
                    if self.kv_used + need > self.kv_capacity:
                        # Same (key, seq): the candidate returns to its
                        # place (cache state may differ on the next try,
                        # so the hit is re-resolved then).
                        heapq.heappush(self.ready, (key, seq, slot))
                        break
            self.kv_used += need
            self.kv_queued_bytes -= kv_bytes
            if self.kv_used > stats.kv_peak_bytes:
                stats.kv_peak_bytes = self.kv_used
            readmit = self._admit_s[slot] is not None
            tokens_out = self._tokens_out[slot]
            target = prompt[slot] + tokens_out
            if not readmit:
                self._admit_s[slot] = self.clock
            else:
                stats.requeues += 1
                stats.recompute_tokens += target
            self._done[slot] = cached
            self._cached[slot] = cached
            self._kv_private[slot] = need
            if pc is not None:
                if hit is not None:
                    pc.acquire(hit, self.clock)
                    self._entry[slot] = hit
                if cached > 0:
                    stats.cache_hits += 1
                    stats.cache_hit_tokens += cached
                else:
                    stats.cache_misses += 1
                if not readmit:
                    self._hit[slot] = cached > 0
                    self._hit_tokens[slot] = cached
            stats.kv_logical_bytes += kv_bytes
            stats.kv_reserved_bytes += need
            if self._trace is not None:
                req_id = self._req_id[slot]
                self._trace.emit(
                    "admit", self.clock, self.rank, req_id,
                    kv_bytes=need, kv_used_bytes=self.kv_used,
                    readmit=readmit, prefix_tokens=target,
                    cached_tokens=cached if pc is not None else -1,
                    kv_full_bytes=kv_bytes,
                )
                if cached > 0:
                    self._trace.emit(
                        "cache_hit", self.clock, self.rank, req_id,
                        cached_tokens=cached,
                        kv_saved_bytes=kv_bytes - need,
                    )
            self.prefilling.append(slot)

    def _admit_window(self) -> None:
        """One admission round on the FIFO cursor (no prefix cache).

        Walks the ready range in order and makes the heap loop's
        decisions: a request whose KV footprint exceeds the capacity is
        rejected and takes no batch slot, the round stops before a
        request that fits the capacity but not the current headroom,
        and right after the admission that takes the last free slot.
        A FIFO policy never preempts, so every admission is a first one
        with nothing generated and nothing cached; the admitted runs
        between rejections are written by slice assignment.
        """
        head, end = self._head, self._next
        free = self.config.max_batch - len(self.running) - len(self.prefilling)
        if head == end or free <= 0:
            return
        capacity, kv_per_token = self.kv_capacity, self._kv_per_token
        prompt, gen = self._prompt, self._gen
        used = start_used = self.kv_used
        rejected: List[int] = []
        kvs: List[int] = []  # KV footprint of each walked slot
        slot = head
        while slot < end and free:
            kv_bytes = kv_per_token * (prompt[slot] + gen[slot])
            if kv_bytes > capacity:
                rejected.append(slot)
            elif used + kv_bytes > capacity:
                break
            else:
                used += kv_bytes
                free -= 1
            kvs.append(kv_bytes)
            slot += 1
        if slot == head:
            return
        self._head = stop = slot
        admitted = used - start_used
        self.kv_used = used
        self.kv_queued_bytes -= admitted
        stats = self.stats
        if used > stats.kv_peak_bytes:
            stats.kv_peak_bytes = used
        stats.kv_logical_bytes += admitted
        stats.kv_reserved_bytes += admitted
        clock = self.clock
        run = head
        for edge in (*rejected, stop):
            if run < edge:
                self._admit_s[run:edge] = [clock] * (edge - run)
                self._kv_private[run:edge] = kvs[run - head:edge - head]
                self.prefilling.extend(range(run, edge))
            run = edge + 1
        for slot in rejected:
            self._status[slot] = "rejected"
            self.kv_queued_bytes -= kvs[slot - head]
        self._terminal.extend(rejected)
        if self._trace is not None:
            used = start_used
            for slot, kv_bytes in zip(range(head, stop), kvs):
                req_id = self._req_id[slot]
                if kv_bytes > capacity:
                    self._trace.emit("reject", clock, self.rank, req_id,
                                     kv_bytes=kv_bytes)
                    continue
                used += kv_bytes
                self._trace.emit(
                    "admit", clock, self.rank, req_id,
                    kv_bytes=kv_bytes, kv_used_bytes=used, readmit=False,
                    prefix_tokens=prompt[slot], cached_tokens=-1,
                    kv_full_bytes=kv_bytes,
                )

    # -- work stages ---------------------------------------------------------

    def _prefill_stage(self) -> None:
        still: List[int] = []
        done_of, prompt, tokens_out = self._done, self._prompt, self._tokens_out
        chunk_of = self.policy.prefill_chunk
        cost_of = self.cache.prefill_chunk
        for slot in self.prefilling:
            done = done_of[slot]
            target = prompt[slot] + tokens_out[slot]
            remaining = target - done
            chunk = min(chunk_of(remaining), remaining)
            latency, energy = cost_of(done, chunk)
            if self._has_faults:
                latency *= self._fault_factor()
            if self._trace is not None:
                self._trace.emit("prefill_chunk_start", self.clock,
                                 self.rank, self._req_id[slot],
                                 done_tokens=done, chunk_tokens=chunk)
            self.clock += latency
            self.stats.busy_s += latency
            self.stats.energy_j += energy
            self.stats.prefill_tokens += chunk
            done += chunk
            done_of[slot] = done
            if self._trace is not None:
                self._trace.emit("prefill_chunk_end", self.clock, self.rank,
                                 self._req_id[slot], chunk_tokens=chunk,
                                 latency_s=latency, energy_j=energy)
            if done >= target:
                if self.prefix_cache is not None:
                    self._retain_shared_prefix(slot)
                self.running.append(slot)
            else:
                still.append(slot)
        self.prefilling = still

    def _retain_shared_prefix(self, slot: int) -> None:
        """Publish a freshly prefilled system prompt into the cache.

        Fires once per shared prefix per rank: the first request to
        prefill a system prompt from scratch (no hit covered it) carves
        the prompt's pages out of its private reservation into a
        ``("sys", id)`` entry other sessions can resume from.  The bytes
        merely change owner — ``kv_used`` is untouched.
        """
        pc = self.prefix_cache
        prefix_id = self._prefix_id[slot]
        prefix_tokens = self._prefix_tokens[slot]
        if prefix_id < 0 or self._cached[slot] >= prefix_tokens:
            return
        key = ("sys", prefix_id)
        if pc.get(key) is not None:
            return
        owned = self.cache.model.kv_cache_bytes(1, prefix_tokens)
        entry = pc.insert(key, prefix_tokens, owned, None, self.clock)
        self._kv_private[slot] -= owned
        pc.acquire(entry, self.clock)
        self._entry[slot] = entry

    def _release_kv(self, slots: Sequence[int]) -> None:
        """Release finished requests' KV — or hand it to the cache.

        Slot by slot in order: a finished non-final turn donates its
        private pages as the ``("sess", session, turn + 1)`` entry the
        session's next turn resumes from (chained onto whatever prefix
        this turn resumed from, so shared bytes stay counted once);
        everything else frees its private reservation and drops its
        cache reference.
        """
        pc = self.prefix_cache
        kv_private = self._kv_private
        for slot in slots:
            entry = self._entry[slot]
            if (
                pc is not None
                and self._session[slot] >= 0
                and not self._final[slot]
            ):
                key = ("sess", self._session[slot], self._turn[slot] + 1)
                if pc.get(key) is None:
                    pc.insert(
                        key, self._prompt[slot] + self._gen[slot],
                        kv_private[slot], entry, self.clock,
                    )
                    if entry is not None:
                        pc.release(entry)
                        self._entry[slot] = None
                    kv_private[slot] = 0
                    continue
            self.kv_used -= kv_private[slot]
            kv_private[slot] = 0
            if pc is not None and entry is not None:
                pc.release(entry)
                self._entry[slot] = None

    # -- decode --------------------------------------------------------------

    def _first_token(self, slot: int, t_s: float) -> None:
        """Stamp (and trace) a request's first generated token at ``t_s``."""
        self._first_s[slot] = t_s
        if self._trace is not None:
            self._trace.emit("first_token", t_s, self.rank,
                             self._req_id[slot])

    def _finish(self, slot: int) -> None:
        """Retire a request whose last token lands at the current clock."""
        self._finish_s[slot] = self.clock
        self._release_kv((slot,))
        self._terminal.append(slot)
        if self._trace is not None:
            self._trace.emit("finish", self.clock, self.rank,
                             self._req_id[slot],
                             tokens_out=self._tokens_out[slot])

    def _decode_iteration(self) -> None:
        packed = self._packed()
        running = self.running
        batch = len(running)
        latency, energy = self.cache.weight_step(batch)
        prompt, tokens_out = self._prompt, self._tokens_out
        if packed:
            kv = self._kv + 1
            latency = _seq_sum(latency, self._table.step_lat[kv])
            energy = _seq_sum(energy, self._table.step_energy[kv])
        else:
            attn_step = self.cache.attn_step
            for slot in running:
                attn_latency, attn_energy = attn_step(
                    prompt[slot] + tokens_out[slot] + 1
                )
                latency += attn_latency
                energy += attn_energy
        if self._has_faults:
            latency *= self._fault_factor()
        self.clock += latency
        self.stats.busy_s += latency
        self.stats.energy_j += energy
        self.stats.decode_iterations += 1
        self.stats.output_tokens += batch
        if self._detail:
            self._trace.emit("decode_segment", self.clock, self.rank,
                             batch=batch, tokens=1, latency_s=latency,
                             energy_j=energy)
        if packed:
            self._kv = kv
            self._left -= 1
            self._retire_packed(self._fresh)
            return
        gen = self._gen
        still_running: List[int] = []
        for slot in running:
            out = tokens_out[slot] + 1
            tokens_out[slot] = out
            if out == 1:
                self._first_token(slot, self.clock)
            if out >= gen[slot]:
                self._finish(slot)
            else:
                still_running.append(slot)
        self.running = still_running

    # -- packed running set ----------------------------------------------------

    def _packed(self) -> bool:
        """Bring the packed running set up to date; False when not in use.

        Only the event engine packs, and only from
        :data:`PACKED_MIN_BATCH` requests up; below it the columns are
        written back and dropped.  Requests that joined the batch since
        the last call are appended, so a steady wide batch touches a
        slot only when it joins, starts or finishes.
        """
        running = self.running
        if not self._event_driven or len(running) < PACKED_MIN_BATCH:
            if self._kv is not None:
                self._unpack()
            return False
        start = 0 if self._kv is None else self._kv.size
        if start == len(running):
            return True
        joined = running[start:]

        def gather(column: list) -> np.ndarray:
            return np.fromiter(map(column.__getitem__, joined),
                               dtype=np.int64, count=len(joined))

        prompt, gen, out = (gather(self._prompt), gather(self._gen),
                            gather(self._tokens_out))
        self._fresh.extend((start + (out == 0).nonzero()[0]).tolist())
        kv = prompt + out
        left = gen - out
        self._table = self.cache.segment_table()
        self._table.ensure(int((prompt + gen).max()))
        if start:
            kv = np.concatenate((self._kv, kv))
            left = np.concatenate((self._left, left))
        self._kv, self._left = kv, left
        return True

    def _unpack(self) -> None:
        """Write the packed ``tokens_out`` back and drop the columns."""
        if self._kv is None:
            return
        tokens_out, gen = self._tokens_out, self._gen
        for slot, left in zip(self.running, self._left.tolist()):
            tokens_out[slot] = gen[slot] - left
        self._kv = self._left = None
        self._fresh = []

    def _retire_packed(self, firsts: List[int]) -> None:
        """Stamp first tokens at positions ``firsts``, then retire finishes.

        Both happen at the current clock, in one pass each over the
        positions touched: the first-token stamps, then the finished
        requests' outcome writes, one release of their KV and one
        extension of the terminal slots in running order.  A traced run
        emits the per-request loop's events in its order (per position,
        ``first_token`` before ``finish``).  The finished leave the
        batch.  A segment never runs past the shortest remaining
        request, so the finished are exactly the positions with no
        tokens left, and each has produced all of its ``gen_tokens``.
        """
        finished = self._left == 0
        done = finished.nonzero()[0].tolist()
        self._fresh = []
        running, clock = self.running, self.clock
        first_s = self._first_s
        for i in firsts:
            first_s[running[i]] = clock
        slots = list(map(running.__getitem__, done))
        tokens_out, gen, finish_s = self._tokens_out, self._gen, self._finish_s
        for slot in slots:
            tokens_out[slot] = gen[slot]
            finish_s[slot] = clock
        if slots:
            self._release_kv(slots)
            self._terminal.extend(slots)
        if self._trace is not None:
            first_set = set(firsts)
            for i in sorted(first_set.union(done)):
                req_id = self._req_id[running[i]]
                if i in first_set:
                    self._trace.emit("first_token", clock, self.rank, req_id)
                if finished[i]:
                    self._trace.emit("finish", clock, self.rank, req_id,
                                     tokens_out=tokens_out[running[i]])
        if done:
            keep = ~finished
            self._kv = self._kv[keep]
            self._left = self._left[keep]
            for i in reversed(done):
                del running[i]

    # -- event-driven decode segments -----------------------------------------

    def _segment_latency(self, tokens: int) -> float:
        """Closed-form latency of ``tokens`` decode iterations from here."""
        total = tokens * self.cache.weight_step(len(self.running))[0]
        if self._kv is not None:
            cum = self._table.cum_lat
            total = _seq_sum(total, cum[self._kv + tokens] - cum[self._kv])
        else:
            prompt, tokens_out = self._prompt, self._tokens_out
            for slot in self.running:
                kv = prompt[slot] + tokens_out[slot]
                total += self.cache.attn_segment(kv + 1, kv + tokens)[0]
        if self._has_faults:
            total *= self._fault_factor()
        return total

    def _cap_to_arrival(self, tokens: int) -> int:
        """Truncate a segment at the next arrival's iteration boundary.

        Returns the smallest iteration count whose closing clock is at
        or past the next pending arrival (that is where the per-token
        loop would first collect — and possibly admit — it), or
        ``tokens`` unchanged when the arrival lands beyond the segment.
        """
        horizon = self._arrival[self._next]
        if self.clock + self._segment_latency(tokens) < horizon:
            return tokens
        lo, hi = 1, tokens
        while lo < hi:
            mid = (lo + hi) // 2
            if self.clock + self._segment_latency(mid) >= horizon:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _decode_segment(self) -> None:
        """Advance the whole running batch to the next scheduler event.

        Only called with an empty prefill stage, so the batch
        composition is constant until the earliest completion — or, when
        a batch slot is free (an arrival could be admitted mid-segment),
        until the next pending arrival's iteration boundary.  Requests
        that have not produced a token yet get their first-token stamp
        from the segment's first iteration boundary, computed exactly
        the way :meth:`_decode_iteration` would.
        """
        packed = self._packed()
        running = self.running
        prompt, gen, tokens_out = self._prompt, self._gen, self._tokens_out
        if packed:
            tokens = int(self._left.min())
        else:
            tokens = min(map(sub, map(gen.__getitem__, running),
                             map(tokens_out.__getitem__, running)))
        if (
            tokens > 1
            and self._next < len(self._arrival)
            and len(running) < self.config.max_batch
        ):
            tokens = self._cap_to_arrival(tokens)
        if tokens <= 1:
            self._decode_iteration()
            return
        batch = len(running)
        weight_latency, weight_energy = self.cache.weight_step(batch)
        latency = tokens * weight_latency
        energy = tokens * weight_energy
        if packed:
            table, kv = self._table, self._kv
            latency = _seq_sum(
                latency, table.cum_lat[kv + tokens] - table.cum_lat[kv]
            )
            energy = _seq_sum(
                energy, table.cum_energy[kv + tokens] - table.cum_energy[kv]
            )
        else:
            # One scan costs the segment and finds the fresh requests.
            fresh = []
            attn_segment = self.cache.attn_segment
            for slot in running:
                out = tokens_out[slot]
                if out == 0:
                    fresh.append(slot)
                kv = prompt[slot] + out
                attn_latency, attn_energy = attn_segment(kv + 1, kv + tokens)
                latency += attn_latency
                energy += attn_energy
        if self._has_faults:
            latency *= self._fault_factor()
        if packed:
            fresh = list(map(running.__getitem__, self._fresh))
            self._fresh = []
        if fresh:
            # Clock after the segment's first iteration, accumulated in
            # the same order as the per-token loop.
            if packed:
                first_latency = _seq_sum(
                    weight_latency, self._table.step_lat[self._kv + 1]
                )
            else:
                first_latency = weight_latency
                attn_step = self.cache.attn_step
                for slot in running:
                    first_latency += attn_step(
                        prompt[slot] + tokens_out[slot] + 1
                    )[0]
            if self._has_faults:
                first_latency *= self._fault_factor()
            first_boundary = self.clock + first_latency
            for slot in fresh:
                self._first_token(slot, first_boundary)
        self.clock += latency
        self.stats.busy_s += latency
        self.stats.energy_j += energy
        self.stats.decode_iterations += tokens
        self.stats.output_tokens += tokens * batch
        if self._detail:
            self._trace.emit("decode_segment", self.clock, self.rank,
                             batch=batch, tokens=tokens, latency_s=latency,
                             energy_j=energy)
        if packed:
            self._kv += tokens
            self._left -= tokens
            self._retire_packed([])
            return
        still_running: List[int] = []
        for slot in running:
            out = tokens_out[slot] + tokens
            tokens_out[slot] = out
            if out >= gen[slot]:
                self._finish(slot)
            else:
                still_running.append(slot)
        self.running = still_running

    # -- main loop -----------------------------------------------------------

    def _step(self) -> None:
        """One scheduler iteration: collect, admit, prefill, advance decode."""
        self._collect_arrivals()
        self._admit()
        if self._detail:
            self._trace.sample(self.clock, self.rank, self.kv_used,
                               len(self.running),
                               self._next - self._head + len(self.ready))
        self._prefill_stage()
        if self.running:
            if self._event_driven and not self.prefilling:
                self._decode_segment()
            else:
                self._decode_iteration()
        elif not self.prefilling and self._next < len(self._arrival):
            # Idle: jump to the next arrival.
            self.clock = max(self.clock, self._arrival[self._next])

    def run(self) -> RankStats:
        """Drain the engine: ``advance(math.inf)``, then :meth:`finalize`."""
        self.advance(math.inf)
        return self.finalize()
