"""One replica's continuous-batching engine.

:class:`_RankEngine` owns a single rank's scheduler state (pending →
ready → prefilling → running) and advances it one scheduler iteration
at a time (:meth:`_RankEngine._step`) through one drive path,
:meth:`_RankEngine.advance`:

* **Run-to-drain** (:meth:`_RankEngine.run`, which is
  ``advance(math.inf)`` then :meth:`_RankEngine.finalize`) — the
  single-deployment driver submits every request of its shard in
  arrival order, then drains the engine in one call.
* **Incremental** (:meth:`_RankEngine.submit` /
  :meth:`_RankEngine.advance` / :meth:`_RankEngine.finalize`) — the
  cluster layer reveals arrivals one routing decision at a time and
  advances the engine lazily to a time horizon, so routers can observe
  live queue depth and KV occupancy between arrivals.

A :class:`~repro.serving.faults.FaultPlan` passed to the constructor
registers its specs for the engine's rank through the fault hooks
(:meth:`_RankEngine.fail_at` / ``stall`` / ``degrade``).

Event-driven engines whose running batch is at least
:data:`PACKED_MIN_BATCH` wide keep it as a *packed running set*: numpy
columns of each running request's KV depth and tokens left, costed with
gathers from the cost cache's dense
:class:`~repro.serving.engine.costs.SegmentCostTable` instead of one
dict lookup per request.  Sums accumulate left to right in running
order (:func:`_seq_sum`), so the packed path is bit-identical to the
per-request one it replaces.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.engine.cache import CacheEntry, PrefixCache
from repro.serving.engine.config import ServingConfig
from repro.serving.engine.costs import SegmentCostTable, _CostCache
from repro.serving.engine.records import RankStats, RequestRecord
from repro.serving.policy import SchedulingPolicy
from repro.serving.trace import Request

__all__ = ["_RequestState", "_RankEngine", "PACKED_MIN_BATCH"]

#: Running-batch width from which the event engine costs decode on the
#: packed running set.  Below it per-request dict lookups are cheaper
#: than numpy call overhead; the crossover is measured by the
#: ``batch_width`` entry of ``tools/bench.py``.
PACKED_MIN_BATCH = 64


def _seq_sum(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...`` accumulated left to right.

    The same float as the per-request loop's running ``+=``;
    ``ndarray.sum()`` adds pairwise and rounds differently.
    """
    return float(np.cumsum(np.concatenate(((start,), terms)))[-1])


@dataclass
class _RequestState:
    """Mutable per-request scheduling state inside a rank engine.

    ``prefix_target`` / ``prefix_done`` track the prefix (prompt plus
    any previously generated tokens after a preemption) that must be
    prefilled before the request may decode again; a prefix-cache hit
    pre-credits ``prefix_done`` so only the uncached tail is prefilled.
    ``kv_bytes`` is the request's full logical KV footprint;
    ``kv_private`` the bytes it actually reserved this admission (the
    footprint minus the cached prefix — equal to ``kv_bytes`` whenever
    the cache is off or missed).
    """

    request: Request
    record: RequestRecord
    kv_bytes: int
    tokens_out: int = 0
    prefix_target: int = 0
    prefix_done: int = 0
    cached_tokens: int = 0
    kv_private: int = 0
    cache_entry: Optional[CacheEntry] = None


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
        self.records: List[RequestRecord] = []
        self.pending: deque = deque()
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
        self.ready: List[Tuple[Tuple, int, _RequestState]] = []
        self.prefilling: List[_RequestState] = []
        self.running: List[_RequestState] = []
        self.clock = 0.0
        self.kv_used = 0
        self._seq = 0  # heap tie-break counter
        self._event_driven = config.engine == "event"
        self.prefix_cache = PrefixCache() if config.prefix_cache else None
        # Packed running set (see the module docstring): while ``_kv``
        # is not None, ``_kv[i]`` / ``_left[i]`` are the KV depth and
        # tokens left of ``running[i]`` for every packed position, whose
        # ``tokens_out`` is stale until :meth:`_unpack` writes it back.
        # ``_fresh`` lists the packed positions yet to emit a token.
        self._kv: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._fresh: List[int] = []
        self._table: Optional[SegmentCostTable] = None
        if faults is not None:
            faults.apply(self)

    # -- incremental driving (cluster seam) -----------------------------------

    @property
    def has_work(self) -> bool:
        """True while any request is pending, queued, prefilling or running."""
        return bool(self.pending or self.ready or self.prefilling or self.running)

    def queue_depth(self) -> int:
        """Requests waiting to be served (uncollected + ready queue)."""
        return len(self.pending) + len(self.ready)

    def next_event_s(self) -> float:
        """Simulation time of this engine's next scheduler step.

        The current clock while work is in flight, the head arrival
        (clamped to the clock) when only future arrivals remain, and
        ``inf`` when drained.
        """
        if self.ready or self.prefilling or self.running:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0].request.arrival_s)
        return math.inf

    def submit(self, request: Request) -> None:
        """Append ``request`` to the pending queue (arrival order).

        The pending deque is consumed head-first by
        :meth:`_collect_arrivals`, so submissions must arrive in
        non-decreasing arrival time — the cluster's global event loop
        guarantees this by processing arrivals in time order.
        """
        if self.dead:
            raise ValueError(
                f"replica {self.rank} is dead; route request "
                f"{request.req_id} elsewhere"
            )
        if self.pending and request.arrival_s < self.pending[-1].request.arrival_s:
            raise ValueError(
                f"request {request.req_id} submitted out of arrival order "
                f"({request.arrival_s} < {self.pending[-1].request.arrival_s})"
            )
        self.pending.append(
            _RequestState(
                request=request,
                record=RequestRecord.from_request(request, self.rank),
                kv_bytes=self.cache.model.kv_cache_bytes(
                    1, request.prompt_tokens + request.gen_tokens
                ),
            )
        )
        self.kv_queued_bytes += self.pending[-1].kv_bytes

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
        lost_states = list(self.prefilling) + list(self.running)
        while self.ready:
            _, _, state = heapq.heappop(self.ready)
            lost_states.append(state)
        # Pending requests were never collected, so their arrive events
        # have not fired yet — emit them now so the replay oracle sees
        # an arrival before the crash that lost them.
        for state in self.pending:
            if self._trace is not None:
                self._trace_arrive(state.request)
            lost_states.append(state)
        self.pending.clear()
        self.prefilling = []
        self.running = []
        kv_lost = self.kv_used
        self.kv_used = 0
        self.kv_queued_bytes = 0
        # The rank's memory died with it: drop every cache entry.
        if self.prefix_cache is not None:
            self.prefix_cache = PrefixCache()
        lost_states.sort(key=lambda s: s.record.req_id)
        lost = [(s.request, s.record) for s in lost_states]
        if self._trace is not None:
            self._trace.emit(
                "fault_crash", t, self.rank,
                lost_req_ids=[r.req_id for _, r in lost],
                kv_lost_bytes=kv_lost,
            )
        if self.on_crash is not None:
            self.on_crash(self, t, lost)
        else:
            for _, record in lost:
                record.status = "failed"
                record.finish_s = t
                self.records.append(record)

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

    def _enqueue(self, state: _RequestState) -> None:
        heapq.heappush(self.ready, (self.policy.admission_key(state), self._seq, state))
        self._seq += 1

    def _collect_arrivals(self) -> None:
        while self.pending and self.pending[0].request.arrival_s <= self.clock:
            state = self.pending.popleft()
            if self._trace is not None:
                self._trace_arrive(state.request)
            self._enqueue(state)

    def _trace_arrive(self, request: Request) -> None:
        """Emit ``arrive``, stamped with the request's arrival time."""
        self._trace.emit(
            "arrive", request.arrival_s, self.rank, request.req_id,
            prompt_tokens=request.prompt_tokens,
            gen_tokens=request.gen_tokens, priority=request.priority,
            slo_ttft_s=request.slo_ttft_s, session_id=request.session_id,
            turn=request.turn,
        )

    # -- admission + preemption ---------------------------------------------

    def _preempt(
        self, victims: Sequence[_RequestState], evictable_bytes: int = 0
    ) -> None:
        pc = self.prefix_cache
        for victim in victims:
            self.running.remove(victim)
            self.kv_used -= victim.kv_private
            victim.record.preemptions += 1
            self.stats.preemptions += 1
            victim.prefix_done = 0
            if self._trace is not None:
                req_id = victim.record.req_id
                self._trace.emit(
                    "preempt", self.clock, self.rank, req_id,
                    kv_bytes=victim.kv_private, tokens_out=victim.tokens_out,
                    cache_evictable_bytes=evictable_bytes,
                )
                self._trace.emit("requeue", self.clock, self.rank, req_id)
            if pc is not None and victim.cache_entry is not None:
                pc.release(victim.cache_entry)
                victim.cache_entry = None
            victim.cached_tokens = 0
            victim.kv_private = 0
            self.kv_queued_bytes += victim.kv_bytes
            self._enqueue(victim)

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
        pc = self.prefix_cache
        model = self.cache.model
        while self.ready:
            if len(self.running) + len(self.prefilling) >= self.config.max_batch:
                break
            key, seq, state = heapq.heappop(self.ready)
            # Rejection ignores the cache on purpose: admission must
            # stay feasible even if the hit is later evicted after a
            # preemption, so the cache never changes *which* requests
            # are servable, only how cheaply.
            if state.kv_bytes > self.kv_capacity:
                state.record.status = "rejected"
                self.kv_queued_bytes -= state.kv_bytes
                self.records.append(state.record)
                if self._trace is not None:
                    self._trace.emit("reject", self.clock, self.rank,
                                     state.record.req_id,
                                     kv_bytes=state.kv_bytes)
                continue
            hit = pc.lookup(state.request) if pc is not None else None
            cached = hit.depth_tokens if hit is not None else 0
            need = state.kv_bytes - (
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
                    # Victim selection reads the running states'
                    # ``tokens_out``, and preemption edits the batch.
                    self._unpack()
                    victims = self.policy.select_victims(
                        state, self.running, gap - freed
                    )
                    # Honor the policy contract: evict/preempt only if
                    # that actually closes the KV gap — and evictions
                    # always go first, leaving nothing reclaimable by
                    # the time a victim is preempted.
                    if victims and sum(
                        v.kv_private for v in victims
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
                        # slot (cache state may differ on the next try,
                        # so the hit is re-resolved then).
                        heapq.heappush(self.ready, (key, seq, state))
                        break
            self.kv_used += need
            self.kv_queued_bytes -= state.kv_bytes
            self.stats.kv_peak_bytes = max(self.stats.kv_peak_bytes, self.kv_used)
            readmit = state.record.admit_s is not None
            if not readmit:
                state.record.admit_s = self.clock
            else:
                self.stats.requeues += 1
                self.stats.recompute_tokens += (
                    state.request.prompt_tokens + state.tokens_out
                )
            state.prefix_target = state.request.prompt_tokens + state.tokens_out
            state.prefix_done = cached
            state.cached_tokens = cached
            state.kv_private = need
            if pc is not None:
                if hit is not None:
                    pc.acquire(hit, self.clock)
                    state.cache_entry = hit
                if cached > 0:
                    self.stats.cache_hits += 1
                    self.stats.cache_hit_tokens += cached
                else:
                    self.stats.cache_misses += 1
                if not readmit:
                    state.record.cache_hit = cached > 0
                    state.record.cached_tokens = cached
            self.stats.kv_logical_bytes += state.kv_bytes
            self.stats.kv_reserved_bytes += need
            if self._trace is not None:
                req_id = state.record.req_id
                self._trace.emit(
                    "admit", self.clock, self.rank, req_id,
                    kv_bytes=need, kv_used_bytes=self.kv_used,
                    readmit=readmit, prefix_tokens=state.prefix_target,
                    cached_tokens=cached if pc is not None else -1,
                    kv_full_bytes=state.kv_bytes,
                )
                if cached > 0:
                    self._trace.emit(
                        "cache_hit", self.clock, self.rank, req_id,
                        cached_tokens=cached,
                        kv_saved_bytes=state.kv_bytes - need,
                    )
            self.prefilling.append(state)

    # -- work stages ---------------------------------------------------------

    def _prefill_stage(self) -> None:
        still: List[_RequestState] = []
        for state in self.prefilling:
            remaining = state.prefix_target - state.prefix_done
            chunk = min(self.policy.prefill_chunk(remaining), remaining)
            latency, energy = self.cache.prefill_chunk(state.prefix_done, chunk)
            if self._has_faults:
                latency *= self._fault_factor()
            if self._trace is not None:
                self._trace.emit("prefill_chunk_start", self.clock,
                                 self.rank, state.record.req_id,
                                 done_tokens=state.prefix_done,
                                 chunk_tokens=chunk)
            self.clock += latency
            self.stats.busy_s += latency
            self.stats.energy_j += energy
            self.stats.prefill_tokens += chunk
            state.prefix_done += chunk
            if self._trace is not None:
                self._trace.emit("prefill_chunk_end", self.clock, self.rank,
                                 state.record.req_id, chunk_tokens=chunk,
                                 latency_s=latency, energy_j=energy)
            if state.prefix_done >= state.prefix_target:
                self._retain_shared_prefix(state)
                self.running.append(state)
            else:
                still.append(state)
        self.prefilling = still

    def _retain_shared_prefix(self, state: _RequestState) -> None:
        """Publish a freshly prefilled system prompt into the cache.

        Fires once per shared prefix per rank: the first request to
        prefill a system prompt from scratch (no hit covered it) carves
        the prompt's pages out of its private reservation into a
        ``("sys", id)`` entry other sessions can resume from.  The bytes
        merely change owner — ``kv_used`` is untouched.
        """
        pc = self.prefix_cache
        request = state.request
        if (
            pc is None
            or request.shared_prefix_id < 0
            or state.cached_tokens >= request.shared_prefix_tokens
        ):
            return
        key = ("sys", request.shared_prefix_id)
        if pc.get(key) is not None:
            return
        owned = self.cache.model.kv_cache_bytes(1, request.shared_prefix_tokens)
        entry = pc.insert(
            key, request.shared_prefix_tokens, owned, None, self.clock
        )
        state.kv_private -= owned
        pc.acquire(entry, self.clock)
        state.cache_entry = entry

    def _release_kv(self, state: _RequestState) -> None:
        """Release a finished request's KV — or hand it to the cache.

        A finished non-final turn donates its private pages as the
        ``("sess", session, turn + 1)`` entry the session's next turn
        resumes from (chained onto whatever prefix this turn resumed
        from, so shared bytes stay counted once); everything else frees
        its private reservation and drops its cache reference.
        """
        pc = self.prefix_cache
        request = state.request
        if (
            pc is not None
            and request.session_id >= 0
            and not request.final_turn
        ):
            key = ("sess", request.session_id, request.turn + 1)
            if pc.get(key) is None:
                pc.insert(
                    key, request.prompt_tokens + request.gen_tokens,
                    state.kv_private, state.cache_entry, self.clock,
                )
                if state.cache_entry is not None:
                    pc.release(state.cache_entry)
                    state.cache_entry = None
                state.kv_private = 0
                return
        self.kv_used -= state.kv_private
        state.kv_private = 0
        if pc is not None and state.cache_entry is not None:
            pc.release(state.cache_entry)
            state.cache_entry = None

    # -- decode --------------------------------------------------------------

    def _first_token(self, state: _RequestState, t_s: float) -> None:
        """Stamp (and trace) a request's first generated token at ``t_s``."""
        state.record.first_token_s = t_s
        if self._trace is not None:
            self._trace.emit("first_token", t_s, self.rank, state.record.req_id)

    def _finish(self, state: _RequestState) -> None:
        """Retire a request whose last token lands at the current clock."""
        state.record.finish_s = self.clock
        self._release_kv(state)
        self.records.append(state.record)
        if self._trace is not None:
            self._trace.emit("finish", self.clock, self.rank,
                             state.record.req_id, tokens_out=state.tokens_out)

    def _decode_iteration(self) -> None:
        packed = self._packed()
        batch = len(self.running)
        latency, energy = self.cache.weight_step(batch)
        if packed:
            kv = self._kv + 1
            latency = _seq_sum(latency, self._table.step_lat[kv])
            energy = _seq_sum(energy, self._table.step_energy[kv])
        else:
            for state in self.running:
                kv_len = state.request.prompt_tokens + state.tokens_out + 1
                attn_latency, attn_energy = self.cache.attn_step(kv_len)
                latency += attn_latency
                energy += attn_energy
        if self._has_faults:
            latency *= self._fault_factor()
        self.clock += latency
        self.stats.busy_s += latency
        self.stats.energy_j += energy
        self.stats.decode_iterations += 1
        if self._detail:
            self._trace.emit("decode_segment", self.clock, self.rank,
                             batch=batch, tokens=1, latency_s=latency,
                             energy_j=energy)
        if packed:
            self.stats.output_tokens += batch
            self._kv = kv
            self._left -= 1
            self._retire_packed(self._fresh)
            return
        still_running: List[_RequestState] = []
        for state in self.running:
            state.tokens_out += 1
            self.stats.output_tokens += 1
            if state.tokens_out == 1:
                self._first_token(state, self.clock)
            if state.tokens_out >= state.request.gen_tokens:
                self._finish(state)
            else:
                still_running.append(state)
        self.running = still_running

    # -- packed running set ----------------------------------------------------

    def _packed(self) -> bool:
        """Bring the packed running set up to date; False when not in use.

        Only the event engine packs, and only from
        :data:`PACKED_MIN_BATCH` requests up; below it the columns are
        written back and dropped.  Requests that joined the batch since
        the last call are appended, so a steady wide batch touches
        Python objects only when a request joins, starts or finishes.
        """
        running = self.running
        if not self._event_driven or len(running) < PACKED_MIN_BATCH:
            if self._kv is not None:
                self._unpack()
            return False
        start = 0 if self._kv is None else self._kv.size
        if start == len(running):
            return True
        kv, left = [], []
        for i in range(start, len(running)):
            state = running[i]
            if state.tokens_out == 0:
                self._fresh.append(i)
            kv.append(state.request.prompt_tokens + state.tokens_out)
            left.append(state.request.gen_tokens - state.tokens_out)
        kv = np.array(kv, dtype=np.int64)
        left = np.array(left, dtype=np.int64)
        self._table = self.cache.segment_table()
        self._table.ensure(int((kv + left).max()))
        if start:
            kv = np.concatenate((self._kv, kv))
            left = np.concatenate((self._left, left))
        self._kv, self._left = kv, left
        return True

    def _unpack(self) -> None:
        """Write the packed ``tokens_out`` back and drop the columns."""
        if self._kv is None:
            return
        for state, left in zip(self.running, self._left.tolist()):
            state.tokens_out = state.request.gen_tokens - left
        self._kv = self._left = None
        self._fresh = []

    def _retire_packed(self, firsts: List[int]) -> None:
        """Stamp first tokens at positions ``firsts``, then retire finishes.

        Both happen at the current clock, request by request in running
        order — the per-request loop's event order.  Only the requests
        touched here are visited; the finished leave the batch.  A
        segment never runs past the shortest remaining request, so the
        finished are exactly the positions with no tokens left, and
        each has produced all of its ``gen_tokens``.
        """
        finished = self._left == 0
        done = finished.nonzero()[0].tolist()
        self._fresh = []
        running = self.running
        first_set = set(firsts)
        if firsts and done:
            touched = sorted(first_set.union(done))
        else:
            touched = firsts or done
        for i in touched:
            state = running[i]
            if i in first_set:
                self._first_token(state, self.clock)
            if finished[i]:
                state.tokens_out = state.request.gen_tokens
                self._finish(state)
        if done:
            keep = ~finished
            self._kv = self._kv[keep]
            self._left = self._left[keep]
            self.running = list(compress(running, keep.tolist()))

    # -- event-driven decode segments -----------------------------------------

    def _segment_latency(self, tokens: int) -> float:
        """Closed-form latency of ``tokens`` decode iterations from here."""
        total = tokens * self.cache.weight_step(len(self.running))[0]
        if self._kv is not None:
            cum = self._table.cum_lat
            total = _seq_sum(total, cum[self._kv + tokens] - cum[self._kv])
        else:
            for state in self.running:
                kv = state.request.prompt_tokens + state.tokens_out
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
        horizon = self.pending[0].request.arrival_s
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
        if packed:
            tokens = int(self._left.min())
        else:
            tokens = min(
                state.request.gen_tokens - state.tokens_out
                for state in self.running
            )
        if (
            tokens > 1
            and self.pending
            and len(self.running) < self.config.max_batch
        ):
            tokens = self._cap_to_arrival(tokens)
        if tokens <= 1:
            self._decode_iteration()
            return
        batch = len(self.running)
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
            for state in self.running:
                kv = state.request.prompt_tokens + state.tokens_out
                attn_latency, attn_energy = self.cache.attn_segment(
                    kv + 1, kv + tokens
                )
                latency += attn_latency
                energy += attn_energy
        if self._has_faults:
            latency *= self._fault_factor()
        if packed:
            fresh = [self.running[i] for i in self._fresh]
            self._fresh = []
        else:
            fresh = [state for state in self.running if state.tokens_out == 0]
        if fresh:
            # Clock after the segment's first iteration, accumulated in
            # the same order as the per-token loop.
            if packed:
                first_latency = _seq_sum(
                    weight_latency, self._table.step_lat[self._kv + 1]
                )
            else:
                first_latency = weight_latency
                for state in self.running:
                    kv = state.request.prompt_tokens + state.tokens_out + 1
                    first_latency += self.cache.attn_step(kv)[0]
            if self._has_faults:
                first_latency *= self._fault_factor()
            first_boundary = self.clock + first_latency
            for state in fresh:
                self._first_token(state, first_boundary)
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
        still_running: List[_RequestState] = []
        for state in self.running:
            state.tokens_out += tokens
            if state.tokens_out >= state.request.gen_tokens:
                self._finish(state)
            else:
                still_running.append(state)
        self.running = still_running

    # -- main loop -----------------------------------------------------------

    def _step(self) -> None:
        """One scheduler iteration: collect, admit, prefill, advance decode."""
        self._collect_arrivals()
        self._admit()
        if self._detail:
            self._trace.sample(self.clock, self.rank, self.kv_used,
                               len(self.running), len(self.ready))
        self._prefill_stage()
        if self.running:
            if self._event_driven and not self.prefilling:
                self._decode_segment()
            else:
                self._decode_iteration()
        elif not self.prefilling and self.pending:
            # Idle: jump to the next arrival.
            self.clock = max(self.clock, self.pending[0].request.arrival_s)

    def run(self) -> RankStats:
        """Drain the engine: ``advance(math.inf)``, then :meth:`finalize`."""
        self.advance(math.inf)
        return self.finalize()
