"""Structure-of-arrays event core: the columnar rank engine.

:class:`_SoaEngine` advances exactly the same event-driven schedule as
:class:`~repro.serving.engine.rank_engine._RankEngine` — same
collect → admit → prefill → decode-segment step, same policy order,
same KV admission/preemption/rejection rules, same closed-form segment
costs — but holds per-request state as numpy *columns* instead of
Python objects, so the per-step work is a handful of vectorized array
operations rather than per-request attribute walks.  On million-request
traces this is an order of magnitude faster; the object engine remains
the oracle the differential suite checks it against (statuses exact,
timestamps and energy to 1e-9 — vectorized float summation reorders
roundoff at the ~1e-13 level, never the schedule).

Column layout (one slot per submitted request, append-only, capacity
doubled on growth):

========================  ================================================
``arrival/prompt/gen``    immutable request fields (f8 / i8 columns)
``priority/slo/deadline`` admission-key inputs (``deadline`` is
                          pre-computed ``arrival + slo`` or ``inf``)
``kv_bytes``              full KV footprint (vectorized
                          ``per_token * (prompt + gen)`` — the model's
                          KV formula is exactly linear in ``seq_len``)
``tokens_out/prefix_*``   mutable scheduling state
``admit/first/finish``    outcome timestamps (NaN until stamped)
``rejected/preemptions``  outcome flags and counters
========================  ================================================

Scheduler sets are index vectors into those columns: the pending and
ready sets are *cursors* into the submission-ordered columns for the
non-preempting FIFO policies (``fcfs`` / ``chunked_prefill`` admit in
exactly submission order, so a whole admission round is one masked
cumulative-sum over the candidate window), and a heap of
``(key, seq, index)`` tuples for ``sjf`` / ``priority`` (a scalar
mirror of the object engine's ready heap, preserving its tie-break
``seq`` numbering so preemption requeues land identically).  The
running and prefilling sets are small preallocated index buffers.

Decode segments are costed in one shot against the dense cumulative
attention table (:class:`~repro.serving.engine.costs.SegmentCostTable`):
a batch's segment cost is ``(cum[kv + tokens] - cum[kv]).sum()`` plus
the batch-keyed weight cost, and the arrival-boundary cap is the same
bisection as the object engine with each probe evaluated as one gather
over the batch ("batched bisection") instead of a per-request Python
loop.

Not supported (use the object engines): the KV prefix cache
(:class:`~repro.serving.engine.config.ServingConfig` rejects it),
engine tracing, scheduling policies other than the four built-ins, and
fault plans — the constructor raises ``ValueError`` for each of the
last three.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

import numpy as np

from repro.serving.engine.config import ServingConfig
from repro.serving.engine.costs import _CostCache
from repro.serving.engine.records import ColumnRecords, RankStats
from repro.serving.policy import (
    ChunkedPrefillPolicy,
    FcfsPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    SjfPolicy,
)
from repro.serving.trace import Request

__all__ = ["_SoaEngine"]


class _SoaEngine:
    """One replica's continuous-batching engine over columnar state.

    Drop-in replacement for
    :class:`~repro.serving.engine.rank_engine._RankEngine` at the
    driver/cluster seam: same constructor signature, same incremental
    API (:meth:`submit` / :meth:`advance` / :meth:`finalize` /
    :attr:`has_work` / :meth:`queue_depth` / :meth:`next_event_s` /
    :attr:`retired`), same :meth:`run` drain, and a :attr:`records`
    view that materialises :class:`RequestRecord` objects on demand.
    Columnar callers use :meth:`submit_columns` and
    :meth:`output_columns` to stay object-free end to end.

    FIFO-policy note: the fast cursor-based ready queue serves
    candidates in submission order, which equals the object engine's
    ``(arrival_s, req_id)`` heap order because both the driver and the
    cluster submit in that order (the engine enforces non-decreasing
    arrival times).
    """

    #: Per-request columns: (attribute, dtype).
    _COLUMNS = (
        ("_arrival", np.float64),
        ("_slo", np.float64),
        ("_deadline", np.float64),
        ("_admit_s", np.float64),
        ("_first_s", np.float64),
        ("_finish_s", np.float64),
        ("_prompt", np.int64),
        ("_gen", np.int64),
        ("_priority", np.int64),
        ("_session", np.int64),
        ("_turn", np.int64),
        ("_req_id", np.int64),
        ("_kvb", np.int64),
        ("_tokens_out", np.int64),
        ("_target", np.int64),
        ("_done", np.int64),
        ("_kv_private", np.int64),
        ("_npreempt", np.int64),
        ("_rejected", np.bool_),
    )

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
        if tracer is not None and tracer.enabled:
            raise ValueError(
                "engine tracing requires an object engine "
                "(engine='event' or 'loop'); the soa engine emits no "
                "per-event trace"
            )
        ptype = type(policy)
        if ptype is ChunkedPrefillPolicy:
            self._fifo = True
            self._priority_mode = False
            self._chunk = policy.chunk_tokens
        elif ptype is FcfsPolicy:
            self._fifo = True
            self._priority_mode = False
            self._chunk = 0
        elif ptype is SjfPolicy:
            self._fifo = False
            self._priority_mode = False
            self._chunk = 0
        elif ptype is PriorityPolicy:
            self._fifo = False
            self._priority_mode = True
            self._chunk = 0
        else:
            raise ValueError(
                f"the soa engine supports only the built-in scheduling "
                f"policies {tuple(sorted(('fcfs', 'sjf', 'priority', 'chunked_prefill')))}; "
                f"got {ptype.__name__} — use engine='event' for custom policies"
            )
        if faults is not None and not faults.empty:
            raise ValueError(
                "fault injection requires an object engine (engine='event' "
                "or 'loop'); the soa engine has no fault hooks"
            )
        self.cache = cache
        self.config = config
        self.kv_capacity = kv_capacity
        self.policy = policy
        self.rank = rank
        self.stats = RankStats(rank=rank)
        self.clock = 0.0
        self.kv_used = 0
        self.kv_queued_bytes = 0
        #: Always None: the soa engine never runs a prefix cache.
        self.prefix_cache = None
        #: Cluster-managed flag, same contract as the object engine.
        self.retired = False
        #: Never set: the soa engine rejects fault plans, so a soa
        #: replica cannot die.
        self.dead = False
        #: Same reason: no crash is ever scheduled.
        self.crash_s = math.inf
        self._kv_per_token = cache.model.kv_cache_bytes(1, 1)
        self._tables = cache.segment_table()
        self._cap = 0
        self._n = 0
        for name, dtype in self._COLUMNS:
            setattr(self, name, np.empty(0, dtype=dtype))
        self._collected = 0   # pending = columns[_collected:_n]
        self._ready_head = 0  # FIFO ready = columns[_ready_head:_collected]
        self._heap: List[Tuple[Tuple, int, int]] = []
        self._seq = 0  # heap tie-break counter, numbered as the oracle's
        self._run_buf = np.empty(config.max_batch, dtype=np.int64)
        self._run_n = 0
        # Packed per-running-request state, kept in lockstep with
        # ``_run_buf``: tokens generated, tokens remaining and KV depth.
        # Decode steps mutate these contiguous buffers in place instead
        # of re-gathering (and re-scattering) the global columns every
        # segment; ``_tokens_out`` is synced back only on finish and
        # preemption, the only points where anything else reads it.
        self._run_cur = np.zeros(config.max_batch, dtype=np.int64)
        self._run_rem = np.zeros(config.max_batch, dtype=np.int64)
        self._run_kv = np.zeros(config.max_batch, dtype=np.int64)
        self._pre_buf = np.empty(config.max_batch, dtype=np.int64)
        self._pre_n = 0

    # -- submission -----------------------------------------------------------

    def _ensure_capacity(self, m: int) -> None:
        if m <= self._cap:
            return
        new_cap = max(m, 2 * self._cap, 64)
        n = self._n
        for name, dtype in self._COLUMNS:
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)
        self._cap = new_cap

    def submit(self, request: Request) -> None:
        """Append one request (non-decreasing arrival order, like the oracle)."""
        n = self._n
        if self._collected < n and request.arrival_s < self._arrival[n - 1]:
            raise ValueError(
                f"request {request.req_id} submitted out of arrival order "
                f"({request.arrival_s} < {self._arrival[n - 1]})"
            )
        self._ensure_capacity(n + 1)
        i = n
        self._arrival[i] = request.arrival_s
        self._slo[i] = request.slo_ttft_s
        self._deadline[i] = (
            request.arrival_s + request.slo_ttft_s
            if request.slo_ttft_s > 0
            else math.inf
        )
        self._prompt[i] = request.prompt_tokens
        self._gen[i] = request.gen_tokens
        self._priority[i] = request.priority
        self._session[i] = request.session_id
        self._turn[i] = request.turn
        self._req_id[i] = request.req_id
        kvb = self._kv_per_token * (request.prompt_tokens + request.gen_tokens)
        self._kvb[i] = kvb
        self._tokens_out[i] = 0
        self._target[i] = 0
        self._done[i] = 0
        self._kv_private[i] = 0
        self._npreempt[i] = 0
        self._rejected[i] = False
        self._admit_s[i] = math.nan
        self._first_s[i] = math.nan
        self._finish_s[i] = math.nan
        self.kv_queued_bytes += kvb
        self._tables.ensure(request.prompt_tokens + request.gen_tokens)
        self._n = n + 1

    def submit_columns(self, columns: dict) -> None:
        """Bulk-append requests from column arrays (submission order).

        ``columns`` carries ``req_id`` / ``arrival_s`` /
        ``prompt_tokens`` / ``gen_tokens`` / ``priority`` /
        ``slo_ttft_s`` / ``session_id`` / ``turn`` arrays already sorted
        by ``(arrival_s, req_id)``.
        """
        arrival = np.asarray(columns["arrival_s"], dtype=np.float64)
        k = int(arrival.size)
        if k == 0:
            return
        n = self._n
        if self._collected < n and arrival[0] < self._arrival[n - 1]:
            raise ValueError(
                "bulk submission out of arrival order "
                f"({arrival[0]} < {self._arrival[n - 1]})"
            )
        if not (np.isfinite(arrival).all() and np.all(arrival[1:] >= arrival[:-1])):
            raise ValueError(
                "bulk submission arrivals must be finite and non-decreasing"
            )
        self._ensure_capacity(n + k)
        sl = slice(n, n + k)
        prompt = np.asarray(columns["prompt_tokens"], dtype=np.int64)
        gen = np.asarray(columns["gen_tokens"], dtype=np.int64)
        slo = np.asarray(columns["slo_ttft_s"], dtype=np.float64)
        self._arrival[sl] = arrival
        self._slo[sl] = slo
        self._deadline[sl] = np.where(slo > 0, arrival + slo, np.inf)
        self._prompt[sl] = prompt
        self._gen[sl] = gen
        self._priority[sl] = np.asarray(columns["priority"], dtype=np.int64)
        self._session[sl] = np.asarray(columns["session_id"], dtype=np.int64)
        self._turn[sl] = np.asarray(columns["turn"], dtype=np.int64)
        self._req_id[sl] = np.asarray(columns["req_id"], dtype=np.int64)
        kvb = self._kv_per_token * (prompt + gen)
        self._kvb[sl] = kvb
        self._tokens_out[sl] = 0
        self._target[sl] = 0
        self._done[sl] = 0
        self._kv_private[sl] = 0
        self._npreempt[sl] = 0
        self._rejected[sl] = False
        self._admit_s[sl] = math.nan
        self._first_s[sl] = math.nan
        self._finish_s[sl] = math.nan
        self.kv_queued_bytes += int(kvb.sum())
        self._tables.ensure(int((prompt + gen).max()))
        self._n = n + k

    # -- incremental driving (cluster seam) -----------------------------------

    def _ready_len(self) -> int:
        if self._fifo:
            return self._collected - self._ready_head
        return len(self._heap)

    @property
    def has_work(self) -> bool:
        """True while any request is pending, queued, prefilling or running."""
        return (
            self._collected < self._n
            or self._run_n > 0
            or self._pre_n > 0
            or self._ready_len() > 0
        )

    def queue_depth(self) -> int:
        """Requests waiting to be served (uncollected + ready queue)."""
        return (self._n - self._collected) + self._ready_len()

    def next_event_s(self) -> float:
        """Simulation time of this engine's next scheduler step."""
        if self._ready_len() or self._pre_n or self._run_n:
            return self.clock
        if self._collected < self._n:
            a = float(self._arrival[self._collected])
            return a if a > self.clock else self.clock
        return math.inf

    def advance(self, horizon_s: float) -> None:
        """Run scheduler steps whose start time is at or before ``horizon_s``."""
        while self.has_work and self.next_event_s() <= horizon_s:
            self._step()

    def finalize(self) -> RankStats:
        """Close the books once drained: stamp finish time and final KV."""
        self.stats.finish_s = self.clock
        self.stats.kv_final_bytes = self.kv_used
        return self.stats

    # -- ready queue ----------------------------------------------------------

    def _key(self, i: int) -> Tuple:
        if self._priority_mode:
            return (
                int(self._priority[i]),
                float(self._deadline[i]),
                float(self._arrival[i]),
                int(self._req_id[i]),
            )
        return (
            int(self._gen[i] - self._tokens_out[i]),
            float(self._arrival[i]),
            int(self._req_id[i]),
        )

    def _collect_arrivals(self) -> None:
        c = self._collected
        n = self._n
        if c >= n or self._arrival[c] > self.clock:
            return
        new_c = c + int(
            np.searchsorted(self._arrival[c:n], self.clock, side="right")
        )
        if not self._fifo:
            push = heapq.heappush
            heap = self._heap
            for i in range(c, new_c):
                push(heap, (self._key(i), self._seq, i))
                self._seq += 1
        self._collected = new_c

    # -- admission + preemption ----------------------------------------------

    def _admit(self) -> None:
        if self.config.max_batch - self._run_n - self._pre_n <= 0:
            return
        if self._fifo:
            if self._ready_head < self._collected:
                self._admit_fifo()
        elif self._heap:
            self._admit_heap()

    def _admit_fifo(self) -> None:
        """One admission round over the contiguous FIFO ready window.

        Mirrors the oracle's pop-loop exactly: rejects consume no batch
        slot, a fitting candidate blocked by KV pressure stops the round
        *before* it, and the round also stops right after the fit that
        fills the last free slot (trailing rejects stay queued, as the
        oracle's loop-top batch check leaves them).

        Candidates are scanned in bounded windows (the free slot count
        plus reject slack), never the whole backlog — on a deeply
        backlogged deployment the ready window holds thousands of
        requests of which at most ``max_batch`` can admit, and
        rescanning all of them every step would make admission
        quadratic in the backlog.
        """
        cap = self.kv_capacity
        kvb = self._kvb
        while True:
            free = self.config.max_batch - self._run_n - self._pre_n
            if free <= 0:
                return
            h = self._ready_head
            c = self._collected
            if h >= c:
                return
            # O(1) steady-state exit: the head candidate fits the
            # capacity but not the current KV headroom (the oracle
            # requeues it and breaks).
            kv0 = int(kvb[h])
            if kv0 <= cap and self.kv_used + kv0 > cap:
                return
            window = min(c - h, free + 64)
            kv = kvb[h : h + window]
            if window <= free:
                total = int(kv.sum())
                if self.kv_used + total <= cap:
                    # Whole-window fast path: every candidate gets a
                    # slot and the aggregate fits the KV headroom, so no
                    # candidate can individually exceed the capacity —
                    # admit the window with contiguous slice writes.
                    self.kv_used += total
                    self.kv_queued_bytes -= total
                    st = self.stats
                    if self.kv_used > st.kv_peak_bytes:
                        st.kv_peak_bytes = self.kv_used
                    st.kv_logical_bytes += total
                    st.kv_reserved_bytes += total
                    self._admit_s[h : h + window] = self.clock
                    self._target[h : h + window] = self._prompt[h : h + window]
                    self._kv_private[h : h + window] = kv
                    p = self._pre_n
                    self._pre_buf[p : p + window] = np.arange(h, h + window)
                    self._pre_n = p + window
                    self._ready_head = h + window
                    continue
            else:
                # Backlogged fast path: more candidates than free slots.
                # If the first ``free`` of them hold no reject and fit
                # the KV headroom together, they fill the batch exactly
                # as the oracle's pop-loop would (it stops right after
                # the fit that takes the last slot, leaving the rest
                # queued) — admit them with contiguous slice writes.
                head_kv = kv[:free]
                if not (head_kv > cap).any():
                    total = int(head_kv.sum())
                    if self.kv_used + total <= cap:
                        self.kv_used += total
                        self.kv_queued_bytes -= total
                        st = self.stats
                        if self.kv_used > st.kv_peak_bytes:
                            st.kv_peak_bytes = self.kv_used
                        st.kv_logical_bytes += total
                        st.kv_reserved_bytes += total
                        self._admit_s[h : h + free] = self.clock
                        self._target[h : h + free] = self._prompt[h : h + free]
                        self._kv_private[h : h + free] = head_kv
                        p = self._pre_n
                        self._pre_buf[p : p + free] = np.arange(h, h + free)
                        self._pre_n = p + free
                        self._ready_head = h + free
                        continue
            rejects = kv > cap
            fits = ~rejects
            need_cum = np.cumsum(np.where(fits, kv, 0))
            blocked_at = np.nonzero(fits & (self.kv_used + need_cum > cap))[0]
            stop = window
            hit_block = False
            if blocked_at.size:
                stop = int(blocked_at[0])
                hit_block = True
            fpos = np.nonzero(fits)[0]
            if fpos.size >= free:
                slot_stop = int(fpos[free - 1]) + 1
                if slot_stop <= stop:
                    stop = slot_stop
                    hit_block = False
            take_rej = np.nonzero(rejects[:stop])[0]
            if take_rej.size:
                self._rejected[h + take_rej] = True
                self.kv_queued_bytes -= int(kv[take_rej].sum())
            take_fit = fpos[fpos < stop]
            if take_fit.size:
                glob = h + take_fit
                needs = kv[take_fit]
                total = int(needs.sum())
                self.kv_used += total
                self.kv_queued_bytes -= total
                st = self.stats
                if self.kv_used > st.kv_peak_bytes:
                    st.kv_peak_bytes = self.kv_used
                st.kv_logical_bytes += total
                st.kv_reserved_bytes += total
                # FIFO policies never preempt, so these are all first
                # admissions with tokens_out == 0.
                self._admit_s[glob] = self.clock
                self._target[glob] = self._prompt[glob]
                self._kv_private[glob] = needs
                p = self._pre_n
                self._pre_buf[p : p + glob.size] = glob
                self._pre_n = p + glob.size
            self._ready_head = h + stop
            if hit_block:
                return

    def _admit_heap(self) -> None:
        """Scalar admission loop, a faithful mirror of the oracle's."""
        heap = self._heap
        max_batch = self.config.max_batch
        cap = self.kv_capacity
        pop = heapq.heappop
        push = heapq.heappush
        st = self.stats
        while heap:
            if self._run_n + self._pre_n >= max_batch:
                break
            key, seq, i = pop(heap)
            need = int(self._kvb[i])
            if need > cap:
                self._rejected[i] = True
                self.kv_queued_bytes -= need
                continue
            if self.kv_used + need > cap:
                gap = self.kv_used + need - cap
                victims = (
                    self._select_victims(i, gap) if self._priority_mode else []
                )
                if victims and sum(
                    int(self._kv_private[v]) for v in victims
                ) >= gap:
                    self._preempt(victims)
                if self.kv_used + need > cap:
                    # Same (key, seq): the candidate returns to its slot.
                    push(heap, (key, seq, i))
                    break
            self.kv_used += need
            self.kv_queued_bytes -= need
            if self.kv_used > st.kv_peak_bytes:
                st.kv_peak_bytes = self.kv_used
            if math.isnan(self._admit_s[i]):
                self._admit_s[i] = self.clock
            else:
                st.requeues += 1
                st.recompute_tokens += int(self._prompt[i] + self._tokens_out[i])
            self._target[i] = int(self._prompt[i] + self._tokens_out[i])
            self._done[i] = 0
            self._kv_private[i] = need
            st.kv_logical_bytes += need
            st.kv_reserved_bytes += need
            self._pre_buf[self._pre_n] = i
            self._pre_n += 1

    def _select_victims(self, cand: int, gap: int) -> List[int]:
        """PriorityPolicy.select_victims over column state, same order."""
        cand_pri = int(self._priority[cand])
        pri = self._priority
        cur = self._run_cur
        lower = [
            (int(j), int(cur[p]))
            for p, j in enumerate(self._run_buf[: self._run_n])
            if pri[j] > cand_pri
        ]
        lower.sort(key=lambda t: (-int(pri[t[0]]), t[1]))
        lower = [j for j, _ in lower]
        victims: List[int] = []
        freed = 0
        for j in lower:
            if freed >= gap:
                break
            victims.append(j)
            freed += int(self._kv_private[j])
        return victims if freed >= gap else []

    def _preempt(self, victims: List[int]) -> None:
        st = self.stats
        buf = self._run_buf
        push = heapq.heappush
        for j in victims:
            n = self._run_n
            pos = int(np.nonzero(buf[:n] == j)[0][0])
            self._tokens_out[j] = self._run_cur[pos]
            for arr in (buf, self._run_cur, self._run_rem, self._run_kv):
                arr[pos : n - 1] = arr[pos + 1 : n]
            self._run_n = n - 1
            self.kv_used -= int(self._kv_private[j])
            self._npreempt[j] += 1
            st.preemptions += 1
            self._done[j] = 0
            self._kv_private[j] = 0
            self.kv_queued_bytes += int(self._kvb[j])
            push(self._heap, (self._key(j), self._seq, j))
            self._seq += 1

    # -- work stages ----------------------------------------------------------

    def _prefill_stage(self) -> None:
        m = self._pre_n
        idx = self._pre_buf[:m].copy()
        done = self._done[idx]
        target = self._target[idx]
        remaining = target - done
        if self._chunk:
            chunk = np.minimum(remaining, self._chunk)
            pc = self.cache.prefill_chunk
            total_lat = 0.0
            total_energy = 0.0
            for d, ck in zip(done.tolist(), chunk.tolist()):
                lat, energy = pc(d, ck)
                total_lat += lat
                total_energy += energy
        else:
            # Unchunked prefill always runs whole prompts from done=0
            # (preemption resets ``_done``), so the whole stage is one
            # gather over the dense length-indexed prefill table.
            chunk = remaining
            lat_v, energy_v = self._tables.prefill(chunk)
            total_lat = float(lat_v.sum())
            total_energy = float(energy_v.sum())
        self.clock += total_lat
        st = self.stats
        st.busy_s += total_lat
        st.energy_j += total_energy
        st.prefill_tokens += int(chunk.sum())
        new_done = done + chunk
        self._done[idx] = new_done
        fin_mask = new_done >= target
        fin = idx[fin_mask]
        if fin.size:
            r = self._run_n
            k = int(fin.size)
            cur = self._tokens_out[fin]
            self._run_buf[r : r + k] = fin
            self._run_cur[r : r + k] = cur
            self._run_rem[r : r + k] = self._gen[fin] - cur
            self._run_kv[r : r + k] = self._prompt[fin] + cur
            self._run_n = r + k
            keep = idx[~fin_mask]
            self._pre_buf[: keep.size] = keep
            self._pre_n = int(keep.size)

    def _cap_to_arrival(self, tokens: int, kv: np.ndarray, batch: int) -> int:
        """Batched bisection to the next arrival's iteration boundary.

        Same bisection as the oracle's ``_cap_to_arrival``; each probe
        costs one gather over the dense cumulative table instead of a
        per-request Python loop.
        """
        horizon = self._arrival[self._collected]
        cum = self._tables.cum_lat
        w_lat = self.cache.weight_step(batch)[0]
        cum_kv = cum[kv]
        clock = self.clock
        if clock + tokens * w_lat + float(
            (cum[kv + tokens] - cum_kv).sum()
        ) < horizon:
            return tokens
        lo, hi = 1, tokens
        while lo < hi:
            mid = (lo + hi) // 2
            lat = mid * w_lat + float((cum[kv + mid] - cum_kv).sum())
            if clock + lat >= horizon:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _decode(self) -> None:
        """Advance the running batch one segment (or one capped iteration).

        Unifies the oracle's ``_decode_segment`` / ``_decode_iteration``
        pair: with prefills still in flight the segment length is pinned
        to 1 (the per-iteration walk), otherwise it runs to the earliest
        completion, capped at the next arrival's boundary while a batch
        slot is free — identical event semantics either way.
        """
        n = self._run_n
        cur = self._run_cur[:n]
        rem = self._run_rem[:n]
        kv = self._run_kv[:n]
        if self._pre_n:
            tokens = 1
        else:
            tokens = int(rem.min())
            if (
                tokens > 1
                and self._collected < self._n
                and n < self.config.max_batch
            ):
                tokens = self._cap_to_arrival(tokens, kv, n)
        tables = self._tables
        w_lat, w_energy = self.cache.weight_step(n)
        if tokens == 1:
            # Single-iteration segment (prefills in flight, or a request
            # one token from finishing): the per-step tables give the
            # cost in one gather per table, and the first-token boundary
            # is the same sum.  The step tables hold ``attn_step``
            # values, the same per-step costs the event engine adds in
            # its per-token iterations.
            kv1 = kv + 1
            step_lat_sum = float(tables.step_lat[kv1].sum())
            lat = w_lat + step_lat_sum
            energy = w_energy + float(tables.step_energy[kv1].sum())
        else:
            cum_lat = tables.cum_lat
            cum_energy = tables.cum_energy
            hi = kv + tokens
            lat = tokens * w_lat + float((cum_lat[hi] - cum_lat[kv]).sum())
            energy = tokens * w_energy + float(
                (cum_energy[hi] - cum_energy[kv]).sum()
            )
        first_mask = cur == 0
        if first_mask.any():
            # Clock after the segment's first iteration, same formula as
            # the oracle's first-boundary accumulation.
            if tokens == 1:
                boundary = self.clock + lat
            else:
                boundary = self.clock + w_lat + float(
                    tables.step_lat[kv + 1].sum()
                )
            self._first_s[self._run_buf[:n][first_mask]] = boundary
        self.clock += lat
        st = self.stats
        st.busy_s += lat
        st.energy_j += energy
        st.decode_iterations += tokens
        st.output_tokens += tokens * n
        cur += tokens
        rem -= tokens
        kv += tokens
        if rem.min() <= 0:
            run = self._run_buf[:n]
            fin_mask = rem <= 0
            fin = run[fin_mask]
            self._tokens_out[fin] = cur[fin_mask]
            self._finish_s[fin] = self.clock
            self.kv_used -= int(self._kv_private[fin].sum())
            self._kv_private[fin] = 0
            keep_mask = ~fin_mask
            k = int(n - fin.size)
            self._run_buf[:k] = run[keep_mask]
            self._run_cur[:k] = cur[keep_mask]
            self._run_rem[:k] = rem[keep_mask]
            self._run_kv[:k] = kv[keep_mask]
            self._run_n = k

    # -- main loop -------------------------------------------------------------

    def _step(self) -> None:
        """One scheduler iteration: collect, admit, prefill, advance decode."""
        self._collect_arrivals()
        self._admit()
        if self._pre_n:
            self._prefill_stage()
        if self._run_n:
            self._decode()
        elif not self._pre_n and self._collected < self._n:
            # Idle: jump to the next arrival.
            a = self._arrival[self._collected]
            if a > self.clock:
                self.clock = float(a)

    def run(self) -> RankStats:
        """Drain the engine: ``advance(math.inf)``, then :meth:`finalize`."""
        self.advance(math.inf)
        return self.finalize()

    # -- results ---------------------------------------------------------------

    def output_columns(self) -> dict:
        """Outcome columns for every submitted request, submission order
        (the :class:`~repro.serving.engine.records.ColumnRecords` layout)."""
        n = self._n
        sl = slice(0, n)
        return {
            "req_id": self._req_id[sl],
            "rank": np.full(n, self.rank, dtype=np.int64),
            "arrival_s": self._arrival[sl],
            "prompt_tokens": self._prompt[sl],
            "gen_tokens": self._gen[sl],
            "priority": self._priority[sl],
            "slo_ttft_s": self._slo[sl],
            "session_id": self._session[sl],
            "turn": self._turn[sl],
            "rejected": self._rejected[sl],
            "admit_s": self._admit_s[sl],
            "first_token_s": self._first_s[sl],
            "finish_s": self._finish_s[sl],
            "preemptions": self._npreempt[sl],
        }

    @property
    def records(self) -> ColumnRecords:
        """Terminal :class:`RequestRecord` objects (completed + rejected),
        sorted by ``req_id``.

        In-flight requests (engine not drained) are omitted, exactly as
        the oracle's ``records`` list only holds finished outcomes.
        """
        columns = self.output_columns()
        terminal = columns["rejected"] | ~np.isnan(columns["finish_s"])
        return ColumnRecords(
            {name: array[terminal] for name, array in columns.items()}
        )
