"""Pluggable scheduling policies for the serving simulator.

A :class:`SchedulingPolicy` decides three things for a rank engine
(:mod:`repro.serving.engine`), each through one small hook:

* **Admission order** — :meth:`~SchedulingPolicy.admission_key` maps a
  waiting request to a sort key; the engine keeps its ready queue as a
  heap on that key, so the head of the queue is the next admission
  candidate.
* **Preemption** — when the head candidate does not fit the rank's KV
  budget, :meth:`~SchedulingPolicy.select_victims` may name running
  requests to evict.  A victim releases its KV reservation and goes
  back to the ready queue; on re-admission it recomputes its whole
  prefix (prompt plus the tokens it had already generated) as a fresh
  prefill, charged through the same
  :func:`~repro.model.cost.model_inference_cost` path as any other
  prefill — preemption is never free.
* **Prefill chunking** — :meth:`~SchedulingPolicy.prefill_chunk` bounds
  how many prefix tokens one engine iteration may prefill for one
  request.  The default (everything that remains) reproduces
  run-to-completion prefills; :class:`ChunkedPrefillPolicy` returns a
  fixed token budget so long prompts are interleaved with decode steps
  and decode is never starved.
* **Cache eviction** — when the rank runs a KV prefix cache
  (``ServingConfig.prefix_cache``) and the head candidate does not fit,
  :meth:`~SchedulingPolicy.select_cache_evictions` picks which
  refcount-zero cached prefixes to drop.  The engine always exhausts
  cache eviction *before* consulting :meth:`select_victims` — cached
  pages are speculative capacity, running requests are paid-for work —
  so the default LRU sweep is part of the eviction-before-preemption
  contract pinned by the serving invariant suite.

Policies are registered by name in :data:`POLICIES` and instantiated
with :func:`get_policy`; the serving CLI's ``--policy`` flag and
:class:`~repro.serving.engine.config.ServingConfig.policy` resolve through
that registry.

The four shipped policies:

==================  =====================================================
``fcfs``            First-come-first-served on arrival time — the
                    original continuous-batching behavior, extracted.
``sjf``             Shortest-job-first on the *predicted* decode length
                    (the request's remaining ``gen_tokens``; the
                    generator knows the true length, modelling an oracle
                    predictor).
``priority``        Priority tiers with earliest-SLO-deadline ordering
                    inside a tier, plus KV-pressure preemption of
                    strictly lower-priority running requests.
``chunked_prefill`` FCFS admission, but prefills advance in fixed
                    token-budgeted chunks so a long prompt cannot stall
                    the decode batch (TTFT of concurrent requests drops;
                    see ``tools/bench.py``).
==================  =====================================================
"""

from __future__ import annotations

import math
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type,
)

__all__ = [
    "SchedulingPolicy",
    "FcfsPolicy",
    "SjfPolicy",
    "PriorityPolicy",
    "ChunkedPrefillPolicy",
    "POLICIES",
    "get_policy",
]


class SchedulingPolicy:
    """Base scheduling policy: FCFS order, no preemption, whole prefills.

    Subclasses override any of the hooks.  The ``state`` objects passed
    to :meth:`admission_key` and :meth:`select_victims` are views of the
    engine's request slots
    (:class:`repro.serving.engine.rank_engine._RequestState`), built for
    the call and valid during it: ``state.request`` is the immutable
    :class:`~repro.serving.trace.Request`, ``state.tokens_out`` the
    tokens generated so far and ``state.kv_private`` the KV bytes the
    request reserved at its current admission (0 while waiting).  A
    victim list is a sub-list of the ``running`` views.

    Each built-in hook also has a *slot form* written next to it
    (:meth:`_slot_admission_key`, :meth:`_slot_victims`): the same rule
    over the engine's per-slot columns, which the event engine uses
    instead of building a view per call.  A slot form returns ``None``
    once a subclass overrides the hook it mirrors, so the engine then
    calls the subclass's hook on views.
    """

    #: Registry name; set by every concrete subclass.
    name: str = "base"

    def admission_key(self, state) -> Tuple:
        """Sort key for the ready queue (smaller = admitted earlier)."""
        return (state.request.arrival_s, state.request.req_id)

    def _slot_admission_key(
        self, columns: Mapping[str, list]
    ) -> Optional[Callable[[int], Tuple]]:
        """:meth:`admission_key` as a function of a request slot, or
        ``None`` when a subclass overrides the hook.

        ``columns`` maps every :class:`~repro.serving.trace.Request`
        field name, ``tokens_out`` and ``kv_private`` to the engine's
        list indexed by slot; the function returns the tuple the hook
        returns for that slot's view.
        """
        if not _inherited(self, SchedulingPolicy, "admission_key"):
            return None
        arrival, req_id = columns["arrival_s"], columns["req_id"]
        return lambda slot: (arrival[slot], req_id[slot])

    def select_victims(self, candidate, running: Sequence, need_bytes: int) -> List:
        """Running requests to preempt so ``candidate`` can be admitted.

        ``need_bytes`` is how much KV space is missing.  Return ``[]``
        to decline (the candidate then waits for natural completions).
        The engine only evicts the returned victims if they actually
        free enough space, so a partial list is safe.
        """
        return []

    def _slot_victims(
        self, columns: Mapping[str, list]
    ) -> Optional[Callable[[int, List[int], int], List[int]]]:
        """:meth:`select_victims` as a function of the candidate slot,
        the running slots and ``need_bytes``, returning victim slots,
        or ``None`` when a subclass overrides the hook (``columns`` as
        in :meth:`_slot_admission_key`)."""
        if not _inherited(self, SchedulingPolicy, "select_victims"):
            return None
        return lambda slot, running, need_bytes: []

    def select_cache_evictions(
        self, evictable: Sequence, need_bytes: int
    ) -> List:
        """Cached prefixes to evict so the head candidate can be admitted.

        ``evictable`` holds the rank's currently reclaimable
        :class:`~repro.serving.engine.cache.CacheEntry` objects
        (refcount-zero and childless) in LRU order; the engine calls
        again with newly unpinned parents until ``need_bytes`` is met or
        nothing remains, and only executes a plan that it can combine
        with preemption to actually close the gap.  The default takes
        the LRU prefix that covers the need.
        """
        chosen: List = []
        freed = 0
        for entry in evictable:
            if freed >= need_bytes:
                break
            chosen.append(entry)
            freed += entry.owned_bytes
        return chosen

    def prefill_chunk(self, remaining_tokens: int) -> int:
        """Prefix tokens one engine iteration may prefill (>= 1)."""
        return remaining_tokens


class FcfsPolicy(SchedulingPolicy):
    """First-come-first-served: the original continuous-batching order."""

    name = "fcfs"


class SjfPolicy(SchedulingPolicy):
    """Shortest-job-first on predicted decode length.

    The predictor is the request's remaining generation length
    (``gen_tokens - tokens_out``) — an oracle, since the synthetic
    trace knows every request's true length.  Ties fall back to FCFS.
    """

    name = "sjf"

    def admission_key(self, state) -> Tuple:
        """Order by remaining decode length, then FCFS."""
        remaining = state.request.gen_tokens - state.tokens_out
        return (remaining, state.request.arrival_s, state.request.req_id)

    def _slot_admission_key(self, columns):
        if not _inherited(self, SjfPolicy, "admission_key"):
            return None
        gen, tokens_out = columns["gen_tokens"], columns["tokens_out"]
        arrival, req_id = columns["arrival_s"], columns["req_id"]
        return lambda slot: (
            gen[slot] - tokens_out[slot], arrival[slot], req_id[slot]
        )


class PriorityPolicy(SchedulingPolicy):
    """Priority tiers with SLO deadlines and KV-pressure preemption.

    Admission order is ``(priority, deadline, arrival)`` — tier 0 is the
    most important, and inside a tier the earliest TTFT deadline
    (``arrival + slo_ttft_s``; no SLO means no deadline) goes first.
    When the head candidate cannot fit the KV budget, running requests
    of *strictly lower* priority are preempted, least-important and
    most-recently-started first; the strict inequality makes preemption
    cycles impossible.
    """

    name = "priority"

    @staticmethod
    def _deadline(request) -> float:
        return (
            request.arrival_s + request.slo_ttft_s
            if request.slo_ttft_s > 0
            else math.inf
        )

    def admission_key(self, state) -> Tuple:
        """Order by tier, then SLO deadline, then FCFS."""
        request = state.request
        return (
            request.priority,
            self._deadline(request),
            request.arrival_s,
            request.req_id,
        )

    def _slot_admission_key(self, columns):
        if not _inherited(self, PriorityPolicy, "admission_key", "_deadline"):
            return None
        priority, slo = columns["priority"], columns["slo_ttft_s"]
        arrival, req_id = columns["arrival_s"], columns["req_id"]

        def key(slot: int) -> Tuple:
            arrival_s = arrival[slot]
            deadline = arrival_s + slo[slot] if slo[slot] > 0 else math.inf
            return (priority[slot], deadline, arrival_s, req_id[slot])
        return key

    def select_victims(self, candidate, running: Sequence, need_bytes: int) -> List:
        """Evict strictly-lower-priority requests until the KV gap closes."""
        lower = [
            state
            for state in running
            if state.request.priority > candidate.request.priority
        ]
        # Least important first; inside a tier prefer the request that
        # started most recently (least sunk decode work to recompute).
        lower.sort(key=lambda s: (-s.request.priority, s.tokens_out))
        victims: List = []
        freed = 0
        for state in lower:
            if freed >= need_bytes:
                break
            victims.append(state)
            freed += state.kv_private
        return victims if freed >= need_bytes else []

    def _slot_victims(self, columns):
        if not _inherited(self, PriorityPolicy, "select_victims"):
            return None
        priority, tokens_out = columns["priority"], columns["tokens_out"]
        kv_private = columns["kv_private"]

        def victims_of(slot: int, running: List[int],
                       need_bytes: int) -> List[int]:
            tier = priority[slot]
            lower = [s for s in running if priority[s] > tier]
            lower.sort(key=lambda s: (-priority[s], tokens_out[s]))
            victims: List[int] = []
            freed = 0
            for victim in lower:
                if freed >= need_bytes:
                    break
                victims.append(victim)
                freed += kv_private[victim]
            return victims if freed >= need_bytes else []
        return victims_of


class ChunkedPrefillPolicy(SchedulingPolicy):
    """FCFS admission with token-budgeted prefill chunks.

    Each engine iteration prefills at most ``chunk_tokens`` prefix
    tokens per request before running a decode step, so a long prompt
    is interleaved with (rather than serialised ahead of) the running
    decode batch: concurrent requests keep producing tokens and
    newly-arrived short requests finish their own prefills while the
    long one is still chunking.
    """

    name = "chunked_prefill"

    def __init__(self, chunk_tokens: int = 32) -> None:
        if chunk_tokens < 1:
            raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
        self.chunk_tokens = chunk_tokens

    def prefill_chunk(self, remaining_tokens: int) -> int:
        """Cap each iteration's prefill at the configured token budget."""
        return min(remaining_tokens, self.chunk_tokens)


def _inherited(policy: SchedulingPolicy, owner: type, *hooks: str) -> bool:
    """True when ``policy``'s class takes each of ``hooks`` from
    ``owner`` unchanged, so ``owner``'s slot form computes the same
    values as the hook."""
    kind = type(policy)
    return all(getattr(kind, hook) is getattr(owner, hook) for hook in hooks)


#: Registry of scheduling policies by CLI/config name.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    FcfsPolicy.name: FcfsPolicy,
    SjfPolicy.name: SjfPolicy,
    PriorityPolicy.name: PriorityPolicy,
    ChunkedPrefillPolicy.name: ChunkedPrefillPolicy,
}


def get_policy(name: str, **kwargs) -> SchedulingPolicy:
    """Instantiate the registered policy ``name``.

    ``kwargs`` are forwarded to the policy constructor (e.g.
    ``chunk_tokens`` for ``chunked_prefill``); options the constructor
    does not take are reported as a :class:`ValueError`.

    Raises
    ------
    ValueError
        For an unknown policy name (listing the valid ones) or for
        options the policy does not accept.
    """
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; expected one of "
            f"{tuple(sorted(POLICIES))}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError:
        raise ValueError(
            f"policy {name!r} accepts no options {sorted(kwargs)}"
        ) from None
