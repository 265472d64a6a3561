"""Request routing policies for multi-target serving.

A :class:`RoutingPolicy` picks which *target* serves each request.  The
same abstraction is used at two levels:

* **Rank sharding** — the single-deployment driver
  (:func:`repro.serving.engine.driver.simulate_trace`) assigns every
  request to one of ``num_ranks`` replica engines by
  :class:`RoundRobinRouter`'s rule — ``rank = seq % num_ranks``, or
  ``rank = session_id % num_ranks`` for session turns — applied
  vectorized over the trace columns rather than by calling the router
  per request.
* **Deployment routing** — the cluster layer
  (:mod:`repro.serving.cluster`) routes across heterogeneous
  :class:`~repro.serving.cluster.Deployment` targets, where the
  state-aware policies (``least_kv``, ``p2c``) observe live queue
  depth and KV occupancy.

Targets are duck-typed: every policy may call ``len(targets)``;
``least_kv`` additionally calls ``target.kv_occupancy(t)``, ``p2c``
calls ``target.queue_depth(t)`` and ``slo_affinity`` reads
``target.tier``.  Plain sequences therefore work for the stateless
policies:

>>> from repro.serving.routing import get_router
>>> from repro.serving.trace import Request
>>> router = get_router("round_robin")
>>> reqs = [Request(req_id=i, arrival_s=float(i), prompt_tokens=8,
...                 gen_tokens=4) for i in range(4)]
>>> [router.select(r, [[], [], []]) for r in reqs]
[0, 1, 2, 0]

The registry mirrors :data:`repro.serving.policy.POLICIES`:

>>> sorted(ROUTERS)
['least_kv', 'p2c', 'round_robin', 'slo_affinity']
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, Type

from repro.serving.trace import Request

__all__ = [
    "ROUTERS",
    "RoutingPolicy",
    "RoundRobinRouter",
    "LeastKvRouter",
    "P2cRouter",
    "SloAffinityRouter",
    "get_router",
]


class RoutingPolicy:
    """Base class: stateful, one instance per simulation.

    Subclasses implement :meth:`select`; instances may keep per-run
    state (round-robin counters, seeded RNGs), so a fresh instance is
    created per simulation via :func:`get_router`.
    """

    #: Registry key, set by each concrete policy.
    name = "base"

    def select(self, request: Request, targets: Sequence) -> int:
        """Index into ``targets`` that should serve ``request``."""
        raise NotImplementedError


class RoundRobinRouter(RoutingPolicy):
    """Arrival-order round robin with session affinity.

    Reproduces the legacy rank-sharding rule bit-identically: the
    counter advances for *every* request (session turns consume a slot
    too), non-session requests land on ``counter % n`` and session
    turns on ``session_id % n`` so one target sees a whole
    conversation.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._count = 0

    def select(self, request: Request, targets: Sequence) -> int:
        """Legacy modulo assignment; the counter advances every call."""
        n = len(targets)
        index = self._count
        self._count += 1
        if request.session_id >= 0:
            return request.session_id % n
        return index % n


class LeastKvRouter(RoutingPolicy):
    """Route to the target with the lowest KV-demand fraction.

    Occupancy is ``(reserved + queued KV demand) / kv_capacity``
    observed at the request's arrival time (ties break to the lowest
    index), so KV-starved targets shed load to roomier ones — the
    cluster-level analogue of eviction-before-preemption: relieve
    pressure before queuing behind it.  Capacity-aware where ``p2c``'s
    request counting is not: a deployment with twice the free KV
    absorbs twice the demand before looking equally loaded.
    """

    name = "least_kv"

    def select(self, request: Request, targets: Sequence) -> int:
        """Lowest ``kv_occupancy`` at arrival time, ties to low index."""
        t = request.arrival_s
        best = 0
        best_key = None
        for index, target in enumerate(targets):
            key = target.kv_occupancy(t)
            if best_key is None or key < best_key:
                best = index
                best_key = key
        return best


class P2cRouter(RoutingPolicy):
    """Power-of-two-choices on queue depth.

    Samples two *distinct* targets with a seeded RNG and routes to the
    one with the shallower queue at the request's arrival time (ties go
    to the first sample).  O(1) state probes per request with
    near-least-loaded balance — the classic result this policy is named
    for, which requires sampling without replacement: letting the two
    draws collide degenerates a ``1/n`` share of picks into uniform
    random routing (a quarter of them at ``n = 2``).
    """

    name = "p2c"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(self, request: Request, targets: Sequence) -> int:
        """Shallower ``queue_depth`` of two distinct seeded candidates."""
        n = len(targets)
        if n == 1:
            return 0
        first = self._rng.randrange(n)
        # Second draw over the remaining n - 1 indices, shifted past the
        # first: uniform without replacement in two plain randrange
        # draws (no collision-and-retry, so the draw count per request
        # stays fixed and seeded replays stay aligned).
        second = self._rng.randrange(n - 1)
        if second >= first:
            second += 1
        t = request.arrival_s
        if targets[first].queue_depth(t) <= targets[second].queue_depth(t):
            return first
        return second


class SloAffinityRouter(RoutingPolicy):
    """Route each SLO tier to its matching deployment class.

    A request's ``priority`` is its tier; targets whose ``tier``
    attribute matches form the candidate pool (falling back to all
    targets when no class matches), and the pool is walked with the
    same session-affine round robin as :class:`RoundRobinRouter`.
    """

    name = "slo_affinity"

    def __init__(self) -> None:
        self._count = 0

    def select(self, request: Request, targets: Sequence) -> int:
        """Session-affine round robin over the tier-matched pool."""
        pool = [
            index for index, target in enumerate(targets)
            if getattr(target, "tier", 0) == request.priority
        ]
        if not pool:
            pool = list(range(len(targets)))
        index = self._count
        self._count += 1
        if request.session_id >= 0:
            return pool[request.session_id % len(pool)]
        return pool[index % len(pool)]


#: Routing-policy registry, mirroring :data:`repro.serving.policy.POLICIES`.
ROUTERS: Dict[str, Type[RoutingPolicy]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastKvRouter.name: LeastKvRouter,
    P2cRouter.name: P2cRouter,
    SloAffinityRouter.name: SloAffinityRouter,
}


def get_router(name: str, **options) -> RoutingPolicy:
    """Instantiate the routing policy registered under ``name``.

    ``options`` are forwarded to the policy constructor (e.g.
    ``seed`` for ``p2c``); unknown names or options raise
    ``ValueError`` so CLI validation can surface them as usage errors.
    """
    try:
        cls = ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; expected one of "
            f"{tuple(sorted(ROUTERS))}"
        ) from None
    try:
        return cls(**options)
    except TypeError as exc:
        raise ValueError(f"bad options for routing policy {name!r}: {exc}") from None
