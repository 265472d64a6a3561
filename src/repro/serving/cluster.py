"""Multi-deployment serving: deployments, the cluster event core.

A :class:`Deployment` is one serving class — a
:class:`~repro.serving.engine.config.ServingConfig` plus its live rank
engines (replicas).  A :class:`Cluster` composes heterogeneous
deployments behind a :class:`~repro.serving.routing.RoutingPolicy` and
optionally an :class:`~repro.serving.autoscale.Autoscaler`:

::

    trace ──► Cluster.run ──► router.select ──► Deployment.submit ──► _RankEngine
                   │                                   ▲
                   └── Autoscaler.control ─ add/retire replicas ──────┘

:meth:`Cluster.run` is one event loop for fault-free and faulted runs
alike: arrivals in global time order, merged with the retries a crash
produces.  Deployments advance *lazily*: a state-aware router
(``least_kv``, ``p2c``) or the autoscaler advancing a deployment to the
current arrival time, and a replica whose scheduled crash is due, are
the only things that run engines mid-trace — under the stateless
``round_robin`` router all other engine work happens at the final
drain, which makes a single-deployment cluster equivalent to
:func:`~repro.serving.engine.driver.simulate_trace`'s rank sharding, and
a fault plan that never fires equivalent to no plan.  Arrivals are
revealed to a deployment at routing time, so a decode segment committed
before a *later* arrival was routed may run past it (the engine never
splits a committed segment); scheduling is still fully deterministic
given the trace, router and plan.

Each deployment keeps its replica roster (active and dead replicas) as
state, changed only by :meth:`Deployment.add_replica`,
:meth:`Deployment.reuse_replica`, :meth:`Deployment.retire` and a crash
(observed through the replica's ``on_crash`` seam), so no event rescans
the replicas.  Three readers build on it: the cluster's healthy-
deployment list, cached until the next stall-window edge of an active
replica or roster change; the crash agenda, the live replicas with a
scheduled crash, so an event before the earliest skips the due-crash
step; and each deployment's idle-probe bound, below which
:meth:`Deployment.advance` touches no engine.

Each deployment's slice of the run is an ordinary
:class:`~repro.serving.engine.records.ServingResult`, so the whole
single-deployment metrics stack applies per deployment; the
:class:`ClusterResult` adds routing counts and autoscaler events on
top.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Union

from repro.model.policy import SchemePolicy
from repro.pim.energy import EnergyModel
from repro.serving.engine.config import ServingConfig
from repro.serving.engine.costs import _CostCache, cost_identity
from repro.serving.engine.driver import collect_result, make_engine, replica_budget
from repro.serving.engine.rank_engine import _RankEngine
from repro.serving.engine.records import (
    ColumnRecords,
    RequestRecord,
    ServingResult,
)
from repro.serving.faults import FaultPlan, RetryPolicy
from repro.serving.routing import RoutingPolicy, get_router
from repro.serving.trace import Request, Trace

__all__ = [
    "Deployment",
    "DeploymentResult",
    "Cluster",
    "ClusterResult",
    "simulate_cluster",
]


class Deployment:
    """One serving class: a config plus its live rank-engine replicas.

    ``config.num_ranks`` is the *initial* replica count; the autoscaler
    may add replicas (up to its own cap) or retire idle ones.  All
    replicas share one memoised cost spine (:attr:`cost_cache`) and one
    scheduling-policy instance; each holds its own KV budget of
    ``kv_capacity`` bytes.  The cost spine is built on the first
    :meth:`add_replica` — or handed over by the :class:`Cluster`, which
    gives every deployment with the same
    :func:`~repro.serving.engine.costs.cost_identity` one shared cache.
    ``tier`` is the deployment's SLO class, matched against request
    priorities by the ``slo_affinity`` router.

    Raises
    ------
    ValueError
        If the packed weights of the model/scheme do not leave any MRAM
        for KV cache on a replica, or if a scheme cannot run on the
        config's kernel (same contract as
        :func:`~repro.serving.engine.driver.replica_budget`).
    """

    def __init__(
        self,
        config: ServingConfig,
        name: Optional[str] = None,
        tier: int = 0,
        scheme_policy: Optional[SchemePolicy] = None,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        self.config = config
        self.name = (
            name if name is not None
            else f"{config.model}-{config.scheme}-r{config.num_ranks}"
        )
        self.tier = tier
        self._cost_args, self.weight_bytes, self.kv_capacity = replica_budget(
            config, scheme_policy, energy_model, name=self.name
        )
        #: This deployment's :func:`~repro.serving.engine.costs
        #: .cost_identity`: deployments with equal keys share a cache.
        self.cost_identity = cost_identity(*self._cost_args)
        self.cost_cache: Optional[_CostCache] = None
        self.sched_policy = config.make_policy()
        self.engines: List[_RankEngine] = []
        # The replica roster, kept as state: active (not retired) and
        # dead replicas, each in ``engines`` order.  Only add_replica,
        # reuse_replica, retire and a crash change it.
        self._active: List[_RankEngine] = []
        self._dead: List[_RankEngine] = []
        # Active replicas outside every stall window, valid for times
        # in [_live_from, _live_until): up to the next stall edge of an
        # active replica, or until the roster changes.
        self._live: List[_RankEngine] = []
        self._live_from = math.inf
        self._live_until = -math.inf
        # Lower bound on the next step or crash of any non-dead
        # replica: advance() below it has nothing to run.
        self._due_s = math.inf
        self.routed = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.replacements = 0
        self.replicas_peak = 0
        self._place = 0  # intra-deployment round-robin counter
        self._session_engine: Dict[int, _RankEngine] = {}
        self._tracer = None
        # Fault seams, wired by the cluster in fault mode only: the
        # plan applied to each new replica, the crash harvest callback
        # handed to every engine, and the failover notifier for sticky
        # sessions whose replica died.
        self._fault_plan: Optional[FaultPlan] = None
        self._on_crash = None
        self._on_failover = None
        self._on_roster = None  # called after every roster change

    # -- replica lifecycle ---------------------------------------------------

    def add_replica(self, rank: int, ready_s: float = 0.0) -> _RankEngine:
        """Provision one replica with global id ``rank``.

        ``ready_s`` is the replica's initial clock — a cold-started
        replica collects nothing before its weights have transferred,
        so arrivals routed to it meanwhile wait in its pending queue.
        """
        if self.cost_cache is None:
            self.cost_cache = _CostCache(*self._cost_args)
        engine = make_engine(
            rank, self.cost_cache, self.config, self.kv_capacity,
            self.sched_policy, tracer=self._tracer, faults=self._fault_plan,
        )
        engine.clock = ready_s
        if self._fault_plan is not None:
            engine.on_crash = self._crashed
        self.engines.append(engine)
        self._active.append(engine)
        self._due_s = min(self._due_s, engine.crash_s)
        self._roster_changed()
        self.replicas_peak = max(self.replicas_peak, len(self._active))
        return engine

    def reuse_replica(self) -> Optional[_RankEngine]:
        """Un-retire a warm replica (weights resident, still alive).

        A retired replica keeps its packed weights in MRAM, so bringing
        it back costs nothing — the autoscaler prefers this over paying
        a full cold-start broadcast for a brand-new rank.  Dead replicas
        never come back.  Returns the reactivated engine, or ``None``
        when every retiree is dead (or none exist).
        """
        for engine in self.engines:
            if engine.retired and not engine.dead:
                engine.retired = False
                self._active = [e for e in self.engines if not e.retired]
                self._roster_changed()
                self.replicas_peak = max(self.replicas_peak, len(self._active))
                return engine
        return None

    def retire(self, engine: _RankEngine) -> None:
        """Stop placing new work on active replica ``engine``.

        The replica keeps its queue, runs it to completion and stays
        part of the result; :meth:`reuse_replica` may reactivate it.
        """
        if engine not in self._active:
            raise ValueError(
                f"replica {engine.rank} is not active in deployment "
                f"{self.name!r}"
            )
        engine.retired = True
        self._active.remove(engine)
        self._roster_changed()

    def _crashed(self, engine: _RankEngine, t_s: float, lost: list) -> None:
        """Crash seam (every replica's ``on_crash`` in fault mode): move
        ``engine`` from the active to the dead roster, then hand the
        losses to the cluster's collector."""
        if engine in self._active:
            self._active.remove(engine)
        self._dead = [e for e in self.engines if e.dead]
        self._roster_changed()
        if self._on_crash is not None:
            self._on_crash(engine, t_s, lost)

    def _roster_changed(self) -> None:
        self._live_until = -math.inf
        if self._on_roster is not None:
            self._on_roster()

    def active_engines(self) -> List[_RankEngine]:
        """Replicas currently accepting new work, in provisioning order.

        The maintained roster list itself (callers must not mutate it).
        """
        return self._active

    def dead_engines(self) -> List[_RankEngine]:
        """Crashed replicas, in provisioning order (maintained list)."""
        return self._dead

    def idle_engine(self) -> Optional[_RankEngine]:
        """An active replica with nothing to do (scale-down candidate)."""
        active = self._active
        if len(active) <= 1:
            return None
        for engine in active:
            if not engine.has_work:
                return engine
        return None

    def is_healthy(self, t: float) -> bool:
        """True while at least one replica can accept work at ``t`` —
        active (not retired), alive (not dead) and not inside a stall
        window.  A full rescan of the replicas: the cluster routes on
        the maintained equivalent (:meth:`_live_at`), and this stays the
        reference predicate it is checked against."""
        return any(
            not e.retired and not e.dead and not e.is_stalled(t)
            for e in self.engines
        )

    def _live_at(self, t: float) -> List[_RankEngine]:
        """Active replicas outside every stall window at ``t``, rebuilt
        only when ``t`` leaves the cached validity interval (fault mode:
        object engines only)."""
        if not self._live_from <= t < self._live_until:
            live = []
            until = math.inf
            for engine in self._active:
                if not engine.is_stalled(t):
                    live.append(engine)
                until = min(until, engine.stall_edge_after(t))
            self._live = live
            self._live_from = t
            self._live_until = until
        return self._live

    # -- lazy state views (router / autoscaler seam) -------------------------

    def advance(self, t: float) -> None:
        """Run every replica up to simulation time ``t``.

        Below ``_due_s`` no replica has a step or a crash due, so the
        call returns without touching an engine; otherwise every
        replica advances and the bound is recomputed.
        """
        if t < self._due_s:
            return
        due = math.inf
        for engine in self.engines:
            engine.advance(t)
            if not engine.dead:
                due = min(due, engine.next_event_s(), engine.crash_s)
        self._due_s = due

    def queue_depth(self, t: float) -> int:
        """Waiting requests across active replicas, observed at ``t``."""
        self.advance(t)
        return sum(e.queue_depth() for e in self._active)

    def kv_occupancy(self, t: float) -> float:
        """KV demand over capacity across active replicas at ``t``.

        Demand counts both KV currently reserved by admitted requests
        and the KV the waiting queue will need — queued load must show
        up in the signal, because a fast replica can clear its reserved
        KV inside one committed decode segment and otherwise look
        permanently empty to the router.  May exceed 1.0 on a
        backlogged deployment — which is why a deployment with no
        active capacity (every replica retired) reports ``inf``, not a
        finite sentinel: any finite value could look *roomier* to
        ``least_kv`` than a backlogged healthy deployment.
        """
        self.advance(t)
        active = self._active
        capacity = self.kv_capacity * len(active)
        if capacity <= 0:
            return math.inf
        demand = sum(e.kv_used + e.kv_queued_bytes for e in active)
        return demand / capacity

    # -- request intake ------------------------------------------------------

    def submit(self, request: Request) -> _RankEngine:
        """Accept a routed request and place it on one of the replicas.

        Non-session requests round-robin over the active replicas;
        session turns stick to the replica that served the session's
        first turn, so a replica's prefix cache sees the whole
        conversation (falling back to fresh placement if that replica
        has been retired).  In fault mode stalled replicas are skipped
        when any live alternative exists, and a sticky replica that
        *died* triggers a failover notification before the fresh
        placement.  Returns the engine the request landed on.
        """
        active = self._active
        if self._fault_plan is not None:
            live = self._live_at(request.arrival_s)
            if live:
                active = live
        if not active:
            raise ValueError(
                f"deployment {self.name!r} has no live replica to place "
                f"request {request.req_id}"
            )
        engine: Optional[_RankEngine] = None
        session = request.session_id
        if session >= 0:
            engine = self._session_engine.get(session)
            if engine is not None and engine.retired:
                if engine.dead and self._on_failover is not None:
                    self._on_failover(
                        request.arrival_s, request.req_id, engine.rank
                    )
                engine = None
        if engine is None:
            engine = active[self._place % len(active)]
            self._place += 1
            if session >= 0:
                self._session_engine[session] = engine
        engine.submit(request)
        self._due_s = min(self._due_s, engine.next_event_s())
        self.routed += 1
        return engine

    # -- drain + result ------------------------------------------------------

    def drain(self) -> None:
        """Run every replica to completion and finalize its stats."""
        for engine in self.engines:
            engine.run()

    def result(self) -> ServingResult:
        """This deployment's slice of the run as a ServingResult."""
        return collect_result(
            self.config, self.engines, self.kv_capacity, self.weight_bytes
        )


@dataclass
class DeploymentResult:
    """Per-deployment slice of a cluster simulation."""

    name: str
    tier: int
    routed: int
    replicas_final: int
    replicas_peak: int
    scale_ups: int
    scale_downs: int
    serving: ServingResult
    replacements: int = 0


@dataclass
class ClusterResult:
    """Everything a cluster simulation produced.

    ``deployments`` holds one :class:`DeploymentResult` per deployment
    (each wrapping an ordinary
    :class:`~repro.serving.engine.records.ServingResult`);
    ``scale_events`` is the autoscaler's chronological action log, and
    the cold-start totals aggregate its weight-transfer charges.
    ``failed_records`` are the terminal failures the recovery loop could
    not serve (retry budget exhausted, load-shed, or stranded on a dead
    fleet) — they belong to no deployment; ``fault_events`` is the
    chronological fault log (crash detections plus scheduled
    stall/degrade windows).  Cluster-wide counts (completed, rejected,
    failed, retries, failovers, shed, goodput) are
    :func:`repro.serving.metrics.cluster_summary`'s.
    """

    router: str
    deployments: List[DeploymentResult]
    scale_events: List[dict] = field(default_factory=list)
    cold_start_s: float = 0.0
    cold_start_bytes: int = 0
    failed_records: List[RequestRecord] = field(default_factory=list)
    fault_events: List[dict] = field(default_factory=list)

    @property
    def records(self) -> ColumnRecords:
        """Every request record — deployment slices plus cluster-level
        failures — by request id, as columns (each read merges them
        anew)."""
        return ColumnRecords.merge(
            [dep.serving.records for dep in self.deployments]
            + [self.failed_records]
        )

    @property
    def requests(self) -> int:
        """Requests accounted for (completed, rejected or failed)."""
        return sum(
            len(dep.serving.records) for dep in self.deployments
        ) + len(self.failed_records)

    @property
    def makespan_s(self) -> float:
        """Time until the last replica anywhere goes idle."""
        return max(
            (dep.serving.makespan_s for dep in self.deployments), default=0.0
        )

    @property
    def total_energy_j(self) -> float:
        """Energy across every replica of every deployment."""
        return sum(dep.serving.total_energy_j for dep in self.deployments)

    @property
    def output_tokens(self) -> int:
        """Tokens generated cluster-wide."""
        return sum(dep.serving.output_tokens for dep in self.deployments)


class Cluster:
    """Event core composing deployments behind a router.

    The cluster walks the trace in global ``(arrival_s, req_id)`` order;
    for each request it (1) lets the autoscaler act at its control
    interval, (2) asks the router for a target deployment — session
    turns are sticky to the deployment that served the session's first
    turn — and (3) submits the request there.  After the last arrival
    every deployment drains to completion.  A non-empty ``faults`` plan
    layers crash recovery on the same loop (see :meth:`run`): retries
    with ``retry_policy`` backoff, health-filtered routing, failover
    and optional tier shedding.

    Before the first replica is built, deployments are grouped by
    :func:`~repro.serving.engine.costs.cost_identity` and each group
    gets one :class:`~repro.serving.engine.costs._CostCache` (with its
    segment table), owned by this cluster's deployments and gone with
    them.
    """

    def __init__(
        self,
        deployments: Sequence[Deployment],
        router: Union[str, RoutingPolicy] = "round_robin",
        autoscaler=None,
        tracer=None,
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        shed_tier: Optional[int] = None,
    ) -> None:
        self.deployments = list(deployments)
        if not self.deployments:
            raise ValueError("a cluster needs at least one deployment")
        self.router = get_router(router) if isinstance(router, str) else router
        self.autoscaler = autoscaler
        self._trace = tracer if tracer is not None and tracer.enabled else None
        self._next_rank = 0
        self._session_target: Dict[int, int] = {}
        # Only a non-empty plan wires faults into the deployments and
        # makes the loop scan for due crashes and filter by health.
        self.faults = faults
        self._fault_mode = faults is not None and not faults.empty
        self.shed_tier = shed_tier
        if self._fault_mode and retry_policy is None:
            retry_policy = RetryPolicy()
        self.retry_policy = retry_policy
        # Recovery-loop state (all empty and untouched fault-free).
        self._crash_box: List[tuple] = []
        self._fault_events: List[dict] = []
        self._failed_records: List[RequestRecord] = []
        self._retry_counts: Dict[int, int] = {}
        self._failover_counts: Dict[int, int] = {}
        self._origin_arrival: Dict[int, float] = {}
        self._now = 0.0
        # Time of the event whose processing may surface a crash (the
        # crash log's detected_s); None during the final drain, where a
        # crash surfaces at its own boundary.
        self._detect_s: Optional[float] = None
        self._seq = 0
        self._crashes = 0
        # Roster-derived caches (fault mode): the healthy deployment
        # indices (and their deployments), valid for times in
        # [_healthy_from, _healthy_until); and the crash agenda, every
        # live replica with a scheduled crash in (deployment, engine)
        # order, with _next_crash_s its earliest crash time.  A roster
        # change anywhere invalidates both (_next_crash_s = -inf).
        self._healthy: List[int] = []
        self._healthy_pool: List[Deployment] = []
        self._healthy_from = math.inf
        self._healthy_until = -math.inf
        self._crash_agenda: List[_RankEngine] = []
        self._next_crash_s = -math.inf
        if self._fault_mode:
            for spec in faults.specs:
                if spec.kind == "crash":
                    continue  # crashes are logged at detection, with losses
                entry = {
                    "t_s": spec.t_s,
                    "kind": spec.kind,
                    "rank": spec.rank,
                    "duration_s": spec.duration_s,
                }
                if spec.kind == "degrade":
                    entry["factor"] = spec.factor
                self._fault_events.append(entry)
            if self._trace is not None:
                faults.trace_windows(self._trace)
        # One cost spine per cost identity for this run: identical
        # deployments share every prefill, weight-step and attention
        # table instead of each re-deriving them.  The values are pure
        # functions of their keys, so sharing never changes a result.
        # A deployment that already holds a cache keeps it.
        spines: Dict[tuple, _CostCache] = {}
        for deployment in self.deployments:
            if deployment.cost_cache is None:
                key = deployment.cost_identity
                if key not in spines:
                    spines[key] = _CostCache(*deployment._cost_args)
                deployment.cost_cache = spines[key]
        for deployment in self.deployments:
            deployment._tracer = tracer
            if self._fault_mode:
                deployment._fault_plan = faults
                deployment._on_crash = self._crash_collector(deployment)
                deployment._on_failover = self._failover_collector(deployment)
                deployment._on_roster = self._roster_changed
            for _ in range(deployment.config.num_ranks):
                deployment.add_replica(self.allocate_rank())

    def allocate_rank(self) -> int:
        """Next cluster-unique replica id (records carry it as ``rank``)."""
        rank = self._next_rank
        self._next_rank += 1
        return rank

    def run(self, trace: Sequence[Request]) -> ClusterResult:
        """Simulate serving ``trace`` across the deployments.

        Arrivals are walked in ``(arrival_s, req_id)`` order; retries
        and backoffs wait in a time-ordered heap, and the next event is
        the earlier of the two heads (a fresh arrival wins a tie).
        Under a non-empty fault plan, each event first advances the
        replicas whose scheduled crash is due by then, so those crashes
        have fired; harvested losses re-enter the heap as retries (or
        fail terminally), and only then is the event routed — to a
        healthy deployment, or back into the heap with backoff when
        none exists.  No other replica is advanced, so a plan whose
        faults never fire changes nothing.  After the last event the
        deployments drain, which can fire late crashes, so the drain
        repeats until no crash box entry and no retry remain.
        """
        deployments = self.deployments
        router = self.router
        scaler = self.autoscaler
        session_target = self._session_target
        tracer = self._trace
        retry = self.retry_policy
        faulted = self._fault_mode
        # A plain list of the ordered requests: the loop indexes it per event.
        ordered = list(Trace.of(trace).ordered())
        arrivals = len(ordered)
        nxt = 0
        heap: List[tuple] = []
        self._seq = arrivals
        while True:
            while nxt < arrivals or heap:
                fresh = nxt < arrivals and (
                    not heap or ordered[nxt].arrival_s <= heap[0][0]
                )
                if faulted:
                    t_peek = ordered[nxt].arrival_s if fresh else heap[0][0]
                    # Due crashes, autoscaler and routing probes of this
                    # event all surface crashes at its time.
                    self._detect_s = t_peek
                    if t_peek >= self._next_crash_s:
                        self._fire_due_crashes(t_peek)
                    if self._crash_box:
                        # Harvest first: a retry may precede the head event.
                        self._pump_crashes(heap)
                        continue
                if fresh:
                    request = ordered[nxt]
                    nxt += 1
                    t = request.arrival_s
                    from_rank = -1
                else:
                    t, _, request, from_rank = heapq.heappop(heap)
                self._now = t
                req_id = request.req_id
                if scaler is not None:
                    scaler.control(t, self)
                    if self._crash_box:
                        self._pump_crashes(heap)
                if from_rank < 0 and self._should_shed(request, t):
                    self._fail_terminal(
                        RequestRecord.from_request(request, -1), t, shed=True
                    )
                    if tracer is not None:
                        tracer.emit("shed", t, -1, req_id,
                                    deployment="cluster",
                                    priority=request.priority)
                    continue
                healthy = self._healthy_at(t) if faulted else None
                if healthy is not None and not healthy:
                    # Nowhere to place it: back off like a crash loss.
                    attempt = self._retry_counts.get(req_id, 0) + 1
                    self._origin_arrival.setdefault(
                        req_id, request.arrival_s
                    )
                    if attempt > retry.max_retries:
                        self._fail_terminal(
                            RequestRecord.from_request(request, -1), t
                        )
                        continue
                    self._retry_counts[req_id] = attempt
                    backoff = retry.backoff_s(req_id, attempt)
                    if tracer is not None:
                        tracer.emit(
                            "retry", t + backoff, -1, req_id,
                            deployment="cluster", attempt=attempt,
                            backoff_s=backoff,
                        )
                    heapq.heappush(heap, (
                        t + backoff, self._next_seq(),
                        dc_replace(request, arrival_s=t + backoff),
                        from_rank,
                    ))
                    continue
                session = request.session_id
                target = (
                    session_target.get(session, -1) if session >= 0 else -1
                )
                if (target >= 0 and healthy is not None
                        and target not in healthy):
                    # Sticky deployment is down or frozen: fail over.
                    self._failover_counts[req_id] = (
                        self._failover_counts.get(req_id, 0) + 1
                    )
                    if tracer is not None:
                        tracer.emit(
                            "failover", t, -1, req_id,
                            deployment=deployments[target].name,
                            from_rank=-1,
                        )
                    target = -1
                    session_target.pop(session, None)
                if target < 0:
                    pool = (
                        deployments if healthy is None
                        else self._healthy_pool
                    )
                    target = router.select(request, pool)
                    if not 0 <= target < len(pool):
                        raise ValueError(
                            f"router {router.name!r} returned invalid "
                            f"target {target} for {len(pool)} deployments"
                        )
                    if healthy is not None:
                        target = healthy[target]
                    if session >= 0:
                        session_target[session] = target
                deployment = deployments[target]
                placed = deployment.submit(request)
                if from_rank >= 0 and placed.rank != from_rank:
                    # The retry moved off the replica that crashed.
                    self._failover_counts[req_id] = (
                        self._failover_counts.get(req_id, 0) + 1
                    )
                    if tracer is not None:
                        tracer.emit(
                            "failover", t, -1, req_id,
                            deployment=deployment.name, from_rank=from_rank,
                        )
                if tracer is not None:
                    tracer.emit("route", t, -1, req_id,
                                deployment=deployment.name, router=router.name)
            self._detect_s = None
            for deployment in deployments:
                deployment.drain()
            if self._crash_box:
                self._pump_crashes(heap)
            if not heap and not self._crash_box:
                break
        return self._collect_result()

    # -- fault mode (crash recovery, retries, shedding) -----------------------

    def _roster_changed(self) -> None:
        """A deployment's roster changed: drop the health cache and the
        crash agenda (rebuilt on next use)."""
        self._healthy_until = -math.inf
        self._next_crash_s = -math.inf

    def _healthy_at(self, t: float) -> List[int]:
        """Indices of the deployments with a live, unstalled replica at
        ``t``; rebuilt only when ``t`` reaches the next stall edge of a
        live replica or the roster has changed."""
        if not self._healthy_from <= t < self._healthy_until:
            healthy = []
            until = math.inf
            for index, deployment in enumerate(self.deployments):
                if deployment._live_at(t):
                    healthy.append(index)
                until = min(until, deployment._live_until)
            self._healthy = healthy
            self._healthy_pool = [self.deployments[i] for i in healthy]
            self._healthy_from = t
            self._healthy_until = until
        return self._healthy

    def _fire_due_crashes(self, t: float) -> None:
        """Advance every live replica whose scheduled crash is due by
        ``t``, so those crashes fire; called only once ``t`` reaches the
        earliest crash on the agenda.  Due replicas advance in
        (deployment, engine) order, not crash-time order: the crash box,
        and so the retry sequence numbers, follow that order."""
        if self._next_crash_s == -math.inf:
            self._crash_agenda = [
                engine
                for deployment in self.deployments
                for engine in deployment.engines
                if not engine.dead and engine.crash_s < math.inf
            ]
            self._next_crash_s = min(
                (engine.crash_s for engine in self._crash_agenda),
                default=math.inf,
            )
            if t < self._next_crash_s:
                return
        for engine in self._crash_agenda:
            if engine.crash_s <= t and not engine.dead:
                engine.advance(t)

    def _crash_collector(self, deployment: Deployment):
        """Crash callback for ``deployment``'s engines: log the fault
        and park the losses in the crash box for the recovery loop."""
        def on_crash(engine, t_s: float, lost: List[tuple]) -> None:
            # t_s is the committed-segment boundary the replica died at
            # (it may run past the scheduled fault under lazy advance);
            # detected_s is the time of the event that surfaced the
            # death (the boundary itself in the final drain) — the clock
            # MTTR is measured from.
            self._fault_events.append({
                "t_s": t_s,
                "kind": "crash",
                "rank": engine.rank,
                "deployment": deployment.name,
                "lost_requests": len(lost),
                "detected_s": (
                    t_s if self._detect_s is None else self._detect_s
                ),
            })
            self._crashes += 1
            self._crash_box.append((t_s, deployment, engine, lost))
        return on_crash

    def _failover_collector(self, deployment: Deployment):
        """Failover callback: a sticky session's replica died and its
        turn was re-placed on a live one."""
        def on_failover(t_s: float, req_id: int, from_rank: int) -> None:
            self._failover_counts[req_id] = (
                self._failover_counts.get(req_id, 0) + 1
            )
            if self._trace is not None:
                self._trace.emit("failover", t_s, -1, req_id,
                                 deployment=deployment.name,
                                 from_rank=from_rank)
        return on_failover

    def _fail_terminal(self, record: RequestRecord, t_s: float,
                       shed: bool = False) -> None:
        """Stamp ``record`` as a terminal failure at ``t_s``."""
        req_id = record.req_id
        record.status = "failed"
        record.finish_s = t_s
        record.arrival_s = self._origin_arrival.get(req_id, record.arrival_s)
        record.retries = self._retry_counts.get(req_id, 0)
        record.failovers = self._failover_counts.get(req_id, 0)
        record.shed = shed
        self._failed_records.append(record)

    def _pump_crashes(self, heap: List[tuple]) -> None:
        """Drain the crash box: schedule a retry for every lost request
        still inside its budget, fail the rest terminally.

        Retry times are ``crash_t + backoff``, clamped forward to the
        recovery loop's processing front so submissions stay globally
        time-ordered (crashes are detected lazily, when the first event
        at or past the crash time advances the replica).
        """
        retry = self.retry_policy
        box, self._crash_box = self._crash_box, []
        for t_crash, deployment, engine, lost in box:
            for request, record in lost:
                req_id = request.req_id
                self._origin_arrival.setdefault(req_id, record.arrival_s)
                attempt = self._retry_counts.get(req_id, 0) + 1
                if attempt > retry.max_retries:
                    self._fail_terminal(record, t_crash)
                    continue
                self._retry_counts[req_id] = attempt
                backoff = retry.backoff_s(req_id, attempt)
                t_retry = max(t_crash + backoff, self._now)
                if self._trace is not None:
                    self._trace.emit(
                        "retry", t_retry, -1, req_id,
                        deployment=deployment.name, attempt=attempt,
                        backoff_s=backoff,
                    )
                heapq.heappush(heap, (
                    t_retry, self._next_seq(),
                    dc_replace(request, arrival_s=t_retry), engine.rank,
                ))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _should_shed(self, request: Request, t: float) -> bool:
        """Graceful degradation: drop a sheddable-tier arrival when the
        post-failure fleet is drowning.

        Only arrivals at or below the configured tier are candidates
        (``priority`` grows downward: 0 is the most important), only
        after at least one crash, and only while the cluster-wide queue
        depth exceeds the high-water mark per live replica — the same
        signal the autoscaler scales on, so shedding engages exactly
        when capacity demonstrably lags demand.
        """
        if self.shed_tier is None or request.priority < self.shed_tier:
            return False
        if not self._crashes:
            return False
        scaler = self.autoscaler
        high = scaler.config.queue_high if scaler is not None else 8.0
        depth = 0
        live = 0
        for deployment in self.deployments:
            depth += deployment.queue_depth(t)
            live += len(deployment.active_engines())
        return depth > high * max(live, 1)

    def _stamp_recovery(self, records: ColumnRecords) -> ColumnRecords:
        """``records`` with the origin arrival of retried requests
        restored (their surviving records were created at the retry
        submission), so TTFT and latency include the crash and backoff
        delay, and with the per-request recovery counters stamped."""
        ids = records.column("req_id")
        retries = [self._retry_counts.get(req_id, 0) for req_id in ids]
        return records.replace(
            retries=retries,
            arrival_s=[
                self._origin_arrival.get(req_id, arrival) if count
                else arrival
                for req_id, arrival, count in zip(
                    ids, records.column("arrival_s"), retries
                )
            ],
            failovers=[self._failover_counts.get(req_id, 0)
                       for req_id in ids],
        )

    def _collect_result(self) -> ClusterResult:
        """Package deployments, scale events and fault state."""
        scaler = self.autoscaler
        servings = [d.result() for d in self.deployments]
        if self._retry_counts or self._failover_counts:
            for serving in servings:
                serving.records = self._stamp_recovery(serving.records)
        return ClusterResult(
            router=self.router.name,
            deployments=[
                DeploymentResult(
                    name=d.name,
                    tier=d.tier,
                    routed=d.routed,
                    replicas_final=len(d.active_engines()),
                    replicas_peak=d.replicas_peak,
                    scale_ups=d.scale_ups,
                    scale_downs=d.scale_downs,
                    serving=serving,
                    replacements=d.replacements,
                )
                for d, serving in zip(self.deployments, servings)
            ],
            scale_events=(
                list(scaler.scale_events) if scaler is not None else []
            ),
            cold_start_s=scaler.cold_start_s if scaler is not None else 0.0,
            cold_start_bytes=(
                scaler.cold_start_bytes if scaler is not None else 0
            ),
            failed_records=list(self._failed_records),
            fault_events=sorted(
                self._fault_events, key=lambda e: (e["t_s"], e["rank"])
            ),
        )


def simulate_cluster(
    trace: Sequence[Request],
    deployments: Sequence[Deployment],
    router: Union[str, RoutingPolicy] = "round_robin",
    autoscaler=None,
    tracer=None,
    faults: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    shed_tier: Optional[int] = None,
) -> ClusterResult:
    """Convenience wrapper: build a :class:`Cluster` and run ``trace``.

    ``deployments`` are :class:`Deployment` instances (fresh ones — a
    deployment holds live engine state and must not be reused across
    runs); ``router`` is a registry name from
    :data:`~repro.serving.routing.ROUTERS` or a pre-built policy;
    ``autoscaler`` an optional
    :class:`~repro.serving.autoscale.Autoscaler`.  A non-empty
    ``faults`` plan engages crash recovery with ``retry_policy``
    (defaulted) and optional tier shedding.
    """
    return Cluster(
        deployments, router=router, autoscaler=autoscaler,
        tracer=tracer, faults=faults,
        retry_policy=retry_policy, shed_tier=shed_tier,
    ).run(trace)
