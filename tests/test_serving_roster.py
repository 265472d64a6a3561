"""The cluster's maintained replica roster against rescanning oracles.

:class:`~repro.serving.cluster.Deployment` keeps its active and dead
replicas, its unstalled replicas and a next-due bound as state, and the
:class:`~repro.serving.cluster.Cluster` keeps the healthy-deployment
list and the crash agenda on top.  Two kinds of check hold them to the
full rescans they replace, over seeded crash / stall / degrade plans,
every router, with and without the autoscaler:

* invariants at every health query and every lazy advance — the
  cached healthy list equals a rescan over ``Deployment.is_healthy``,
  the active / dead lists equal a filter over ``engines``, and after
  ``Deployment.advance(t)`` no live replica still has a step or a
  crash due at ``t`` (so an idle probe that touched no engine did
  exactly what a full advance would have);
* a differential run through oracle subclasses that rescan everything
  on every event (the pre-roster loop) and must reproduce records,
  scale events and the fault log bit for bit.
"""

import pytest

from repro.obs import RecordingTracer
from repro.serving import (
    Autoscaler,
    AutoscalerConfig,
    Cluster,
    Deployment,
    FaultPlan,
    FaultSpec,
    Request,
    RetryPolicy,
    ServingConfig,
    TraceSpec,
    generate_trace,
)

ROUTER_NAMES = ("round_robin", "least_kv", "p2c", "slo_affinity")


def _trace(seed, requests=96, rate=20.0):
    return generate_trace(TraceSpec(
        num_requests=requests, seed=seed, scenario="bursty",
        arrival_rate_per_s=rate, priority_weights=(1.0, 1.0),
    ))


def _plan(seed, trace):
    """Crashes, stalls and degradations over the initial replicas and
    the first replacement ranks."""
    horizon = max(r.arrival_s for r in trace)
    return FaultPlan.sample(
        seed=seed, ranks=range(6), horizon_s=horizon, crash_rate=0.5,
        stall_s=horizon / 10, degrade_rate=0.5, degrade_s=horizon / 10,
    )


def _deployments(cls=Deployment):
    return [
        cls(ServingConfig(model="gpt-125m", num_ranks=2), name="a", tier=0),
        cls(ServingConfig(model="gpt-125m", num_ranks=2, dpus_per_rank=16),
            name="b", tier=1),
    ]


def _scaler(autoscaled):
    if not autoscaled:
        return None
    return Autoscaler(AutoscalerConfig(
        min_replicas=1, max_replicas=3, queue_high=2.0, queue_low=0.5,
        interval_s=1.0,
    ))


def _run(cluster_cls, deployment_cls, seed, router, autoscaled,
         faulted=True):
    trace = _trace(seed)
    cluster = cluster_cls(
        _deployments(deployment_cls), router=router,
        autoscaler=_scaler(autoscaled),
        faults=_plan(seed, trace) if faulted else None,
        retry_policy=RetryPolicy(max_retries=3), shed_tier=1,
    )
    return cluster.run(trace)


# ---------------------------------------------------------------------------
# test-local oracles: the rescans the roster replaced
# ---------------------------------------------------------------------------

def _healthy_rescan(deployments, t):
    """The health filter as a full rescan over every replica."""
    return [i for i, d in enumerate(deployments) if d.is_healthy(t)]


class _RescanDeployment(Deployment):
    """Advances every replica on every call and filters stalled
    replicas by scanning ``engines``."""

    def advance(self, t):
        for engine in self.engines:
            engine.advance(t)

    def _live_at(self, t):
        return [e for e in self.engines
                if not e.retired and not e.is_stalled(t)]


class _RescanCluster(Cluster):
    """Rescans deployment health and every replica's crash time on
    every event."""

    def _healthy_at(self, t):
        self._healthy = _healthy_rescan(self.deployments, t)
        self._healthy_pool = [self.deployments[i] for i in self._healthy]
        return self._healthy

    def _fire_due_crashes(self, t):
        # _next_crash_s is never raised above -inf, so this runs on
        # every event, in (deployment, engine) order.
        for deployment in self.deployments:
            for engine in deployment.engines:
                if engine.crash_s <= t and not engine.dead:
                    engine.advance(t)


def _record_key(rec):
    return (rec.req_id, rec.rank, rec.status, rec.arrival_s, rec.admit_s,
            rec.first_token_s, rec.finish_s, rec.retries, rec.failovers,
            rec.shed)


def _assert_roster(deployment):
    assert deployment.active_engines() == [
        e for e in deployment.engines if not e.retired
    ]
    assert deployment.dead_engines() == [
        e for e in deployment.engines if e.dead
    ]


@pytest.fixture
def checked(monkeypatch):
    """Wrap the roster's readers with their oracles; yields the count of
    checks made so a test can prove they ran."""
    counts = {"healthy": 0, "advance": 0}
    healthy_at = Cluster._healthy_at
    advance = Deployment.advance

    def checked_healthy_at(self, t):
        got = healthy_at(self, t)
        assert got == _healthy_rescan(self.deployments, t)
        assert self._healthy_pool == [self.deployments[i] for i in got]
        for deployment in self.deployments:
            _assert_roster(deployment)
        counts["healthy"] += 1
        return got

    def checked_advance(self, t):
        advance(self, t)
        _assert_roster(self)
        for engine in self.engines:
            if engine.dead:
                continue
            assert not (engine.has_work and engine.next_event_s() <= t), (
                f"replica {engine.rank} still has a step due at {t}"
            )
            assert engine.crash_s > t, (
                f"replica {engine.rank} still has a crash due at {t}"
            )
        counts["advance"] += 1

    monkeypatch.setattr(Cluster, "_healthy_at", checked_healthy_at)
    monkeypatch.setattr(Deployment, "advance", checked_advance)
    return counts


@pytest.mark.parametrize("autoscaled", (False, True))
@pytest.mark.parametrize("router", ROUTER_NAMES)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_roster_matches_rescan_at_every_event(seed, router, autoscaled,
                                              checked):
    result = _run(Cluster, Deployment, seed, router, autoscaled)
    assert checked["healthy"] > 0
    assert checked["advance"] > 0
    assert result.requests == len(_trace(seed))


@pytest.mark.parametrize("autoscaled", (False, True))
@pytest.mark.parametrize("router", ROUTER_NAMES)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_roster_run_is_bit_identical_to_rescan_loop(seed, router,
                                                    autoscaled):
    got = _run(Cluster, Deployment, seed, router, autoscaled)
    want = _run(_RescanCluster, _RescanDeployment, seed, router, autoscaled)
    assert [_record_key(r) for r in got.records] == \
        [_record_key(r) for r in want.records]
    assert got.scale_events == want.scale_events
    assert got.fault_events == want.fault_events
    assert got.makespan_s == want.makespan_s


def test_plans_fire_every_fault_kind_and_recovery_path():
    """The sampled plans exercise what the roster tracks: crashes,
    stall windows, replacements and retired replicas."""
    kinds = set()
    actions = set()
    for seed in (1, 2, 3):
        result = _run(Cluster, Deployment, seed, "round_robin", True)
        kinds |= {e["kind"] for e in result.fault_events}
        actions |= {e["action"] for e in result.scale_events}
    assert kinds == {"crash", "stall", "degrade"}
    assert {"replace", "scale_down"} <= actions


def test_idle_probe_skip_matches_full_advance_fault_free(checked):
    """Fault-free, the skip bound covers only steps: the probing
    routers under the autoscaler still reproduce the always-advance
    loop."""
    for router in ("least_kv", "p2c"):
        got = _run(Cluster, Deployment, 4, router, True, faulted=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Deployment, "advance", _RescanDeployment.advance)
            want = _run(Cluster, Deployment, 4, router, True,
                        faulted=False)
        assert [_record_key(r) for r in got.records] == \
            [_record_key(r) for r in want.records]
        assert got.scale_events == want.scale_events
    assert checked["advance"] > 0


def _assert_same_run(got, want):
    assert [_record_key(r) for r in got.records] == \
        [_record_key(r) for r in want.records]
    assert got.scale_events == want.scale_events
    assert got.fault_events == want.fault_events


def test_crashes_detected_together_fire_in_deployment_order(checked):
    """Two replicas whose crashes (the later replica's first) surface at
    one event fire in (deployment, engine) order, not crash-time order:
    the fault log, the crash box and the retries all follow it."""
    trace = [
        Request(req_id=i, arrival_s=0.01 * i, prompt_tokens=64,
                gen_tokens=400)
        for i in range(6)
    ] + [Request(req_id=6, arrival_s=10.0, prompt_tokens=8, gen_tokens=4)]
    plan = FaultPlan((FaultSpec("crash", 1, 1.0), FaultSpec("crash", 0, 2.0)))

    def run(cluster_cls, deployment_cls):
        tracer = RecordingTracer("lifecycle")
        dep = deployment_cls(ServingConfig(model="gpt-125m", num_ranks=3),
                             name="only")
        result = cluster_cls([dep], faults=plan, tracer=tracer).run(trace)
        return result, tracer.events

    got, events = run(Cluster, Deployment)
    crashes = [e for e in events if e.kind == "fault_crash"]
    assert [e.rank for e in crashes] == [0, 1]
    assert all(e.data["lost_req_ids"] for e in crashes)
    want, want_events = run(_RescanCluster, _RescanDeployment)
    _assert_same_run(got, want)
    assert events == want_events


def test_replica_born_past_its_crash_dies_at_the_first_probe(checked):
    """A scale-up replica whose scheduled crash is already past is due
    at once: the next lazy advance must fire it, skip bound or not."""
    trace = _trace(5, requests=64, rate=50.0)
    plan = FaultPlan((FaultSpec("crash", 1, 0.001),))

    def run(cluster_cls, deployment_cls):
        dep = deployment_cls(ServingConfig(model="gpt-125m", num_ranks=1),
                             name="only")
        scaler = Autoscaler(AutoscalerConfig(
            max_replicas=2, queue_high=1.0, queue_low=0.5, interval_s=0.05,
        ))
        return cluster_cls([dep], router="least_kv", autoscaler=scaler,
                           faults=plan).run(trace)

    got = run(Cluster, Deployment)
    scale_up = next(e for e in got.scale_events if e["action"] == "scale_up")
    crash = next(e for e in got.fault_events if e["kind"] == "crash")
    assert crash["rank"] == 1
    assert crash["detected_s"] == scale_up["t_s"]
    _assert_same_run(got, run(_RescanCluster, _RescanDeployment))


def test_probe_past_an_idle_replicas_crash_fires_it(checked):
    """The skip bound counts scheduled crashes, not only steps: a probe
    past an idle replica's crash time kills it even outside the
    cluster's event loop, exactly as a full advance would."""
    dep = Deployment(ServingConfig(model="gpt-125m", num_ranks=1),
                     name="only")
    Cluster([dep], faults=FaultPlan((FaultSpec("crash", 0, 50.0),)))
    dep.submit(Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                       gen_tokens=1))
    dep.queue_depth(10.0)  # runs the request; the replica is idle after
    engine = dep.engines[0]
    assert engine.records and not engine.has_work and not engine.dead
    dep.queue_depth(60.0)
    assert engine.dead
    assert dep.dead_engines() == [engine]
    assert dep.active_engines() == []


def test_retire_is_the_only_way_out_of_the_active_roster():
    dep = Deployment(ServingConfig(model="gpt-125m", num_ranks=3), name="r")
    Cluster([dep])
    first, second, third = dep.engines
    dep.retire(second)
    assert second.retired
    assert dep.active_engines() == [first, third]
    with pytest.raises(ValueError, match="not active"):
        dep.retire(second)
    assert dep.reuse_replica() is second
    assert dep.active_engines() == [first, second, third]
    other = Deployment(ServingConfig(model="gpt-125m", num_ranks=1))
    Cluster([other])
    with pytest.raises(ValueError, match="not active"):
        dep.retire(other.engines[0])
