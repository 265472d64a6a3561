"""Fault injection and recovery: plan/policy contracts, engine fault
semantics, the cluster recovery loop (retries, failover, shedding,
replacement), fault-free bit-identity, the replay oracle and the
fault-column CSV round-trip."""

import math

import pytest

from repro.experiments.io import read_csv, write_csv
from repro.obs import RecordingTracer
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.replay import replay_fault_counters, replay_result
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
    cluster_summary,
    generate_trace,
    main,
    record_rows,
    simulate_cluster,
    simulate_trace,
)

ROUTER_NAMES = ("round_robin", "least_kv", "p2c", "slo_affinity")


def _trace(seed, requests=96, rate=10.0, scenario="bursty"):
    return generate_trace(TraceSpec(
        num_requests=requests, seed=seed, scenario=scenario,
        arrival_rate_per_s=rate, priority_weights=(1.0, 1.0),
    ))


def _deployments():
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2), name="a",
                   tier=0),
        Deployment(ServingConfig(model="gpt-350m", num_ranks=2), name="b",
                   tier=1),
    ]


def _record_key(rec):
    return (rec.req_id, rec.rank, rec.status, rec.arrival_s, rec.admit_s,
            rec.first_token_s, rec.finish_s, rec.retries, rec.failovers,
            rec.shed)


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan / RetryPolicy contracts
# ---------------------------------------------------------------------------

def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("melt", 0, 1.0)
    with pytest.raises(ValueError, match="rank"):
        FaultSpec("crash", -1, 1.0)
    with pytest.raises(ValueError, match="t_s"):
        FaultSpec("crash", 0, -1.0)
    with pytest.raises(ValueError, match="no duration"):
        FaultSpec("crash", 0, 1.0, duration_s=2.0)
    with pytest.raises(ValueError, match="duration_s > 0"):
        FaultSpec("stall", 0, 1.0)
    with pytest.raises(ValueError, match="factor"):
        FaultSpec("degrade", 0, 1.0, duration_s=1.0, factor=1.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_fault_parameters_must_be_finite(bad):
    # Each of these slipped past a `x < 0` check: a NaN degrade factor
    # made a rank's busy time NaN and dropped its records, a NaN crash
    # time never fired.
    with pytest.raises(ValueError, match="t_s"):
        FaultSpec("crash", 0, bad)
    with pytest.raises(ValueError, match="duration_s > 0"):
        FaultSpec("stall", 0, 1.0, duration_s=bad)
    with pytest.raises(ValueError, match="factor"):
        FaultSpec("degrade", 0, 1.0, duration_s=1.0, factor=bad)
    with pytest.raises(ValueError, match="stall_s"):
        FaultPlan.sample(0, range(2), 10.0, stall_s=bad)
    with pytest.raises(ValueError, match="horizon_s"):
        FaultPlan.sample(0, range(2), bad)
    for field in ("backoff_base_s", "backoff_mult", "jitter"):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: bad})


def test_fault_plan_sorts_specs_and_filters_by_rank():
    plan = FaultPlan((
        FaultSpec("stall", 1, 5.0, 1.0),
        FaultSpec("crash", 0, 2.0),
        FaultSpec("crash", 1, 2.0),
    ))
    assert [(s.t_s, s.rank) for s in plan.specs] == [(2.0, 0), (2.0, 1),
                                                    (5.0, 1)]
    assert not plan.empty
    assert FaultPlan().empty
    assert [s.kind for s in plan.for_rank(1)] == ["crash", "stall"]
    assert plan.for_rank(7) == ()


def test_fault_plan_sample_is_seed_deterministic():
    kwargs = dict(ranks=range(8), horizon_s=100.0, crash_rate=0.5,
                  stall_s=2.0, degrade_rate=0.5)
    assert FaultPlan.sample(seed=3, **kwargs) == FaultPlan.sample(
        seed=3, **kwargs)
    assert FaultPlan.sample(seed=3, **kwargs) != FaultPlan.sample(
        seed=4, **kwargs)
    for spec in FaultPlan.sample(seed=3, **kwargs).specs:
        assert 0 <= spec.rank < 8
        assert 0.0 < spec.t_s < 100.0


def test_fault_plan_sample_validation():
    with pytest.raises(ValueError, match="crash_rate"):
        FaultPlan.sample(0, range(2), 10.0, crash_rate=1.5)
    with pytest.raises(ValueError, match="stall_s"):
        FaultPlan.sample(0, range(2), 10.0, stall_s=-1.0)
    with pytest.raises(ValueError, match="horizon_s"):
        FaultPlan.sample(0, range(2), 0.0)


def test_retry_policy_backoff_is_deterministic_and_exponential():
    policy = RetryPolicy(max_retries=3, backoff_base_s=0.5, seed=11)
    assert policy.backoff_s(7, 1) == policy.backoff_s(7, 1)
    # Jitter stretches by at most `jitter`, so exponential growth wins.
    assert policy.backoff_s(7, 2) > policy.backoff_s(7, 1)
    assert policy.backoff_s(7, 3) > policy.backoff_s(7, 2)
    for attempt in (1, 2, 3):
        base = 0.5 * 2.0 ** (attempt - 1)
        assert base <= policy.backoff_s(7, attempt) <= base * 1.1
    no_jitter = RetryPolicy(jitter=0.0)
    assert no_jitter.backoff_s(0, 2) == 1.0
    with pytest.raises(ValueError, match="1-based"):
        policy.backoff_s(0, 0)
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_base_s"):
        RetryPolicy(backoff_base_s=0.0)


# ---------------------------------------------------------------------------
# engine-level fault semantics (standalone simulate_trace)
# ---------------------------------------------------------------------------

def test_standalone_crash_fails_in_flight_requests():
    trace = _trace(5, requests=48, rate=50.0)
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    plan = FaultPlan((FaultSpec("crash", 0, 0.5),))
    result = simulate_trace(trace, config, faults=plan)
    failed = [r for r in result.records if r.status == "failed"]
    assert failed, "an early crash on a loaded rank must lose requests"
    assert all(r.rank == 0 for r in failed)
    assert all(r.finish_s is not None and r.finish_s >= 0.5 for r in failed)
    # Rank 1 is untouched and the totals still conserve.
    statuses = {r.status for r in result.records}
    assert statuses <= {"completed", "rejected", "failed"}
    assert len(result.records) == len(trace)


def test_standalone_stall_and_degrade_slow_but_lose_nothing():
    trace = _trace(5, requests=32, rate=20.0)
    config = ServingConfig(model="gpt-125m", num_ranks=1)
    base = simulate_trace(trace, config)
    # The window must be long enough to catch a committed-step boundary
    # (a segment started before the window completes across it).
    stalled = simulate_trace(trace, config, faults=FaultPlan((
        FaultSpec("stall", 0, 0.2, duration_s=150.0),
    )))
    degraded = simulate_trace(trace, config, faults=FaultPlan((
        FaultSpec("degrade", 0, 0.0, duration_s=1e9, factor=4.0),
    )))
    for faulted in (stalled, degraded):
        assert len(faulted.records) == len(base.records)
        assert all(r.status != "failed" for r in faulted.records)
        assert faulted.makespan_s > base.makespan_s
    # Degrading every step does the same work, slower: token-identical.
    assert degraded.output_tokens == base.output_tokens


def test_idle_death_does_not_stretch_the_makespan():
    """A crash scheduled after a replica's last work still kills and
    logs it, but its finish time (and the makespan) stays at the end of
    the work — standalone and clustered."""
    trace = _trace(5, requests=200, rate=20.0)
    plan = FaultPlan((FaultSpec("crash", 0, 1e6),))
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    base = simulate_trace(trace, config)
    late = simulate_trace(trace, config, faults=plan)
    assert late.makespan_s == base.makespan_s < 1e6
    assert [_record_key(r) for r in late.records] == \
        [_record_key(r) for r in base.records]
    for router in ("round_robin", "least_kv"):
        base = simulate_cluster(trace, _deployments(), router=router)
        cluster = Cluster(_deployments(), router=router, faults=plan)
        late = cluster.run(trace)
        assert late.makespan_s == base.makespan_s < 1e6
        assert cluster_summary(late)["output_tokens_per_s"] == \
            cluster_summary(base)["output_tokens_per_s"]
        assert cluster.deployments[0].engines[0].dead
        assert [(e["kind"], e["t_s"], e["rank"], e["lost_requests"])
                for e in late.fault_events] == [("crash", 1e6, 0, 0)]


# ---------------------------------------------------------------------------
# fault-free bit-identity (the goldens' contract)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ("event", "loop"))
def test_empty_plan_is_bit_identical_standalone(engine):
    trace = _trace(7, requests=48)
    config = ServingConfig(model="gpt-125m", num_ranks=2, engine=engine)
    base = simulate_trace(trace, config)
    empty = simulate_trace(trace, config, faults=FaultPlan())
    assert [_record_key(r) for r in base.records] == \
        [_record_key(r) for r in empty.records]
    assert base.total_energy_j == empty.total_energy_j
    assert base.makespan_s == empty.makespan_s


#: Plans whose faults never fire: none of them may change a cluster run.
NEVER_FIRING_PLANS = {
    "empty": FaultPlan(),
    "crash_at_1e12": FaultPlan((FaultSpec("crash", 0, 1e12),)),
    "stall_at_1e12": FaultPlan((FaultSpec("stall", 0, 1e12, 5.0),)),
    "crash_on_absent_rank": FaultPlan((FaultSpec("crash", 10_000, 1.0),)),
}


def _contract_deployments(engine):
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 engine=engine), name="a", tier=0),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=16, engine=engine),
                   name="b", tier=1),
    ]


def _contract_scaler(autoscaled):
    if not autoscaled:
        return None
    return Autoscaler(AutoscalerConfig(
        min_replicas=1, max_replicas=3, queue_high=2.0, queue_low=0.5,
        interval_s=2.0,
    ))


@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_empty_plan_is_bit_identical_clustered(router):
    """A plan that never fires is no plan: records, scale events and the
    makespan are bit-identical under both engines, with and without the
    autoscaler.  Only the never-firing crash is still logged (the
    replica dies idle, after its last work)."""
    trace = _trace(3, requests=96, rate=20.0)
    for engine in ("event", "loop"):
        for autoscaled in (False, True):
            case = (engine, autoscaled)
            base = simulate_cluster(trace, _contract_deployments(engine),
                                    router=router,
                                    autoscaler=_contract_scaler(autoscaled))
            for name, plan in NEVER_FIRING_PLANS.items():
                run = simulate_cluster(
                    trace, _contract_deployments(engine), router=router,
                    autoscaler=_contract_scaler(autoscaled), faults=plan,
                    retry_policy=RetryPolicy(), shed_tier=1,
                )
                assert [_record_key(r) for r in base.records] == \
                    [_record_key(r) for r in run.records], (name, case)
                assert base.scale_events == run.scale_events, (name, case)
                assert base.makespan_s == run.makespan_s, (name, case)
                assert run.failed_records == [], (name, case)
                if name == "empty":
                    assert run.fault_events == [], case


# ---------------------------------------------------------------------------
# cluster recovery loop
# ---------------------------------------------------------------------------

def test_cluster_crash_retries_to_completion():
    # Crash one of four replicas mid-trace; generous retries and three
    # surviving replicas must recover every lost request.
    trace = _trace(3, requests=96, rate=30.0)
    plan = FaultPlan((FaultSpec("crash", 0, 1.0),))
    result = simulate_cluster(
        trace, _deployments(), router="round_robin", faults=plan,
        retry_policy=RetryPolicy(max_retries=5),
    )
    summary = cluster_summary(result)
    assert result.requests == len(trace)
    assert summary["failed"] == 0
    assert summary["completed"] + summary["rejected"] == len(trace)
    assert summary["retries"] > 0
    crashes = [e for e in result.fault_events if e["kind"] == "crash"]
    assert len(crashes) == 1
    assert crashes[0]["rank"] == 0
    assert crashes[0]["lost_requests"] == summary["retries"]
    retried = [r for r in result.records if r.retries > 0]
    assert retried and all(r.status == "completed" for r in retried)
    # Retried requests keep their original arrival (latency counts the
    # crash-and-retry detour) and none of them completed on the corpse.
    by_id = {r.req_id: r for r in trace}
    for rec in retried:
        assert rec.arrival_s == by_id[rec.req_id].arrival_s
        assert rec.rank != 0


def test_retry_exhaustion_fails_terminally():
    # A one-replica cluster whose only engine dies: every request still
    # in flight (or arriving after) burns its retry budget and fails.
    trace = _trace(3, requests=32, rate=20.0)
    dep = Deployment(ServingConfig(model="gpt-125m", num_ranks=1),
                     name="only")
    plan = FaultPlan((FaultSpec("crash", 0, 0.5),))
    result = simulate_cluster(
        trace, [dep], faults=plan,
        retry_policy=RetryPolicy(max_retries=2, backoff_base_s=0.1),
    )
    summary = cluster_summary(result)
    assert result.requests == len(trace)
    assert summary["completed"] + summary["rejected"] + summary["failed"] \
        == len(trace)
    assert summary["failed"] > 0
    for rec in result.failed_records:
        assert rec.status == "failed"
        assert rec.retries <= 2
        assert rec.finish_s >= rec.arrival_s


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_chaos_fuzzer_conserves_every_request(seed, router):
    trace = _trace(seed, requests=96, rate=30.0)
    plan = FaultPlan.sample(
        seed=seed, ranks=range(4), horizon_s=max(r.arrival_s for r in trace),
        crash_rate=0.5, stall_s=1.0,
    )
    scaler = Autoscaler(AutoscalerConfig(max_replicas=3, interval_s=5.0))
    result = simulate_cluster(
        trace, _deployments(), router=router, autoscaler=scaler,
        faults=plan, retry_policy=RetryPolicy(max_retries=3), shed_tier=1,
    )
    summary = cluster_summary(result)
    assert result.requests == len(trace)
    assert summary["completed"] + summary["rejected"] + summary["failed"] \
        == len(trace)
    assert {rec.req_id for rec in result.records} == \
        {r.req_id for r in trace}
    for rec in result.records:
        assert rec.status in ("completed", "rejected", "failed")
        if rec.finish_s is not None:
            assert rec.finish_s >= rec.arrival_s


def _planned_crash_s(plan):
    planned = {}
    for spec in plan.specs:
        if spec.kind == "crash":
            planned[spec.rank] = min(planned.get(spec.rank, math.inf),
                                     spec.t_s)
    return planned


def test_crash_detected_at_the_event_that_surfaces_it():
    """``detected_s`` is the time of the event that surfaced a crash.
    Two crashes planned at 1 s and 2 s, between arrivals at 0-0.05 s and
    10 s, surface at the 10 s arrival; with no later arrival a crash
    surfaces in the final drain, at its own boundary."""
    early = [
        Request(req_id=i, arrival_s=0.01 * i, prompt_tokens=64,
                gen_tokens=400)
        for i in range(6)
    ]
    plan = FaultPlan((FaultSpec("crash", 0, 1.0), FaultSpec("crash", 1, 2.0)))

    def crashes(trace):
        dep = Deployment(ServingConfig(model="gpt-125m", num_ranks=3),
                         name="only")
        result = Cluster([dep], faults=plan).run(trace)
        return [e for e in result.fault_events if e["kind"] == "crash"]

    late = Request(req_id=6, arrival_s=10.0, prompt_tokens=8, gen_tokens=4)
    surfaced = crashes(early + [late])
    assert [e["detected_s"] for e in surfaced] == [10.0, 10.0]
    drained = crashes(early)
    assert len(drained) == 2
    assert all(e["detected_s"] == e["t_s"] for e in drained)
    planned = _planned_crash_s(plan)
    for event in surfaced + drained:
        assert event["detected_s"] >= planned[event["rank"]]


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_crash_is_never_detected_before_it_happens(seed, router):
    trace = _trace(seed, requests=96, rate=30.0)
    plan = FaultPlan.sample(
        seed=seed, ranks=range(4), horizon_s=max(r.arrival_s for r in trace),
        crash_rate=0.5, stall_s=1.0,
    )
    result = simulate_cluster(
        trace, _deployments(), router=router,
        autoscaler=Autoscaler(AutoscalerConfig(max_replicas=3,
                                               interval_s=5.0)),
        faults=plan, retry_policy=RetryPolicy(max_retries=3), shed_tier=1,
    )
    planned = _planned_crash_s(plan)
    crashes = [e for e in result.fault_events if e["kind"] == "crash"]
    assert crashes
    for event in crashes:
        assert event["detected_s"] >= planned[event["rank"]]


def test_load_shedding_drops_low_tier_arrivals_under_pressure():
    # One slow replica left alive after a crash and a hot arrival rate:
    # the shedder must drop tier>=1 arrivals, never tier 0.
    trace = _trace(3, requests=200, rate=100.0)
    dep = Deployment(ServingConfig(model="gpt-350m", num_ranks=2),
                     name="only")
    plan = FaultPlan((FaultSpec("crash", 0, 0.2),))
    result = simulate_cluster(
        trace, [dep], faults=plan,
        retry_policy=RetryPolicy(max_retries=3), shed_tier=1,
    )
    shed = [r for r in result.records if r.shed]
    assert shed, "queue pressure after the crash must shed something"
    assert all(r.status == "failed" for r in shed)
    assert all(r.priority >= 1 for r in shed)
    assert all(r.rank == -1 for r in shed)  # never reached a replica
    summary = cluster_summary(result)
    assert summary["shed"] == len(shed)
    assert summary["completed"] + summary["rejected"] + summary["failed"] \
        == len(trace)


# ---------------------------------------------------------------------------
# autoscaler: replacement, warm reuse, observed-depth events
# ---------------------------------------------------------------------------

def test_autoscaler_replaces_crashed_replica():
    trace = _trace(3, requests=96, rate=30.0)
    plan = FaultPlan((FaultSpec("crash", 0, 1.0),))
    scaler = Autoscaler(AutoscalerConfig(max_replicas=2, interval_s=1.0))
    result = simulate_cluster(
        trace, _deployments(), faults=plan,
        retry_policy=RetryPolicy(max_retries=5), autoscaler=scaler,
    )
    replaces = [e for e in result.scale_events if e["action"] == "replace"]
    assert len(replaces) == 1
    event = replaces[0]
    assert event["dead_rank"] == 0
    assert event["cold_start_s"] > 0.0
    assert event["deployment"] == "a"
    assert result.deployments[0].replacements == 1
    summary = cluster_summary(result)
    assert summary["failed"] == 0
    assert summary["replacements"] == 1
    assert summary["crashes"] == 1
    assert summary["recovery_time_s"] >= 0.0
    assert summary["unavailability_s"] > 0.0


def test_scale_events_carry_observed_depth_and_threshold():
    trace = _trace(3, requests=256, rate=60.0, scenario="bursty")
    scaler = Autoscaler(AutoscalerConfig(
        max_replicas=4, queue_high=4.0, queue_low=2.0, interval_s=2.0,
    ))
    result = simulate_cluster(trace, _deployments(), autoscaler=scaler)
    assert result.scale_events
    for event in result.scale_events:
        assert "depth" in event and "threshold" in event
        assert event["depth"] >= 0
        assert event["threshold"] >= 0.0
        if event["action"] == "scale_up":
            assert event["depth"] > event["threshold"]


def test_scale_up_warm_reuses_retired_replica_for_free():
    # Burst, calm (scale-down retires a warm replica), burst again: the
    # autoscaler must re-activate the retiree at zero cold-start cost.
    trace = generate_trace(TraceSpec(
        num_requests=384, seed=3, scenario="bursty", arrival_rate_per_s=40.0,
        burst_rate_multiplier=8.0, burst_dwell_s=10.0, calm_dwell_s=30.0,
    ))
    scaler = Autoscaler(AutoscalerConfig(
        max_replicas=4, queue_high=2.0, queue_low=1.0, interval_s=2.0,
    ))
    result = simulate_cluster(trace, _deployments(), autoscaler=scaler)
    actions = [e["action"] for e in result.scale_events]
    assert "scale_down" in actions
    warm = [e for e in result.scale_events if e["action"] == "scale_up_warm"]
    assert warm, f"expected a warm scale-up, got {actions}"
    for event in warm:
        assert event["cold_start_s"] == 0.0
        assert event["weight_bytes"] == 0
    assert actions.index("scale_down") < actions.index("scale_up_warm")


@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_shrinking_fleet_never_routes_to_retired_or_dead_replicas(router):
    # Scale-downs plus crashes shrink the fleet toward min_replicas;
    # no completed work may postdate a rank's death, accounting stays
    # conserved and every queue drains empty.
    trace = generate_trace(TraceSpec(
        num_requests=192, seed=9, scenario="bursty", arrival_rate_per_s=20.0,
        burst_dwell_s=5.0, calm_dwell_s=20.0, priority_weights=(1.0, 1.0),
    ))
    plan = FaultPlan((
        FaultSpec("crash", 0, 2.0),
        FaultSpec("crash", 2, 4.0),
    ))
    scaler = Autoscaler(AutoscalerConfig(
        min_replicas=1, max_replicas=2, queue_high=6.0, queue_low=2.0,
        interval_s=2.0,
    ))
    cluster = Cluster(_deployments(), router=router, autoscaler=scaler,
                      faults=plan, retry_policy=RetryPolicy(max_retries=4))
    result = cluster.run(trace)
    summary = cluster_summary(result)
    assert summary["completed"] + summary["rejected"] + summary["failed"] \
        == len(trace)
    crash_boundary = {
        e["rank"]: e["t_s"] for e in result.fault_events
        if e["kind"] == "crash"
    }
    for rec in result.records:
        if rec.status == "completed" and rec.rank in crash_boundary:
            assert rec.finish_s <= crash_boundary[rec.rank]
    for dep in cluster.deployments:
        assert dep.queue_depth(math.inf) == 0
        alive = [e for e in dep.engines if not e.retired]
        assert len(alive) >= 1  # never scaled below a live floor
        for engine in dep.engines:
            if engine.dead:
                assert engine.retired  # a corpse never re-enters rotation


# ---------------------------------------------------------------------------
# observability: tracer, chrome trace, replay oracle
# ---------------------------------------------------------------------------

def _chaos_run_with_tracer():
    # No autoscaler: an early scale-up can drain the doomed replica
    # before its crash boundary and the fixture needs real losses.  The
    # stall/degrade windows are long enough to catch a step boundary on
    # their (busy) ranks.
    trace = _trace(3, requests=96, rate=30.0)
    plan = FaultPlan((
        FaultSpec("crash", 0, 1.0),
        FaultSpec("stall", 3, 1.0, duration_s=200.0),
        FaultSpec("degrade", 1, 0.0, duration_s=1e6, factor=3.0),
    ))
    tracer = RecordingTracer(level="full")
    result = simulate_cluster(
        trace, _deployments(), tracer=tracer,
        faults=plan, retry_policy=RetryPolicy(max_retries=5),
    )
    return trace, tracer, result


def test_replay_oracle_reconstructs_fault_counters():
    trace, tracer, result = _chaos_run_with_tracer()
    counters = replay_fault_counters(tracer.events)
    assert counters["crashes"] == sum(
        1 for e in result.fault_events if e["kind"] == "crash")
    assert counters["stalls"] == sum(
        1 for e in result.fault_events if e["kind"] == "stall")
    assert counters["degrades"] == sum(
        1 for e in result.fault_events if e["kind"] == "degrade")
    assert counters["lost_requests"] == sum(
        e.get("lost_requests", 0) for e in result.fault_events)
    summary = cluster_summary(result)
    assert counters["retries"] == summary["retries"]
    assert counters["failovers"] == summary["failovers"]
    assert counters["shed"] == summary["shed"]
    assert counters["replacements"] == sum(
        1 for e in result.scale_events if e["action"] == "replace")
    for rec in result.records:
        assert counters["retry_attempts"].get(rec.req_id, 0) == rec.retries


def test_replay_oracle_rejects_out_of_order_retries():
    from repro.obs.tracer import TraceEvent
    events = [
        TraceEvent("retry", 1.0, -1, 5, {"attempt": 1}),
        TraceEvent("retry", 2.0, -1, 5, {"attempt": 2}),
    ]
    assert replay_fault_counters(events)["retry_attempts"] == {5: 2}
    with pytest.raises(ValueError, match="attempt"):
        replay_fault_counters(events[1:])  # attempt 1 went missing


def test_replay_result_marks_standalone_crash_losses():
    trace = _trace(5, requests=48, rate=50.0)
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    tracer = RecordingTracer(level="full")
    plan = FaultPlan((FaultSpec("crash", 0, 0.5),))
    result = simulate_trace(trace, config, tracer=tracer, faults=plan)
    replayed = replay_result(tracer.events, config)
    assert [(r.req_id, r.status, r.finish_s) for r in result.records] == \
        [(r.req_id, r.status, r.finish_s) for r in replayed.records]
    assert any(r.status == "failed" for r in replayed.records)


def test_traced_sticky_session_failover():
    # A conversational turn whose sticky replica died is re-placed by
    # its deployment (no retry involved); the trace must record it.
    trace = generate_trace(TraceSpec(
        num_requests=96, seed=2, scenario="conversational",
        arrival_rate_per_s=30.0, sessions=24, turns_mean=4.0, turns_max=6,
        think_time_mean_s=2.0,
    ))
    tracer = RecordingTracer(level="full")
    result = simulate_cluster(
        trace, _deployments(), tracer=tracer,
        faults=FaultPlan((FaultSpec("crash", 0, 1.0),)),
        retry_policy=RetryPolicy(max_retries=5),
    )
    retried = {e.req_id for e in tracer.events if e.kind == "retry"}
    sticky = [e for e in tracer.events
              if e.kind == "failover" and e.req_id not in retried]
    assert sticky
    for event in sticky:
        assert event.rank == -1
        assert list(event.data) == ["deployment", "from_rank"]
        assert event.data["from_rank"] == 0
    assert replay_fault_counters(tracer.events)["failovers"] == \
        cluster_summary(result)["failovers"]
    validate_chrome_trace(chrome_trace(tracer.events))


def test_chrome_trace_renders_fault_events():
    _, tracer, result = _chaos_run_with_tracer()
    doc = chrome_trace(tracer.events)
    counts = validate_chrome_trace(doc)
    assert counts["slices"] > 0
    names = {entry.get("name") for entry in doc["traceEvents"]}
    assert "fault_crash" in names
    assert "fault_stall" in names
    assert "fault_degrade" in names
    crash = next(e for e in doc["traceEvents"]
                 if e.get("name") == "fault_crash")
    assert crash["ph"] == "i"
    assert crash["args"]["lost_requests"] == len(
        crash["args"]["lost_req_ids"])


# ---------------------------------------------------------------------------
# metrics + CSV round-trip (fault columns are type-faithful)
# ---------------------------------------------------------------------------

def test_cluster_summary_carries_fault_metrics():
    _, _, result = _chaos_run_with_tracer()
    summary = cluster_summary(result)
    assert summary["crashes"] == 1
    assert summary["stalls"] == 1
    assert summary["degrades"] == 1
    records = result.records
    status, retries, failovers, shed, gens = records.columns(
        ("status", "retries", "failovers", "shed", "gen_tokens"))
    assert summary["retries"] == sum(retries)
    assert summary["failovers"] == sum(failovers)
    assert summary["failed"] == status.count("failed")
    assert summary["shed"] == sum(map(bool, shed))
    assert summary["goodput_tokens"] == sum(
        gen for gen, s in zip(gens, status) if s == "completed")
    assert summary["goodput_tokens"] <= summary["output_tokens"]
    assert summary["unavailability_s"] > 0.0
    assert summary["recovery_time_s"] >= 0.0


def test_fault_columns_round_trip_csv(tmp_path):
    trace = _trace(3, requests=64, rate=40.0)
    dep = Deployment(ServingConfig(model="gpt-125m", num_ranks=2),
                     name="only")
    plan = FaultPlan((FaultSpec("crash", 0, 0.5),))
    result = simulate_cluster(
        trace, [dep], faults=plan,
        retry_policy=RetryPolicy(max_retries=1, backoff_base_s=0.1),
        shed_tier=1,
    )
    rows = record_rows(result)
    assert any(r["status"] == "failed" for r in rows) or \
        any(r["retries"] > 0 for r in rows)
    path = str(tmp_path / "chaos.csv")
    write_csv(path, rows)
    back = read_csv(path)
    assert len(back) == len(rows)
    for orig, rt in zip(rows, back):
        assert rt["status"] == orig["status"]
        assert isinstance(rt["status"], str)
        assert rt["retries"] == orig["retries"]
        assert isinstance(rt["retries"], int)
        assert rt["failovers"] == orig["failovers"]
        assert isinstance(rt["failovers"], int)
        assert rt["shed"] == orig["shed"]
        assert isinstance(rt["shed"], bool)
    # Fault-event rows (the CLI's fault log) keep `kind` a string.
    fault_path = str(tmp_path / "faults.csv")
    write_csv(fault_path, result.fault_events)
    for row in read_csv(fault_path):
        assert isinstance(row["kind"], str)


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def test_cli_chaos_run_conserves_and_reports(tmp_path, capsys):
    out = str(tmp_path / "chaos.json")
    code = main([
        "--cluster", "--requests", "64", "--scenario", "bursty",
        "--arrival-rate", "30", "--faults", "7", "--crash-rate", "0.5",
        "--stall", "1.0", "--retry-max", "3", "--retry-backoff", "0.25",
        "--quiet", "--output", out,
    ])
    assert code == 0
    import json
    with open(out) as fh:
        payload = json.load(fh)
    s = payload["summary"]
    assert s["completed"] + s["rejected"] + s["failed"] == 64
    assert payload["fault_events"]
    assert {e["kind"] for e in payload["fault_events"]} <= \
        {"crash", "stall", "degrade"}


def test_cli_fault_flags_are_validated(capsys):
    assert main(["--faults", "7", "--quiet"]) == 2
    assert "--cluster" in capsys.readouterr().err
    assert main(["--cluster", "--crash-rate", "0.5", "--quiet"]) == 2
    assert "--faults" in capsys.readouterr().err
    assert main(["--cluster", "--faults", "7", "--crash-rate", "1.5",
                 "--quiet"]) == 2
    assert "crash-rate" in capsys.readouterr().err
    assert main(["--cluster", "--faults", "7", "--retry-backoff", "0",
                 "--quiet"]) == 2
    assert "retry-backoff" in capsys.readouterr().err
