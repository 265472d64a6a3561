"""Cluster layer: routing invariants across seeds, autoscaler accounting,
session stickiness, observability and the cluster tables."""

import dataclasses
import itertools
import math

import pytest

from repro.experiments.tables import cluster_table
from repro.model.policy import SchemePolicy
from repro.obs import RecordingTracer
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.tracer import CLUSTER_KINDS, EVENT_KINDS, LIFECYCLE_KINDS
from repro.pim.transfer import TransferModel
from repro.serving import (
    Autoscaler,
    AutoscalerConfig,
    Cluster,
    Deployment,
    RoutingPolicy,
    ServingConfig,
    TraceSpec,
    cluster_rows,
    cluster_summary,
    generate_trace,
    simulate_cluster,
    simulate_trace,
)

SEEDS = (3, 11, 29)
ROUTER_NAMES = ("round_robin", "least_kv", "p2c", "slo_affinity")


def _trace(seed, requests=96, rate=10.0, scenario="bursty"):
    return generate_trace(TraceSpec(
        num_requests=requests, seed=seed, scenario=scenario,
        arrival_rate_per_s=rate, priority_weights=(1.0, 1.0),
    ))


def _roomy_deployments():
    """Heterogeneous but generously provisioned: nothing is ever
    rejected, so every router must complete the same request set."""
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2), name="a",
                   tier=0),
        Deployment(ServingConfig(model="gpt-350m", num_ranks=2), name="b",
                   tier=1),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1), name="c",
                   tier=0),
    ]


def _starved_deployments():
    """KV-starved and uneven: load-aware routing has room to win."""
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                 dpus_per_rank=8), name="tight", tier=0),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=16), name="mid", tier=1),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=64), name="roomy", tier=0),
    ]


# ---------------------------------------------------------------------------
# conservation + cross-router invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("router", ROUTER_NAMES)
@pytest.mark.parametrize("mk_deps", [_roomy_deployments, _starved_deployments],
                         ids=["roomy", "starved"])
def test_request_conservation(seed, router, mk_deps):
    trace = _trace(seed)
    result = simulate_cluster(trace, mk_deps(), router=router)
    assert result.requests == len(trace)
    assert {rec.req_id for rec in result.records} == \
        {r.req_id for r in trace}
    assert sum(dep.routed for dep in result.deployments) == len(trace)
    flat = cluster_summary(result)
    assert flat["completed"] + flat["rejected"] == result.requests
    for rec in result.records:
        assert rec.status in ("completed", "rejected")
        if rec.status == "completed":
            assert rec.finish_s >= rec.arrival_s


@pytest.mark.parametrize("seed", SEEDS)
def test_roomy_cluster_completes_everything_under_every_router(seed):
    trace = _trace(seed)
    completed_sets = []
    for router in ROUTER_NAMES:
        result = simulate_cluster(trace, _roomy_deployments(), router=router)
        assert cluster_summary(result)["rejected"] == 0
        completed_sets.append(
            {rec.req_id for rec in result.records
             if rec.status == "completed"}
        )
    assert all(s == completed_sets[0] for s in completed_sets)


@pytest.mark.parametrize("seed", SEEDS)
def test_least_kv_no_worse_p95_ttft_on_starved_cluster(seed):
    trace = _trace(seed, requests=128, rate=16.0)
    rr = cluster_summary(
        simulate_cluster(trace, _starved_deployments(), router="round_robin")
    )
    lk = cluster_summary(
        simulate_cluster(trace, _starved_deployments(), router="least_kv")
    )
    assert lk["ttft_p95_s"] <= rr["ttft_p95_s"]


def _submission_traffic(kind, requests=400):
    """Bursty single-shot traffic, or conversations short enough for the
    per-bank working set, on a one-DPU rank that KV pressure reaches."""
    if kind == "bursty":
        return generate_trace(TraceSpec(
            num_requests=requests, seed=5, scenario="bursty",
            arrival_rate_per_s=0.01, prompt_mean=96.0, prompt_sigma=0.8,
            prompt_max=384, gen_mean=48.0, gen_max=256,
            priority_weights=(1.0, 1.0), slo_ttft_s=(5.0, 50.0),
        ))
    return generate_trace(TraceSpec(
        num_requests=requests, seed=5, scenario="conversational",
        arrival_rate_per_s=0.05, prompt_mean=48.0, prompt_max=128,
        gen_mean=24.0, gen_max=64, sessions=requests // 5, turns_mean=4.0,
        turns_max=6, system_prompt_pool=3, system_prompt_tokens=32,
        priority_weights=(0.5, 0.5),
    ))


def test_single_deployment_round_robin_matches_driver():
    # The two ways into an engine agree: the driver hands each rank its
    # shard at once, the cluster submits request by request.  One
    # deployment under the stateless router reproduces the driver's
    # rank sharding (session turns included), so every record field and
    # every rank's counters must match, under every policy.
    preemptions = 0
    for policy, kind, ranks in itertools.product(
        ("fcfs", "sjf", "priority", "chunked_prefill"),
        ("bursty", "conversational"), (1, 3),
    ):
        case = f"{policy}/{kind}/{ranks} rank(s)"
        trace = _submission_traffic(kind)
        config = ServingConfig(
            model="gpt-125m", num_ranks=ranks, dpus_per_rank=1,
            max_batch=16, policy=policy, prefill_chunk_tokens=16,
            prefix_cache=kind == "conversational",
        )
        single = simulate_trace(trace, config)
        clustered = simulate_cluster(
            trace, [Deployment(config, name="only")], router="round_robin"
        )
        records = [dataclasses.astuple(r) for r in single.records]
        assert len(records) == len(trace), case
        assert [dataclasses.astuple(r) for r in clustered.records] == \
            records, case
        stats = [dataclasses.astuple(s) for s in single.rank_stats]
        assert [dataclasses.astuple(s) for s in
                clustered.deployments[0].serving.rank_stats] == stats, case
        listed = simulate_trace(list(trace), config)
        assert [dataclasses.astuple(r) for r in listed.records] == \
            records, case
        assert [dataclasses.astuple(s) for s in listed.rank_stats] == \
            stats, case
        preemptions += single.preemptions
    assert preemptions > 0  # the priority policy preempts somewhere


def test_session_turns_stick_to_one_replica():
    # Short prompts/gens keep the deepest carried context inside the
    # per-bank working set (same caveat as the conversational CLI
    # example).
    trace = generate_trace(TraceSpec(
        num_requests=80, seed=7, scenario="conversational",
        prompt_mean=32.0, prompt_max=64, gen_mean=16.0, gen_max=32,
    ))
    result = simulate_cluster(trace, _roomy_deployments(),
                              router="round_robin")
    by_session = {}
    for rec in result.records:
        if rec.session_id >= 0:
            by_session.setdefault(rec.session_id, set()).add(rec.rank)
    assert by_session
    for ranks in by_session.values():
        assert len(ranks) == 1


def test_cluster_rejects_empty_deployment_list():
    with pytest.raises(ValueError, match="at least one deployment"):
        Cluster([])


def test_cluster_rejects_out_of_range_router_target():
    class Broken(RoutingPolicy):
        name = "broken"

        def select(self, request, targets):
            return len(targets)

    with pytest.raises(ValueError, match="invalid target"):
        simulate_cluster(_trace(1, requests=4), _roomy_deployments(),
                         router=Broken())


def test_deployment_rejects_weights_larger_than_mram():
    with pytest.raises(ValueError, match="packed weights"):
        Deployment(ServingConfig(model="gpt-6.7b", num_ranks=1,
                                 dpus_per_rank=1))


@pytest.mark.parametrize("kernel", ["lut_gemm", "software_reorder_gemm"])
def test_scheme_overflowing_wram_is_rejected_at_sizing(kernel, monkeypatch):
    import repro.serving.engine.driver as driver

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built for an unrunnable scheme")

    monkeypatch.setattr(driver, "make_engine", no_engine)
    config = ServingConfig(model="gpt-125m", scheme="W8A8", kernel=kernel)
    with pytest.raises(ValueError, match="W8A8") as info:
        simulate_trace(_trace(1, requests=4), config)
    assert kernel in str(info.value) and "WRAM" in str(info.value)
    assert isinstance(info.value.__cause__, MemoryError)
    with pytest.raises(ValueError, match="deployment 'wide': scheme W8A8"):
        Deployment(config, name="wide")


def test_mixed_policy_names_the_overflowing_scheme():
    policy = SchemePolicy("W2A2", layer_overrides={5: "W8A8"})
    with pytest.raises(ValueError, match="scheme W8A8 cannot run on kernel "
                                         "'lut_gemm'"):
        Deployment(ServingConfig(model="gpt-125m"), scheme_policy=policy)


def test_naive_kernel_still_serves_w8a8():
    config = ServingConfig(model="gpt-125m", scheme="W8A8",
                           kernel="naive_pim_gemm")
    result = simulate_trace(_trace(1, requests=4), config)
    assert len(result.records) == 4
    assert Deployment(config).kv_capacity == result.kv_capacity_bytes


# ---------------------------------------------------------------------------
# autoscaler
# ---------------------------------------------------------------------------

def _backlogged_cluster(queue=24):
    deployment = Deployment(
        ServingConfig(model="gpt-125m", num_ranks=1), name="hot"
    )
    cluster = Cluster([deployment], router="round_robin")
    for request in _trace(2, requests=queue, rate=1000.0):
        deployment.submit(request)
    return cluster, deployment


def test_scale_up_charges_weight_broadcast():
    scaler = Autoscaler(AutoscalerConfig(queue_high=2.0, interval_s=1.0))
    cluster, deployment = _backlogged_cluster()
    scaler.control(0.0, cluster)
    assert deployment.scale_ups == 1
    expected = TransferModel().broadcast_s(deployment.weight_bytes)
    assert scaler.cold_start_s == pytest.approx(expected)
    assert scaler.cold_start_bytes == deployment.weight_bytes
    event = scaler.scale_events[0]
    assert event["action"] == "scale_up"
    assert event["cold_start_s"] == pytest.approx(expected)
    assert event["weight_bytes"] == deployment.weight_bytes


def test_scale_up_replica_ready_after_cold_start():
    scaler = Autoscaler(AutoscalerConfig(queue_high=2.0, interval_s=1.0))
    cluster, deployment = _backlogged_cluster()
    scaler.control(5.0, cluster)
    new_engine = deployment.engines[-1]
    assert new_engine.clock == pytest.approx(
        5.0 + scaler.cold_start_s_for(deployment)
    )


def test_scale_up_respects_max_replicas():
    scaler = Autoscaler(AutoscalerConfig(max_replicas=2, queue_high=1.5,
                                         queue_low=0.5, interval_s=0.5))
    cluster, deployment = _backlogged_cluster()
    for step in range(6):
        scaler.control(float(step), cluster)
    assert len(deployment.active_engines()) <= 2
    assert deployment.scale_ups == 1


def test_scale_down_retires_idle_replica_only():
    scaler = Autoscaler(AutoscalerConfig(queue_high=50.0, queue_low=5.0,
                                         interval_s=1.0))
    deployment = Deployment(
        ServingConfig(model="gpt-125m", num_ranks=3), name="cold"
    )
    cluster = Cluster([deployment], router="round_robin")
    scaler.control(0.0, cluster)
    assert deployment.scale_downs == 1
    assert len(deployment.active_engines()) == 2
    retired = [e for e in deployment.engines if e.retired]
    assert len(retired) == 1 and not retired[0].has_work


def test_no_scale_down_below_min_replicas():
    scaler = Autoscaler(AutoscalerConfig(min_replicas=2, queue_high=50.0,
                                         queue_low=5.0, interval_s=1.0))
    deployment = Deployment(
        ServingConfig(model="gpt-125m", num_ranks=2), name="floor"
    )
    cluster = Cluster([deployment], router="round_robin")
    for step in range(4):
        scaler.control(float(step), cluster)
    assert len(deployment.active_engines()) == 2
    assert deployment.scale_downs == 0


def test_control_rate_limited_to_interval():
    scaler = Autoscaler(AutoscalerConfig(queue_high=2.0, interval_s=10.0))
    cluster, deployment = _backlogged_cluster()
    scaler.control(0.0, cluster)
    scaler.control(5.0, cluster)  # within the interval: no-op
    assert deployment.scale_ups == 1
    scaler.control(10.0, cluster)
    assert deployment.scale_ups == 2


def test_end_to_end_autoscaled_run_has_scale_events():
    scaler = Autoscaler(AutoscalerConfig(max_replicas=3, queue_high=2.0,
                                         interval_s=1.0))
    trace = _trace(9, requests=96, rate=30.0)
    result = simulate_cluster(trace, _starved_deployments(),
                              router="round_robin", autoscaler=scaler)
    assert result.requests == len(trace)
    assert result.scale_events
    assert result.cold_start_s > 0
    # Warm re-activations log as "scale_up_warm" (zero cold-start cost)
    # but count toward the deployment's scale_ups alongside cold ones.
    ups = sum(1 for e in result.scale_events
              if e["action"] in ("scale_up", "scale_up_warm"))
    assert result.cold_start_bytes == sum(
        e["weight_bytes"] for e in result.scale_events
        if e["action"] == "scale_up"
    )
    assert ups == sum(d.scale_ups for d in result.deployments)


@pytest.mark.parametrize("kwargs", [
    {"min_replicas": 0},
    {"max_replicas": 1, "min_replicas": 2},
    {"queue_low": -1.0},
    {"queue_high": 1.0, "queue_low": 1.0},
    {"interval_s": 0.0},
    {"interval_s": math.nan},
    {"interval_s": math.inf},
    {"queue_low": math.nan},
    {"queue_high": math.nan},
    {"queue_high": math.inf},
])
def test_autoscaler_config_validation(kwargs):
    with pytest.raises(ValueError):
        AutoscalerConfig(**kwargs)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def test_cluster_kinds_registered_but_not_lifecycle():
    for kind in CLUSTER_KINDS:
        assert kind in EVENT_KINDS
        assert kind not in LIFECYCLE_KINDS


def test_tracer_records_route_and_scale_events():
    tracer = RecordingTracer()
    scaler = Autoscaler(AutoscalerConfig(max_replicas=3, queue_high=2.0,
                                         interval_s=1.0))
    trace = _trace(4, requests=48, rate=30.0)
    simulate_cluster(trace, _starved_deployments(), router="least_kv",
                     autoscaler=scaler, tracer=tracer)
    routes = [e for e in tracer.events if e.kind == "route"]
    assert len(routes) == len(trace)
    assert tracer.registry.counter("routes").value == len(trace)
    assert {e.req_id for e in routes} == {r.req_id for r in trace}
    for event in routes:
        assert event.rank == -1
        assert event.data["router"] == "least_kv"
    # Warm re-activations trace as their own "scale_up_warm" kind but
    # share the scale_ups counter with cold starts.
    ups = [e for e in tracer.events
           if e.kind in ("scale_up", "scale_up_warm")]
    assert len(ups) == len(scaler.scale_events) - sum(
        1 for e in scaler.scale_events if e["action"] == "scale_down"
    )
    assert tracer.registry.counter("scale_ups").value == len(ups)


def test_chrome_trace_with_cluster_events_validates():
    tracer = RecordingTracer()
    scaler = Autoscaler(AutoscalerConfig(max_replicas=2, queue_high=2.0,
                                         interval_s=1.0))
    trace = _trace(6, requests=32, rate=30.0)
    simulate_cluster(trace, _starved_deployments(), router="round_robin",
                     autoscaler=scaler, tracer=tracer)
    payload = chrome_trace(tracer.events, tracer.registry)
    validate_chrome_trace(payload)
    instants = {e["name"] for e in payload["traceEvents"]
                if e["ph"] == "i" and e["pid"] == -1}
    assert "route" in instants
    cluster_lane = [e for e in payload["traceEvents"]
                    if e.get("pid") == -1 and e["ph"] == "M"]
    labels = {e["args"]["name"] for e in cluster_lane}
    assert labels == {"cluster", "router"}


# ---------------------------------------------------------------------------
# metrics + tables
# ---------------------------------------------------------------------------

def test_cluster_rows_and_table_shape():
    trace = _trace(8, requests=64)
    result = simulate_cluster(trace, _roomy_deployments(), router="p2c")
    rows = cluster_rows(result)
    assert [row["deployment"] for row in rows] == ["a", "b", "c"]
    for row in rows:
        for key in ("tier", "routed", "replicas", "replicas_peak",
                    "scale_ups", "scale_downs", "requests", "completed"):
            assert key in row
    table = cluster_table(rows)
    assert table[0]["deployment"] == "cluster"
    assert table[0]["routed"] == len(trace)
    assert table[0]["requests"] == sum(row["requests"] for row in rows)
    assert table[0]["routed_share"] == 1.0
    shares = [row["routed_share"] for row in table[1:]]
    assert sum(shares) == pytest.approx(1.0)


def test_cluster_summary_totals():
    trace = _trace(8, requests=64)
    result = simulate_cluster(trace, _roomy_deployments(),
                              router="round_robin")
    flat = cluster_summary(result)
    assert flat["requests"] == len(trace)
    assert flat["completed"] + flat["rejected"] == len(trace)
    assert flat["deployments"] == 3
    assert flat["replicas"] == 5
    assert flat["router"] == "round_robin"
    assert flat["output_tokens"] == result.output_tokens
    assert flat["makespan_s"] == pytest.approx(result.makespan_s)
    assert flat["scale_events"] == 0


# ---------------------------------------------------------------------------
# accounting edge cases
# ---------------------------------------------------------------------------

def test_fully_retired_deployment_never_wins_least_kv():
    """A deployment whose every replica is retired reports infinite KV
    occupancy, so ``least_kv`` must prefer *any* healthy deployment —
    even a badly backlogged one whose occupancy exceeds 1.0."""
    from repro.serving.routing import get_router

    dead = Deployment(ServingConfig(model="gpt-125m", num_ranks=2),
                      name="dead")
    busy = Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                    dpus_per_rank=8), name="busy")
    Cluster([dead, busy], router="round_robin")
    for engine in dead.engines:
        dead.retire(engine)
    # Backlog the healthy deployment far past capacity.
    for request in _trace(5, requests=160, rate=1000.0):
        busy.submit(request)
    assert dead.kv_occupancy(0.0) == float("inf")
    assert busy.kv_occupancy(0.0) > 1.0  # genuinely overcommitted
    router = get_router("least_kv")
    targets = [dead, busy]
    for i in range(8):
        assert targets[router.select(_trace(6, requests=8)[i], targets)] is busy


def test_control_round_is_cluster_wide_per_interval():
    """``_last_control`` is shared: one control round covers every
    deployment, and a second call inside the interval is a no-op for
    all of them — not just the first one touched."""
    scaler = Autoscaler(AutoscalerConfig(queue_high=2.0, interval_s=10.0))
    dep_a = Deployment(ServingConfig(model="gpt-125m", num_ranks=1), name="a")
    dep_b = Deployment(ServingConfig(model="gpt-125m", num_ranks=1), name="b")
    cluster = Cluster([dep_a, dep_b], router="round_robin")
    for request in _trace(2, requests=24, rate=1000.0):
        dep_a.submit(request)
    for request in _trace(3, requests=24, rate=1000.0):
        dep_b.submit(request)
    scaler.control(0.0, cluster)
    # Both deployments acted on in the same round.
    assert dep_a.scale_ups == 1 and dep_b.scale_ups == 1
    scaler.control(9.0, cluster)  # inside the interval: no-op for both
    assert dep_a.scale_ups == 1 and dep_b.scale_ups == 1
    scaler.control(10.0, cluster)
    assert dep_a.scale_ups == 2 and dep_b.scale_ups == 2


def test_cold_replica_collects_no_work_before_ready():
    """A cold-started replica (``ready_s`` in the future) must not admit
    anything before its weights have arrived: its clock starts at
    ``ready_s``, so earlier arrivals wait in its pending queue."""
    deployment = Deployment(
        ServingConfig(model="gpt-125m", num_ranks=1), name="cold",
    )
    Cluster([deployment], router="round_robin")
    cold = deployment.add_replica(99, ready_s=100.0)
    assert cold.clock == pytest.approx(100.0)
    for request in _trace(4, requests=4, rate=1000.0):  # arrivals near t=0
        cold.submit(request)
    cold.advance(50.0)  # before the weights arrive: nothing may happen
    assert cold.queue_depth() == 4
    assert not cold.records
    cold.advance(float("inf"))
    cold.finalize()
    assert len(cold.records) == 4
    for record in cold.records:
        assert record.admit_s >= 100.0


@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_cluster_bulk_paths_match_per_request(router, monkeypatch):
    """Cluster runs whose replicas batch wide take the event engine's
    bulk paths (window admission, the packed running set) under every
    router — including the lazy mid-trace
    advance() calls the state-aware routers trigger — and must
    reproduce the per-request paths bit for bit."""
    from repro.serving.engine import rank_engine

    trace = _trace(7, requests=600, rate=400.0)
    bulk = []
    retire = rank_engine._RankEngine._retire_packed

    def spy(engine, firsts):
        bulk.append(len(engine.running))
        retire(engine, firsts)

    def run(threshold):
        monkeypatch.setattr(rank_engine, "PACKED_MIN_BATCH", threshold)
        monkeypatch.setattr(rank_engine._RankEngine, "_retire_packed", spy)
        deployments = [
            Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                     dpus_per_rank=8, max_batch=4),
                       name="tight", tier=0),
            Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                     dpus_per_rank=64, max_batch=256),
                       name="wide", tier=1),
        ]
        result = simulate_cluster(trace, deployments, router=router)
        monkeypatch.undo()
        return ([dataclasses.astuple(r) for r in result.records],
                [dataclasses.astuple(s) for dep in result.deployments
                 for s in dep.serving.rank_stats])

    per_request = run(10**9)
    assert not bulk
    assert run(rank_engine.PACKED_MIN_BATCH) == per_request
    assert bulk, "no running batch was wide enough to pack"