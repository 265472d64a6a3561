"""Cost-spine contracts: one ``_CostCache`` per cost identity per run.

A cluster hands every deployment with the same cost identity one shared
cache.  That is only safe because each memoised value is a pure function
of its key, so this suite pins both halves:

- a shared-spine cluster is bit-identical to the same cluster with a
  private cache per deployment (fault-free and under a chaos plan);
- deployments that differ in anything that changes a cost get distinct
  caches;
- ``attn_cum`` does not depend on the order depths are filled in, and
  the dense :class:`SegmentCostTable` agrees with it and with
  ``attn_step`` exactly.

It also pins fault-window replay parity: every scheduled stall and
degrade window is traced once, so the replayed tallies equal
``cluster_summary`` even for windows on idle or dead replicas.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.model.policy import SchemePolicy
from repro.obs import RecordingTracer
from repro.obs.replay import replay_fault_counters
from repro.pim.energy import EnergyModel
from repro.serving import (
    Autoscaler,
    AutoscalerConfig,
    Cluster,
    Deployment,
    ServingConfig,
    TraceSpec,
    cluster_summary,
    generate_trace,
    simulate_trace,
)
from repro.serving.engine.costs import ATTN_CHECKPOINT, _CostCache
from repro.serving.faults import FaultPlan, FaultSpec, RetryPolicy


def _mix(engine="event"):
    """Three identical gpt-125m deployments plus two identical gpt-350m
    ones: two cost identities for five deployments."""
    options = dict(engine=engine, policy="priority", max_batch=16)
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                 dpus_per_rank=4, **options),
                   name=f"small-{i}", tier=0)
        for i in range(3)
    ] + [
        Deployment(ServingConfig(model="gpt-350m", num_ranks=1,
                                 dpus_per_rank=8, **options),
                   name=f"mid-{i}", tier=1)
        for i in range(2)
    ]


def _trace(seed, requests=240):
    return generate_trace(TraceSpec(
        num_requests=requests, seed=seed, scenario="bursty",
        arrival_rate_per_s=4.0, burst_rate_multiplier=8.0,
        priority_weights=(0.5, 0.5), gen_mean=48.0,
    ))


def _chaos_plan():
    return FaultPlan((
        FaultSpec("crash", 1, 4.0),
        FaultSpec("stall", 3, 2.0, duration_s=3.0),
        FaultSpec("degrade", 0, 1.0, duration_s=20.0, factor=2.0),
    ))


def _run(deployments, trace, private, faults=None):
    if private:
        for deployment in deployments:
            deployment.cost_cache = _CostCache(*deployment._cost_args)
    cluster = Cluster(
        deployments, router="least_kv",
        autoscaler=Autoscaler(AutoscalerConfig(
            max_replicas=2, queue_high=4.0, queue_low=1.0, interval_s=5.0,
        )),
        faults=faults,
        retry_policy=RetryPolicy(max_retries=3, seed=1) if faults else None,
    )
    return cluster, cluster.run(trace)


def _fingerprint(result):
    records = [dataclasses.astuple(rec) for rec in result.records]
    return repr(records), repr(sorted(cluster_summary(result).items()))


# ---------------------------------------------------------------------------
# sharing is value-transparent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine,faults", [
    ("event", None),
    ("event", _chaos_plan()),
])
@pytest.mark.parametrize("seed", [2, 13])
def test_shared_spine_is_bit_identical_to_private_caches(engine, faults, seed):
    trace = _trace(seed)
    shared_cluster, shared = _run(_mix(engine), trace, private=False,
                                  faults=faults)
    private_cluster, private = _run(_mix(engine), trace, private=True,
                                    faults=faults)
    spines = {id(d.cost_cache) for d in shared_cluster.deployments}
    assert len(spines) == 2
    assert len({id(d.cost_cache) for d in private_cluster.deployments}) == 5
    assert cluster_summary(shared)["completed"] > 0
    assert shared.output_tokens > 0
    assert _fingerprint(shared) == _fingerprint(private)


def test_engines_of_every_replica_use_the_shared_cache():
    deployments = _mix()
    cluster, _ = _run(deployments, _trace(5, requests=120), private=False)
    small = deployments[0].cost_cache
    for deployment in deployments[:3]:
        assert deployment.cost_cache is small
        assert all(engine.cache is small for engine in deployment.engines)
    assert deployments[3].cost_cache is deployments[4].cost_cache
    assert deployments[3].cost_cache is not small


def test_deployment_outside_a_cluster_builds_its_own_cache():
    deployment = _mix()[0]
    assert deployment.cost_cache is None
    engine = deployment.add_replica(0)
    assert deployment.cost_cache is not None
    assert engine.cache is deployment.cost_cache


# ---------------------------------------------------------------------------
# the identity key
# ---------------------------------------------------------------------------

def _base(**config):
    options = dict(model="gpt-125m", num_ranks=1, dpus_per_rank=8)
    options.update(config)
    return ServingConfig(**options)


def test_distinct_cost_identities_get_distinct_caches():
    deployments = [
        Deployment(_base(), name="base"),
        Deployment(_base(), name="twin",
                   scheme_policy=SchemePolicy("W1A3")),
        Deployment(_base(dpus_per_rank=16), name="dpus"),
        Deployment(_base(), name="override",
                   scheme_policy=SchemePolicy(
                       "W1A3", layer_overrides={0: "W4A4"})),
        Deployment(_base(), name="projection",
                   scheme_policy=SchemePolicy(
                       "W1A3", projection_overrides={"ffn_down": "W2A2"})),
        Deployment(_base(kernel="software_reorder_gemm"), name="kernel"),
        Deployment(_base(), name="energy",
                   energy_model=EnergyModel(dram_pj_per_byte=30.0)),
    ]
    Cluster(deployments)
    caches = {d.name: d.cost_cache for d in deployments}
    # A separately built but equal scheme policy shares: identity is by
    # value, not by object.
    assert caches["twin"] is caches["base"]
    others = [caches[name] for name in
              ("base", "dpus", "override", "projection", "kernel", "energy")]
    assert len({id(cache) for cache in others}) == len(others)


def test_scheduling_options_do_not_split_the_spine():
    # The scheduling policy, batch cap and prefix cache change how a
    # replica schedules, not what a step costs.
    deployments = [
        Deployment(_base(), name="fcfs"),
        Deployment(_base(policy="priority", max_batch=8,
                         prefix_cache=True), name="priority"),
    ]
    Cluster(deployments)
    assert deployments[0].cost_cache is deployments[1].cost_cache


def test_each_cluster_run_builds_its_own_spines():
    first, second = _mix(), _mix()
    Cluster(first)
    Cluster(second)
    assert first[0].cost_cache is not second[0].cost_cache


# ---------------------------------------------------------------------------
# attn_cum is a pure function of depth
# ---------------------------------------------------------------------------

def _cache(dpus):
    return Deployment(_base(dpus_per_rank=dpus)).add_replica(0).cache


@pytest.mark.parametrize("dpus", [2, 64, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attn_cum_is_independent_of_fill_order(dpus, seed):
    rng = random.Random(seed)
    floor = _cache(dpus)._attn_cum_floor
    top = floor + 12 * ATTN_CHECKPOINT
    depths = sorted(set(rng.sample(range(1, top + 1), 200))
                    | {floor, floor + 1, floor + ATTN_CHECKPOINT,
                       floor + ATTN_CHECKPOINT + 1, top})
    depths = [d for d in depths if d >= 1]
    ascending, shuffled = _cache(dpus), _cache(dpus)
    order = list(depths)
    rng.shuffle(order)
    for depth in order:
        shuffled.attn_cum(depth)
    for depth in depths:
        assert shuffled.attn_cum(depth) == ascending.attn_cum(depth)
    lo, hi = depths[len(depths) // 3], depths[-1]
    assert shuffled.attn_segment(lo, hi) == ascending.attn_segment(lo, hi)


def test_deep_attn_cum_fills_iteratively_in_any_order():
    # 200k depths past a floor of 0 are ~3100 checkpoints: a recursive
    # chain would overflow the interpreter stack.
    deep = 200_000
    direct, stepped = _cache(2), _cache(2)
    assert direct._attn_cum_floor == 0
    value = direct.attn_cum(deep)
    for depth in (deep // 2 + 7, 5, deep - 1, 130):
        stepped.attn_cum(depth)
    assert stepped.attn_cum(deep) == value
    assert value[0] > 0 and value[1] > 0


def test_segment_table_matches_attn_cum_exactly():
    rng = random.Random(4)
    for dpus in (2, 256):
        cache = _cache(dpus)
        top = cache._attn_cum_floor + 5 * ATTN_CHECKPOINT + 17
        for depth in rng.sample(range(1, top + 1), 40):
            cache.attn_cum(depth)  # pre-fill out of order
        table = cache.segment_table()
        table.ensure(top)
        want = np.array([cache.attn_cum(k) for k in range(top + 1)])
        assert np.array_equal(table.cum_lat[: top + 1], want[:, 0])
        assert np.array_equal(table.cum_energy[: top + 1], want[:, 1])


@pytest.mark.parametrize("dpus", [2, 256])
def test_segment_table_steps_match_attn_step_exactly(dpus):
    # Differencing the cumulative table disagrees with attn_step in the
    # last bits at most depths, on both sides of the DPU-count floor.
    cache = _cache(dpus)
    top = cache._attn_cum_floor + 5 * ATTN_CHECKPOINT + 17
    table = cache.segment_table()
    table.ensure(top // 2)
    table.ensure(top)  # grown in two blocks
    want = np.array([(0.0, 0.0)] + [cache.attn_step(k)
                                    for k in range(1, top + 1)])
    assert np.array_equal(table.step_lat[: top + 1], want[:, 0])
    assert np.array_equal(table.step_energy[: top + 1], want[:, 1])


# ---------------------------------------------------------------------------
# fault-window replay parity
# ---------------------------------------------------------------------------

def _window_fixture():
    """One busy, one idle and one dead replica window, plus a window on
    a rank no replica ever takes."""
    trace = generate_trace(TraceSpec(
        num_requests=60, seed=8, scenario="bursty", arrival_rate_per_s=20.0,
    ))
    last = max(r.arrival_s for r in trace)
    plan = FaultPlan((
        FaultSpec("crash", 0, 0.5),
        # rank 0 is dead long before this window opens
        FaultSpec("stall", 0, last + 100.0, duration_s=5.0),
        FaultSpec("degrade", 0, last + 100.0, duration_s=5.0, factor=2.0),
        # rank 1 is busy when this window opens
        FaultSpec("stall", 1, 0.2, duration_s=0.5),
        # rank 2 has drained long before these windows
        FaultSpec("stall", 2, 1e6, duration_s=5.0),
        FaultSpec("degrade", 2, 1e6, duration_s=5.0, factor=3.0),
        # no replica ever gets rank 9
        FaultSpec("stall", 9, 1.0, duration_s=1.0),
    ))
    deployments = [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=3), name="d"),
    ]
    tracer = RecordingTracer(level="full")
    cluster = Cluster(deployments, tracer=tracer, faults=plan,
                      retry_policy=RetryPolicy(max_retries=3))
    result = cluster.run(trace)
    return cluster, tracer, result


def test_replayed_fault_windows_equal_cluster_summary():
    cluster, tracer, result = _window_fixture()
    engines = {e.rank: e for e in cluster.deployments[0].engines}
    assert engines[0].dead
    assert engines[2].stats.finish_s < 1e6  # idle when its windows open
    flat = cluster_summary(result)
    counters = replay_fault_counters(tracer.events)
    assert (flat["stalls"], flat["degrades"]) == (4, 2)
    for key in ("crashes", "stalls", "degrades"):
        assert counters[key] == flat[key], key


def test_fault_windows_are_traced_as_scheduled():
    _, tracer, result = _window_fixture()
    traced = sorted(
        (e.t_s, e.rank, e.kind[len("fault_"):], e.data["duration_s"])
        for e in tracer.events if e.kind in ("fault_stall", "fault_degrade")
    )
    scheduled = sorted(
        (e["t_s"], e["rank"], e["kind"], e["duration_s"])
        for e in result.fault_events if e["kind"] != "crash"
    )
    assert traced == scheduled


def test_standalone_run_traces_its_fault_windows():
    trace = _trace(3, requests=40)
    tracer = RecordingTracer(level="full")
    plan = FaultPlan((FaultSpec("stall", 1, 1e6, duration_s=2.0),))
    simulate_trace(trace, ServingConfig(model="gpt-125m", num_ranks=2),
                   tracer=tracer, faults=plan)
    assert replay_fault_counters(tracer.events)["stalls"] == 1
