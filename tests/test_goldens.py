"""Golden regression fixtures: cost-model drift is caught at review time.

Small JSON goldens are checked in under ``tests/goldens/``:

* ``sweep_latency_table.json`` — the latency table of a tiny two-scheme
  sweep,
* ``serving_<policy>.json`` — the flat serving summary of one fixed-seed
  bursty trace per scheduling policy (the KV-starved deployment, so the
  ``priority`` golden pins preemption counters too), and
* ``serving_conversational_<policy>.json`` — the summary of a fixed-seed
  conversational session trace with the KV prefix cache enabled, so the
  hit-rate, dedup and eviction counters are pinned per policy, and
* ``cluster_<run>.json`` — three fault-free two-deployment cluster runs
  (``round_robin`` on sticky conversational sessions, ``least_kv`` with
  the autoscaler, ``p2c``): the flat ``cluster_summary`` plus a digest
  of every record's ``(req_id, rank, status, first_token_s,
  finish_s)``, so routing and placement are pinned request by request,
  and
* ``cluster_chaos.json`` — a faulted cluster run (seeded crashes, stalls
  and degradations, retries, failovers, an autoscaler replacement and
  tier shedding under ``p2c``) pinned the same way, so the recovery loop
  and the replica roster are held to one fixed outcome.

Any change to kernel costs, the energy model, trace generation or
scheduler behavior shifts these numbers; the diff shows up in the PR
instead of silently changing figures.  After an *intentional* change,
regenerate with::

    PYTHONPATH=src python tests/test_goldens.py --update

Floats are rounded to 10 significant digits before comparison, so the
goldens are stable against float-summation noise while still pinning
real cost changes.

The serving goldens are built with the default event-driven engine and
must *also* match under ``engine="loop"`` — the engines' metric
identity is part of what the fixtures pin.  Regeneration history: the
goldens were regenerated when trace generation was vectorised (the
bursty/diurnal RNG draw *order* changed — block draws instead of one
scalar draw per arrival — so fixed-seed arrival values shifted; the
process law is unchanged) and when the cost spine started scaling
layer-identical blocks instead of re-summing per layer (float-rounding
level shifts).
"""

import hashlib
import json
import os
import sys
from dataclasses import replace as dc_replace

import pytest

from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments.tables import latency_table
from repro.serving import (
    POLICIES,
    Autoscaler,
    AutoscalerConfig,
    Deployment,
    FaultPlan,
    RetryPolicy,
    ServingConfig,
    TraceSpec,
    cluster_summary,
    generate_trace,
    simulate_cluster,
    simulate_trace,
    summary,
)
from repro.serving.engine import rank_engine

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
ALL_POLICIES = sorted(POLICIES)

SWEEP_SPEC = SweepSpec(
    models=("gpt-125m",), schemes=("W1A3", "W4A4"), prefill_lens=(32,),
    decode_tokens=8,
)

# Seed chosen (after the vectorised trace generator landed) so the
# KV-starved golden deployment still separates all four policies and
# fires priority preemption.
TRACE_SPEC = TraceSpec(
    num_requests=12, seed=4, scenario="bursty", arrival_rate_per_s=0.003,
    prompt_mean=96.0, prompt_sigma=0.8, prompt_max=512,
    gen_mean=64.0, gen_max=512,
    priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
)


def _serving_config(policy: str, engine: str = "event") -> ServingConfig:
    return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                         max_batch=16, policy=policy, prefill_chunk_tokens=16,
                         engine=engine)


# A conversational session trace with shared system prompts; lengths
# and turns are capped so the deepest carried context stays inside the
# cost model's per-bank working set.
CONV_TRACE_SPEC = TraceSpec(
    num_requests=24, seed=7, scenario="conversational",
    arrival_rate_per_s=0.02,
    prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
    gen_mean=24.0, gen_max=64,
    priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
    sessions=8, turns_mean=3.0, turns_max=4, think_time_mean_s=5.0,
    system_prompt_pool=2, system_prompt_tokens=48,
)


def _conv_config(policy: str, engine: str = "event") -> ServingConfig:
    """KV-starved single rank with the prefix cache on: the goldens pin
    cache hits, LRU evictions and (for ``priority``) preemption."""
    return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                         max_batch=8, policy=policy, prefill_chunk_tokens=16,
                         engine=engine, prefix_cache=True)


CLUSTER_CONV_TRACE_SPEC = TraceSpec(
    num_requests=40, seed=7, scenario="conversational",
    arrival_rate_per_s=0.5,
    prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
    gen_mean=24.0, gen_max=64,
    priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
    sessions=10, turns_mean=3.0, turns_max=4, think_time_mean_s=5.0,
    system_prompt_pool=2, system_prompt_tokens=48,
)

CLUSTER_BURSTY_TRACE_SPEC = TraceSpec(
    num_requests=60, seed=5, scenario="bursty", arrival_rate_per_s=2.0,
    prompt_mean=96.0, prompt_sigma=0.8, prompt_max=512,
    gen_mean=64.0, gen_max=256,
    priority_weights=(0.5, 0.5), slo_ttft_s=(50.0, 500.0),
)

#: Golden cluster runs: name -> (trace spec, router, autoscaled,
#: prefix cache).
CLUSTER_RUNS = {
    "round_robin_sessions": (CLUSTER_CONV_TRACE_SPEC, "round_robin", False,
                             True),
    "least_kv_autoscaled": (CLUSTER_BURSTY_TRACE_SPEC, "least_kv", True,
                            False),
    "p2c": (CLUSTER_BURSTY_TRACE_SPEC, "p2c", False, False),
}


# A conversational trace dense enough that crash losses, retries and
# session failovers overlap the stall and degrade windows.
CLUSTER_CHAOS_TRACE_SPEC = dc_replace(
    CLUSTER_CONV_TRACE_SPEC, num_requests=300, arrival_rate_per_s=4.0,
    sessions=100,
)


def _cluster_deployments(prefix_cache: bool):
    """Two uneven gpt-125m deployments; ``b`` runs the priority policy."""
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2,
                                 dpus_per_rank=8, max_batch=8,
                                 prefix_cache=prefix_cache),
                   name="a", tier=0),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1,
                                 dpus_per_rank=16, max_batch=8,
                                 prefix_cache=prefix_cache,
                                 policy="priority"),
                   name="b", tier=1),
    ]


def _rounded(value, digits: int = 10):
    """Round every float in a nested JSON-ish structure to ``digits``
    significant digits (ints and other scalars pass through)."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _rounded(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v, digits) for v in value]
    return value


def _build_sweep_golden():
    return _rounded(latency_table(run_sweep(SWEEP_SPEC)))


def _build_serving_golden(policy: str, engine: str = "event"):
    trace = generate_trace(TRACE_SPEC)
    config = _serving_config(policy, engine)
    return _rounded(summary(simulate_trace(trace, config)))


def _build_conversational_golden(policy: str, engine: str = "event"):
    trace = generate_trace(CONV_TRACE_SPEC)
    config = _conv_config(policy, engine)
    return _rounded(summary(simulate_trace(trace, config)))


def _records_digest(records) -> str:
    """SHA-256 over every record's ``(req_id, rank, status,
    first_token_s, finish_s)``, timestamps rounded like the goldens."""
    digest = hashlib.sha256()
    for rec in records:
        row = (rec.req_id, rec.rank, rec.status,
               _rounded(rec.first_token_s), _rounded(rec.finish_s))
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _build_cluster_golden(run: str):
    spec, router, autoscaled, prefix_cache = CLUSTER_RUNS[run]
    scaler = Autoscaler(AutoscalerConfig(
        min_replicas=1, max_replicas=3, queue_high=2.0, queue_low=0.5,
        interval_s=5.0,
    )) if autoscaled else None
    result = simulate_cluster(
        generate_trace(spec), _cluster_deployments(prefix_cache),
        router=router, autoscaler=scaler,
    )
    golden = _rounded(cluster_summary(result))
    golden["records_sha256"] = _records_digest(result.records)
    return golden


def _build_cluster_chaos_golden():
    """The faulted run: a seeded plan over the three initial replicas
    and the first replacement rank, windows sized off the trace horizon,
    the autoscaler on and tier-1 arrivals sheddable."""
    trace = generate_trace(CLUSTER_CHAOS_TRACE_SPEC)
    horizon = max(r.arrival_s for r in trace)
    plan = FaultPlan.sample(
        seed=1, ranks=range(4), horizon_s=horizon, crash_rate=0.5,
        stall_s=horizon / 20, degrade_rate=0.3, degrade_s=horizon / 20,
    )
    scaler = Autoscaler(AutoscalerConfig(
        min_replicas=1, max_replicas=3, queue_high=2.0, queue_low=0.5,
        interval_s=horizon / 40,
    ))
    result = simulate_cluster(
        trace, _cluster_deployments(prefix_cache=True), router="p2c",
        autoscaler=scaler, faults=plan,
        retry_policy=RetryPolicy(max_retries=2), shed_tier=1,
    )
    golden = _rounded(cluster_summary(result))
    golden["records_sha256"] = _records_digest(result.records)
    return golden


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def _load(name: str):
    path = _golden_path(name)
    if not os.path.exists(path):
        pytest.fail(
            f"golden {name} is missing; regenerate with "
            f"`PYTHONPATH=src python tests/test_goldens.py --update`"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_sweep_latency_table_matches_golden():
    assert _build_sweep_golden() == _load("sweep_latency_table.json")


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_serving_summary_matches_golden(policy):
    assert _build_serving_golden(policy) == _load(f"serving_{policy}.json")


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_loop_engine_reproduces_event_golden(policy):
    """The per-token loop engine must hit the same (event-engine-built)
    golden after 10-significant-digit rounding — the engines are
    metric-identical up to float-summation noise, and the ``engine``
    config key is the only allowed difference."""
    golden = dict(_load(f"serving_{policy}.json"))
    loop = dict(_build_serving_golden(policy, engine="loop"))
    assert loop.pop("engine") == "loop"
    assert golden.pop("engine") == "event"
    assert loop == golden


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_bulk_paths_reproduce_event_golden(policy, monkeypatch):
    """With ``PACKED_MIN_BATCH`` forced to 1, every batch of the golden
    trace is wide enough for the event engine's packed decode; the plain
    and conversational goldens must not move."""
    monkeypatch.setattr(rank_engine, "PACKED_MIN_BATCH", 1)
    assert _build_serving_golden(policy) == _load(f"serving_{policy}.json")
    assert _build_conversational_golden(policy) == _load(
        f"serving_conversational_{policy}.json"
    )


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_conversational_summary_matches_golden(policy):
    assert _build_conversational_golden(policy) == _load(
        f"serving_conversational_{policy}.json"
    )


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_loop_engine_reproduces_conversational_golden(policy):
    golden = dict(_load(f"serving_conversational_{policy}.json"))
    loop = dict(_build_conversational_golden(policy, engine="loop"))
    assert loop.pop("engine") == "loop"
    assert golden.pop("engine") == "event"
    assert loop == golden


@pytest.mark.parametrize("run", sorted(CLUSTER_RUNS))
def test_cluster_summary_matches_golden(run):
    assert _build_cluster_golden(run) == _load(f"cluster_{run}.json")


def test_cluster_goldens_pin_routing_and_scaling():
    """The fixtures exercise what they are named for: every request
    completes, and the autoscaled run actually scaled."""
    goldens = {run: _load(f"cluster_{run}.json") for run in CLUSTER_RUNS}
    for run, flat in goldens.items():
        assert flat["completed"] == flat["requests"], run
    assert goldens["least_kv_autoscaled"]["scale_events"] > 0


def test_cluster_chaos_matches_golden():
    assert _build_cluster_chaos_golden() == _load("cluster_chaos.json")


def test_cluster_chaos_golden_pins_recovery():
    """The faulted fixture fires every recovery path it is meant to pin."""
    flat = _load("cluster_chaos.json")
    for key in ("crashes", "stalls", "degrades", "retries", "failovers",
                "replacements", "shed"):
        assert flat[key] > 0, key
    assert flat["completed"] + flat["rejected"] + flat["failed"] == \
        flat["requests"]


def test_conversational_goldens_pin_cache_behavior():
    """The checked-in fixtures themselves prove the cache works: hits
    dominate, dedup saves real bytes, and eviction actually fired."""
    summaries = {
        p: _load(f"serving_conversational_{p}.json") for p in ALL_POLICIES
    }
    for policy, flat in summaries.items():
        assert flat["prefix_cache"] is True, policy
        assert flat["cache_hit_rate"] > 0.5, policy
        assert flat["kv_dedup_factor"] > 1.0, policy
        assert flat["cache_evictions"] > 0, policy


def test_goldens_pin_distinct_policies():
    """The checked-in fixtures themselves prove the policies diverge."""
    summaries = {p: _load(f"serving_{p}.json") for p in ALL_POLICIES}
    assert len({s["ttft_p95_s"] for s in summaries.values()}) >= 3
    assert summaries["priority"]["preemptions"] > 0


def _update() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    goldens = {"sweep_latency_table.json": _build_sweep_golden()}
    for policy in ALL_POLICIES:
        goldens[f"serving_{policy}.json"] = _build_serving_golden(policy)
        goldens[f"serving_conversational_{policy}.json"] = (
            _build_conversational_golden(policy)
        )
    for run in CLUSTER_RUNS:
        goldens[f"cluster_{run}.json"] = _build_cluster_golden(run)
    goldens["cluster_chaos.json"] = _build_cluster_chaos_golden()
    for name, payload in goldens.items():
        with open(_golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {_golden_path(name)}")


if __name__ == "__main__":
    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
        sys.exit(1)
