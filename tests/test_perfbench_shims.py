"""perfbench's span shims still land on the serving stack.

``perfbench/spans.py`` attributes host wall by swapping shims onto the
entry points its ``SHIMS`` table names.  A refactor that renames one of
them, or moves the cost fills out from under
``repro.serving.engine.costs``, would silently drop a layer from the
benchmark's per-layer metrics.  This loads the module by path, as
``tools/bench.py`` does (it is not a package), and checks every target
and the ``cost.fill`` layer on a small cluster run.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.serving import ServingConfig, TraceSpec, generate_trace
from repro.serving.cluster import Deployment, simulate_cluster

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_target_resolves(spans):
    for target, attr, layer in spans.SHIMS:
        owner = spans._resolve(target)
        assert callable(vars(owner)[attr]), (target, attr, layer)


def _small_cluster_run():
    trace = generate_trace(TraceSpec(
        num_requests=60, seed=3, scenario="conversational",
        arrival_rate_per_s=0.05, prompt_mean=48.0, prompt_max=96,
        gen_mean=16.0, gen_max=32, sessions=10, turns_mean=4.0,
    ))
    deployments = [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=2,
                                 policy="chunked_prefill", prefix_cache=True),
                   name="small"),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=128),
                   name="wide"),
    ]
    return simulate_cluster(trace, deployments, router="least_kv")


def test_cost_fills_record_under_each_cost_shim(spans, monkeypatch):
    fills = [entry for entry in spans.SHIMS if entry[2] == "cost.fill"]
    assert {attr for _, attr, _ in fills} >= {
        "prefill_chunk_stats", "decode_step_weight_stats"
    }
    recorder = spans.SpanRecorder()
    with spans.recording(recorder):
        _small_cluster_run()
    calls, _ = recorder.layer_totals()["cost.fill"]
    assert calls > 0
    # Each cost-fill entry point on its own still sees calls.
    for entry in fills:
        monkeypatch.setattr(spans, "SHIMS", (entry,))
        recorder = spans.SpanRecorder()
        with spans.recording(recorder):
            _small_cluster_run()
        assert recorder.layer_totals().get("cost.fill", (0, 0.0))[0] > 0, entry
