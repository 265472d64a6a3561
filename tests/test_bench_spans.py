"""The span breakdown behind ``tools/bench.py``'s ``observability.spans``.

:func:`engine_spans` wraps perfbench's span shims plus the object
engine's phase methods around a run.  Who observes the simulation must
not change it: the wrapped run's records and ``RankStats`` are compared
bit for bit with an unwrapped one, and every patched method must be the
original again afterwards.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.serving import ServingConfig, TraceSpec, generate_trace
from repro.serving.engine import driver
from repro.serving.engine.rank_engine import _RankEngine

_BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _observed(result):
    return (
        [dataclasses.astuple(r) for r in result.records],
        [dataclasses.astuple(s) for s in result.rank_stats],
    )


def test_engine_spans_attribute_phases_without_changing_the_run(bench):
    trace = generate_trace(TraceSpec(num_requests=16, seed=0))
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    engine_attrs = dict(vars(_RankEngine))
    simulate = driver.simulate_trace
    plain = driver.simulate_trace(trace, config)

    with bench.engine_spans() as recorder:
        for method, _ in bench.ENGINE_PHASES:
            assert vars(_RankEngine)[method] is not engine_attrs[method]
        spanned = driver.simulate_trace(trace, config)

    # Function equality is identity: every patched method is restored.
    assert dict(vars(_RankEngine)) == engine_attrs
    assert driver.simulate_trace is simulate
    assert _observed(spanned) == _observed(plain)

    layers = bench.span_layers(recorder)
    assert {"engine.admission", "engine.prefill", "engine.decode",
            "engine.driver"} <= set(layers)
    assert all(entry["calls"] >= 1 for entry in layers.values())
    assert layers["engine.driver"]["calls"] == 1
    # The driver is the only root; every span's self time is its
    # duration minus its children's, so the self times sum to it.
    parents = np.frombuffer(recorder.parents, dtype=np.intc)
    durations = np.frombuffer(recorder.ends) - np.frombuffer(recorder.starts)
    assert (parents < 0).sum() == 1
    root_s = float(durations[parents < 0].sum())
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(
        root_s, rel=1e-9)
    assert sum(e["share"] for e in layers.values()) == pytest.approx(1.0)
