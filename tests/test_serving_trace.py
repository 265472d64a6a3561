"""Synthetic trace generator: determinism, distributions, round-trips."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

from repro.serving import (
    SCENARIOS,
    Request,
    ServingConfig,
    TraceSpec,
    generate_trace,
    rows_to_trace,
    simulate_trace,
    trace_rows,
)
from repro.serving.trace import Trace


def test_trace_is_deterministic_per_seed():
    spec = TraceSpec(num_requests=32, seed=3)
    assert generate_trace(spec) == generate_trace(spec)
    other = generate_trace(TraceSpec(num_requests=32, seed=4))
    assert generate_trace(spec) != other


def test_arrivals_sorted_and_positive():
    trace = generate_trace(TraceSpec(num_requests=64, arrival_rate_per_s=10.0))
    arrivals = [r.arrival_s for r in trace]
    assert arrivals == sorted(arrivals)
    assert all(a > 0 for a in arrivals)
    # Mean inter-arrival should be in the right ballpark for a Poisson
    # process at rate 10 (loose 3x bound; the draw is seeded).
    mean_gap = arrivals[-1] / len(arrivals)
    assert 0.1 / 3 < mean_gap < 0.1 * 3


def test_lengths_clipped_and_positive():
    spec = TraceSpec(num_requests=200, prompt_mean=100, prompt_max=120,
                     gen_mean=50, gen_max=60, seed=9)
    trace = generate_trace(spec)
    assert all(1 <= r.prompt_tokens <= 120 for r in trace)
    assert all(1 <= r.gen_tokens <= 60 for r in trace)
    # The clip binds for a lognormal with mean 100 and cap 120.
    assert any(r.prompt_tokens == 120 for r in trace)


def test_length_means_track_spec():
    spec = TraceSpec(num_requests=2000, prompt_mean=128, prompt_max=10**6,
                     gen_mean=64, gen_max=10**6, seed=0)
    trace = generate_trace(spec)
    mean_prompt = sum(r.prompt_tokens for r in trace) / len(trace)
    assert mean_prompt == pytest.approx(128, rel=0.15)


def test_empty_trace_and_validation():
    for scenario in ("steady", "bursty", "diurnal"):
        assert generate_trace(TraceSpec(num_requests=0, scenario=scenario)) == []
    with pytest.raises(ValueError):
        TraceSpec(arrival_rate_per_s=0.0)
    with pytest.raises(ValueError):
        TraceSpec(prompt_mean=0)
    with pytest.raises(ValueError):
        TraceSpec(gen_max=0)
    with pytest.raises(ValueError):
        Request(req_id=0, arrival_s=-1.0, prompt_tokens=4, gen_tokens=1)
    with pytest.raises(ValueError):
        Request(req_id=0, arrival_s=0.0, prompt_tokens=0, gen_tokens=1)


def test_trace_rows_round_trip():
    """Every scenario round-trips, conversational prefix fields included."""
    for scenario in SCENARIOS:
        trace = generate_trace(TraceSpec(num_requests=10, seed=5,
                                         scenario=scenario, sessions=3,
                                         priority_weights=(0.5, 0.5),
                                         slo_ttft_s=(1.0, 10.0)))
        rows = trace_rows(trace)
        assert rows_to_trace(rows) == trace
        assert rows_to_trace(rows).columns.keys() == trace.columns.keys()
    assert any(r.context_tokens > 0 for r in trace)
    assert any(r.shared_prefix_tokens > 0 for r in trace)
    assert any(not r.final_turn for r in trace)


def test_rows_without_priority_fields_still_load():
    rows = [{"req_id": 0, "arrival_s": 0.5, "prompt_tokens": 4,
             "gen_tokens": 2}]
    (req,) = rows_to_trace(rows)
    assert req.priority == 0
    assert req.slo_ttft_s == 0.0


# ---------------------------------------------------------------------------
# arrival scenarios
# ---------------------------------------------------------------------------

def test_all_scenarios_deterministic_sorted_and_positive():
    from repro.serving import SCENARIOS
    assert SCENARIOS == ("steady", "bursty", "diurnal", "conversational")
    for scenario in SCENARIOS:
        spec = TraceSpec(num_requests=64, scenario=scenario, seed=11)
        trace = generate_trace(spec)
        assert trace == generate_trace(spec)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)
        assert len(trace) == 64


def test_scenarios_share_length_distribution_but_not_arrivals():
    """Same seed: lengths are drawn after arrivals from the same stream
    count, so steady vs bursty differ only in arrival times."""
    steady = generate_trace(TraceSpec(num_requests=32, seed=5))
    bursty = generate_trace(TraceSpec(num_requests=32, seed=5,
                                      scenario="bursty"))
    assert [r.arrival_s for r in steady] != [r.arrival_s for r in bursty]


def test_bursty_arrivals_are_burstier_than_steady():
    """The MMPP's inter-arrival gaps have a higher coefficient of
    variation than the steady Poisson process (CV 1 for exponential)."""
    import statistics

    def cv_of_gaps(trace):
        arrivals = [r.arrival_s for r in trace]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        return statistics.pstdev(gaps) / statistics.mean(gaps)

    steady = generate_trace(TraceSpec(num_requests=500, seed=2))
    bursty = generate_trace(TraceSpec(num_requests=500, seed=2,
                                      scenario="bursty",
                                      burst_rate_multiplier=10.0))
    assert cv_of_gaps(bursty) > cv_of_gaps(steady)


def test_diurnal_rate_tracks_the_cycle():
    """More arrivals land in the high-rate half of the cycle."""
    import math
    spec = TraceSpec(num_requests=1000, scenario="diurnal",
                     diurnal_period_s=40.0, diurnal_amplitude=1.0, seed=8)
    trace = generate_trace(spec)
    phase = [math.sin(2 * math.pi * r.arrival_s / 40.0) for r in trace]
    high = sum(p > 0 for p in phase)
    assert high > 0.65 * len(trace)


def test_priority_tiers_and_slos_assigned():
    spec = TraceSpec(num_requests=400, seed=3,
                     priority_weights=(0.25, 0.75),
                     slo_ttft_s=(2.0, 20.0))
    trace = generate_trace(spec)
    tiers = {r.priority for r in trace}
    assert tiers == {0, 1}
    share0 = sum(r.priority == 0 for r in trace) / len(trace)
    assert 0.15 < share0 < 0.35
    assert all(r.slo_ttft_s == (2.0, 20.0)[r.priority] for r in trace)


def test_default_trace_has_single_tier_and_no_slo():
    trace = generate_trace(TraceSpec(num_requests=8, seed=1))
    assert all(r.priority == 0 and r.slo_ttft_s == 0.0 for r in trace)


def test_scenario_and_priority_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        TraceSpec(scenario="weekly")
    with pytest.raises(ValueError, match="burst_rate_multiplier"):
        TraceSpec(burst_rate_multiplier=0.0)
    with pytest.raises(ValueError, match="burst_dwell_s"):
        TraceSpec(burst_dwell_s=0.0)
    with pytest.raises(ValueError, match="diurnal_amplitude"):
        TraceSpec(diurnal_amplitude=1.5)
    with pytest.raises(ValueError, match="priority_weights"):
        TraceSpec(priority_weights=())
    with pytest.raises(ValueError, match="priority_weights"):
        TraceSpec(priority_weights=(1.0, -1.0))
    with pytest.raises(ValueError, match="slo_ttft_s"):
        TraceSpec(priority_weights=(0.5, 0.5), slo_ttft_s=(1.0,))
    with pytest.raises(ValueError, match="priority"):
        Request(req_id=0, arrival_s=0.0, prompt_tokens=1, gen_tokens=1,
                priority=-1)
    with pytest.raises(ValueError, match="slo_ttft_s"):
        Request(req_id=0, arrival_s=0.0, prompt_tokens=1, gen_tokens=1,
                slo_ttft_s=-2.0)


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("arrival_s", math.nan), ("arrival_s", math.inf),
    ("slo_ttft_s", math.nan), ("slo_ttft_s", math.inf),
])
def test_request_rejects_non_finite_times(field, value):
    fields = dict(req_id=0, arrival_s=0.0, prompt_tokens=4, gen_tokens=1)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        Request(**fields)


@pytest.mark.parametrize("field", [
    "arrival_rate_per_s", "burst_rate_multiplier", "burst_dwell_s",
    "calm_dwell_s", "diurnal_period_s", "diurnal_amplitude", "prompt_mean",
    "prompt_sigma", "gen_mean", "gen_sigma", "turns_mean",
    "think_time_mean_s",
])
def test_trace_spec_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        TraceSpec(**{field: math.nan})


def test_trace_spec_rejects_nan_tier_knobs():
    with pytest.raises(ValueError, match="priority_weights"):
        TraceSpec(priority_weights=(1.0, math.nan))
    with pytest.raises(ValueError, match="slo_ttft_s"):
        TraceSpec(priority_weights=(1.0, 1.0), slo_ttft_s=(1.0, math.nan))
    with pytest.raises(ValueError, match="slo_ttft_s"):
        TraceSpec(slo_ttft_s=(math.inf,))


def test_nan_arrival_is_rejected_not_simulated():
    """A NaN arrival used to hang the engines; it now fails fast, at
    trace construction."""
    config = ServingConfig(model="gpt-125m", num_ranks=1)
    with pytest.raises(ValueError, match="arrival"):
        simulate_trace(Trace({
            "req_id": [0, 1, 2, 3],
            "arrival_s": [0.0, 1.0, math.nan, 3.0],
            "prompt_tokens": [8] * 4,
            "gen_tokens": [4] * 4,
        }), config)


@pytest.mark.parametrize("bad", [
    {"arrival_s": -1.0},
    {"prompt_tokens": 0},
    {"gen_tokens": 0},
    {"priority": -1},
    {"slo_ttft_s": math.nan},
    {"slo_ttft_s": math.inf},
    {"turn": -1},
    {"shared_prefix_tokens": -1},
    {"context_tokens": -1},
    {"shared_prefix_tokens": 2},
    {"context_tokens": 8},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_trace_columns_are_validated_like_requests(bad, monkeypatch):
    """``Trace(columns)`` refuses every row ``Request`` refuses, with the
    request's own message, before either engine can see the row."""
    from repro.serving.engine.rank_engine import _RankEngine

    columns = {
        "req_id": [0, 1, 2, 3],
        "arrival_s": [0.0, 0.5, 1.0, 1.5],
        "prompt_tokens": [8] * 4,
        "gen_tokens": [4] * 4,
    }
    row = {name: values[2] for name, values in columns.items()}
    row.update(bad)
    with pytest.raises(ValueError) as expected:
        Request(**row)
    defaults = {field.name: field.default
                for field in dataclasses.fields(Request)}
    for name, value in bad.items():
        column = list(columns.get(name, [defaults[name]] * 4))
        column[2] = value
        columns[name] = column
    with pytest.raises(ValueError) as raised:
        Trace(columns)
    assert str(raised.value) == str(expected.value)

    def unreachable(*args, **kwargs):
        raise AssertionError("an engine received the bad row")

    monkeypatch.setattr(_RankEngine, "submit", unreachable)
    monkeypatch.setattr(_RankEngine, "submit_columns", unreachable)
    for engine in ("event", "loop"):
        config = ServingConfig(model="gpt-125m", num_ranks=1, engine=engine)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            simulate_trace(Trace(columns), config)


# ---------------------------------------------------------------------------
# the Trace contract: columns are the state, requests are built from them
# ---------------------------------------------------------------------------

def _scenario_trace(scenario, n=40):
    return generate_trace(TraceSpec(
        num_requests=n, seed=2, scenario=scenario, sessions=8,
        prompt_mean=24, gen_mean=12, system_prompt_tokens=32,
        priority_weights=(0.5, 0.5), slo_ttft_s=(2.0, 0.0),
    ))


def _assert_same_columns(a, b):
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        assert a.columns[name].dtype == b.columns[name].dtype, name
        assert np.array_equal(a.columns[name], b.columns[name]), name


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_columns_match_extracted_columns(scenario):
    trace = _scenario_trace(scenario)
    assert list(trace.columns) == [f.name for f in dataclasses.fields(Request)]
    rebuilt = Trace.of(list(trace))
    _assert_same_columns(rebuilt, trace)
    assert list(rebuilt) == list(trace)


def test_of_returns_a_trace_unchanged_and_keeps_caller_objects():
    trace = _scenario_trace("steady")
    assert Trace.of(trace) is trace
    requests = list(trace)
    wrapped = Trace.of(requests)
    assert all(a is b for a, b in zip(wrapped, requests))


def test_columns_are_read_only_and_requests_built_once():
    trace = _scenario_trace("bursty")
    with pytest.raises(ValueError):
        trace.columns["arrival_s"][0] = 0.0
    assert trace[3] is trace[3]
    assert trace[-1].req_id == len(trace) - 1


def test_slicing_keeps_columns_and_built_requests():
    trace = _scenario_trace("conversational")
    head = trace[5:17:2]
    assert isinstance(head, Trace)
    assert list(head) == list(trace)[5:17:2]
    for name, array in trace.columns.items():
        assert np.array_equal(head.columns[name], array[5:17:2])
    built = list(trace)
    assert trace[5:17][0] is built[5]


def test_ordered_matches_sorted_on_a_shuffled_list_with_ties():
    rng = random.Random(4)
    requests = [
        Request(req_id=i, arrival_s=float(rng.choice((0.0, 0.5, 1.0, 2.5))),
                prompt_tokens=4 + i, gen_tokens=1 + i % 3)
        for i in range(60)
    ]
    rng.shuffle(requests)
    expected = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
    ordered = Trace.of(requests).ordered()
    assert all(a is b for a, b in zip(ordered, expected))
    _assert_same_columns(ordered, Trace.of(expected))
    assert ordered.ordered() is ordered
    # Columns-only traces sort the same way, building items from columns.
    unsorted = Trace({name: array for name, array in
                      Trace.of(requests).columns.items()})
    assert list(unsorted.ordered()) == expected


def test_trace_constructor_fills_defaults_and_checks_columns():
    trace = Trace({"req_id": [0], "arrival_s": [0.5], "prompt_tokens": [4],
                   "gen_tokens": [2]})
    assert trace == [Request(req_id=0, arrival_s=0.5, prompt_tokens=4,
                             gen_tokens=2)]
    with pytest.raises(ValueError, match="gen_tokens"):
        Trace({"req_id": [0], "arrival_s": [0.5], "prompt_tokens": [4]})
    with pytest.raises(ValueError, match="unknown"):
        Trace({"req_id": [0], "arrival_s": [0.5], "prompt_tokens": [4],
               "gen_tokens": [2], "tenant": [1]})
    with pytest.raises(ValueError, match="shape"):
        Trace({"req_id": [0, 1], "arrival_s": [0.5], "prompt_tokens": [4, 4],
               "gen_tokens": [2, 2]})
    with pytest.raises(ValueError, match="arrival_s"):
        Trace({"req_id": [0], "arrival_s": [-1.0], "prompt_tokens": [4],
               "gen_tokens": [2]})


@pytest.mark.parametrize("scenario", ["bursty", "conversational"])
def test_wide_batches_on_a_sliced_trace_match_the_object_list(
        scenario, monkeypatch):
    """A column slice of a trace and the object list of the same
    requests serve identically on batches wide enough for the event
    engine's bulk paths, and as the per-token loop engine serves them."""
    from repro.serving.engine.rank_engine import _RankEngine

    trace = generate_trace(TraceSpec(
        num_requests=600, seed=2, scenario=scenario, sessions=300,
        turns_mean=2.0, arrival_rate_per_s=200.0, think_time_mean_s=0.5,
        prompt_mean=24, gen_mean=12, system_prompt_tokens=16,
        priority_weights=(0.5, 0.5), slo_ttft_s=(2.0, 0.0),
    ))
    config = ServingConfig(model="gpt-125m", num_ranks=2, max_batch=256)
    retired = []
    original = _RankEngine._retire_packed

    def spy(engine, firsts):
        retired.append(len(engine.running))
        original(engine, firsts)

    monkeypatch.setattr(_RankEngine, "_retire_packed", spy)
    columns = simulate_trace(trace[:450], config)
    monkeypatch.undo()
    assert retired, "no decode batch was wide enough to pack"
    objects = simulate_trace(list(trace)[:450], config)
    assert list(columns.records) == list(objects.records)
    assert columns.rank_stats == objects.rank_stats
    loop = simulate_trace(list(trace)[:450],
                          dataclasses.replace(config, engine="loop"))
    for a, b in zip(columns.records, loop.records):
        assert (a.req_id, a.status, a.admit_s is None) == \
            (b.req_id, b.status, b.admit_s is None)
        for field in ("admit_s", "first_token_s", "finish_s"):
            if getattr(a, field) is not None:
                assert getattr(a, field) == pytest.approx(
                    getattr(b, field), rel=1e-9, abs=1e-12)
