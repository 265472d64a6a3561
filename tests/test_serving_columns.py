"""Columnar request state, from trace to export.

The event engine keeps each request as a slot into per-engine columns,
results hold their records as :class:`ColumnRecords`, and the row
exports read columns.  These tests pin every columnar reader to the
object it replaces: derived record fields equal the ``RequestRecord``
properties bit for bit, rows built from columns equal rows built from
objects (values and Python types), trace items built from validated
columns equal ``Request(*row)``, a shard submission equals request-by-
request submission, and built-in policy hooks never build a view.
"""

import dataclasses

import numpy as np
import pytest

import repro.serving.engine.rank_engine as rank_engine
from repro.serving import (
    POLICIES,
    Deployment,
    Request,
    ServingConfig,
    TraceSpec,
    generate_trace,
    record_rows,
    simulate_cluster,
    simulate_trace,
    trace_rows,
)
from repro.serving.engine.costs import _CostCache
from repro.serving.engine.driver import make_engine, replica_budget
from repro.serving.engine.records import ColumnRecords, RequestRecord
from repro.serving.metrics import metrics_table, summary
from repro.serving.policy import FcfsPolicy, PriorityPolicy, SjfPolicy
from repro.serving.trace import _REQUEST_FIELDS, Trace

DERIVED = ("queue_s", "ttft_s", "tpot_s", "latency_s")


def _starved_result(policy="priority", sched_policy=None):
    """Rejections (no stamps), preemptions and one-token requests."""
    trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=4096,
                     gen_tokens=4096)] + list(generate_trace(TraceSpec(
                         num_requests=40, seed=4, arrival_rate_per_s=0.01,
                         prompt_mean=96.0, prompt_sigma=0.8, prompt_max=384,
                         gen_mean=48.0, gen_max=256,
                         priority_weights=(0.5, 0.5), slo_ttft_s=(5.0, 0.0),
                     )))
    trace = [dataclasses.replace(r, req_id=i) for i, r in enumerate(trace)]
    trace.append(Request(req_id=len(trace), arrival_s=50.0, prompt_tokens=8,
                         gen_tokens=1))
    return simulate_trace(trace, ServingConfig(
        model="gpt-125m", num_ranks=2, dpus_per_rank=1, max_batch=16,
        policy=policy,
    ), sched_policy=sched_policy)


def test_derived_columns_equal_record_properties():
    result = _starved_result()
    records = result.records
    assert isinstance(records, ColumnRecords)
    assert "rejected" in records.column("status")
    columns = {name: records.column(name) for name in DERIVED}
    objects = list(records)
    for name in DERIVED:
        assert repr(columns[name]) == \
            repr([getattr(r, name) for r in objects]), name
    for field in dataclasses.fields(RequestRecord):
        assert records.column(field.name) == \
            [getattr(r, field.name) for r in objects]


def test_column_reads_follow_edited_records():
    """Once the records exist a caller may edit them; column reads (and
    so the metrics) follow the objects, as they would on a list."""
    records = _starved_result().records
    first = records[0]
    first.arrival_s -= 1.0
    assert records.column("arrival_s")[0] == first.arrival_s
    assert records.column("ttft_s")[0] == first.ttft_s


def test_rows_and_metrics_from_columns_equal_rows_from_objects():
    columnar = _starved_result()
    listed = dataclasses.replace(columnar,
                                 records=list(_starved_result().records))
    rows = list(record_rows(columnar))
    from_objects = list(record_rows(listed))
    assert repr(rows) == repr(from_objects)
    assert [[type(v) for v in row.values()] for row in rows] == \
        [[type(v) for v in row.values()] for row in from_objects]
    assert repr(metrics_table(_starved_result())) == \
        repr(metrics_table(listed))
    assert repr(summary(_starved_result())) == repr(summary(listed))


def test_records_compare_equal_to_lists():
    result = _starved_result()
    assert result.records == list(_starved_result().records)
    assert list(result.records) == result.records
    assert result.records != list(result.records)[:-1]
    assert ColumnRecords(
        {field.name: [] for field in dataclasses.fields(RequestRecord)}
    ) == []


def test_records_edit_like_a_list():
    records = _starved_result().records
    listed = list(_starved_result().records)
    last = records.pop()
    assert last == listed.pop() and records == listed
    records.append(last)
    listed.append(last)
    assert len(records) == len(listed) and records == listed
    assert records.column("req_id") == [r.req_id for r in listed]


def test_merge_sorts_by_req_id_keeping_part_order_on_ties():
    names = [field.name for field in dataclasses.fields(RequestRecord)]
    objects = [RequestRecord(i, 0, 0.0, 1, 1) for i in (3, 1, 3, 9)]
    columns = ColumnRecords(
        {name: [getattr(r, name) for r in objects] for name in names},
        rows=[1, 0, 2],
    )
    listed = [RequestRecord(i, 1, 0.0, 1, 1) for i in (3, 0)]
    merged = ColumnRecords.merge([columns, listed])
    assert [(r.req_id, r.rank) for r in merged] == \
        [(0, 1), (1, 0), (3, 0), (3, 0), (3, 1)]
    assert merged.column("req_id") == [0, 1, 3, 3, 3]
    assert ColumnRecords.merge([columns]) is columns
    # A merge of merges orders ties as one flat merge does.
    third = [RequestRecord(i, 2, 0.0, 1, 1) for i in (3, 1, 0)]
    flat = ColumnRecords.merge([columns, listed, third])
    nested = ColumnRecords.merge([ColumnRecords.merge([columns, listed]),
                                  ColumnRecords.merge([third])])
    assert [(r.req_id, r.rank) for r in flat] == \
        [(0, 1), (0, 2), (1, 0), (1, 2), (3, 0), (3, 0), (3, 1), (3, 2)]
    assert list(nested) == list(flat)
    for name in names:
        assert nested.column(name) == flat.column(name), name


def test_stored_columns_are_gathered_once():
    """A merged result holds each field as one list: reading it twice
    returns the same list, gathered when the result was built."""
    two_rank = _starved_result().records
    clustered = simulate_cluster(_trace(), [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2), name="a"),
        Deployment(ServingConfig(model="gpt-125m", num_ranks=1), name="b"),
    ]).records
    for records in (two_rank, clustered):
        for name in ("req_id", "status", "arrival_s", "finish_s"):
            assert records.column(name) is records.column(name), name


def _trace(n=60, seed=3, scenario="conversational"):
    return generate_trace(TraceSpec(
        num_requests=n, seed=seed, scenario=scenario, sessions=12,
        prompt_mean=24, gen_mean=12, system_prompt_tokens=32,
        priority_weights=(0.5, 0.5), slo_ttft_s=(2.0, 0.0),
    ))


def test_trace_items_built_from_columns_equal_validated_requests():
    trace = _trace()
    rows = [[array[i].item() for array in trace.columns.values()]
            for i in range(len(trace))]
    for request, row in zip(trace, rows):
        checked = Request(*row)
        assert request == checked
        assert hash(request) == hash(checked)
        assert repr(request) == repr(checked)
        for field in dataclasses.fields(Request):
            got = getattr(request, field.name)
            want = getattr(checked, field.name)
            assert got == want and type(got) is type(want), field.name


def test_trace_rows_from_columns_equal_rows_from_objects():
    fresh = _trace()
    from_columns = list(trace_rows(fresh))
    boxed = _trace()
    list(boxed)  # build the request objects
    from_objects = list(trace_rows(boxed))
    assert repr(from_columns) == repr(from_objects)
    assert [[type(v) for v in row.values()] for row in from_columns] == \
        [[type(v) for v in row.values()] for row in from_objects]
    assert repr(list(trace_rows(list(boxed)))) == repr(from_objects)
    # Caller objects keep their own values (an int arrival stays int).
    given = Trace.of([Request(req_id=0, arrival_s=1, prompt_tokens=4,
                              gen_tokens=2)])
    assert trace_rows(given)[0]["arrival_s"] == 1
    assert type(trace_rows(given)[0]["arrival_s"]) is int


def _engine(config):
    cost_args, _, kv_capacity = replica_budget(config)
    return make_engine(0, _CostCache(*cost_args), config, kv_capacity,
                       config.make_policy())


@pytest.mark.parametrize("engine", ("event", "loop"))
def test_shard_submit_equals_request_by_request_submit(engine):
    trace = _trace(scenario="conversational")
    config = ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=4,
                           max_batch=8, engine=engine, prefix_cache=True)
    by_shard = _engine(config)
    by_shard.submit_columns(trace.columns)
    by_request = _engine(config)
    for request in trace:
        by_request.submit(request)
    assert by_shard.kv_queued_bytes == by_request.kv_queued_bytes
    by_shard.run()
    by_request.run()
    assert by_shard.records == by_request.records
    assert by_shard.stats == by_request.stats


def test_shard_submit_refuses_out_of_order_arrivals():
    config = ServingConfig(model="gpt-125m", num_ranks=1)
    engine = _engine(config)
    columns = dict(_trace(n=8, scenario="steady").columns)
    columns = {name: array[::-1] for name, array in columns.items()}
    with pytest.raises(ValueError, match="arrival order"):
        engine.submit_columns(columns)
    engine = _engine(config)
    engine.submit(Request(req_id=99, arrival_s=1e9, prompt_tokens=4,
                          gen_tokens=2))
    with pytest.raises(ValueError, match="arrival order"):
        engine.submit_columns(_trace(n=8, scenario="steady").columns)


def test_unsorted_ties_are_admitted_in_key_order():
    """Submission order is admission order only while it is
    ``(arrival_s, req_id)`` order: a tie submitted with the larger
    ``req_id`` first (inside a shard, across shards, or one request at
    a time) must be admitted exactly as the key-ordered heap admits it.
    One batch slot makes the order show in every stamp."""
    class KeyedFcfs(FcfsPolicy):
        def admission_key(self, state):
            return super().admission_key(state)

    columns = Trace({
        "req_id": [1, 0, 2, 4, 3],
        "arrival_s": [0.0, 0.0, 1.0, 2.0, 2.0],
        "prompt_tokens": [8, 16, 8, 24, 4],
        "gen_tokens": [4, 2, 6, 3, 5],
    }).columns
    config = ServingConfig(model="gpt-125m", num_ranks=1, max_batch=1)
    cost_args, _, kv_capacity = replica_budget(config)

    def served(policy, submit):
        engine = make_engine(0, _CostCache(*cost_args), config,
                             kv_capacity, policy)
        submit(engine)
        engine.run()
        return list(engine.records), engine.stats

    def by_shards(*edges):
        def submit(engine):
            for lo, hi in zip((0, *edges), (*edges, 5)):
                engine.submit_columns(
                    {k: v[lo:hi] for k, v in columns.items()}
                )
        return submit

    def by_requests(engine):
        for request in Trace(columns):
            engine.submit(request)

    want = served(KeyedFcfs(), by_shards())
    assert [r.req_id for r in sorted(want[0], key=lambda r: r.admit_s)] \
        == [0, 1, 2, 3, 4]
    # Ties inside one shard; ties only across shard edges; one by one.
    for submit in (by_shards(), by_shards(1, 4), by_requests):
        assert served(FcfsPolicy(), submit) == want


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_builtin_policies_build_no_view(policy, monkeypatch):
    """Built-in hooks are evaluated from the columns: a run under any
    shipped policy (preemptions included) never builds a policy view."""
    built = []
    original = rank_engine._RequestState.__init__

    def spy(self, *args):
        built.append(args[0])
        original(self, *args)

    monkeypatch.setattr(rank_engine._RequestState, "__init__", spy)
    result = _starved_result(policy)
    if policy == "priority":
        assert result.preemptions > 0
    assert not built


def test_slot_forms_yield_to_overridden_hooks(monkeypatch):
    """A built-in's slot form stands in only for the hook its class
    wrote: once a subclass overrides that hook (or the priority
    deadline rule), the engine calls the subclass's hook on views."""
    class Deadline(PriorityPolicy):
        @staticmethod
        def _deadline(request):
            return request.arrival_s

    class Victims(PriorityPolicy):
        def select_victims(self, candidate, running, need_bytes):
            return super().select_victims(candidate, running, need_bytes)

    class Key(SjfPolicy):
        def admission_key(self, state):
            return super().admission_key(state)

    columns = {name: [] for name in
               _REQUEST_FIELDS + ("tokens_out", "kv_private")}
    assert Deadline()._slot_admission_key(columns) is None
    assert Deadline()._slot_victims(columns) is not None
    assert Victims()._slot_admission_key(columns) is not None
    assert Victims()._slot_victims(columns) is None
    assert Key()._slot_admission_key(columns) is None
    assert Key()._slot_victims(columns) is not None

    built = []
    original = rank_engine._RequestState.__init__

    def spy(self, *args):
        built.append(args[0])
        original(self, *args)

    monkeypatch.setattr(rank_engine._RequestState, "__init__", spy)
    result = _starved_result(sched_policy=Victims())
    assert built and result.preemptions > 0
    assert result.records == _starved_result().records


def test_simulate_trace_builds_no_request_object(monkeypatch):
    calls = []
    monkeypatch.setattr(rank_engine, "_unchecked_request",
                        lambda *row: calls.append(row))
    trace = _trace(n=200, scenario="bursty")
    result = simulate_trace(trace, ServingConfig(model="gpt-125m",
                                                 num_ranks=2))
    assert len(result.records) == 200 and not calls
    assert trace._items is None
    assert np.array_equal(sorted(result.records.column("req_id")),
                          trace.columns["req_id"])
