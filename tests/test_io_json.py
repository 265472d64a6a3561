"""``write_json`` writes exactly ``json.dumps(payload, indent=2) + "\\n"``.

The writer streams each all-scalar container through the stdlib C
encoder and encodes a ``RowTable`` straight from its columns, one block
of rows at a time, as the list of its rows; these tests hold it to the
pure-Python ``indent=2`` encoder's bytes (each ``RowTable`` replaced by
``list(table)``) on real serving payloads, on a seeded structural
fuzzer and on a seeded table fuzzer (as plain dict lists with rows that
break their shape, and as ``RowTable`` columns), to its errors on bad
input, to a memory bound that only a streaming writer meets, and pin
``RowTable``'s sequence semantics.
"""

import collections
import enum
import json
import random
import tracemalloc
from array import array

import pytest

from repro.experiments import io as exp_io
from repro.experiments.io import TABLE_BLOCK_ROWS, RowTable, write_json
from repro.serving import cli as serving_cli


def _listed(payload):
    """``payload`` with every :class:`RowTable` replaced by the list of
    its rows (the document stdlib ``json`` can encode)."""
    if isinstance(payload, RowTable):
        return [_listed(row) for row in payload]
    if isinstance(payload, dict):
        return {key: _listed(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_listed(value) for value in payload]
    return payload


def _reference(payload) -> bytes:
    text = json.dumps(_listed(payload), indent=2)
    return (text + "\n").encode("utf-8")


def _written(tmp_path, payload) -> bytes:
    path = tmp_path / "out.json"
    write_json(str(path), payload)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# (a) real serving CLI payloads
# ---------------------------------------------------------------------------

_CLI_RUNS = {
    "standalone": [
        "--model", "gpt-125m", "--requests", "24", "--ranks", "2",
        "--scenario", "bursty", "--prompt-mean", "16", "--gen-mean", "8",
    ],
    "least_kv_prefix_cache": [
        "--cluster", "--deployments", "2*gpt-125m:W1A3:1", "--router",
        "least_kv", "--scenario", "conversational", "--prefix-cache",
        "--requests", "24", "--sessions", "6", "--turns", "4",
        "--think-time", "5", "--prompt-pool", "2",
        "--system-prompt-tokens", "48", "--prompt-mean", "32",
        "--prompt-max", "128", "--gen-mean", "16", "--gen-max", "64",
        "--arrival-rate", "0.05",
    ],
    "chaos": [
        "--cluster", "--requests", "64", "--scenario", "bursty",
        "--arrival-rate", "30", "--autoscale", "--scale-max", "3",
        "--scale-interval", "1", "--faults", "7", "--crash-rate", "0.5",
        "--stall", "1.0", "--retry-max", "3", "--retry-backoff", "0.25",
    ],
}


@pytest.mark.parametrize("name", sorted(_CLI_RUNS))
def test_cli_payloads_match_json_dumps(tmp_path, monkeypatch, name):
    captured = []

    def capture(path, payload):
        captured.append(payload)
        write_json(path, payload)

    monkeypatch.setattr(serving_cli, "write_json", capture)
    out = tmp_path / f"{name}.json"
    argv = _CLI_RUNS[name] + ["--quiet", "--output", str(out)]
    assert serving_cli.main(argv) == 0
    (payload,) = captured
    if name == "chaos":
        assert payload["fault_events"] and payload["scale_events"]
    assert isinstance(payload["requests"], RowTable)
    assert isinstance(payload["trace"], RowTable)
    assert out.read_bytes() == _reference(payload)


# ---------------------------------------------------------------------------
# (b) seeded structural fuzzer
# ---------------------------------------------------------------------------

class _Tier(enum.IntEnum):
    HIGH = 1


class _Seconds(float):
    pass


class _Name(str):
    pass


_STRINGS = (
    "", "plain", "café 漢字 \U0001f642", '{"', "},", "],\n  [",
    "line\nbreak", 'quote " and \\ backslash', "\t\x00\x1f\x7f",
)
_FLOATS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0.1, 1e300,
    5e-324, -123.456,
)
_KEYS = _STRINGS + _FLOATS + (0, -7, 10**20, True, False, None)


def _scalar(rng: random.Random) -> object:
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(_FLOATS)
    if kind == 1:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-30, 30)
    if kind == 2:
        return rng.randint(-10**20, 10**20)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return rng.choice(_STRINGS)
    if kind == 5:
        return rng.choice((_Tier.HIGH, _Seconds(2.5), _Name("sub")))
    return "".join(chr(rng.randrange(0x20, 0x3000)) for _ in range(5))


def _value(rng: random.Random, depth: int) -> object:
    if depth >= 5 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.choice((0, 0, 1, 2, 3, 6))
    kind = rng.randrange(4)
    if kind == 0:    # an all-scalar row
        return {rng.choice(_KEYS): _scalar(rng) for _ in range(size)}
    if kind == 1:    # a mixed dict
        return {rng.choice(_KEYS): _value(rng, depth + 1) for _ in range(size)}
    items = [_value(rng, depth + 1) for _ in range(size)]
    return items if kind == 2 else tuple(items)


def _empties(depth: int) -> object:
    """Empty dicts and lists at every level down to ``depth``."""
    if depth == 0:
        return [{}, [], ()]
    return {"dict": {}, "list": [], "rows": [{"a": 1}, {}],
            "next": _empties(depth - 1), "tail": [_empties(depth - 1), ()]}


def test_fuzzed_payloads_match_json_dumps(tmp_path):
    rng = random.Random(20260417)
    for _ in range(300):
        payload = {"doc": _value(rng, 0), "deep": _value(rng, 0)}
        assert _written(tmp_path, payload) == _reference(payload)


@pytest.mark.parametrize("payload", [
    _empties(5),
    {"rows": [{"x": 1.5, "tags": ["a", "b"]}, {"x": None, "tags": []}]},
    [[[[[1, {"k": (2, 3)}]]]]],
    (1, "two", 3.0),
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    {"scalar_only": 1},
    "top-level string",
    float("nan"),
    None,
    [],
    {},
])
def test_edge_payloads_match_json_dumps(tmp_path, payload):
    assert _written(tmp_path, payload) == _reference(payload)


def test_output_is_identical_without_the_c_encoder(tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    rng = random.Random(3)
    for _ in range(50):
        payload = _value(rng, 0)
        assert _written(tmp_path, payload) == _reference(payload)


# ---------------------------------------------------------------------------
# (b') seeded row-table fuzzer: plain dict-row lists and shape breakers
# ---------------------------------------------------------------------------

_TABLE_KEYS = (
    "req_id", "arrival_s", "100% done", 'say "hi"', "two\nlines",
    "café", "漢字", "\U0001f642", "", "%s", "%(x)s",
)
_SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324)


def _column_value(rng: random.Random, kind: str) -> object:
    """One value of a column of ``kind``; a few per column stray."""
    if kind == "float":
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-30, 30)
    if kind == "float_none":
        return None if rng.random() < 0.1 else rng.random()
    if kind == "float_special":
        return rng.choice(_SPECIAL_FLOATS) if rng.random() < 0.2 \
            else rng.random()
    if kind == "int":
        return rng.randint(-10**20, 10**20)
    if kind == "str":
        return rng.choice(_STRINGS)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "subclass":
        return rng.choice((_Seconds(rng.random()), _Tier.HIGH,
                           _Name("sub"), _Seconds(float("nan"))))
    if kind == "none":
        return None
    return _scalar(rng)  # "mixed"


_COLUMN_KINDS = ("float", "float_none", "float_special", "int", "str",
                 "bool", "subclass", "none", "mixed")


def _table(rng: random.Random, rows: int) -> list:
    keys = rng.sample(_TABLE_KEYS, rng.randint(1, len(_TABLE_KEYS)))
    kinds = [rng.choice(_COLUMN_KINDS) for _ in keys]
    stray = rng.random() < 0.3
    table = []
    for _ in range(rows):
        row = {}
        for key, kind in zip(keys, kinds):
            if stray and rng.random() < 0.01:
                kind = rng.choice(_COLUMN_KINDS)
            row[key] = _column_value(rng, kind)
        table.append(row)
    return table


def _table_sizes(rng: random.Random) -> int:
    block = TABLE_BLOCK_ROWS
    return rng.choice((2, 3, rng.randint(4, 600), block - 1, block,
                       block + 1, 2 * block + 1))


def test_fuzzed_tables_match_json_dumps(tmp_path):
    rng = random.Random(20261017)
    for _ in range(60):
        payload = {"summary": {"rows": 1},
                   "requests": _table(rng, _table_sizes(rng)),
                   "trace": tuple(_table(rng, rng.randint(2, 40)))}
        assert _written(tmp_path, payload) == _reference(payload)


def test_fuzzed_tables_match_json_dumps_without_the_c_encoder(
        tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    rng = random.Random(11)
    for _ in range(10):
        payload = {"requests": _table(rng, _table_sizes(rng))}
        assert _written(tmp_path, payload) == _reference(payload)


def _break_order(table, at):
    row = table[at]
    table[at] = dict(reversed(list(row.items())))


def _break_extra(table, at):
    table[at]["extra"] = 1.5


def _break_missing(table, at):
    table[at].pop(next(iter(table[at])))


def _break_nested(table, at):
    key = next(iter(table[at]))
    table[at][key] = {"nested": [1, {"deeper": None}], "empty": []}


def _break_list_value(table, at):
    key = list(table[at])[-1]
    table[at][key] = [0.5, "x", None]


def _break_int_key(table, at):
    table[at][7] = table[at].pop(next(iter(table[at])))


def _break_row_type(table, at):
    table[at] = [1, 2.5, "not a dict"]


def _break_dict_subclass(table, at):
    class Row(dict):
        pass
    table[at] = Row(table[at])


def _break_empty_row(table, at):
    table[at] = {}


@pytest.mark.parametrize("breaker", [
    _break_order, _break_extra, _break_missing, _break_nested,
    _break_list_value, _break_int_key, _break_row_type,
    _break_dict_subclass, _break_empty_row,
])
@pytest.mark.parametrize("at", [0, 1, 300, 599])
def test_tables_with_a_shape_breaker_match_json_dumps(tmp_path, breaker, at):
    rng = random.Random(at)
    table = _table(rng, 600)
    breaker(table, at)
    payload = {"requests": table, "tail": _table(rng, 3)}
    assert _written(tmp_path, payload) == _reference(payload)


def _unserialisable_row(table):
    key = next(iter(table[300]))
    table[300][key] = object()


def _tuple_key_row(table):
    table[300][(1, 2)] = 1


def _circular_row(table):
    key = next(iter(table[300]))
    table[300][key] = table


@pytest.mark.parametrize("breaker, error", [
    (_unserialisable_row, TypeError),
    (_tuple_key_row, TypeError),
    (_circular_row, ValueError),
])
def test_table_errors_match_json_dumps(tmp_path, breaker, error):
    table = [{"a": float(i), "b": i, "c": "x"} for i in range(600)]
    breaker(table)
    payload = {"requests": table}
    with pytest.raises(error) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(error) as raised:
        write_json(str(tmp_path / "bad.json"), payload)
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# (b'') RowTable: written straight from its columns
# ---------------------------------------------------------------------------

def _row_table(rows: list) -> RowTable:
    """The same-keyed dict ``rows`` as a :class:`RowTable`."""
    return RowTable({key: [row[key] for row in rows] for key in rows[0]})


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_table_bytes_do_not_depend_on_the_block_size(
        tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(exp_io, "TABLE_BLOCK_ROWS", block_rows)
    rng = random.Random(block_rows)
    for _ in range(10):
        payload = [_row_table(_table(rng, rng.randint(2, 40))),
                   _row_table(_table(rng, 5)), _table(rng, 3)]
        assert _written(tmp_path, payload) == _reference(payload)


def test_fuzzed_row_tables_match_json_dumps(tmp_path):
    rng = random.Random(20261019)
    for _ in range(60):
        requests = _table(rng, _table_sizes(rng))
        trace = _table(rng, rng.randint(1, 40))
        payload = {"summary": {"rows": 1}, "requests": _row_table(requests),
                   "trace": (_row_table(trace),)}
        written = _written(tmp_path, payload)
        assert written == _reference(payload)
        assert written == _reference(
            {"summary": {"rows": 1}, "requests": requests, "trace": (trace,)}
        )


def test_fuzzed_row_tables_match_json_dumps_without_the_c_encoder(
        tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    rng = random.Random(12)
    for _ in range(10):
        payload = {"requests": _row_table(_table(rng, _table_sizes(rng)))}
        assert _written(tmp_path, payload) == _reference(payload)


_ROW_COUNT = 37


@pytest.mark.parametrize(
    "block_rows", [1, _ROW_COUNT - 1, _ROW_COUNT, _ROW_COUNT + 1])
def test_row_table_bytes_do_not_depend_on_the_block_size(
        tmp_path, monkeypatch, block_rows):
    rng = random.Random(5)
    tables = [_row_table(_table(rng, _ROW_COUNT)) for _ in range(10)]
    expected = [_reference(table) for table in tables]
    monkeypatch.setattr(exp_io, "TABLE_BLOCK_ROWS", block_rows)
    assert [_written(tmp_path, table) for table in tables] == expected


def test_row_table_blocks_of_scalars_are_not_walked(tmp_path, monkeypatch):
    """Only a block holding a container goes through the walker, row by
    row; the other blocks are encoded from the columns."""
    walked = []
    walker = exp_io._write_value

    def spy(write, obj, *args):
        walked.append(obj)
        walker(write, obj, *args)

    monkeypatch.setattr(exp_io, "_write_value", spy)
    n = 3 * TABLE_BLOCK_ROWS
    scalars = RowTable({"a": [float(i) for i in range(n)],
                        "b": [None] * n})
    _written(tmp_path, scalars)
    assert walked == [scalars]
    walked.clear()
    column = [None] * n
    column[TABLE_BLOCK_ROWS + 1] = [1]
    nested = RowTable({"a": scalars.columns["a"], "b": column})
    _written(tmp_path, nested)
    rows = [obj for obj in walked if isinstance(obj, dict)]
    assert rows == list(nested[TABLE_BLOCK_ROWS:2 * TABLE_BLOCK_ROWS])


def test_row_table_special_columns_match_json_dumps(tmp_path):
    n = 300
    nan, inf = float("nan"), float("inf")
    table = RowTable({
        "none": [None] * n,
        "maybe": [None if i % 3 else i * 0.5 for i in range(n)],
        "nan": [nan] * n,
        "special": [(nan, inf, -inf, -0.0, 5e-324)[i % 5] for i in range(n)],
        "bool": [i % 2 == 0 for i in range(n)],
        "escaped": [_STRINGS[i % len(_STRINGS)] for i in range(n)],
        "int_and_float": [i if i % 2 else i / 7 for i in range(n)],
        "int": [10**20 - i for i in range(n)],
        "subclass": [(_Tier.HIGH, _Seconds(0.5), _Name("x"))[i % 3]
                     for i in range(n)],
        '100% "%s" %(x)s': list(range(n)),
    })
    assert _written(tmp_path, {"rows": table}) == _reference({"rows": table})


# ---------------------------------------------------------------------------
# (b''') RowTable blocks: folded and memoised columns
# ---------------------------------------------------------------------------

_B = TABLE_BLOCK_ROWS
_NAN, _INF = float("nan"), float("inf")


def _cycle(values, n):
    return [values[i % len(values)] for i in range(n)]


_EDGE_TABLES = {
    # constant in one block, repeated or distinct in the next
    "constant_then_varying": RowTable({
        "f": [1.5] * _B + [i / 7 for i in range(_B)] + [2.5] * (_B + 5),
        "i": list(range(_B)) + [7] * _B + _cycle((0, 1, 2), _B) + [7] * 5,
        "s": ["a"] * _B + _cycle(("a", "b"), _B) + [str(i) for i in range(_B)]
        + ["z"] * 5,
        "b": [True] * _B + _cycle((True, False), _B) + [False] * (_B + 5),
        "n": [None] * _B + _cycle((None, 1.5), _B) + [None] * (_B + 5),
        "edge": [0.5] * (_B - 1) + [0.75] * (_B + 1) + [0.5] + [0.75] * (_B + 4),
    }),
    "all_constant": RowTable({
        "f": [0.1] * (2 * _B + 1), "i": [10**20] * (2 * _B + 1),
        "s": ['quote " \\ café'] * (2 * _B + 1), "b": [False] * (2 * _B + 1),
        "n": [None] * (2 * _B + 1), "z": [-0.0] * (2 * _B + 1),
    }),
    "signed_zeros": RowTable({
        "constant_looking": [0.0] * (_B - 1) + [-0.0] * (_B + 1) + [0.0] * _B,
        "negative_first": [-0.0] + [0.0] * (3 * _B - 1),
        "repeated_mixed": _cycle((0.0, -0.0, 1.5, 1.5), 3 * _B),
        "repeated_negative": _cycle((-0.0, 1.5, 1.5, -0.0), 3 * _B),
        "repeated_positive": _cycle((2.5, 0.0, 2.5), 3 * _B),
        "distinct_with_zeros": [(i / 7, -0.0, 0.0)[i % 3] if i % 5 else i / 3
                                for i in range(3 * _B)],
    }),
    "non_finite": RowTable({
        "same_nan": [_NAN] * (2 * _B),
        "fresh_nans": [float("nan") for _ in range(2 * _B)],
        "inf": [_INF] * (2 * _B), "minus_inf": [-_INF] * (2 * _B),
        "mixed": _cycle((_NAN, _INF, -_INF, 1.0), 2 * _B),
        "one_inf": [0.5] * (2 * _B - 1) + [_INF],
    }),
    "percent": RowTable({
        "100%": ["%s"] * _B, "%%": ["%%"] * _B, "%s": ["100% done"] * _B,
        "%(x)s": ["%(x)s"] * _B, "%d": _cycle(("%d", "%%r", "%"), _B),
        "%r": [i / 3 for i in range(_B)],
    }),
    "percent_only_constants": RowTable({
        "100%": ["%s"] * 3, "%%": ["%%"] * 3, "%(x)s": ["50%%"] * 3,
    }),
    "true_and_one": RowTable({
        "alternating": _cycle((True, 1), 2 * _B),
        "one_then_true": [1] * (_B - 1) + [True] + [True] * _B,
        "true_then_one": [True] * _B + [1] * _B,
        "one_and_float": _cycle((1, 1.0), 2 * _B),
        "zeros": _cycle((0, False, 0.0, -0.0), 2 * _B),
    }),
    "subclasses": RowTable({
        "enum": [_Tier.HIGH] * (2 * _B), "seconds": [_Seconds(0.5)] * (2 * _B),
        "float_and_seconds": _cycle((0.5, _Seconds(0.5)), 2 * _B),
        "name": [_Name("x")] * (2 * _B),
        "int_and_enum": _cycle((1, _Tier.HIGH), 2 * _B),
        "nan_seconds": [_Seconds(_NAN)] * (2 * _B),
    }),
    "arrays": RowTable({
        "d_constant": array("d", [1.5] * (2 * _B + 3)),
        "d_distinct": array("d", [i / 7 for i in range(2 * _B + 3)]),
        "d_zeros": array("d", _cycle((0.0, -0.0, 1.0), 2 * _B + 3)),
        "d_nan": array("d", _cycle((_NAN, 1.0), 2 * _B + 3)),
        "q_constant": array("q", [3] * (2 * _B + 3)),
        "q_distinct": array("q", range(-_B, _B + 3)),
        "q_repeated": array("q", _cycle((0, -(2**63), 2**63 - 1), 2 * _B + 3)),
    }),
}


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
@pytest.mark.parametrize("block_rows", [TABLE_BLOCK_ROWS, 3])
@pytest.mark.parametrize("name", sorted(_EDGE_TABLES))
def test_row_table_fold_and_memo_edges_match_json_dumps(
        tmp_path, monkeypatch, name, block_rows, c_encoder):
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(exp_io, "TABLE_BLOCK_ROWS", block_rows)
    payload = {"rows": _EDGE_TABLES[name]}
    assert _written(tmp_path, payload) == _reference(payload)


def _pooled_column(rng: random.Random, rows: int):
    """A column drawn from a small pool of values in runs, so whole
    blocks fold and others repeat a few values."""
    kind = rng.choice(_COLUMN_KINDS)
    pool = [_column_value(rng, kind) for _ in range(rng.choice((1, 2, 3, 8)))]
    if kind.startswith("float"):
        pool += rng.choice(((), (0.0,), (-0.0,), (0.0, -0.0)))
    column = []
    while len(column) < rows:
        column += [rng.choice(pool)] * rng.choice((1, 3, 50, 300))
    column = column[:rows]
    if kind == "float" and rng.random() < 0.3:
        return array("d", column)
    return column


def _pooled_table(rng: random.Random) -> RowTable:
    rows = _table_sizes(rng)
    keys = rng.sample(_TABLE_KEYS, rng.randint(1, len(_TABLE_KEYS)))
    return RowTable({key: _pooled_column(rng, rows) for key in keys})


def test_fuzzed_pooled_row_tables_match_json_dumps(tmp_path):
    rng = random.Random(20261020)
    for _ in range(80):
        payload = {"requests": _pooled_table(rng), "trace": [_pooled_table(rng)]}
        assert _written(tmp_path, payload) == _reference(payload)


def test_fuzzed_pooled_row_tables_match_json_dumps_without_the_c_encoder(
        tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(exp_io, "TABLE_BLOCK_ROWS", 5)
    rng = random.Random(13)
    for _ in range(20):
        payload = {"requests": _pooled_table(rng)}
        assert _written(tmp_path, payload) == _reference(payload)


def test_row_table_encodes_each_distinct_value_once_per_block(
        tmp_path, monkeypatch):
    """A block-constant column is encoded once per block, a repeated one
    once per distinct value per block, and a distinct one once per row."""
    counts = collections.Counter()

    def counting(value):
        counts[value] += 1
        return float.__repr__(value)

    monkeypatch.setitem(exp_io._COLUMN_ENCODERS, float, counting)
    blocks = 3
    n = blocks * TABLE_BLOCK_ROWS
    table = RowTable({"constant": [0.5] * n,
                      "repeated": _cycle((1.25, 2.5), n),
                      "distinct": [i / 7 for i in range(n)]})
    assert _written(tmp_path, table) == _reference(table)
    distinct = {i / 7: 1 for i in range(n)}
    assert counts == {0.5: blocks, 1.25: blocks, 2.5: blocks, **distinct}


def _self_containing_list():
    node = [1]
    node.append(node)
    return node


@pytest.mark.parametrize("at", [0, 1, 255, 256, 299])
@pytest.mark.parametrize("value", [
    [0.5, "x", None], {"nested": [1, {"deeper": None}]}, (), {},
])
def test_row_table_container_column_matches_json_dumps(tmp_path, at, value):
    table = RowTable({"a": [float(i) for i in range(300)],
                      "b": [None] * at + [value] + [1] * (299 - at)})
    assert _written(tmp_path, [table]) == _reference([table])


@pytest.mark.parametrize("value, error", [
    (object(), TypeError),
    ({(1, 2): 1}, TypeError),
    (_self_containing_list(), ValueError),
])
def test_row_table_errors_match_json_dumps(tmp_path, value, error):
    table = RowTable({"a": [float(i) for i in range(600)],
                      "b": [1] * 300 + [value] + [1] * 299})
    with pytest.raises(error) as expected:
        json.dumps({"requests": list(table)}, indent=2)
    with pytest.raises(error) as raised:
        write_json(str(tmp_path / "bad.json"), {"requests": table})
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("table", [
    RowTable({}),
    RowTable({"a": []}),
    RowTable({"a": [1.5]}),
    RowTable({"a": [None], "%s": ["x"]}),
    RowTable({"a": [[1, 2]], "b": [float("nan")]}),
])
def test_empty_and_one_row_tables_match_json_dumps(tmp_path, table):
    payload = {"rows": table, "more": [table, table]}
    assert _written(tmp_path, payload) == _reference(payload)


def test_row_table_behaves_as_a_sequence_of_dicts():
    rows = [{"id": i, "t": i / 4, "s": str(i)} for i in range(5)]
    table = _row_table(rows)
    assert len(table) == 5 and list(table) == rows
    assert table == rows and rows == table and table != rows[:-1]
    assert table != [dict(rows[0], id=9)] + rows[1:]
    assert table[-1] == rows[-1] and table[-5] == rows[0]
    for index in (5, -6):
        with pytest.raises(IndexError):
            table[index]
    part = table[1:4]
    assert isinstance(part, RowTable) and part == rows[1:4]
    assert table[::-2] == rows[::-2] and len(table[9:]) == 0
    assert list(reversed(table)) == rows[::-1]
    assert table.columns["t"] == [row["t"] for row in rows]
    row = table[0]
    row["id"] = 99
    next(iter(table))["t"] = -1.0
    assert table[0] == rows[0] and table.columns["id"][0] == 0
    assert RowTable({}) == [] and len(RowTable({})) == 0
    with pytest.raises(IndexError):
        RowTable({})[0]


@pytest.mark.parametrize("columns, error", [
    ({"a": [1, 2], "b": [1]}, ValueError),
    ({"a": [], "b": [None]}, ValueError),
    ({1: [1]}, TypeError),
    ({"a": [1], None: [2]}, TypeError),
])
def test_row_table_refuses_bad_columns(columns, error):
    with pytest.raises(error):
        RowTable(columns)


# ---------------------------------------------------------------------------
# (c) error parity
# ---------------------------------------------------------------------------

def _circular_dict():
    node = {"rows": []}
    node["rows"].append(node)
    return node


def _circular_list():
    node = [1]
    node.append(node)
    return node


@pytest.mark.parametrize("payload, error", [
    (_circular_dict(), ValueError),
    (_circular_list(), ValueError),
    ({"x": object()}, TypeError),
    ({"rows": [{"x": 1}, {"x": object()}]}, TypeError),
    ({"rows": [{(1, 2): 1}]}, TypeError),
    ({"nested": {(1, 2): [1]}}, TypeError),
])
def test_errors_match_json_dumps(tmp_path, payload, error):
    with pytest.raises(error) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(error) as raised:
        write_json(str(tmp_path / "bad.json"), payload)
    assert str(raised.value) == str(expected.value)


def test_shared_subtrees_are_not_circular(tmp_path):
    shared = {"a": [1, 2]}
    payload = {"first": shared, "second": [shared, shared]}
    assert _written(tmp_path, payload) == _reference(payload)


# ---------------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------------

def test_write_json_streams_without_building_the_document(tmp_path):
    """Peak allocation stays far below the output size (a writer that
    builds the whole text first allocates at least the output size)."""
    rows = [
        {"req_id": i, "status": "completed", "rank": i % 4,
         "arrival_s": i * 0.01, "first_token_s": i * 0.01 + 0.25,
         "finish_s": i * 0.01 + 1.5, "ttft_s": 0.25, "latency_s": 1.5,
         "gen_tokens": 32, "prompt_tokens": 16, "cache_hit": False,
         "slo_ttft_s": None}
        for i in range(20_000)
    ]
    payload = {"summary": {"requests": len(rows)}, "requests": rows}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(str(path), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 5_000_000
    assert peak < 0.10 * size, (peak, size)


def test_write_json_streams_a_row_table(tmp_path):
    """The same bound for a 20k-row :class:`RowTable`: its columns are
    built before tracing starts, so the peak is the writer's own."""
    n = 20_000
    table = RowTable({
        "req_id": list(range(n)), "status": ["completed"] * n,
        "rank": [i % 4 for i in range(n)],
        "arrival_s": [i * 0.01 for i in range(n)],
        "first_token_s": [i * 0.01 + 0.25 for i in range(n)],
        "finish_s": [i * 0.01 + 1.5 for i in range(n)],
        "ttft_s": [0.25] * n, "latency_s": [1.5] * n,
        "gen_tokens": [32] * n, "prompt_tokens": [16] * n,
        "cache_hit": [False] * n, "slo_ttft_s": [None] * n,
    })
    payload = {"summary": {"requests": n}, "requests": table}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(str(path), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 5_000_000
    assert peak < 0.10 * size, (peak, size)
