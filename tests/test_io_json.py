"""``write_json`` writes exactly ``json.dumps(payload, indent=2) + "\\n"``.

The writer streams each all-scalar container through the stdlib C
encoder; these tests hold it to the pure-Python ``indent=2`` encoder's
bytes on real serving payloads and on a seeded structural fuzzer, to
its errors on bad input, and to a memory bound that only a streaming
writer meets.
"""

import enum
import json
import random
import tracemalloc

import pytest

from repro.experiments.io import write_json
from repro.serving import cli as serving_cli


def _reference(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


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
