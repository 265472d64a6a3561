"""``python -m repro.serving`` CLI: smoke, outputs and round-trips."""

import json

from repro.experiments.io import read_csv, read_json
from repro.serving import main


def test_cli_smoke_prints_metrics(capsys):
    code = main(["--model", "gpt-125m", "--requests", "8", "--ranks", "2",
                 "--prompt-mean", "16", "--gen-mean", "8", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Serving metrics" in out
    assert "ttft_p99_s" in out and "output_tokens_per_s" in out


def test_cli_json_output_round_trips(tmp_path):
    out = str(tmp_path / "serving.json")
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "1",
                 "--prompt-mean", "16", "--gen-mean", "4", "--quiet",
                 "--output", out])
    assert code == 0
    payload = read_json(out)
    assert payload["summary"]["completed"] == 6
    assert payload["summary"]["ttft_p99_s"] > 0
    assert payload["summary"]["output_tokens_per_s"] > 0
    assert len(payload["requests"]) == 6
    assert len(payload["trace"]) == 6
    # JSON is byte-faithful by construction.
    with open(out) as fh:
        assert json.load(fh) == payload


def test_cli_csv_output_round_trips(tmp_path):
    out = str(tmp_path / "serving.csv")
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "2",
                 "--prompt-mean", "16", "--gen-mean", "4", "--quiet",
                 "--output", out])
    assert code == 0
    rows = read_csv(out)
    assert [r["scope"] for r in rows] == ["all", "rank0", "rank1"]
    for row in rows:
        assert isinstance(row["ttft_p99_s"], float)
        assert isinstance(row["tpot_mean_s"], float)
        assert isinstance(row["output_tokens"], int)
        assert row["output_tokens_per_s"] > 0


def test_cli_rejects_bad_arguments(capsys):
    assert main(["--model", "gpt-unknown", "--quiet"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["--model", "gpt-125m", "--kernel", "fused", "--quiet"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["--model", "gpt-125m", "--arrival-rate", "0", "--quiet"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_rejects_scheme_that_cannot_run_on_the_kernel(capsys):
    """A scheme whose LUTs overflow WRAM is a usage error, not a crash."""
    for flags in (["--scheme", "W8A8"],
                  ["--cluster", "--deployments", "gpt-125m:W8A8"]):
        assert main(["--requests", "5", "--quiet"] + flags) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("error:") and "W8A8" in err, err
    assert main(["--kernel", "naive_pim_gemm", "--scheme", "W8A8",
                 "--requests", "4", "--quiet"]) == 0


def test_cli_rejects_nonsensical_numeric_inputs(capsys):
    """Negative/zero numeric flags exit 2 with a message naming the flag
    (not an internal dataclass field) and no traceback."""
    cases = [
        (["--requests", "-5"], "--requests"),
        (["--ranks", "0"], "--ranks"),
        (["--dpus-per-rank", "0"], "--dpus-per-rank"),
        (["--max-batch", "0"], "--max-batch"),
        (["--chunk-tokens", "0"], "--chunk-tokens"),
        (["--chunk-tokens", "-3"], "--chunk-tokens"),
        (["--arrival-rate", "-1"], "--arrival-rate"),
        (["--prompt-mean", "0"], "--prompt-mean"),
        (["--gen-mean", "0.5"], "--gen-mean"),
        (["--prompt-max", "0"], "--prompt-max"),
        (["--gen-max", "-1"], "--gen-max"),
        (["--sigma", "-0.1"], "--sigma"),
        (["--seed", "-1"], "--seed"),
        (["--tiers", "0"], "--tiers"),
        (["--workers", "0"], "--workers"),
        (["--sessions", "0"], "--sessions"),
        (["--turns", "0.5"], "--turns"),
        (["--think-time", "-1"], "--think-time"),
        (["--prompt-pool", "-1"], "--prompt-pool"),
        (["--system-prompt-tokens", "-1"], "--system-prompt-tokens"),
        (["--cluster", "--faults", "7", "--stall", "nan"], "--stall"),
        (["--cluster", "--faults", "7", "--retry-backoff", "nan"],
         "--retry-backoff"),
        (["--cluster", "--autoscale", "--scale-interval", "nan"],
         "--scale-interval"),
    ]
    for flags, name in cases:
        assert main(["--model", "gpt-125m", "--quiet"] + flags) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err, (flags, err)
        assert "Traceback" not in err


def test_cli_engine_flag(tmp_path, capsys):
    out = str(tmp_path / "loop.json")
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "1",
                 "--engine", "loop", "--prompt-mean", "16", "--gen-mean", "4",
                 "--quiet", "--output", out])
    assert code == 0
    assert read_json(out)["summary"]["engine"] == "loop"
    assert main(["--model", "gpt-125m", "--engine", "turbo", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unknown serving engine" in err and "event" in err
    assert "Traceback" not in err
    # The structure-of-arrays engine is gone: its name is refused too.
    for argv in (["--engine", "soa"], ["--cluster", "--engine", "soa"]):
        assert main(["--model", "gpt-125m", "--quiet", *argv]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown serving engine 'soa'" in err
        assert "Traceback" not in err


def test_cli_compare_workers_match_sequential(tmp_path):
    """--workers parallelises the --compare fan-out without changing the
    table (deterministic order, identical rows)."""
    args = ["--model", "gpt-125m", "--requests", "8", "--ranks", "1",
            "--compare", "--prompt-mean", "32", "--gen-mean", "8", "--quiet"]
    seq, par = str(tmp_path / "seq.json"), str(tmp_path / "par.json")
    assert main(args + ["--output", seq]) == 0
    assert main(args + ["--workers", "4", "--output", par]) == 0
    assert (
        read_json(seq)["policy_comparison"] == read_json(par)["policy_comparison"]
    )


def test_cli_rejects_unknown_policy_with_clear_error(capsys):
    assert main(["--model", "gpt-125m", "--policy", "edf", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unknown scheduling policy" in err and "'edf'" in err
    # The error names the valid policies, not a raw traceback.
    assert "fcfs" in err and "chunked_prefill" in err
    assert "Traceback" not in err


def test_cli_rejects_unknown_scenario_with_clear_error(capsys):
    assert main(["--model", "gpt-125m", "--scenario", "weekly", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "'weekly'" in err
    assert "bursty" in err and "diurnal" in err
    assert "Traceback" not in err


def test_cli_rejects_bad_slo_and_tier_arguments(capsys):
    assert main(["--model", "gpt-125m", "--tiers", "0", "--quiet"]) == 2
    assert "--tiers" in capsys.readouterr().err
    assert main(["--model", "gpt-125m", "--tiers", "2", "--slo-ttft", "1.0",
                 "--quiet"]) == 2
    assert "--slo-ttft" in capsys.readouterr().err
    assert main(["--model", "gpt-125m", "--slo-ttft", "fast", "--quiet"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_cli_policy_and_scenario_run(tmp_path):
    out = str(tmp_path / "chunked.json")
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "1",
                 "--policy", "chunked_prefill", "--chunk-tokens", "8",
                 "--scenario", "diurnal", "--prompt-mean", "48",
                 "--gen-mean", "4", "--quiet", "--output", out])
    assert code == 0
    payload = read_json(out)
    assert payload["summary"]["policy"] == "chunked_prefill"
    assert payload["trace_spec"]["scenario"] == "diurnal"
    assert payload["summary"]["completed"] == 6


def test_cli_conversational_prefix_cache_run(tmp_path):
    """The conversational scenario plus ``--prefix-cache`` wires through
    to the spec, the config and the cache counters in the payload."""
    out = str(tmp_path / "conv.json")
    code = main(["--model", "gpt-125m", "--requests", "24", "--ranks", "1",
                 "--scenario", "conversational", "--prefix-cache",
                 "--sessions", "6", "--turns", "4", "--think-time", "5",
                 "--prompt-pool", "2", "--system-prompt-tokens", "48",
                 "--prompt-mean", "32", "--prompt-max", "128",
                 "--gen-mean", "16", "--gen-max", "64",
                 "--arrival-rate", "0.05", "--quiet", "--output", out])
    assert code == 0
    payload = read_json(out)
    spec = payload["trace_spec"]
    assert spec["scenario"] == "conversational"
    assert spec["sessions"] == 6
    assert spec["turns_mean"] == 4.0
    assert spec["think_time_mean_s"] == 5.0
    assert spec["system_prompt_pool"] == 2
    assert spec["system_prompt_tokens"] == 48
    flat = payload["summary"]
    assert flat["prefix_cache"] is True
    assert flat["cache_hits"] > 0
    assert flat["cache_hit_rate"] > 0.0
    assert flat["kv_dedup_factor"] >= 1.0
    # Session structure survives into the trace and request rows.
    assert any(r["session_id"] >= 0 for r in payload["trace"])
    assert any(r["cache_hit"] for r in payload["requests"])


def test_cli_compare_emits_policy_table(tmp_path, capsys):
    out = str(tmp_path / "compare.json")
    code = main(["--model", "gpt-125m", "--requests", "8", "--ranks", "1",
                 "--compare", "--prompt-mean", "32", "--gen-mean", "8",
                 "--tiers", "2", "--slo-ttft", "100,1000",
                 "--output", out])
    assert code == 0
    assert "Scheduling-policy comparison" in capsys.readouterr().out
    payload = read_json(out)
    comparison = payload["policy_comparison"]
    assert [row["policy"] for row in comparison] == [
        "chunked_prefill", "fcfs", "priority", "sjf"
    ]
    assert all(row["scenario"] == "steady" for row in comparison)
    fcfs = next(row for row in comparison if row["policy"] == "fcfs")
    assert fcfs["ttft_p95_vs_fcfs"] == 1.0


def test_cli_zero_requests(tmp_path):
    out = str(tmp_path / "empty.json")
    assert main(["--model", "gpt-125m", "--requests", "0", "--quiet",
                 "--output", out]) == 0
    payload = read_json(out)
    assert payload["requests"] == []
    assert payload["metrics"] == []


def test_cli_trace_out_writes_valid_chrome_trace(tmp_path, capsys):
    from repro.obs import validate_chrome_trace

    path = str(tmp_path / "trace.json")
    code = main(["--model", "gpt-125m", "--requests", "8", "--ranks", "2",
                 "--prompt-mean", "16", "--gen-mean", "8",
                 "--trace-out", path])
    assert code == 0
    assert "perfetto" in capsys.readouterr().out
    with open(path) as fh:
        counts = validate_chrome_trace(json.load(fh))
    assert counts["slices"] > 0
    assert counts["counters"] > 0  # full level samples counter tracks
    assert counts["metadata"] > 0


def test_cli_timeline_out_csv_and_json(tmp_path):
    csv_path = str(tmp_path / "timeline.csv")
    json_path = str(tmp_path / "timeline.json")
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "1",
                 "--prompt-mean", "16", "--gen-mean", "4", "--quiet",
                 "--trace-out", str(tmp_path / "t.json"),
                 "--timeline-out", csv_path])
    assert code == 0
    rows = read_csv(csv_path)
    assert rows and all(isinstance(r["event"], str) for r in rows)
    assert {"arrive", "admit", "finish"} <= {r["event"] for r in rows}
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "1",
                 "--prompt-mean", "16", "--gen-mean", "4", "--quiet",
                 "--timeline-out", json_path])
    assert code == 0
    payload = read_json(json_path)
    assert payload["level"] == "full"
    assert payload["metrics"]["counters"]["arrivals"] == 6


def test_cli_trace_level_lifecycle_drops_counter_tracks(tmp_path):
    from repro.obs import validate_chrome_trace

    path = str(tmp_path / "trace.json")
    code = main(["--model", "gpt-125m", "--requests", "6", "--ranks", "1",
                 "--prompt-mean", "16", "--gen-mean", "4", "--quiet",
                 "--trace-out", path, "--trace-level", "lifecycle"])
    assert code == 0
    with open(path) as fh:
        counts = validate_chrome_trace(json.load(fh))
    assert counts["slices"] > 0
    assert counts["counters"] == 0  # no sampled series at lifecycle level


def test_cli_rejects_unknown_trace_level(capsys):
    assert main(["--model", "gpt-125m", "--trace-level", "debug",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "--trace-level" in err and "lifecycle" in err and "full" in err
    assert "Traceback" not in err


def test_cli_no_trace_flags_writes_nothing(tmp_path):
    code = main(["--model", "gpt-125m", "--requests", "4", "--ranks", "1",
                 "--prompt-mean", "16", "--gen-mean", "4", "--quiet"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []
