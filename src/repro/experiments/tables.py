"""Aggregate sweep rows into the paper's per-figure tables.

Each function consumes the row dicts produced by
:func:`repro.experiments.sweep.run_sweep` and emits a flat list of table
rows ready for :func:`repro.experiments.io.write_csv` or for the text
renderer :func:`format_table`:

* :func:`latency_table` — prefill vs decode latency and throughput per
  (model, scheme, kernel) point (the paper's model-latency figures),
* :func:`energy_table` — per-component energy shares per phase (the
  Fig. 14-style energy breakdown at model scale),
* :func:`ablation_table` — kernel-ladder speedups (naive → +OP+LC →
  +RC) whenever a sweep covered several kernels (the optimisation
  ablation at model scale),
* :func:`serving_table` — TTFT / TPOT / latency percentiles,
  SLO attainment, preemption counters and throughput aggregated from
  per-request serving rows (the :mod:`repro.serving` simulator's
  figure table),
* :func:`policy_table` — one row per scheduling-policy run over the
  same trace, with each policy's p95 TTFT normalised against the FCFS
  baseline (the latency/throughput-frontier comparison),
* :func:`cluster_table` — per-deployment rows of a cluster run topped
  with an aggregate ``cluster`` row (the multi-deployment serving
  comparison from :mod:`repro.serving.cluster`).
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

__all__ = [
    "latency_table",
    "energy_table",
    "ablation_table",
    "serving_table",
    "policy_table",
    "cluster_table",
    "format_table",
    "percentile",
    "percentiles",
    "safe_ratio",
]


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator``, or ``default`` when the denominator
    is zero (or negative, for quantities that are durations or counts).

    Degenerate aggregation edges — a run with zero output tokens, a
    rejected-only trace, a zero-span busy window — all reduce to a zero
    denominator somewhere; funnelling every rate/share/mean through this
    helper keeps those rows well-formed instead of scattering ``if``
    guards at each call site.

    >>> safe_ratio(6.0, 3.0)
    2.0
    >>> safe_ratio(6.0, 0.0)
    0.0
    >>> safe_ratio(0.0, 0.0, default=1.0)
    1.0
    """
    if denominator <= 0:
        return default
    return numerator / denominator

#: Row keys identifying one workload point (everything but the kernel).
_POINT_KEYS = ("model", "scheme", "batch", "prefill_tokens", "decode_tokens", "num_ranks")


def _ok(rows: Sequence[dict]) -> List[dict]:
    """Rows that completed (``status == "ok"``)."""
    return [r for r in rows if r.get("status") == "ok"]


def latency_table(rows: Sequence[dict]) -> List[dict]:
    """Prefill/decode latency and throughput per completed grid point."""
    table = []
    for r in _ok(rows):
        decode_tokens = r["decode_tokens"]
        decode_s = r["decode"]["latency"]["total_s"]
        table.append(
            {
                "model": r["model"],
                "scheme": r["scheme"],
                "kernel": r["kernel"],
                "batch": r["batch"],
                "prefill_tokens": r["prefill_tokens"],
                "num_ranks": r["num_ranks"],
                "prefill_s": r["prefill"]["latency"]["total_s"],
                "decode_s": decode_s,
                "decode_ms_per_token": safe_ratio(1e3 * decode_s, decode_tokens),
                "prefill_tokens_per_s": r["prefill"]["tokens_per_s"],
                "decode_tokens_per_s": r["decode"]["tokens_per_s"],
                "kv_cache_mb": r["kv_cache_bytes"] / 1e6,
                "weight_mb": r["weight_bytes"] / 1e6,
            }
        )
    return table


def energy_table(rows: Sequence[dict]) -> List[dict]:
    """Per-component energy (joules) for each phase of each grid point."""
    table = []
    for r in _ok(rows):
        for phase in ("prefill", "decode"):
            energy = r[phase]["energy"]
            total_pj = energy["total_pj"]
            entry = {
                "model": r["model"],
                "scheme": r["scheme"],
                "kernel": r["kernel"],
                "batch": r["batch"],
                "prefill_tokens": r["prefill_tokens"],
                "num_ranks": r["num_ranks"],
                "phase": phase,
                "total_j": energy["total_j"],
            }
            for component in ("dram", "wram", "compute", "host", "static"):
                pj = energy[f"{component}_pj"]
                entry[f"{component}_j"] = pj * 1e-12
                entry[f"{component}_share"] = safe_ratio(pj, total_pj)
            table.append(entry)
    return table


def ablation_table(rows: Sequence[dict]) -> List[dict]:
    """Kernel-ladder totals and speedups per workload point.

    Groups completed rows by workload point; within each group every
    kernel's end-to-end latency is reported together with its speedup
    over the slowest kernel present (``naive_pim_gemm`` when the full
    ladder ran), reproducing the OP/LC/RC ablation bars at model scale.
    """
    groups: Dict[tuple, List[dict]] = {}
    for r in _ok(rows):
        groups.setdefault(tuple(r[k] for k in _POINT_KEYS), []).append(r)
    table = []
    for key, group in groups.items():
        baseline = max(g["total_s"] for g in group)
        for g in sorted(group, key=lambda g: -g["total_s"]):
            entry = dict(zip(_POINT_KEYS, key))
            entry["kernel"] = g["kernel"]
            entry["total_s"] = g["total_s"]
            entry["speedup"] = safe_ratio(baseline, g["total_s"])
            table.append(entry)
    return table


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; 0.0 for an empty sequence.

    ``q`` is in ``[0, 100]``.  Matches numpy's default ("linear")
    definition without requiring an array round-trip.
    """
    return percentiles(values, (q,))[0]


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """:func:`percentile` at each ``q`` in ``qs``, sorting ``values`` once.

    >>> percentiles([4.0, 1.0, 3.0, 2.0], (0, 50, 100))
    [1.0, 2.5, 4.0]
    """
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return [0.0] * len(qs)
    ordered = sorted(values)
    last = len(ordered) - 1
    if last == 0:
        return [float(ordered[0])] * len(qs)
    out = []
    for q in qs:
        position = last * q / 100.0
        low = int(position)
        high = min(low + 1, last)
        frac = position - low
        out.append(float(ordered[low] * (1.0 - frac) + ordered[high] * frac))
    return out


#: Per-request fields a serving scope row reads for every request of
#: the scope, and for its completed requests only (``rank`` picks the
#: scope).
_SCOPE_FIELDS = ("rank", "status", "slo_ttft_s", "preemptions", "retries",
                 "failovers", "shed")
_DONE_FIELDS = ("rank", "gen_tokens", "finish_s", "ttft_s", "tpot_s",
                "latency_s", "queue_s", "slo_ttft_s", "cache_hit")

#: Defaults of the fields a per-request dict row may omit.
_ROW_DEFAULTS = {"slo_ttft_s": 0.0, "preemptions": 0, "retries": 0,
                 "failovers": 0, "shed": False, "cache_hit": False}


def _row_columns(rows: Sequence[dict]) -> tuple:
    """:func:`_scope_row`'s per-field lists from per-request dict rows."""
    def column(items: Sequence[dict], field: str) -> list:
        if field in _ROW_DEFAULTS:
            default = _ROW_DEFAULTS[field]
            return [r.get(field, default) for r in items]
        return [r[field] for r in items]

    done = [r for r in rows if r["status"] == "completed"]
    return ({field: column(rows, field) for field in _SCOPE_FIELDS},
            {field: column(done, field) for field in _DONE_FIELDS})


def _record_columns(records: Sequence, fields: Sequence[str]) -> List[list]:
    """One list per name in ``fields`` over request records: the
    records' own :meth:`~repro.serving.engine.records.ColumnRecords.columns`
    when they are held as columns, else the attribute gathered record by
    record (derived properties such as ``ttft_s`` included)."""
    columns = getattr(records, "columns", None)
    if columns is not None:
        return columns(fields)
    return [list(map(attrgetter(field), records)) for field in fields]


def _attr_columns(records: Sequence) -> tuple:
    """:func:`_scope_row`'s per-field lists straight from request
    records (columns or objects, see :func:`_record_columns`), with
    no row dicts and no per-record tuples."""
    names = tuple(dict.fromkeys(("status",) + _SCOPE_FIELDS + _DONE_FIELDS))
    column = dict(zip(names, _record_columns(records, names)))
    done = [status == "completed" for status in column["status"]]
    return ({field: column[field] for field in _SCOPE_FIELDS},
            {field: list(compress(column[field], done))
             for field in _DONE_FIELDS})


def _scope_row(scope: str, every: Dict[str, Sequence],
               done: Dict[str, Sequence]) -> dict:
    """One :func:`serving_table` row from per-field lists.

    ``every`` maps each :data:`_SCOPE_FIELDS` name to one value per
    request of the scope, ``done`` each :data:`_DONE_FIELDS` name to one
    value per completed request, both in request order.  Sums run
    left to right with Python's ``sum`` over those lists, so the row is
    bit-identical whether the lists came from dict rows or straight
    from request records.
    """
    status = every["status"]
    ttfts = done["ttft_s"]
    gens = done["gen_tokens"]
    # Single-token requests have no post-first-token interval; including
    # their 0.0 placeholder would bias TPOT low.
    tpots = list(compress(done["tpot_s"], [g >= 2 for g in gens]))
    latencies = done["latency_s"]
    output_tokens = sum(gens)
    window = max(done["finish_s"], default=0.0)
    slo_requests = sum(slo > 0 for slo in every["slo_ttft_s"])
    slo_met = sum(
        slo > 0 and ttft <= slo
        for ttft, slo in zip(ttfts, done["slo_ttft_s"])
    )
    hits = done["cache_hit"]
    hit_ttfts = list(compress(ttfts, hits))
    miss_ttfts = list(compress(ttfts, [not hit for hit in hits]))
    ttft_p50, ttft_p95, ttft_p99 = percentiles(ttfts, (50, 95, 99))
    hit_p50, hit_p95 = percentiles(hit_ttfts, (50, 95))
    miss_p50, miss_p95 = percentiles(miss_ttfts, (50, 95))
    latency_p50, latency_p95, latency_p99 = percentiles(
        latencies, (50, 95, 99)
    )
    return {
        "scope": scope,
        "requests": len(status),
        "completed": len(ttfts),
        "rejected": status.count("rejected"),
        "failed": status.count("failed"),
        "preemptions": sum(every["preemptions"]),
        "retries": sum(every["retries"]),
        "failovers": sum(every["failovers"]),
        "shed": sum(map(bool, every["shed"])),
        "slo_requests": slo_requests,
        "slo_attainment": safe_ratio(slo_met, slo_requests, default=1.0),
        "ttft_p50_s": ttft_p50,
        "ttft_p95_s": ttft_p95,
        "ttft_p99_s": ttft_p99,
        "ttft_mean_s": safe_ratio(sum(ttfts), len(ttfts)),
        "cache_hit_requests": len(hit_ttfts),
        "ttft_hit_p50_s": hit_p50,
        "ttft_hit_p95_s": hit_p95,
        "ttft_miss_p50_s": miss_p50,
        "ttft_miss_p95_s": miss_p95,
        "tpot_mean_s": safe_ratio(sum(tpots), len(tpots)),
        "tpot_p99_s": percentile(tpots, 99),
        "latency_p50_s": latency_p50,
        "latency_p95_s": latency_p95,
        "latency_p99_s": latency_p99,
        "queue_mean_s": safe_ratio(sum(done["queue_s"]), len(ttfts)),
        "output_tokens": output_tokens,
        "output_tokens_per_s": safe_ratio(output_tokens, window),
    }


def _rank_columns(columns: Dict[str, list], rank) -> Dict[str, list]:
    """The entries of ``columns`` whose ``rank`` is ``rank``, in order."""
    mask = [r == rank for r in columns["rank"]]
    return {field: list(compress(values, mask))
            for field, values in columns.items()}


def _scope_table(every: Dict[str, list], done: Dict[str, list]) -> List[dict]:
    """The ``all`` row followed by one row per rank, from
    :func:`_scope_row`'s per-field lists over all requests.

    Each rank's lists are sliced out of the gathered ones (order kept),
    so requests are gathered once.  A rank that holds every request (a
    one-rank run) is not aggregated again: its row is the ``all`` row
    under its own scope name.
    """
    ranks = set(every["rank"])
    if not ranks:
        return []
    table = [_scope_row("all", every, done)]
    if len(ranks) == 1:
        table.append(dict(table[0], scope=f"rank{every['rank'][0]}"))
        return table
    for rank in sorted(ranks):
        table.append(_scope_row(f"rank{rank}", _rank_columns(every, rank),
                                _rank_columns(done, rank)))
    return table


def serving_table(rows: Sequence[dict]) -> List[dict]:
    """Aggregate per-request serving rows into percentile summary rows.

    ``rows`` are per-request dicts as produced by
    :func:`repro.serving.metrics.record_rows` (keys ``rank``, ``status``,
    ``ttft_s``, ``tpot_s``, ``latency_s``, ``queue_s``, ``gen_tokens``,
    ``finish_s``, plus optional ``slo_ttft_s`` / ``preemptions`` and the
    fault-recovery counters ``retries`` / ``failovers`` / ``shed``).
    Returns one ``scope="all"`` row followed by one row per rank, each
    carrying request counts, TTFT/TPOT/latency percentiles over
    *completed* requests, SLO attainment over SLO-carrying requests
    (rejected requests count as missed; 1.0 when no request carries an
    SLO), preemption counts, and output-token throughput over the
    scope's busy window (trace start to last completion).  When rows
    carry a ``cache_hit`` flag (prefix-cache runs), TTFT percentiles are
    additionally split by hit/miss so the cache's first-token win is
    directly visible.  :func:`repro.serving.metrics.metrics_table`
    builds the same rows straight from request records
    (:func:`_attr_columns`) through the same :func:`_scope_row`.
    """
    return _scope_table(*_row_columns(rows))


#: Summary keys copied verbatim into :func:`policy_table` rows.
_POLICY_KEYS = (
    "requests", "completed", "rejected", "preemptions",
    "slo_requests", "slo_attainment",
    "ttft_p50_s", "ttft_p95_s", "ttft_p99_s",
    "tpot_mean_s", "latency_p95_s",
    "output_tokens_per_s", "energy_mj_per_token", "makespan_s",
    "cache_hit_rate", "kv_dedup_factor",
)


def policy_table(summary_rows: Sequence[dict]) -> List[dict]:
    """Compare scheduling-policy runs over the same trace.

    ``summary_rows`` are flat serving summaries (one per policy run, as
    produced by :func:`repro.serving.metrics.summary`, each carrying a
    ``policy`` key and optionally a ``scenario`` key).  Returns one row
    per run with the headline latency/SLO/throughput metrics, plus
    ``ttft_p95_vs_fcfs`` — the FCFS baseline's p95 TTFT divided by this
    policy's (> 1 means the policy improves tail TTFT) — whenever an
    ``fcfs`` run with the same scenario is present.
    """
    fcfs_p95: Dict[object, float] = {}
    for row in summary_rows:
        if row.get("policy") == "fcfs":
            fcfs_p95[row.get("scenario")] = row.get("ttft_p95_s", 0.0)
    table = []
    for row in summary_rows:
        entry = {"policy": row.get("policy", "")}
        if "scenario" in row:
            entry["scenario"] = row["scenario"]
        for key in _POLICY_KEYS:
            if key in row:
                entry[key] = row[key]
        baseline = fcfs_p95.get(row.get("scenario"), 0.0)
        entry["ttft_p95_vs_fcfs"] = safe_ratio(baseline, row.get("ttft_p95_s", 0.0))
        table.append(entry)
    return table


#: Deployment-row keys summed into the aggregate ``cluster`` row.
_CLUSTER_SUM_KEYS = (
    "replicas", "replicas_peak", "routed", "requests", "completed",
    "rejected", "preemptions", "output_tokens", "energy_j",
    "scale_ups", "scale_downs",
)

#: Deployment-row keys copied verbatim into the per-deployment rows.
_CLUSTER_ROW_KEYS = (
    "model", "scheme", "tier", "replicas", "replicas_peak", "routed",
    "requests", "completed", "rejected", "preemptions",
    "slo_attainment", "ttft_p50_s", "ttft_p95_s", "tpot_mean_s",
    "latency_p95_s", "output_tokens", "output_tokens_per_s",
    "energy_j", "energy_mj_per_token", "utilization", "makespan_s",
    "scale_ups", "scale_downs",
)


def cluster_table(deployment_rows: Sequence[dict]) -> List[dict]:
    """Aggregate per-deployment cluster rows into the cluster table.

    ``deployment_rows`` are flat per-deployment summaries (as produced
    by :func:`repro.serving.metrics.cluster_rows`, each carrying a
    ``deployment`` key plus the headline serving metrics and replica /
    scale counters).  Returns one ``deployment="cluster"`` total row —
    counters summed, makespan the max, the throughput and energy rates
    re-derived from the summed counters (per-deployment percentiles do
    not aggregate and are left blank there) — followed by one row per
    deployment with its ``routed_share`` of the cluster's traffic.
    """
    if not deployment_rows:
        return []
    total: Dict[str, object] = {"deployment": "cluster"}
    for key in _CLUSTER_SUM_KEYS:
        total[key] = sum(r.get(key, 0) for r in deployment_rows)
    makespan = max(r.get("makespan_s", 0.0) for r in deployment_rows)
    total["makespan_s"] = makespan
    total["routed_share"] = 1.0
    total["output_tokens_per_s"] = safe_ratio(total["output_tokens"], makespan)
    total["energy_mj_per_token"] = safe_ratio(
        1e3 * total["energy_j"], total["output_tokens"]
    )
    total_routed = total["routed"]
    table = [total]
    for row in deployment_rows:
        entry = {"deployment": row.get("deployment", "")}
        for key in _CLUSTER_ROW_KEYS:
            if key in row:
                entry[key] = row[key]
        entry["routed_share"] = safe_ratio(row.get("routed", 0), total_routed)
        table.append(entry)
    return table


def format_table(
    rows: Sequence[dict],
    columns: Optional[Sequence[str]] = None,
    float_digits: int = 4,
) -> str:
    """Render table rows as aligned monospace text for the CLI.

    ``columns`` defaults to the keys of the first row; floats are
    formatted with ``float_digits`` significant digits.
    """
    if not rows:
        return "(empty table)"
    cols = list(columns) if columns is not None else list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.{float_digits}g}"
        return str(value)

    rendered = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered)
    return "\n".join([header, rule, body])
