"""Command-line serving simulator: ``python -m repro.serving``.

Generates a seeded synthetic trace (steady Poisson, bursty MMPP,
diurnal or conversational session arrivals; log-normal lengths;
optional priority tiers with TTFT SLOs), serves it on a sharded UPMEM
deployment with continuous batching under the selected scheduling
policy — optionally with the per-rank KV prefix cache — prints the
TTFT/TPOT/latency/throughput table, and writes the full results to
JSON or CSV.

Examples
--------
Serve a 256-request trace on four gpt-1.3b replicas::

    python -m repro.serving --model gpt-1.3b --requests 256 \\
        --arrival-rate 4 --output /tmp/serving.json

Chunked prefills on a bursty long-prompt trace::

    python -m repro.serving --policy chunked_prefill --scenario bursty \\
        --prompt-mean 512 --chunk-tokens 32

Compare every scheduling policy on the same trace, one process per
policy::

    python -m repro.serving --compare --scenario bursty --requests 128 \\
        --workers 4

Conversational sessions with the KV prefix cache (shared system
prompts and per-turn context carry-over admit at the cost of only the
uncached suffix; keep ``--prompt-max``/``--gen-max`` small so the
deepest carried context stays inside the per-bank working set)::

    python -m repro.serving --scenario conversational --prefix-cache \\
        --sessions 64 --turns 4 --requests 256 \\
        --prompt-mean 48 --prompt-max 96 --gen-mean 24 --gen-max 48

Scale check: a 100k-request bursty trace on the event-driven engine::

    python -m repro.serving --requests 100000 --scenario bursty \\
        --model gpt-1.3b --quiet

Record a full lifecycle trace and open it in Perfetto
(https://ui.perfetto.dev)::

    python -m repro.serving --scenario bursty --requests 128 \\
        --trace-out /tmp/serving.trace.json \\
        --timeline-out /tmp/serving.timeline.csv

Route a bursty trace across a heterogeneous cluster of deployments
(``[N*]model[:scheme[:ranks[:tier]]]`` entries, comma-separated) with
least-KV routing and queue-driven autoscaling::

    python -m repro.serving --cluster \\
        --deployments "2*gpt-125m:W1A3:2:0,2*gpt-350m:W1A3:2:1" \\
        --router least_kv --autoscale --scale-max 4 --scale-interval 5 \\
        --scenario bursty --requests 2000 --arrival-rate 40

Chaos run: seeded replica crashes and stalls with retries, health-aware
routing, crash replacement and tier shedding::

    python -m repro.serving --cluster --faults 7 --crash-rate 0.5 \\
        --stall 2 --retry-max 3 --retry-backoff 0.5 --shed-tier 1 \\
        --tiers 2 --autoscale --scale-interval 1 \\
        --scenario bursty --requests 2000 --arrival-rate 40
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import List, Optional, Sequence, Tuple

from repro.experiments.io import write_csv, write_json
from repro.experiments.tables import cluster_table, format_table, policy_table
from repro.kernels.cost import COST_KERNELS
from repro.obs import (
    TRACE_LEVELS,
    RecordingTracer,
    write_chrome_trace,
    write_timeline,
)
from repro.serving.autoscale import Autoscaler, AutoscalerConfig
from repro.serving.cluster import Deployment, simulate_cluster
from repro.serving.faults import FaultPlan, RetryPolicy
from repro.serving.metrics import (
    cluster_rows,
    cluster_summary,
    metrics_table,
    record_rows,
    summary,
)
from repro.serving.policy import POLICIES
from repro.serving.routing import ROUTERS
from repro.serving.engine import ENGINES, ServingConfig, simulate_trace
from repro.serving.trace import Request, SCENARIOS, TraceSpec, generate_trace, trace_rows

__all__ = ["build_parser", "main"]

#: Heterogeneous default for ``--cluster``: four deployments in two model
#: tiers, two rank replicas each.
DEFAULT_DEPLOYMENTS = "2*gpt-125m:W1A3:2:0,2*gpt-350m:W1A3:2:1"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro.serving``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description=(
            "Continuous-batching serving simulation over the LUT-GEMM / "
            "DRAM-PIM stack."
        ),
    )
    deploy = parser.add_argument_group("deployment")
    deploy.add_argument("--model", default="gpt-350m", metavar="NAME",
                        help="model config name (default gpt-350m)")
    deploy.add_argument("--scheme", default="W1A3", metavar="WxAy",
                        help="weight-projection quantization scheme")
    deploy.add_argument("--kernel", default="lut_gemm", metavar="K",
                        help=f"weight-GEMM kernel ({', '.join(COST_KERNELS)})")
    deploy.add_argument("--ranks", type=int, default=4, metavar="N",
                        help="model replicas (one UPMEM rank each)")
    deploy.add_argument("--dpus-per-rank", type=int, default=64, metavar="N",
                        help="DPUs per replica")
    deploy.add_argument("--max-batch", type=int, default=16, metavar="N",
                        help="concurrent decoding requests per replica")
    deploy.add_argument("--engine", default="event", metavar="NAME",
                        help=f"decode-advance engine ({', '.join(ENGINES)}; "
                             "event = closed-form multi-token segments, "
                             "loop = per-token reference)")
    sched = parser.add_argument_group("scheduling")
    sched.add_argument("--policy", default="fcfs", metavar="NAME",
                       help=f"scheduling policy ({', '.join(sorted(POLICIES))})")
    sched.add_argument("--chunk-tokens", type=int, default=32, metavar="T",
                       help="prefill token budget per iteration "
                            "(chunked_prefill policy)")
    sched.add_argument("--prefix-cache", action="store_true",
                       help="enable the per-rank KV prefix cache (shared "
                            "system prompts and conversational carry-over "
                            "admit at the cost of only the uncached suffix)")
    sched.add_argument("--compare", action="store_true",
                       help="run every scheduling policy on the same trace "
                            "and print the policy-comparison table")
    sched.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for the --compare policy "
                            "fan-out (1 = sequential; rows keep the "
                            "alphabetical policy order either way)")
    trace = parser.add_argument_group("trace")
    trace.add_argument("--requests", type=int, default=64, metavar="N",
                       help="number of requests in the synthetic trace")
    trace.add_argument("--scenario", default="steady", metavar="NAME",
                       help=f"arrival scenario ({', '.join(SCENARIOS)})")
    trace.add_argument("--arrival-rate", type=float, default=4.0, metavar="R",
                       help="mean arrivals per second (base rate)")
    trace.add_argument("--prompt-mean", type=float, default=128.0, metavar="T",
                       help="mean prompt length in tokens")
    trace.add_argument("--prompt-max", type=int, default=1024, metavar="T",
                       help="prompt length clip")
    trace.add_argument("--gen-mean", type=float, default=64.0, metavar="T",
                       help="mean generation length in tokens")
    trace.add_argument("--gen-max", type=int, default=512, metavar="T",
                       help="generation length clip")
    trace.add_argument("--sigma", type=float, default=0.6, metavar="S",
                       help="log-normal shape for both length distributions")
    trace.add_argument("--tiers", type=int, default=1, metavar="N",
                       help="priority tiers sampled uniformly (tier 0 is "
                            "most important)")
    trace.add_argument("--slo-ttft", default=None, metavar="S0,S1,...",
                       help="comma-separated per-tier TTFT SLOs in seconds "
                            "(must match --tiers in length)")
    trace.add_argument("--sessions", type=int, default=8, metavar="N",
                       help="conversation sessions (conversational scenario)")
    trace.add_argument("--turns", type=float, default=4.0, metavar="T",
                       help="mean turns per session (conversational)")
    trace.add_argument("--think-time", type=float, default=10.0, metavar="S",
                       help="mean think-time gap between turns in seconds "
                            "(conversational)")
    trace.add_argument("--prompt-pool", type=int, default=4, metavar="N",
                       help="shared system-prompt pool size (conversational; "
                            "0 disables shared prefixes)")
    trace.add_argument("--system-prompt-tokens", type=int, default=128,
                       metavar="T",
                       help="tokens in each shared system prompt "
                            "(conversational)")
    trace.add_argument("--seed", type=int, default=0, metavar="N",
                       help="trace RNG seed")
    cluster = parser.add_argument_group("cluster")
    cluster.add_argument("--cluster", action="store_true",
                         help="route the trace across multiple deployments "
                              "instead of sharding one (enables the other "
                              "cluster flags)")
    cluster.add_argument("--deployments", default=None, metavar="SPEC",
                         help="comma-separated deployment entries "
                              "[N*]model[:scheme[:ranks[:tier]]] (default "
                              f"{DEFAULT_DEPLOYMENTS!r})")
    cluster.add_argument("--router", default=None, metavar="NAME",
                         help="request-routing policy "
                              f"({', '.join(sorted(ROUTERS))}; default "
                              "round_robin)")
    cluster.add_argument("--autoscale", action="store_true",
                         help="enable the queue-driven autoscaler (replica "
                              "cold starts are charged as DRAM-PIM weight "
                              "broadcasts)")
    cluster.add_argument("--scale-max", type=int, default=None, metavar="N",
                         help="autoscaler replica cap per deployment "
                              "(default 8)")
    cluster.add_argument("--scale-interval", type=float, default=None,
                         metavar="S",
                         help="autoscaler control interval in simulated "
                              "seconds (default 60)")
    faults = parser.add_argument_group("faults")
    faults.add_argument("--faults", type=int, default=None, metavar="SEED",
                        help="inject a seeded fault plan (replica crashes, "
                             "and stalls with --stall) sampled over the "
                             "trace horizon; enables the recovery loop "
                             "(retries with backoff, health-aware routing, "
                             "crash replacement under --autoscale)")
    faults.add_argument("--crash-rate", type=float, default=None, metavar="P",
                        help="per-replica crash probability for the sampled "
                             "plan (default 0.25)")
    faults.add_argument("--stall", type=float, default=None, metavar="S",
                        help="stall-window duration in seconds; each replica "
                             "freezes once with the crash probability "
                             "(default 0 = no stalls)")
    faults.add_argument("--retry-max", type=int, default=None, metavar="N",
                        help="retry budget per request lost to a crash "
                             "(default 3; exhausted requests end failed)")
    faults.add_argument("--retry-backoff", type=float, default=None,
                        metavar="S",
                        help="base retry backoff in seconds, doubled per "
                             "attempt with seeded jitter (default 0.5)")
    faults.add_argument("--shed-tier", type=int, default=None, metavar="T",
                        help="after a crash, shed arrivals of priority >= T "
                             "while the fleet-wide queue exceeds the "
                             "high-water mark (default: no shedding)")
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a lifecycle trace of the primary run and write it as "
             "Chrome trace-event JSON (opens in Perfetto / chrome://tracing)",
    )
    obs.add_argument(
        "--timeline-out", default=None, metavar="PATH",
        help="write the recorded event timeline (.csv = flat event rows; "
             "anything else a JSON payload bundling events, sampled series "
             "and the metric-registry snapshot)",
    )
    obs.add_argument(
        "--trace-level", default="full", metavar="LEVEL",
        help=f"trace detail ({', '.join(TRACE_LEVELS)}; full adds "
             "decode-segment slices and sampled KV/batch/queue counter "
             "tracks; default full)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write results to PATH (.csv writes the metrics table, or the "
             "policy-comparison table under --compare; anything else the "
             "full JSON payload)",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stdout tables")
    return parser


def _validate_args(args: argparse.Namespace) -> None:
    """Reject nonsensical numeric inputs with flag-named messages.

    The dataclass validators downstream would also catch most of these,
    but their messages name internal fields; validating here keeps the
    CLI contract (exit 2, message names the flag) uniform with the
    unknown-name handling for ``--policy`` / ``--scenario``.
    """
    checks = (
        (args.requests >= 0, "--requests must be >= 0", args.requests),
        (args.ranks >= 1, "--ranks must be >= 1", args.ranks),
        (args.dpus_per_rank >= 1, "--dpus-per-rank must be >= 1",
         args.dpus_per_rank),
        (args.max_batch >= 1, "--max-batch must be >= 1", args.max_batch),
        (args.chunk_tokens >= 1, "--chunk-tokens must be >= 1",
         args.chunk_tokens),
        (args.arrival_rate > 0, "--arrival-rate must be positive",
         args.arrival_rate),
        (args.prompt_mean >= 1, "--prompt-mean must be >= 1 token",
         args.prompt_mean),
        (args.gen_mean >= 1, "--gen-mean must be >= 1 token", args.gen_mean),
        (args.prompt_max >= 1, "--prompt-max must be >= 1", args.prompt_max),
        (args.gen_max >= 1, "--gen-max must be >= 1", args.gen_max),
        (args.sigma >= 0, "--sigma must be >= 0", args.sigma),
        (args.seed >= 0, "--seed must be >= 0", args.seed),
        (args.tiers >= 1, "--tiers must be >= 1", args.tiers),
        (args.workers >= 1, "--workers must be >= 1", args.workers),
        (args.sessions >= 1, "--sessions must be >= 1", args.sessions),
        (args.turns >= 1, "--turns must be >= 1", args.turns),
        (args.think_time >= 0, "--think-time must be >= 0", args.think_time),
        (args.prompt_pool >= 0, "--prompt-pool must be >= 0",
         args.prompt_pool),
        (args.system_prompt_tokens >= 0,
         "--system-prompt-tokens must be >= 0", args.system_prompt_tokens),
    )
    for ok, message, value in checks:
        if not ok:
            raise ValueError(f"{message}, got {value}")
    _validate_cluster_args(args)


def _validate_cluster_args(args: argparse.Namespace) -> None:
    """Cluster-flag coupling and value checks (exit-2 contract)."""
    if not args.cluster:
        for flag, used in (
            ("--deployments", args.deployments is not None),
            ("--router", args.router is not None),
            ("--autoscale", args.autoscale),
            ("--scale-max", args.scale_max is not None),
            ("--scale-interval", args.scale_interval is not None),
            ("--faults", args.faults is not None),
        ):
            if used:
                raise ValueError(f"{flag} requires --cluster")
    if args.faults is None:
        for flag, used in (
            ("--crash-rate", args.crash_rate is not None),
            ("--stall", args.stall is not None),
            ("--retry-max", args.retry_max is not None),
            ("--retry-backoff", args.retry_backoff is not None),
            ("--shed-tier", args.shed_tier is not None),
        ):
            if used:
                raise ValueError(f"{flag} requires --faults")
    else:
        if args.faults < 0:
            raise ValueError(f"--faults seed must be >= 0, got {args.faults}")
        if args.crash_rate is not None and not 0.0 <= args.crash_rate <= 1.0:
            raise ValueError(
                f"--crash-rate must be in [0, 1], got {args.crash_rate}"
            )
        if args.stall is not None and not 0.0 <= args.stall < math.inf:
            raise ValueError(
                f"--stall must be finite and >= 0, got {args.stall}"
            )
        if args.retry_max is not None and args.retry_max < 0:
            raise ValueError(
                f"--retry-max must be >= 0, got {args.retry_max}"
            )
        if (args.retry_backoff is not None
                and not 0.0 < args.retry_backoff < math.inf):
            raise ValueError(
                f"--retry-backoff must be finite and positive, got "
                f"{args.retry_backoff}"
            )
        if args.shed_tier is not None and args.shed_tier < 0:
            raise ValueError(
                f"--shed-tier must be >= 0, got {args.shed_tier}"
            )
    if not args.cluster:
        return
    if args.compare:
        raise ValueError("--compare is not supported with --cluster")
    router = args.router if args.router is not None else "round_robin"
    if router not in ROUTERS:
        raise ValueError(
            f"--router must be one of {', '.join(sorted(ROUTERS))}, "
            f"got {router!r}"
        )
    if args.scale_max is not None and args.scale_max < 1:
        raise ValueError(f"--scale-max must be >= 1, got {args.scale_max}")
    if (args.scale_interval is not None
            and not 0.0 < args.scale_interval < math.inf):
        raise ValueError(
            f"--scale-interval must be finite and positive, got "
            f"{args.scale_interval}"
        )


def _parse_deployments(text: str, args: argparse.Namespace) -> List[Deployment]:
    """Build the deployment list from a ``--deployments`` spec string.

    Entries are comma-separated ``[N*]model[:scheme[:ranks[:tier]]]``;
    omitted fields default to the corresponding single-deployment flags
    (``--scheme`` / ``--ranks``) and tier 0.  ``N*`` expands to N
    identically-configured deployments, each still an independent
    routing target with its own replicas and prefix caches.
    """
    deployments: List[Deployment] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            raise ValueError(f"--deployments has an empty entry in {text!r}")
        count, body = 1, entry
        if "*" in entry:
            head, body = entry.split("*", 1)
            try:
                count = int(head)
            except ValueError:
                raise ValueError(
                    f"--deployments count must be an integer, got {head!r} "
                    f"in {entry!r}"
                ) from None
            if count < 1:
                raise ValueError(
                    f"--deployments count must be >= 1, got {count} in "
                    f"{entry!r}"
                )
        fields = body.split(":")
        if len(fields) > 4 or not fields[0]:
            raise ValueError(
                "--deployments entries are [N*]model[:scheme[:ranks[:tier]]], "
                f"got {entry!r}"
            )
        model = fields[0]
        scheme = fields[1].upper() if len(fields) > 1 and fields[1] else args.scheme.upper()
        try:
            ranks = int(fields[2]) if len(fields) > 2 and fields[2] else args.ranks
            tier = int(fields[3]) if len(fields) > 3 and fields[3] else 0
        except ValueError:
            raise ValueError(
                f"--deployments ranks/tier must be integers in {entry!r}"
            ) from None
        if ranks < 1:
            raise ValueError(
                f"--deployments ranks must be >= 1, got {ranks} in {entry!r}"
            )
        if tier < 0:
            raise ValueError(
                f"--deployments tier must be >= 0, got {tier} in {entry!r}"
            )
        config = ServingConfig(
            model=model,
            scheme=scheme,
            kernel=args.kernel,
            num_ranks=ranks,
            dpus_per_rank=args.dpus_per_rank,
            max_batch=args.max_batch,
            policy=args.policy,
            prefill_chunk_tokens=args.chunk_tokens,
            engine=args.engine,
            prefix_cache=args.prefix_cache,
        )
        for _ in range(count):
            name = f"d{len(deployments)}-{model}"
            deployments.append(
                Deployment(config, name=name, tier=tier)
            )
    return deployments


def _simulate_policy(
    task: Tuple[Sequence[Request], ServingConfig, str]
) -> dict:
    """Summary row of one policy run (the --compare worker entry point)."""
    requests, config, scenario = task
    row = summary(simulate_trace(requests, config))
    row["scenario"] = scenario
    return row


def _spec_dict(spec: TraceSpec) -> dict:
    """The trace-spec block of the JSON payloads."""
    return {
        "num_requests": spec.num_requests,
        "arrival_rate_per_s": spec.arrival_rate_per_s,
        "scenario": spec.scenario,
        "prompt_mean": spec.prompt_mean,
        "prompt_sigma": spec.prompt_sigma,
        "prompt_max": spec.prompt_max,
        "gen_mean": spec.gen_mean,
        "gen_sigma": spec.gen_sigma,
        "gen_max": spec.gen_max,
        "priority_weights": list(spec.priority_weights),
        "slo_ttft_s": list(spec.slo_ttft_s),
        "sessions": spec.sessions,
        "turns_mean": spec.turns_mean,
        "think_time_mean_s": spec.think_time_mean_s,
        "system_prompt_pool": spec.system_prompt_pool,
        "system_prompt_tokens": spec.system_prompt_tokens,
        "seed": spec.seed,
    }


def _parse_slos(text: Optional[str], tiers: int) -> Tuple[float, ...]:
    """Parse the ``--slo-ttft`` CSV; empty tuple means no SLOs."""
    if text is None:
        return ()
    try:
        slos = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--slo-ttft must be comma-separated seconds, got {text!r}"
        ) from None
    if len(slos) != tiers:
        raise ValueError(
            f"--slo-ttft names {len(slos)} tier(s) but --tiers is {tiers}"
        )
    return slos


def _emit_recording(args, tracer) -> int:
    """Write the ``--trace-out`` / ``--timeline-out`` files; returns 0."""
    if args.trace_out:
        write_chrome_trace(args.trace_out, tracer)
        if not args.quiet:
            print(f"wrote {args.trace_out} ({len(tracer.events)} events; "
                  f"open in https://ui.perfetto.dev)")
    if args.timeline_out:
        write_timeline(args.timeline_out, tracer)
        if not args.quiet:
            print(f"wrote {args.timeline_out}")
    return 0


def _emit_cluster(args, spec, requests, result, tracer) -> int:
    """Print / write the ``--cluster`` run outputs; returns exit code 0."""
    rows = cluster_rows(result)
    table = cluster_table(rows)
    flat = cluster_summary(result)
    if not args.quiet:
        print(
            f"# cluster: {len(requests)} request(s) across "
            f"{len(result.deployments)} deployment(s) "
            f"({flat['replicas']} replica(s)), router {result.router}, "
            f"policy {args.policy}, scenario {spec.scenario}, makespan "
            f"{flat['makespan_s']:.3f} s"
        )
        if table:
            print("\n## Cluster metrics (aggregate + per deployment)\n")
            print(format_table(table))
        if result.scale_events and not args.quiet:
            print(
                f"\n{flat['scale_ups']} scale-up(s) "
                f"({flat['cold_start_s']:.3f} s of weight-broadcast cold "
                f"start), {flat['scale_downs']} scale-down(s), "
                f"{flat['replacements']} crash replacement(s)"
            )
        if result.fault_events:
            print(
                f"\n## Faults: {flat['crashes']} crash(es), "
                f"{flat['stalls']} stall(s), {flat['degrades']} "
                f"degrade(s) -> {flat['failed']} failed, "
                f"{flat['retries']} retries, {flat['failovers']} "
                f"failover(s), {flat['shed']} shed; goodput "
                f"{flat['goodput_tokens_per_s']:.1f} tok/s, "
                f"unavailability {flat['unavailability_s']:.3f} s, "
                f"recovery {flat['recovery_time_s']:.3f} s"
            )
    if args.output:
        if args.output.endswith(".csv"):
            write_csv(args.output, table)
        else:
            write_json(
                args.output,
                {
                    "trace_spec": _spec_dict(spec),
                    "summary": flat,
                    "deployments": rows,
                    "metrics": table,
                    "scale_events": result.scale_events,
                    "fault_events": result.fault_events,
                    "requests": record_rows(result),
                    "trace": trace_rows(requests),
                },
            )
        if not args.quiet:
            print(f"\nwrote {args.output}")
    return _emit_recording(args, tracer)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
        if args.trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"--trace-level must be one of {', '.join(TRACE_LEVELS)}, "
                f"got {args.trace_level!r}"
            )
        tracer = (
            RecordingTracer(args.trace_level)
            if args.trace_out or args.timeline_out
            else None
        )
        spec = TraceSpec(
            num_requests=args.requests,
            arrival_rate_per_s=args.arrival_rate,
            scenario=args.scenario,
            prompt_mean=args.prompt_mean,
            prompt_sigma=args.sigma,
            prompt_max=args.prompt_max,
            gen_mean=args.gen_mean,
            gen_sigma=args.sigma,
            gen_max=args.gen_max,
            priority_weights=(1.0,) * args.tiers,
            slo_ttft_s=_parse_slos(args.slo_ttft, args.tiers),
            sessions=args.sessions,
            turns_mean=args.turns,
            think_time_mean_s=args.think_time,
            system_prompt_pool=args.prompt_pool,
            system_prompt_tokens=args.system_prompt_tokens,
            seed=args.seed,
        )
        config = ServingConfig(
            model=args.model,
            scheme=args.scheme.upper(),
            kernel=args.kernel,
            num_ranks=args.ranks,
            dpus_per_rank=args.dpus_per_rank,
            max_batch=args.max_batch,
            policy=args.policy,
            prefill_chunk_tokens=args.chunk_tokens,
            engine=args.engine,
            prefix_cache=args.prefix_cache,
        )
        requests = generate_trace(spec)
        if args.cluster:
            deployments = _parse_deployments(
                args.deployments
                if args.deployments is not None
                else DEFAULT_DEPLOYMENTS,
                args,
            )
            autoscaler = None
            if args.autoscale:
                autoscaler = Autoscaler(AutoscalerConfig(
                    max_replicas=(
                        args.scale_max if args.scale_max is not None else 8
                    ),
                    interval_s=(
                        args.scale_interval
                        if args.scale_interval is not None
                        else 60.0
                    ),
                ))
            fault_plan = None
            retry_policy = None
            if args.faults is not None:
                total_ranks = sum(d.config.num_ranks for d in deployments)
                horizon = max(
                    (r.arrival_s for r in requests), default=0.0
                )
                fault_plan = FaultPlan.sample(
                    seed=args.faults,
                    ranks=range(total_ranks),
                    horizon_s=max(horizon, 1.0),
                    crash_rate=(
                        args.crash_rate
                        if args.crash_rate is not None else 0.25
                    ),
                    stall_s=args.stall if args.stall is not None else 0.0,
                )
                retry_policy = RetryPolicy(
                    max_retries=(
                        args.retry_max if args.retry_max is not None else 3
                    ),
                    backoff_base_s=(
                        args.retry_backoff
                        if args.retry_backoff is not None else 0.5
                    ),
                    seed=args.faults,
                )
            cluster_result = simulate_cluster(
                requests,
                deployments,
                router=(
                    args.router if args.router is not None else "round_robin"
                ),
                autoscaler=autoscaler,
                tracer=tracer,
                faults=fault_plan,
                retry_policy=retry_policy,
                shed_tier=args.shed_tier,
            )
        else:
            result = simulate_trace(requests, config, tracer=tracer)
        comparison = []
        if args.compare:
            others = [name for name in sorted(POLICIES) if name != config.policy]
            tasks = [
                (requests, dataclasses.replace(config, policy=name), spec.scenario)
                for name in others
            ]
            if args.workers > 1 and tasks:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(
                    max_workers=min(args.workers, len(tasks))
                ) as pool:
                    rows = list(pool.map(_simulate_policy, tasks))
            else:
                rows = [_simulate_policy(task) for task in tasks]
            by_name = dict(zip(others, rows))
            primary = summary(result)
            primary["scenario"] = spec.scenario
            by_name[config.policy] = primary
            comparison = policy_table(
                [by_name[name] for name in sorted(POLICIES)]
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.cluster:
        return _emit_cluster(args, spec, requests, cluster_result, tracer)

    table = metrics_table(result)
    if not args.quiet:
        print(
            f"# serving: {len(requests)} request(s) on {config.num_ranks} "
            f"rank replica(s) of {config.model} [{config.scheme}, "
            f"{config.kernel}], policy {config.policy}, scenario "
            f"{spec.scenario}, makespan {result.makespan_s:.3f} s"
        )
        if table:
            print("\n## Serving metrics (TTFT / TPOT / latency / throughput)\n")
            print(format_table(table))
        if comparison:
            print("\n## Scheduling-policy comparison (same trace)\n")
            print(format_table(comparison))

    if args.output:
        if args.output.endswith(".csv"):
            write_csv(args.output, comparison if comparison else table)
        else:
            write_json(
                args.output,
                {
                    "trace_spec": _spec_dict(spec),
                    "summary": summary(result),
                    "metrics": table,
                    "policy_comparison": comparison,
                    "requests": record_rows(result),
                    "trace": trace_rows(requests),
                },
            )
        if not args.quiet:
            print(f"\nwrote {args.output}")
    return _emit_recording(args, tracer)
