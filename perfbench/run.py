"""Serving-pipeline benchmark: one workload, one seed, every metric.

Usage::

    python3 perfbench/run.py --workload rank_wide --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics from untraced passes;
``--trace 1`` measures the per-layer metrics from span-traced passes.
Prints a metric table, a ``{"report": ...}`` line (run metadata,
simulated-output digest, raw samples) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import harness  # noqa: E402  (needs the paths above)
from workloads import WORKLOADS  # noqa: E402

#: The gated end-to-end metrics.  ``error_rate`` is printed in the table
#: but travels in the result line as ``failed`` / ``attempted``.
GATED = ("setup_s", "cold_wall_s", "wall_s", "requests_per_s", "peak_rss_mb")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from span-traced passes")
    return parser


def _print_table(metrics: dict, units: dict, log) -> None:
    print(f"{'metric':<30} {'value':>16}  unit")
    for name, value in metrics.items():
        print(f"{name:<30} {value:>16.6g}  {units[name]}")
    for failure in log.failures:
        print(f"FAILED CHECK: {failure}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            metrics, log, samples = harness.trace_layers(
                workload, args.seed, args.seconds, work_dir)
            units = gated = harness.PER_LAYER
        else:
            metrics, log, samples = harness.measure(
                workload, args.seed, args.seconds, work_dir)
            units = harness.END_TO_END
            gated = GATED
    finally:
        for name in os.listdir(work_dir):
            if name.startswith(f"{workload.name}-{os.getpid()}-"):
                os.remove(os.path.join(work_dir, name))
        if not os.listdir(work_dir):
            os.rmdir(work_dir)

    meta = harness.run_meta(workload, args.seed)
    print(f"# perfbench {workload.name}: seed {args.seed}, "
          f"{meta['requests']} requests, trace {args.trace}, "
          f"{log.attempted} pass(es), git {meta['git_sha']} "
          f"dirty={meta['dirty']}")
    _print_table(metrics, units, log)
    print(json.dumps({"report": {
        "meta": meta,
        "sim": log.sim,
        "metrics": metrics,
        "samples": samples,
        "failures": log.failures,
    }}))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
