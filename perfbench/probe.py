"""Fresh-process probe: set-up time and the cold first pass.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED REQUESTS OUT_JSON``.
Times the import of ``repro`` plus building the workload's configs and
deployments (``setup_s``), then one pipeline pass with every
process-wide cache still empty (``cold_wall_s``), and prints one JSON
line with both (normalised by a :class:`hostref.HostSampler` running
during each, and raw), the pass's check failures and its
simulated-output digest.
"""

import json
import os
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]


def main(argv) -> int:
    name, seed, requests, out_path = argv[0], int(argv[1]), int(argv[2]), argv[3]
    import hostref  # stdlib only: importing it leaves repro's imports cold

    sampler = hostref.HostSampler()
    with sampler:
        start = perf_counter()
        import workloads

        workload = workloads.WORKLOADS[name]
        setup = workload.build(seed, requests)
        setup_s = perf_counter() - start
    raw_setup_s, setup_s = sampler.normalise(setup_s)
    with sampler:
        start = perf_counter()
        out = workloads.run_pass(workload, setup, out_path)
        cold_wall_s = perf_counter() - start
    raw_cold_wall_s, cold_wall_s = sampler.normalise(cold_wall_s)
    layer = workloads.counters(out)
    print(json.dumps({
        "setup_s": setup_s,
        "cold_wall_s": cold_wall_s,
        "raw_setup_s": raw_setup_s,
        "raw_cold_wall_s": raw_cold_wall_s,
        "failures": workloads.check(workload, out, layer),
        "sim": workloads.sim_digest(out),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
