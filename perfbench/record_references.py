#!/usr/bin/env python3
"""Store reference outputs for a range of seeds.

    python3 perfbench/record_references.py --seeds 0-40 [--smoke] [--workload NAME]

Runs one op per (workload, seed) in a fresh worker process and writes its
outputs to references/<workload>.json.  Run it only on a commit whose
outputs are known to be right: later runs are checked against these files.
"""

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    for name in args.workload or names:
        for seed in range(first, last + 1):
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", name, "--seed", str(seed), "--seconds", "0",
                   "--record", "--t0", repr(perf_counter())]
            cmd += ["--smoke"] if args.smoke else []
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 check=True).stdout
            rec = json.loads(out.splitlines()[-1])
            if rec["failed"]:
                print(f"{name} seed {seed}: {rec['failures']}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
