#!/usr/bin/env python3
"""Benchmark of the treelike package: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py.  Each
runs in a fresh worker process as a closed loop with one caller; the
untraced run (--trace 0) reports the end-to-end metrics, the traced run
(--trace 1) the per-layer metrics.  Set-up is repeated in SETUP_SAMPLES
fresh processes and its median reported.  Lines starting with '#' describe
the run; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  --smoke runs tiny inputs so that all workloads and
their checks finish in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# a tail percentile needs at least ten ops beyond it
P90_MIN_OPS = 100


def spawn_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own session; kill the whole group on timeout."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args, "--t0", repr(t0)],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("error: the workload did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"error: the worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(rec: dict, setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(rec["op_s"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def describe(rec: dict, setup: list[float], args) -> list[str]:
    ops = rec["op_s"]
    lines = [
        f"env {json.dumps(rec['env'])}",
        f"inputs {json.dumps(rec['inputs'])}",
        f"workload {args.workload} seed {args.seed} smoke {args.smoke}: "
        f"{rec['attempted']} ops attempted, {rec['failed']} failed, "
        f"error_rate {rec['failed'] / rec['attempted']:.4g}, "
        f"reference {rec['reference']}",
        f"setup_s samples {[round(s, 4) for s in setup]}",
    ]
    if ops:
        lines.append(f"op_s_p50 {statistics.median(ops):.6g} s over "
                     f"{len(ops)} untraced ops")
    if len(ops) >= P90_MIN_OPS:
        p90 = statistics.quantiles(ops, n=10)[-1]
        lines.append(f"op_s_p90 {p90:.6g} s over {len(ops)} ops")
    else:
        lines.append(f"op_s_p90 not reported: {len(ops)} untraced ops, "
                     f"fewer than {P90_MIN_OPS}")
    if rec["info"]:
        lines.append(f"info {json.dumps(rec['info'])}")
    if "layers" in rec:
        lines.append(f"traced ops {len(rec['traced_op_s'])}, tracing overhead "
                     f"{rec['layers']['trace.overhead_s']:.6g} s per op, "
                     f"spans in {rec['spans_file']}")
    lines.append("waiting time omitted: no layer has a queue")
    lines += [f"failure: {f}" for f in rec["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "treelike", "__init__.py")):
        print("error: no treelike sources under src/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--smoke"] if args.smoke else []
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(spawn_worker(
                common + ["--seconds", "0", "--setup-only"],
                deadline)["setup_s"])
    rec = spawn_worker(common + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], deadline)
    setup.append(rec["setup_s"])

    if args.trace:
        values, wanted = rec["layers"], spec["per_layer"]
    else:
        values, wanted = end_to_end(rec, setup), spec["end_to_end"]
    for line in describe(rec, setup, args):
        print(f"# {line}")
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
