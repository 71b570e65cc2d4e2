"""One workload in one fresh process: set up, run ops in a closed loop, check.

Started by run.py, which passes the moment it spawned this process so that
set-up time counts from process start.  Prints one JSON line with the raw
measurements.  Thread counts are pinned to 1 before numpy is imported, here
and in every CLI child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
CLI_TIMEOUT_S = 120
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class CliRunner:
    """Runs one ``treelike`` CLI child and returns its standard output."""

    def __init__(self, workdir: str, tracer: Tracer | None):
        self.workdir = workdir
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> str:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        trace_path = os.path.join(self.workdir, "child-trace.json")
        if self.tracer is not None:
            env["PERFBENCH_TRACE"] = trace_path
        start = perf_counter()
        proc = subprocess.run([sys.executable, LAUNCHER, *argv], env=env,
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        end = perf_counter()
        if self.tracer is not None and os.path.exists(trace_path):
            with open(trace_path) as fh:
                self.tracer.add_process(start, end, json.load(fh))
            os.remove(trace_path)
        if proc.returncode != 0:
            raise RuntimeError(f"treelike {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return proc.stdout


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or \
            f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure(workload, args, workdir: str) -> dict:
    """Closed loop: the next op starts when the previous one returns.

    In traced mode ops alternate between traced and untraced, so the run
    also measures the tracing overhead.
    """
    tracer = Tracer() if args.trace else None
    reference = None if args.record else check.load_reference(
        args.workload, args.seed, args.smoke)
    source = "stored" if reference is not None else "first-op"
    times = {True: [], False: []}
    failures: list[str] = []
    failed = 0
    info: dict = {}
    attempted = 0
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and attempted % 2 == 0
        if traced:
            tracer.op = attempted
            tracer.install()
        runner = CliRunner(workdir, tracer if traced else None)
        start = perf_counter()
        try:
            result = workload.op(runner)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        if traced:
            tracer.uninstall()
        attempted += 1
        times[traced].append(elapsed)
        if error is None:
            try:
                outputs = workload.outputs(result)
                if reference is None:
                    reference = check.as_reference(outputs)
                info.update(outputs.info)
                found = check.problems(outputs, reference)
            except Exception:
                found = [traceback.format_exc(limit=3)]
        else:
            found = [error]
        if found:
            failed += 1
            if len(failures) < 10:
                failures.extend(found[:3])
        if perf_counter() >= deadline and (not args.trace or attempted >= 2):
            break

    if args.record and not failed:
        check.store_reference(args.workload, args.seed, args.smoke, outputs)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.uses_cli
                               else resource.RUSAGE_SELF)
    record = {
        "op_s": times[False],
        "traced_op_s": times[True],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "reference": source,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "info": info,
    }
    if tracer is not None:
        stats = tracer.op_stats()
        traced_ops = [row for op, row in stats.items() if op >= 0]
        layers = {k: statistics.median(row[k] for row in traced_ops)
                  for k in traced_ops[0]}
        layers["trace.overhead_s"] = (statistics.median(times[True])
                                      - statistics.median(times[False]))
        record["layers"] = layers
        spans = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl")
        tracer.write_spans(spans)
        record["spans_file"] = os.path.relpath(spans, ROOT)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference")
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter value when the parent spawned us")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        record = {"setup_s": perf_counter() - args.t0}
        if not args.setup_only:
            record.update(measure(workload, args, workdir))
            record["inputs"] = workload.inputs()
            record["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
