"""Smoke tests of the benchmark harness: python3 -m pytest perfbench -q

Every workload runs at tiny size, untraced and traced, against its stored
smoke reference, so the harness and its checks cannot rot unnoticed.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, workload, trace, seed=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "reference stored" in proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        test = "regularity.regularity_test"
        assert values[f"{test}.calls"] == sum(
            values[f"{test}.{kind}"]
            for kind in ("trivial", "exhaustive", "sampled"))
        assert values["core.validate_space.calls"] > 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_benchmark_json_follows_its_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def copy_tree(dst, with_sources):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    shutil.copytree(HERE, os.path.join(dst, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy_tree(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_output_is_counted_as_failed(tmp_path):
    copy_tree(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "references" / "spinglass-planted.json"
    table = json.loads(path.read_text())
    table["smoke:1"]["floats"]["scale"] *= 1.0 + 1e-6
    path.write_text(json.dumps(table))
    result = last_json(run_bench(tmp_path, "spinglass-planted", 0))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
