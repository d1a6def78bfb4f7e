"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, with the same output checks as a full run. Takes a few seconds.

    python3 -m pytest -q wallbench/test_smoke.py
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "wallbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_complete(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    os.makedirs(tmp_path / "wallbench")
    for name in os.listdir(os.path.join(ROOT, "wallbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "wallbench", name), "rb") as src:
                (tmp_path / "wallbench" / name).write_bytes(src.read())
    proc = subprocess.run([sys.executable, "wallbench/run.py", "--workload", "pull-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
