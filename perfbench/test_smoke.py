"""Smoke test of the benchmark: every workload at 20 + 20 units, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that the result line carries every metric BENCHMARK.json names, each
with its unit, and that the output checks ran and passed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import _check_report

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    detail, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    assert detail["calls"] >= 1
    assert detail["machine"]["nproc"] >= 1
    if trace:
        # every layer function was found at one binding site at least
        assert all(count >= 1 for count in detail["bindings_wrapped"].values())
    else:
        assert len(detail["outputs_sha256"]) == 64


def test_checks_catch_a_bad_median():
    rows = [
        {"iteration": 0, "target_id": "A1", "variant": "sc_full", "pre_mse": 1.0, "post_mse": 2.0},
        {"iteration": 0, "target_id": "A1", "variant": "cluster_sc", "pre_mse": 1.0, "post_mse": 1.5},
    ]
    report = {
        "rows": rows,
        "skipped": [],
        "medians": {
            "sc_full": {"pre_mse": 1.0, "post_mse": 2.0},
            "cluster_sc": {"pre_mse": 1.0, "post_mse": 1.5},
        },
        "improvements": {"median": 0.5},
    }
    errors = []
    _check_report(report, 2, errors)
    assert errors == []
    report["medians"]["cluster_sc"]["post_mse"] = 1.25
    _check_report(report, 3, errors)
    assert len(errors) == 2
