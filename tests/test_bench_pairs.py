"""tools/bench_pairs.py refuses to compare two trees whose benchmarks differ."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(root: Path) -> Path:
    files = {
        "BENCHMARK.json": '{"workloads": []}\n',
        "perfbench/run.py": "print('run')\n",
        "perfbench/workloads.py": "WORKLOADS = {}\n",
        "src/clustersc/cluster.py": "K = 10\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


@pytest.fixture
def trees(tmp_path):
    return make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")


def test_same_benchmark(bench_pairs, trees):
    parent, change = trees
    # the program may differ, and so may what running the benchmark leaves
    (change / "src/clustersc/cluster.py").write_text("K = 11\n")
    for name in ("perfbench/_work/trace.jsonl", "perfbench/__pycache__/run.pyc"):
        (change / name).parent.mkdir(parents=True)
        (change / name).write_text("output\n")
    assert bench_pairs.benchmark_differences(parent, change) == []


def test_differing_files_named(bench_pairs, trees):
    parent, change = trees
    (change / "perfbench/run.py").write_text("print('changed')\n")
    (change / "BENCHMARK.json").write_text('{"workloads": [1]}\n')
    (change / "perfbench/extra.py").write_text("\n")
    (parent / "perfbench/workloads.py").unlink()
    assert bench_pairs.benchmark_differences(parent, change) == [
        "BENCHMARK.json", "perfbench/extra.py", "perfbench/run.py", "perfbench/workloads.py",
    ]


def test_main_exits_2_before_running(bench_pairs, trees, tmp_path, monkeypatch, capsys):
    parent, change = trees
    (change / "perfbench/run.py").write_text("print('changed')\n")

    def export_commit(ref, dest):
        shutil.copytree(parent, dest / "tree")
        return "0" * 40

    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "ROOT", change)
    monkeypatch.setattr(bench_pairs, "export_commit", export_commit)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", "HEAD~1", "--workloads", "loo-lasso", "--seeds", "1",
                             "--seconds", "1", "--out", str(out)])
    assert code == 2
    assert "perfbench/run.py" in capsys.readouterr().err
    assert not out.exists()


def test_run_once_keeps_plain_seconds(bench_pairs, tmp_path):
    # run.py prints its detail record, then its result line
    detail = {"calls": 3, "outputs_sha256": "ab", "cells_per_s": 120.5, "call_s_p50": 0.04,
              "ref_s_mean": 0.006, "cells_per_call": 5}
    result = {"correct": True, "metrics": {"cells_per_ref": {"value": 0.72, "unit": "1/ref"}}}
    tree = make_tree(tmp_path / "tree")
    (tree / "perfbench/run.py").write_text(
        f"import json\nprint('warming up')\nprint(json.dumps({detail!r}))\n"
        f"print(json.dumps({result!r}))\n"
    )
    run = bench_pairs.run_once(tree, "loo-lasso", 1, 1.0)
    assert run["correct"] is True
    assert run["metrics"] == {"cells_per_ref": 0.72}
    assert {key: run["detail"][key] for key in ("cells_per_s", "call_s_p50", "ref_s_mean")} == {
        "cells_per_s": 120.5, "call_s_p50": 0.04, "ref_s_mean": 0.006,
    }
    assert "cells_per_call" not in run["detail"]
