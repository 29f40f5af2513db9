"""The four benchmark workloads and the checks on their output files.

Every workload issues `clustersc.cli.main(argv)` calls on the synthetic
two-group design (200 + 200 units, T = 10, T0 = 8, rank rule energy:0.95).
Each call's --seed is derived from the workload seed and the call index, so
a workload seed fixes every input of a run.

This module imports no numpy at load time: the set-up probe times a cold
`import clustersc` and imports this module only afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

UNITS_PER_GROUP = 200
TINY_UNITS_PER_GROUP = 20
T_TOTAL = 10
T0 = 8
RULE = "energy:0.95"
NOISE_CYCLE = ("gaussian:0.1", "gaussian:0.25", "gaussian:0.4")
SPLIT_TRAIN_FRACTION = 0.8  # placebo-panel default
# split-auto-k cycles over this many panels, all written in set-up
SPLIT_PANELS = 20
PLOT_HEADER = "dataset,noise,variant,metric,value"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    variants: int
    # share of group A used as placebo targets in one placebo-synthetic call
    target_fraction: float | None
    # calls always made, whatever --seconds says; the accuracy metric and the
    # output digest cover exactly these calls, so both are fixed by the seed
    min_calls: int


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("loo-per-target", "placebo-synthetic", 2, 0.05, min_calls=60),
        Workload("loo-lasso", "placebo-synthetic", 2, 0.005, min_calls=60),
        Workload("loo-per-dataset", "placebo-synthetic", 2, 0.3, min_calls=60),
        Workload("split-auto-k", "placebo-panel", 3, None, min_calls=60),
    )
}


def call_seeds(workload: str, seed: int):
    """Endless stream of per-call CLI seeds, fixed by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def panel_seeds(seed: int) -> list[int]:
    rng = random.Random(f"panels:{seed}")
    return [rng.randrange(2**31) for _ in range(SPLIT_PANELS)]


def prepare(workload: Workload, seed: int, work: Path, tiny: bool) -> dict:
    """Build what the calls need before the first one; returns a context."""
    work.mkdir(parents=True, exist_ok=True)
    context = {"n": TINY_UNITS_PER_GROUP if tiny else UNITS_PER_GROUP, "work": work}
    if workload.name == "split-auto-k":
        from clustersc.cli import main

        n = str(context["n"])
        context["panels"] = []
        for j, panel_seed in enumerate(panel_seeds(seed)):
            argv = [
                "simulate", "--na", n, "--nb", n, "--t", str(T_TOTAL), "--t0", str(T0),
                "--seed", str(panel_seed), "--out", str(work), "--stem", f"panel{j}",
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"set-up call failed: {argv}")
            context["panels"].append(work / f"panel{j}_panel.csv")
    return context


def call_argv(workload: Workload, context: dict, index: int, seed: int, stem: str) -> list[str]:
    n = str(context["n"])
    tail = ["--seed", str(seed), "--out", str(context["work"]), "--stem", stem]
    synth = [
        "placebo-synthetic", "--datasets", "1", "--na", n, "--nb", n,
        "--t", str(T_TOTAL), "--t0", str(T0), "--rule", RULE,
    ]
    if workload.name == "loo-per-target":
        return synth + ["--target-fraction", str(workload.target_fraction)] + tail
    if workload.name == "loo-lasso":
        return synth + [
            "--method", "lasso", "--noise", "gaussian:0.4",
            "--cluster-mode", "per_dataset",
            "--target-fraction", str(workload.target_fraction),
        ] + tail
    if workload.name == "loo-per-dataset":
        noise = NOISE_CYCLE[index % len(NOISE_CYCLE)]
        return synth + ["--cluster-mode", "per_dataset", "--noise", noise] + tail
    panel = context["panels"][index % len(context["panels"])]
    return [
        "placebo-panel", "--panel", str(panel), "--t0", str(T0),
        "--iterations", "1", "--k", "auto", "--with-random-subset", "--rule", RULE,
    ] + tail


def expected_cells(workload: Workload, context: dict) -> int:
    """Placebo cells (target x variant) one call attempts."""
    n = context["n"]
    if workload.command == "placebo-panel":
        targets = 2 * n - int(round(SPLIT_TRAIN_FRACTION * 2 * n))
    else:
        targets = max(1, int(round(workload.target_fraction * n)))
    return targets * workload.variants


# -- output checks -------------------------------------------------------------


def _medians(rows, skipped) -> dict:
    """Per-variant medians over complete cells, as the harness defines them."""
    import numpy as np

    bad = {(s["iteration"], s["target_id"]) for s in skipped}
    by_variant: dict[str, list] = {}
    for row in rows:
        if (row["iteration"], row["target_id"]) not in bad:
            by_variant.setdefault(row["variant"], []).append(row)
    return {
        name: {
            "pre_mse": float(np.median([r["pre_mse"] for r in kept])),
            "post_mse": float(np.median([r["post_mse"] for r in kept])),
        }
        for name, kept in by_variant.items()
    }


def _improvement_median(rows, skipped):
    import numpy as np

    bad = {(s["iteration"], s["target_id"]) for s in skipped}
    cells: dict[tuple, dict] = {}
    for row in rows:
        cell = (row["iteration"], row["target_id"])
        if cell not in bad:
            cells.setdefault(cell, {})[row["variant"]] = row["post_mse"]
    values = [
        post["sc_full"] - post["cluster_sc"]
        for post in cells.values() if "sc_full" in post and "cluster_sc" in post
    ]
    return float(np.median(values)) if values else None


def _check_report(report: dict, cells: int, errors: list[str]) -> None:
    rows, skipped = report["rows"], report["skipped"]
    if len(rows) + len(skipped) != cells:
        errors.append(f"{len(rows)} rows + {len(skipped)} skipped != {cells} cells")
    if report["medians"] != _medians(rows, skipped):
        errors.append("stated medians differ from the medians of the rows")
    if report["improvements"]["median"] != _improvement_median(rows, skipped):
        errors.append("stated improvement median differs from the rows")
    for it in report.get("per_iteration", []):
        it_rows = [r for r in rows if r["iteration"] == it["iteration"]]
        it_skipped = [s for s in skipped if s["iteration"] == it["iteration"]]
        if it["medians"] != _medians(it_rows, it_skipped):
            errors.append(f"iteration {it['iteration']} medians differ from its rows")


@dataclass
class CallOutput:
    digest: str
    skipped: int
    cluster_post_mse: list[float]
    errors: list[str]


def read_call_output(workload: Workload, context: dict, stem: str) -> CallOutput:
    """Hash, check and summarise the two files one call wrote, then delete them."""
    json_path = context["work"] / f"{stem}.json"
    csv_path = context["work"] / f"{stem}_plot.csv"
    json_bytes = json_path.read_bytes()
    csv_bytes = csv_path.read_bytes()
    json_path.unlink()
    csv_path.unlink()
    digest = hashlib.sha256(json_bytes + b"\0" + csv_bytes).hexdigest()

    payload = json.loads(json_bytes)
    if workload.command == "placebo-panel":
        reports = [payload["report"]]
    else:
        reports = [entry["report"] for entry in payload["datasets"]]
    errors: list[str] = []
    cells = expected_cells(workload, context)
    per_report = cells // len(reports)
    rows, skipped = [], []
    for report in reports:
        _check_report(report, per_report, errors)
        rows.extend(report["rows"])
        skipped.extend(report["skipped"])

    lines = csv_bytes.decode("utf-8").splitlines()
    if not lines or lines[0] != PLOT_HEADER:
        errors.append("plot CSV header is wrong")
    post_lines = sum(1 for line in lines[1:] if line.split(",")[3] == "post_mse")
    if post_lines != len(rows):
        errors.append(f"plot CSV has {post_lines} post_mse rows for {len(rows)} rows")

    bad = {(s["iteration"], s["target_id"]) for s in skipped}
    cluster_post = [
        r["post_mse"] for r in rows
        if r["variant"] == "cluster_sc" and (r["iteration"], r["target_id"]) not in bad
    ]
    return CallOutput(digest, len(skipped), cluster_post, errors)
