"""Report serialization: structured JSON plus tidy plot-data CSV.

Every run writes two files: <stem>.json holding the complete structured
result (per-target rows, aggregates, config echo, seeds) and <stem>_plot.csv
in long form with the fixed columns dataset,noise,variant,metric,value, one
row per observation, ready for external plotting tools.

Writing is byte-deterministic: JSON keys are sorted, floats keep Python's
shortest round-trip repr, newlines are fixed to "\n", and nothing
timestamp- or host-dependent is recorded. Rerunning a command with the same
seed reproduces the files bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .evaluate import GapExperimentResult, PlaceboReport, RecoveryResult

__all__ = [
    "PLOT_COLUMNS",
    "noise_tag",
    "rule_tag",
    "to_jsonable",
    "placebo_plot_rows",
    "gap_plot_rows",
    "recovery_plot_rows",
    "spectrum_plot_rows",
    "cluster_plot_rows",
    "default_plot_rows",
    "write_report",
]

PLOT_COLUMNS = ("dataset", "noise", "variant", "metric", "value")


def noise_tag(noise) -> str:
    """Compact one-token label for a noise distribution, e.g. gaussian:0.3."""
    return ":".join([noise.kind] + [repr(float(p)) for p in noise.params])


def rule_tag(rule) -> str:
    """Compact one-token label for a rank rule in the CLI grammar, e.g.
    fixed:6, energy:0.95 or energy:0.9:squared."""
    if rule.kind == "fixed":
        return f"fixed:{rule.r}"
    return f"energy:{rule.threshold}" + (":squared" if rule.squared else "")


def to_jsonable(obj):
    """Recursively convert dataclasses, numpy values, and paths to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")


def placebo_plot_rows(report: PlaceboReport, dataset: str = "", noise: str = "") -> list[tuple]:
    """One plot row per recorded metric of every placebo row.

    pre_mse and post_mse are always present; the selection scores appear
    when they were computed. Pairwise improvements are appended as metric
    "improvement" under a combined variant label, one per complete cell.
    """
    rows = []
    for r in report.rows:
        rows.append((dataset, noise, r.variant, "pre_mse", r.pre_mse))
        rows.append((dataset, noise, r.variant, "post_mse", r.post_mse))
        if r.active_donor_precision is not None:
            rows.append(
                (dataset, noise, r.variant, "active_donor_precision", r.active_donor_precision)
            )
        if r.active_donor_recall is not None:
            rows.append(
                (dataset, noise, r.variant, "active_donor_recall", r.active_donor_recall)
            )
    for value in report.improvements.get("values", []):
        rows.append((dataset, noise, "cluster_sc_vs_sc_full", "improvement", value))
    return rows


def gap_plot_rows(result: GapExperimentResult, dataset: str = "") -> list[tuple]:
    """Per-trial gap rows plus summary rows under dataset label 'all'."""
    tag = noise_tag(result.noise)
    prefix = dataset or "trial"
    rows = [
        (f"{prefix}_{i + 1:04d}", tag, "pool_minus_subgroup", "gap", gap)
        for i, gap in enumerate(result.gaps)
    ]
    rows.append(("all", tag, "pool_minus_subgroup", "mean_gap", result.empirical_mean_gap))
    rows.append(("all", tag, "pool_minus_subgroup", "gap_std_error", result.gap_std_error))
    if result.theoretical_bound is not None:
        rows.append(
            ("all", tag, "pool_minus_subgroup", "theoretical_bound", result.theoretical_bound)
        )
    return rows


def recovery_plot_rows(result: RecoveryResult) -> list[tuple]:
    """Per-dataset misassignment and precision rows, plus per-cell means."""
    rows = []
    for cell in result.cells:
        tag = noise_tag(cell.noise)
        for di, fraction in enumerate(cell.fractions):
            rows.append(
                (f"ds{di + 1:03d}", tag, "cluster_recovery", "misassignment_fraction", fraction)
            )
        for di, precision in enumerate(cell.median_precisions):
            rows.append(
                (f"ds{di + 1:03d}", tag, "cluster_recovery", "median_precision_a", precision)
            )
        rows.append(("all", tag, "cluster_recovery", "mean_misassignment", cell.mean_fraction))
        rows.append(
            ("all", tag, "cluster_recovery", "precision_one_share", cell.precision_one_share)
        )
    return rows


def spectrum_plot_rows(spectrum, dataset: str = "", variant: str = "full") -> list[tuple]:
    """Rows for (index, sigma, cumulative ratio) triples from spectrum_report."""
    rows = []
    for index, sigma, ratio in spectrum:
        rows.append((dataset, "", variant, f"sigma_{index:02d}", sigma))
        rows.append((dataset, "", variant, f"energy_{index:02d}", ratio))
    return rows


def cluster_plot_rows(unit_ids, labels, dataset: str = "") -> list[tuple]:
    """One row per unit carrying its 1-based cluster label."""
    return [
        (dataset, "", uid, "cluster_label", int(label))
        for uid, label in zip(unit_ids, labels)
    ]


def default_plot_rows(report, dataset: str = "", noise: str = "") -> list[tuple]:
    """Dispatch on report type; used when the caller has no custom rows.

    Lists are treated as spectrum rows, the (index, sigma, ratio) triples
    that spectrum_report produces.
    """
    if isinstance(report, PlaceboReport):
        return placebo_plot_rows(report, dataset=dataset, noise=noise)
    if isinstance(report, GapExperimentResult):
        return gap_plot_rows(report, dataset=dataset)
    if isinstance(report, RecoveryResult):
        return recovery_plot_rows(report)
    if isinstance(report, list):
        return spectrum_plot_rows(report, dataset=dataset)
    raise InvalidInputError(f"no plot-row builder for {type(report).__name__}")


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_plot_csv(rows, path) -> Path:
    """Write long-form plot rows with the fixed header, LF newlines."""
    path = Path(path)
    lines = [",".join(PLOT_COLUMNS)]
    for row in rows:
        if len(row) != len(PLOT_COLUMNS):
            raise InvalidInputError(
                f"plot rows need {len(PLOT_COLUMNS)} fields, got {len(row)}"
            )
        lines.append(",".join(_format_value(field) for field in row))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def write_json(payload, path) -> Path:
    """Write sorted, indented JSON with a trailing newline."""
    path = Path(path)
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
    path.write_bytes((text + "\n").encode("utf-8"))
    return path


def write_report(
    report,
    out_dir,
    stem: str,
    *,
    plot_rows=None,
    dataset: str = "",
    noise: str = "",
) -> tuple[Path, Path]:
    """Persist a report as <stem>.json and <stem>_plot.csv under out_dir.

    plot_rows overrides the default long-form rows; dataset and noise label
    the default rows when the report itself does not carry that context.
    Returns the two paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if plot_rows is None:
        plot_rows = default_plot_rows(report, dataset=dataset, noise=noise)
    json_path = write_json(report, out_dir / f"{stem}.json")
    csv_path = write_plot_csv(plot_rows, out_dir / f"{stem}_plot.csv")
    return json_path, csv_path
