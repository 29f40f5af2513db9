"""Report serialization: structured JSON plus tidy plot-data CSV.

Every run writes two files: <stem>.json holding the complete structured
result (per-target rows, aggregates, config echo, seeds) and <stem>_plot.csv
in long form with the fixed columns dataset,noise,variant,metric,value, one
row per observation, ready for external plotting tools. A field holding a
comma, a double quote or a newline (a unit id like "Abilene, TX") is written
in double quotes, with inner quotes doubled; every other field is bare.

The JSON's config echoes the run. It holds one key per flag of the
command, named like the flag (--train-fraction is train_fraction) and
written in the flag's grammar: a rank rule as energy:0.95, a noise grid as
its comma-separated text, null for an optional flag left unset. Output and
input paths (--out, --config, --stem, --panel, --hpi) are left out. The
other keys are facts the flags do not fix: command; for an input panel its
file stem (source), n_units, t, and t0 resolved to a pre-period count; and
for commands that cluster the k-means protocol (restarts, k_range). An INI
section built from the flag keys that are not null, rerun with --config and
the same input path, rewrites the same files.

JSON is written in one walk of the payload. json's default hook converts,
one level at a time, what json cannot encode: a dataclass to its fields, a
numpy value to Python, a path to text, and a rank rule or noise spec to its
tag in the grammar its flag takes (energy:0.95, gaussian:0.3).

Writing is byte-deterministic: JSON keys are sorted, floats keep Python's
shortest round-trip repr, newlines are fixed to "\n", and nothing
timestamp- or host-dependent is recorded. Rerunning a command with the same
seed reproduces the files bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

from .datagen import NoiseSpec, noise_tag
from .errors import InvalidInputError
from .evaluate import GapExperimentResult, PlaceboReport, RecoveryResult
from .linalg import RankRule, rule_tag

__all__ = [
    "PLOT_COLUMNS",
    "placebo_plot_rows",
    "gap_plot_rows",
    "recovery_plot_rows",
    "spectrum_plot_rows",
    "cluster_plot_rows",
    "write_report",
]

PLOT_COLUMNS = ("dataset", "noise", "variant", "metric", "value")


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


def gap_plot_rows(result: GapExperimentResult) -> list[tuple]:
    """Per-trial gap rows (trial_0001, ...) plus summary rows under 'all'."""
    tag = noise_tag(result.noise)
    rows = [
        (f"trial_{i + 1:04d}", tag, "pool_minus_subgroup", "gap", gap)
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
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(PLOT_COLUMNS)
    for row in rows:
        if len(row) != len(PLOT_COLUMNS):
            raise InvalidInputError(
                f"plot rows need {len(PLOT_COLUMNS)} fields, got {len(row)}"
            )
        writer.writerow([_format_value(field) for field in row])
    path.write_bytes(text.getvalue().encode("utf-8"))
    return path


def _json_default(obj):
    """json's hook for a value it cannot encode; json then walks the result."""
    if isinstance(obj, RankRule):
        return rule_tag(obj)
    if isinstance(obj, NoiseSpec):
        return noise_tag(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(payload, path) -> Path:
    """Write sorted, indented JSON with a trailing newline, in one json walk.

    NaN and infinity have no JSON form: they raise InvalidInputError naming
    the file, and nothing is written.
    """
    path = Path(path)
    try:
        text = json.dumps(payload, default=_json_default, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    path.write_bytes((text + "\n").encode("utf-8"))
    return path


def write_report(report, out_dir, stem: str, plot_rows) -> tuple[Path, Path]:
    """Persist a report as <stem>.json and <stem>_plot.csv under out_dir.

    plot_rows are the long-form CSV rows, e.g. from placebo_plot_rows.
    Returns the two paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = write_json(report, out_dir / f"{stem}.json")
    csv_path = write_plot_csv(plot_rows, out_dir / f"{stem}_plot.csv")
    return json_path, csv_path
