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

JSON is written byte for byte as json.dumps(payload, sort_keys=True,
indent=2, allow_nan=False) would write it, but at the speed of json's C
encoder, which cannot indent. A Python walk visits only the containers that
hold other containers; every dict or list whose values are all str, int,
float, bool or None goes to the C encoder in one call, with ",\n" plus its
level's indent as the item separator, and gets the indented brackets
swapped in. Values json cannot encode pass through one hook, applied where
json applies it, and its result is walked again: a dataclass becomes its
fields, a numpy value Python, a path text, and a rank rule or noise spec
its tag in the grammar its flag takes (energy:0.95, gaussian:0.3). The plot
CSV hands a row whose fields are exactly str, int or float to csv unchanged,
since csv writes str(float), the shortest round-trip repr; any other row is
formatted field by field first.

Writing is byte-deterministic: JSON keys are sorted, floats keep Python's
shortest round-trip repr, newlines are fixed to "\n", and nothing
timestamp- or host-dependent is recorded. Rerunning a command with the same
seed reproduces the files bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
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
        for metric in ("pre_mse", "post_mse", "active_donor_precision", "active_donor_recall"):
            if (value := getattr(r, metric)) is not None:
                rows.append((dataset, noise, r.variant, metric, value))
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


# field types csv writes as _format_value would: str as is, str(int), and
# str(float), which is repr(float); bool and numpy scalars are not among them
_CSV_NATIVE = frozenset({str, int, float})


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
        if not _CSV_NATIVE.issuperset(map(type, row)):
            row = [_format_value(field) for field in row]
        writer.writerow(row)
    path.write_bytes(text.getvalue().encode("utf-8"))
    return path


# value types json writes without its default hook, so the C encoder may too
_SCALARS = frozenset({str, int, float, bool, type(None)})
_INDENT = "  "


@functools.cache
def _field_names(cls) -> tuple[str, ...] | None:
    """A dataclass's field names, found once per class; None for any other type."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


def _json_default(obj):
    """json's hook for a value it cannot encode; json then walks the result."""
    if isinstance(obj, RankRule):
        return rule_tag(obj)
    if isinstance(obj, NoiseSpec):
        return noise_tag(obj)
    names = _field_names(type(obj))
    if names is not None:
        return {name: getattr(obj, name) for name in names}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")


@functools.cache
def _scalar_encoder(depth: int):
    """json's C encoder for an all-scalar container at depth, one item per line."""
    separator = ",\n" + _INDENT * (depth + 1)
    return c_make_encoder(None, None, encode_basestring_ascii, None, ": ", separator,
                          True, False, False)


def _encode(obj, depth: int) -> str:
    """obj as json.dumps(obj, default=_json_default, sort_keys=True, indent=2,
    allow_nan=False) writes it at depth."""
    while not isinstance(obj, (str, int, float, list, tuple, dict)) and obj is not None:
        obj = _json_default(obj)
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return "".join(_scalar_encoder(0)(obj, 0))
    inner = "\n" + _INDENT * (depth + 1)
    outer = "\n" + _INDENT * depth
    if _SCALARS.issuperset(map(type, values)):
        text = "".join(_scalar_encoder(depth)(obj, 0))
        # the encoder cannot indent: open and close the items on their own lines
        return text if len(text) == 2 else text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(obj, dict):
        # a key that is not a str raises TypeError here, and json.dumps takes over
        items = [encode_basestring_ascii(k) + ": " + _encode(v, depth + 1) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_encode(value, depth + 1) for value in obj]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def write_json(payload, path) -> Path:
    """Write sorted, indented JSON with a trailing newline.

    The bytes are json.dumps's with sort_keys=True and indent=2. NaN and
    infinity have no JSON form: they raise InvalidInputError naming the
    file and the value, and nothing is written. On any error the payload
    goes through json.dumps itself, so the error is json's own.
    """
    path = Path(path)
    try:
        text = _encode(payload, 0)
    except (TypeError, ValueError, RecursionError):
        # json's own walk raises json's own error, with the value in its text
        try:
            text = json.dumps(
                payload, default=_json_default, sort_keys=True, indent=2, allow_nan=False
            )
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
