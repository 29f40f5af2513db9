"""Panel containers and file formats.

A panel is a units-by-periods matrix with an intervention split: the first t0
columns are pre-intervention, the rest post-intervention. The CSV format is

    unit,<time_label_1>,...,<time_label_T>
    <unit_id>,<float>,...,<float>

Floats are written with repr so a round trip reproduces them bit for bit.

preprocess_hpi turns a long quarterly file (one row per unit and period) into
a wide panel over an inclusive period range, dropping units that do not cover
every period in the range. Column names follow a documented generic schema
with aliases matching the FHFA metro house price file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParamsError,
    MissingValueError,
    PanelFormatError,
    ShapeError,
)


@dataclass(frozen=True)
class InterventionSplit:
    """Pre/post boundary: columns [0, t0) are pre, [t0, t_total) are post.

    Both are integers (Python or NumPy ones, not bools), kept as Python ints.
    """

    t0: int
    t_total: int

    def __post_init__(self):
        for name in ("t0", "t_total"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.t0 < self.t_total:
            raise InvalidParamsError(
                f"need 1 <= t0 < t_total, got t0={self.t0}, t_total={self.t_total}"
            )


@dataclass
class TimePanel:
    """Observed outcome matrix with unit and period labels and a split."""

    unit_ids: list[str]
    time_labels: list[str]
    values: np.ndarray
    split: InterventionSplit

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ShapeError(f"panel values must be 2-d, got {self.values.ndim} dimension(s)")
        n, t = self.values.shape
        if len(self.unit_ids) != n:
            raise ShapeError(f"{len(self.unit_ids)} unit ids for {n} rows")
        if len(self.time_labels) != t:
            raise ShapeError(f"{len(self.time_labels)} time labels for {t} columns")
        if len(set(self.unit_ids)) != n:
            raise PanelFormatError("unit ids must be distinct")
        if self.split.t_total != t:
            raise ShapeError(
                f"split covers {self.split.t_total} periods but panel has {t}"
            )
        if not np.all(np.isfinite(self.values)):
            raise PanelFormatError("panel values contain NaN or infinities")

    @property
    def pre(self) -> np.ndarray:
        return self.values[:, : self.split.t0]

    @property
    def post(self) -> np.ndarray:
        return self.values[:, self.split.t0 :]


def _resolve_t0(time_labels: list[str], t0) -> int:
    """Integer t0 is the pre-period count; a string names the last pre column."""
    if isinstance(t0, str) and t0 in time_labels:
        return time_labels.index(t0) + 1
    try:
        val = int(t0)
    except (TypeError, ValueError):
        raise PanelFormatError(
            f"t0 {t0!r} is neither a time label nor an integer"
        ) from None
    return val


def _read_csv(path, what: str) -> tuple[Path, list[str], list[list[str]]]:
    """A CSV file's path, header and other rows; PanelFormatError if missing or empty."""
    path = Path(path)
    if not path.exists():
        raise PanelFormatError(f"{what} file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise PanelFormatError(f"{path} is empty")
    return path, rows[0], rows[1:]


def _cell_value(cell: str, path, lineno: int, unit: str, period: str) -> float:
    """A cell as a float; MissingValueError if blank, PanelFormatError if non-numeric."""
    try:
        return float(cell)
    except ValueError:
        blank = not cell.strip()
        problem = "blank value" if blank else f"non-numeric value {cell!r}"
        raise (MissingValueError if blank else PanelFormatError)(
            f"{path} line {lineno}: {problem} for unit {unit!r} at period {period!r}"
        ) from None


def load_panel_csv(path, t0) -> TimePanel:
    """Read the wide panel format; t0 is a pre-period count or a column label."""
    path, header, lines = _read_csv(path, "panel")
    if len(header) < 3 or header[0] != "unit":
        raise PanelFormatError(
            f"{path}: header must be 'unit,<label>,...' with at least two periods"
        )
    time_labels = header[1:]
    unit_ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(lines, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise PanelFormatError(
                f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        unit_ids.append(row[0])
        try:
            rows.append(list(map(float, row[1:])))
        except ValueError:  # the first bad cell, diagnosed
            rows.append([
                _cell_value(cell, path, lineno, row[0], label)
                for label, cell in zip(time_labels, row[1:])
            ])
    if not rows:
        raise PanelFormatError(f"{path} has a header but no data rows")
    if len(set(unit_ids)) != len(unit_ids):
        dupes = sorted({u for u in unit_ids if unit_ids.count(u) > 1})
        raise PanelFormatError(f"{path}: duplicate unit ids {dupes}")
    t0_count = _resolve_t0(time_labels, t0)
    if not 1 <= t0_count < len(time_labels):
        raise PanelFormatError(
            f"t0={t0_count} must leave at least one pre and one post period "
            f"out of {len(time_labels)}"
        )
    return TimePanel(
        unit_ids=unit_ids,
        time_labels=time_labels,
        values=np.array(rows, dtype=float),
        split=InterventionSplit(t0_count, len(time_labels)),
    )


def save_panel_csv(panel: TimePanel, path) -> Path:
    """Write the wide panel format with bit-exact floats."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit"] + list(panel.time_labels))
        for uid, row in zip(panel.unit_ids, panel.values):
            writer.writerow([uid] + [repr(float(v)) for v in row])
    return path


# Column aliases for the long quarterly schema, in priority order. The FHFA
# metro file uses metro_name/cbsa/yr/qtr/index_nsa.
UNIT_ALIASES = ("unit", "cbsa", "metro_name", "place_name", "area")
YEAR_ALIASES = ("year", "yr")
QUARTER_ALIASES = ("quarter", "qtr")
PERIOD_ALIASES = ("period",)
VALUE_ALIASES = ("value", "index_nsa", "index_sa", "hpi")


def _find_column(header: list[str], aliases: tuple[str, ...]) -> int | None:
    lowered = [h.strip().lower() for h in header]
    for alias in aliases:
        if alias in lowered:
            return lowered.index(alias)
    return None


def parse_period(text: str) -> tuple[int, int]:
    """Parse a 'YYYYQn' label into (year, quarter)."""
    text = text.strip().upper()
    if "Q" not in text:
        raise PanelFormatError(f"period {text!r} is not of the form YYYYQn")
    y, _, q = text.partition("Q")
    try:
        year, quarter = int(y), int(q)
    except ValueError:
        raise PanelFormatError(f"period {text!r} is not of the form YYYYQn") from None
    if not 1 <= quarter <= 4:
        raise PanelFormatError(f"period {text!r} has quarter outside 1..4")
    return year, quarter


def _period_label(year: int, quarter: int) -> str:
    return f"{year}Q{quarter}"


def _period_range(first: str, last: str) -> list[str]:
    """The labels from first to last inclusive; quarter q of year y is number 4y + q - 1."""
    start, stop = (4 * year + quarter - 1 for year, quarter in map(parse_period, (first, last)))
    if start > stop:
        raise InvalidParamsError(f"period range {first!r}..{last!r} is reversed")
    return [_period_label(i // 4, i % 4 + 1) for i in range(start, stop + 1)]


@dataclass
class PreprocessResult:
    """Wide panel plus the bookkeeping of which units survived."""

    panel: TimePanel
    retained_units: int
    dropped_units: list[str]


def preprocess_hpi(path, date_range: tuple[str, str], t0=None) -> PreprocessResult:
    """Pivot a long quarterly file into a complete-case wide panel.

    date_range is an inclusive pair of 'YYYYQn' labels. Units missing any
    period in the range are dropped. t0 defaults to T - 4, making the final
    year the post-intervention block; pass an int or a period label to
    override.
    """
    path, header, lines = _read_csv(path, "raw")
    labels = _period_range(*date_range)
    if len(labels) < 2:
        raise InvalidParamsError("date range must cover at least two periods")
    unit_col = _find_column(header, UNIT_ALIASES)
    value_col = _find_column(header, VALUE_ALIASES)
    period_col = _find_column(header, PERIOD_ALIASES)
    year_col = _find_column(header, YEAR_ALIASES)
    quarter_col = _find_column(header, QUARTER_ALIASES)
    if unit_col is None or value_col is None:
        raise PanelFormatError(
            f"{path}: need a unit column ({'/'.join(UNIT_ALIASES)}) and a value "
            f"column ({'/'.join(VALUE_ALIASES)})"
        )
    if period_col is None and (year_col is None or quarter_col is None):
        raise PanelFormatError(
            f"{path}: need either a period column or year and quarter columns"
        )
    read = (unit_col, value_col) + (
        (period_col,) if period_col is not None else (year_col, quarter_col)
    )
    cells: dict[str, dict[str, float]] = {}
    for lineno, row in enumerate(lines, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(read):
            raise PanelFormatError(
                f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        unit = row[unit_col].strip()
        if period_col is not None:
            label = _period_label(*parse_period(row[period_col]))
        else:
            try:
                label = _period_label(int(row[year_col]), int(row[quarter_col]))
            except ValueError:
                raise PanelFormatError(
                    f"{path} line {lineno}: non-integer year/quarter"
                ) from None
        cell = row[value_col].strip()
        if cell in ("", ".", "NA"):
            continue  # treated as missing; complete-case filter drops the unit
        cells.setdefault(unit, {})[label] = _cell_value(cell, path, lineno, unit, label)
    kept_ids = []
    dropped = []
    for unit in sorted(cells):
        if all(lab in cells[unit] for lab in labels):
            kept_ids.append(unit)
        else:
            dropped.append(unit)
    if len(kept_ids) < 2:
        raise PanelFormatError(
            f"{path}: only {len(kept_ids)} unit(s) cover {date_range[0]}..{date_range[1]}"
        )
    values = np.array(
        [[cells[u][lab] for lab in labels] for u in kept_ids], dtype=float
    )
    t = len(labels)
    if t0 is None:
        t0_count = t - 4 if t > 4 else t - 1
    else:
        t0_count = _resolve_t0(labels, t0)
    panel = TimePanel(
        unit_ids=kept_ids,
        time_labels=labels,
        values=values,
        split=InterventionSplit(t0_count, t),
    )
    return PreprocessResult(
        panel=panel, retained_units=len(kept_ids), dropped_units=dropped
    )
