"""Panel containers, the wide CSV format, and the quarterly preprocessor.

The round-trip tests rely on repr-written floats: every IEEE double written
by save_panel_csv parses back to the identical bit pattern.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from clustersc.errors import (
    InvalidParamsError,
    MissingValueError,
    PanelFormatError,
    ShapeError,
)
from clustersc.panel import (
    InterventionSplit,
    TimePanel,
    load_panel_csv,
    parse_period,
    preprocess_hpi,
    save_panel_csv,
)


def make_panel(n=3, t=5, t0=3, seed=0):
    rng = np.random.default_rng(seed)
    return TimePanel(
        unit_ids=[f"u{i}" for i in range(n)],
        time_labels=[f"t{j}" for j in range(t)],
        values=rng.normal(size=(n, t)),
        split=InterventionSplit(t0, t),
    )


class TestInterventionSplit:
    def test_rejects_no_post_period(self):
        with pytest.raises(InvalidParamsError):
            InterventionSplit(5, 5)

    def test_rejects_no_pre_period(self):
        with pytest.raises(InvalidParamsError):
            InterventionSplit(0, 5)


class TestTimePanel:
    def test_pre_post_blocks(self):
        panel = make_panel(t=5, t0=3)
        assert panel.pre.shape == (3, 3)
        assert panel.post.shape == (3, 2)
        np.testing.assert_array_equal(
            np.hstack([panel.pre, panel.post]), panel.values
        )

    def test_duplicate_unit_ids(self):
        with pytest.raises(PanelFormatError):
            TimePanel(["a", "a"], ["t1", "t2"], np.ones((2, 2)), InterventionSplit(1, 2))

    def test_nan_rejected(self):
        values = np.ones((2, 2))
        values[0, 1] = np.nan
        with pytest.raises(PanelFormatError):
            TimePanel(["a", "b"], ["t1", "t2"], values, InterventionSplit(1, 2))

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeError):
            TimePanel(["a", "b"], ["t1"], np.ones((2, 2)), InterventionSplit(1, 2))

    def test_split_length_mismatch(self):
        with pytest.raises(ShapeError):
            TimePanel(["a", "b"], ["t1", "t2"], np.ones((2, 2)), InterventionSplit(1, 3))

    @pytest.mark.parametrize("values", [np.ones(3), np.float64(1.0), np.ones((3, 1, 1))])
    def test_values_must_be_a_matrix(self, values):
        # diagnosed before the shape is unpacked into (units, periods)
        with pytest.raises(ShapeError, match=r"panel values must be 2-d, got \d dimension"):
            TimePanel(["a", "b", "c"], ["t1"], values, InterventionSplit(1, 2))


class TestCsvRoundTrip:
    def test_bit_equal_values(self, tmp_path):
        panel = make_panel(n=4, t=6, t0=4, seed=3)
        path = save_panel_csv(panel, tmp_path / "panel.csv")
        loaded = load_panel_csv(path, 4)
        assert loaded.unit_ids == panel.unit_ids
        assert loaded.time_labels == panel.time_labels
        assert loaded.split == panel.split
        assert np.array_equal(loaded.values, panel.values)

    def test_awkward_floats_survive(self, tmp_path):
        values = np.array([[0.1, 1e-300, 1.7976931348623157e308],
                           [-0.3, np.pi, 2.0 / 3.0]])
        panel = TimePanel(["a", "b"], ["t1", "t2", "t3"], values, InterventionSplit(2, 3))
        loaded = load_panel_csv(save_panel_csv(panel, tmp_path / "p.csv"), 2)
        assert np.array_equal(loaded.values, values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        panel = make_panel(seed=9)
        first = save_panel_csv(panel, tmp_path / "a.csv").read_bytes()
        second = save_panel_csv(panel, tmp_path / "b.csv").read_bytes()
        assert first == second


class TestLoadPanelCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        return path

    def test_basic_file(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2,q3\nu1,1.0,2.0,3.0\nu2,4.0,5.0,6.0\n")
        panel = load_panel_csv(path, 2)
        assert panel.values.shape == (2, 3)
        assert panel.split.t0 == 2

    def test_t0_by_label(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2,q3\nu1,1,2,3\nu2,4,5,6\n")
        panel = load_panel_csv(path, "q2")
        assert panel.split.t0 == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(PanelFormatError, match="not found"):
            load_panel_csv(tmp_path / "nope.csv", 2)

    def test_empty_file(self, tmp_path):
        with pytest.raises(PanelFormatError, match="empty"):
            load_panel_csv(self.write(tmp_path, ""), 2)

    def test_header_only(self, tmp_path):
        with pytest.raises(PanelFormatError, match="no data rows"):
            load_panel_csv(self.write(tmp_path, "unit,q1,q2\n"), 1)

    def test_bad_header(self, tmp_path):
        with pytest.raises(PanelFormatError, match="header"):
            load_panel_csv(self.write(tmp_path, "id,q1,q2\nu1,1,2\n"), 1)

    def test_ragged_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2,q3\nu1,1.0,2.0\n")
        with pytest.raises(PanelFormatError, match="line 2"):
            load_panel_csv(path, 2)

    def test_blank_cell_names_unit_and_period(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2,q3\nu1,1.0,,3.0\n")
        with pytest.raises(MissingValueError, match=r"'u1'.*'q2'"):
            load_panel_csv(path, 2)

    def test_non_numeric_cell_names_unit_and_period(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2,q3\nu1,1.0,oops,3.0\n")
        with pytest.raises(PanelFormatError, match=r"'oops'.*'u1'.*'q2'"):
            load_panel_csv(path, 2)

    def test_duplicate_unit_ids(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2\nu1,1,2\nu1,3,4\n")
        with pytest.raises(PanelFormatError, match="duplicate"):
            load_panel_csv(path, 1)

    def test_unknown_t0_label(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2\nu1,1,2\n")
        with pytest.raises(PanelFormatError, match="neither"):
            load_panel_csv(path, "q9")

    def test_t0_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "unit,q1,q2\nu1,1,2\nu2,3,4\n")
        with pytest.raises(PanelFormatError, match="t0"):
            load_panel_csv(path, 2)


class TestParsePeriod:
    def test_parses(self):
        assert parse_period("1997Q1") == (1997, 1)
        assert parse_period(" 2006q4 ") == (2006, 4)

    def test_rejects_no_quarter(self):
        with pytest.raises(PanelFormatError):
            parse_period("1997")

    def test_rejects_quarter_range(self):
        with pytest.raises(PanelFormatError):
            parse_period("1997Q5")


class TestPreprocessHpi:
    HEADER = "metro_name,yr,qtr,index_nsa\n"

    def long_rows(self, unit, start_year, quarters, value=100.0, skip=()):
        rows = []
        y, q = start_year, 1
        for i in range(quarters):
            if (y, q) not in skip:
                rows.append(f"{unit},{y},{q},{value + i}\n")
            q += 1
            if q == 5:
                y, q = y + 1, 1
        return rows

    def write(self, tmp_path, rows):
        path = tmp_path / "raw.csv"
        path.write_text(self.HEADER + "".join(rows))
        return path

    def test_complete_units_retained(self, tmp_path):
        rows = self.long_rows("m1", 1997, 8) + self.long_rows("m2", 1997, 8)
        result = preprocess_hpi(self.write(tmp_path, rows), ("1997Q1", "1998Q4"))
        assert result.retained_units == 2
        assert result.dropped_units == []
        assert result.panel.values.shape == (2, 8)
        assert result.panel.time_labels[0] == "1997Q1"
        # default split puts the last four quarters post-intervention
        assert result.panel.split.t0 == 4

    def test_unit_missing_quarter_dropped(self, tmp_path):
        rows = self.long_rows("m1", 1997, 8) + self.long_rows(
            "m2", 1997, 8, skip={(1998, 2)}
        ) + self.long_rows("m3", 1997, 8)
        result = preprocess_hpi(self.write(tmp_path, rows), ("1997Q1", "1998Q4"))
        assert result.retained_units == 2
        assert result.dropped_units == ["m2"]

    def test_t0_label_override(self, tmp_path):
        rows = self.long_rows("m1", 1997, 8) + self.long_rows("m2", 1997, 8)
        result = preprocess_hpi(
            self.write(tmp_path, rows), ("1997Q1", "1998Q4"), t0="1998Q2"
        )
        assert result.panel.split.t0 == 6

    def test_period_column_schema(self, tmp_path):
        path = tmp_path / "raw.csv"
        lines = ["unit,period,value\n"]
        for unit in ("a", "b"):
            for label in ("2000Q1", "2000Q2", "2000Q3"):
                lines.append(f"{unit},{label},1.5\n")
        path.write_text("".join(lines))
        result = preprocess_hpi(path, ("2000Q1", "2000Q3"))
        assert result.retained_units == 2
        assert result.panel.time_labels == ["2000Q1", "2000Q2", "2000Q3"]

    def test_blank_value_counts_as_missing(self, tmp_path):
        rows = self.long_rows("m1", 1997, 8) + self.long_rows("m2", 1997, 8)
        rows.append("m3,1997,1,.\n")
        rows.extend(self.long_rows("m3", 1997, 8)[1:])
        result = preprocess_hpi(self.write(tmp_path, rows), ("1997Q1", "1998Q4"))
        assert "m3" in result.dropped_units

    def test_non_numeric_value(self, tmp_path):
        rows = self.long_rows("m1", 1997, 4)
        rows.append("m1,1998,1,abc\n")
        with pytest.raises(PanelFormatError, match="non-numeric"):
            preprocess_hpi(self.write(tmp_path, rows), ("1997Q1", "1998Q1"))

    @pytest.mark.parametrize("header, short", [
        ("unit,year,quarter,value", "A,2000"), ("unit,period,value", "A,2000Q1"),
    ])
    def test_short_row_names_line_and_field_count(self, tmp_path, header, short):
        path = tmp_path / "raw.csv"
        path.write_text(f"{header}\n{short}\n")
        fields = header.count(",") + 1
        where = f"{path} line 2: expected {fields} fields, got 2"
        with pytest.raises(PanelFormatError, match=re.escape(where) + "$"):
            preprocess_hpi(path, ("2000Q1", "2000Q2"))

    def test_too_few_complete_units(self, tmp_path):
        rows = self.long_rows("m1", 1997, 8)
        with pytest.raises(PanelFormatError, match="unit"):
            preprocess_hpi(self.write(tmp_path, rows), ("1997Q1", "1998Q4"))

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("name,score\nx,1\n")
        with pytest.raises(PanelFormatError, match="column"):
            preprocess_hpi(path, ("1997Q1", "1997Q4"))

    def test_range_crosses_years(self, tmp_path):
        rows = self.long_rows("m1", 1997, 12) + self.long_rows("m2", 1997, 12)
        panel = preprocess_hpi(self.write(tmp_path, rows), ("1997Q3", "1999Q2")).panel
        assert panel.time_labels == [
            "1997Q3", "1997Q4", "1998Q1", "1998Q2", "1998Q3", "1998Q4", "1999Q1", "1999Q2"
        ]

    def test_reversed_range(self, tmp_path):
        rows = self.long_rows("m1", 1997, 8) + self.long_rows("m2", 1997, 8)
        with pytest.raises(InvalidParamsError, match="reversed"):
            preprocess_hpi(self.write(tmp_path, rows), ("1998Q4", "1997Q1"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(PanelFormatError, match="not found"):
            preprocess_hpi(tmp_path / "nope.csv", ("1997Q1", "1997Q4"))


class TestSharedReaders:
    """Both file readers open files and parse cells through one helper each."""

    def test_empty_raw_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("")
        with pytest.raises(PanelFormatError, match="empty"):
            preprocess_hpi(path, ("1997Q1", "1997Q4"))

    def test_non_numeric_cell_is_named_alike(self, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("unit,1998Q1,1998Q2\nm1,1.0,2.0\nm2,abc,2.0\n")
        raw = tmp_path / "raw.csv"
        raw.write_text("unit,period,value\nm1,1998Q1,1.0\nm2,1998Q1,abc\n")
        where = "line 3: non-numeric value 'abc' for unit 'm2' at period '1998Q1'"
        with pytest.raises(PanelFormatError, match=re.escape(f"{wide} {where}") + "$"):
            load_panel_csv(wide, 1)
        with pytest.raises(PanelFormatError, match=re.escape(f"{raw} {where}") + "$"):
            preprocess_hpi(raw, ("1998Q1", "1998Q2"))
