"""Report serialization: JSON determinism and the long-form plot CSV."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from clustersc.datagen import NoiseSpec, noise_tag
from clustersc.errors import InvalidInputError
from clustersc.evaluate import (
    GapExperimentResult,
    PlaceboReport,
    PlaceboRow,
    RecoveryCell,
    RecoveryResult,
)
from clustersc.linalg import RankRule
from clustersc.reporting import (
    PLOT_COLUMNS,
    cluster_plot_rows,
    gap_plot_rows,
    placebo_plot_rows,
    recovery_plot_rows,
    spectrum_plot_rows,
    write_json,
    write_plot_csv,
    write_report,
)


def sample_placebo_report(n_rows=3):
    rows = [
        PlaceboRow(0, f"u{i}", "cluster_sc", 0.1 * i, 0.2 * i, 5, cluster_label=1)
        for i in range(1, n_rows + 1)
    ]
    return PlaceboReport(
        rows=rows,
        medians={"cluster_sc": {"pre_mse": 0.2, "post_mse": 0.4}},
        improvements={"values": [], "median": None},
        skipped=[],
        reference="true_signal",
        config={"seed": 7},
    )


def sample_gap_result():
    return GapExperimentResult(
        n=100, n_a=50, t_count=10, rank_r=3, noise=NoiseSpec.gaussian(0.3),
        trials=2, gaps=[1.0, 1.5], empirical_mean_gap=1.25,
        gap_std_error=0.25, theoretical_bound=0.5, precondition_ok=True,
    )


def sample_recovery_result():
    cell = RecoveryCell(
        noise=NoiseSpec.gaussian(0.1), fractions=[0.0, 0.1], ks=[2, 2],
        mean_fraction=0.05, median_precisions=[1.0, 0.9],
        precision_one_share=0.5,
    )
    return RecoveryResult(
        n_a=10, n_b=10, t_count=10, t0=8, k=2, datasets_per_cell=2,
        rule=RankRule.energy(0.95), cells=[cell],
    )


def written(payload, tmp_path):
    """payload as write_json writes it, read back."""
    return json.loads(write_json(payload, tmp_path / "payload.json").read_text())


class TestToJsonable:
    """The conversions write_json applies to values json cannot encode."""

    def test_nested_dataclass(self, tmp_path):
        payload = written({"result": sample_gap_result()}, tmp_path)["result"]
        assert payload["noise"] == "gaussian:0.3"
        assert payload["gaps"] == [1.0, 1.5]

    def test_numpy_values(self, tmp_path):
        payload = written(
            {"f": np.float64(1.5), "i": np.int64(3), "b": np.bool_(True),
             "a": np.array([[1, 2]])},
            tmp_path,
        )
        assert payload == {"f": 1.5, "i": 3, "b": True, "a": [[1, 2]]}
        assert payload["b"] is True

    def test_dict_keys_become_strings(self, tmp_path):
        assert written({1: "a"}, tmp_path) == {"1": "a"}

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_json({"x": object()}, tmp_path / "payload.json")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, value, tmp_path):
        # NaN and Infinity are not JSON; the file is named and never written
        path = tmp_path / "payload.json"
        with pytest.raises(InvalidInputError, match=f"cannot write {path}: Out of range float"):
            write_json({"gaps": [1.0, np.float64(value)]}, path)
        assert not path.exists()

    def test_rank_rule(self, tmp_path):
        # written by its tag, in the grammar of the --rule flag
        assert written(RankRule.fixed(3), tmp_path) == "fixed:3"
        payload = written(sample_recovery_result(), tmp_path)
        assert payload["rule"] == "energy:0.95"
        assert payload["cells"][0]["noise"] == "gaussian:0.1"


class TestNoiseTag:
    def test_gaussian(self):
        assert noise_tag(NoiseSpec.gaussian(0.3)) == "gaussian:0.3"

    def test_student_t(self):
        assert noise_tag(NoiseSpec.student_t(4, 0.3)) == "student_t:4.0:0.3"


class TestPlotRows:
    def test_placebo_rows_per_metric_kind(self):
        rows = placebo_plot_rows(sample_placebo_report(3), dataset="d1", noise="g")
        kinds = {}
        for _, _, _, metric, _ in rows:
            kinds[metric] = kinds.get(metric, 0) + 1
        assert kinds["pre_mse"] == 3
        assert kinds["post_mse"] == 3

    def test_placebo_selection_metrics_optional(self):
        report = sample_placebo_report(1)
        report.rows[0].active_donor_precision = 0.8
        report.rows[0].active_donor_recall = 0.5
        rows = placebo_plot_rows(report)
        metrics = [r[3] for r in rows]
        assert "active_donor_precision" in metrics
        assert "active_donor_recall" in metrics

    def test_improvement_rows(self):
        report = sample_placebo_report(2)
        report.improvements = {"values": [0.1, -0.2], "median": -0.05}
        rows = placebo_plot_rows(report, dataset="d", noise="n")
        improvement = [r for r in rows if r[3] == "improvement"]
        assert len(improvement) == 2
        assert improvement[0][2] == "cluster_sc_vs_sc_full"

    def test_gap_rows(self):
        rows = gap_plot_rows(sample_gap_result())
        assert sum(r[3] == "gap" for r in rows) == 2
        assert any(r[3] == "theoretical_bound" for r in rows)
        assert all(r[1] == "gaussian:0.3" for r in rows)

    def test_recovery_rows(self):
        rows = recovery_plot_rows(sample_recovery_result())
        assert sum(r[3] == "misassignment_fraction" for r in rows) == 2
        assert sum(r[3] == "precision_one_share" for r in rows) == 1

    def test_spectrum_rows(self):
        rows = spectrum_plot_rows([(1, 5.0, 0.8), (2, 1.0, 1.0)], dataset="p")
        assert [r[3] for r in rows] == ["sigma_01", "energy_01", "sigma_02", "energy_02"]

    def test_cluster_rows(self):
        rows = cluster_plot_rows(["a", "b"], np.array([1, 2]), dataset="p")
        assert rows == [("p", "", "a", "cluster_label", 1), ("p", "", "b", "cluster_label", 2)]


class TestWriteReport:
    def test_paths_and_header(self, tmp_path):
        report = sample_placebo_report()
        json_path, csv_path = write_report(
            report, tmp_path, "run", placebo_plot_rows(report, dataset="d1", noise="g:0.1")
        )
        assert json_path.name == "run.json"
        assert csv_path.name == "run_plot.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(PLOT_COLUMNS)
        assert len(lines) == 1 + 6  # 3 rows x 2 metrics

    def test_byte_identical_rewrites(self, tmp_path):
        report = sample_placebo_report()
        rows = placebo_plot_rows(report)
        first = write_report(report, tmp_path / "a", "run", rows)
        second = write_report(report, tmp_path / "b", "run", rows)
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_empty_report_still_valid(self, tmp_path):
        report = PlaceboReport(
            rows=[], medians={}, improvements={"values": [], "median": None},
            skipped=[], reference="observed", config={"seed": 3},
        )
        json_path, csv_path = write_report(report, tmp_path, "empty", placebo_plot_rows(report))
        payload = json.loads(json_path.read_text())
        assert payload["config"] == {"seed": 3}
        assert payload["rows"] == []
        assert csv_path.read_text() == ",".join(PLOT_COLUMNS) + "\n"

    def test_json_loads_and_is_sorted(self, tmp_path):
        result = sample_gap_result()
        json_path, _ = write_report(result, tmp_path, "gap", gap_plot_rows(result))
        text = json_path.read_text()
        payload = json.loads(text)
        assert payload["empirical_mean_gap"] == 1.25
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_float_repr_in_csv(self, tmp_path):
        result = sample_gap_result()
        _, csv_path = write_report(result, tmp_path, "gap", gap_plot_rows(result))
        assert "0.25" in csv_path.read_text()

    def test_wrong_arity_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_plot_csv([("a", "b", "c")], tmp_path / "bad.csv")

    def test_custom_plot_rows(self, tmp_path):
        rows = [("d", "n", "v", "m", 1.5)]
        _, csv_path = write_report(
            sample_placebo_report(), tmp_path, "custom", plot_rows=rows
        )
        assert csv_path.read_text().splitlines()[1] == "d,n,v,m,1.5"

    def test_comma_in_unit_id_is_quoted(self, tmp_path):
        rows = cluster_plot_rows(["Abilene, TX", "Akron"], np.array([1, 2]), dataset="p")
        path = write_plot_csv(rows, tmp_path / "cluster_plot.csv")
        assert path.read_text().splitlines()[1:] == [
            'p,,"Abilene, TX",cluster_label,1',
            "p,,Akron,cluster_label,2",
        ]
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert [row[2] for row in parsed[1:]] == ["Abilene, TX", "Akron"]
        assert all(len(row) == len(PLOT_COLUMNS) for row in parsed)
