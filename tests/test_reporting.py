"""Report serialization: JSON determinism and the long-form plot CSV."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clustersc.datagen import NoiseSpec, noise_tag
from clustersc.errors import InvalidInputError
from clustersc.evaluate import (
    GapExperimentResult,
    PlaceboReport,
    PlaceboRow,
    RecoveryCell,
    RecoveryResult,
)
from clustersc.linalg import RankRule, rule_tag
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


# -- the writers as json.dumps and csv wrote reports before the C-encoder walk -

def oracle_default(obj):
    """The JSON hook as it was: dataclasses.fields on every dataclass met."""
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


def oracle_json(payload) -> bytes:
    text = json.dumps(payload, default=oracle_default, sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def oracle_format(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def oracle_csv(rows) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(PLOT_COLUMNS)
    for row in rows:
        writer.writerow([oracle_format(field) for field in row])
    return text.getvalue().encode("utf-8")


texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["", "a,b", 'say "hi"', "line\nbreak", "cr\r\n", "Zürich", "東京", "\u2028", "\x00"]
    ),
)
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, 1e16, 5e-324, 0.1, 1e22, 1.7976931348623157e308]),
)
placebo_rows = st.builds(
    PlaceboRow, st.integers(0, 3), texts, texts, finite_floats, finite_floats,
    st.integers(0, 400), st.none() | st.integers(1, 4), st.none() | finite_floats,
    st.none() | finite_floats,
)
json_leaves = st.one_of(
    texts, st.integers(), st.booleans(), finite_floats, st.none(),
    finite_floats.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(finite_floats, max_size=3).map(np.array),
    st.lists(st.integers(-9, 9), min_size=1, max_size=2).map(lambda v: np.array([v, v])),
    placebo_rows,
    st.sampled_from([RankRule.fixed(3), RankRule.energy(0.95), RankRule.energy(0.5, squared=True)]),
    st.sampled_from([NoiseSpec.gaussian(0.3), NoiseSpec.student_t(4, 0.3)]),
    texts.map(Path),
)
# keys of one kind per dict, so json can sort them; ints, floats and bools compare
KEY_KINDS = (
    texts, st.integers(), finite_floats, st.booleans(), st.none(),
    st.one_of(st.integers(), finite_floats, st.booleans()),
)
payloads = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in KEY_KINDS),
    ),
    max_leaves=24,
)

csv_rows = st.lists(st.one_of(
    texts, st.integers(), st.booleans(), finite_floats,
    finite_floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
), min_size=5, max_size=5)


class TestWriterMatchesJsonDumps:
    """write_json and write_plot_csv write what json.dumps and per-field csv wrote."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(payload=payloads)
    def test_json_bytes(self, payload, tmp_path):
        path = tmp_path / "payload.json"
        assert write_json(payload, path).read_bytes() == oracle_json(payload)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=st.one_of(
        st.dictionaries(st.one_of(*KEY_KINDS), st.lists(json_leaves, max_size=3), max_size=4),
        st.dictionaries(st.one_of(texts, st.integers()), json_leaves, max_size=4),
    ))
    def test_unsortable_keys_raise_what_json_raises(self, payload, tmp_path):
        # mixed key kinds that do not compare fail as json.dumps fails
        path = tmp_path / "payload.json"
        path.unlink(missing_ok=True)  # tmp_path is shared by the examples
        try:
            expected = oracle_json(payload)
        except TypeError as exc:
            with pytest.raises(TypeError) as info:
                write_json(payload, path)
            assert str(info.value) == str(exc)
            assert not path.exists()
        else:
            assert write_json(payload, path).read_bytes() == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.one_of(csv_rows, csv_rows.map(tuple)), max_size=6))
    def test_csv_bytes(self, rows, tmp_path):
        path = tmp_path / "plot.csv"
        assert write_plot_csv(rows, path).read_bytes() == oracle_csv(rows)

    @pytest.mark.parametrize("payload, shown", [
        ({"gaps": [1.0, math.nan]}, "nan"),
        ({"a": {"b": [[1.0, math.inf]], "c": [{}]}}, "inf"),
        ([np.float64(-math.inf), "x", [1]], "np.float64(-inf)"),
        ({math.nan: 1.0}, "nan"),
        ({"rows": [PlaceboRow(0, "u", "sc_full", math.nan, 0.1, 3)]}, "nan"),
        (math.inf, "inf"),
    ])
    def test_non_finite_message(self, payload, shown, tmp_path):
        path = tmp_path / "payload.json"
        with pytest.raises(InvalidInputError) as info:
            write_json(payload, path)
        assert str(info.value) == (
            f"cannot write {path}: Out of range float values are not JSON compliant: {shown}"
        )
        assert not path.exists()

    def test_circular_payload_is_refused_as_json_refuses_it(self, tmp_path):
        loop = [1.0]
        loop.append({"again": loop})
        path = tmp_path / "payload.json"
        with pytest.raises(InvalidInputError) as info:
            write_json({"loop": loop}, path)
        assert str(info.value) == f"cannot write {path}: Circular reference detected"
        assert not path.exists()

    def test_wrong_arity_after_good_rows_writes_nothing(self, tmp_path):
        path = tmp_path / "plot.csv"
        with pytest.raises(InvalidInputError, match="plot rows need 5 fields, got 6"):
            write_plot_csv([("d", "n", "v", "m", 1.5), ("d", "n", "v", "m", 1.5, 2)], path)
        assert not path.exists()

    def test_bool_and_numpy_fields_keep_their_format(self, tmp_path):
        rows = [("d", "n", "v", True, np.float64(0.1)), ("d", "", np.int64(3), np.bool_(False), 2)]
        path = write_plot_csv(rows, tmp_path / "plot.csv")
        assert path.read_text().splitlines()[1:] == ["d,n,v,true,0.1", "d,,3,false,2"]
