"""Placebo harnesses and Monte-Carlo experiments against frozen oracles.

Hand-computed values used below:
  - mse([3,1,2], [1,1,1]) = (4 + 0 + 1) / 3 = 5/3.
  - std_error([1,2,3,4]): deviations from 2.5 are +-1.5, +-0.5, so the
    ddof-1 variance is 5/3 and the standard error sqrt(5/12) = 0.6454972...
  - Gap bound at (n=1000, n_a=500, T=10, s=0.3):
    0.3 * (sqrt(1000) - sqrt(500) - 2 sqrt(10)) = 0.88126246...
  - Bound precondition threshold at (n=200, T=10):
    200 + 40 - 4 sqrt(2000) = 61.11...; n_a = 100 exceeds it.
  - Hand-built report: targets u1, u2, two variants; u2 skipped for
    cluster_sc, so both variants aggregate over u1 alone.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from clustersc.datagen import (
    GROUP_A_SPEC,
    GROUP_B_SPEC,
    NoiseSpec,
    SignalSpec,
    SyntheticDataset,
    gen_dataset,
)
from clustersc.errors import (
    DegenerateClusterError,
    InvalidInputError,
    InvalidParamsError,
    ShapeError,
    UndefinedPrecisionError,
)
from clustersc import engine, evaluate, regression
from clustersc.evaluate import (
    CLUSTER_MODES,
    PlaceboDesign,
    PlaceboReport,
    PlaceboRow,
    _aggregates,
    cluster_recovery_experiment,
    donor_selection_scores,
    leave_one_out_placebo,
    mse,
    pairwise_improvement,
    random_subset_variant,
    singular_gap_experiment,
    split_placebo,
    std_error,
)
from clustersc.linalg import RankRule
from clustersc.panel import InterventionSplit, TimePanel
from clustersc.regression import RegressionSpec
from clustersc.reporting import write_json
from placebo_reference import reference_leave_one_out, reference_split

RIDGE = RegressionSpec("ridge", lam=0.01)
ENERGY = RankRule.energy(0.95)
VARIANT_NAMES = ("sc_full", "cluster_sc", "sc_random_subset")

# amplitude concentrated near 1 and disjoint frequency bands: the two
# groups' rows form well-separated clouds, so noiseless clustering is exact
SEPARATED_A = SignalSpec(3, (8.0, 2.0), (1.0, 2.0), (0.0, 0.0))
SEPARATED_B = SignalSpec(3, (8.0, 2.0), (6.0, 8.0), (0.0, 0.0))


def small_dataset(seed=11, s=0.1, n_a=20, n_b=20):
    return gen_dataset(
        GROUP_A_SPEC, GROUP_B_SPEC, n_a, n_b, 10, 8, NoiseSpec.gaussian(s), seed=seed
    )


def standard_design(reg=RIDGE, rule=ENERGY, k=2):
    return PlaceboDesign(reg, rule, k, with_random_subset=True)


def oracle_medians(rows, skipped) -> dict:
    """Per-variant medians over complete cells, recomputed from the rows."""
    bad = {(s["iteration"], s["target_id"]) for s in skipped}
    by_variant: dict[str, list] = {}
    for row in rows:
        if (row.iteration, row.target_id) not in bad:
            by_variant.setdefault(row.variant, []).append(row)
    return {
        name: {
            "pre_mse": float(np.median([r.pre_mse for r in kept])),
            "post_mse": float(np.median([r.post_mse for r in kept])),
        }
        for name, kept in by_variant.items()
    }


def oracle_improvements(rows, skipped) -> dict:
    """Full-pool minus cluster post MSE per complete cell, and their median."""
    bad = {(s["iteration"], s["target_id"]) for s in skipped}
    cells: dict[tuple, dict] = {}
    for row in rows:
        cell = (row.iteration, row.target_id)
        if cell not in bad:
            cells.setdefault(cell, {})[row.variant] = row.post_mse
    values = [
        post["sc_full"] - post["cluster_sc"]
        for post in cells.values() if "sc_full" in post and "cluster_sc" in post
    ]
    return {"values": values, "median": float(np.median(values)) if values else None}


def assert_aggregates_match_oracles(report):
    assert report.medians == oracle_medians(report.rows, report.skipped)
    assert report.improvements == oracle_improvements(report.rows, report.skipped)
    for entry in report.per_iteration:
        rows = [r for r in report.rows if r.iteration == entry["iteration"]]
        skipped = [s for s in report.skipped if s["iteration"] == entry["iteration"]]
        assert entry["medians"] == oracle_medians(rows, skipped)
        assert entry["improvements"] == oracle_improvements(rows, skipped)


class TestMse:
    def test_identical_vectors(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_difference(self):
        assert mse([1.0, 1.0], [0.0, 0.0]) == 1.0

    def test_hand_value(self):
        assert mse([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == pytest.approx(5.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(ShapeError):
            mse([], [])

    def test_matrix_rejected(self):
        with pytest.raises(ShapeError):
            mse(np.ones((2, 2)), np.ones((2, 2)))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_nonnegative(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        assert mse(a, b) >= 0.0
        assert mse(a, b) == mse(b, a)


class TestPairwiseImprovement:
    def test_cluster_better(self):
        assert pairwise_improvement(0.5, 0.2) == pytest.approx(0.3)

    def test_equal(self):
        assert pairwise_improvement(0.4, 0.4) == 0.0

    def test_cluster_worse_is_negative(self):
        assert pairwise_improvement(0.2, 0.5) == pytest.approx(-0.3)

    def test_negative_input_rejected(self):
        with pytest.raises(InvalidInputError):
            pairwise_improvement(-0.1, 0.2)


class TestStdError:
    def test_hand_value(self):
        assert std_error([1.0, 2.0, 3.0, 4.0]) == pytest.approx(math.sqrt(5.0 / 12.0))

    def test_single_value(self):
        assert std_error([3.0]) == 0.0

    def test_constant_values(self):
        assert std_error([2.0, 2.0, 2.0]) == 0.0


class TestPlaceboDesign:
    def test_bad_k(self):
        for k in (0, -1, 1.5, "two"):
            with pytest.raises(InvalidParamsError):
                PlaceboDesign(RIDGE, ENERGY, k=k)

    @pytest.mark.parametrize("k", [2.7, 2.9, True, "two"])
    def test_bad_k_has_the_library_diagnosis(self, k):
        with pytest.raises(InvalidParamsError, match="k must be 'auto' or a positive integer"):
            PlaceboDesign(RIDGE, ENERGY, k=k)

    @pytest.mark.parametrize("args, message", [
        pytest.param((RIDGE, "fixed:3"), "rule must be a RankRule, got 'fixed:3'", id="rule-tag"),
        pytest.param((RIDGE, ENERGY, 2, "fixed:2"), "cluster_rule must be a RankRule, got 'fixed:2'",
                     id="cluster-rule-tag"),
        pytest.param(("ridge", ENERGY), "reg must be a RegressionSpec, got 'ridge'", id="reg-name"),
        pytest.param((ENERGY, RIDGE), "reg must be a RegressionSpec, got RankRule(", id="swapped"),
        pytest.param((RIDGE, ENERGY, 2, None, "yes"),
                     "with_random_subset must be a bool, got 'yes'", id="subset-text"),
        pytest.param((RIDGE, ENERGY, 2, None, 2), "with_random_subset must be a bool, got 2",
                     id="subset-int"),
        pytest.param((RIDGE, ENERGY, 2, None, None), "with_random_subset must be a bool, got None",
                     id="subset-none"),
    ])
    def test_parts_must_have_their_types(self, args, message):
        # refused when built, not as a raw AttributeError inside a harness
        with pytest.raises(InvalidParamsError, match=re.escape(message)):
            PlaceboDesign(*args)

    def test_auto_k(self):
        assert PlaceboDesign(RIDGE, ENERGY).k == "auto"

    def test_cluster_rule_defaults_to_rule(self):
        assert PlaceboDesign(RIDGE, ENERGY).cluster_rule == ENERGY
        fixed = RankRule.fixed(3)
        assert PlaceboDesign(RIDGE, ENERGY, cluster_rule=fixed).cluster_rule == fixed

    def test_variants_in_row_order(self):
        assert PlaceboDesign(RIDGE, ENERGY).variants == ("sc_full", "cluster_sc")
        assert standard_design().variants == VARIANT_NAMES


class TestRandomSubsetVariant:
    def test_full_pool(self):
        pool = np.ones((5, 3))
        idx = random_subset_variant(pool, 5, np.random.default_rng(0))
        assert idx == [0, 1, 2, 3, 4]

    def test_singleton(self):
        idx = random_subset_variant(np.ones((5, 3)), 1, np.random.default_rng(0))
        assert len(idx) == 1 and 0 <= idx[0] < 5

    def test_reproducible(self):
        pool = np.ones((20, 4))
        a = random_subset_variant(pool, 7, np.random.default_rng(42))
        b = random_subset_variant(pool, 7, np.random.default_rng(42))
        assert a == b

    def test_no_replacement(self):
        idx = random_subset_variant(np.ones((10, 3)), 10, np.random.default_rng(3))
        assert len(set(idx)) == 10

    def test_oversized_rejected(self):
        with pytest.raises(InvalidInputError):
            random_subset_variant(np.ones((4, 3)), 5, np.random.default_rng(0))

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            random_subset_variant(np.ones((4, 3)), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [2.5, 2.0, True, "2", None])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(InvalidInputError, match="subset_size must be an integer"):
            random_subset_variant(np.ones((4, 3)), size, np.random.default_rng(0))

    def test_numpy_integer_size(self):
        drawn = random_subset_variant(np.ones((20, 4)), np.int64(7), np.random.default_rng(42))
        assert drawn == random_subset_variant(np.ones((20, 4)), 7, np.random.default_rng(42))

    def test_integer_row_column(self):
        # the core passes a target's donor rows as a column: only the row count is read
        rows = np.arange(3, 23)[:, None]
        drawn = random_subset_variant(rows, 7, np.random.default_rng(42))
        assert drawn == random_subset_variant(np.ones((20, 4)), 7, np.random.default_rng(42))


class TestDonorSelectionScores:
    LABELS = ["A", "A", "A", "B", "B"]

    def test_subset_of_group(self):
        precision, recall = donor_selection_scores([0, 1], self.LABELS, "A")
        assert precision == 1.0
        assert recall == pytest.approx(2.0 / 3.0)

    def test_exact_group(self):
        assert donor_selection_scores([0, 1, 2], self.LABELS, "A") == (1.0, 1.0)

    def test_three_of_four_in_group_of_ten(self):
        labels = ["A"] * 10 + ["B"] * 10
        precision, recall = donor_selection_scores([0, 1, 2, 10], labels, "A")
        assert precision == pytest.approx(0.75)
        assert recall == pytest.approx(0.3)

    def test_empty_selection(self):
        with pytest.raises(UndefinedPrecisionError):
            donor_selection_scores([], self.LABELS, "A")

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            donor_selection_scores([7], self.LABELS, "A")

    def test_missing_group(self):
        with pytest.raises(InvalidInputError):
            donor_selection_scores([0], self.LABELS, "C")

    def test_duplicates_collapse(self):
        assert donor_selection_scores([0, 0, 3], self.LABELS, "A") == (0.5, 1.0 / 3.0)

    @given(st.sets(st.integers(0, 9), min_size=1), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_scores_are_rates(self, selected, n_a):
        labels = ["A"] * max(1, n_a) + ["B"] * 10
        precision, recall = donor_selection_scores(selected, labels, "A")
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0


class TestPlaceboReport:
    def hand_report(self):
        rows = [
            PlaceboRow(0, "u1", "sc_full", 0.5, 1.0, 10),
            PlaceboRow(0, "u1", "cluster_sc", 0.3, 0.4, 4, cluster_label=1),
            PlaceboRow(0, "u2", "sc_full", 0.7, 2.0, 10),
        ]
        skipped = [
            {"iteration": 0, "target_id": "u2", "variant": "cluster_sc",
             "reason": "cluster 2 has 1 donor(s); at least 2 are required"},
        ]
        medians = {
            "sc_full": {"pre_mse": 0.5, "post_mse": 1.0},
            "cluster_sc": {"pre_mse": 0.3, "post_mse": 0.4},
        }
        improvements = {"values": [0.6], "median": 0.6}
        return PlaceboReport(
            rows=rows, medians=medians, improvements=improvements,
            skipped=skipped, reference="true_signal", config={},
        )

    def test_skipped_cell_excluded_from_every_variant(self):
        # u2 was skipped for cluster_sc, so its sc_full row must not count
        report = self.hand_report()
        assert _aggregates(report.rows, report.skipped)["medians"] == report.medians

    def test_improvements_from_complete_cells_only(self):
        report = self.hand_report()
        assert _aggregates(report.rows, report.skipped)["improvements"] == report.improvements

    def test_oracles_agree_with_hand_values(self):
        assert_aggregates_match_oracles(self.hand_report())

    def test_duplicate_cell_rejected(self):
        rows = [
            PlaceboRow(0, "u1", "sc_full", 0.5, 1.0, 10),
            PlaceboRow(0, "u1", "sc_full", 0.5, 1.0, 10),
        ]
        with pytest.raises(InvalidInputError):
            PlaceboReport(
                rows=rows, medians={}, improvements={}, skipped=[],
                reference="observed", config={},
            )


class TestLeaveOneOutPlacebo:
    def test_single_target_row_count(self):
        ds = small_dataset()
        report = leave_one_out_placebo(
            ds, 0.01, standard_design(), np.random.default_rng(0)
        )
        assert len(report.rows) == 3
        assert {r.target_id for r in report.rows} == {report.rows[0].target_id}
        assert report.config["n_targets"] == 1

    def test_noiseless_cluster_sc_recovers_exactly(self):
        ds = small_dataset(seed=11, s=0.0)
        design = PlaceboDesign(RegressionSpec("ols"), RankRule.fixed(3), k=2)
        report = leave_one_out_placebo(ds, 0.25, design, np.random.default_rng(3))
        assert report.skipped == []
        rows = [r for r in report.rows if r.variant == "cluster_sc"]
        assert rows
        assert all(r.post_mse <= 1e-10 for r in rows)
        assert all(r.pre_mse <= 1e-10 for r in rows)

    def test_reference_label(self):
        report = leave_one_out_placebo(
            small_dataset(), 0.1, standard_design(), np.random.default_rng(1)
        )
        assert report.reference == "true_signal"
        assert all(r.iteration == 0 for r in report.rows)

    def test_target_excluded_from_pool(self):
        # with k=1 the cluster is the whole pool, so every variant must see
        # exactly n - 1 donors; in per_dataset mode the model covers all n
        # units and the target has to be dropped from its own cluster
        ds = small_dataset(n_a=10, n_b=10)
        design = PlaceboDesign(RIDGE, ENERGY, k=1)
        for mode in ("per_target", "per_dataset"):
            report = leave_one_out_placebo(
                ds, 0.5, design, np.random.default_rng(2), cluster_mode=mode
            )
            assert all(r.selected_donor_count == 19 for r in report.rows)

    @pytest.mark.parametrize("mode", ["per_target", "per_dataset"])
    def test_each_variant_denoised_under_its_rule(self, monkeypatch, mode):
        # the cluster runs under cluster_rule; the full pool and the random
        # subset run under rule
        design = PlaceboDesign(RIDGE, RankRule.fixed(3), k=2, cluster_rule=RankRule.fixed(2),
                               with_random_subset=True)
        rules = []  # the rule of each pool the core denoises
        select_rank = engine.select_rank

        def recording(sigma, rule):
            rules.append(rule.r)
            return select_rank(sigma, rule)

        monkeypatch.setattr(engine, "select_rank", recording)
        args = (small_dataset(), 0.3, design, 5)
        report = leave_one_out_placebo(*args, cluster_mode=mode)
        assert report.skipped == []
        assert [r.variant for r in report.rows] == list(VARIANT_NAMES) * 6
        assert rules == [3] * 6 + [2] * 6 + [3] * 6
        assert_matches_reference(report, reference_leave_one_out(*args, cluster_mode=mode))

    def test_subset_size_paired_with_cluster(self):
        report = leave_one_out_placebo(
            small_dataset(), 0.3, standard_design(), np.random.default_rng(5)
        )
        by_cell = {}
        for row in report.rows:
            by_cell.setdefault(row.target_id, {})[row.variant] = row
        for cell in by_cell.values():
            assert (
                cell["sc_random_subset"].selected_donor_count
                == cell["cluster_sc"].selected_donor_count
            )

    def test_medians_and_improvements_consistent(self):
        report = leave_one_out_placebo(
            small_dataset(), 0.3, standard_design(), np.random.default_rng(5)
        )
        assert_aggregates_match_oracles(report)

    def test_deterministic_given_seed(self):
        ds = small_dataset()
        a = leave_one_out_placebo(ds, 0.2, standard_design(), np.random.default_rng(9))
        b = leave_one_out_placebo(ds, 0.2, standard_design(), np.random.default_rng(9))
        assert asdict(a) == asdict(b)

    def test_active_donor_precision_filled(self):
        design = PlaceboDesign(RegressionSpec("lasso", 0.01), ENERGY, k=2)
        report = leave_one_out_placebo(
            small_dataset(), 0.2, design, np.random.default_rng(4)
        )
        filled = [r for r in report.rows
                  if r.variant == "cluster_sc" and r.active_donor_precision is not None]
        assert filled
        for row in filled:
            assert 0.0 <= row.active_donor_precision <= 1.0
            assert 0.0 <= row.active_donor_recall <= 1.0

    def test_known_rank_improvement_is_positive(self):
        # with the group ranks given (pool 6, cluster 3) the clustered run
        # wins decisively at moderate noise
        design = PlaceboDesign(RIDGE, RankRule.fixed(6), k=2, cluster_rule=RankRule.fixed(3))
        medians = []
        for seed in range(4):
            ds = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 100, 100, 10, 8,
                NoiseSpec.gaussian(0.25), seed=100 + seed,
            )
            report = leave_one_out_placebo(
                ds, 0.2, design, np.random.default_rng(1000 + seed),
                cluster_mode="per_dataset",
            )
            medians.append(report.improvements["median"])
        assert sum(m > 0 for m in medians) >= 3
        assert np.median(medians) > 0

    def test_bad_target_fraction(self):
        for fraction in (0.0, 1.2, -0.5):
            with pytest.raises(InvalidParamsError):
                leave_one_out_placebo(
                    small_dataset(), fraction, standard_design(),
                    np.random.default_rng(0),
                )

    def test_bad_cluster_mode(self):
        with pytest.raises(InvalidParamsError):
            leave_one_out_placebo(
                small_dataset(), 0.2, standard_design(),
                np.random.default_rng(0), cluster_mode="per_panel",
            )


class TestSplitPlacebo:
    def test_shape_and_reference(self):
        ds = small_dataset(seed=21, s=0.2, n_a=15, n_b=15)
        report = split_placebo(
            ds.panel, 0.8, 3, standard_design(reg=RegressionSpec("ridge", 0.1)),
            np.random.default_rng(7),
        )
        assert report.reference == "observed"
        assert len(report.per_iteration) == 3
        assert {r.iteration for r in report.rows} == {1, 2, 3}
        # 30 units, n_train = 24, so 6 targets per iteration
        assert all(entry["n_targets"] == 6 for entry in report.per_iteration)

    def test_deterministic_given_seed(self):
        ds = small_dataset(seed=21, n_a=12, n_b=12)
        a = split_placebo(ds.panel, 0.75, 2, standard_design(), np.random.default_rng(3))
        b = split_placebo(ds.panel, 0.75, 2, standard_design(), np.random.default_rng(3))
        assert asdict(a) == asdict(b)

    def test_per_iteration_medians_match_rows(self):
        ds = small_dataset(seed=22, n_a=12, n_b=12)
        report = split_placebo(
            ds.panel, 0.75, 3, standard_design(), np.random.default_rng(4)
        )
        for entry in report.per_iteration:
            it_rows = [r for r in report.rows if r.iteration == entry["iteration"]]
            skipped_targets = {
                s["target_id"] for s in report.skipped
                if s["iteration"] == entry["iteration"]
            }
            for variant, med in entry["medians"].items():
                post = [
                    r.post_mse for r in it_rows
                    if r.variant == variant and r.target_id not in skipped_targets
                ]
                assert med["post_mse"] == pytest.approx(float(np.median(post)))

    def test_single_target_median_is_that_target(self):
        ds = small_dataset(seed=23, n_a=10, n_b=10)
        report = split_placebo(
            ds.panel, 19 / 20, 2, standard_design(), np.random.default_rng(5)
        )
        for entry in report.per_iteration:
            assert entry["n_targets"] == 1
            it_rows = [r for r in report.rows if r.iteration == entry["iteration"]]
            for row in it_rows:
                assert entry["medians"][row.variant]["post_mse"] == row.post_mse

    def test_overall_consistency(self):
        ds = small_dataset(seed=24, n_a=12, n_b=12)
        report = split_placebo(
            ds.panel, 0.75, 2, standard_design(), np.random.default_rng(6)
        )
        assert_aggregates_match_oracles(report)

    def test_no_precision_without_labels(self):
        ds = small_dataset(seed=25, n_a=10, n_b=10)
        report = split_placebo(
            ds.panel, 0.8, 2, standard_design(), np.random.default_rng(8)
        )
        assert all(r.active_donor_precision is None for r in report.rows)

    def test_bad_train_fraction(self):
        ds = small_dataset(n_a=10, n_b=10)
        for fraction in (0.0, 1.0):
            with pytest.raises(InvalidParamsError):
                split_placebo(
                    ds.panel, fraction, 2, standard_design(),
                    np.random.default_rng(0),
                )

    def test_degenerate_split_rejected(self):
        ds = small_dataset(n_a=10, n_b=10)
        with pytest.raises(InvalidParamsError):
            split_placebo(
                ds.panel, 0.01, 2, standard_design(), np.random.default_rng(0)
            )

    def test_bad_iterations(self):
        ds = small_dataset(n_a=10, n_b=10)
        with pytest.raises(InvalidParamsError):
            split_placebo(
                ds.panel, 0.8, 0, standard_design(), np.random.default_rng(0)
            )


def scaled_dataset(dataset, j):
    """dataset with its observations and its signal times 2**j."""
    panel = replace(dataset.panel, values=np.ldexp(dataset.panel.values, j))
    return replace(dataset, panel=panel, true_signal=np.ldexp(dataset.true_signal, j))


class TestScaleEquivariance:
    """Scaling a panel by 2**j and the penalty by 4**j is exact in the
    normal range, so both harnesses select the same donors bit for bit and
    every MSE scales by exactly 4**j, under every solver and rank rule."""

    REGS = {
        "ols": RegressionSpec("ols"), "ridge": RIDGE, "lasso": RegressionSpec("lasso", lam=0.01),
    }
    RULES = {
        "energy": ENERGY, "energy_squared": RankRule.energy(0.95, squared=True),
        "fixed": RankRule.fixed(3),
    }

    @staticmethod
    def design(reg, rule, k, j):
        scaled_reg = replace(reg, lam=math.ldexp(reg.lam, 2 * j))
        return PlaceboDesign(scaled_reg, rule, k, with_random_subset=True)

    @staticmethod
    def assert_scaled(base, report, j):
        assert report.skipped == base.skipped
        assert len(report.rows) == len(base.rows)
        for was, row in zip(base.rows, report.rows):
            kept = ("iteration", "target_id", "variant", "selected_donor_count",
                    "cluster_label", "active_donor_precision", "active_donor_recall")
            assert [getattr(row, name) for name in kept] == [getattr(was, name) for name in kept]
            assert row.pre_mse == math.ldexp(was.pre_mse, 2 * j)
            assert row.post_mse == math.ldexp(was.post_mse, 2 * j)

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("reg", sorted(REGS))
    def test_leave_one_out(self, reg, rule, mode):
        dataset = small_dataset(seed=71, s=0.25)

        def run(j):
            design = self.design(self.REGS[reg], self.RULES[rule], 2, j)
            return leave_one_out_placebo(
                scaled_dataset(dataset, j), 0.5, design, 72, cluster_mode=mode
            )

        base = run(0)
        for j in (-400, -300, -20, 7, 100, 300, 400):
            self.assert_scaled(base, run(j), j)

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("reg", sorted(REGS))
    def test_split(self, reg, rule):
        panel = small_dataset(seed=73, s=0.25).panel

        def run(j):
            design = self.design(self.REGS[reg], self.RULES[rule], "auto", j)
            return split_placebo(replace(panel, values=np.ldexp(panel.values, j)), 0.75, 2, design, 74)

        base = run(0)
        for j in (-400, -300, -100, 7, 100, 300, 400):
            self.assert_scaled(base, run(j), j)


class TestGramScale:
    """The Grams' prescale keeps every pool's factors exact at 2**+-600,
    past TestScaleEquivariance's range."""

    @pytest.mark.parametrize("j", [-600, 600])
    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_leave_one_out(self, mode, j):
        # k-means' D^2 seeding cannot run there yet, so k is 1, and OLS has
        # no penalty to scale by 4**600, past the float range. The MSEs scale
        # by 2**+-1200 to inf or 0, as np.ldexp says
        dataset = small_dataset(seed=71, s=0.25)
        design = PlaceboDesign(RegressionSpec("ols"), ENERGY, 1, with_random_subset=True)
        base = leave_one_out_placebo(dataset, 0.5, design, 72, cluster_mode=mode)
        report = leave_one_out_placebo(scaled_dataset(dataset, j), 0.5, design, 72, cluster_mode=mode)
        assert any(row.active_donor_precision is not None for row in report.rows)
        with np.errstate(over="ignore"):
            scaled = [
                replace(row, pre_mse=float(np.ldexp(row.pre_mse, 2 * j)),
                        post_mse=float(np.ldexp(row.post_mse, 2 * j)))
                for row in base.rows
            ]
        assert report.rows == scaled


# how far a leave-one-out MSE may sit from the reference's, relative to it:
# the core's full pools and per_dataset clusters downdate a shared Gram,
# where the reference decomposes each gathered pool alone. Measured at most
# 8.1e-11 (OLS on noiseless panels; 4e-11 with noise) over 144 runs of both
# cluster modes, the three solvers, energy and fixed rules, noise 0 to 0.4
# and 40 to 200 units. Noiseless fits leave MSEs of rounding size, so gaps
# below LOO_MSE_FLOOR (unit-scale data) count as equal
LOO_MSE_RTOL = 1e-9
LOO_MSE_FLOOR = 1e-24


def assert_matches_reference(report, reference, exact=False):
    """The report's rows and skipped cells equal the reference's: every
    field bit for bit, except that leave-one-out MSEs (exact False) agree to
    LOO_MSE_RTOL."""
    rows, skipped = reference
    assert report.skipped == skipped
    assert len(report.rows) == len(rows)
    for got, want in zip(report.rows, rows):
        if exact:
            assert got == want, (got, want)
            continue
        assert replace(got, pre_mse=0.0, post_mse=0.0) == replace(want, pre_mse=0.0, post_mse=0.0)
        for name in ("pre_mse", "post_mse"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= LOO_MSE_RTOL * abs(b) + LOO_MSE_FLOOR, (got, want, name)
    assert_aggregates_match_oracles(report)


class TestMatchesReference:
    """Both harnesses against the plain reference (tests/placebo_reference.py):
    split rows bit for bit, leave-one-out rows to LOO_MSE_RTOL in the MSEs
    and exactly in every other field, at both cluster modes, all three
    solvers and with random subsets."""

    REGS = {"ols": RegressionSpec("ols"), "ridge": RIDGE, "lasso": RegressionSpec("lasso", 0.01)}

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    @pytest.mark.parametrize("reg", sorted(REGS))
    def test_leave_one_out(self, reg, mode):
        for seed, noise in ((81, 0.1), (82, 0.4)):
            args = (small_dataset(seed=seed, s=noise), 0.4, standard_design(reg=self.REGS[reg]), seed)
            report = leave_one_out_placebo(*args, cluster_mode=mode)
            assert_matches_reference(report, reference_leave_one_out(*args, cluster_mode=mode))

    @pytest.mark.parametrize("reg", sorted(REGS))
    def test_split(self, reg):
        panel = small_dataset(seed=83, s=0.25, n_a=15, n_b=15).panel
        args = (panel, 0.6, 2, standard_design(reg=self.REGS[reg], k="auto"), 84)
        assert_matches_reference(split_placebo(*args), reference_split(*args), exact=True)

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_skipped_cells(self, mode):
        args = (outlier_pair_dataset(), 1.0, TestSkipPath.DESIGN, 0)
        report = leave_one_out_placebo(*args, cluster_mode=mode)
        assert report.skipped
        assert_matches_reference(report, reference_leave_one_out(*args, cluster_mode=mode))
        args = (outlier_pair_dataset().panel, 0.5, 6, TestSkipPath.DESIGN, 0)
        assert_matches_reference(split_placebo(*args), reference_split(*args), exact=True)

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_two_donor_cluster(self, mode):
        # u00..u02 form a far cluster of three, so a target among them has a
        # cluster of exactly two donors: a pool wider than it is tall
        dataset = outlier_pair_dataset(far=3)
        args = (dataset, 1.0, standard_design(rule=RankRule.fixed(2)), 0)
        report = leave_one_out_placebo(*args, cluster_mode=mode)
        pairs = [r for r in report.rows if r.variant == "cluster_sc" and r.selected_donor_count == 2]
        assert {r.target_id for r in pairs} == {"u00", "u01", "u02"}
        assert_matches_reference(report, reference_leave_one_out(*args, cluster_mode=mode))

    def test_target_holding_the_largest_entry(self):
        # the full pool is the panel's Gram less the target's row, taken
        # under the panel's prescale, which that row sets
        dataset = small_dataset(seed=85, s=0.25)
        dataset.panel.values[3, 4] = 40.0 * np.abs(dataset.panel.values).max()
        for mode in CLUSTER_MODES:
            args = (dataset, 1.0, standard_design(), 86)
            report = leave_one_out_placebo(*args, cluster_mode=mode)
            assert dataset.panel.unit_ids[3] in {r.target_id for r in report.rows}
            assert_matches_reference(report, reference_leave_one_out(*args, cluster_mode=mode))

    @pytest.mark.parametrize("where", ["row", "entry"])
    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_target_far_above_its_pool(self, mode, where):
        # the only group-A unit, so the only target, has its row, or its
        # last post-period entry, at 1e4 times the others' scale. Its row
        # then carries nearly all of a period's sum of squares in each pool
        # it is dropped from, and the Gram less its outer product would keep
        # about eight fewer digits there (gaps to 4e-7 measured), so those
        # pools get their own Gram, which gives the reference's rows bit for
        # bit. Per_dataset, the scaled row is a cluster of its own (skipped);
        # the scaled entry is past t0, so it keeps its cluster, which is
        # then its own Gram too
        for seed in (89, 91):
            dataset = small_dataset(seed=seed, s=0.25, n_a=1, n_b=30)
            assert dataset.group_labels[0] == "A"
            if where == "row":
                dataset.panel.values[0] *= 1e4
            else:
                dataset.panel.values[0, -1] *= 1e4
            args = (dataset, 1.0, standard_design(), seed + 1)
            report = leave_one_out_placebo(*args, cluster_mode=mode)
            assert len(report.rows) == (1 if (mode, where) == ("per_dataset", "row") else 3)
            assert_matches_reference(
                report, reference_leave_one_out(*args, cluster_mode=mode), exact=True
            )


class TestSelectionScoringOracle:
    """The leave-one-out harness scores selections on row masks; the
    reference maps the active donors' ids back to panel rows one by one."""

    @staticmethod
    def scored_rows(reg, mode, seed):
        dataset = small_dataset(seed=seed, s=0.2)
        args = (dataset, 0.3, standard_design(reg=reg), seed)
        report = leave_one_out_placebo(*args, cluster_mode=mode)
        rows, _ = reference_leave_one_out(*args, cluster_mode=mode)
        assert len(rows) == len(report.rows)
        for got, want in zip(report.rows, rows):
            assert (got.active_donor_precision, got.active_donor_recall) == (
                want.active_donor_precision, want.active_donor_recall
            ), (got.target_id, got.variant)
        return report.rows

    @pytest.mark.parametrize("mode", ["per_target", "per_dataset"])
    @pytest.mark.parametrize("reg", [RIDGE, RegressionSpec("lasso", 0.01)])
    def test_matches_id_oracle(self, reg, mode):
        rows = []
        for seed in (41, 42):
            rows += self.scored_rows(reg, mode, seed)
        for name in VARIANT_NAMES:
            assert any(
                r.variant == name and r.active_donor_precision is not None for r in rows
            ), name

    def test_empty_active_set_scores_none(self):
        # a penalty this large zeroes every lasso weight
        rows = self.scored_rows(RegressionSpec("lasso", 1e6), "per_dataset", 43)
        assert rows
        assert all(
            (r.active_donor_precision, r.active_donor_recall) == (None, None) for r in rows
        )


def counting(module, name, calls):
    """module.name, with each call's first argument appended to calls[name]."""
    original = getattr(module, name)

    def call(*args, **kwargs):
        calls.setdefault(name, []).append(args[0])
        return original(*args, **kwargs)

    return call


def fail_once(monkeypatch):
    """Make the core's first fit raise, so it fits every target again alone."""
    fit_coordinates, failed = evaluate.fit_coordinates, []

    def fit(*args, **kwargs):
        if not failed:
            failed.append(None)
            raise InvalidInputError("first stack")
        return fit_coordinates(*args, **kwargs)

    monkeypatch.setattr(evaluate, "fit_coordinates", fit)
    return failed


class TestSplitSharedPools:
    """The split harness forms the full pool's Gram once per iteration and
    each cluster's once; every row must still be what a fresh sc_learn gives."""

    def test_rows_equal_fresh_fits_and_decompositions_are_shared(self, monkeypatch):
        panel = small_dataset(seed=51, s=0.2, n_a=15, n_b=15).panel
        design = standard_design(k="auto")
        args = (panel, 0.6, 2, design, 52)
        reference = reference_split(*args)
        # the cluster model's SVDs, the pools' Grams and their eigendecompositions
        calls: dict = {"svd": [], "gram": [], "eigh": []}
        # (calls made before the model, the model) per iteration
        models = []
        fit_cluster_model = evaluate.fit_cluster_model

        def recording_model(*model_args, **kwargs):
            before = {name: len(made) for name, made in calls.items()}
            model = fit_cluster_model(*model_args, **kwargs)
            models.append((before, model))
            return model

        monkeypatch.setattr(evaluate, "fit_cluster_model", recording_model)
        monkeypatch.setattr(evaluate, "gram", counting(evaluate, "gram", calls))
        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(np.linalg, name, calls))
        report = split_placebo(*args)
        monkeypatch.undo()
        assert_matches_reference(report, reference, exact=True)
        assert {r.variant for r in report.rows} == set(VARIANT_NAMES)

        # per iteration: one SVD for the cluster model, one Gram for the full
        # pool, one per cluster used and one per random subset, and one eigh
        # per variant
        assert len(models) == 2
        ends = {name: len(made) for name, made in calls.items()}
        bounds = [before for before, _ in models] + [ends]
        for it, ((_, model), entry) in enumerate(zip(models, report.per_iteration), start=1):
            made = {name: bounds[it][name] - bounds[it - 1][name] for name in calls}
            it_rows = [r for r in report.rows if r.iteration == it]
            clusters = {r.cluster_label for r in it_rows if r.variant == "cluster_sc"}
            subsets = sum(r.variant == "sc_random_subset" for r in it_rows)
            assert made == {"svd": 1, "gram": 1 + len(clusters) + subsets, "eigh": 3}
            assert len(clusters) <= model.k
            assert len(clusters) < entry["n_targets"]  # some cluster served two targets

    @pytest.mark.parametrize("iterations", [3, 8])
    def test_each_shared_pool_is_fitted_once_per_iteration(self, iterations, monkeypatch):
        # the core gets all of an iteration's targets: ridge fits each
        # variant's pools, shared or not, in one regression.fit call
        panel = small_dataset(seed=51, s=0.2, n_a=15, n_b=15).panel
        calls = []  # [iteration, regression.fit calls] per core call
        placebo_target, fit = evaluate._placebo_target, regression.fit

        def core(iteration, *args, **kwargs):
            calls.append([iteration, 0])
            return placebo_target(iteration, *args, **kwargs)

        def fitting(*args, **kwargs):
            calls[-1][1] += 1
            return fit(*args, **kwargs)

        monkeypatch.setattr(evaluate, "_placebo_target", core)
        monkeypatch.setattr(regression, "fit", fitting)
        report = split_placebo(
            panel, 0.6, iterations, standard_design(k="auto"), np.random.default_rng(52)
        )
        assert calls == [[it, 3] for it in range(1, iterations + 1)]
        assert all(entry["n_targets"] == 12 for entry in report.per_iteration)

    def test_rows_do_not_depend_on_chunk_size(self, monkeypatch):
        # the rows of one stack of every target equal those of each target
        # fitted alone, which a failing first stack forces
        panel = small_dataset(seed=51, s=0.2, n_a=15, n_b=15).panel
        args = (panel, 0.6, 2, standard_design(k="auto"), 52)
        stacked = asdict(split_placebo(*args))
        failed = fail_once(monkeypatch)
        assert asdict(split_placebo(*args)) == stacked
        assert failed

    @pytest.mark.parametrize("failing", [(0,), (2, 5), (7, 3), (15,)])
    def test_first_error_in_target_order_is_raised(self, failing, monkeypatch):
        # a failing iteration is fitted again one target at a time, in
        # order, up to the first bad one; the shared Grams formed before the
        # failure are not formed again
        panel = small_dataset(seed=51, s=0.2).panel
        design = standard_design()
        serial = split_placebo(panel, 0.6, 2, design, 52)
        first_iteration = replace(serial, rows=[r for r in serial.rows if r.iteration == 1])
        target_ids = list(dict.fromkeys(r.target_id for r in first_iteration.rows))
        assert len(target_ids) == 16
        calls = []
        bad = {target_ids[i] for i in failing}
        monkeypatch.setattr(
            evaluate, "fit_coordinates", failing_fit(panel, bad, InvalidInputError, calls)
        )
        grams: dict = {"gram": []}
        monkeypatch.setattr(evaluate, "gram", counting(evaluate, "gram", grams))
        first = min(failing)
        with pytest.raises(InvalidInputError, match=f"^target {target_ids[first]} failed$"):
            split_placebo(panel, 0.6, 2, design, 52)
        assert calls == [target_ids] + alone_up_to(first_iteration, target_ids, first)
        # the failing iteration fits its targets twice, and forms no Gram
        # twice: not the full pool's, not a cluster's its retried targets share
        made = [(rows.shape, rows.tobytes()) for rows in grams["gram"]]
        assert len(set(made)) == len(made)
        assert [shape[0] for shape, _ in made].count(24) == 1
        if first == 15:  # some cluster serves two of the retried targets
            retried = [r for r in first_iteration.rows if r.target_id in target_ids[:first]]
            labels = [r.cluster_label for r in retried if r.variant == "cluster_sc"]
            assert len(set(labels)) < len(labels)


class TestRowFieldTypes:
    """Every row field is a plain Python value: a NumPy scalar would send each
    row off the report writers' fast paths and make it pickle bigger."""

    REPORTS = {
        "per_target": lambda: leave_one_out_placebo(
            small_dataset(), 0.3, standard_design(), np.random.default_rng(5)),
        "per_dataset": lambda: leave_one_out_placebo(
            small_dataset(), 0.3, standard_design(), np.random.default_rng(5),
            cluster_mode="per_dataset"),
        "split": lambda: split_placebo(
            small_dataset().panel, 0.6, 2, standard_design(k="auto"), np.random.default_rng(52)),
    }

    @pytest.mark.parametrize("harness", sorted(REPORTS))
    def test_fields_are_python_scalars(self, harness):
        report = self.REPORTS[harness]()
        assert report.rows
        for row in report.rows:
            for f in fields(row):
                value = getattr(row, f.name)
                assert type(value) in (int, float, str, type(None)), (f.name, type(value))
        if harness != "split":
            assert any(r.active_donor_recall is not None for r in report.rows)


def outlier_pair_dataset(far=2):
    """Twelve units: noise series near zero and far ones, by default a pair
    u00, u01.

    With k=2 the far units form a cluster of their own, so a target from the
    pair finds a single donor in its cluster. Group A holds u00..u05.
    """
    values = np.random.default_rng(31).normal(0.0, 1.0, size=(12, 10))
    values[:far] += 50.0
    panel = TimePanel(
        [f"u{i:02d}" for i in range(12)], [f"t{j}" for j in range(10)], values,
        InterventionSplit(8, 10),
    )
    return SyntheticDataset(
        panel=panel, group_labels=["A"] * 6 + ["B"] * 6, true_signal=values.copy(), seed=0,
    )


class TestSkipPath:
    """A target whose cluster has fewer than 2 donors, in both harnesses."""

    DESIGN = standard_design(rule=RankRule.fixed(2), k=2)
    CLUSTER_REASONS = {
        str(DegenerateClusterError(label, size)) for label in (1, 2) for size in (0, 1)
    }

    def check_skips(self, report) -> set:
        cells = {(s["iteration"], s["target_id"]) for s in report.skipped}
        assert cells
        for cell in cells:
            entries = {s["variant"]: s["reason"] for s in report.skipped
                       if (s["iteration"], s["target_id"]) == cell}
            assert entries["cluster_sc"] in self.CLUSTER_REASONS
            assert entries["sc_random_subset"] == "paired cluster_sc run was skipped"
            ran = [r.variant for r in report.rows if (r.iteration, r.target_id) == cell]
            assert ran == ["sc_full"]
        for name in ("sc_full", "cluster_sc", "sc_random_subset"):
            kept = [r for r in report.rows
                    if r.variant == name and (r.iteration, r.target_id) not in cells]
            assert report.medians[name] == {
                "pre_mse": float(np.median([r.pre_mse for r in kept])),
                "post_mse": float(np.median([r.post_mse for r in kept])),
            }
        assert len(report.improvements["values"]) == len(
            {(r.iteration, r.target_id) for r in report.rows} - cells
        )
        assert_aggregates_match_oracles(report)
        return cells

    def test_leave_one_out_per_dataset(self):
        report = leave_one_out_placebo(
            outlier_pair_dataset(), 1.0, self.DESIGN, np.random.default_rng(0),
            cluster_mode="per_dataset",
        )
        assert self.check_skips(report) == {(0, "u00"), (0, "u01")}
        assert report.per_iteration == []

    def test_split(self):
        report = split_placebo(
            outlier_pair_dataset().panel, 0.5, 6, self.DESIGN, np.random.default_rng(0)
        )
        cells = self.check_skips(report)
        for entry in report.per_iteration:
            it_cells = {c for c in cells if c[0] == entry["iteration"]}
            assert entry["n_skipped_cells"] == len(it_cells)
            for name, med in entry["medians"].items():
                kept = [r.post_mse for r in report.rows
                        if r.variant == name and r.iteration == entry["iteration"]
                        and (r.iteration, r.target_id) not in it_cells]
                assert med["post_mse"] == float(np.median(kept))
        assert sum(e["n_skipped_cells"] for e in report.per_iteration) == len(cells)


def failing_fit(panel, bad, error, calls=None):
    """The engine's fit_coordinates, except that a stack holding a target of
    bad raises error. A stack names its last bad target, so only a rerun one
    target at a time raises the first. Targets are found by their pre-period
    series in panel, whose rows must be distinct; calls, when given, gets
    each stack's target ids."""
    t0 = panel.split.t0
    unit_of = {row[:t0].tobytes(): uid for row, uid in zip(panel.values, panel.unit_ids)}
    assert len(unit_of) == len(panel.unit_ids)

    def fit(v, scale, t0, target_pre, *args, **kwargs):
        target_ids = [unit_of[series.tobytes()] for series in target_pre]
        if calls is not None:
            calls.append(target_ids)
        failed = [t for t in target_ids if t in bad]
        if failed:
            raise error(f"target {failed[-1]} failed")
        return engine.fit_coordinates(v, scale, t0, target_pre, *args, **kwargs)

    return fit


def alone_up_to(serial, target_ids, first) -> list:
    """The fit stacks of fitting each target alone, in order, up to the
    target first, whose sc_full stack raises: a stack per row of serial."""
    rows = Counter(r.target_id for r in serial.rows)
    return [[t] for t in target_ids[:first] for _ in range(rows[t])] + [[target_ids[first]]]


class TestTargetStacks:
    """The leave-one-out harness fits all of its targets in one core call,
    which fits each variant's pools as one stack; the report must not depend
    on the stacking, and a failing stack is retried one target at a time,
    so the error raised is the first in target order."""

    CASES = {
        "per_target": (lambda: small_dataset(seed=61, s=0.2), 0.5, "per_target"),
        "per_dataset": (lambda: small_dataset(seed=61, s=0.2), 0.5, "per_dataset"),
        # the far pair u00, u01 is skipped for cluster_sc (see TestSkipPath)
        "skipped_per_target": (outlier_pair_dataset, 1.0, "per_target"),
        "skipped_per_dataset": (outlier_pair_dataset, 1.0, "per_dataset"),
    }

    @pytest.mark.parametrize("failing", [(1, 2), (2, 3), (3, 5), (6,)])
    def test_first_error_in_target_order_is_raised(self, failing, monkeypatch):
        dataset = small_dataset(seed=63)
        design = standard_design()
        serial = leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        bad = {target_ids[i] for i in failing}
        monkeypatch.setattr(
            evaluate, "fit_coordinates", failing_fit(dataset.panel, bad, InvalidInputError)
        )
        with pytest.raises(InvalidInputError, match=f"^target {target_ids[failing[0]]} failed$"):
            leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))

    @pytest.mark.parametrize("failing", [(1,), (4,), (4, 5), (7,), (6, 7)],
                             ids=["first_chunk", "mid_chunk", "two_mid_chunk", "last_chunk",
                                  "two_last_chunk"])
    def test_one_call_fits_each_chunk_once(self, failing, monkeypatch):
        # a failure does not rerun the whole call: the call's one stack of
        # full pools is fitted once, then each target alone, in order, up to
        # the first bad one, wherever it sits among the targets
        dataset = small_dataset(seed=63)
        design = standard_design()
        serial = leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        calls = []
        bad = {target_ids[i] for i in failing}
        monkeypatch.setattr(
            evaluate, "fit_coordinates", failing_fit(dataset.panel, bad, InvalidInputError, calls)
        )
        with pytest.raises(InvalidInputError, match=f"^target {target_ids[failing[0]]} failed$"):
            leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        assert calls == [target_ids] + alone_up_to(serial, target_ids, failing[0])

    @pytest.mark.parametrize("harness", ["leave_one_out", "split"])
    def test_interrupt_is_not_retried(self, harness, monkeypatch):
        # the retry one target at a time is for errors: an interrupt ends the
        # call at the first stack that meets it
        calls = []

        def interrupted(v, scale, t0, target_pre, *args, **kwargs):
            calls.append(len(target_pre))
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluate, "fit_coordinates", interrupted)
        dataset = small_dataset(seed=63)
        with pytest.raises(KeyboardInterrupt):
            if harness == "leave_one_out":
                leave_one_out_placebo(dataset, 0.4, standard_design(), 64)
            else:
                split_placebo(dataset.panel, 0.6, 2, standard_design(), 64)
        assert len(calls) == 1 and calls[0] > 1

    @pytest.mark.parametrize("path", ["returns", "raises", "interrupt"])
    def test_no_descriptor_or_child_outlives_the_call(self, path, monkeypatch):
        # the call runs in this process alone, however it ends: it forks
        # nothing, starts no thread and leaves no descriptor open
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to list this process's descriptors")
        dataset = small_dataset(seed=63)
        design = standard_design()
        # a first call also makes every import and load the checked call needs
        serial = leave_one_out_placebo(dataset, 0.4, design, 64)
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        forks, started = [], []
        fork, start = os.fork, threading.Thread.start

        def counting_fork():
            forks.append(None)
            return fork()

        def counting_start(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        raises = {"raises": InvalidInputError, "interrupt": KeyboardInterrupt}.get(path)
        if raises is not None:
            monkeypatch.setattr(
                evaluate, "fit_coordinates", failing_fit(dataset.panel, {target_ids[3]}, raises)
            )
        before = sorted(os.listdir("/proc/self/fd"))
        threads = threading.enumerate()
        if raises is None:
            report = leave_one_out_placebo(dataset, 0.4, design, 64)
            assert asdict(report) == asdict(serial)
        else:
            with pytest.raises(raises):
                leave_one_out_placebo(dataset, 0.4, design, 64)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert threading.enumerate() == threads
        assert forks == [] and started == []

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_core_call_over_every_target(self, case, monkeypatch):
        # the whole leave-one-out call is one core call, over every target,
        # in panel order
        make_dataset, fraction, mode = self.CASES[case]
        design = TestSkipPath.DESIGN if case.startswith("skipped") else standard_design()
        placebo_target = evaluate._placebo_target
        calls = []

        def recording(iteration, panel, target_rows, *args):
            calls.append([panel.unit_ids[t] for t in target_rows])
            return placebo_target(iteration, panel, target_rows, *args)

        monkeypatch.setattr(evaluate, "_placebo_target", recording)
        dataset = make_dataset()
        report = leave_one_out_placebo(
            dataset, fraction, design, np.random.default_rng(62), cluster_mode=mode
        )
        target_ids = list(dict.fromkeys(r.target_id for r in report.rows))
        assert calls == [target_ids]
        assert target_ids == sorted(target_ids, key=dataset.panel.unit_ids.index)
        assert len(target_ids) == report.config["n_targets"]

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_one_eigh_per_variant(self, mode, monkeypatch):
        # one core call decomposes each variant's pools in one eigh call, a
        # Gram per pool. The full pools share the panel's Gram, and
        # per_dataset clusters their label's; per_target, each target
        # clusters its own pool, so each cluster has a Gram of its own
        calls: dict = {}
        monkeypatch.setattr(evaluate, "gram", counting(evaluate, "gram", calls))
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg, "eigh", calls))
        report = leave_one_out_placebo(
            small_dataset(seed=61, s=0.2), 1.0, standard_design(), 64, cluster_mode=mode
        )
        monkeypatch.undo()
        assert len(report.rows) == 60 and report.skipped == []
        assert [len(g) for g in calls["eigh"]] == [20, 20, 20]
        clusters = {r.cluster_label for r in report.rows if r.variant == "cluster_sc"}
        if mode == "per_dataset":
            assert len(calls["gram"]) == 1 + len(clusters) + 20
        else:
            assert len(calls["gram"]) == 1 + 20 + 20

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_bytes_do_not_depend_on_chunk_size(self, case, monkeypatch, tmp_path):
        # the bytes of one stack of every target equal those of each target
        # fitted alone, which a failing first stack forces
        make_dataset, fraction, mode = self.CASES[case]
        dataset = make_dataset()
        design = TestSkipPath.DESIGN if case.startswith("skipped") else standard_design()
        written = []
        for alone in (False, True):
            if alone:
                assert not fail_once(monkeypatch)
            report = leave_one_out_placebo(
                dataset, fraction, design, np.random.default_rng(62), cluster_mode=mode
            )
            written.append(write_json(report, tmp_path / f"{alone}.json").read_bytes())
        assert written[1] == written[0]
        assert {r.variant for r in report.rows} == set(VARIANT_NAMES)
        if case.startswith("skipped"):
            assert {s["target_id"] for s in report.skipped} == {"u00", "u01"}


class TestSingularGapExperiment:
    def test_noiseless_gaps_vanish(self):
        result = singular_gap_experiment(
            50, 25, 10, 3, NoiseSpec.gaussian(0.0), 5, np.random.default_rng(0)
        )
        assert len(result.gaps) == 5
        assert all(abs(g) <= 1e-9 for g in result.gaps)

    def test_gaussian_bound_value(self):
        result = singular_gap_experiment(
            1000, 500, 10, 3, NoiseSpec.gaussian(0.3), 50, np.random.default_rng(1)
        )
        assert result.theoretical_bound == pytest.approx(0.88126246, abs=1e-6)
        assert result.precondition_ok
        assert result.empirical_mean_gap >= result.theoretical_bound
        assert result.gap_std_error > 0

    def test_precondition_flag(self):
        result = singular_gap_experiment(
            200, 100, 10, 3, NoiseSpec.gaussian(0.3), 2, np.random.default_rng(2)
        )
        assert not result.precondition_ok

    def test_doubling_noise_doubles_mean_gap(self):
        low = singular_gap_experiment(
            300, 150, 10, 3, NoiseSpec.gaussian(2.0), 60, np.random.default_rng(6)
        )
        high = singular_gap_experiment(
            300, 150, 10, 3, NoiseSpec.gaussian(4.0), 60, np.random.default_rng(6)
        )
        ratio = high.empirical_mean_gap / low.empirical_mean_gap
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_non_gaussian_has_no_bound_but_positive_gap(self):
        uniform = singular_gap_experiment(
            400, 200, 10, 3, NoiseSpec.uniform(0.5), 40, np.random.default_rng(7)
        )
        heavy = singular_gap_experiment(
            400, 200, 10, 3, NoiseSpec.student_t(4.0, 0.3), 40, np.random.default_rng(8)
        )
        for result in (uniform, heavy):
            assert result.theoretical_bound is None
            assert result.empirical_mean_gap > 0

    def test_deterministic(self):
        a = singular_gap_experiment(
            100, 50, 10, 3, NoiseSpec.gaussian(0.3), 5, np.random.default_rng(4)
        )
        b = singular_gap_experiment(
            100, 50, 10, 3, NoiseSpec.gaussian(0.3), 5, np.random.default_rng(4)
        )
        assert a.gaps == b.gaps

    def test_bad_rank(self):
        with pytest.raises(InvalidParamsError):
            singular_gap_experiment(
                100, 50, 10, 10, NoiseSpec.gaussian(0.3), 2, np.random.default_rng(0)
            )

    def test_rank_beyond_subgroup(self):
        # the subgroup of 3 units has only 3 singular values
        with pytest.raises(InvalidParamsError, match="n_a=3"):
            singular_gap_experiment(
                5, 3, 10, 3, NoiseSpec.gaussian(0.3), 2, np.random.default_rng(1)
            )

    def test_bad_subgroup_size(self):
        with pytest.raises(InvalidParamsError):
            singular_gap_experiment(
                100, 100, 10, 3, NoiseSpec.gaussian(0.3), 2, np.random.default_rng(0)
            )

    def test_bad_trials(self):
        with pytest.raises(InvalidParamsError):
            singular_gap_experiment(
                100, 50, 10, 3, NoiseSpec.gaussian(0.3), 0, np.random.default_rng(0)
            )


class TestClusterRecoveryExperiment:
    def test_noiseless_separated_groups_recovered_exactly(self):
        result = cluster_recovery_experiment(
            SEPARATED_A, SEPARATED_B, 12, 12, 10, 8, RankRule.fixed(6),
            [NoiseSpec.gaussian(0.0)], 4, np.random.default_rng(1),
        )
        assert result.cells[0].fractions == [0.0, 0.0, 0.0, 0.0]
        assert result.cells[0].precision_one_share == 1.0

    def test_misassignment_grows_with_noise(self):
        grid = [NoiseSpec.gaussian(s) for s in (0.0, 0.2, 0.4, 0.8)]
        result = cluster_recovery_experiment(
            GROUP_A_SPEC, GROUP_B_SPEC, 20, 20, 10, 8, ENERGY,
            grid, 5, np.random.default_rng(5),
        )
        scales = [noise.scale for noise in grid]
        means = [float(np.mean(cell.fractions)) for cell in result.cells]
        assert means == [cell.mean_fraction for cell in result.cells]
        rho = stats.spearmanr(scales, means).statistic
        assert rho > 0

    def test_low_noise_precision_is_usually_one(self):
        result = cluster_recovery_experiment(
            GROUP_A_SPEC, GROUP_B_SPEC, 20, 20, 10, 8, ENERGY,
            [NoiseSpec.gaussian(0.1)], 10, np.random.default_rng(9),
        )
        assert result.cells[0].precision_one_share >= 0.7

    def test_fraction_bounds(self):
        result = cluster_recovery_experiment(
            GROUP_A_SPEC, GROUP_B_SPEC, 10, 10, 10, 8, ENERGY,
            [NoiseSpec.gaussian(0.5)], 3, np.random.default_rng(2),
        )
        for cell in result.cells:
            assert all(0.0 <= f <= 1.0 for f in cell.fractions)
            assert all(0.0 <= p <= 1.0 for p in cell.median_precisions)

    @pytest.mark.parametrize("k", [2.7, 2.9, True, "two"])
    def test_bad_k_rejected(self, k):
        with pytest.raises(InvalidParamsError, match="k must be 'auto' or a positive integer"):
            cluster_recovery_experiment(
                GROUP_A_SPEC, GROUP_B_SPEC, 10, 10, 10, 8, ENERGY,
                [NoiseSpec.gaussian(0.1)], 1, np.random.default_rng(0), k=k,
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParamsError):
            cluster_recovery_experiment(
                GROUP_A_SPEC, GROUP_B_SPEC, 10, 10, 10, 8, ENERGY,
                [], 3, np.random.default_rng(0),
            )

    def test_zero_datasets_rejected(self):
        with pytest.raises(InvalidParamsError):
            cluster_recovery_experiment(
                GROUP_A_SPEC, GROUP_B_SPEC, 10, 10, 10, 8, ENERGY,
                [NoiseSpec.gaussian(0.1)], 0, np.random.default_rng(0),
            )

    def test_tiny_group_rejected(self):
        with pytest.raises(InvalidParamsError):
            cluster_recovery_experiment(
                GROUP_A_SPEC, GROUP_B_SPEC, 1, 10, 10, 8, ENERGY,
                [NoiseSpec.gaussian(0.1)], 2, np.random.default_rng(0),
            )
