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

import errno
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

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
from clustersc import engine, evaluate
from clustersc.engine import sc_learn
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
from clustersc.regression import RegressionSpec, active_set
from clustersc.reporting import write_json

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
        fits = record_fits(monkeypatch)
        report = leave_one_out_placebo(
            small_dataset(), 0.3, design, np.random.default_rng(5), cluster_mode=mode
        )
        assert report.skipped == []
        ranks = {"sc_full": 3, "cluster_sc": 2, "sc_random_subset": 3}
        assert [fit.rank_used for fit in fits] == [ranks[r.variant] for r in report.rows]
        assert [r.variant for r in report.rows] == list(VARIANT_NAMES) * 6

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


def single_fit(fit, i):
    """Target i's fit of a stack, as sc_learn returns that fit alone."""
    donors, rank = fit.denoised_donors, fit.rank_used
    if donors.ndim == 3:  # a stack of pools, one per target
        donors, rank = donors[i], rank[i]
    return replace(
        fit, weights=replace(fit.weights, values=fit.weights.values[i]),
        denoised_donors=donors, rank_used=rank,
    )


def record_fits(monkeypatch, panel=None) -> list:
    """Every fit the harnesses push through sc_infer, in the order of their rows.

    A wrapper sees only the fits made in this process, so the harness is
    held to one CPU; TestDealtTargets checks that the rows do not depend on
    the CPU count. The core fits stacks: a shared pool with all of its
    targets, or pools of one shape with one target each. Each sc_infer
    stack is split into its targets' fits, found by their series, and a core
    call's fits join the list in row order once it returns. Distinct pools
    are held to stacks of one (TARGET_CHUNK 1), so each denoised matrix is
    one window; TestDealtTargets and TestSplitSharedPools check that the
    rows do not depend on the stack cap.

    The harnesses fit on donor rows alone, so a fit's donor_ids are its
    positions in the pool. Given the panel, whose rows must be distinct, each
    fit carries the unit ids of its donors instead: every matrix the harness
    denoises is matched back to the panel row by row.
    """
    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(evaluate, "TARGET_CHUNK", 1)
    fits = []
    # the core call running: (position of each target by its series, each target's fits)
    running = []

    def core(iteration, core_panel, target_rows, *args, **kwargs):
        position = {core_panel.values[t].tobytes(): j for j, t in enumerate(target_rows)}
        assert len(position) == len(target_rows)
        by_target = [[] for _ in target_rows]
        running.append((position, by_target))
        try:
            result = placebo_target(iteration, core_panel, target_rows, *args, **kwargs)
        finally:
            running.pop()
        fits.extend(fit for target_fits in by_target for fit in target_fits)
        return result

    def recording(fit, split, target_full):
        position, by_target = running[-1]
        for i, series in enumerate(target_full):
            by_target[position[series.tobytes()]].append(single_fit(fit, i))
        return sc_infer(fit, split, target_full)

    # a second call wraps the first one's core, which then records nothing
    placebo_target, sc_infer = evaluate._placebo_target, engine.sc_infer
    monkeypatch.setattr(evaluate, "_placebo_target", core)
    monkeypatch.setattr(evaluate, "sc_infer", recording)
    if panel is None:
        return fits
    unit_of = {row.tobytes(): uid for row, uid in zip(panel.values, panel.unit_ids)}
    assert len(unit_of) == len(panel.unit_ids)
    # id(pool) -> (pool, unit ids of its rows); holding the pool keeps its id unique
    pool_units = {}

    def denoising(donors, rule):
        # a window, or a stack of one window
        pool = sc_denoise(donors, rule)
        rows = donors.reshape(-1, donors.shape[-1])
        pool_units[id(pool)] = pool, [unit_of[row.tobytes()] for row in rows]
        return pool

    def fitting(pool, split, target_pre, reg, donor_ids=None, cluster_label=None):
        assert donor_ids is None
        return sc_fit_weights(pool, split, target_pre, reg, pool_units[id(pool)][1], cluster_label)

    # the engine's own functions: a second call must not wrap the first one's wrappers
    sc_denoise, sc_fit_weights = engine.sc_denoise, engine.sc_fit_weights
    monkeypatch.setattr(evaluate, "sc_denoise", denoising)
    monkeypatch.setattr(evaluate, "sc_fit_weights", fitting)
    return fits


class TestSelectionScoringOracle:
    """The leave-one-out harness scores selections on row arrays; the oracle
    maps the active donors' ids back to panel rows one by one."""

    @staticmethod
    def oracle(fit, dataset, target_id):
        id_to_row = {u: i for i, u in enumerate(dataset.panel.unit_ids)}
        labels = dataset.group_labels
        try:
            return donor_selection_scores(
                [id_to_row[u] for u in active_set(fit.weights)], labels,
                labels[id_to_row[target_id]],
            )
        except UndefinedPrecisionError:
            return None, None

    def scored_rows(self, monkeypatch, reg, mode, seed):
        dataset = small_dataset(seed=seed, s=0.2)
        fits = record_fits(monkeypatch, dataset.panel)
        report = leave_one_out_placebo(
            dataset, 0.3, standard_design(reg=reg), np.random.default_rng(seed),
            cluster_mode=mode,
        )
        assert len(fits) == len(report.rows)
        for fit, row in zip(fits, report.rows):
            assert (row.active_donor_precision, row.active_donor_recall) == self.oracle(
                fit, dataset, row.target_id
            ), (row.target_id, row.variant)
        return report.rows

    @pytest.mark.parametrize("mode", ["per_target", "per_dataset"])
    @pytest.mark.parametrize("reg", [RIDGE, RegressionSpec("lasso", 0.01)])
    def test_matches_id_oracle(self, monkeypatch, reg, mode):
        rows = []
        for seed in (41, 42):
            rows += self.scored_rows(monkeypatch, reg, mode, seed)
        for name in VARIANT_NAMES:
            assert any(
                r.variant == name and r.active_donor_precision is not None for r in rows
            ), name

    def test_empty_active_set_scores_none(self, monkeypatch):
        # a penalty this large zeroes every lasso weight
        rows = self.scored_rows(monkeypatch, RegressionSpec("lasso", 1e6), "per_dataset", 43)
        assert rows
        assert all(
            (r.active_donor_precision, r.active_donor_recall) == (None, None) for r in rows
        )


class TestSplitSharedPools:
    """The split harness denoises the full pool once per iteration and each
    cluster once; every row must still be what a fresh sc_learn gives."""

    def test_rows_equal_fresh_fits_and_svds_are_shared(self, monkeypatch):
        panel = small_dataset(seed=51, s=0.2, n_a=15, n_b=15).panel
        design = standard_design(k="auto")
        svd_calls = []
        numpy_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svd_calls.append(None)
            return numpy_svd(*args, **kwargs)

        # (svd calls made before the model, the model) per iteration
        models = []
        fit_cluster_model = evaluate.fit_cluster_model

        def recording_model(*args, **kwargs):
            before = len(svd_calls)
            model = fit_cluster_model(*args, **kwargs)
            models.append((before, model))
            return model

        fits = record_fits(monkeypatch, panel)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(evaluate, "fit_cluster_model", recording_model)
        report = split_placebo(panel, 0.6, 2, design, np.random.default_rng(52))
        monkeypatch.undo()

        assert len(fits) == len(report.rows)
        assert {r.variant for r in report.rows} == set(VARIANT_NAMES)
        id_to_row = {u: i for i, u in enumerate(panel.unit_ids)}
        split, t0 = panel.split, panel.split.t0
        rule_of = {"sc_full": design.rule, "cluster_sc": design.cluster_rule,
                   "sc_random_subset": design.rule}
        full_ids = {r.iteration: f.donor_ids for f, r in zip(fits, report.rows)
                    if r.variant == "sc_full"}
        for fit, row in zip(fits, report.rows):
            if row.variant == "cluster_sc":
                labels = models[row.iteration - 1][1].assignments.labels
                assert fit.donor_ids == [
                    full_ids[row.iteration][i]
                    for i in np.flatnonzero(labels == row.cluster_label)
                ]
            observed = panel.values[id_to_row[row.target_id]]
            pool = panel.values[[id_to_row[u] for u in fit.donor_ids]]
            fresh = sc_learn(
                pool, split, observed[:t0], rule_of[row.variant], design.reg,
                donor_ids=fit.donor_ids,
                cluster_label=row.cluster_label,
            )
            assert np.array_equal(fresh.denoised_donors, fit.denoised_donors)
            assert np.array_equal(fresh.weights.values, fit.weights.values)
            assert fresh.rank_used == fit.rank_used
            counterfactual = fresh.denoised_donors[:, t0:].T @ fresh.weights.values
            pre = fresh.denoised_donors[:, :t0].T @ fresh.weights.values
            assert row.post_mse == mse(counterfactual, observed[t0:])
            assert row.pre_mse == mse(pre, observed[:t0])

        # one SVD for the cluster model, one for the full pool, one per
        # cluster used and one per random subset, in each iteration
        assert len(models) == 2
        bounds = [before for before, _ in models] + [len(svd_calls)]
        for it, ((_, model), entry) in enumerate(zip(models, report.per_iteration), start=1):
            n_targets = entry["n_targets"]
            calls = bounds[it] - bounds[it - 1]
            assert calls <= 1 + 1 + model.k + n_targets
            it_rows = [r for r in report.rows if r.iteration == it]
            clusters = {r.cluster_label for r in it_rows if r.variant == "cluster_sc"}
            subsets = sum(r.variant == "sc_random_subset" for r in it_rows)
            assert calls == 2 + len(clusters) + subsets
            assert len(clusters) < n_targets  # some cluster served two targets

    @pytest.mark.parametrize("chunk", [3, evaluate.TARGET_CHUNK])
    def test_each_shared_pool_is_fitted_once_per_iteration(self, chunk, monkeypatch):
        # the core gets all of an iteration's targets: one fit of the full
        # pool, one per cluster used, and the random subsets of each size
        # stacked chunk at a time
        panel = small_dataset(seed=51, s=0.2, n_a=15, n_b=15).panel
        monkeypatch.setattr(evaluate, "TARGET_CHUNK", chunk)
        calls = []  # [iteration, sc_fit_weights calls] per core call
        placebo_target, sc_fit_weights = evaluate._placebo_target, evaluate.sc_fit_weights

        def core(iteration, *args, **kwargs):
            calls.append([iteration, 0])
            return placebo_target(iteration, *args, **kwargs)

        def fitting(*args, **kwargs):
            calls[-1][1] += 1
            return sc_fit_weights(*args, **kwargs)

        monkeypatch.setattr(evaluate, "_placebo_target", core)
        monkeypatch.setattr(evaluate, "sc_fit_weights", fitting)
        report = split_placebo(panel, 0.6, 2, standard_design(k="auto"), np.random.default_rng(52))

        assert [it for it, _ in calls] == [1, 2]
        for (it, fits), entry in zip(calls, report.per_iteration):
            it_rows = [r for r in report.rows if r.iteration == it]
            clusters = {r.cluster_label for r in it_rows if r.variant == "cluster_sc"}
            sizes = Counter(r.selected_donor_count for r in it_rows
                            if r.variant == "sc_random_subset")
            assert fits == 1 + len(clusters) + sum(-(-count // chunk) for count in sizes.values())
            assert entry["n_targets"] > chunk  # more than one chunk's worth
        if chunk == 3:
            assert max(sizes.values()) > chunk  # the cap splits a size's subsets

    def test_rows_do_not_depend_on_chunk_size(self, monkeypatch):
        # at chunks of 8, a chunk stacks targets that share a pool and the
        # random subsets of one size
        panel = small_dataset(seed=51, s=0.2, n_a=15, n_b=15).panel
        reports = []
        for chunk in (1, 3, evaluate.TARGET_CHUNK):
            monkeypatch.setattr(evaluate, "TARGET_CHUNK", chunk)
            reports.append(asdict(
                split_placebo(panel, 0.6, 2, standard_design(k="auto"), np.random.default_rng(52))
            ))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


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


def outlier_pair_dataset():
    """Twelve units: ten noise series near zero and a far pair u00, u01.

    With k=2 the far pair forms a cluster of its own, so a target from the
    pair finds a single donor in its cluster. Group A holds u00..u05.
    """
    values = np.random.default_rng(31).normal(0.0, 1.0, size=(12, 10))
    values[:2] += 50.0
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


def use_cpus(monkeypatch, count):
    """Make the harness see count CPUs in this process's affinity mask."""
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch) -> list:
    """The pids of the children the harness forks from now on."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(evaluate.os, "fork", counting_fork)
    return pids


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_infer(panel, bad, error, calls=None):
    """The engine's sc_infer, except that a stack holding a target of bad
    raises error. A stack names its last bad target, so only a rerun one
    target at a time raises the first. Targets are found by their series in
    panel, whose rows must be distinct; calls, when given, gets each stack's
    target ids."""
    unit_of = {row.tobytes(): uid for row, uid in zip(panel.values, panel.unit_ids)}
    assert len(unit_of) == len(panel.unit_ids)

    def infer(fit, split, target_full):
        target_ids = [unit_of[series.tobytes()] for series in target_full]
        if calls is not None:
            calls.append(target_ids)
        failed = [t for t in target_ids if t in bad]
        if failed:
            raise error(f"target {failed[-1]} failed")
        return engine.sc_infer(fit, split, target_full)

    return infer


def alone_up_to(serial, target_ids, first) -> list:
    """The sc_infer stacks of fitting each target alone, in order, up to the
    target first, whose sc_full stack raises: a stack per row of serial."""
    rows = Counter(r.target_id for r in serial.rows)
    return [[t] for t in target_ids[:first] for _ in range(rows[t])] + [[target_ids[first]]]


class TestDealtTargets:
    """The leave-one-out harness deals its targets over the CPUs in the
    affinity mask; the report and the error raised must not depend on how
    many there are, and no child may outlive the call."""

    CASES = {
        "per_target": (lambda: small_dataset(seed=61, s=0.2), 0.5, "per_target"),
        "per_dataset": (lambda: small_dataset(seed=61, s=0.2), 0.5, "per_dataset"),
        # the far pair u00, u01 is skipped for cluster_sc (see TestSkipPath)
        "skipped_per_target": (outlier_pair_dataset, 1.0, "per_target"),
        "skipped_per_dataset": (outlier_pair_dataset, 1.0, "per_dataset"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_bytes_do_not_depend_on_cpus(self, case, monkeypatch, tmp_path):
        make_dataset, fraction, mode = self.CASES[case]
        dataset = make_dataset()
        design = TestSkipPath.DESIGN if case.startswith("skipped") else standard_design()
        forks = count_forks(monkeypatch)
        written = []
        for cpus in (1, 2, 4):
            use_cpus(monkeypatch, cpus)
            del forks[:]
            report = leave_one_out_placebo(
                dataset, fraction, design, np.random.default_rng(62), cluster_mode=mode
            )
            assert_no_children()
            assert len(forks) == cpus - 1
            written.append(write_json(report, tmp_path / f"{cpus}.json").read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]
        assert {r.variant for r in report.rows} == set(VARIANT_NAMES)
        if case.startswith("skipped"):
            assert {s["target_id"] for s in report.skipped} == {"u00", "u01"}

    @pytest.mark.parametrize("picklable", [True, False])
    @pytest.mark.parametrize("failing", [(1, 2), (2, 3), (3, 5), (6,)])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_error_in_target_order_is_raised(self, cpus, failing, picklable, monkeypatch):
        dataset = small_dataset(seed=63)
        design = standard_design()
        use_cpus(monkeypatch, 1)
        serial = leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        bad = {target_ids[i] for i in failing}

        class LocalError(Exception):
            """A class local to a function cannot be pickled, so a child
            that meets it exits without sending its results."""

        error = InvalidInputError if picklable else LocalError
        monkeypatch.setattr(evaluate, "sc_infer", failing_infer(dataset.panel, bad, error))
        use_cpus(monkeypatch, cpus)
        with pytest.raises(error, match=f"^target {target_ids[failing[0]]} failed$"):
            leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        assert_no_children()

    # with stacks of 3, the call of all 8 targets fits their full pools as
    # [0 1 2] [3 4 5] [6 7]; on two or four CPUs a failing share sends every
    # target to that call here
    @pytest.mark.parametrize("picklable", [True, False])
    @pytest.mark.parametrize("failing", [(4,), (4, 5), (7,), (6, 7)],
                             ids=["mid_chunk", "two_mid_chunk", "last_chunk", "two_last_chunk"])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_error_in_target_order_is_raised_from_chunks(
        self, cpus, failing, picklable, monkeypatch
    ):
        dataset = small_dataset(seed=63)
        design = standard_design()
        use_cpus(monkeypatch, 1)
        serial = leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        monkeypatch.setattr(evaluate, "TARGET_CHUNK", 3)
        calls = []
        # a class made here cannot be pickled, so a child that meets it
        # exits without sending its results
        error = InvalidInputError if picklable else type("LocalError", (Exception,), {})
        bad = {target_ids[i] for i in failing}
        monkeypatch.setattr(evaluate, "sc_infer", failing_infer(dataset.panel, bad, error, calls))
        use_cpus(monkeypatch, cpus)
        with pytest.raises(error, match=f"^target {target_ids[failing[0]]} failed$"):
            leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        assert_no_children()
        # the last stack fitted here failed, and every target was fitted
        # again alone, in order, up to the first bad one
        alone = alone_up_to(serial, target_ids, failing[0])
        start = failing[0] // 3 * 3
        assert calls[-len(alone) - 1] == target_ids[start : start + 3]
        assert calls[-len(alone):] == alone

    @pytest.mark.parametrize("failing", [(1,), (4,), (4, 5), (7,)],
                             ids=["first_chunk", "mid_chunk", "two_mid_chunk", "last_chunk"])
    def test_one_share_fits_each_chunk_once(self, failing, monkeypatch):
        # with one share nothing is dealt, so a failure does not rerun the
        # whole call: every stack up to the failing one is fitted once, then
        # each target alone, in order, up to the first bad one
        dataset = small_dataset(seed=63)
        design = standard_design()
        use_cpus(monkeypatch, 1)
        serial = leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        monkeypatch.setattr(evaluate, "TARGET_CHUNK", 3)
        calls = []
        bad = {target_ids[i] for i in failing}
        monkeypatch.setattr(
            evaluate, "sc_infer", failing_infer(dataset.panel, bad, InvalidInputError, calls)
        )
        with pytest.raises(InvalidInputError, match=f"^target {target_ids[failing[0]]} failed$"):
            leave_one_out_placebo(dataset, 0.4, design, np.random.default_rng(64))
        stacks = [target_ids[start : start + 3] for start in range(0, failing[0] + 1, 3)]
        assert calls == stacks + alone_up_to(serial, target_ids, failing[0])

    @pytest.mark.parametrize("path", [
        "dealt_2", "dealt_4", "no_pipe", "second_fork_fails", "child_delivers_nothing",
        "interrupt",
    ])
    def test_no_descriptor_or_child_outlives_the_call(self, path, monkeypatch):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to list this process's descriptors")
        dataset = small_dataset(seed=63)
        design = standard_design()
        use_cpus(monkeypatch, 1)
        # a first call also makes every import and load the dealt call needs
        serial = leave_one_out_placebo(dataset, 0.4, design, 64)
        target_ids = list(dict.fromkeys(r.target_id for r in serial.rows))
        assert len(target_ids) == 8
        use_cpus(monkeypatch, 2 if path == "dealt_2" else 4)
        forks = count_forks(monkeypatch)
        raises = None
        if path == "no_pipe":
            def failing_pipe():
                raise OSError(errno.EMFILE, "too many open files")

            monkeypatch.setattr(evaluate.os, "pipe", failing_pipe)
        elif path == "second_fork_fails":
            counting_fork = evaluate.os.fork

            def fork_once():
                if forks:
                    raise BlockingIOError("no process slot")
                return counting_fork()

            monkeypatch.setattr(evaluate.os, "fork", fork_once)
        elif path == "child_delivers_nothing":
            # target 1 is in share 1, a child's; a class made here cannot be
            # pickled, and the child that meets it exits without its results
            raises = type("LocalError", (Exception,), {})
            monkeypatch.setattr(
                evaluate, "sc_infer", failing_infer(dataset.panel, {target_ids[1]}, raises)
            )
        elif path == "interrupt":
            parent = os.getpid()
            placebo_target = evaluate._placebo_target

            def interrupted_target(*args):
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                return placebo_target(*args)

            raises = KeyboardInterrupt
            monkeypatch.setattr(evaluate, "_placebo_target", interrupted_target)
        before = sorted(os.listdir("/proc/self/fd"))
        if raises is None:
            report = leave_one_out_placebo(dataset, 0.4, design, 64)
            assert asdict(report) == asdict(serial)
        else:
            with pytest.raises(raises):
                leave_one_out_placebo(dataset, 0.4, design, 64)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_children()
        expected_forks = {"dealt_2": 1, "no_pipe": 0, "second_fork_fails": 1}
        assert len(forks) == expected_forks.get(path, 3)

    @pytest.mark.parametrize("mode, fraction, chunk", [
        ("per_target", 0.4, evaluate.TARGET_CHUNK), ("per_dataset", 1.0, 3),
    ])
    def test_chunk_stacks_the_pools_of_one_shape(self, mode, fraction, chunk, monkeypatch):
        # one core call stacks each variant's pools of one shape, chunk at a
        # time, none rerun. per_target, 8 targets make one stack of full
        # pools, and one stack of cluster pools and one of random subsets per
        # cluster size (each target clusters its own pool, so the sizes
        # differ). per_dataset, the targets of one cluster have pools of one
        # size, stacked whatever their place among the share's targets
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(evaluate, "TARGET_CHUNK", chunk)
        shapes = []
        denoise = evaluate.sc_denoise

        def recording(donors, rule):
            shapes.append(donors.shape)
            return denoise(donors, rule)

        monkeypatch.setattr(evaluate, "sc_denoise", recording)
        report = leave_one_out_placebo(
            small_dataset(seed=61, s=0.2), fraction, standard_design(), 64, cluster_mode=mode
        )
        pools = Counter((r.variant, r.selected_donor_count) for r in report.rows)
        assert len(shapes) == sum(-(-count // chunk) for count in pools.values())
        assert sum(shape[0] for shape in shapes) == len(report.rows)
        sizes = {r.selected_donor_count for r in report.rows if r.variant == "cluster_sc"}
        if mode == "per_target":
            assert len(report.rows) == 24
            assert 1 < len(sizes) < 8
        else:
            assert len(sizes) > 1

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_bytes_do_not_depend_on_chunk_size(self, case, monkeypatch, tmp_path):
        make_dataset, fraction, mode = self.CASES[case]
        dataset = make_dataset()
        design = TestSkipPath.DESIGN if case.startswith("skipped") else standard_design()
        use_cpus(monkeypatch, 1)
        written = []
        for chunk in (1, 3, evaluate.TARGET_CHUNK):
            monkeypatch.setattr(evaluate, "TARGET_CHUNK", chunk)
            report = leave_one_out_placebo(
                dataset, fraction, design, np.random.default_rng(62), cluster_mode=mode
            )
            written.append(write_json(report, tmp_path / f"{chunk}.json").read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]

    @pytest.mark.parametrize("reason", ["no_fork", "no_affinity", "second_thread"])
    def test_runs_in_process_when_forking_is_unsafe(self, reason, monkeypatch):
        dataset = small_dataset(seed=69)
        use_cpus(monkeypatch, 1)
        serial = leave_one_out_placebo(dataset, 0.4, standard_design(), 70)
        use_cpus(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        if reason == "no_fork":
            monkeypatch.delattr(evaluate.os, "fork")
        elif reason == "no_affinity":
            monkeypatch.delattr(evaluate.os, "sched_getaffinity")
        else:
            thread.start()
        try:
            report = leave_one_out_placebo(dataset, 0.4, standard_design(), 70)
        finally:
            release.set()
            if reason == "second_thread":
                thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == []
        assert asdict(report) == asdict(serial)

    def test_share_runs_here_when_fork_fails(self, monkeypatch, tmp_path):
        dataset = small_dataset(seed=65)
        use_cpus(monkeypatch, 1)
        serial = leave_one_out_placebo(dataset, 0.4, standard_design(), 66)

        def failing_fork():
            raise BlockingIOError("no process slot")

        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(evaluate.os, "fork", failing_fork)
        report = leave_one_out_placebo(dataset, 0.4, standard_design(), 66)
        assert_no_children()
        assert write_json(report, tmp_path / "4.json").read_bytes() == write_json(
            serial, tmp_path / "1.json"
        ).read_bytes()

    def test_runs_here_when_no_pipe_can_be_made(self, monkeypatch, tmp_path):
        dataset = small_dataset(seed=65)
        use_cpus(monkeypatch, 1)
        serial = leave_one_out_placebo(dataset, 0.4, standard_design(), 66)

        def failing_pipe():
            raise OSError(errno.EMFILE, "too many open files")

        use_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(evaluate.os, "pipe", failing_pipe)
        report = leave_one_out_placebo(dataset, 0.4, standard_design(), 66)
        assert forks == []
        assert_no_children()
        assert write_json(report, tmp_path / "2.json").read_bytes() == write_json(
            serial, tmp_path / "1.json"
        ).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_parent_runs_only_its_own_share(self, cpus, monkeypatch):
        # in one core call, however many stacks its targets make
        parent = os.getpid()
        placebo_target = evaluate._placebo_target
        here = []  # the target ids of each core call made here

        def counting_target(iteration, panel, target_rows, *args):
            if os.getpid() == parent:
                here.append([panel.unit_ids[t] for t in target_rows])
            return placebo_target(iteration, panel, target_rows, *args)

        monkeypatch.setattr(evaluate, "_placebo_target", counting_target)
        monkeypatch.setattr(evaluate, "TARGET_CHUNK", 3)
        use_cpus(monkeypatch, cpus)
        report = leave_one_out_placebo(small_dataset(seed=63), 0.4, standard_design(), 64)
        target_ids = list(dict.fromkeys(r.target_id for r in report.rows))
        assert len(target_ids) == 8
        # share 0 is targets 0, cpus, 2 * cpus, ...: ceil(8 / cpus) targets
        assert here == [target_ids[::cpus]]
        assert len(here[0]) == math.ceil(8 / cpus)
        assert_no_children()

    def test_interrupt_kills_and_reaps_children(self, monkeypatch):
        parent = os.getpid()
        placebo_target = evaluate._placebo_target

        def interrupted_target(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return placebo_target(*args)

        monkeypatch.setattr(evaluate, "_placebo_target", interrupted_target)
        forks = count_forks(monkeypatch)
        use_cpus(monkeypatch, 4)
        with pytest.raises(KeyboardInterrupt):
            leave_one_out_placebo(small_dataset(seed=67), 0.4, standard_design(), 68)
        assert len(forks) == 3
        assert_no_children()

    def test_children_never_flush_inherited_stdio(self):
        # stdout is a buffered pipe, so the line sits in the buffer the
        # children inherit
        script = textwrap.dedent('''
            import os, sys
            from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
            from clustersc.evaluate import PlaceboDesign, leave_one_out_placebo
            from clustersc.linalg import RankRule
            from clustersc.regression import RegressionSpec

            os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
            dataset = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 10, 10, 10, 8, NoiseSpec.gaussian(0.1), seed=1
            )
            design = PlaceboDesign(RegressionSpec("ridge", lam=0.01), RankRule.energy(0.95), k=2)
            sys.stdout.write("written once\\n")
            report = leave_one_out_placebo(dataset, 0.4, design, 2)
            sys.stderr.write(str(len(report.rows)))
        ''')
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(evaluate.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "written once\n"
        assert done.stderr == "8"

    def test_children_inherit_the_clustering_import(self, tmp_path):
        # the harness loads k-means' scipy before it deals the targets, so no
        # dealt child imports it again. -X importtime lists every import made
        # by the parent and by its forked children on the shared stderr, so a
        # dealt run must log the module as often as the same run held to one
        # CPU, which forks no child: the parent's own lines cancel out
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU in the affinity mask: no target is dealt to a child")

        def imports(preexec_fn=None):
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "clustersc", "placebo-synthetic",
                 "--na", "10", "--nb", "10", "--datasets", "1", "--rule", "fixed:3", "--k", "2",
                 "--seed", "42", "--out", str(tmp_path)],
                capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
                env={**os.environ, "PYTHONPATH": str(Path(evaluate.__file__).resolve().parent.parent)},
            )
            assert done.returncode == 0, done.stderr
            return [line for line in done.stderr.splitlines()
                    if line.split("|")[-1].strip() == "scipy.spatial.distance"]

        cpu = min(os.sched_getaffinity(0))
        # sched_setaffinity(0, ...) acts on the child process alone
        pinned = imports(lambda: os.sched_setaffinity(0, {cpu}))
        dealt = imports()
        assert pinned
        assert len(dealt) == len(pinned), (dealt, pinned)


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
