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
from dataclasses import asdict

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
from clustersc.evaluate import (
    MethodVariant,
    PlaceboReport,
    PlaceboRow,
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

RIDGE = RegressionSpec("ridge", lam=0.01)
ENERGY = RankRule.energy(0.95)

# amplitude concentrated near 1 and disjoint frequency bands: the two
# groups' rows form well-separated clouds, so noiseless clustering is exact
SEPARATED_A = SignalSpec(3, (8.0, 2.0), (1.0, 2.0), (0.0, 0.0))
SEPARATED_B = SignalSpec(3, (8.0, 2.0), (6.0, 8.0), (0.0, 0.0))


def small_dataset(seed=11, s=0.1, n_a=20, n_b=20):
    return gen_dataset(
        GROUP_A_SPEC, GROUP_B_SPEC, n_a, n_b, 10, 8, NoiseSpec.gaussian(s), seed=seed
    )


def standard_variants(reg=RIDGE, rule=ENERGY, k=2):
    return [
        MethodVariant("sc_full", reg, rule),
        MethodVariant("cluster_sc", reg, rule, k=k),
        MethodVariant("sc_random_subset", reg, rule),
    ]


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


class TestMethodVariant:
    def test_unknown_name(self):
        with pytest.raises(InvalidParamsError):
            MethodVariant("sc_other", RIDGE, ENERGY)

    def test_bad_k(self):
        with pytest.raises(InvalidParamsError):
            MethodVariant("cluster_sc", RIDGE, ENERGY, k=0)

    def test_auto_k(self):
        assert MethodVariant("cluster_sc", RIDGE, ENERGY).k == "auto"


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
        assert report.recomputed_medians() == report.medians

    def test_improvements_from_complete_cells_only(self):
        report = self.hand_report()
        assert report.recomputed_improvements() == report.improvements

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
            ds, 0.01, standard_variants(), np.random.default_rng(0)
        )
        assert len(report.rows) == 3
        assert {r.target_id for r in report.rows} == {report.rows[0].target_id}
        assert report.config["n_targets"] == 1

    def test_noiseless_cluster_sc_recovers_exactly(self):
        ds = small_dataset(seed=11, s=0.0)
        variants = [MethodVariant("cluster_sc", RegressionSpec("ols"), RankRule.fixed(3), k=2)]
        report = leave_one_out_placebo(ds, 0.25, variants, np.random.default_rng(3))
        assert report.skipped == []
        assert all(r.post_mse <= 1e-10 for r in report.rows)
        assert all(r.pre_mse <= 1e-10 for r in report.rows)

    def test_reference_label(self):
        report = leave_one_out_placebo(
            small_dataset(), 0.1, standard_variants(), np.random.default_rng(1)
        )
        assert report.reference == "true_signal"
        assert all(r.iteration == 0 for r in report.rows)

    def test_target_excluded_from_pool(self):
        # with k=1 the cluster is the whole pool, so every variant must see
        # exactly n - 1 donors; in per_dataset mode the model covers all n
        # units and the target has to be dropped from its own cluster
        ds = small_dataset(n_a=10, n_b=10)
        variants = [
            MethodVariant("sc_full", RIDGE, ENERGY),
            MethodVariant("cluster_sc", RIDGE, ENERGY, k=1),
        ]
        for mode in ("per_target", "per_dataset"):
            report = leave_one_out_placebo(
                ds, 0.5, variants, np.random.default_rng(2), cluster_mode=mode
            )
            assert all(r.selected_donor_count == 19 for r in report.rows)

    def test_subset_size_paired_with_cluster(self):
        report = leave_one_out_placebo(
            small_dataset(), 0.3, standard_variants(), np.random.default_rng(5)
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
            small_dataset(), 0.3, standard_variants(), np.random.default_rng(5)
        )
        assert report.recomputed_medians() == report.medians
        assert report.recomputed_improvements() == report.improvements

    def test_deterministic_given_seed(self):
        ds = small_dataset()
        a = leave_one_out_placebo(ds, 0.2, standard_variants(), np.random.default_rng(9))
        b = leave_one_out_placebo(ds, 0.2, standard_variants(), np.random.default_rng(9))
        assert asdict(a) == asdict(b)

    def test_active_donor_precision_filled(self):
        variants = [MethodVariant("cluster_sc", RegressionSpec("lasso", 0.01), ENERGY, k=2)]
        report = leave_one_out_placebo(
            small_dataset(), 0.2, variants, np.random.default_rng(4)
        )
        filled = [r for r in report.rows if r.active_donor_precision is not None]
        assert filled
        for row in filled:
            assert 0.0 <= row.active_donor_precision <= 1.0
            assert 0.0 <= row.active_donor_recall <= 1.0

    def test_known_rank_improvement_is_positive(self):
        # with the group ranks given (pool 6, cluster 3) the clustered run
        # wins decisively at moderate noise
        variants = [
            MethodVariant("sc_full", RIDGE, RankRule.fixed(6)),
            MethodVariant("cluster_sc", RIDGE, RankRule.fixed(3), k=2),
        ]
        medians = []
        for seed in range(4):
            ds = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 100, 100, 10, 8,
                NoiseSpec.gaussian(0.25), seed=100 + seed,
            )
            report = leave_one_out_placebo(
                ds, 0.2, variants, np.random.default_rng(1000 + seed),
                cluster_mode="per_dataset",
            )
            medians.append(report.improvements["median"])
        assert sum(m > 0 for m in medians) >= 3
        assert np.median(medians) > 0

    def test_subset_without_cluster_rejected(self):
        variants = [
            MethodVariant("sc_full", RIDGE, ENERGY),
            MethodVariant("sc_random_subset", RIDGE, ENERGY),
        ]
        with pytest.raises(InvalidParamsError):
            leave_one_out_placebo(
                small_dataset(), 0.2, variants, np.random.default_rng(0)
            )

    def test_subset_before_cluster_rejected(self):
        variants = [
            MethodVariant("sc_random_subset", RIDGE, ENERGY),
            MethodVariant("cluster_sc", RIDGE, ENERGY, k=2),
        ]
        with pytest.raises(InvalidParamsError):
            leave_one_out_placebo(
                small_dataset(), 0.2, variants, np.random.default_rng(0)
            )

    def test_duplicate_variant_names_rejected(self):
        variants = [
            MethodVariant("sc_full", RIDGE, ENERGY),
            MethodVariant("sc_full", RIDGE, RankRule.fixed(3)),
        ]
        with pytest.raises(InvalidParamsError):
            leave_one_out_placebo(
                small_dataset(), 0.2, variants, np.random.default_rng(0)
            )

    def test_bad_target_fraction(self):
        for fraction in (0.0, 1.2, -0.5):
            with pytest.raises(InvalidParamsError):
                leave_one_out_placebo(
                    small_dataset(), fraction, standard_variants(),
                    np.random.default_rng(0),
                )

    def test_bad_cluster_mode(self):
        with pytest.raises(InvalidParamsError):
            leave_one_out_placebo(
                small_dataset(), 0.2, standard_variants(),
                np.random.default_rng(0), cluster_mode="per_panel",
            )


class TestSplitPlacebo:
    def test_shape_and_reference(self):
        ds = small_dataset(seed=21, s=0.2, n_a=15, n_b=15)
        report = split_placebo(
            ds.panel, 0.8, 3, standard_variants(reg=RegressionSpec("ridge", 0.1)),
            np.random.default_rng(7),
        )
        assert report.reference == "observed"
        assert len(report.per_iteration) == 3
        assert {r.iteration for r in report.rows} == {1, 2, 3}
        # 30 units, n_train = 24, so 6 targets per iteration
        assert all(entry["n_targets"] == 6 for entry in report.per_iteration)

    def test_deterministic_given_seed(self):
        ds = small_dataset(seed=21, n_a=12, n_b=12)
        a = split_placebo(ds.panel, 0.75, 2, standard_variants(), np.random.default_rng(3))
        b = split_placebo(ds.panel, 0.75, 2, standard_variants(), np.random.default_rng(3))
        assert asdict(a) == asdict(b)

    def test_per_iteration_medians_match_rows(self):
        ds = small_dataset(seed=22, n_a=12, n_b=12)
        report = split_placebo(
            ds.panel, 0.75, 3, standard_variants(), np.random.default_rng(4)
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
            ds.panel, 19 / 20, 2, standard_variants(), np.random.default_rng(5)
        )
        for entry in report.per_iteration:
            assert entry["n_targets"] == 1
            it_rows = [r for r in report.rows if r.iteration == entry["iteration"]]
            for row in it_rows:
                assert entry["medians"][row.variant]["post_mse"] == row.post_mse

    def test_overall_consistency(self):
        ds = small_dataset(seed=24, n_a=12, n_b=12)
        report = split_placebo(
            ds.panel, 0.75, 2, standard_variants(), np.random.default_rng(6)
        )
        assert report.recomputed_medians() == report.medians
        assert report.recomputed_improvements() == report.improvements

    def test_no_precision_without_labels(self):
        ds = small_dataset(seed=25, n_a=10, n_b=10)
        report = split_placebo(
            ds.panel, 0.8, 2, standard_variants(), np.random.default_rng(8)
        )
        assert all(r.active_donor_precision is None for r in report.rows)

    def test_bad_train_fraction(self):
        ds = small_dataset(n_a=10, n_b=10)
        for fraction in (0.0, 1.0):
            with pytest.raises(InvalidParamsError):
                split_placebo(
                    ds.panel, fraction, 2, standard_variants(),
                    np.random.default_rng(0),
                )

    def test_degenerate_split_rejected(self):
        ds = small_dataset(n_a=10, n_b=10)
        with pytest.raises(InvalidParamsError):
            split_placebo(
                ds.panel, 0.01, 2, standard_variants(), np.random.default_rng(0)
            )

    def test_bad_iterations(self):
        ds = small_dataset(n_a=10, n_b=10)
        with pytest.raises(InvalidParamsError):
            split_placebo(
                ds.panel, 0.8, 0, standard_variants(), np.random.default_rng(0)
            )


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
        panel=panel, group_labels=["A"] * 6 + ["B"] * 6, true_signal=values.copy(),
        spec_a=GROUP_A_SPEC, spec_b=GROUP_B_SPEC, noise=NoiseSpec.gaussian(0.0), seed=0,
    )


class TestSkipPath:
    """A target whose cluster has fewer than 2 donors, in both harnesses."""

    VARIANTS = standard_variants(rule=RankRule.fixed(2), k=2)
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
        return cells

    def test_leave_one_out_per_dataset(self):
        report = leave_one_out_placebo(
            outlier_pair_dataset(), 1.0, self.VARIANTS, np.random.default_rng(0),
            cluster_mode="per_dataset",
        )
        assert self.check_skips(report) == {(0, "u00"), (0, "u01")}
        assert report.per_iteration == []

    def test_split(self):
        report = split_placebo(
            outlier_pair_dataset().panel, 0.5, 6, self.VARIANTS, np.random.default_rng(0)
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
        rho = stats.spearmanr(scales, result.mean_fractions()).statistic
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
