"""Donor clustering against exhaustive and hand-computed oracles.

Known values used below:
  - Points (0,0), (0.1,0), (10,0), (10.1,0) with k=2 pair up with centers
    (0.05,0) and (10.05,0); every point sits 0.05 from its center, so the
    inertia is 4 * 0.05^2 = 0.01.
  - Partitions {1,2},{3,4} vs {1,3},{2,4}: best label matching still leaves
    one element wrong in each part, symmetric difference 4.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clustersc.cluster import (
    ClusterModel,
    Partition,
    assign_target,
    best_lloyd,
    choose_k,
    fit_cluster_model,
    kmeans_pp_init,
    lloyd,
    partition_symmetric_difference,
    silhouette,
)
from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from clustersc.errors import (
    DegenerateInputError,
    InvalidParamsError,
    ShapeError,
)
from clustersc.linalg import RankRule


def exhaustive_bipartition_inertia(points: np.ndarray) -> float:
    """Minimum 2-means inertia by enumerating every bipartition."""

    def ssd(rows):
        rows = points[list(rows)]
        return float(((rows - rows.mean(axis=0)) ** 2).sum())

    m = len(points)
    best = np.inf
    for mask in range(2 ** (m - 1) - 1):
        left = [0] + [i + 1 for i in range(m - 1) if mask & (1 << i)]
        right = [i for i in range(m) if i not in left]
        best = min(best, ssd(left) + ssd(right))
    return best


def silhouette_oracle(points: np.ndarray, labels: np.ndarray) -> float:
    """Plain-loop silhouette with singletons contributing zero."""
    m = len(points)
    scores = []
    for i in range(m):
        own = labels[i]
        same = [j for j in range(m) if labels[j] == own and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        b = np.inf
        for other in set(labels) - {own}:
            members = [j for j in range(m) if labels[j] == other]
            b = min(b, np.mean([np.linalg.norm(points[i] - points[j]) for j in members]))
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


def symmetric_difference_oracle(p: np.ndarray, q: np.ndarray, k: int) -> int:
    """Min over all k! label bijections of the summed set differences."""
    p_sets = [set(np.flatnonzero(p == label)) for label in range(1, k + 1)]
    q_sets = [set(np.flatnonzero(q == label)) for label in range(1, k + 1)]
    return min(
        sum(len(p_sets[i] ^ q_sets[j]) for i, j in enumerate(perm))
        for perm in itertools.permutations(range(k))
    )


def two_blobs(rng, m_per=10, sep=10.0, spread=0.2, d=2):
    a = rng.normal(scale=spread, size=(m_per, d))
    b = rng.normal(scale=spread, size=(m_per, d)) + sep
    return np.vstack([a, b])


class TestKmeansPpInit:
    def test_k_equals_m_is_permutation(self):
        rng = np.random.default_rng(301)
        points = rng.normal(size=(6, 3))
        centers = kmeans_pp_init(points, 6, np.random.default_rng(1))
        got = centers[np.lexsort(centers.T)]
        want = points[np.lexsort(points.T)]
        np.testing.assert_allclose(got, want, atol=0)

    def test_k_one_is_a_point(self):
        rng = np.random.default_rng(303)
        points = rng.normal(size=(5, 2))
        center = kmeans_pp_init(points, 1, np.random.default_rng(2))
        assert any(np.array_equal(center[0], p) for p in points)

    def test_deterministic(self):
        rng = np.random.default_rng(307)
        points = rng.normal(size=(20, 4))
        a = kmeans_pp_init(points, 4, np.random.default_rng(5))
        b = kmeans_pp_init(points, 4, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_too_few_distinct_points(self):
        points = np.ones((5, 2))
        with pytest.raises(DegenerateInputError):
            kmeans_pp_init(points, 2, np.random.default_rng(0))

    def test_k_bounds(self):
        points = np.arange(6.0).reshape(3, 2)
        with pytest.raises(InvalidParamsError):
            kmeans_pp_init(points, 0, np.random.default_rng(0))


class TestLloyd:
    def test_two_pairs_inertia(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        _, part, inertia = best_lloyd(points, 2, restarts=5, rng=np.random.default_rng(4))
        assert inertia == pytest.approx(0.01, abs=1e-12)
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] == part.labels[3]
        assert part.labels[0] != part.labels[2]

    def test_k_one_center_is_mean(self):
        rng = np.random.default_rng(311)
        points = rng.normal(size=(7, 3))
        centers, part, inertia = lloyd(points, points[[2]].copy())
        np.testing.assert_allclose(centers[0], points.mean(axis=0), atol=1e-12)
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert inertia == pytest.approx(expected, abs=1e-10)
        assert part.k == 1 and set(part.labels) == {1}

    def test_matches_exhaustive_bipartition(self):
        rng = np.random.default_rng(313)
        for seed in range(10):
            m = int(rng.integers(4, 9))
            points = np.random.default_rng(seed).normal(size=(m, 2))
            _, _, inertia = best_lloyd(
                points, 2, restarts=30, rng=np.random.default_rng(seed + 100)
            )
            assert inertia == pytest.approx(
                exhaustive_bipartition_inertia(points), abs=1e-9
            )

    def test_empty_cluster_repair(self):
        points = np.array([[0.0], [1.0], [2.0], [3.0]])
        # both inits sit left of every point, so one cluster starts empty
        init = np.array([[-100.0], [-200.0]])
        centers, part, inertia = lloyd(points, init)
        assert set(part.labels) == {1, 2}
        counts = [np.sum(part.labels == c) for c in (1, 2)]
        assert min(counts) >= 1

    def test_centers_are_member_means(self):
        rng = np.random.default_rng(317)
        points = rng.normal(size=(30, 3))
        centers, part, _ = best_lloyd(points, 3, restarts=5, rng=rng)
        for c in range(1, 4):
            members = points[part.labels == c]
            np.testing.assert_allclose(centers[c - 1], members.mean(axis=0), atol=1e-8)

    def test_labels_one_based(self):
        rng = np.random.default_rng(319)
        points = rng.normal(size=(12, 2))
        _, part, _ = best_lloyd(points, 4, restarts=5, rng=rng)
        assert part.labels.min() >= 1 and part.labels.max() <= 4


class TestSilhouette:
    def test_separated_blobs_high(self):
        rng = np.random.default_rng(331)
        points = two_blobs(rng)
        labels = np.array([1] * 10 + [2] * 10)
        assert silhouette(points, Partition(labels, 2)) > 0.9

    def test_identical_points_zero(self):
        points = np.ones((6, 2))
        labels = np.array([1, 1, 1, 2, 2, 2])
        assert silhouette(points, Partition(labels, 2)) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(337)
        for _ in range(10):
            points = rng.normal(size=(9, 2))
            labels = rng.integers(1, 4, size=9)
            labels[:3] = [1, 2, 3]  # keep every cluster nonempty
            part = Partition(labels, 3)
            assert silhouette(points, part) == pytest.approx(
                silhouette_oracle(points, labels), abs=1e-10
            )

    def test_requires_two_clusters(self):
        points = np.arange(8.0).reshape(4, 2)
        with pytest.raises(InvalidParamsError):
            silhouette(points, Partition(np.ones(4, dtype=int), 1))

    def test_empty_cluster_rejected(self):
        points = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DegenerateInputError):
            silhouette(points, Partition(np.array([1, 1, 1, 1]), 2))


class TestChooseK:
    def test_two_blobs(self):
        rng = np.random.default_rng(341)
        points = two_blobs(rng)
        assert choose_k(points, 2, 5, 10, np.random.default_rng(1)) == 2

    def test_three_blobs(self):
        rng = np.random.default_rng(347)
        blob = lambda c: rng.normal(scale=0.15, size=(8, 2)) + c
        points = np.vstack([blob((0, 0)), blob((8, 0)), blob((0, 8))])
        assert choose_k(points, 2, 6, 10, np.random.default_rng(2)) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(349)
        points = rng.normal(size=(25, 3))
        a = choose_k(points, 2, 5, 5, np.random.default_rng(7))
        b = choose_k(points, 2, 5, 5, np.random.default_rng(7))
        assert a == b

    def test_range_validation(self):
        points = np.arange(10.0).reshape(5, 2)
        with pytest.raises(InvalidParamsError):
            choose_k(points, 1, 3, 5, np.random.default_rng(0))
        with pytest.raises(InvalidParamsError):
            choose_k(points, 2, 5, 5, np.random.default_rng(0))


class TestFitClusterModel:
    def test_orthogonal_pairs(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0, 0.0])
        donors = np.vstack([u, u, w, w])
        model = fit_cluster_model(
            donors, RankRule.fixed(2), k=2, rng=np.random.default_rng(3)
        )
        labels = model.assignments.labels
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert model.inertia == pytest.approx(0.0, abs=1e-16)
        assert model.rank_r == 2
        assert model.v_basis.shape == (4, 2)

    def test_recovers_groups_on_generator_output(self):
        # two-group panels at low noise: the 2-means partition of the
        # embedding agrees with the true groups on at least 90% of donors
        # in a majority of datasets (the median sits near 94%)
        agreements = []
        datasets = 50
        for i in range(datasets):
            ds = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 500, 500, 10, 8,
                NoiseSpec.gaussian(0.1), seed=9000 + i,
            )
            model = fit_cluster_model(
                ds.panel.pre, RankRule.fixed(6), k=2,
                rng=np.random.default_rng(100 + i),
            )
            truth = Partition(
                np.array([1 if g == "A" else 2 for g in ds.group_labels]), 2
            )
            diff = partition_symmetric_difference(model.assignments, truth)
            agreements.append(1.0 - diff / (2 * len(ds.group_labels)))
        assert np.median(agreements) >= 0.9
        assert np.sum(np.asarray(agreements) >= 0.9) > datasets // 2

    def test_selected_cluster_precision_at_low_noise(self):
        # for most group-A targets the cluster containing the target is pure
        # group A; the fraction of such cases exceeds 0.7 at low noise
        cases = []
        for i in range(10):
            ds = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 500, 500, 10, 8,
                NoiseSpec.gaussian(0.1), seed=7000 + i,
            )
            model = fit_cluster_model(
                ds.panel.pre, RankRule.energy(0.95), k=2,
                rng=np.random.default_rng(i),
            )
            labels = np.array(ds.group_labels)
            assign = model.assignments.labels
            rng = np.random.default_rng(500 + i)
            targets = rng.choice(np.flatnonzero(labels == "A"), size=150, replace=False)
            for t in targets:
                members = np.flatnonzero(assign == assign[t])
                members = members[members != t]
                cases.append(float(np.all(labels[members] == "A")))
        assert np.mean(cases) > 0.7

    def test_auto_k_on_separated_groups(self):
        rng = np.random.default_rng(353)
        base_a = rng.normal(size=(2, 12))
        base_b = rng.normal(size=(2, 12))
        wa = rng.uniform(0.5, 1.0, size=(12, 2))
        wb = rng.uniform(0.5, 1.0, size=(12, 2))
        donors = np.vstack([wa @ base_a, 10.0 + wb @ base_b])
        model = fit_cluster_model(
            donors, RankRule.energy(0.99), k="auto", rng=np.random.default_rng(11)
        )
        assert model.k == 2

    def test_too_few_donors(self):
        with pytest.raises(DegenerateInputError):
            fit_cluster_model(
                np.ones((1, 5)), RankRule.fixed(1), k=1, rng=np.random.default_rng(0)
            )
        with pytest.raises(DegenerateInputError):
            fit_cluster_model(
                np.eye(3), RankRule.fixed(2), k=5, rng=np.random.default_rng(0)
            )


class TestAssignTarget:
    @pytest.fixture
    def model(self):
        u = np.array([2.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 2.0, 0.0, 0.0])
        donors = np.vstack([u, 1.5 * u, w, 1.5 * w])
        return fit_cluster_model(
            donors, RankRule.fixed(2), k=2, rng=np.random.default_rng(5)
        )

    def test_donor_row_goes_to_its_cluster(self, model):
        donors_label = model.assignments.labels[0]
        assert assign_target(model, np.array([2.0, 0.0, 0.0, 0.0])) == donors_label

    def test_exact_center(self, model):
        center = model.centers[1]
        target = center @ model.v_basis.T  # invert the embedding for this basis
        assert assign_target(model, target) == 2

    def test_tie_goes_to_lower_label(self):
        # hand-built model with an exact-arithmetic basis so the tie is exact
        hand = ClusterModel(
            k=2,
            rank_r=2,
            v_basis=np.eye(4)[:, :2],
            centers=np.array([[1.0, 0.0], [3.0, 0.0]]),
            assignments=Partition(np.array([1, 1, 2, 2]), 2),
            inertia=0.0,
        )
        assert assign_target(hand, np.array([2.0, 0.0, 0.0, 0.0])) == 1

    def test_shape_validation(self, model):
        with pytest.raises(ShapeError):
            assign_target(model, np.ones(3))


class TestPartitionSymmetricDifference:
    def test_identical(self):
        p = Partition(np.array([1, 1, 2, 2]), 2)
        assert partition_symmetric_difference(p, p) == 0

    def test_known_crossing(self):
        p = Partition(np.array([1, 1, 2, 2]), 2)
        q = Partition(np.array([1, 2, 1, 2]), 2)
        assert partition_symmetric_difference(p, q) == 4

    def test_single_move(self):
        p = Partition(np.array([1, 1, 1, 2, 2]), 2)
        q = Partition(np.array([1, 1, 2, 2, 2]), 2)
        assert partition_symmetric_difference(p, q) == 2

    def test_relabeling_invariant(self):
        p = Partition(np.array([1, 1, 2, 3, 3]), 3)
        q = Partition(np.array([3, 3, 1, 2, 2]), 3)
        assert partition_symmetric_difference(p, q) == 0

    def test_validation(self):
        p = Partition(np.array([1, 2]), 2)
        with pytest.raises(ShapeError):
            partition_symmetric_difference(p, Partition(np.array([1, 2, 2]), 2))
        with pytest.raises(InvalidParamsError):
            partition_symmetric_difference(p, Partition(np.array([1, 2]), 3))

    def test_metric_properties(self):
        rng = np.random.default_rng(359)
        for _ in range(30):
            m, k = int(rng.integers(3, 10)), int(rng.integers(2, 5))
            parts = [Partition(rng.integers(1, k + 1, size=m), k) for _ in range(3)]
            p, q, r = parts
            assert partition_symmetric_difference(p, q) == partition_symmetric_difference(q, p)
            assert partition_symmetric_difference(p, p) == 0
            assert (
                partition_symmetric_difference(p, r)
                <= partition_symmetric_difference(p, q)
                + partition_symmetric_difference(q, r)
            )

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(367)
        for k in range(2, 7):
            for _ in range(8):
                m = int(rng.integers(k, 3 * k + 4))
                p = rng.integers(1, k + 1, size=m)
                q = rng.integers(1, k + 1, size=m)
                assert partition_symmetric_difference(
                    Partition(p, k), Partition(q, k)
                ) == symmetric_difference_oracle(p, q, k)

    def test_cli_import_leaves_assignment_solver_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, clustersc.cli; print('scipy.optimize' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.strip() == "False"

    def test_partition_label_validation(self):
        with pytest.raises(InvalidParamsError):
            Partition(np.array([0, 1]), 2)
        with pytest.raises(InvalidParamsError):
            Partition(np.array([1, 3]), 2)
