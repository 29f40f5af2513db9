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
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import clustersc.cluster as cluster_module
from clustersc.cluster import (
    KMEANS_RESTARTS,
    ClusterModel,
    Partition,
    assign_target,
    best_lloyd,
    choose_k,
    cluster_members,
    fit_cluster_model,
    kmeans_pp_init,
    lloyd,
    max_assignment,
    nearest_cluster,
    partition_symmetric_difference,
    silhouette,
    validate_k,
)
from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from clustersc.errors import (
    DegenerateClusterError,
    DegenerateInputError,
    InvalidInputError,
    InvalidParamsError,
    ShapeError,
)
from clustersc.linalg import RankRule, as_matrix, svd


# Run by a fresh interpreter with an output directory as its argument: the
# scipy modules loaded after each stage, an import or an in-process CLI call,
# written to stages.json there
SCIPY_STAGES = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

out = Path(sys.argv[1])
stages = {}
import clustersc
stages["import clustersc"] = scipy_modules()
import clustersc.cli
stages["import clustersc.cli"] = scipy_modules()
panel = str(out / "simulate" / "simulate_panel.csv")
for argv in (
    ["simulate", "--na", "6", "--nb", "6", "--seed", "1"],
    ["spectrum", "--panel", panel, "--t0", "8"],
    ["gap-check", "--n", "20", "--na", "10", "--trials", "2", "--seed", "1"],
    ["cluster", "--panel", panel, "--t0", "8", "--k", "2", "--seed", "1"],
):
    assert clustersc.cli.main(argv + ["--out", str(out / argv[0])]) == 0, argv
    stages[argv[0]] = scipy_modules()
(out / "stages.json").write_text(json.dumps(stages))
"""


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
    """Min over all k! label bijections of the summed set differences.

    Labels above a partition's own k name empty clusters, so passing the
    larger k pads the smaller partition with empty clusters.
    """
    p_sets = [set(np.flatnonzero(p == label)) for label in range(1, k + 1)]
    q_sets = [set(np.flatnonzero(q == label)) for label in range(1, k + 1)]
    return min(
        sum(len(p_sets[i] ^ q_sets[j]) for i, j in enumerate(perm))
        for perm in itertools.permutations(range(k))
    )


class SerialOracle:
    """The k-means protocol run one restart at a time, as it was written
    before the restarts moved into one lockstep Lloyd loop: kmeans_pp_init,
    then lloyd, once per restart. It reads LLOYD_MAX_ITER from the module at
    call time and records what each Lloyd run did, so the tests can show
    which paths their cases reached."""

    def __init__(self):
        self.reseeds = 0  # Lloyd rounds that reseeded an empty cluster
        self.capped = 0  # runs stopped by LLOYD_MAX_ITER
        self.rounds = []  # rounds of each run

    def kmeans_pp_init(self, points, k, rng):
        points = as_matrix(points)
        m = points.shape[0]
        if k < 1:
            raise InvalidParamsError(f"k must be >= 1, got {k}")
        distinct = np.unique(points, axis=0).shape[0]
        if k > distinct:
            raise DegenerateInputError(
                f"k={k} exceeds the {distinct} distinct point(s)"
            )
        rng = np.random.default_rng(rng)
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[int(rng.integers(m))]
        d2 = ((points - centers[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = d2.sum()
            if not 0.0 < total < np.inf:
                raise DegenerateInputError(
                    f"the squared distances to the first {j} center(s) sum to "
                    f"{total}: the points are distinct, but too close together "
                    f"(underflow) or too far apart (overflow) for D^2 seeding"
                )
            idx = int(rng.choice(m, p=d2 / total))
            if d2[idx] == 0.0:
                idx = int(np.argmax(d2))
            centers[j] = points[idx]
            d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
        return centers

    def lloyd(self, points, init_centers):
        points = as_matrix(points)
        centers = np.array(init_centers, dtype=float)
        m, k = points.shape[0], centers.shape[0]
        labels = None
        rounds = 0
        for _ in range(cluster_module.LLOYD_MAX_ITER):
            rounds += 1
            dist2 = cdist(points, centers, "sqeuclidean")
            new_labels = np.argmin(dist2, axis=1)
            missing = [c for c in range(k) if not np.any(new_labels == c)]
            if missing:
                self.reseeds += 1
                own = dist2[np.arange(m), new_labels].copy()
                for c in missing:
                    far = int(np.argmax(own))
                    centers[c] = points[far]
                    new_labels[far] = c
                    own[far] = -1.0
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                centers[c] = points[labels == c].mean(axis=0)
        else:
            self.capped += 1
        self.rounds.append(rounds)
        inertia = float(((points - centers[labels]) ** 2).sum())
        return centers, Partition(labels + 1, k), inertia

    def best_lloyd(self, points, k, restarts, rng):
        if restarts < 1:
            raise InvalidParamsError(f"restarts must be >= 1, got {restarts}")
        rng = np.random.default_rng(rng)
        seeds = rng.integers(0, 2**63 - 1, size=restarts)
        best = None
        for seed in seeds:
            init = self.kmeans_pp_init(points, k, np.random.default_rng(int(seed)))
            run = self.lloyd(points, init)
            if best is None or run[2] < best[2]:
                best = run
        return best

    def choose_k(self, points, k_min, k_max, restarts, rng):
        points = as_matrix(points)
        rng = np.random.default_rng(rng)
        dists = cdist(points, points)
        best = None
        for k in range(k_min, k_max + 1):
            centers, part, inertia = self.best_lloyd(points, k, restarts, rng)
            score = silhouette(points, part, dists)
            if best is None or score > best[0]:
                best = (score, k, centers, part, inertia)
        return best[1:]


def outcome(call):
    """A k-means result as bytes, or the type and text of what it raised."""
    try:
        result = call()
    except (DegenerateInputError, InvalidParamsError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(as_bytes(value) for value in result)


def as_bytes(value):
    if isinstance(value, Partition):
        return value.k, value.labels.tobytes()
    if isinstance(value, int):
        return value
    return np.asarray(value, dtype=float).tobytes()


def oracle_points(rng, m, r):
    """Gaussian points, or rounded ones (duplicates), or repeated rows."""
    kind = int(rng.integers(4))
    points = rng.normal(size=(m, r)) * rng.choice([1e-3, 1.0, 50.0])
    if kind == 1:
        points = np.round(points, int(rng.integers(0, 2)))
    elif kind == 2:
        points = points[rng.integers(0, max(2, m // 2), size=m)]
    elif kind == 3:
        points = np.round(rng.normal(size=(m, r)) * 0.8) + 5 * rng.integers(0, 3, size=(m, 1))
    return points


def signed_points(rng, m, r, scale):
    """Gaussian points at scale with about a fifth of the coordinates set to
    0.0 or -0.0."""
    points = rng.normal(size=(m, r)) * scale
    zeros = rng.random(size=(m, r)) < 0.2
    points[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return points


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

    def test_distinct_count_in_message(self):
        # the count named when k is too large is np.unique's, on points with
        # repeated rows and with rounded ones, whose zeros are often -0.0, in
        # row-major and column-major layout
        rng = np.random.default_rng(853)
        raised = negative_zeros = 0
        for case in range(300):
            m, r = int(rng.integers(2, 41)), int(rng.choice([1, 2, 3, 5]))
            points = oracle_points(rng, m, r)
            if case % 2:
                points = np.asfortranarray(points)
            negative_zeros += bool(np.any((points == 0) & np.signbit(points)))
            distinct = np.unique(points, axis=0).shape[0]
            k = distinct + int(rng.integers(0, 3))
            got = outcome(lambda: kmeans_pp_init(points, k, case))
            if k > distinct:
                raised += 1
                assert got == ("DegenerateInputError", f"k={k} exceeds the {distinct} distinct point(s)")
            else:
                assert len(got) == k, f"case {case}"
        assert raised > 150 and negative_zeros > 20

    def test_k_bounds(self):
        points = np.arange(6.0).reshape(3, 2)
        with pytest.raises(InvalidParamsError):
            kmeans_pp_init(points, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_underflowing_distances_diagnosed(self, seed):
        # three distinct points, but 1e-200 squared underflows to 0: once two
        # centers are drawn no point has weight left for the third
        points = [[0.0], [1e-200], [1.0]]
        with pytest.raises(DegenerateInputError, match="underflow"):
            kmeans_pp_init(points, 3, seed)
        with pytest.raises(DegenerateInputError, match="underflow"):
            best_lloyd(points, 3, 2, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_count_comes_before_underflow(self, seed):
        # two distinct points, and 1e-200 squared underflows to 0 so the
        # first D^2 step already fails: k above the distinct points is named
        points = [[0.0], [0.0], [1e-200]]
        message = "^k=3 exceeds the 2 distinct point\\(s\\)$"
        with pytest.raises(DegenerateInputError, match=message):
            kmeans_pp_init(points, 3, seed)
        with pytest.raises(DegenerateInputError, match=message):
            best_lloyd(points, 3, 2, seed)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(6))
    def test_overflowing_distances_diagnosed(self, seed):
        points = [[0.0], [1e200], [-1e200]]
        with pytest.raises(DegenerateInputError, match="overflow"):
            kmeans_pp_init(points, 2, seed)


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


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_center_rejected(self, bad):
        # start centers pass the same finiteness check as the points
        points = [[0.0], [1.0], [2.0], [10.0]]
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            lloyd(points, [[bad], [5.0]])

    def test_given_centers_left_unchanged(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        init = np.array([[0.5], [5.0]])
        centers, part, _ = lloyd(points, init)
        assert init.tolist() == [[0.5], [5.0]]
        assert centers.tolist() == [[1.0], [10.0]] and part.labels.tolist() == [1, 1, 1, 2]


class TestLockstepMatchesSerialOracle:
    """best_lloyd, choose_k and lloyd against SerialOracle, bit for bit:
    centers, labels, inertia, chosen k and raised errors."""

    @staticmethod
    def case(rng, m_max=40):
        m = int(rng.integers(2, m_max + 1))
        r = int(rng.choice([1, 1, 2, 3, 5]))
        return oracle_points(rng, m, r), int(rng.integers(2**32))

    def test_best_lloyd(self):
        oracle = SerialOracle()
        rng = np.random.default_rng(811)
        spread_rounds = wide_r1 = raised = multi_draw = 0
        for case in range(2000):
            points, seed = self.case(rng)
            k = int(rng.integers(1, min(8, len(points)) + 1))
            multi_draw += k >= 3
            restarts = int(rng.choice([1, 2, 3, 5, 10]))
            before = len(oracle.rounds)
            want = outcome(lambda: oracle.best_lloyd(points, k, restarts, np.random.default_rng(seed)))
            got = outcome(lambda: best_lloyd(points, k, restarts, np.random.default_rng(seed)))
            assert got == want, f"case {case}"
            spread_rounds += len(set(oracle.rounds[before:])) > 1
            if len(want) == 2:
                raised += 1
            elif points.shape[1] == 1:
                labels = np.frombuffer(want[1][1], dtype=int)
                wide_r1 += np.bincount(labels).max() >= 8
        # the paths the cases reached: restarts converging in different
        # rounds, r = 1 clusters of 8 or more, too few distinct points, and
        # seedings of two or more D^2 draws
        assert spread_rounds > 500
        assert multi_draw > 200
        assert wide_r1 > 100
        assert raised > 20

    # seeds whose points leave a cluster empty in some k-means++ restart,
    # found by searching (about 1 seed in 3,000 does); the test checks that
    # each one still does
    RESEED_SEEDS = (10316, 12127, 13831, 17064, 17115, 20403, 29055)

    @pytest.mark.parametrize("seed", RESEED_SEEDS)
    def test_best_lloyd_reseeds_empty_cluster(self, seed):
        g = np.random.default_rng(seed)
        m, r, k = int(g.integers(12, 41)), int(g.integers(1, 4)), int(g.integers(3, 9))
        points = np.round(g.uniform(size=(m, r)), 2)
        oracle = SerialOracle()
        want = outcome(lambda: oracle.best_lloyd(points, k, 10, np.random.default_rng(seed)))
        got = outcome(lambda: best_lloyd(points, k, 10, np.random.default_rng(seed)))
        assert got == want
        assert oracle.reseeds > 0

    @staticmethod
    def degenerate_points(rng):
        """1-d points, sometimes with a zero second coordinate, on which D^2
        seeding fails for some first centers and not for others: points
        1e-200 apart near 0, whose squared distances underflow once one of
        them is a center (total 0), a group near D with D^2 of 0.35e308 to
        0.95e308, whose squared distances from near 0 overflow in sum when
        there are enough of them (total inf), and a few points in between."""
        d = np.sqrt(rng.uniform(0.35, 0.95)) * 1e154
        tiny = np.arange(int(rng.integers(1, 5))) * 1e-200
        far = d + np.arange(int(rng.integers(1, 5))) * 1e140
        mid = rng.uniform(1.0, 10.0, size=int(rng.integers(0, 3)))
        points = rng.permutation(np.concatenate([tiny, far, mid]))[:, None]
        if rng.random() < 0.5:
            points = np.hstack([points, np.zeros_like(points)])
        return points

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_seeding_failures_in_serial_order(self):
        # restarts that fail at different center indices, or by underflow in
        # one and overflow in another: the error raised is the serial one,
        # that of the first failing restart in seed order with its own j
        oracle = SerialOracle()
        rng = np.random.default_rng(839)
        kinds = {"underflow": 0, "overflow": 0}
        out_of_order = 0
        for case in range(800):
            points = self.degenerate_points(rng)
            seed = int(rng.integers(2**32))
            k = int(rng.integers(2, len(points) + 1))
            restarts = int(rng.choice([1, 2, 3, 5, 10]))
            want = outcome(lambda: oracle.best_lloyd(points, k, restarts, np.random.default_rng(seed)))
            got = outcome(lambda: best_lloyd(points, k, restarts, np.random.default_rng(seed)))
            assert got == want, f"case {case}"
            if restarts == 1:
                alone = outcome(lambda: kmeans_pp_init(points, k, np.random.default_rng(seed).integers(0, 2**63 - 1)))
                serial = outcome(lambda: oracle.kmeans_pp_init(points, k, np.random.default_rng(seed).integers(0, 2**63 - 1)))
                assert alone == serial, f"case {case}"
            if want[0] == "DegenerateInputError":
                kinds["overflow" if "sum to inf" in want[1] else "underflow"] += 1
            # the center index at which each restart fails alone, if it does
            failed = []
            for child in np.random.default_rng(seed).integers(0, 2**63 - 1, size=restarts):
                try:
                    oracle.kmeans_pp_init(points, k, int(child))
                except DegenerateInputError as exc:
                    failed.append(int(re.search(r"first (\d+) center", str(exc))[1]))
            out_of_order += len(failed) > 1 and min(failed[1:]) < failed[0]
        assert kinds["underflow"] > 100 and kinds["overflow"] > 300
        # cases where a later restart fails at an earlier center than the
        # first failing one
        assert out_of_order > 30

    def test_choose_k(self):
        oracle = SerialOracle()
        rng = np.random.default_rng(823)
        for case in range(250):
            points, seed = self.case(rng, m_max=30)
            m = len(points)
            if m < 3:
                continue
            k_max = int(rng.integers(2, min(8, m - 1) + 1))
            restarts = int(rng.choice([1, 3, 10]))
            want = outcome(lambda: oracle.choose_k(points, 2, k_max, restarts, np.random.default_rng(seed)))
            got = outcome(lambda: choose_k(points, 2, k_max, restarts, np.random.default_rng(seed)))
            assert got == want, f"case {case}"

    # a reseed that empties another cluster leaves a NaN center (a mean of
    # no points) in both versions
    @pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
    def test_lloyd_from_given_centers(self):
        # far-off, repeated and shared starting centers leave clusters empty;
        # more centers than distinct points raise, as in best_lloyd
        oracle = SerialOracle()
        rng = np.random.default_rng(827)
        raised = 0
        for case in range(400):
            points, _ = self.case(rng)
            m, r = points.shape
            k = int(rng.integers(1, 9))
            init = rng.normal(size=(k, r)) * rng.choice([1.0, 100.0])
            if case % 3 == 0:
                init[:] = init[0]
            elif case % 3 == 1:
                init = points[rng.integers(0, m, size=k)]
            distinct = np.unique(points, axis=0).shape[0]
            if k > distinct:
                raised += 1
                want = ("DegenerateInputError", f"k={k} exceeds the {distinct} distinct point(s)")
            else:
                want = outcome(lambda: oracle.lloyd(points, init))
            got = outcome(lambda: lloyd(points, init))
            assert got == want, f"case {case}"
        assert oracle.reseeds > 100
        assert raised > 20

    # the oracle's numpy sums a row in order below 8 coordinates, by an
    # 8-way pairwise tree from 8 to 128 and by splitting it in two above
    # that, while seeding reads cdist's squared distances; the draws must
    # not move at any of the three
    @pytest.mark.parametrize("r", [7, 8, 9, 16, 17, 130])
    def test_best_lloyd_wide_embeddings(self, r):
        oracle = SerialOracle()
        rng = np.random.default_rng(1000 + r)
        for case in range(50):
            points = oracle_points(rng, int(rng.integers(2, 41)), r)
            seed = int(rng.integers(2**32))
            k = int(rng.integers(1, min(8, len(points)) + 1))
            restarts = int(rng.choice([1, 3, 10]))
            want = outcome(lambda: oracle.best_lloyd(points, k, restarts, np.random.default_rng(seed)))
            got = outcome(lambda: best_lloyd(points, k, restarts, np.random.default_rng(seed)))
            assert got == want, f"case {case}"

    # the draws alone, and through best_lloyd, at every width numpy's
    # row sums take, with signed zeros and magnitudes near 1e+-150
    @given(
        m=st.integers(1, 30),
        r=st.integers(1, 140),
        k=st.integers(1, 6),
        restarts=st.integers(1, 4),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_draws_across_widths_and_scales(self, m, r, k, restarts, scale, seed):
        oracle = SerialOracle()
        points = signed_points(np.random.default_rng(seed), m, r, scale)
        for child in np.random.default_rng(seed).integers(0, 2**63 - 1, size=restarts):
            want = outcome(lambda: (oracle.kmeans_pp_init(points, k, int(child)),))
            got = outcome(lambda: (kmeans_pp_init(points, k, int(child)),))
            assert got == want
        want = outcome(lambda: oracle.best_lloyd(points, k, restarts, seed))
        got = outcome(lambda: best_lloyd(points, k, restarts, seed))
        assert got == want

    def test_round_cap(self, monkeypatch):
        oracle = SerialOracle()
        rng = np.random.default_rng(829)
        for case in range(300):
            monkeypatch.setattr(cluster_module, "LLOYD_MAX_ITER", 1 + case % 3)
            points, seed = self.case(rng)
            k = int(rng.integers(1, min(8, len(points)) + 1))
            want = outcome(lambda: oracle.best_lloyd(points, k, 5, np.random.default_rng(seed)))
            got = outcome(lambda: best_lloyd(points, k, 5, np.random.default_rng(seed)))
            assert got == want, f"case {case}"
        assert oracle.capped > 300


class TestKernelsMatchNumpy:
    """The Lloyd center sums against the numpy expression they replace, bit
    for bit, across numpy's three ways of summing a row (r = 1..140), signed
    zeros and magnitudes near 1e+-150."""

    @given(
        m=st.integers(1, 30),
        r=st.integers(1, 140),
        runs=st.integers(1, 4),
        k=st.integers(1, 5),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    def test_center_means(self, m, r, runs, k, scale, seed):
        rng = np.random.default_rng(seed)
        k = min(k, m)
        points = signed_points(rng, m, r, scale)
        # every cluster keeps a member, as Lloyd's reseeding ensures
        labels = np.stack([rng.permutation(np.resize(np.arange(k), m)) for _ in range(runs)])
        counts = np.stack([np.bincount(run, minlength=k) for run in labels])
        weights = np.repeat(points.T[:, :, None], runs, axis=2)
        got = cluster_module._center_means(points, weights, labels, counts)
        want = np.array([[points[run == c].mean(axis=0) for c in range(k)] for run in labels])
        assert got.tobytes() == want.tobytes()


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
        assert choose_k(points, 2, 5, 10, np.random.default_rng(1))[0] == 2

    def test_three_blobs(self):
        rng = np.random.default_rng(347)
        blob = lambda c: rng.normal(scale=0.15, size=(8, 2)) + c
        points = np.vstack([blob((0, 0)), blob((8, 0)), blob((0, 8))])
        assert choose_k(points, 2, 6, 10, np.random.default_rng(2))[0] == 3

    def test_deterministic(self):
        rng = np.random.default_rng(349)
        points = rng.normal(size=(25, 3))
        a = choose_k(points, 2, 5, 5, np.random.default_rng(7))[0]
        b = choose_k(points, 2, 5, 5, np.random.default_rng(7))[0]
        assert a == b

    def test_range_validation(self):
        points = np.arange(10.0).reshape(5, 2)
        with pytest.raises(InvalidParamsError):
            choose_k(points, 1, 3, 5, np.random.default_rng(0))
        with pytest.raises(InvalidParamsError):
            choose_k(points, 2, 5, 5, np.random.default_rng(0))


# k values that once ran as another k (2.7 as 2, True as 1) or escaped as a
# raw ValueError ("two"), with the start of the diagnosis each now gets
BAD_K = [
    (2.7, "k must be 'auto' or a positive integer, got 2.7"),
    (2.9, "k must be 'auto' or a positive integer, got 2.9"),
    (True, "k must be 'auto' or a positive integer, got True"),
    ("two", "k must be 'auto' or a positive integer, got 'two'"),
    (0, "k must be >= 1, got 0"),
]


class TestValidateK:
    @pytest.mark.parametrize("k, kept", [(2, 2), (np.int64(3), 3), ("auto", "auto")])
    def test_valid_k_is_kept(self, k, kept):
        assert validate_k(k) == kept and type(validate_k(k)) is type(kept)

    @pytest.mark.parametrize("k, message", BAD_K)
    def test_bad_k_is_diagnosed(self, k, message):
        with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
            validate_k(k)

    @pytest.mark.parametrize("k, message", BAD_K)
    def test_fit_cluster_model_refuses_bad_k(self, k, message):
        points = np.random.default_rng(5).normal(size=(12, 6))
        with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
            fit_cluster_model(points, RankRule.fixed(3), k=k, rng=1)


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

    def test_fixed_restart_protocol(self):
        # the model is the best of KMEANS_RESTARTS = 10 seeded Lloyd runs on
        # the rank-r embedding, bit for bit
        ds = gen_dataset(
            GROUP_A_SPEC, GROUP_B_SPEC, 15, 15, 10, 8, NoiseSpec.gaussian(0.3), seed=5
        )
        model = fit_cluster_model(
            ds.panel.pre, RankRule.fixed(3), k=3, rng=np.random.default_rng(8)
        )
        factors = svd(ds.panel.pre)
        embedding = factors.u[:, :3] * factors.sigma[:3]
        centers, part, inertia = best_lloyd(embedding, 3, 10, np.random.default_rng(8))
        assert KMEANS_RESTARTS == 10
        assert np.array_equal(model.centers, centers)
        assert np.array_equal(model.assignments.labels, part.labels)
        assert model.inertia == inertia

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


class TestNearestCluster:
    def hand_model(self, labels):
        return ClusterModel(
            k=2,
            rank_r=2,
            v_basis=np.eye(4)[:, :2],
            centers=np.array([[1.0, 0.0], [3.0, 0.0]]),
            assignments=Partition(np.array(labels), 2),
            inertia=0.0,
        )

    def test_label_and_members(self):
        label, members = nearest_cluster(
            self.hand_model([2, 1, 2, 1, 1]), np.array([2.9, 0.0, 5.0, 5.0])
        )
        assert label == 2
        assert members.tolist() == [0, 2]

    def test_singleton_cluster_raises(self):
        with pytest.raises(DegenerateClusterError) as err:
            nearest_cluster(self.hand_model([1, 1, 1, 2]), np.array([3.0, 0.0, 0.0, 0.0]))
        assert (err.value.label, err.value.size) == (2, 1)


class TestClusterMembers:
    def test_rows_of_label(self):
        labels = np.array([2, 1, 2, 3, 2])
        assert cluster_members(labels, 2).tolist() == [0, 2, 4]

    @pytest.mark.parametrize("label, size", [(3, 1), (4, 0)])
    def test_fewer_than_two_raises(self, label, size):
        with pytest.raises(DegenerateClusterError) as err:
            cluster_members(np.array([1, 1, 2, 2, 3]), label)
        assert (err.value.label, err.value.size) == (label, size)


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
        # an extra, empty cluster costs nothing
        assert partition_symmetric_difference(p, Partition(np.array([1, 2]), 3)) == 0

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

    def test_unequal_k_matches_padded_oracle(self):
        rng = np.random.default_rng(373)
        for kp, kq in [(2, 3), (3, 2), (2, 5), (4, 6), (6, 3)]:
            for _ in range(8):
                m = int(rng.integers(max(kp, kq), 3 * max(kp, kq) + 4))
                p = rng.integers(1, kp + 1, size=m)
                q = rng.integers(1, kq + 1, size=m)
                assert partition_symmetric_difference(
                    Partition(p, kp), Partition(q, kq)
                ) == symmetric_difference_oracle(p, q, max(kp, kq))

    def test_unmatched_cluster_fully_misassigned(self):
        # {1,2},{3,4} vs {1,2},{3},{4}: {3} pairs with {3,4} (1 point
        # differs) and {4} has no partner, so its 1 point counts too
        p = Partition(np.array([1, 1, 2, 2]), 2)
        q = Partition(np.array([1, 1, 2, 3]), 3)
        assert partition_symmetric_difference(p, q) == 2

    def test_cli_import_leaves_assignment_solver_unloaded(self, tmp_path):
        """A fresh process loads no scipy module until a command clusters,
        and then scipy.spatial only: the assignment solver (scipy.optimize)
        waits for the first partition matching."""
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", SCIPY_STAGES, str(tmp_path)], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        stages = json.loads((tmp_path / "stages.json").read_text())
        for stage in ("import clustersc", "import clustersc.cli", "simulate", "spectrum",
                      "gap-check"):
            assert stages[stage] == [], stage
        assert "scipy.spatial" in stages["cluster"]
        assert "scipy.optimize" not in stages["cluster"]

    @pytest.mark.parametrize("shape", ["square", "rectangular"])
    def test_max_assignment_matches_scipy(self, shape):
        # the Hungarian method against scipy's assignment solver, k = 1..12,
        # on sparse, dense and tied tables
        rng = np.random.default_rng(379 if shape == "square" else 383)
        for k in range(1, 13):
            for high in (2, 5, 1000):
                rows = k if shape == "square" else int(rng.integers(1, 13))
                table = rng.integers(0, high, size=(rows, k))
                best_rows, best_cols = linear_sum_assignment(-table)
                assert max_assignment(table.tolist()) == table[best_rows, best_cols].sum(), table

    def test_recovery_check_never_loads_the_assignment_solver(self, tmp_path):
        # partition matching is max_assignment's, so scipy.optimize (about
        # 0.4 s of import) stays unloaded, at any --k
        script = (
            "import sys\n"
            "from clustersc.cli import main\n"
            "for k in ('2', '3', 'auto'):\n"
            "    assert main(['recovery-check', '--na', '6', '--nb', '6', '--datasets', '1',\n"
            "                 '--k', k, '--seed', '1', '--out', sys.argv[1]]) == 0\n"
            "assert 'scipy.spatial' in sys.modules\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_partition_label_validation(self):
        with pytest.raises(InvalidParamsError):
            Partition(np.array([0, 1]), 2)
        with pytest.raises(InvalidParamsError):
            Partition(np.array([1, 3]), 2)
