"""Donor clustering in singular vector space.

Donors are embedded as rows of U Sigma_r from the SVD of the pre-intervention
block, then grouped by k-means. The protocol is fixed: KMEANS_RESTARTS
D^2-weighted (k-means++) seedings, each refined by at most LLOYD_MAX_ITER
Lloyd rounds, keeping the lowest-inertia run. With k="auto", k is chosen by
mean silhouette over AUTO_K_RANGE. A target enters the picture only later:
its series is projected onto the same right singular basis and sent to the
nearest center, whose cluster becomes its donor pool (nearest_cluster).

Labels are 1-based everywhere: a Partition over k clusters uses labels 1..k,
and centers row i belongs to label i + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateClusterError, DegenerateInputError, InvalidParamsError, ShapeError
from .linalg import RankRule, as_matrix, select_rank, svd

KMEANS_RESTARTS = 10
LLOYD_MAX_ITER = 300
# k="auto" picks from this range by silhouette, capped at n - 1 donors
AUTO_K_RANGE = (2, 8)


@dataclass
class Partition:
    """Cluster labels (1..k) for each point index."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ShapeError("labels must be a nonempty 1-d array")
        if self.k < 1:
            raise InvalidParamsError(f"k must be >= 1, got {self.k}")
        if self.labels.min() < 1 or self.labels.max() > self.k:
            raise InvalidParamsError(
                f"labels must lie in 1..{self.k}, got range "
                f"{self.labels.min()}..{self.labels.max()}"
            )


def kmeans_pp_init(points, k: int, rng) -> np.ndarray:
    """D^2-weighted seeding: each next center is a data point drawn with
    probability proportional to its squared distance from the chosen ones."""
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
        total = d2.sum()  # > 0 because there are at least k distinct points
        idx = int(rng.choice(m, p=d2 / total))
        if d2[idx] == 0.0:
            idx = int(np.argmax(d2))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd(points, init_centers):
    """Lloyd iterations from given centers.

    Ties assign to the lowest label. A cluster that comes up empty is
    reseeded at the point currently farthest from its own center (lowest
    point index on ties), processed in label order. Stops when assignments
    repeat or after LLOYD_MAX_ITER rounds.

    Returns (centers, Partition, inertia).
    """
    points = as_matrix(points)
    centers = np.array(init_centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != points.shape[1]:
        raise ShapeError(
            f"init centers shape {centers.shape} does not match points "
            f"{points.shape}"
        )
    m, k = points.shape[0], centers.shape[0]
    labels = None
    for _ in range(LLOYD_MAX_ITER):
        dist2 = cdist(points, centers, "sqeuclidean")
        new_labels = np.argmin(dist2, axis=1)
        missing = [c for c in range(k) if not np.any(new_labels == c)]
        if missing:
            own = dist2[np.arange(m), new_labels].copy()
            for c in missing:
                far = int(np.argmax(own))
                centers[c] = points[far]
                new_labels[far] = c
                own[far] = -1.0  # not reusable for another empty cluster
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    inertia = float(((points - centers[labels]) ** 2).sum())
    return centers, Partition(labels + 1, k), inertia


def best_lloyd(points, k: int, restarts: int, rng):
    """Best of several seeded runs: lowest inertia, earliest restart on ties."""
    if restarts < 1:
        raise InvalidParamsError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(rng)
    seeds = rng.integers(0, 2**63 - 1, size=restarts)
    best = None
    for seed in seeds:
        init = kmeans_pp_init(points, k, np.random.default_rng(int(seed)))
        run = lloyd(points, init)
        if best is None or run[2] < best[2]:
            best = run
    return best


def silhouette(points, partition: Partition, dists: np.ndarray | None = None) -> float:
    """Mean silhouette score; singletons and 0/0 points contribute zero."""
    points = as_matrix(points)
    k = partition.k
    if k < 2:
        raise InvalidParamsError(f"silhouette needs k >= 2, got k={k}")
    labels0 = partition.labels - 1
    if labels0.shape[0] != points.shape[0]:
        raise ShapeError(
            f"{labels0.shape[0]} labels for {points.shape[0]} points"
        )
    sizes = np.bincount(labels0, minlength=k)
    if np.any(sizes == 0):
        raise DegenerateInputError("every cluster must be nonempty")
    if dists is None:
        dists = cdist(points, points)
    m = points.shape[0]
    # sums[i, c] = total distance from point i to cluster c
    sums = np.stack([dists[:, labels0 == c].sum(axis=1) for c in range(k)], axis=1)
    own_size = sizes[labels0]
    scores = np.zeros(m)
    multi = own_size > 1
    a = np.zeros(m)
    a[multi] = sums[np.arange(m), labels0][multi] / (own_size[multi] - 1)
    mean_to = sums / sizes[None, :]
    mean_to[np.arange(m), labels0] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


def choose_k(points, k_min: int, k_max: int, restarts: int, rng):
    """k in [k_min, k_max] with the highest mean silhouette (ties: smaller k).

    Returns (k, centers, Partition, inertia) of the best Lloyd run at that k.
    """
    points = as_matrix(points)
    m = points.shape[0]
    if not 2 <= k_min <= k_max:
        raise InvalidParamsError(f"need 2 <= k_min <= k_max, got {k_min}..{k_max}")
    if k_max > m - 1:
        raise InvalidParamsError(
            f"k_max={k_max} needs at least {k_max + 1} points, got {m}"
        )
    rng = np.random.default_rng(rng)
    dists = cdist(points, points)
    best = None
    for k in range(k_min, k_max + 1):
        centers, part, inertia = best_lloyd(points, k, restarts, rng)
        score = silhouette(points, part, dists)
        if best is None or score > best[0]:  # ties keep the smaller k
            best = (score, k, centers, part, inertia)
    return best[1:]


@dataclass
class ClusterModel:
    """Fitted donor clustering: embedding basis plus k-means output.

    v_basis is (T0, rank_r) with orthonormal columns; a series x of length T0
    embeds as x @ v_basis. assignments hold the donors' 1-based labels and
    centers row i is the mean embedding of cluster i + 1.
    """

    k: int
    rank_r: int
    v_basis: np.ndarray
    centers: np.ndarray
    assignments: Partition
    inertia: float


def fit_cluster_model(donor_pre, rule: RankRule, k="auto", rng=None) -> ClusterModel:
    """Embed the pre-intervention donor block and k-means it.

    k may be an integer or "auto", which picks k from AUTO_K_RANGE (capped
    at n - 1) by silhouette. Each candidate k keeps the best of
    KMEANS_RESTARTS seeded Lloyd runs.
    """
    donor_pre = as_matrix(donor_pre)
    n = donor_pre.shape[0]
    if n < 2:
        raise DegenerateInputError(f"clustering needs at least 2 donors, got {n}")
    factors = svd(donor_pre)
    r = select_rank(factors.sigma, rule)
    embedding = factors.u[:, :r] * factors.sigma[:r]
    v_basis = factors.v[:, :r]
    rng = np.random.default_rng(rng)
    if k == "auto":
        k_min, k_max = AUTO_K_RANGE
        k_max = min(k_max, n - 1)
        if k_max < k_min:
            raise DegenerateInputError(
                f"auto k over {AUTO_K_RANGE} needs more than {n} donors"
            )
        k, centers, part, inertia = choose_k(embedding, k_min, k_max, KMEANS_RESTARTS, rng)
    else:
        k = int(k)
        if k < 1:
            raise InvalidParamsError(f"k must be >= 1, got {k}")
        if k > n:
            raise DegenerateInputError(f"k={k} exceeds the {n} donors")
        centers, part, inertia = best_lloyd(embedding, k, KMEANS_RESTARTS, rng)
    return ClusterModel(
        k=k,
        rank_r=r,
        v_basis=v_basis,
        centers=centers,
        assignments=part,
        inertia=inertia,
    )


def assign_target(model: ClusterModel, target_pre) -> int:
    """Embed the target on the model's basis; nearest center, ties low."""
    target_pre = np.asarray(target_pre, dtype=float)
    if target_pre.ndim != 1 or target_pre.shape[0] != model.v_basis.shape[0]:
        raise ShapeError(
            f"target length {target_pre.shape} does not match basis "
            f"{model.v_basis.shape[0]}"
        )
    u = target_pre @ model.v_basis
    d2 = ((model.centers - u) ** 2).sum(axis=1)
    return int(np.argmin(d2)) + 1


def cluster_members(labels, label: int) -> np.ndarray:
    """Row indices carrying label; DegenerateClusterError if fewer than 2."""
    members = np.flatnonzero(labels == label)
    if members.size < 2:
        raise DegenerateClusterError(label, int(members.size))
    return members


def nearest_cluster(model: ClusterModel, target_pre) -> tuple[int, np.ndarray]:
    """The target's label (assign_target) and its cluster's donor rows
    (cluster_members, so DegenerateClusterError below 2 donors)."""
    label = assign_target(model, target_pre)
    return label, cluster_members(model.assignments.labels, label)


def partition_symmetric_difference(p: Partition, q: Partition) -> int:
    """Min over label matchings of the summed symmetric differences.

    The two partitions may have different k. Clusters are matched one to
    one; a cluster left without a partner (the larger k has some) counts
    as fully misassigned, as if matched to an empty cluster. The distance
    equals 2n - 2 * (best total overlap); the best overlap is found by
    assignment matching on the p.k x q.k contingency table.
    """
    # imported here: only recovery checks need it, and it slows every import
    from scipy.optimize import linear_sum_assignment

    if p.labels.shape[0] != q.labels.shape[0]:
        raise ShapeError(
            f"partitions cover {p.labels.shape[0]} and {q.labels.shape[0]} points"
        )
    table = np.zeros((p.k, q.k), dtype=int)
    np.add.at(table, (p.labels - 1, q.labels - 1), 1)
    rows, cols = linear_sum_assignment(-table)
    return int(2 * p.labels.shape[0] - 2 * table[rows, cols].sum())
