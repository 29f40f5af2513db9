"""Donor clustering in singular vector space.

Donors are embedded as rows of U Sigma_r from the SVD of the pre-intervention
block, then grouped by k-means. The protocol is fixed: KMEANS_RESTARTS
D^2-weighted (k-means++) seedings, each refined by at most LLOYD_MAX_ITER
Lloyd rounds, keeping the lowest-inertia run. best_lloyd checks once that
there are at least k distinct points, seeds all restarts in lockstep (one D^2
update per center step over every restart, each drawing from its own
generator with the rule of Generator.choice), then advances them in lockstep
too, one cdist call per Lloyd round over the centers of every run still
moving; each run makes the same draws, breaks ties the same way, ends where it
would alone and raises what it would alone. With k="auto", k is chosen by
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
# child seeds are drawn upfront so results do not depend on execution order
# or on the process that uses them
SEED_CEILING = 2**63 - 1


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


def _check_k(points: np.ndarray, k: int) -> None:
    """k must be at least 1 and at most the number of distinct points.

    Picks distinct rows greedily, one comparison with every row per pick,
    until k are found; when the rows run out first, the picks made are the
    exact count of distinct rows.
    """
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    # each row as one opaque value; adding 0.0 turns -0.0 into 0.0, so rows
    # of finite points are equal as bytes exactly when equal as numbers
    row = np.dtype((np.void, points.itemsize * points.shape[1]))
    rows = np.add(points, 0.0, order="C").view(row)
    left = np.ones(points.shape[0], dtype=bool)  # rows equal to no pick yet
    distinct = pick = 0
    while distinct < k and left[pick]:
        left &= rows[:, 0] != rows[pick, 0]
        distinct += 1
        pick = int(left.argmax())
    if k > distinct:
        raise DegenerateInputError(
            f"k={k} exceeds the {distinct} distinct point(s)"
        )


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (runs, m) from the points to one center per run,
    centers (runs, 1, r), squared in place to keep one (runs, m, r) buffer."""
    diff = points - centers
    return np.square(diff, out=diff).sum(axis=2)


@np.errstate(over="ignore")  # the guard below diagnoses an overflowing total
def _draw_centers(points: np.ndarray, k: int, rngs: list) -> np.ndarray:
    """The D^2 draws of kmeans_pp_init on points that passed _check_k, one
    restart per generator in rngs, all restarts in lockstep: (runs, k, r).

    Each restart draws integers(m) for its first center and then one
    random() per further center, u, taking the index that
    Generator.choice(m, p=d2 / total) takes with that draw: the count of
    cdf <= u, where cdf is the cumulative sum of p divided by its last
    entry. The guard 0 < total < inf implies the checks choice makes on p
    (no entry below 0, a sum within sqrt(eps) of 1), since d2 >= 0. A
    restart that fails the guard would have raised before the restarts
    after it were seeded, so those are dropped and the error raised at the
    end is that of the first failing restart.
    """
    m = points.shape[0]
    first = [int(rng.integers(m)) for rng in rngs]
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[first]
    d2 = _squared_distances(points, centers[:, :1])
    failure = None
    for j in range(1, k):
        total = d2.sum(axis=1)
        bad = np.flatnonzero(~((0.0 < total) & (total < np.inf)))
        if bad.size:
            runs = int(bad[0])
            failure = (j, total[runs])
            rngs, centers, d2, total = rngs[:runs], centers[:runs], d2[:runs], total[:runs]
            if not runs:
                break
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rng.random() for rng in rngs])
        idx = np.count_nonzero(cdf <= u[:, None], axis=1)
        centers[:, j] = points[idx]
        d2 = np.minimum(d2, _squared_distances(points, centers[:, j : j + 1]))
    if failure is not None:
        j, total = failure
        raise DegenerateInputError(
            f"the squared distances to the first {j} center(s) sum to "
            f"{total}: the points are distinct, but too close together "
            f"(underflow) or too far apart (overflow) for D^2 seeding"
        )
    return centers


def kmeans_pp_init(points, k: int, rng) -> np.ndarray:
    """D^2-weighted seeding: each next center is a data point drawn with
    probability proportional to its squared distance from the chosen ones.

    The draw is that of Generator.choice(m, p=d2 / d2.sum()), one random()
    per center after the first. It never lands on a chosen point: a point
    of weight 0 adds exactly 0 to the cumulative sum, so the cdf does not
    rise there, and the index drawn is always one where it rises.

    DegenerateInputError when k exceeds the distinct points, or when the
    squared distances of distinct points underflow to 0 or overflow.
    """
    points = as_matrix(points)
    _check_k(points, k)
    return _draw_centers(points, k, [np.random.default_rng(rng)])[0]


def _center_means(points, columns, labels, counts) -> np.ndarray:
    """Member means of every run's clusters, (runs, k, r), bit-equal to
    points[labels[run] == c].mean(axis=0).

    columns holds each coordinate of the points repeated once per run. A
    bincount adds each cluster's members in point order, as numpy's
    reduction over rows does. A single column is summed pairwise by numpy,
    so at r = 1 only .mean itself gives the same bits.
    """
    runs, k = counts.shape
    if points.shape[1] == 1:
        return np.array([[points[run == c].mean(axis=0) for c in range(k)] for run in labels])
    bins = (labels + k * np.arange(runs)[:, None]).ravel()
    sums = [np.bincount(bins, weights=col[: bins.size], minlength=runs * k) for col in columns]
    return np.stack(sums, axis=-1).reshape(runs, k, -1) / counts[:, :, None]


def _nearest_centers(dist2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's nearest center per run, as argmin over k would pick it.

    dist2 is (k, runs, m): a running strict < over the k distance blocks,
    so the lowest label wins ties. A NaN distance wins as in argmin, and
    only a NaN center gives one (the points are finite), so a run with a
    NaN center sends every point to its first NaN center.
    """
    best = dist2[0].copy()
    labels = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, dist2.shape[0]):
        np.putmask(labels, dist2[c] < best, c)
        np.minimum(best, dist2[c], out=best)
    nan = np.isnan(centers).any(axis=2)
    for j in np.flatnonzero(nan.any(axis=1)):
        labels[j] = np.argmax(nan[j])
    return labels


def _lloyd_runs(points: np.ndarray, centers: np.ndarray):
    """Lloyd iterations for several runs in lockstep; see lloyd for the rules.

    centers is (runs, k, r) and is refined in place. Each round makes one
    cdist call over the centers of every run still moving; a run is frozen
    once its labels repeat. Every run ends exactly as lloyd alone would
    leave it. Returns 0-based labels (runs, m) and the runs' inertias.
    """
    m, r = points.shape
    runs, k = centers.shape[:2]
    labels = np.full((runs, m), -1)
    active = np.arange(runs)
    columns = np.tile(points.T, runs)
    for _ in range(LLOYD_MAX_ITER):
        a = active.size
        moving_centers = centers[active]
        # center-major, so each label's distances are one contiguous block;
        # cdist's squared distances are symmetric to the bit
        blocks = moving_centers.transpose(1, 0, 2).reshape(k * a, r)
        dist2 = cdist(blocks, points, "sqeuclidean").reshape(k, a, m)
        new = _nearest_centers(dist2, moving_centers)
        bins = (new + k * np.arange(a)[:, None]).ravel()
        counts = np.bincount(bins, minlength=a * k).reshape(a, k)
        for j in np.flatnonzero((counts == 0).any(axis=1)):
            own = dist2[new[j], j, np.arange(m)]
            for c in np.flatnonzero(counts[j] == 0):
                far = int(np.argmax(own))
                centers[active[j], c] = points[far]
                counts[j, new[j, far]] -= 1
                counts[j, c] += 1
                new[j, far] = c
                own[far] = -1.0  # not reusable for another empty cluster
        moving = (new != labels[active]).any(axis=1)
        active, new = active[moving], new[moving]
        if not active.size:
            break
        labels[active] = new
        centers[active] = _center_means(points, columns, new, counts[moving])
    # one reduction over each run's m * r residuals, as .sum() of each alone
    residuals = centers[np.arange(runs)[:, None], labels]
    np.subtract(points, residuals, out=residuals)
    inertias = np.square(residuals, out=residuals).reshape(runs, -1).sum(axis=1).tolist()
    return labels, inertias


def lloyd(points, init_centers):
    """Lloyd iterations from given centers.

    Ties assign to the lowest label. A cluster that comes up empty is
    reseeded at the point currently farthest from its own center (lowest
    point index on ties), processed in label order. Stops when assignments
    repeat or after LLOYD_MAX_ITER rounds. DegenerateInputError when there
    are more centers than distinct points.

    Returns (centers, Partition, inertia).
    """
    points = as_matrix(points)
    centers = np.array(init_centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != points.shape[1]:
        raise ShapeError(
            f"init centers shape {centers.shape} does not match points "
            f"{points.shape}"
        )
    _check_k(points, centers.shape[0])
    labels, inertias = _lloyd_runs(points, centers[None])
    return centers, Partition(labels[0] + 1, centers.shape[0]), inertias[0]


def best_lloyd(points, k: int, restarts: int, rng):
    """Best of several seeded runs: lowest inertia, earliest restart on ties.

    Every restart is seeded first, all in lockstep (kmeans_pp_init's draws,
    each restart from its own child generator, drawn from rng in order),
    then all of them run one Lloyd loop in lockstep. The distinct points
    are checked once, before any draw. The draws, ties, results and errors
    are those of seeding and running each restart alone, in order.
    """
    if restarts < 1:
        raise InvalidParamsError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(rng)
    seeds = rng.integers(0, SEED_CEILING, size=restarts)
    points = as_matrix(points)
    _check_k(points, k)
    centers = _draw_centers(points, k, [np.random.default_rng(int(seed)) for seed in seeds])
    labels, inertias = _lloyd_runs(points, centers)
    best = min(range(restarts), key=inertias.__getitem__)  # first of equals
    return centers[best], Partition(labels[best] + 1, k), inertias[best]


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
