"""Placebo harnesses, benchmark baselines, and Monte-Carlo spectrum checks.

Two placebo protocols run one experiment and produce the same report shape.
The leave-one-out harness works on synthetic panels: each sampled group-A
unit becomes the target, the rest form the donor pool, and errors are
measured against the target's noiseless signal. The split harness works on
observed panels: units are repeatedly split into donors and targets, and
errors are measured against the observations themselves (there is no signal
to compare with). The report records which reference was used.

Both harnesses hand their targets to one placebo core, in one call: the
leave-one-out harness each CPU's share of them, the split harness all of an
iteration's targets. Every donor pool is a set of panel rows: the core
gathers each pool it fits from the panel, and scores its fits' selections
against a mask of the planted group's rows when the harness has one. Given
the targets' panel rows, the matrix their reference series are read from,
their donor rows and a cluster source, the core fits the one PlaceboDesign:
SC on the full pool (sc_full), on the target's cluster (cluster_sc) and
optionally on a random donor subset of the cluster's size
(sc_random_subset). It records the skipped cells with their reason and
builds the placebo rows. Each fit is the engine's steps: sc_denoise the
pool, sc_fit_weights the target on it, sc_infer the counterfactual. The
core alone decides how targets are stacked: a pool that several targets
share is fitted once, with the stack of all of them; a variant's other pools
that share a shape are stacked along a leading axis, TARGET_CHUNK at a time,
which keeps memory flat. So each step, the MSEs and the selection scores run
once per stack, not once per target; every number is the one the target
gets alone, bit for bit. If the stacked fit raises, every target is fitted
again alone, in order, so the error raised is the first in target order.
The harnesses keep the rest: which units are targets, which reference the
errors are measured against, where the target's cluster comes from (a fresh
clustering of each donor pool, the dataset's pool model with the target
removed, or the split iteration's donor model), and, for the split harness,
the per-iteration aggregates.

What the targets of a call share follows from where the pools come from.
In a leave-one-out run every target removes itself from the pool, so the
harness gives each target its own donor rows and every pool is denoised for
its target. In a split iteration every target sees the same donors and the
same donor model, so the harness gives one set of donor rows, and the full
pool and each cluster are denoised and fitted once, for all the targets that
use them; only the random subsets are drawn and denoised per target. The
denoised shared pools are kept through the call, so a retry one target at a
time does not denoise them again. The leave-one-out harness maps each
share's targets to their donors' panel rows once; the per_target clustering
input and the per_dataset clusters come from that map, and every cluster
source returns its cluster as panel rows.

Leave-one-out targets share nothing once their seeds are drawn (and, in
per_dataset mode, the pool model is fitted), so the harness deals them
round-robin over the CPUs in the process's affinity mask: one forked child
per extra CPU fits its share and sends the rows back through a pipe, and
the parent puts every target's rows back in target order. After any failure
every target runs again here, in one call, so the report is the same for
any CPU count and the error raised is the one a serial run raises first.
One function, _deal_over_cpus, owns that protocol from the share count to
the last reaped child. With one CPU or one target, without os.fork or
os.sched_getaffinity, or while another Python thread runs, the same call
runs in this process alone (`taskset -c 0` pins a run to it). The split
harness stays in one process: its targets share the pools it fits once.

Alongside the placebo machinery live the two Monte-Carlo experiments that
back the method's premises: the singular value gap between the full pool and
a subgroup, and the recovery rate of the planted two-group structure.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .cluster import (
    SEED_CEILING,
    Partition,
    cluster_members,
    fit_cluster_model,
    nearest_cluster,
    partition_symmetric_difference,
    validate_k,
)
from .datagen import (
    GROUP_A_SPEC, NoiseSpec, SignalSpec, SyntheticDataset, add_noise, gen_dataset, gen_group,
)
from .engine import sc_denoise, sc_fit_weights, sc_infer
from .errors import (
    DegenerateClusterError,
    InvalidInputError,
    InvalidParamsError,
    ShapeError,
    UndefinedPrecisionError,
)
from .linalg import RankRule, as_matrix
from .panel import TimePanel
from .regression import ACTIVE_SET_TOL, RegressionSpec

__all__ = [
    "CLUSTER_MODES",
    "PlaceboDesign",
    "PlaceboRow",
    "PlaceboReport",
    "GapExperimentResult",
    "RecoveryCell",
    "RecoveryResult",
    "mse",
    "pairwise_improvement",
    "std_error",
    "random_subset_variant",
    "donor_selection_scores",
    "leave_one_out_placebo",
    "split_placebo",
    "singular_gap_experiment",
    "cluster_recovery_experiment",
]
CLUSTER_MODES = ("per_target", "per_dataset")  # see leave_one_out_placebo
# the core's cap on distinct pools fitted as one stack (see the module
# docstring): enough to share each NumPy and LAPACK call's fixed cost, few
# enough to keep stacks small
TARGET_CHUNK = 8

def mse(predicted, reference) -> float:
    """Mean squared difference between two equal-length vectors."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.ndim != 1:
        raise ShapeError(
            f"mse needs two equally long vectors, got {predicted.shape} "
            f"and {reference.shape}"
        )
    if predicted.size == 0:
        raise ShapeError("mse needs at least one entry")
    return float(_mean_squares(predicted - reference))


def _mean_squares(diff) -> np.ndarray:
    """The mean square of each row of diff (a vector or a stack of them).

    A row times its column is one dot product per row, the call a vector
    alone makes, so a stack changes no bit.
    """
    row = diff[..., None, :]
    with np.errstate(over="ignore"):  # the report refuses an infinite mean square
        return (row @ row.swapaxes(-1, -2))[..., 0, 0] / diff.shape[-1]


def pairwise_improvement(post_mse_full: float, post_mse_cluster: float) -> float:
    """I = full-pool error minus cluster error; positive favors the cluster."""
    if post_mse_full < 0 or post_mse_cluster < 0:
        raise InvalidInputError("MSE values cannot be negative")
    return post_mse_full - post_mse_cluster


def std_error(values) -> float:
    """Standard error of the mean; 0 for a single value."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    with np.errstate(over="ignore"):  # the report refuses an infinite spread
        return float(values.std(ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class PlaceboDesign:
    """The estimators a placebo harness fits on every target, in the row
    order of variants. All of them fit their weights with reg.

    sc_full fits on the whole donor pool, denoised under rule. cluster_sc
    fits on the target's cluster among k clusters ("auto" lets the
    silhouette choose), denoised under cluster_rule (rule when None).
    sc_random_subset, run only with with_random_subset, fits on a uniform
    donor sample as large as that target's cluster, denoised under rule.
    """

    reg: RegressionSpec
    rule: RankRule
    k: int | str = "auto"
    cluster_rule: RankRule | None = None
    with_random_subset: bool = False

    def __post_init__(self):
        if self.cluster_rule is None:
            object.__setattr__(self, "cluster_rule", self.rule)
        for name, kind in (
            ("reg", RegressionSpec), ("rule", RankRule), ("cluster_rule", RankRule),
            ("with_random_subset", bool),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InvalidParamsError(f"{name} must be a {kind.__name__}, got {value!r}")
        object.__setattr__(self, "k", validate_k(self.k))

    @property
    def variants(self) -> tuple[str, ...]:
        return ("sc_full", "cluster_sc") + ("sc_random_subset",) * self.with_random_subset


@dataclass
class PlaceboRow:
    """One (iteration, target, variant) cell of a placebo run.

    iteration is 0 for the leave-one-out harness and 1-based for the split
    harness. The precision/recall fields are filled only when group labels
    exist (synthetic data) and the fitted weights have a nonempty active set.
    """

    iteration: int
    target_id: str
    variant: str
    pre_mse: float
    post_mse: float
    selected_donor_count: int
    cluster_label: int | None = None
    active_donor_precision: float | None = None
    active_donor_recall: float | None = None


@dataclass
class PlaceboReport:
    """Placebo rows plus the aggregates the figures are drawn from.

    rows hold each target's fits in the design's variant order. medians: per
    variant name, the median pre/post MSE over complete cells (an (iteration,
    target) cell is complete unless its cluster_sc run, and with it the
    random subset, was skipped, so all variants aggregate over the same
    targets). improvements holds the per-cell I values (full minus cluster)
    and their median. skipped lists the cells a variant could not run on,
    with the reason. reference is "true_signal" or "observed". per_iteration
    holds the split harness's per-iteration medians and is empty for
    leave-one-out runs. config holds only what the harness decides: its
    name, n_targets or n_train, and for leave-one-out the dataset's seed;
    the caller records its own inputs.
    """

    rows: list[PlaceboRow]
    medians: dict
    improvements: dict
    skipped: list[dict]
    reference: str
    config: dict
    per_iteration: list[dict] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = (row.iteration, row.target_id, row.variant)
            if key in seen:
                raise InvalidInputError(f"duplicate placebo cell {key}")
            seen.add(key)


def random_subset_variant(pool, subset_size: int, rng) -> list[int]:
    """Uniform donor sample without replacement; returns sorted row indices.

    Only the pool's shape is read, so any matrix of its rows will do.
    subset_size is an integer (a Python or NumPy one, not a bool).
    """
    shape = np.shape(pool)
    if len(shape) != 2:
        raise ShapeError(f"pool must be a matrix, got shape {shape}")
    n = shape[0]
    if isinstance(subset_size, bool) or not isinstance(subset_size, (int, np.integer)):
        raise InvalidInputError(f"subset_size must be an integer, got {subset_size!r}")
    if not 1 <= subset_size <= n:
        raise InvalidInputError(
            f"subset_size must be in 1..{n}, got {subset_size}"
        )
    rng = np.random.default_rng(rng)
    return np.sort(rng.choice(n, size=subset_size, replace=False)).tolist()


def donor_selection_scores(selected, truth_labels, target_group) -> tuple[float, float]:
    """Precision and recall of a donor selection against group labels.

    selected holds integer positions into truth_labels; duplicates are
    collapsed. Precision is the share of selected units carrying
    target_group; recall is the share of the group that was selected.
    """
    labels = np.asarray(truth_labels)
    chosen = np.unique(np.fromiter(selected, dtype=int))
    if not chosen.size:
        raise UndefinedPrecisionError("empty selection has no precision")
    if chosen[0] < 0 or chosen[-1] >= labels.shape[0]:
        raise InvalidInputError("selected indices out of range")
    in_group = labels == target_group
    group_size = int(np.count_nonzero(in_group))
    if not group_size:
        raise InvalidInputError(f"no units labeled {target_group!r}")
    hits = int(np.count_nonzero(in_group[chosen]))
    return hits / chosen.size, hits / group_size


def _aggregates(rows, skipped) -> dict:
    """The report's medians and improvements over complete cells, in one pass."""
    bad = {(entry["iteration"], entry["target_id"]) for entry in skipped}
    by_variant: dict[str, list[PlaceboRow]] = {}
    cells: dict[tuple, dict] = {}
    for row in rows:
        cell = (row.iteration, row.target_id)
        if cell in bad:
            continue
        by_variant.setdefault(row.variant, []).append(row)
        cells.setdefault(cell, {})[row.variant] = row.post_mse
    values = [pairwise_improvement(post["sc_full"], post["cluster_sc"]) for post in cells.values()]
    return {
        "medians": {
            name: {
                "pre_mse": float(np.median([r.pre_mse for r in kept])),
                "post_mse": float(np.median([r.post_mse for r in kept])),
            }
            for name, kept in by_variant.items()
        },
        "improvements": {
            "values": values,
            "median": float(np.median(values)) if values else None,
        },
    }


def _fit_pool_model(design, donor_pre, rng):
    """The design's cluster model of the whole donor pool, seeded from rng."""
    model_rng = np.random.default_rng(rng.integers(0, SEED_CEILING))
    return fit_cluster_model(donor_pre, design.cluster_rule, k=design.k, rng=model_rng)


def _placebo_target(
    iteration: int,
    panel: TimePanel,
    target_rows: np.ndarray,
    truth: np.ndarray,
    donor_rows,
    design: PlaceboDesign,
    seeds,
    cluster_source,
    in_group=None,
) -> list[tuple[list[PlaceboRow], list[dict]]]:
    """Fit and score the design's variants on every target of a call; returns
    (rows, skipped) per target, in target order.

    Every pool is a set of panel rows, ascending, and is fitted on those
    rows of panel.values. target_rows holds the B targets' panel rows: a
    target's id and series are its unit id and its row of panel.values, and
    its reference, the series the errors are measured against, is its row of
    truth, a matrix shaped like panel.values; both are split at
    panel.split.t0. donor_rows is one set of rows that every target shares,
    or (B, n), each target's own. seeds holds one integer seed per target
    and variant: cluster_source gets seeds[:, 1] and the random subset is
    drawn from seeds[:, 2]. seeds[:, 0] goes unused, as sc_full draws
    nothing; it keeps every later seed in its place.
    cluster_source(j, seed) returns the label and member rows of the cluster
    of target j, its position in target_rows, taken from its donor rows, or
    raises DegenerateClusterError (see cluster_members) when the cluster has
    fewer than 2 donors. That skips cluster_sc and, with it,
    sc_random_subset, whose size the cluster sets.
    in_group, when given, marks the planted group's panel rows; each fit
    records its active donors' precision and recall against it.

    With shared donor rows, the full pool and each cluster are fitted once,
    with the stack of all the targets that use them: the pool's one
    denoise, one fit, one infer and one scoring. Every other pool of a
    variant (each target's own pools, and the random subsets) is stacked
    with the variant's pools of its shape, at most TARGET_CHUNK at a time,
    with the same four steps. Every number is the one the target gets
    alone, bit for bit. If the stacked fit raises, every target is fitted
    again alone, in order, so the error raised is the first in target order;
    the shared pools denoised before it are not denoised again.
    """
    split = panel.split
    target_ids = [panel.unit_ids[t] for t in target_rows.tolist()]
    target_full, reference = panel.values[target_rows], truth[target_rows]
    shared_donors = np.ndim(donor_rows) == 1
    # one row of donors per target: views of the one set when it is shared
    donor_rows = np.broadcast_to(donor_rows, (len(target_ids), np.shape(donor_rows)[-1]))
    # the denoised shared pools, under (variant name, cluster label)
    pools: dict = {}

    def add_rows(rows, variant, rule, fits):
        # fits: (position in target_rows, cluster label, pool rows)
        shared = shared_donors and variant != "sc_random_subset"
        groups: dict = {}
        for fit in fits:
            groups.setdefault(fit[1] if shared else len(fit[2]), []).append(fit)
        # a shared pool is one stack of all its targets; distinct pools stack
        # TARGET_CHUNK at a time, which keeps memory flat
        stacks = []
        for group in groups.values():
            step = len(group) if shared else TARGET_CHUNK
            stacks += [group[start : start + step] for start in range(0, len(group), step)]
        for group in stacks:
            at = [j for j, _, _ in group]
            if shared:
                pool_rows = group[0][2]
                key = (variant, group[0][1])
                if key not in pools:
                    pools[key] = sc_denoise(panel.values[pool_rows], rule)
                pool = pools[key]
            else:
                pool_rows = np.stack([r for _, _, r in group])
                # held through the fit: freed right after the denoise, page faults rose by half
                donors = panel.values[pool_rows]
                pool = sc_denoise(donors, rule)
            series, ref = target_full[at], reference[at]
            fit = sc_fit_weights(pool, split, series[:, : split.t0], design.reg)
            estimate = sc_infer(fit, split, series)
            pre_mse = _mean_squares(estimate.pre_fit - ref[:, : split.t0]).tolist()
            post_mse = _mean_squares(estimate.counterfactual_post - ref[:, split.t0 :]).tolist()
            scores = [(None, None)] * len(group)
            if in_group is not None:
                active = np.abs(fit.weights.values) > ACTIVE_SET_TOL
                hits = np.count_nonzero(active & in_group[pool_rows], axis=1).tolist()
                chosen = np.count_nonzero(active, axis=1).tolist()
                # a Python int keeps every recall a float, which the writers' fast paths need
                size = int(np.count_nonzero(in_group))
                # an empty selection has no precision
                scores = [(h / c, h / size) if c else (None, None) for h, c in zip(hits, chosen)]
            for (j, label, _), pre, post, (precision, recall) in zip(group, pre_mse, post_mse, scores):
                rows[j].append(
                    PlaceboRow(
                        iteration=iteration,
                        target_id=target_ids[j],
                        variant=variant,
                        pre_mse=pre,
                        post_mse=post,
                        selected_donor_count=pool.values.shape[-2],
                        cluster_label=label,
                        active_donor_precision=precision,
                        active_donor_recall=recall,
                    )
                )

    def fit_targets(targets):
        # targets: positions in target_rows, ascending
        rows = {j: [] for j in targets}
        skipped = {j: [] for j in targets}
        add_rows(rows, "sc_full", design.rule, [(j, None, donor_rows[j]) for j in targets])
        clustered = []
        for j in targets:
            try:
                label, members = cluster_source(j, seeds[j][1])
            except DegenerateClusterError as exc:
                reasons = (str(exc), "paired cluster_sc run was skipped")
                skipped[j] = [
                    {"iteration": iteration, "target_id": target_ids[j], "variant": name, "reason": reason}
                    for name, reason in zip(design.variants[1:], reasons)
                ]
                continue
            clustered.append((j, label, members))
        add_rows(rows, "cluster_sc", design.cluster_rule, clustered)
        if design.with_random_subset:
            # the draw reads only the pool's row count, so it is given the rows alone
            add_rows(rows, "sc_random_subset", design.rule, [
                (j, None, donor_rows[j][
                    random_subset_variant(donor_rows[j][:, None], len(members), seeds[j][2])
                ])
                for j, _, members in clustered
            ])
        return [(rows[j], skipped[j]) for j in targets]

    try:
        return fit_targets(range(len(target_ids)))
    except Exception:
        if len(target_ids) == 1:
            raise
    return [result for j in range(len(target_ids)) for result in fit_targets([j])]


def _deal_over_cpus(work, count: int) -> list:
    """work(range(count)), with the indices dealt over the CPUs.

    This one function owns the dealing protocol: it decides the share count,
    makes each pipe, forks, collects, reaps and kills. work(indices) returns
    one result per index, in order, and raises the first error in index
    order. There is one share per CPU in the affinity mask, at most one per
    index; with a single share (also without os.fork or os.sched_getaffinity,
    or while another Python thread runs, since fork is safe only without
    one) work(range(count)) simply runs here.

    Otherwise index i goes to share i % shares. Every share but 0 is forked
    into a child, which writes the pickled list of its results to its pipe
    and leaves through os._exit, so it runs no exit handler and never flushes
    the stdio buffers it inherited; its exit status is 0 only when the whole
    list was written. Share 0 then runs here, and the children are read in
    share order, each reaped right after its read. If anything fails (a pipe
    or a child cannot be made, a child delivers nothing, or this process's
    share raises), the children still running are killed and reaped, and
    work(range(count)) runs here: its results, or its error, are what the
    call returns or raises.
    """
    shares = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        shares = min(count, len(os.sched_getaffinity(0)))
    if shares < 2:
        return work(range(count))
    children = []  # (pid, read end of its pipe), in share order
    try:
        for share in range(1, shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    results = work(range(share, count, shares))
                    payload = pickle.dumps(results, pickle.HIGHEST_PROTOCOL)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        dealt = [work(range(0, count, shares))]
        while children:
            pid, read_fd = children.pop(0)
            try:
                with open(read_fd, "rb") as pipe:
                    payload = pipe.read()
            finally:
                _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                raise ChildProcessError(f"share child {pid} delivered nothing")
            dealt.append(pickle.loads(payload))
        return [dealt[i % shares][i // shares] for i in range(count)]
    except Exception:
        pass  # one policy for every failure: the serial loop below
    finally:
        # children are left here only when the dealt run failed
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return work(range(count))


def leave_one_out_placebo(
    dataset: SyntheticDataset,
    target_fraction: float,
    design: PlaceboDesign,
    rng,
    *,
    cluster_mode: str = "per_target",
) -> PlaceboReport:
    """Placebo test on a synthetic panel with group-A units as targets.

    A target_fraction share of group A (at least one unit) is sampled
    without replacement; each sampled unit is removed from the pool and each
    of the design's estimators predicts its post-intervention path from the
    remaining units.
    Errors are measured against the unit's noiseless signal.

    cluster_mode "per_target" re-clusters each target's donor pool, which is
    the protocol the harness models; "per_dataset" clusters the full panel
    once and reuses the assignments, trading a little fidelity (the target
    participates in the clustering) for a large speedup on wide benchmark
    grids.

    Targets whose cluster collapses below two donors are recorded under
    skipped, and that cell is excluded from every variant's aggregates.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise InvalidParamsError(
            f"target_fraction must be in (0, 1], got {target_fraction}"
        )
    if cluster_mode not in CLUSTER_MODES:
        raise InvalidParamsError(f"unknown cluster_mode {cluster_mode!r}")
    rng = np.random.default_rng(rng)

    panel = dataset.panel
    t0 = panel.split.t0
    values = panel.values
    in_a = np.asarray(dataset.group_labels) == "A"  # every target is a group-A unit
    a_rows = np.flatnonzero(in_a)
    if not a_rows.size:
        raise InvalidInputError("dataset has no group-A units to target")

    n_targets = max(1, int(round(target_fraction * len(a_rows))))
    target_rows = np.sort(rng.choice(a_rows, size=n_targets, replace=False))
    seeds = rng.integers(0, SEED_CEILING, size=(n_targets, len(design.variants)))
    pool_labels = None
    if cluster_mode == "per_dataset":
        pool_labels = _fit_pool_model(design, panel.pre, rng).assignments.labels

    donor_row = np.arange(values.shape[0] - 1)

    def work(indices):
        tr = target_rows[indices]
        # each target's donors are the panel rows other than its own, in order
        rows = donor_row + (donor_row >= tr[:, None])

        def cluster_source(j, seed):
            if pool_labels is None:
                model = fit_cluster_model(
                    values[rows[j], :t0], design.cluster_rule, k=design.k, rng=seed
                )
                label, members = nearest_cluster(model, values[tr[j], :t0])
                return label, rows[j][members]
            label = int(pool_labels[tr[j]])
            return label, rows[j][cluster_members(pool_labels[rows[j]], label)]

        return _placebo_target(
            0, panel, tr, dataset.true_signal, rows, design, seeds[indices], cluster_source, in_a,
        )

    rows: list[PlaceboRow] = []
    skipped: list[dict] = []
    from scipy.spatial import distance  # every target clusters: children inherit the import
    for cell_rows, cell_skipped in _deal_over_cpus(work, n_targets):
        rows.extend(cell_rows)
        skipped.extend(cell_skipped)

    return PlaceboReport(
        rows=rows,
        skipped=skipped,
        reference="true_signal",
        config={
            "harness": "leave_one_out", "n_targets": n_targets, "dataset_seed": dataset.seed,
        },
        **_aggregates(rows, skipped),
    )


def split_placebo(
    panel: TimePanel,
    train_fraction: float,
    iterations: int,
    design: PlaceboDesign,
    rng,
) -> PlaceboReport:
    """Repeated random donor/target splits of an observed panel.

    Each iteration assigns round(train_fraction * n) units to the donor pool
    and the rest to the target set, fits the design on every target, and
    stores its own median errors next to the pooled ones. With no noiseless
    signal available, errors are measured against the observations.

    The cluster model is fitted once per iteration on the donor pool alone;
    targets are then embedded on the model's basis, so no target influences
    the clustering.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidParamsError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    if iterations < 1:
        raise InvalidParamsError(f"iterations must be >= 1, got {iterations}")
    rng = np.random.default_rng(rng)

    t0 = panel.split.t0
    values = panel.values
    n = values.shape[0]
    n_train = int(round(train_fraction * n))
    if not 1 <= n_train <= n - 1:
        raise InvalidParamsError(
            f"train_fraction {train_fraction} leaves no donors or no targets "
            f"for {n} units"
        )

    iteration_seeds = rng.integers(0, SEED_CEILING, size=iterations)
    rows: list[PlaceboRow] = []
    skipped: list[dict] = []
    per_iteration: list[dict] = []

    for it, it_seed in enumerate(iteration_seeds, start=1):
        it_rng = np.random.default_rng(it_seed)
        perm = it_rng.permutation(n)
        train_rows = np.sort(perm[:n_train])
        test_rows = np.sort(perm[n_train:])
        seeds = it_rng.integers(0, SEED_CEILING, size=(test_rows.size, len(design.variants)))
        model = _fit_pool_model(design, values[train_rows, :t0], it_rng)

        def cluster_source(j, seed):
            label, members = nearest_cluster(model, values[test_rows[j], :t0])
            return label, train_rows[members]

        it_rows: list[PlaceboRow] = []
        it_skipped: list[dict] = []
        # every target shares the donors and the model's clusters, so the core
        # fits each of those pools once
        for cell_rows, cell_skipped in _placebo_target(
            it, panel, test_rows, values, train_rows, design, seeds, cluster_source,
        ):
            it_rows.extend(cell_rows)
            it_skipped.extend(cell_skipped)

        rows.extend(it_rows)
        skipped.extend(it_skipped)
        per_iteration.append(
            {
                "iteration": it,
                "n_targets": int(test_rows.size),
                "n_skipped_cells": len({entry["target_id"] for entry in it_skipped}),
                **_aggregates(it_rows, it_skipped),
            }
        )

    return PlaceboReport(
        rows=rows,
        skipped=skipped,
        reference="observed",
        config={"harness": "split", "n_train": n_train},
        per_iteration=per_iteration,
        **_aggregates(rows, skipped),
    )


@dataclass
class GapExperimentResult:
    """Monte-Carlo estimate of the (r+1)-th singular value gap.

    Each trial draws a rank-r signal with the sinusoid generator, adds
    noise, and records sigma_{r+1} of the full matrix minus sigma_{r+1} of
    its first n_a rows. theoretical_bound is the Gaussian lower bound
    s * (sqrt(n) - sqrt(n_a) - 2 sqrt(T)) on the expected gap and is None
    for other noise kinds, where only positivity is claimed.
    precondition_ok reports whether n_a < n + 4T - 4 sqrt(nT) held, the
    regime the bound is stated for.
    """

    n: int
    n_a: int
    t_count: int
    rank_r: int
    noise: NoiseSpec
    trials: int
    gaps: list[float]
    empirical_mean_gap: float
    gap_std_error: float
    theoretical_bound: float | None
    precondition_ok: bool


def singular_gap_experiment(
    n: int,
    n_a: int,
    t_count: int,
    rank_r: int,
    noise: NoiseSpec,
    trials: int,
    rng,
) -> GapExperimentResult:
    """Measure sigma_{r+1}(full pool) - sigma_{r+1}(subgroup) over trials."""
    if not 1 <= n_a < n:
        raise InvalidParamsError(f"need 1 <= n_a < n, got n_a={n_a}, n={n}")
    # sigma_{r+1} of the subgroup exists only below min(n_a, t_count)
    if not 1 <= rank_r < min(t_count, n_a):
        raise InvalidParamsError(
            f"need 1 <= rank_r < min(t_count, n_a), got rank_r={rank_r}, "
            f"t_count={t_count}, n_a={n_a}"
        )
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng)

    spec = replace(GROUP_A_SPEC, n_components=rank_r)
    trial_seeds = rng.integers(0, SEED_CEILING, size=trials)
    gaps = []
    for seed in trial_seeds:
        trial_rng = np.random.default_rng(seed)
        signal = gen_group(spec, n, t_count, trial_rng)
        observed = as_matrix(add_noise(signal, noise, trial_rng))
        sigma_full = np.linalg.svd(observed, compute_uv=False)
        sigma_sub = np.linalg.svd(observed[:n_a], compute_uv=False)
        gaps.append(float(sigma_full[rank_r] - sigma_sub[rank_r]))

    bound = None
    if noise.kind == "gaussian":
        bound = noise.scale * (
            math.sqrt(n) - math.sqrt(n_a) - 2.0 * math.sqrt(t_count)
        )
    return GapExperimentResult(
        n=n,
        n_a=n_a,
        t_count=t_count,
        rank_r=rank_r,
        noise=noise,
        trials=trials,
        gaps=gaps,
        empirical_mean_gap=float(np.mean(gaps)),
        gap_std_error=std_error(gaps),
        theoretical_bound=bound,
        precondition_ok=bool(n_a < n + 4 * t_count - 4.0 * math.sqrt(n * t_count)),
    )


@dataclass
class RecoveryCell:
    """Recovery quality at one noise level, over datasets_per_cell panels.

    fractions holds per-dataset misassignment shares: the symmetric
    difference between the fitted partition and the planted two-group
    partition, divided by 2n. ks holds the k each dataset was fitted with
    (the silhouette's choice when k is "auto"). median_precisions holds,
    per dataset, the median over group-A units of their cluster's group-A
    share; the precision_one_share is the fraction of datasets where that
    median is exactly 1 (the cluster around a typical A unit contains only
    A units).
    """

    noise: NoiseSpec
    fractions: list[float]
    ks: list[int]
    mean_fraction: float
    median_precisions: list[float]
    precision_one_share: float


@dataclass
class RecoveryResult:
    """Planted-partition recovery across a noise grid."""

    n_a: int
    n_b: int
    t_count: int
    t0: int
    k: int | str
    datasets_per_cell: int
    rule: RankRule
    cells: list[RecoveryCell]


def cluster_recovery_experiment(
    spec_a: SignalSpec,
    spec_b: SignalSpec,
    n_a: int,
    n_b: int,
    t_count: int,
    t0: int,
    rule: RankRule,
    noise_grid,
    datasets_per_cell: int,
    rng,
    *,
    k: int | str = 2,
) -> RecoveryResult:
    """How well clustering the pre block recovers the planted groups.

    For each noise level, datasets_per_cell panels are generated and
    clustered into k clusters (an integer or "auto"); the misassignment
    fraction compares the fitted partition to the planted two-group one.
    When k differs from 2, clusters left without a partner count as fully
    misassigned (see partition_symmetric_difference). Group sizes must be
    at least 2 so a perfect partition is a valid clustering.
    """
    noise_grid = list(noise_grid)
    if not noise_grid:
        raise InvalidParamsError("noise_grid must be nonempty")
    if datasets_per_cell < 1:
        raise InvalidParamsError(
            f"datasets_per_cell must be >= 1, got {datasets_per_cell}"
        )
    if min(n_a, n_b) < 2:
        raise InvalidParamsError("each group needs at least 2 units")
    k = validate_k(k)
    rng = np.random.default_rng(rng)

    n = n_a + n_b
    truth = Partition(np.array([1] * n_a + [2] * n_b), k=2)
    a_slice = slice(0, n_a)
    seeds = rng.integers(0, SEED_CEILING, size=(len(noise_grid), datasets_per_cell, 2))

    cells = []
    for gi, noise in enumerate(noise_grid):
        fractions = []
        ks = []
        median_precisions = []
        for di in range(datasets_per_cell):
            dataset = gen_dataset(
                spec_a, spec_b, n_a, n_b, t_count, t0, noise, int(seeds[gi, di, 0])
            )
            model = fit_cluster_model(
                dataset.panel.pre, rule, k=k, rng=np.random.default_rng(seeds[gi, di, 1])
            )
            distance = partition_symmetric_difference(truth, model.assignments)
            fractions.append(distance / (2 * n))
            ks.append(model.k)

            labels = model.assignments.labels - 1
            # each cluster's group-A share
            purity = (np.bincount(labels[a_slice], minlength=model.k)
                      / np.bincount(labels, minlength=model.k))
            median_precisions.append(float(np.median(purity[labels[a_slice]])))
        cells.append(
            RecoveryCell(
                noise=noise,
                fractions=fractions,
                ks=ks,
                mean_fraction=float(np.mean(fractions)),
                median_precisions=median_precisions,
                precision_one_share=float(np.mean([p == 1.0 for p in median_precisions])),
            )
        )
    return RecoveryResult(
        n_a=n_a,
        n_b=n_b,
        t_count=t_count,
        t0=t0,
        k=k,
        datasets_per_cell=datasets_per_cell,
        rule=rule,
        cells=cells,
    )
