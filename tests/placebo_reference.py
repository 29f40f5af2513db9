"""A plain reference for the two placebo harnesses.

For each target, in order, it draws the harness's seeds, builds the target's
donor rows, clusters them with the public fit_cluster_model and
nearest_cluster (or reads the dataset's pool model), and fits each variant
alone on the gathered donors: engine.sc_denoise, then sc_fit_weights for
the weights. The lasso's pre fit and counterfactual come from sc_infer; an
OLS or ridge fit's from its singular coordinates (engine.fit_coordinates and
project), where the core reads them, which agree with sc_infer's weights
path to rounding. Selections are scored by unit id with
donor_selection_scores, one donor at a time. It shares no code with the
placebo core, so a harness row that equals a reference row was computed
right.
"""

from __future__ import annotations

import numpy as np

from clustersc.cluster import SEED_CEILING, cluster_members, fit_cluster_model, nearest_cluster
from clustersc.engine import fit_coordinates, project, sc_denoise, sc_fit_weights, sc_infer
from clustersc.errors import DegenerateClusterError, UndefinedPrecisionError
from clustersc.evaluate import PlaceboRow, donor_selection_scores, mse, random_subset_variant
from clustersc.regression import active_set


def id_scores(fit, unit_ids, labels, target_id):
    """Precision and recall of a fit's active donors, found by unit id."""
    id_to_row = {u: i for i, u in enumerate(unit_ids)}
    try:
        return donor_selection_scores(
            [id_to_row[u] for u in active_set(fit.weights)], labels, labels[id_to_row[target_id]]
        )
    except UndefinedPrecisionError:
        return None, None


def reference_cells(iteration, panel, target, reference, donors, design, seeds, cluster, labels=None):
    """The rows and skipped entries of one target: donors are panel rows,
    cluster(seed) returns (label, positions in donors) or raises."""
    split, t0 = panel.split, panel.split.t0
    series = panel.values[target]
    target_id = panel.unit_ids[target]

    def row(variant, positions, rule, label=None):
        ids = [panel.unit_ids[r] for r in donors[positions]]
        pool = sc_denoise(panel.values[donors[positions]], rule)
        fit = sc_fit_weights(pool, split, series[:t0], design.reg, donor_ids=ids)
        if design.reg.method == "lasso":
            estimate = sc_infer(fit, split, series)
            pre_fit, counterfactual = estimate.pre_fit, estimate.counterfactual_post
        else:
            coords = fit_coordinates(pool.v, pool.scale, t0, series[None, :t0], design.reg)
            pre_fit, counterfactual = (block[0] for block in project(pool.v, pool.scale, t0, coords))
        precision, recall = (None, None)
        if labels is not None:
            precision, recall = id_scores(fit, panel.unit_ids, labels, target_id)
        return PlaceboRow(
            iteration, target_id, variant, mse(pre_fit, reference[:t0]),
            mse(counterfactual, reference[t0:]), len(ids), label, precision, recall,
        )

    rows = [row("sc_full", np.arange(len(donors)), design.rule)]
    try:
        label, members = cluster(seeds[1])
    except DegenerateClusterError as exc:
        reasons = (str(exc), "paired cluster_sc run was skipped")
        return rows, [
            {"iteration": iteration, "target_id": target_id, "variant": name, "reason": reason}
            for name, reason in zip(design.variants[1:], reasons)
        ]
    rows.append(row("cluster_sc", members, design.cluster_rule, label))
    if design.with_random_subset:
        positions = random_subset_variant(panel.values[donors], len(members), seeds[2])
        rows.append(row("sc_random_subset", np.asarray(positions, dtype=int), design.rule))
    return rows, []


def reference_leave_one_out(dataset, target_fraction, design, rng, cluster_mode="per_target"):
    """leave_one_out_placebo's rows and skipped entries, target by target."""
    rng = np.random.default_rng(rng)
    panel, t0 = dataset.panel, dataset.panel.split.t0
    labels = list(dataset.group_labels)
    a_rows = np.flatnonzero(np.asarray(labels) == "A")
    n_targets = max(1, int(round(target_fraction * len(a_rows))))
    targets = np.sort(rng.choice(a_rows, size=n_targets, replace=False))
    seeds = rng.integers(0, SEED_CEILING, size=(n_targets, len(design.variants)))
    pool_labels = None
    if cluster_mode == "per_dataset":
        model_rng = np.random.default_rng(rng.integers(0, SEED_CEILING))
        pool_labels = fit_cluster_model(
            panel.pre, design.cluster_rule, k=design.k, rng=model_rng
        ).assignments.labels
    rows, skipped = [], []
    for target, target_seeds in zip(targets.tolist(), seeds):
        donors = np.delete(np.arange(len(panel.unit_ids)), target)

        def cluster(seed):
            if pool_labels is None:
                model = fit_cluster_model(panel.values[donors, :t0], design.cluster_rule, k=design.k, rng=seed)
                return nearest_cluster(model, panel.values[target, :t0])
            label = int(pool_labels[target])
            return label, cluster_members(pool_labels[donors], label)

        cell_rows, cell_skipped = reference_cells(
            0, panel, target, dataset.true_signal[target], donors, design, target_seeds, cluster, labels
        )
        rows += cell_rows
        skipped += cell_skipped
    return rows, skipped


def reference_split(panel, train_fraction, iterations, design, rng):
    """split_placebo's rows and skipped entries, iteration by iteration and
    target by target."""
    rng = np.random.default_rng(rng)
    n, t0 = len(panel.unit_ids), panel.split.t0
    n_train = int(round(train_fraction * n))
    rows, skipped = [], []
    for it, it_seed in enumerate(rng.integers(0, SEED_CEILING, size=iterations), start=1):
        it_rng = np.random.default_rng(it_seed)
        perm = it_rng.permutation(n)
        train, test = np.sort(perm[:n_train]), np.sort(perm[n_train:])
        seeds = it_rng.integers(0, SEED_CEILING, size=(test.size, len(design.variants)))
        model_rng = np.random.default_rng(it_rng.integers(0, SEED_CEILING))
        model = fit_cluster_model(panel.values[train, :t0], design.cluster_rule, k=design.k, rng=model_rng)
        for target, target_seeds in zip(test.tolist(), seeds):
            cell_rows, cell_skipped = reference_cells(
                it, panel, target, panel.values[target], train, design, target_seeds,
                lambda seed: nearest_cluster(model, panel.values[target, :t0]),
            )
            rows += cell_rows
            skipped += cell_skipped
    return rows, skipped
