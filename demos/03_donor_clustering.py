#!/usr/bin/env python3
"""Clustering donors in singular-vector space and scoring the partition."""

import numpy as np

from clustersc.cluster import (
    Partition,
    assign_target,
    fit_cluster_model,
    partition_symmetric_difference,
)
from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from clustersc.linalg import RankRule


def main():
    n_a, n_b = 30, 30
    dataset = gen_dataset(
        GROUP_A_SPEC, GROUP_B_SPEC, n_a, n_b, 12, 9,
        NoiseSpec.gaussian(0.15), seed=8,
    )
    truth = Partition([1] * n_a + [2] * n_b, k=2)
    rng = np.random.default_rng(99)

    # fixed k
    model = fit_cluster_model(dataset.panel.pre, RankRule.fixed(6), k=2, rng=rng)
    diff = partition_symmetric_difference(truth, model.assignments)
    print(f"k=2: embedding rank {model.rank_r}, inertia {model.inertia:.3f}, "
          f"units misplaced (best relabeling): {diff} of {n_a + n_b}")

    sizes = [int(np.sum(model.assignments.labels == c)) for c in (1, 2)]
    print(f"     cluster sizes {sizes}, true sizes [{n_a}, {n_b}]")

    # automatic k by silhouette
    auto = fit_cluster_model(
        dataset.panel.pre, RankRule.fixed(6), k="auto", rng=np.random.default_rng(99),
    )
    print(f"auto: silhouette picks k={auto.k}")

    # assigning a held-out unit uses the same embedding basis
    held_out = dataset.panel.pre[0]
    label = assign_target(model, held_out)
    print(f"held-out A unit lands in cluster {label}")

    print()
    print("Labels are 1-based and arbitrary up to renaming; the symmetric")
    print("difference metric minimizes disagreement over relabelings, so 0")
    print("means a perfect recovery even when the label names differ.")


if __name__ == "__main__":
    main()
