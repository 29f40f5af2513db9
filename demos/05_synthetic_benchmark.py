#!/usr/bin/env python3
"""Placebo benchmark: does clustering the donor pool help, and when?

Runs leave-one-out placebo studies over several synthetic datasets at three
noise levels, twice: once with the generating ranks passed explicitly
(pool 6, cluster 3), once with the energy-0.95 rule left to choose. The
first setting shows the method at its best; the second shows how an
automatic rank rule that saturates on short windows erases the denoising
advantage (see the rank-selection note in clustersc.engine).
"""

import time

import numpy as np

from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from clustersc.evaluate import PlaceboDesign, leave_one_out_placebo
from clustersc.linalg import RankRule
from clustersc.regression import RegressionSpec

DATASETS = 10
RIDGE = RegressionSpec("ridge", lam=0.01)


def run_grid(label, full_rule, cluster_rule, seed_base):
    print(f"\n{label}")
    print(f"{'noise':>6} {'wins':>7} {'median improvement':>20}")
    for s in (0.1, 0.25, 0.4):
        wins = 0
        pooled = []
        design = PlaceboDesign(RIDGE, full_rule, k=2, cluster_rule=cluster_rule)
        for d in range(DATASETS):
            dataset = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 100, 100, 10, 8,
                NoiseSpec.gaussian(s), seed=seed_base + d,
            )
            report = leave_one_out_placebo(
                dataset, 0.3, design, np.random.default_rng(1000 + d),
                cluster_mode="per_dataset",
            )
            medians = report.medians
            wins += medians["cluster_sc"]["post_mse"] < medians["sc_full"]["post_mse"]
            pooled.extend(report.improvements["values"])
        print(f"{s:>6} {wins:>4}/{DATASETS} {np.median(pooled):>+20.5f}")


def main():
    started = time.time()
    run_grid("known ranks (pool fixed 6, cluster fixed 3):",
             RankRule.fixed(6), RankRule.fixed(3), seed_base=300)
    run_grid("energy-0.95 rule on both:",
             RankRule.energy(0.95), RankRule.energy(0.95), seed_base=300)
    print(f"\n{time.time() - started:.1f}s for {2 * 3 * DATASETS} placebo studies")
    print("Improvement is full-pool MSE minus clustered MSE per target;")
    print("positive favors clustering.")


if __name__ == "__main__":
    main()
