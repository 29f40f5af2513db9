#!/usr/bin/env python3
"""File-based workflow: save a panel, load it back, run a split placebo.

The same steps are available from the command line:

    clustersc simulate --na 40 --nb 40 --seed 11 --out work/
    clustersc placebo-panel --panel work/simulate_panel.csv --t0 8 \
        --iterations 5 --rule fixed:3 --k 2 --seed 21 --out work/

Real quarterly house-price data works the same way once flattened to the
unit,year,quarter,value schema; see preprocess_hpi for the column aliases
and the range filter.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from clustersc.evaluate import MethodVariant, split_placebo
from clustersc.linalg import RankRule
from clustersc.panel import load_panel_csv, save_panel_csv
from clustersc.regression import RegressionSpec
from clustersc.reporting import placebo_plot_rows, write_report


def main():
    with tempfile.TemporaryDirectory(prefix="clustersc_demo_") as tmp:
        run(Path(tmp))


def run(work: Path):
    dataset = gen_dataset(
        GROUP_A_SPEC, GROUP_B_SPEC, 40, 40, 10, 8,
        NoiseSpec.gaussian(0.2), seed=11,
    )
    csv_path = save_panel_csv(dataset.panel, work / "panel.csv")
    panel = load_panel_csv(csv_path, 8)
    print(f"wrote and re-read {csv_path}")
    print(f"round trip exact: {np.array_equal(panel.values, dataset.panel.values)}")

    reg = RegressionSpec("ridge", lam=0.05)
    rule = RankRule.fixed(3)
    variants = [
        MethodVariant("sc_full", reg, RankRule.fixed(6)),
        MethodVariant("cluster_sc", reg, rule, k=2),
        MethodVariant("sc_random_subset", reg, rule),
    ]
    report = split_placebo(panel, 0.8, 5, variants, np.random.default_rng(21))

    print(f"\n5 iterations, 80/20 split, {len(report.rows)} placebo fits")
    for name in ("sc_full", "cluster_sc", "sc_random_subset"):
        print(f"  {name:>16}: median post MSE {report.medians[name]['post_mse']:.4f}")
    print(f"  median improvement (full vs clustered): "
          f"{report.improvements['median']:+.4f}")

    json_path, csv_out = write_report(report, work, "placebo", placebo_plot_rows(report))
    payload = json.loads(json_path.read_text())
    with open(csv_out) as handle:
        n_rows = sum(1 for _ in handle) - 1
    print(f"\nreport: {json_path}")
    print(f"plot rows: {csv_out} ({n_rows} rows, long form)")
    print(f"config echo keys: {sorted(payload['config'])}")


if __name__ == "__main__":
    main()
