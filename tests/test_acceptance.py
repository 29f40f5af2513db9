"""Acceptance suite: the numbered end-to-end guarantees this library ships with.

One test per criterion, each printing a single "criterion N (...): PASS|FAIL"
line (run with -s or -rA to see the scorecard; plain -v shows the same verdict
through the test outcome). Criteria:

  1. solver and metric oracles (SVD, hsvt, k-means, lasso, ridge, partition
     distance) agree with independent brute-force references;
  2. noiseless data with two well-separated groups: the partition is recovered
     exactly and every counterfactual is exact to 1e-10, under 10 s;
  3. dropping half the rows of a noisy low-rank matrix shrinks the top
     singular value by at least the predicted margin, under 60 s;
  4. the clustered pipeline beats the full donor pool in at least 45 of 50
     synthetic datasets per noise level, with positive median pairwise
     improvement at moderate and high noise, under 10 min;
  5. lasso on clustered donors selects same-group donors at least as precisely
     as lasso on the full pool in at least 40 of 50 datasets, and clustering
     alone is perfect in at least 60% of low-noise datasets;
  6. forcing a single cluster reproduces plain synthetic control bit for bit;
  7. on a real house-price panel (optional file), the clustered pipeline has
     the lowest median placebo error for each regression method, under 15 min;
  8. every command-line experiment is byte-deterministic under a fixed seed.

Criterion 4 is currently expected to fail, and the failure is informative:
with the energy-0.95 rank rule on 10-period windows the selected rank sits at
or near full rank once noise is present, so denoising is a near no-op and the
clustered run differs from the full pool only by donor subsetting. That gap
alone wins a majority of datasets (34/34/30 of 50 at noise 0.1/0.25/0.4) but
not 45. Passing the generating ranks explicitly (pool 6, clusters 3) yields
decisive wins; see the rank-selection note in clustersc.engine and the
moderate-noise comparison in tests/test_engine.py.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from clustersc.cli import main as cli_main
from clustersc.cluster import (
    Partition,
    best_lloyd,
    fit_cluster_model,
    partition_symmetric_difference,
)
from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, SignalSpec, gen_dataset
from clustersc.engine import cluster_sc, sc_infer, sc_learn
from clustersc.evaluate import (
    SEED_CEILING,
    PlaceboDesign,
    cluster_recovery_experiment,
    leave_one_out_placebo,
    mse,
    singular_gap_experiment,
    split_placebo,
)
from clustersc.linalg import RankRule, hsvt, svd
from clustersc.panel import InterventionSplit, preprocess_hpi
from clustersc.regression import RegressionSpec, fit

ENERGY = RankRule.energy(0.95)
RIDGE = RegressionSpec("ridge", lam=0.01)
LASSO = RegressionSpec("lasso", lam=0.01)

# amplitudes concentrated near 1, fixed phase, disjoint frequency bands:
# groups whose noiseless point clouds do not touch, so a centroid-based
# clustering can separate them exactly
SEPARATED_A = SignalSpec(3, (8.0, 2.0), (1.0, 2.0), (0.0, 0.0))
SEPARATED_B = SignalSpec(3, (8.0, 2.0), (6.0, 8.0), (0.0, 0.0))

BENCHMARK_SEED = 20260815
HPI_FILE_ENV = "CLUSTERSC_HPI_FILE"


def verdict(number: int, label: str, ok: bool, detail: str = "") -> str:
    """Print the one-line scorecard entry and return it for assert messages."""
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return line


@pytest.fixture(scope="session")
def benchmark_seeds():
    """Dataset and harness seeds shared by criteria 4 and 5.

    Criterion 5 reruns the same 50 datasets (same generator seeds) at noise
    0.4, so the seed table is drawn once here.
    """
    rng = np.random.default_rng(BENCHMARK_SEED)
    dataset_seeds = rng.integers(0, SEED_CEILING, size=50)
    harness_seeds = rng.integers(0, SEED_CEILING, size=(4, 50))
    return dataset_seeds, harness_seeds


def exhaustive_bipartition_inertia(points: np.ndarray) -> float:
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


def lasso_objective(design: np.ndarray, y: np.ndarray, values: np.ndarray, lam: float) -> float:
    """(1 / (2 T0)) ||y - design f||^2 + lam ||f||_1."""
    resid = y - design @ values
    return float(resid @ resid / (2 * design.shape[0]) + lam * np.abs(values).sum())


def grid_lasso_objective(design: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Coarse-to-fine grid minimum of the lasso objective over [-3, 3]^n."""
    n = design.shape[1]
    lo = np.full(n, -3.0)
    hi = np.full(n, 3.0)
    best = np.inf
    for step in (0.1, 0.01, 0.001):
        axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        obj = ((y[None, :] - pts @ design.T) ** 2).sum(axis=1) / (2 * design.shape[0])
        obj += lam * np.abs(pts).sum(axis=1)
        i = int(np.argmin(obj))
        best = float(obj[i])
        lo = pts[i] - 1.5 * step
        hi = pts[i] + 1.5 * step
    return best


def random_partition(rng, n: int, k: int) -> Partition:
    labels = rng.integers(1, k + 1, size=n)
    labels[: k] = np.arange(1, k + 1)  # keep every label populated
    return Partition([int(v) for v in labels], k=k)


def test_criterion_1_solver_and_metric_oracles():
    ok = True
    notes = []

    # SVD reconstruction and orthonormality on 100 random shapes up to 20x12
    rng = np.random.default_rng(101)
    for _ in range(100):
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 13))
        a = rng.normal(size=(rows, cols))
        f = svd(a)
        recon = (f.u * f.sigma) @ f.v.T
        ok &= float(np.abs(recon - a).max()) <= 1e-8
        ok &= float(np.abs(f.u.T @ f.u - np.eye(f.u.shape[1])).max()) <= 1e-8
        ok &= float(np.abs(f.v.T @ f.v - np.eye(f.v.shape[1])).max()) <= 1e-8
    notes.append("svd")

    # hsvt is the Frobenius-closest rank-r matrix among random candidates
    for trial in range(20):
        a = rng.normal(size=(int(rng.integers(3, 12)), int(rng.integers(3, 10))))
        r = int(rng.integers(1, min(a.shape)))
        best = float(np.linalg.norm(a - hsvt(a, r), "fro"))
        for _ in range(10):
            cand = rng.normal(size=(a.shape[0], r)) @ rng.normal(size=(r, a.shape[1]))
            ok &= best <= float(np.linalg.norm(a - cand, "fro")) + 1e-9
    notes.append("hsvt")

    # restarted Lloyd matches the exhaustive bipartition optimum for m <= 8
    for seed in range(10):
        m = int(rng.integers(4, 9))
        points = np.random.default_rng(seed).normal(size=(m, 2))
        _, _, inertia = best_lloyd(points, 2, restarts=30, rng=np.random.default_rng(seed + 100))
        ok &= abs(inertia - exhaustive_bipartition_inertia(points)) <= 1e-9
    notes.append("kmeans")

    # lasso objective within 1e-4 of a grid-search minimum (n <= 3, T0 <= 4)
    for _ in range(8):
        t0 = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        design = rng.normal(size=(t0, n))
        y = design @ rng.uniform(-1, 1, size=n) + rng.normal(scale=0.1, size=t0)
        lam = float(rng.uniform(0.02, 0.3))
        w = fit(design, y, RegressionSpec("lasso", lam=lam))
        got = lasso_objective(design, y, w.values, lam)
        ok &= got - grid_lasso_objective(design, y, lam) <= 1e-4
    notes.append("lasso")

    # ridge at lam 0 collapses to OLS
    for _ in range(10):
        t0 = int(rng.integers(2, 9))
        n = int(rng.integers(1, 7))
        design = rng.normal(size=(t0, n))
        y = rng.normal(size=t0)
        w_ridge = fit(design, y, RegressionSpec("ridge", lam=0.0)).values
        w_ols = fit(design, y, RegressionSpec("ols")).values
        ok &= float(np.abs(w_ridge - w_ols).max()) <= 1e-8
    notes.append("ridge0=ols")

    # partition distance is a metric: identity, symmetry, triangle inequality
    for trial in range(25):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(2, 4))
        p, q, s = (random_partition(rng, n, k) for _ in range(3))
        dpq = partition_symmetric_difference(p, q)
        ok &= partition_symmetric_difference(p, p) == 0
        ok &= dpq == partition_symmetric_difference(q, p) and dpq >= 0
        ok &= partition_symmetric_difference(p, s) <= dpq + partition_symmetric_difference(q, s)
    notes.append("partition-metric")

    line = verdict(1, "solver and metric oracles", ok, " ".join(notes))
    assert ok, line


def test_criterion_2_noiseless_exact_recovery():
    started = time.monotonic()
    dataset = gen_dataset(
        SEPARATED_A, SEPARATED_B, 100, 100, 10, 8, NoiseSpec.gaussian(0.0), seed=0
    )
    truth = Partition([1] * 100 + [2] * 100, k=2)
    rule = RankRule.fixed(6)  # both groups together span six directions

    model = fit_cluster_model(dataset.panel.pre, rule, k=2, rng=np.random.default_rng(1000))
    sym_diff = partition_symmetric_difference(truth, model.assignments)

    worst_mse = 0.0
    child = np.random.default_rng(77).integers(0, SEED_CEILING, size=200)
    for i in range(200):
        donors = np.delete(dataset.panel.values, i, axis=0)
        estimate, _, _ = cluster_sc(
            donors, dataset.panel.split, dataset.panel.values[i], rule,
            RegressionSpec("ols"), k=2, rng=np.random.default_rng(child[i]),
        )
        worst_mse = max(worst_mse, mse(estimate.counterfactual_post, dataset.true_signal[i, 8:]))

    elapsed = time.monotonic() - started
    ok = sym_diff == 0 and worst_mse <= 1e-10 and elapsed < 10.0
    line = verdict(
        2, "noiseless exact recovery", ok,
        f"symdiff={sym_diff} worst_mse={worst_mse:.2e} {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_3_singular_value_gap():
    started = time.monotonic()
    gaussian = singular_gap_experiment(
        1000, 500, 10, 3, NoiseSpec.gaussian(0.3), 200, np.random.default_rng(3)
    )
    floor = 0.881 - 2 * gaussian.gap_std_error
    ok = gaussian.empirical_mean_gap >= floor

    uniform = singular_gap_experiment(
        1000, 500, 10, 3, NoiseSpec.uniform(0.5), 200, np.random.default_rng(3)
    )
    heavy = singular_gap_experiment(
        1000, 500, 10, 3, NoiseSpec.student_t(4, 0.3), 200, np.random.default_rng(3)
    )
    ok = ok and uniform.empirical_mean_gap > 0 and heavy.empirical_mean_gap > 0

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    line = verdict(
        3, "singular value gap", ok,
        f"gaussian={gaussian.empirical_mean_gap:.3f}>=floor {floor:.3f} "
        f"uniform={uniform.empirical_mean_gap:.3f} student_t={heavy.empirical_mean_gap:.3f} "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_cluster_beats_full_pool(benchmark_seeds):
    # Expected to fail under the energy-0.95 rule; see the module docstring.
    started = time.monotonic()
    dataset_seeds, harness_seeds = benchmark_seeds
    design = PlaceboDesign(RIDGE, ENERGY, k=2)
    details = []
    ok = True
    for row, s in enumerate((0.1, 0.25, 0.4)):
        wins = 0
        pooled = []
        for d in range(50):
            dataset = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 200, 200, 10, 8,
                NoiseSpec.gaussian(s), seed=int(dataset_seeds[d]),
            )
            report = leave_one_out_placebo(
                dataset, 0.3, design,
                np.random.default_rng(int(harness_seeds[row, d])),
                cluster_mode="per_dataset",
            )
            if report.medians["cluster_sc"]["post_mse"] < report.medians["sc_full"]["post_mse"]:
                wins += 1
            pooled.extend(report.improvements["values"])
        median_i = float(np.median(pooled))
        ok &= wins >= 45
        if s >= 0.25:
            ok &= median_i > 0
        details.append(f"s={s}: wins={wins}/50 median_I={median_i:+.5f}")

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 600.0
    line = verdict(4, "cluster beats full pool", ok, "; ".join(details) + f" {elapsed:.0f}s")
    assert ok, line


def test_criterion_5_lasso_precision_and_cluster_recovery(benchmark_seeds):
    dataset_seeds, harness_seeds = benchmark_seeds
    design = PlaceboDesign(LASSO, ENERGY, k=2)
    precision_wins = 0
    for d in range(50):
        dataset = gen_dataset(
            GROUP_A_SPEC, GROUP_B_SPEC, 200, 200, 10, 8,
            NoiseSpec.gaussian(0.4), seed=int(dataset_seeds[d]),
        )
        report = leave_one_out_placebo(
            dataset, 0.3, design,
            np.random.default_rng(int(harness_seeds[3, d])),
            cluster_mode="per_dataset",
        )
        medians = {}
        for name in ("sc_full", "cluster_sc"):
            values = [
                r.active_donor_precision
                for r in report.rows
                if r.variant == name and r.active_donor_precision is not None
            ]
            medians[name] = float(np.median(values))
        if medians["cluster_sc"] >= medians["sc_full"]:
            precision_wins += 1

    recovery = cluster_recovery_experiment(
        GROUP_A_SPEC, GROUP_B_SPEC, 200, 200, 10, 8, ENERGY,
        [NoiseSpec.gaussian(0.1)], 50, np.random.default_rng(BENCHMARK_SEED), k=2,
    )
    share = recovery.cells[0].precision_one_share

    ok = precision_wins >= 40 and share >= 0.60
    line = verdict(
        5, "lasso precision and cluster recovery", ok,
        f"precision_wins={precision_wins}/50 perfect_recovery_share={share:.2f}",
    )
    assert ok, line


def test_criterion_6_single_cluster_reduces_to_plain_sc():
    rng = np.random.default_rng(606)
    regs = [
        RegressionSpec("ols"),
        RegressionSpec("ridge", lam=0.05),
        RegressionSpec("lasso", lam=0.02),
    ]
    identical = 0
    for trial in range(20):
        m = int(rng.integers(8, 40))
        t = int(rng.integers(6, 15))
        t0 = int(rng.integers(max(2, t - 6), t - 1))
        split = InterventionSplit(t0, t)
        rank = int(rng.integers(1, min(m, t0)))
        donors = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, t))
        donors += 0.1 * rng.normal(size=(m, t))
        target = rng.normal(size=t)
        reg = regs[trial % 3]
        rule = RankRule.fixed(rank) if trial % 2 else RankRule.energy(0.9)

        plain_fit = sc_learn(donors, split, target[:t0], rule, reg)
        plain = sc_infer(plain_fit, split, target)
        estimate, cluster_fit, model = cluster_sc(donors, split, target, rule, reg, k=1)
        identical += (
            np.array_equal(plain.counterfactual_post, estimate.counterfactual_post)
            and np.array_equal(plain.effect, estimate.effect)
            and np.array_equal(plain_fit.weights.values, cluster_fit.weights.values)
            and np.array_equal(plain_fit.denoised_donors, cluster_fit.denoised_donors)
            and plain_fit.rank_used == cluster_fit.rank_used
            and plain_fit.donor_ids == cluster_fit.donor_ids
            and model.k == 1
        )
    ok = identical == 20
    line = verdict(6, "single cluster reduces to plain sc", ok, f"{identical}/20 identical")
    assert ok, line


@pytest.mark.skipif(
    not (os.environ.get(HPI_FILE_ENV) and Path(os.environ[HPI_FILE_ENV]).exists()),
    reason=f"set {HPI_FILE_ENV} to a quarterly house-price CSV to run",
)
def test_criterion_7_house_price_panel_placebo():
    started = time.monotonic()
    result = preprocess_hpi(os.environ[HPI_FILE_ENV], ("1997Q1", "2006Q4"))
    panel = result.panel
    assert panel.split.t_total == 40 and panel.split.t0 == 36

    rule = RankRule.energy(0.95)
    details = []
    ok = True
    for i, reg in enumerate((
        RegressionSpec("ols"),
        RegressionSpec("ridge", lam=0.1),
        RegressionSpec("lasso", lam=0.1),
    )):
        design = PlaceboDesign(reg, rule, k=2, with_random_subset=True)
        report = split_placebo(
            panel, 0.8, 20, design, np.random.default_rng(7000 + i)
        )
        cluster = report.medians["cluster_sc"]["post_mse"]
        full = report.medians["sc_full"]["post_mse"]
        random_subset = report.medians["sc_random_subset"]["post_mse"]
        ok &= cluster < full and cluster < random_subset
        details.append(f"{reg.method}: cluster={cluster:.1f} full={full:.1f} random={random_subset:.1f}")

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 900.0
    line = verdict(7, "house price panel placebo", ok, "; ".join(details) + f" {elapsed:.0f}s")
    assert ok, line


def test_criterion_8_command_determinism(tmp_path):
    def hashes(directory: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    panel_dir = tmp_path / "panel_src"
    assert cli_main([
        "simulate", "--na", "10", "--nb", "10", "--seed", "40", "--out", str(panel_dir),
    ]) == 0
    panel_csv = str(panel_dir / "simulate_panel.csv")

    commands = {
        "simulate": ["simulate", "--na", "6", "--nb", "6", "--seed", "41"],
        "placebo-synthetic": [
            "placebo-synthetic", "--na", "10", "--nb", "10", "--datasets", "1",
            "--rule", "fixed:3", "--k", "2", "--seed", "42",
        ],
        "placebo-panel": [
            "placebo-panel", "--panel", panel_csv, "--t0", "8", "--iterations", "2",
            "--rule", "fixed:3", "--k", "2", "--seed", "43",
        ],
        "cluster": ["cluster", "--panel", panel_csv, "--t0", "8", "--k", "2", "--seed", "44"],
        "spectrum": ["spectrum", "--panel", panel_csv, "--t0", "8"],
        "gap-check": [
            "gap-check", "--n", "60", "--na", "30", "--trials", "3", "--seed", "45",
        ],
        "recovery-check": [
            "recovery-check", "--na", "8", "--nb", "8", "--datasets", "2",
            "--noise-grid", "gaussian:0.0,gaussian:0.2", "--rule", "fixed:6", "--seed", "46",
        ],
    }

    mismatched = []
    for name, argv in commands.items():
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        assert cli_main(argv + ["--out", str(first)]) == 0, name
        assert cli_main(argv + ["--out", str(second)]) == 0, name
        if hashes(first) != hashes(second):
            mismatched.append(name)

    ok = not mismatched
    line = verdict(
        8, "command determinism", ok,
        "all byte-identical" if ok else "mismatch: " + ", ".join(mismatched),
    )
    assert ok, line
