"""Time the k-means layers of a parent commit and of the working tree, interleaved.

    taskset -c 0 python3 tools/kmeans_layers.py --parent REF --repeats 200 \
        --out BENCH_<n>_kmeans.json

Run from the root of a checkout. The parent's committed files are exported
as tools/bench_pairs.py does, and both sides' packages are loaded into this
one process under names of their own, so every call of one side is followed
by the same call of the other (the side that goes first alternates).

Three layers are timed apart on embeddings shaped like the benchmark's (the
two-group design, T0 = 8, rank rule energy 0.95, noise 0.25): D^2 seeding
(`_draw_centers(points, k, rngs)`, KMEANS_RESTARTS restarts), the lockstep
Lloyd loop (`_lloyd_runs(points, centers)`, from those seeds) and
`silhouette` (with the pairwise distances given, as `choose_k` calls it).
Both sides must share those signatures. The cases are a leave-one-out
cluster pool, 399 x r at k = 2, and a placebo-panel training set, 320 x r at
k = 2..8. The generators and the starting centers are built outside the
timed calls, and each call's result is checked to be the same bytes on both
sides.

The output JSON holds, per case and layer, each side's median and quartiles
in microseconds and the change/parent ratio of the medians. Pin the process
to one CPU (taskset) to keep the two sides on the same core.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import numpy as np
from scipy.spatial.distance import cdist

from bench_pairs import ROOT, export_commit, quartiles, working_tree_commit

LOO_UNITS = 399  # a 200 + 200 panel less the target
SPLIT_UNITS = 320  # placebo-panel's 80% training share of 400 units
SPLIT_KS = range(2, 9)  # AUTO_K_RANGE
DATA_SEED = 2301
NOISE = 0.25  # the default of placebo-synthetic and simulate


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--repeats", type=int, default=200, help="timed calls per side and layer")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def load_package(alias: str, source: Path):
    """The clustersc package under source, imported as alias."""
    spec = importlib.util.spec_from_file_location(
        alias, source / "__init__.py", submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


def embeddings(pkg) -> dict[str, np.ndarray]:
    """The two workload-shaped embeddings, built with one side's package."""
    datagen = importlib.import_module(f"{pkg.__name__}.datagen")
    linalg = importlib.import_module(f"{pkg.__name__}.linalg")
    data = datagen.gen_dataset(datagen.GROUP_A_SPEC, datagen.GROUP_B_SPEC, 200, 200, 10, 8,
                               datagen.NoiseSpec("gaussian", (NOISE,)), DATA_SEED)
    pre = data.panel.values[:, :8]
    rows = {"loo": np.arange(1, 1 + LOO_UNITS),
            "split": np.random.default_rng(DATA_SEED).permutation(len(pre))[:SPLIT_UNITS]}
    out = {}
    for name, take in rows.items():
        factors = linalg.svd(pre[take])
        r = linalg.select_rank(factors.sigma, linalg.RankRule.energy(0.95))
        out[name] = factors.u[:, :r] * factors.sigma[:r]
    return out


def layer_calls(cluster, points, k: int, seeds, dists):
    """The three timed calls of one side on one case, each as (prepare, call):
    prepare builds the arguments outside the timing."""

    def rngs():
        return [np.random.default_rng(int(s)) for s in seeds]

    centers = cluster._draw_centers(points, k, rngs())
    labels, inertias = cluster._lloyd_runs(points, centers.copy())
    best = min(range(len(inertias)), key=inertias.__getitem__)
    partition = cluster.Partition(labels[best] + 1, k)
    return {
        "draw_centers": (lambda: (points, k, rngs()), cluster._draw_centers),
        "lloyd_runs": (lambda: (points, centers.copy()), cluster._lloyd_runs),
        "silhouette": (lambda: (points, partition, dists), cluster.silhouette),
    }


def as_bytes(value) -> bytes:
    """A call's result as bytes: arrays by their buffer, anything else by repr."""
    if isinstance(value, tuple):
        return b"|".join(as_bytes(v) for v in value)
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()


def time_case(sides: dict, points, k: int, seeds, dists, repeats: int) -> dict:
    calls = {side: layer_calls(cluster, points, k, seeds, dists) for side, cluster in sides.items()}
    results = {}
    for layer in calls["parent"]:
        times = {side: [] for side in sides}
        for rep in range(repeats):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            out = {}
            for side in order:
                prepare, fn = calls[side][layer]
                args = prepare()
                start = perf_counter_ns()
                out[side] = fn(*args)
                times[side].append((perf_counter_ns() - start) / 1e3)
            if as_bytes(out["parent"]) != as_bytes(out["change"]):
                raise AssertionError(f"{layer} at k={k}: the two sides return different bytes")
        summary = {side: quartiles(t) for side, t in times.items()}
        summary["ratio"] = summary["change"]["median"] / summary["parent"]["median"]
        results[layer] = summary
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="kmeans_layers_"))
    try:
        parent_commit = export_commit(args.parent, tmp)
        pkgs = {"parent": load_package("parent_clustersc", tmp / "tree" / "src" / "clustersc"),
                "change": load_package("change_clustersc", ROOT / "src" / "clustersc")}
        sides = {side: importlib.import_module(f"{pkg.__name__}.cluster")
                 for side, pkg in pkgs.items()}
        restarts = sides["change"].KMEANS_RESTARTS
        seeds = np.random.default_rng(DATA_SEED).integers(0, 2**63 - 1, size=restarts)
        cases = [("loo", 2)] + [("split", k) for k in SPLIT_KS]
        points = embeddings(pkgs["change"])
        rows = []
        for name, k in cases:
            pts = points[name]
            layers = time_case(sides, pts, k, seeds, cdist(pts, pts), args.repeats)
            rows.append({"case": name, "m": pts.shape[0], "r": pts.shape[1], "k": k,
                         "layers": layers})
            print(f"{name} {pts.shape[0]} x {pts.shape[1]} k={k}: " + ", ".join(
                f"{layer} {v['parent']['median']:.0f} -> {v['change']['median']:.0f} us"
                f" (x{v['ratio']:.3f})" for layer, v in layers.items()), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    change_commit = working_tree_commit()
    record = {
        "parent": args.parent,
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "repeats": args.repeats,
        "unit": "us",
        "machine": {"cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
                    "numpy": np.__version__},
        "cases": rows,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
