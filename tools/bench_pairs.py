"""Run perfbench on a parent commit and on the working tree, in alternating pairs.

    python3 tools/bench_pairs.py --parent REF --workloads loo-lasso \
        --seeds 301 302 303 --seconds 24 --out BENCH_<n>.json [--append]

Run from the root of a checkout. The parent's committed files are exported
with `git archive` into a temporary directory (nothing is registered in the
repository, and the directory is removed at the end); the working tree is
benchmarked where it stands. For every (workload, seed) pair the unchanged
`perfbench/run.py --trace 0` runs once on each side, one after the other,
and the side that runs first alternates from pair to pair.

The output JSON holds every run (its end-to-end metrics, output digests and
machine facts) and, per workload and end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the pairs each side won (ties count for
neither), the change/parent ratio of the medians, whether the change is
within the metric's bound, and whether a gain may be claimed (the change won
at least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles). Each run also keeps run.py's
plain-seconds fields (cells_per_s, call_s_p50, ref_s_mean), and per workload
each side's median cells_per_s and call_s_p50 are given as context, with no
bound and no gate (plain_seconds). Per workload it also counts the
pairs whose two sides wrote the same outputs_sha256 and first_call_sha256
(outputs_identical_pairs). --append adds the runs to those already in the
output file before summarising.

Both sides must run the same benchmark: when BENCHMARK.json or any file
under perfbench/ differs between the parent and the working tree, nothing
runs, the differing files are named on stderr and the exit status is 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
# output digests a pair must share for its two sides to count as byte-identical
DIGESTS = ("outputs_sha256", "first_call_sha256")
# the benchmark's own files, which must be the same on both sides
BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")
# directories that running the benchmark writes under perfbench/
RUN_OUTPUTS = {"__pycache__", "_work"}
# run.py's throughput and call time in plain seconds, summarised as context
# with no bound: against cells_per_ref they tell a change in the work from
# a drift of the reference kernel
PLAIN_SECONDS = ("cells_per_s", "call_s_p50")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true",
                        help="keep the runs already in --out and add these")
    return parser.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def working_tree_commit() -> str:
    """The working tree, named by its HEAD and marked when it has local edits."""
    return git("rev-parse", "HEAD") + ("+edits" if git("status", "--porcelain") else "")


def export_commit(ref: str, dest: Path) -> str:
    """Write the committed files of ref into dest; return the full hash."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    archive = dest / "parent.tar"
    git("archive", "--output", str(archive), commit)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return commit


def benchmark_files(tree: Path) -> dict[str, bytes]:
    """The benchmark's files in tree, by path relative to it."""
    files = {}
    for name in BENCHMARK_FILES:
        path = tree / name
        for f in [path] if path.is_file() else sorted(path.rglob("*")):
            rel = f.relative_to(tree)
            if f.is_file() and not RUN_OUTPUTS & set(rel.parts):
                files[rel.as_posix()] = f.read_bytes()
    return files


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """Benchmark files whose bytes differ between two trees or that only
    one of them has."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; its result line, with the record before it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "detail": {key: detail.get(key) for key in (
            "calls", "outputs_sha256", "first_call_sha256", "cluster_post_mse_p50",
            "errors", "machine", *PLAIN_SECONDS, "ref_s_mean")},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if {"parent", "change"} <= p.keys()]
        rows = {}
        for spec in end_to_end:
            name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            ps, cs = quartiles(parent), quartiles(change)
            # relative worsening of the change's median, positive when worse
            worse = sign * (ps["median"] - cs["median"]) / abs(ps["median"]) if ps["median"] else 0.0
            rows[name] = {
                "parent": ps,
                "change": cs,
                "change_wins": wins,
                "parent_wins": losses,
                "pairs": len(pairs),
                "ratio": cs["median"] / ps["median"] if ps["median"] else None,
                "bound": spec["bound"],
                "within_bound": worse <= spec["bound"],
                "gain_claimable": wins >= 0.9 * len(pairs)
                and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
            }
        rows["plain_seconds"] = {}
        for name in PLAIN_SECONDS:
            # None for a side with a run recorded before these fields were kept
            values = {side: [p[side]["detail"].get(name) for p in pairs]
                      for side in ("parent", "change")}
            rows["plain_seconds"][name] = {
                side: statistics.median(v) if v and None not in v else None
                for side, v in values.items()
            }
        rows["all_runs_correct"] = all(p[s]["correct"] for p in pairs for s in p)
        rows["outputs_identical_pairs"] = sum(
            all(p["parent"]["detail"][key] == p["change"]["detail"][key] for key in DIGESTS)
            for p in pairs
        )
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = json.loads(args.out.read_text())["runs"] if args.append and args.out.exists() else []
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent_commit = export_commit(args.parent, tmp)
        trees = {"parent": tmp / "tree", "change": ROOT}
        differ = benchmark_differences(trees["parent"], trees["change"])
        if differ:
            print(f"{args.parent} and the working tree run different benchmark code: "
                  + ", ".join(differ), file=sys.stderr)
            return 2
        change_commit = working_tree_commit()
        order = 0
        for workload in args.workloads:
            for seed in args.seeds:
                sides = ("parent", "change") if order % 2 == 0 else ("change", "parent")
                order += 1
                for position, side in enumerate(sides):
                    run = run_once(trees[side], workload, seed, args.seconds)
                    run.update(workload=workload, seed=seed, seconds=args.seconds, side=side,
                               ran_first=position == 0,
                               commit=parent_commit if side == "parent" else change_commit)
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: "
                          + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                          flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "parent": args.parent,
        "parent_commit": parent_commit,
        "summary": summarise(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
