"""Process wall times of the seven CLI commands at their default flags, on a
parent commit and on the working tree, in alternating order.

    python3 tools/cli_times.py --parent REF --runs 5 --out cli_times.json

Run from the root of a checkout. The parent's committed files are exported
as tools/bench_pairs.py does. Each run is one fresh `python3 -m clustersc`
process, timed from spawn to exit, with only the flags a command requires:
--seed 1, and for the panel commands a panel written beforehand by
`simulate --seed 1` with --t0 8. For every command and run, both sides run
one after the other, and the side that runs first alternates from run to
run. The output JSON holds every time and, per command, each side's median
and the parent/change ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import ROOT, export_commit, working_tree_commit

COMMANDS = {
    "simulate": ["simulate", "--seed", "1"],
    "spectrum": ["spectrum", "--panel", "{panel}", "--t0", "8"],
    "gap-check": ["gap-check", "--seed", "1"],
    "cluster": ["cluster", "--panel", "{panel}", "--t0", "8", "--seed", "1"],
    "placebo-synthetic": ["placebo-synthetic", "--seed", "1"],
    "placebo-panel": ["placebo-panel", "--panel", "{panel}", "--t0", "8", "--seed", "1"],
    "recovery-check": ["recovery-check", "--seed", "1"],
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def run_command(tree: Path, argv: list[str], out: Path) -> float:
    """Wall seconds of one `python3 -m clustersc argv` process in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "clustersc", *argv, "--out", str(out)],
                   cwd=tree, env=env, check=True, capture_output=True, timeout=600)
    return perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="cli_times_"))
    try:
        parent_commit = export_commit(args.parent, tmp)
        trees = {"parent": tmp / "tree", "change": ROOT}
        run_command(ROOT, ["simulate", "--seed", "1", "--stem", "panel"], tmp / "panel")
        panel = str(tmp / "panel" / "panel_panel.csv")
        times = {name: {"parent": [], "change": []} for name in COMMANDS}
        for name, command in COMMANDS.items():
            command = [arg.format(panel=panel) for arg in command]
            for i in range(args.runs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    out = tmp / "out" / side
                    times[name][side].append(run_command(trees[side], command, out))
                    shutil.rmtree(out)
            print(f"{name}: " + ", ".join(
                f"{side} {statistics.median(t):.3f} s" for side, t in times[name].items()
            ), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    change_commit = working_tree_commit()
    summary = {
        name: {
            "parent_median_s": statistics.median(t["parent"]),
            "change_median_s": statistics.median(t["change"]),
            "speedup": statistics.median(t["parent"]) / statistics.median(t["change"]),
        }
        for name, t in times.items()
    }
    record = {"parent_commit": parent_commit, "change_commit": change_commit,
              "runs": args.runs, "summary": summary, "times_s": times}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
