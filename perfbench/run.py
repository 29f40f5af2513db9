"""clustersc benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/. The
process is a closed loop with a single caller: it issues
`clustersc.cli.main(argv)` calls back to back, in-process, with no worker
threads or processes of its own and BLAS at its default thread count.

Call times are also expressed in "ref" units: the wall time of a fixed
reference kernel (reference.py) timed right before each call, which cancels
most of the drift in CPU speed on a shared virtual machine.

--trace 0 prints the end-to-end metrics:
    cells_per_ref     placebo cells (target x variant) per ref of call time:
                      cells x sum(ref) / (calls x sum(call time))
    call_ref_p50      median over calls of call time / its ref
    setup_s           median, over fresh interpreters, of process spawn to
                      workload ready: cold `import clustersc` plus inputs
    peak_rss_mb       ru_maxrss of this process
    completed_share   1 - (cells skipped or in a failed call) / cells attempted
The record before the result line carries the same throughput and median in
plain seconds (cells_per_s, call_s_p50), and cluster_post_mse_p50, the median
post-period MSE of cluster_sc over the first min_calls calls: fixed by the
seed and a guard against speed bought with accuracy, but not a bounded metric,
because it varies too much from seed to seed.
--trace 1 runs each call untraced and then traced, and prints per-layer
metrics from the traced calls plus the tracing overhead (see tracer.py).

Every call must exit 0 and its output files must pass the checks in
workloads.py; the first call is rerun and must rewrite identical bytes, and
traced calls must write the same bytes as untraced ones. The second-to-last
stdout line is a JSON record of call counts, output digests, check results
and machine facts; the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import reference_seconds
from workloads import WORKLOADS, call_argv, call_seeds, expected_cells, prepare, read_call_output

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="20 + 20 units and one set-up probe, for the smoke test")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def machine_facts(load_start) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "caches": "warm: the page cache cannot be reset here, so setup_s is a warm-cache import",
    }


def run_setup_probes(workload, seed, work: Path, tiny: bool, count: int):
    """Wall seconds of `count` fresh-interpreter set-ups, and their import times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, imports = [], []
    for j in range(count):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed),
               str(work / f"probe{j}"), "1" if tiny else "0"]
        start = perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    return walls, imports


class Caller:
    """Issues the workload's CLI calls and checks what each one wrote."""

    def __init__(self, cli, workload, context, seed):
        self.cli = cli  # the module: main is looked up per call, so tracing sees it
        self.workload = workload
        self.context = context
        self.seeds = call_seeds(workload.name, seed)
        self.argvs: list[list[str]] = []
        self.errors: list[str] = []

    def argv(self, index: int) -> list[str]:
        while len(self.argvs) <= index:
            i = len(self.argvs)
            self.argvs.append(
                call_argv(self.workload, self.context, i, next(self.seeds), f"call{i}")
            )
        return self.argvs[index]

    def call(self, index: int):
        """(wall seconds, reference seconds just before, CallOutput or None
        when the call failed)."""
        argv = self.argv(index)
        ref = reference_seconds()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed call, reported, not fatal
                traceback.print_exc()
                code = None
            seconds = perf_counter() - start
        if code != 0:
            self.errors.append(f"call {index} exited with {code}: {' '.join(argv)}")
            return seconds, ref, None
        output = read_call_output(self.workload, self.context, f"call{index}")
        self.errors.extend(f"call {index}: {e}" for e in output.errors)
        return seconds, ref, output


def end_to_end(caller, workload, context, seconds, setup_walls, detail) -> tuple[dict, int, int]:
    times, refs, outputs = [], [], []
    start = perf_counter()
    while len(times) < workload.min_calls or perf_counter() - start < seconds:
        wall, ref, output = caller.call(len(times))
        times.append(wall)
        refs.append(ref)
        outputs.append(output)

    # untimed: the first call again must rewrite the same bytes
    _, _, rerun = caller.call(0)
    if outputs[0] is not None and (rerun is None or rerun.digest != outputs[0].digest):
        caller.errors.append("rerun of the first call wrote different bytes")

    per_call = expected_cells(workload, context)
    attempted = per_call * len(times)
    failed = sum(per_call if o is None else o.skipped for o in outputs)
    fixed = outputs[: workload.min_calls]
    cluster_post = [v for o in fixed if o is not None for v in o.cluster_post_mse]
    detail.update(
        calls=len(times),
        cells_per_call=per_call,
        cells_per_s=attempted / sum(times),
        call_s_p50=statistics.median(times),
        call_s_p90=statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        ref_s_mean=statistics.fmean(refs),
        skipped_cells=sum(o.skipped for o in outputs if o is not None),
        failed_calls=sum(o is None for o in outputs),
        min_calls=workload.min_calls,
        outputs_sha256=hashlib.sha256(
            "\n".join(o.digest if o else "failed" for o in fixed).encode()
        ).hexdigest(),
        first_call_sha256=outputs[0].digest if outputs[0] else None,
        cluster_post_mse_p50=statistics.median(cluster_post) if cluster_post else None,
        cluster_post_mse_cells=len(cluster_post),
    )
    metrics = {
        "cells_per_ref": (attempted * sum(refs) / (len(times) * sum(times)), "1/ref"),
        "call_ref_p50": (statistics.median(t / r for t, r in zip(times, refs)), "ref"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "completed_share": (1.0 - failed / attempted, "share"),
    }
    return metrics, attempted, failed


def traced(caller, workload, context, seconds, import_times, detail) -> tuple[dict, int, int]:
    from tracer import Tracer

    tracer = Tracer()
    plain, traced_times = [], []
    failed = 0
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        index = len(plain)
        wall, _, output = caller.call(index)
        plain.append(wall)
        tracer.call_id = index
        tracer.install()
        try:
            traced_wall, _, traced_output = caller.call(index)
        finally:
            tracer.uninstall()
        traced_times.append(traced_wall)
        if output is None or traced_output is None:
            failed += expected_cells(workload, context)
        elif traced_output.digest != output.digest:
            caller.errors.append(f"call {index}: traced output differs from untraced")
        else:
            failed += output.skipped

    # the first call carries one-off warm-up in its untraced half only
    skip = 1 if len(plain) > 1 else 0
    overhead = sum(traced_times[skip:]) / sum(plain[skip:]) - 1.0
    trace_path = HERE / "_work" / f"trace-{workload.name}.jsonl"
    tracer.write_spans(trace_path)
    counters = tracer.counters()
    detail.update(
        calls=len(plain),
        bindings_wrapped=tracer.bindings,
        spans=len(tracer.spans),
        trace_file=str(trace_path.relative_to(HERE.parent)),
        lasso_fits=counters["regression.lasso_fits"],
        rank_selections=counters["linalg.rank_selections"],
        wait_time="none: one caller, and no layer queues work",
    )
    metrics = {}
    for name, stats in tracer.layer_stats().items():
        metrics[f"{name}.calls"] = (stats["calls"], "count")
        metrics[f"{name}.busy_s"] = (stats["busy_s"], "s")
        metrics[f"{name}.self_s"] = (stats["self_s"], "s")
        metrics[f"{name}.p50_ms"] = (stats["p50_ms"], "ms")
    for name, unit in PER_LAYER_COUNTERS.items():
        metrics[name] = (counters[name], unit)
    metrics["import.clustersc_s"] = (statistics.median(import_times), "s")
    metrics["trace.overhead_share"] = (overhead, "share")
    return metrics, expected_cells(workload, context) * len(plain), failed


PER_LAYER_COUNTERS = {
    "regression.lasso_gap_max": "objective",
    "regression.lasso_unconverged": "count",
    "regression.lasso_gap_over_tol": "count",
    "linalg.rank_saturated_share": "share",
    "reporting.bytes_written": "bytes",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clustersc" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    try:
        setup_walls, import_times = run_setup_probes(
            workload, args.seed, work, args.tiny, 1 if args.tiny else SETUP_PROBES
        )
        sys.path.insert(0, str(SRC))
        import clustersc.cli

        context = prepare(workload, args.seed, work / "run", args.tiny)
        caller = Caller(clustersc.cli, workload, context, args.seed)
        detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
        if args.trace:
            metrics, attempted, failed = traced(
                caller, workload, context, args.seconds, import_times, detail
            )
        else:
            metrics, attempted, failed = end_to_end(
                caller, workload, context, args.seconds, setup_walls, detail
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["errors"] = caller.errors
    detail["machine"] = machine_facts(load_start)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not caller.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
