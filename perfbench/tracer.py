"""Span tracer for the traced benchmark run.

The tracer replaces each layer function listed in LAYERS with a wrapper at
every binding site inside the clustersc package. Modules copy names with
`from .x import y`, so patching only the defining module would miss most
calls: `engine.fit`, `evaluate.sc_learn` and `cli.write_json` are bindings of
their own. A wrapper records one span per call (name, start, end, parent span,
CLI call id) in memory; spans are written out once, when the run ends.

Besides spans, three wrappers record counters where the work happens:

- `regression.fit`: spans are named by method (`regression.fit.lasso`). After
  a lasso span closes, the fit's duality gap is computed from the design,
  target, weights and penalty (Gap Safe form, Ndiaye et al. 2017), along with
  the solver's own `converged` flag.
- `linalg.select_rank`: a selection is saturated when the chosen rank is at
  least len(sigma) - 1, i.e. hard thresholding keeps almost every direction.
- `reporting.write_json` / `write_plot_csv`: bytes of the file written.

Counter work runs outside the span, so it does not inflate layer times, but it
does count towards the traced run's wall time and so towards the reported
tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

# module -> functions wrapped; the span of a function is "<module>.<name>"
LAYERS = {
    "linalg": ("svd", "select_rank"),
    "regression": ("fit", "active_set"),
    "cluster": (
        "kmeans_pp_init", "lloyd", "best_lloyd", "fit_cluster_model",
        "silhouette", "assign_target",
    ),
    "engine": ("sc_learn", "sc_infer", "cluster_sc"),
    "datagen": ("gen_dataset",),
    "panel": ("load_panel_csv",),
    "evaluate": (
        "leave_one_out_placebo", "split_placebo", "donor_selection_scores",
        "random_subset_variant",
    ),
    "reporting": ("write_json", "write_plot_csv"),
    "cli": ("main",),
}

# regression.fit spans are named per method; no workload fits OLS
FIT_METHODS = ("lasso", "ridge")


def span_names() -> list[str]:
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if (module, fn) == ("regression", "fit"):
                names.extend(f"regression.fit.{m}" for m in FIT_METHODS)
            else:
                names.append(f"{module}.{fn}")
    return names


def lasso_duality_gap(design, target, values, lam) -> float:
    """Duality gap of (1/(2 T0)) ||y - X f||^2 + lam ||f||_1 at f.

    The dual point is the rescaled residual theta = rho / max(T0 lam,
    ||X^T rho||_inf), which is always dual feasible, so the gap bounds the
    primal suboptimality from above.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    values = np.asarray(values, dtype=float)
    t0 = design.shape[0]
    scaled_lam = t0 * lam
    resid = target - design @ values
    denom = max(scaled_lam, float(np.abs(design.T @ resid).max()))
    scale = scaled_lam / denom if denom > 0 else 1.0
    primal = 0.5 * float(resid @ resid) + scaled_lam * float(np.abs(values).sum())
    shifted = target - scale * resid
    dual = 0.5 * float(target @ target) - 0.5 * float(shifted @ shifted)
    return max(primal - dual, 0.0) / t0


class Tracer:
    """Wraps the layer functions of an imported clustersc package."""

    def __init__(self):
        self.spans: list = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.bindings: dict[str, int] = {}
        self.lasso_gaps: list[float] = []
        self.lasso_unconverged = 0
        self.lasso_tol_exceeded = 0
        self.rank_selections = 0
        self.rank_saturated = 0
        self.bytes_written = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "clustersc" or name.startswith("clustersc.")
        ]
        for module, functions in LAYERS.items():
            home = sys.modules[f"clustersc.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                count = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
                            count += 1
                self.bindings[f"{module}.{fn_name}"] = count

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        after = {
            "regression.fit": self._after_fit,
            "linalg.select_rank": self._after_select_rank,
            "reporting.write_json": self._after_write,
            "reporting.write_plot_csv": self._after_write,
        }.get(name)
        is_fit = name == "regression.fit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_name = name
                if is_fit:
                    spec = args[2] if len(args) > 2 else kwargs["spec"]
                    span_name = f"{name}.{spec.method}"
                spans[span_id] = (span_id, parent, self.call_id, span_name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _after_fit(self, args, kwargs, result) -> None:
        names = ("design", "target", "spec")
        bound = dict(zip(names, args))
        bound.update((k, v) for k, v in kwargs.items() if k in names)
        spec = bound["spec"]
        if spec.method != "lasso":
            return
        gap = lasso_duality_gap(bound["design"], bound["target"], result.values, spec.lam)
        self.lasso_gaps.append(gap)
        if not result.converged:
            self.lasso_unconverged += 1
        if gap > spec.lasso_tol:
            self.lasso_tol_exceeded += 1

    def _after_select_rank(self, args, kwargs, result) -> None:
        sigma = args[0] if args else kwargs["sigma"]
        self.rank_selections += 1
        if result >= len(sigma) - 1:
            self.rank_saturated += 1

    def _after_write(self, args, kwargs, result) -> None:
        self.bytes_written += os.path.getsize(result)

    # -- results ------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, median ms."""
        durations: dict[str, list[float]] = {}
        child_time = [0.0] * len(self.spans)
        for span_id, parent, _call, name, start, end in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        for span_id, _parent, _call, name, start, end in self.spans:
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[span_id]
        stats = {}
        for name in span_names():
            d = durations.get(name, [])
            stats[name] = {
                "calls": len(d),
                "busy_s": float(sum(d)),
                "self_s": float(self_time.get(name, 0.0)),
                "p50_ms": float(np.median(d) * 1e3) if d else 0.0,
            }
        return stats

    def counters(self) -> dict:
        return {
            "regression.lasso_fits": len(self.lasso_gaps),
            "regression.lasso_gap_max": max(self.lasso_gaps, default=0.0),
            "regression.lasso_unconverged": self.lasso_unconverged,
            "regression.lasso_gap_over_tol": self.lasso_tol_exceeded,
            "linalg.rank_selections": self.rank_selections,
            "linalg.rank_saturated_share": (
                self.rank_saturated / self.rank_selections if self.rank_selections else 0.0
            ),
            "reporting.bytes_written": self.bytes_written,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, call, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
