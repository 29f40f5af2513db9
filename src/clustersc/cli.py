"""Command-line surface over the library.

Subcommands
    simulate          generate a synthetic two-group panel and write it out
    placebo-synthetic leave-one-out placebo benchmark on generated panels
    placebo-panel     repeated-split placebo benchmark on an observed panel
    cluster           fit the donor clustering for a panel and report it
    spectrum          singular values and cumulative energy of a panel
    gap-check         Monte-Carlo singular value gap experiment
    recovery-check    planted-partition recovery across a noise grid

Every experiment command takes --seed (required; runs are reproducible to
the byte) and --out for the output directory. When --out is absent the
CLUSTERSC_OUT_DIR environment variable is used, then the current directory.

Grammars used by several flags:
    noise   kind:params, e.g. gaussian:0.3, uniform:0.5, student_t:4:0.3
    rule    fixed:R or energy:THRESHOLD; energy:THRESHOLD:squared for the
            squared-energy variant
    k       a positive integer or the word auto

A --config file (INI) can supply any flag's value: one section per
subcommand, keys named like the flags without the leading dashes (hyphens
and underscores are interchangeable). Flags given on the command line
override the file. Example:

    [gap-check]
    n = 1000
    na = 500
    noise = gaussian:0.3

Exit codes: 0 success, 1 runtime failure (bad input data, I/O), 2 usage.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

import numpy as np

from .cluster import fit_cluster_model
from .datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from .errors import ClusterScError, ConfigError
from .evaluate import (
    MethodVariant,
    SEED_CEILING,
    cluster_recovery_experiment,
    leave_one_out_placebo,
    singular_gap_experiment,
    split_placebo,
)
from .linalg import RankRule, spectrum_report
from .panel import TimePanel, load_panel_csv, preprocess_hpi, save_panel_csv
from .regression import RegressionSpec
from .reporting import (
    cluster_plot_rows,
    gap_plot_rows,
    noise_tag,
    placebo_plot_rows,
    recovery_plot_rows,
    rule_tag,
    spectrum_plot_rows,
    write_json,
    write_report,
)

__all__ = ["OUT_DIR_ENV", "build_parser", "cli_dispatch", "main"]

OUT_DIR_ENV = "CLUSTERSC_OUT_DIR"

# spectrum is a pure report of its input; everything else draws random numbers
STOCHASTIC_COMMANDS = (
    "simulate",
    "placebo-synthetic",
    "placebo-panel",
    "cluster",
    "gap-check",
    "recovery-check",
)


def parse_noise(text: str) -> NoiseSpec:
    """Parse kind:params noise grammar, e.g. gaussian:0.3 or student_t:4:0.3."""
    parts = text.split(":")
    kind = parts[0].strip().lower()
    try:
        params = tuple(float(p) for p in parts[1:])
    except ValueError:
        raise ConfigError(f"noise {text!r}: parameters must be numbers") from None
    try:
        if kind == "gaussian" and len(params) == 1:
            return NoiseSpec.gaussian(params[0])
        if kind == "uniform" and len(params) == 1:
            return NoiseSpec.uniform(params[0])
        if kind == "student_t" and len(params) == 2:
            return NoiseSpec.student_t(*params)
    except ConfigError:
        raise
    except ClusterScError as exc:
        raise ConfigError(f"noise {text!r}: {exc}") from None
    raise ConfigError(
        f"noise {text!r}: expected gaussian:SD, uniform:HALF_WIDTH, "
        f"or student_t:DOF:SCALE"
    )


def parse_noise_grid(text: str) -> list[NoiseSpec]:
    """Comma-separated list of noise specs."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError("noise grid is empty")
    return [parse_noise(item) for item in items]


def parse_rule(text: str) -> RankRule:
    """Parse fixed:R, energy:THRESHOLD, or energy:THRESHOLD:squared."""
    parts = [p.strip() for p in text.split(":")]
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return RankRule.fixed(int(parts[1]))
        if parts[0] == "energy" and len(parts) == 2:
            return RankRule.energy(float(parts[1]))
        if parts[0] == "energy" and len(parts) == 3 and parts[2] == "squared":
            return RankRule.energy(float(parts[1]), squared=True)
    except ConfigError:
        raise
    except (ValueError, ClusterScError) as exc:
        raise ConfigError(f"rule {text!r}: {exc}") from None
    raise ConfigError(
        f"rule {text!r}: expected fixed:R, energy:T, or energy:T:squared"
    )


def parse_k(text: str):
    """'auto' or a positive integer."""
    text = text.strip().lower()
    if text == "auto":
        return "auto"
    try:
        k = int(text)
    except ValueError:
        raise ConfigError(f"k {text!r}: expected 'auto' or an integer") from None
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return k


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _add_out_and_config(sub) -> None:
    sub.add_argument("--out", default=None, help="output directory (default: $CLUSTERSC_OUT_DIR or .)")
    sub.add_argument("--config", default=None, help="INI file supplying flag defaults")


def _add_seed(sub, required_note="required") -> None:
    sub.add_argument("--seed", type=int, default=None, help=f"master random seed ({required_note})")


def _add_estimator_flags(sub, default_lam: float) -> None:
    sub.add_argument("--method", choices=("ols", "ridge", "lasso"), default="ridge",
                     help="regression flavor for the weights")
    sub.add_argument("--lam", type=float, default=default_lam,
                     help="regularization strength for ridge/lasso")
    sub.add_argument("--rule", type=parse_rule, default="energy:0.95",
                     help="rank rule, e.g. energy:0.95 or fixed:6")
    sub.add_argument("--cluster-rule", type=parse_rule, default=None,
                     help="rank rule for the clustered run (default: same as --rule)")
    sub.add_argument("--k", type=parse_k, default=2, help="cluster count or auto")
    sub.add_argument("--with-random-subset", action="store_true",
                     help="add the size-matched random donor subset baseline")
    sub.add_argument("--restarts", type=int, default=10, help="k-means restarts")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="clustersc",
        description="Cluster synthetic control experiments and reports.",
        epilog=f"Output directory defaults to ${OUT_DIR_ENV} when --out is absent.",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")
    subs = {}

    sub = subs["simulate"] = commands.add_parser(
        "simulate", help="generate a two-group synthetic panel and write it out"
    )
    sub.add_argument("--na", type=int, default=200, help="group A size")
    sub.add_argument("--nb", type=int, default=200, help="group B size")
    sub.add_argument("--t", type=int, default=10, help="total periods")
    sub.add_argument("--t0", type=int, default=8, help="pre-intervention periods")
    sub.add_argument("--noise", type=parse_noise, default="gaussian:0.25",
                     help="noise spec, e.g. gaussian:0.3")
    sub.add_argument("--stem", default="simulate", help="output file stem")
    _add_seed(sub)
    _add_out_and_config(sub)

    sub = subs["placebo-synthetic"] = commands.add_parser(
        "placebo-synthetic",
        help="leave-one-out placebo benchmark over generated datasets",
    )
    sub.add_argument("--na", type=int, default=200)
    sub.add_argument("--nb", type=int, default=200)
    sub.add_argument("--t", type=int, default=10)
    sub.add_argument("--t0", type=int, default=8)
    sub.add_argument("--noise", type=parse_noise, default="gaussian:0.25")
    sub.add_argument("--datasets", type=int, default=5, help="datasets to generate")
    sub.add_argument("--target-fraction", type=float, default=0.3,
                     help="share of group A used as placebo targets")
    sub.add_argument("--cluster-mode", choices=("per_target", "per_dataset"),
                     default="per_target",
                     help="re-cluster per target (faithful) or once per dataset (fast)")
    _add_estimator_flags(sub, default_lam=0.01)
    sub.add_argument("--stem", default="placebo_synthetic", help="output file stem")
    _add_seed(sub)
    _add_out_and_config(sub)

    sub = subs["placebo-panel"] = commands.add_parser(
        "placebo-panel", help="repeated-split placebo benchmark on an observed panel"
    )
    sub.add_argument("--panel", default=None, help="wide panel CSV (unit,<label>,...)")
    sub.add_argument("--t0", default=None,
                     help="pre-period count or last pre-period label (with --panel)")
    sub.add_argument("--hpi", default=None,
                     help="long quarterly file to preprocess instead of --panel")
    sub.add_argument("--range", dest="date_range", default="1997Q1:2006Q4",
                     help="inclusive YYYYQn:YYYYQn window for --hpi")
    sub.add_argument("--train-fraction", type=float, default=0.8)
    sub.add_argument("--iterations", type=int, default=20)
    _add_estimator_flags(sub, default_lam=0.1)
    sub.add_argument("--stem", default="placebo_panel", help="output file stem")
    _add_seed(sub)
    _add_out_and_config(sub)

    sub = subs["cluster"] = commands.add_parser(
        "cluster", help="fit the donor clustering for a panel and report it"
    )
    sub.add_argument("--panel", required=True, help="wide panel CSV")
    sub.add_argument("--t0", required=True,
                     help="pre-period count or last pre-period label")
    sub.add_argument("--rule", type=parse_rule, default="energy:0.95")
    sub.add_argument("--k", type=parse_k, default="auto")
    sub.add_argument("--restarts", type=int, default=10)
    sub.add_argument("--stem", default="cluster", help="output file stem")
    _add_seed(sub)
    _add_out_and_config(sub)

    sub = subs["spectrum"] = commands.add_parser(
        "spectrum", help="singular values and cumulative energy of a panel"
    )
    sub.add_argument("--panel", required=True, help="wide panel CSV")
    sub.add_argument("--t0", default=None,
                     help="also report the pre-intervention block's spectrum")
    sub.add_argument("--stem", default="spectrum", help="output file stem")
    _add_out_and_config(sub)

    sub = subs["gap-check"] = commands.add_parser(
        "gap-check", help="Monte-Carlo singular value gap experiment"
    )
    sub.add_argument("--n", type=int, default=1000, help="pool size")
    sub.add_argument("--na", type=int, default=500, help="subgroup size")
    sub.add_argument("--t", type=int, default=10, help="periods")
    sub.add_argument("--rank", type=int, default=3, help="signal rank")
    sub.add_argument("--noise", type=parse_noise, default="gaussian:0.3")
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--stem", default="gap_check", help="output file stem")
    _add_seed(sub)
    _add_out_and_config(sub)

    sub = subs["recovery-check"] = commands.add_parser(
        "recovery-check", help="planted-partition recovery across a noise grid"
    )
    sub.add_argument("--na", type=int, default=20)
    sub.add_argument("--nb", type=int, default=20)
    sub.add_argument("--t", type=int, default=10)
    sub.add_argument("--t0", type=int, default=8)
    sub.add_argument("--rule", type=parse_rule, default="energy:0.95")
    sub.add_argument("--k", type=parse_k, default=2)
    sub.add_argument("--noise-grid", type=parse_noise_grid,
                     default="gaussian:0.0,gaussian:0.1,gaussian:0.25,gaussian:0.4")
    sub.add_argument("--datasets", type=int, default=5, help="datasets per noise level")
    sub.add_argument("--restarts", type=int, default=10)
    sub.add_argument("--stem", default="recovery_check", help="output file stem")
    _add_seed(sub)
    _add_out_and_config(sub)

    return parser, subs


def _convert_config_value(action, raw: str):
    if isinstance(action, argparse._StoreTrueAction):
        return _parse_bool(raw)
    if action.type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {action.dest!r}: expected an integer, got {raw!r}") from None
    if action.type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {action.dest!r}: expected a number, got {raw!r}") from None
    if callable(action.type):
        return action.type(raw)
    return raw


def load_config_defaults(path, command: str, sub: argparse.ArgumentParser) -> dict:
    """Read one subcommand's section into argparse defaults.

    Unknown keys are errors: a typo silently falling back to a default would
    change the experiment.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if command not in cp:
        return {}
    actions = {
        a.dest: a
        for a in sub._actions
        if a.dest not in ("help", "config")
    }
    defaults = {}
    for key, raw in cp.items(command):
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(
                f"{path} [{command}]: unknown key {key!r}"
            )
        defaults[dest] = _convert_config_value(actions[dest], raw)
    return defaults


def resolve_out_dir(out) -> Path:
    if out:
        return Path(out)
    env = os.environ.get(OUT_DIR_ENV, "").strip()
    return Path(env) if env else Path(".")


def _variants(args) -> list[MethodVariant]:
    reg = RegressionSpec(args.method, lam=args.lam)
    cluster_rule = args.cluster_rule if args.cluster_rule is not None else args.rule
    variants = [
        MethodVariant("sc_full", reg, args.rule),
        MethodVariant("cluster_sc", reg, cluster_rule, k=args.k),
    ]
    if args.with_random_subset:
        variants.append(MethodVariant("sc_random_subset", reg, args.rule))
    return variants


def _echo_variants(variants) -> list[dict]:
    return [
        {
            "name": v.name,
            "method": v.reg.method,
            "lam": v.reg.lam,
            "rule": rule_tag(v.rule),
            "k": v.k,
        }
        for v in variants
    ]


def _write_outputs(args, payload, plot_rows) -> int:
    """Write <stem>.json and <stem>_plot.csv under the output directory."""
    for path in write_report(payload, resolve_out_dir(args.out), args.stem, plot_rows=plot_rows):
        print(path)
    return 0


def cmd_simulate(args) -> int:
    out = resolve_out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = gen_dataset(
        GROUP_A_SPEC, GROUP_B_SPEC, args.na, args.nb, args.t, args.t0,
        args.noise, seed=args.seed,
    )
    panel_path = save_panel_csv(dataset.panel, out / f"{args.stem}_panel.csv")
    signal_panel = TimePanel(
        unit_ids=dataset.panel.unit_ids,
        time_labels=dataset.panel.time_labels,
        values=dataset.true_signal,
        split=dataset.panel.split,
    )
    signal_path = save_panel_csv(signal_panel, out / f"{args.stem}_signal.csv")
    meta = {
        "config": {
            "command": "simulate",
            "na": args.na,
            "nb": args.nb,
            "t": args.t,
            "t0": args.t0,
            "noise": noise_tag(args.noise),
            "seed": args.seed,
        },
        "groups": dict(zip(dataset.panel.unit_ids, dataset.group_labels)),
        "files": [panel_path.name, signal_path.name],
    }
    meta_path = write_json(meta, out / f"{args.stem}_meta.json")
    for path in (panel_path, signal_path, meta_path):
        print(path)
    return 0


def cmd_placebo_synthetic(args) -> int:
    variants = _variants(args)
    rng = np.random.default_rng(args.seed)
    dataset_seeds = rng.integers(0, SEED_CEILING, size=args.datasets)
    harness_seeds = rng.integers(0, SEED_CEILING, size=args.datasets)
    tag = noise_tag(args.noise)

    per_dataset = []
    plot_rows = []
    improvement_medians = []
    for di in range(args.datasets):
        dataset = gen_dataset(
            GROUP_A_SPEC, GROUP_B_SPEC, args.na, args.nb, args.t, args.t0,
            args.noise, seed=int(dataset_seeds[di]),
        )
        report = leave_one_out_placebo(
            dataset, args.target_fraction, variants,
            np.random.default_rng(harness_seeds[di]),
            cluster_mode=args.cluster_mode, restarts=args.restarts,
        )
        label = f"ds{di + 1:03d}"
        per_dataset.append({"dataset": label, "noise": tag, "report": report})
        plot_rows.extend(placebo_plot_rows(report, dataset=label, noise=tag))
        improvement_medians.append(report.improvements["median"])

    wins = sum(
        1 for entry in per_dataset
        if entry["report"].medians["cluster_sc"]["post_mse"]
        < entry["report"].medians["sc_full"]["post_mse"]
    )
    payload = {
        "config": {
            "command": "placebo-synthetic",
            "na": args.na,
            "nb": args.nb,
            "t": args.t,
            "t0": args.t0,
            "noise": tag,
            "datasets": args.datasets,
            "target_fraction": args.target_fraction,
            "cluster_mode": args.cluster_mode,
            "restarts": args.restarts,
            "variants": _echo_variants(variants),
            "seed": args.seed,
        },
        "summary": {
            "datasets_won_by_cluster": wins,
            "improvement_medians": improvement_medians,
            "median_improvement": float(np.median([m for m in improvement_medians if m is not None]))
            if any(m is not None for m in improvement_medians) else None,
        },
        "datasets": per_dataset,
    }
    return _write_outputs(args, payload, plot_rows)


def cmd_placebo_panel(args) -> int:
    if (args.panel is None) == (args.hpi is None):
        raise ConfigError("give exactly one of --panel or --hpi")
    preprocess_meta = None
    if args.panel is not None:
        if args.t0 is None:
            raise ConfigError("--panel needs --t0 (count or column label)")
        panel = load_panel_csv(args.panel, args.t0)
        source = Path(args.panel).stem
    else:
        first, _, last = args.date_range.partition(":")
        if not last:
            raise ConfigError(
                f"--range {args.date_range!r}: expected FIRST:LAST, e.g. 1997Q1:2006Q4"
            )
        result = preprocess_hpi(args.hpi, (first, last), t0=args.t0)
        panel = result.panel
        source = Path(args.hpi).stem
        preprocess_meta = {
            "retained_units": result.retained_units,
            "dropped_units": len(result.dropped_units),
        }

    variants = _variants(args)
    report = split_placebo(
        panel, args.train_fraction, args.iterations, variants,
        np.random.default_rng(args.seed), restarts=args.restarts,
    )
    payload = {
        "config": {
            "command": "placebo-panel",
            "source": source,
            "n_units": len(panel.unit_ids),
            "t": panel.split.t_total,
            "t0": panel.split.t0,
            "train_fraction": args.train_fraction,
            "iterations": args.iterations,
            "restarts": args.restarts,
            "variants": _echo_variants(variants),
            "seed": args.seed,
        },
        "preprocess": preprocess_meta,
        "report": report,
    }
    return _write_outputs(args, payload, placebo_plot_rows(report, dataset=source))


def cmd_cluster(args) -> int:
    panel = load_panel_csv(args.panel, args.t0)
    model = fit_cluster_model(
        panel.pre, args.rule, k=args.k,
        rng=np.random.default_rng(args.seed), restarts=args.restarts,
    )
    payload = {
        "config": {
            "command": "cluster",
            "source": Path(args.panel).stem,
            "t0": panel.split.t0,
            "rule": args.rule,
            "k": args.k,
            "restarts": args.restarts,
            "seed": args.seed,
        },
        "k": model.k,
        "rank_r": model.rank_r,
        "inertia": model.inertia,
        "assignments": dict(
            zip(panel.unit_ids, (int(l) for l in model.assignments.labels))
        ),
        "centers": model.centers,
    }
    return _write_outputs(
        args, payload,
        cluster_plot_rows(panel.unit_ids, model.assignments.labels, dataset=Path(args.panel).stem),
    )


def cmd_spectrum(args) -> int:
    # load with a throwaway split when no t0 is given; only values are used
    panel = load_panel_csv(args.panel, args.t0 if args.t0 is not None else 1)
    full = spectrum_report(panel.values)
    source = Path(args.panel).stem
    rows = spectrum_plot_rows(full, dataset=source, variant="full")
    payload = {
        "config": {
            "command": "spectrum",
            "source": source,
            "t0": args.t0,
        },
        "full": [list(r) for r in full],
    }
    if args.t0 is not None:
        pre = spectrum_report(panel.pre)
        payload["pre"] = [list(r) for r in pre]
        rows.extend(spectrum_plot_rows(pre, dataset=source, variant="pre"))
    return _write_outputs(args, payload, rows)


def cmd_gap_check(args) -> int:
    result = singular_gap_experiment(
        args.n, args.na, args.t, args.rank, args.noise, args.trials,
        np.random.default_rng(args.seed),
    )
    payload = {
        "config": {
            "command": "gap-check",
            "n": args.n,
            "na": args.na,
            "t": args.t,
            "rank": args.rank,
            "noise": noise_tag(args.noise),
            "trials": args.trials,
            "seed": args.seed,
        },
        "result": result,
    }
    return _write_outputs(args, payload, gap_plot_rows(result))


def cmd_recovery_check(args) -> int:
    result = cluster_recovery_experiment(
        GROUP_A_SPEC, GROUP_B_SPEC, args.na, args.nb, args.t, args.t0,
        args.rule, args.noise_grid, args.datasets,
        np.random.default_rng(args.seed), k=args.k, restarts=args.restarts,
    )
    payload = {
        "config": {
            "command": "recovery-check",
            "na": args.na,
            "nb": args.nb,
            "t": args.t,
            "t0": args.t0,
            "rule": args.rule,
            "k": args.k,
            "noise_grid": [noise_tag(n) for n in args.noise_grid],
            "datasets": args.datasets,
            "restarts": args.restarts,
            "seed": args.seed,
        },
        "result": result,
    }
    return _write_outputs(args, payload, recovery_plot_rows(result))


HANDLERS = {
    "simulate": cmd_simulate,
    "placebo-synthetic": cmd_placebo_synthetic,
    "placebo-panel": cmd_placebo_panel,
    "cluster": cmd_cluster,
    "spectrum": cmd_spectrum,
    "gap-check": cmd_gap_check,
    "recovery-check": cmd_recovery_check,
}


def cli_dispatch(argv) -> int:
    """Parse argv, run the subcommand, and map failures to exit codes."""
    argv = list(argv)
    parser, subs = build_parser()

    command = argv[0] if argv and not argv[0].startswith("-") else None
    try:
        if command in subs:
            # apply config-file defaults before parsing so flags override them
            config_path = None
            for i, token in enumerate(argv):
                if token == "--config" and i + 1 < len(argv):
                    config_path = argv[i + 1]
                elif token.startswith("--config="):
                    config_path = token.partition("=")[2]
            if config_path:
                subs[command].set_defaults(
                    **load_config_defaults(config_path, command, subs[command])
                )
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: error: a command is required", file=sys.stderr)
            return 2
        if args.command in STOCHASTIC_COMMANDS and args.seed is None:
            print(
                f"{parser.prog} {args.command}: error: --seed is required",
                file=sys.stderr,
            )
            return 2
        return HANDLERS[args.command](args)
    except ClusterScError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
