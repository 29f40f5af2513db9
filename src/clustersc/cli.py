"""Command-line surface over the library.

Subcommands
    simulate          generate a synthetic two-group panel and write it out
    placebo-synthetic leave-one-out placebo benchmark on generated panels
    placebo-panel     repeated-split placebo benchmark on an observed panel
    cluster           fit the donor clustering for a panel and report it
    spectrum          singular values and cumulative energy of a panel
    gap-check         Monte-Carlo singular value gap experiment
    recovery-check    planted-partition recovery across a noise grid

Every experiment command takes --seed (required, non-negative; runs are
reproducible to the byte) and --out for the output directory. When --out
is absent the CLUSTERSC_OUT_DIR environment variable is used, then the
current directory.

Grammars used by several flags:
    noise   kind:params, e.g. gaussian:0.3, uniform:0.5, student_t:4:0.3
    rule    fixed:R or energy:THRESHOLD; energy:THRESHOLD:squared for the
            squared-energy variant
    k       a positive integer or the word auto

placebo-panel reads either --panel with --t0, or --hpi cut to --range, an
inclusive FIRST:LAST window of quarter labels (e.g. 1997Q1:2006Q4).

A --config file (INI) can supply any flag's value, required ones too: one
section per subcommand, keys named like the flags without the leading
dashes (hyphens and underscores are interchangeable). Flags given on the
command line override the file. One parser serves every call in a process:
the first call builds it and no call changes it, so a file's values apply
to its own call only. Every report's config echoes the flags under these
keys (see reporting), so its flag keys make such a section.
Example:

    [gap-check]
    n = 1000
    na = 500
    noise = gaussian:0.3

Exit codes: 0 success, 1 runtime failure (bad input data, I/O, config file
contents), 2 usage (a malformed flag value, or a flag the command needs left out).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .cluster import AUTO_K_RANGE, KMEANS_RESTARTS, fit_cluster_model, validate_k
from .datagen import (
    GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset, noise_tag, parse_noise,
)
from .errors import ClusterScError, ConfigError, InvalidParamsError, PanelFormatError
from .evaluate import (
    CLUSTER_MODES,
    PlaceboDesign,
    SEED_CEILING,
    cluster_recovery_experiment,
    leave_one_out_placebo,
    singular_gap_experiment,
    split_placebo,
)
from .linalg import parse_rule, spectrum_report
from .panel import load_panel_csv, parse_period, preprocess_hpi, save_panel_csv
from .regression import REGRESSION_METHODS, RegressionSpec
from .reporting import (
    cluster_plot_rows,
    gap_plot_rows,
    placebo_plot_rows,
    recovery_plot_rows,
    spectrum_plot_rows,
    write_json,
    write_report,
)

__all__ = ["OUT_DIR_ENV", "build_parser", "main"]

OUT_DIR_ENV = "CLUSTERSC_OUT_DIR"


def parse_noise_grid(text: str) -> list[NoiseSpec]:
    """Comma-separated list of noise specs."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError("noise grid is empty")
    return [parse_noise(item) for item in items]


def parse_k(text: str):
    """'auto' or a positive integer, by the library's rule (validate_k)."""
    k = text.strip().lower()
    try:
        k = int(k)
    except ValueError:
        pass  # "auto", or a word validate_k refuses
    try:
        return validate_k(k)
    except InvalidParamsError as exc:
        raise ConfigError(str(exc)) from None


def parse_range(text: str) -> str:
    """FIRST:LAST, an inclusive window of YYYYQn labels; kept as written."""
    try:
        for label in text.partition(":")[::2]:
            parse_period(label)
    except PanelFormatError as exc:
        raise ConfigError(
            f"range {text!r}: expected FIRST:LAST, e.g. 1997Q1:2006Q4; {exc}"
        ) from None
    return text


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(text).strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _add_out_and_config(sub, command: str) -> None:
    sub.add_argument("--stem", default=command.replace("-", "_"), help="output file stem")
    sub.add_argument("--out", default=None, help="output directory (default: $CLUSTERSC_OUT_DIR or .)")
    sub.add_argument("--config", default=None, help="INI file supplying flag defaults")


def _add_seed(sub) -> None:
    sub.add_argument("--seed", type=int, default=None, help="master random seed (required)")


def _add_design_flags(sub, default_units: int) -> None:
    sub.add_argument("--na", type=int, default=default_units, help="group A size")
    sub.add_argument("--nb", type=int, default=default_units, help="group B size")
    sub.add_argument("--t", type=int, default=10, help="total periods")
    sub.add_argument("--t0", type=int, default=8, help="pre-intervention periods")


def _add_estimator_flags(sub, default_lam: float) -> None:
    sub.add_argument("--method", choices=REGRESSION_METHODS, default="ridge",
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
    _add_design_flags(sub, default_units=200)
    sub.add_argument("--noise", type=parse_noise, default="gaussian:0.25",
                     help="noise spec, e.g. gaussian:0.3")
    _add_seed(sub)

    sub = subs["placebo-synthetic"] = commands.add_parser(
        "placebo-synthetic",
        help="leave-one-out placebo benchmark over generated datasets",
    )
    _add_design_flags(sub, default_units=200)
    sub.add_argument("--noise", type=parse_noise, default="gaussian:0.25")
    sub.add_argument("--datasets", type=int, default=5, help="datasets to generate")
    sub.add_argument("--target-fraction", type=float, default=0.3,
                     help="share of group A used as placebo targets")
    sub.add_argument("--cluster-mode", choices=CLUSTER_MODES, default="per_target",
                     help="re-cluster per target (faithful) or once per dataset (fast)")
    _add_estimator_flags(sub, default_lam=0.01)
    _add_seed(sub)

    sub = subs["placebo-panel"] = commands.add_parser(
        "placebo-panel", help="repeated-split placebo benchmark on an observed panel"
    )
    sub.add_argument("--panel", default=None, help="wide panel CSV (unit,<label>,...)")
    sub.add_argument("--t0", default=None,
                     help="pre-period count or last pre-period label (with --panel)")
    sub.add_argument("--hpi", default=None,
                     help="long quarterly file to preprocess instead of --panel")
    sub.add_argument("--range", type=parse_range, default="1997Q1:2006Q4",
                     help="inclusive YYYYQn:YYYYQn window for --hpi")
    sub.add_argument("--train-fraction", type=float, default=0.8)
    sub.add_argument("--iterations", type=int, default=20)
    _add_estimator_flags(sub, default_lam=0.1)
    _add_seed(sub)

    sub = subs["cluster"] = commands.add_parser(
        "cluster", help="fit the donor clustering for a panel and report it"
    )
    sub.add_argument("--panel", default=None, help="wide panel CSV (required)")
    sub.add_argument("--t0", default=None,
                     help="pre-period count or last pre-period label (required)")
    sub.add_argument("--rule", type=parse_rule, default="energy:0.95")
    sub.add_argument("--k", type=parse_k, default="auto")
    _add_seed(sub)

    sub = subs["spectrum"] = commands.add_parser(
        "spectrum", help="singular values and cumulative energy of a panel"
    )
    sub.add_argument("--panel", default=None, help="wide panel CSV (required)")
    sub.add_argument("--t0", default=None,
                     help="also report the pre-intervention block's spectrum")

    sub = subs["gap-check"] = commands.add_parser(
        "gap-check", help="Monte-Carlo singular value gap experiment"
    )
    sub.add_argument("--n", type=int, default=1000, help="pool size")
    sub.add_argument("--na", type=int, default=500, help="subgroup size")
    sub.add_argument("--t", type=int, default=10, help="periods")
    sub.add_argument("--rank", type=int, default=3, help="signal rank")
    sub.add_argument("--noise", type=parse_noise, default="gaussian:0.3")
    sub.add_argument("--trials", type=int, default=200)
    _add_seed(sub)

    sub = subs["recovery-check"] = commands.add_parser(
        "recovery-check", help="planted-partition recovery across a noise grid"
    )
    _add_design_flags(sub, default_units=20)
    sub.add_argument("--rule", type=parse_rule, default="energy:0.95")
    sub.add_argument("--k", type=parse_k, default=2)
    sub.add_argument("--noise-grid", type=parse_noise_grid,
                     default="gaussian:0.0,gaussian:0.1,gaussian:0.25,gaussian:0.4")
    sub.add_argument("--datasets", type=int, default=5, help="datasets per noise level")
    _add_seed(sub)

    for command, sub in subs.items():
        _add_out_and_config(sub, command)
    return parser, subs


def _convert_config_value(action, raw: str):
    """A config value through its flag's converter; a bad value names the key."""
    if isinstance(action, argparse._StoreTrueAction):
        convert = _parse_bool
    else:
        convert = action.type or str
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"key {action.dest!r}: {exc}") from None


def load_config_defaults(path, command: str, sub: argparse.ArgumentParser) -> dict:
    """Read one subcommand's section into values for its flags' dests.

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


def _placebo_design(args) -> PlaceboDesign:
    reg = RegressionSpec(args.method, lam=args.lam)
    return PlaceboDesign(reg, args.rule, args.k, args.cluster_rule, args.with_random_subset)


# flags naming files rather than choosing the experiment; never echoed
_PATH_FLAGS = ("out", "config", "stem", "panel", "hpi")


def _run_config(args, **facts) -> dict:
    """The config echo of a run: every flag, then the facts the flags do not fix.

    Each flag is kept under its dest name in the flag's own grammar (rules
    and noise specs become tags when written; a noise grid is joined here).
    Commands that cluster also record the fixed k-means protocol. facts,
    such as _panel_facts, come last and so win over a flag of the same name.
    """
    config = {dest: value for dest, value in vars(args).items() if dest not in _PATH_FLAGS}
    if "noise_grid" in config:
        config["noise_grid"] = ",".join(noise_tag(n) for n in args.noise_grid)
    if "k" in config:
        config.update(restarts=KMEANS_RESTARTS, k_range=list(AUTO_K_RANGE))
    config.update(facts)
    return config


def _panel_facts(path, panel) -> dict:
    """An input panel's file stem and shape, with t0 as a pre-period count."""
    return {
        "source": Path(path).stem,
        "n_units": len(panel.unit_ids),
        "t": panel.split.t_total,
        "t0": panel.split.t0,
    }


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
    signal_panel = dataclasses.replace(dataset.panel, values=dataset.true_signal)
    signal_path = save_panel_csv(signal_panel, out / f"{args.stem}_signal.csv")
    meta = {
        "config": _run_config(args),
        "groups": dict(zip(dataset.panel.unit_ids, dataset.group_labels)),
        "files": [panel_path.name, signal_path.name],
    }
    meta_path = write_json(meta, out / f"{args.stem}_meta.json")
    for path in (panel_path, signal_path, meta_path):
        print(path)
    return 0


def cmd_placebo_synthetic(args) -> int:
    if args.datasets < 1:
        raise InvalidParamsError(f"--datasets must be >= 1, got {args.datasets}")
    design = _placebo_design(args)
    rng = np.random.default_rng(args.seed)
    dataset_seeds = rng.integers(0, SEED_CEILING, size=args.datasets)
    harness_seeds = rng.integers(0, SEED_CEILING, size=args.datasets)
    tag = noise_tag(args.noise)

    per_dataset = []
    plot_rows = []
    improvement_medians = []
    wins = 0
    for di in range(args.datasets):
        dataset = gen_dataset(
            GROUP_A_SPEC, GROUP_B_SPEC, args.na, args.nb, args.t, args.t0,
            args.noise, seed=int(dataset_seeds[di]),
        )
        report = leave_one_out_placebo(
            dataset, args.target_fraction, design,
            np.random.default_rng(harness_seeds[di]),
            cluster_mode=args.cluster_mode,
        )
        label = f"ds{di + 1:03d}"
        per_dataset.append({"dataset": label, "noise": tag, "report": report})
        plot_rows.extend(placebo_plot_rows(report, dataset=label, noise=tag))
        improvement_medians.append(report.improvements["median"])
        # a dataset whose every cell was skipped has no medians and is not won
        medians = report.medians
        if "cluster_sc" in medians and (
            medians["cluster_sc"]["post_mse"] < medians["sc_full"]["post_mse"]
        ):
            wins += 1

    payload = {
        "config": _run_config(args),
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
    preprocess_meta = None
    if args.panel is not None:
        path = args.panel
        panel = load_panel_csv(path, args.t0)
    else:
        path = args.hpi
        result = preprocess_hpi(path, tuple(args.range.split(":", 1)), t0=args.t0)
        panel = result.panel
        preprocess_meta = {
            "retained_units": result.retained_units,
            "dropped_units": len(result.dropped_units),
        }

    report = split_placebo(
        panel, args.train_fraction, args.iterations, _placebo_design(args),
        np.random.default_rng(args.seed),
    )
    facts = _panel_facts(path, panel)
    payload = {
        "config": _run_config(args, **facts),
        "preprocess": preprocess_meta,
        "report": report,
    }
    return _write_outputs(args, payload, placebo_plot_rows(report, dataset=facts["source"]))


def cmd_cluster(args) -> int:
    panel = load_panel_csv(args.panel, args.t0)
    model = fit_cluster_model(panel.pre, args.rule, k=args.k, rng=np.random.default_rng(args.seed))
    facts = _panel_facts(args.panel, panel)
    payload = {
        "config": _run_config(args, **facts),
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
        cluster_plot_rows(panel.unit_ids, model.assignments.labels, dataset=facts["source"]),
    )


def cmd_spectrum(args) -> int:
    # load with a throwaway split when no t0 is given; only values are used
    panel = load_panel_csv(args.panel, args.t0 if args.t0 is not None else 1)
    facts = _panel_facts(args.panel, panel)
    if args.t0 is None:
        del facts["t0"]  # the throwaway split's, not the run's
    full = spectrum_report(panel.values)
    rows = spectrum_plot_rows(full, dataset=facts["source"], variant="full")
    payload = {
        "config": _run_config(args, **facts),
        "full": [list(r) for r in full],
    }
    if args.t0 is not None:
        pre = spectrum_report(panel.pre)
        payload["pre"] = [list(r) for r in pre]
        rows.extend(spectrum_plot_rows(pre, dataset=facts["source"], variant="pre"))
    return _write_outputs(args, payload, rows)


def cmd_gap_check(args) -> int:
    result = singular_gap_experiment(
        args.n, args.na, args.t, args.rank, args.noise, args.trials,
        np.random.default_rng(args.seed),
    )
    payload = {"config": _run_config(args), "result": result}
    return _write_outputs(args, payload, gap_plot_rows(result))


def cmd_recovery_check(args) -> int:
    result = cluster_recovery_experiment(
        GROUP_A_SPEC, GROUP_B_SPEC, args.na, args.nb, args.t, args.t0,
        args.rule, args.noise_grid, args.datasets,
        np.random.default_rng(args.seed), k=args.k,
    )
    payload = {"config": _run_config(args), "result": result}
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


# built by the first main call; no call changes it
_PARSER = None
# checked after the parse, like --seed, so that a config file may supply them
_REQUIRED = {"cluster": ("panel", "t0"), "spectrum": ("panel",)}


def _usage_problem(command: str, args) -> str | None:
    """The usage error of a parsed call that leaves out a flag it needs, if any."""
    # --seed is required wherever it exists (only spectrum has none), and
    # numpy seeds are non-negative
    if "seed" in vars(args) and (args.seed is None or args.seed < 0):
        return "--seed is required and must be a non-negative integer"
    missing = [f"--{dest}" for dest in _REQUIRED.get(command, ()) if getattr(args, dest) is None]
    if missing:
        return f"the following arguments are required: {', '.join(missing)}"
    if command == "placebo-panel":
        if (args.panel is None) == (args.hpi is None):
            return "give exactly one of --panel or --hpi"
        if args.panel is not None and args.t0 is None:
            return "--panel needs --t0 (count or column label)"
    return None


def main(argv=None) -> int:
    """Parse argv (sys.argv[1:] when None), run the subcommand, and map
    failures to exit codes."""
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = _PARSER = _PARSER or build_parser()

    command = argv[0] if argv and not argv[0].startswith("-") else None
    try:
        try:
            if command in subs:
                # the shared parser stays as built: when a first parse finds --config
                # (any abbreviation), the file's values seed a namespace flags override
                sub = subs[command]
                args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=command))
                if args.config:
                    values = load_config_defaults(args.config, command, sub)
                    args, extra = sub.parse_known_args(
                        argv[1:], argparse.Namespace(command=command, **values))
                if extra:
                    parser.error(f"unrecognized arguments: {' '.join(extra)}")
                problem = _usage_problem(command, args)
                if problem:
                    sub.error(problem)
            else:
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: error: a command is required", file=sys.stderr)
            return 2
        return HANDLERS[args.command](args)
    except (ClusterScError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
