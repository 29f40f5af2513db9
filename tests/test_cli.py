"""Command line interface: exit codes, file outputs, config merging.

Every invocation goes through ``main(argv)`` in-process so coverage tools
see the handlers and failures carry ordinary tracebacks.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clustersc import cli
from clustersc.cluster import AUTO_K_RANGE
from clustersc.cli import build_parser, main, parse_k, parse_noise_grid, resolve_out_dir
from clustersc.datagen import NoiseSpec, noise_tag, parse_noise
from clustersc.errors import ConfigError
from clustersc.evaluate import CLUSTER_MODES
from clustersc.linalg import RankRule, parse_rule, rule_tag
from clustersc.panel import load_panel_csv
from clustersc.regression import REGRESSION_METHODS


UNIFORM_BOUND = "uniform needs 0 <= half_width <= 8.988465674311579e+307 (a finite range)"
# commands whose noise overflows the report's statistics to inf or nan, and
# the stem of the report they must not write
NON_FINITE_REPORTS = [
    pytest.param(["gap-check", "--n", "20", "--na", "10", "--t", "5", "--rank", "2",
                  "--trials", "2", "--noise", "gaussian:1e160"], "gap_check", id="gap-check"),
    pytest.param(["placebo-synthetic", "--na", "6", "--nb", "6", "--datasets", "1",
                  "--k", "1", "--noise", "gaussian:1e200"], "placebo_synthetic",
                 id="placebo-synthetic"),
]


def run(*argv):
    return main(list(argv))


def run_fresh(*argv, **env):
    """`python -m clustersc argv` in a fresh interpreter, output captured,
    with env added to its environment."""
    return subprocess.run(
        [sys.executable, "-m", "clustersc", *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent), **env},
    )


def write_hpi(path):
    """A long quarterly file: 10 units over 1997Q1..1999Q4."""
    rng = np.random.default_rng(37)
    lines = ["unit,year,quarter,value"]
    for u in range(10):
        level = rng.normal(100.0, 10.0)
        for year in (1997, 1998, 1999):
            for quarter in (1, 2, 3, 4):
                level += rng.normal(1.0, 0.5)
                lines.append(f"u{u:02d},{year},{quarter},{level}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParsers:
    def test_gaussian(self):
        spec = parse_noise("gaussian:0.3")
        assert spec.kind == "gaussian" and spec.params == (0.3,)

    def test_student_t(self):
        spec = parse_noise("student_t:4:0.25")
        assert spec.kind == "student_t" and spec.params == (4.0, 0.25)

    def test_uniform(self):
        assert parse_noise("uniform:0.5").kind == "uniform"

    @pytest.mark.parametrize("bad", ["", "gaussian", "gaussian:x", "laplace:1", "student_t:4"])
    def test_bad_noise(self, bad):
        with pytest.raises(ConfigError):
            parse_noise(bad)

    @pytest.mark.parametrize("bad", [
        "gaussian:nan", "gaussian:inf", "uniform:inf", "student_t:inf:0.3", "student_t:4:nan",
    ])
    def test_noise_parameters_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_noise(bad)

    def test_noise_grid(self):
        grid = parse_noise_grid("gaussian:0.0,gaussian:0.4")
        assert [n.params[0] for n in grid] == [0.0, 0.4]

    def test_rule_forms(self):
        assert parse_rule("fixed:3") == RankRule.fixed(3)
        assert parse_rule("energy:0.95") == RankRule.energy(0.95)
        assert parse_rule("energy:0.9:squared") == RankRule.energy(0.9, squared=True)

    @pytest.mark.parametrize(
        "rule",
        [
            RankRule.fixed(3), RankRule.energy(0.95), RankRule.energy(0.9, squared=True),
            pytest.param(NoiseSpec.gaussian(0.3), id="noise-gaussian"),
            pytest.param(NoiseSpec.uniform(0.5), id="noise-uniform"),
            pytest.param(NoiseSpec.student_t(4, 0.25), id="noise-student_t"),
        ],
    )
    def test_rule_tag_round_trip(self, rule):
        # each grammar's tag parses back to the value; noise specs ride along
        if isinstance(rule, RankRule):
            assert parse_rule(rule_tag(rule)) == rule
        else:
            assert parse_noise(noise_tag(rule)) == rule

    @pytest.mark.parametrize("bad", ["", "fixed", "fixed:0", "energy:1.5", "energy:0.9:cubed"])
    def test_bad_rule(self, bad):
        with pytest.raises(ConfigError):
            parse_rule(bad)

    def test_k(self):
        assert parse_k("auto") == "auto"
        assert parse_k("4") == 4
        with pytest.raises(ConfigError):
            parse_k("0")

    @pytest.mark.parametrize("text", ["2.7", "2.9", "true", "two"])
    def test_bad_k_has_the_library_diagnosis(self, text):
        # the library's k rule (cluster.validate_k) words the refusal
        with pytest.raises(ConfigError,
                           match=f"^k must be 'auto' or a positive integer, got '{text}'$"):
            parse_k(text)

    def test_flag_choices_are_the_library_constants(self):
        _, subs = build_parser()
        choices = {action.dest: action.choices for action in subs["placebo-synthetic"]._actions}
        assert choices["method"] == REGRESSION_METHODS
        assert choices["cluster_mode"] == CLUSTER_MODES


class TestOutDir:
    def test_flag_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CLUSTERSC_OUT_DIR", str(tmp_path / "env"))
        assert resolve_out_dir(str(tmp_path / "flag")) == tmp_path / "flag"

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CLUSTERSC_OUT_DIR", str(tmp_path / "env"))
        assert resolve_out_dir(None) == tmp_path / "env"

    def test_cwd_default(self, monkeypatch):
        monkeypatch.delenv("CLUSTERSC_OUT_DIR", raising=False)
        assert str(resolve_out_dir(None)) == "."


class TestExitCodes:
    def test_no_args(self, capsys):
        assert run() == 2
        assert "command is required" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run("bogus") == 2

    def test_missing_seed(self, capsys):
        assert run("gap-check") == 2
        assert "--seed is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["placebo-synthetic"], ["placebo-panel"],
        ["cluster", "--panel", "p.csv", "--t0", "8"], ["recovery-check"],
    ], ids=lambda argv: argv[0])
    def test_every_command_with_seed_requires_it(self, argv, capsys):
        assert run(*argv) == 2
        assert "--seed is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["placebo-synthetic"], ["placebo-panel"],
        ["cluster", "--panel", "p.csv", "--t0", "8"], ["gap-check"], ["recovery-check"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, argv, tmp_path, capsys):
        assert run(*argv, "--seed", "-5", "--out", str(tmp_path)) == 2
        assert "--seed is required" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_seed_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nseed = -5\n")
        assert run("gap-check", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "--seed is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["placebo-synthetic"], ["placebo-panel"],
        ["cluster", "--panel", "p.csv", "--t0", "8"], ["recovery-check"],
    ], ids=lambda argv: argv[0])
    def test_restarts_flag_removed(self, argv, tmp_path, capsys):
        # the k-means restart count is fixed at cluster.KMEANS_RESTARTS
        assert run(*argv, "--restarts", "5", "--seed", "1", "--out", str(tmp_path)) == 2
        assert "unrecognized arguments: --restarts" in capsys.readouterr().err

    def test_spectrum_needs_no_seed(self, tmp_path):
        run("simulate", "--na", "4", "--nb", "4", "--seed", "1",
            "--out", str(tmp_path))
        code = run("spectrum", "--panel", str(tmp_path / "simulate_panel.csv"),
                   "--out", str(tmp_path))
        assert code == 0

    def test_domain_error_is_one(self, tmp_path, capsys):
        code = run("spectrum", "--panel", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value_is_two(self, tmp_path):
        assert run("gap-check", "--seed", "1", "--noise", "nope:1",
                   "--out", str(tmp_path)) == 2

    def test_infinite_noise_is_usage_error(self, tmp_path, capsys):
        assert run("simulate", "--noise", "uniform:inf", "--seed", "1",
                   "--out", str(tmp_path)) == 2
        assert "argument --noise" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["simulate", "--noise", "uniform:inf"], "argument --noise: noise "
                     "'uniform:inf': uniform parameters must be finite, got (inf,)", id="noise"),
        pytest.param(["placebo-synthetic", "--rule", "energy:2"], "argument --rule: rule "
                     "'energy:2': energy threshold must be in (0, 1], got 2.0", id="rule"),
        pytest.param(["placebo-synthetic", "--cluster-rule", "fixed:0"], "argument "
                     "--cluster-rule: rule 'fixed:0': fixed rank must be a positive integer, "
                     "got 0", id="cluster-rule"),
        pytest.param(["placebo-synthetic", "--k", "0"], "argument --k: k must be >= 1, got 0",
                     id="k"),
        pytest.param(["recovery-check", "--noise-grid", ","],
                     "argument --noise-grid: noise grid is empty", id="noise-grid"),
        pytest.param(["placebo-panel", "--hpi", "x.csv", "--range", "1997Q1:1998Q4:x"],
                     "argument --range: range '1997Q1:1998Q4:x': expected FIRST:LAST, e.g. "
                     "1997Q1:2006Q4; period '1998Q4:X' is not of the form YYYYQn", id="range"),
        # a half-width whose range 2 * h overflows; Generator.uniform would raise
        pytest.param(["simulate", "--noise", "uniform:9e307"], "argument --noise: noise "
                     f"'uniform:9e307': {UNIFORM_BOUND}", id="uniform-range-simulate"),
        pytest.param(["gap-check", "--noise", "uniform:9e307"], "argument --noise: noise "
                     f"'uniform:9e307': {UNIFORM_BOUND}", id="uniform-range-gap-check"),
        pytest.param(["placebo-synthetic", "--noise", "uniform:1e308"], "argument --noise: "
                     f"noise 'uniform:1e308': {UNIFORM_BOUND}", id="uniform-range-placebo-synthetic"),
        pytest.param(["recovery-check", "--noise-grid", "gaussian:0.1,uniform:9e307"],
                     f"argument --noise-grid: noise 'uniform:9e307': {UNIFORM_BOUND}",
                     id="uniform-range-recovery-check"),
    ])
    def test_rejected_flag_value_keeps_its_diagnosis(self, argv, message, tmp_path, capsys):
        # the converter's own message, not argparse's "invalid parse_rule value"
        assert run(*argv, "--seed", "1", "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    # each command's required flags, given in full; a case leaves one out
    REQUIRED = {
        "simulate": {"seed": "1"},
        "placebo-synthetic": {"seed": "1"},
        "placebo-panel": {"panel": "p.csv", "t0": "8", "seed": "1"},
        "cluster": {"panel": "p.csv", "t0": "8", "seed": "1"},
        "spectrum": {"panel": "p.csv"},
        "gap-check": {"seed": "1"},
        "recovery-check": {"seed": "1"},
    }

    @pytest.mark.parametrize("source", ["argv", "config"])
    @pytest.mark.parametrize("command, left_out", [
        (command, flag) for command, flags in REQUIRED.items() for flag in flags
    ])
    def test_missing_required_flag_is_usage_error(self, command, left_out, source,
                                                   tmp_path, capsys):
        given = {flag: value for flag, value in self.REQUIRED[command].items()
                 if flag != left_out}
        if source == "argv":
            argv = [arg for flag, value in given.items() for arg in (f"--{flag}", value)]
        else:
            cfg = tmp_path / "run.ini"
            cfg.write_text("\n".join([f"[{command}]"] + [f"{k} = {v}" for k, v in given.items()]))
            argv = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run(command, *argv, "--out", str(out)) == 2
        assert f"--{left_out}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, stem", NON_FINITE_REPORTS)
    def test_non_finite_report_is_input_error(self, argv, stem, tmp_path, capsys):
        # noise this large overflows the statistics to inf or nan, which JSON
        # cannot hold; numpy's warnings on the way are not this test's subject
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run(*argv, "--seed", "3", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert f"cannot write {out / stem}.json: Out of range float" in captured.err
        assert captured.out == ""
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_overflowing_seeding_warns_nothing(self, tmp_path):
        # the D^2 guard diagnoses the overflow; numpy's own warning must not precede it
        done = run_fresh("recovery-check", "--na", "4", "--nb", "4", "--datasets", "1",
                         "--noise-grid", "gaussian:1e200", "--seed", "3",
                         "--out", str(tmp_path / "out"))
        assert done.returncode == 1
        assert "too far apart (overflow) for D^2 seeding" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("argv, stem", NON_FINITE_REPORTS)
    def test_overflowing_report_warns_nothing(self, argv, stem, tmp_path):
        # the refusal of the non-finite report diagnoses the overflow (k-means
        # inertia, target assignment, ridge and the standard error on the
        # way); numpy's own warnings must not precede it
        out = tmp_path / "out"
        done = run_fresh(*argv, "--seed", "3", "--out", str(out))
        assert done.returncode == 1
        assert f"cannot write {out / stem}.json: Out of range float" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not [path for path in out.rglob("*") if path.is_file()]

    @pytest.mark.parametrize("argv, diagnosis", [
        pytest.param(["--na", "4", "--nb", "4", "--method", "ols"], "for D^2 seeding", id="ols"),
        pytest.param(["--na", "4", "--nb", "4", "--method", "ridge"], "for D^2 seeding",
                     id="ridge-primal"),
        pytest.param(["--na", "100", "--nb", "100", "--method", "ridge"], "for D^2 seeding",
                     id="ridge-dual"),
        pytest.param(["--na", "4", "--nb", "4", "--method", "lasso"], "lasso duality gap is nan",
                     id="lasso"),
        pytest.param(["--na", "6", "--nb", "6", "--k", "1", "--method", "lasso"],
                     "lasso duality gap is nan", id="lasso-k1"),
        # the pools' singular values reach 1e308, so the energy rule's total
        # overflows unless select_rank scales the spectrum first
        pytest.param(["--na", "100", "--nb", "100", "--method", "ridge",
                      "--noise", "uniform:1e307"], "for D^2 seeding", id="ridge-spectrum"),
    ])
    def test_overflowing_fits_warn_nothing(self, argv, diagnosis, tmp_path):
        # the sc_full fits' products overflow before the clustering or the
        # lasso's own check diagnoses the data; numpy's warnings must not
        # precede that, and the lasso must not report zero weights instead.
        # Under OpenBLAS's Prescott kernel the dual ridge form's overflowing
        # Gram entries come out NaN (inf under SkylakeX), so its products
        # raise "invalid" too; other BLAS builds ignore the variable.
        # A --noise in argv comes after the default and wins
        out = tmp_path / "out"
        done = run_fresh("placebo-synthetic", "--noise", "uniform:1e300", *argv,
                         "--datasets", "1", "--seed", "1", "--out", str(out),
                         OPENBLAS_CORETYPE="Prescott")
        assert done.returncode == 1
        assert diagnosis in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not [path for path in out.rglob("*") if path.is_file()]

    @pytest.mark.parametrize("argv, diagnosis", [
        pytest.param(["simulate", "--na", "20", "--nb", "20", "--seed", "1"],
                     "panel values contain NaN or infinities", id="simulate"),
        pytest.param(["gap-check", "--n", "20", "--na", "10", "--t", "5", "--rank", "2",
                      "--trials", "2", "--seed", "3"],
                     "matrix contains NaN or infinite entries", id="gap-check"),
    ])
    def test_overflowing_draws_warn_nothing(self, argv, diagnosis, tmp_path):
        # student_t's scale * t overflows to inf; the panel and the gap check
        # refuse such draws before numpy warns or LAPACK complains of them
        out = tmp_path / "out"
        done = run_fresh(*argv, "--noise", "student_t:3:1e308", "--out", str(out))
        assert done.returncode == 1
        assert diagnosis in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert "DLASCL" not in done.stdout + done.stderr
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_gap_rank_beyond_subgroup_is_one(self, tmp_path, capsys):
        assert run("gap-check", "--n", "5", "--na", "3", "--rank", "3", "--trials", "2",
                   "--seed", "1", "--out", str(tmp_path)) == 1
        assert "rank_r < min(t_count, n_a)" in capsys.readouterr().err


class TestSimulate:
    def test_round_trip(self, tmp_path):
        code = run("simulate", "--na", "6", "--nb", "5", "--t", "10",
                   "--t0", "8", "--seed", "42", "--out", str(tmp_path))
        assert code == 0
        panel = load_panel_csv(tmp_path / "simulate_panel.csv", 8)
        assert panel.values.shape == (11, 10)
        signal = load_panel_csv(tmp_path / "simulate_signal.csv", 8)
        assert signal.values.shape == (11, 10)
        meta = json.loads((tmp_path / "simulate_meta.json").read_text())
        assert sorted(set(meta["groups"].values())) == ["A", "B"]
        assert meta["config"]["seed"] == 42

    def test_rerun_byte_identical(self, tmp_path):
        argv = ("simulate", "--na", "4", "--nb", "4", "--seed", "7")
        run(*argv, "--out", str(tmp_path / "a"))
        run(*argv, "--out", str(tmp_path / "b"))
        for name in ("simulate_panel.csv", "simulate_signal.csv", "simulate_meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestGapCheck:
    def test_writes_report_pair(self, tmp_path):
        code = run("gap-check", "--n", "60", "--na", "30", "--trials", "3",
                   "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "gap_check.json").read_text())
        assert payload["config"]["n"] == 60
        assert payload["result"]["trials"] == 3
        lines = (tmp_path / "gap_check_plot.csv").read_text().splitlines()
        assert lines[0] == "dataset,noise,variant,metric,value"
        assert sum("gap" == line.split(",")[3] for line in lines[1:]) == 3

    def test_rerun_byte_identical(self, tmp_path):
        argv = ("gap-check", "--n", "50", "--na", "25", "--trials", "2", "--seed", "9")
        run(*argv, "--out", str(tmp_path / "a"))
        run(*argv, "--out", str(tmp_path / "b"))
        for name in ("gap_check.json", "gap_check_plot.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestClusterAndSpectrum:
    @pytest.fixture()
    def panel_path(self, tmp_path):
        run("simulate", "--na", "8", "--nb", "8", "--seed", "3",
            "--out", str(tmp_path))
        return tmp_path / "simulate_panel.csv"

    def test_cluster_report(self, panel_path, tmp_path):
        code = run("cluster", "--panel", str(panel_path), "--t0", "8",
                   "--k", "2", "--seed", "11", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "cluster.json").read_text())
        assert payload["k"] == 2
        assert len(payload["assignments"]) == 16
        assert payload["rank_r"] >= 1
        assert payload["inertia"] >= 0.0

    def test_spectrum_report(self, panel_path, tmp_path):
        code = run("spectrum", "--panel", str(panel_path), "--t0", "8",
                   "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(payload["full"]) == 10
        assert len(payload["pre"]) == 8
        assert payload["full"][-1][2] == pytest.approx(1.0)

    def test_spectrum_without_t0(self, panel_path, tmp_path):
        run("spectrum", "--panel", str(panel_path), "--out", str(tmp_path))
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert "pre" not in payload


class TestPlaceboSynthetic:
    def test_smoke(self, tmp_path):
        code = run("placebo-synthetic", "--na", "12", "--nb", "12",
                   "--datasets", "2", "--target-fraction", "0.3",
                   "--rule", "fixed:3", "--k", "2", "--seed", "17",
                   "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "placebo_synthetic.json").read_text())
        assert len(payload["datasets"]) == 2
        assert payload["datasets"][0]["dataset"] == "ds001"
        summary = payload["summary"]
        assert 0 <= summary["datasets_won_by_cluster"] <= 2
        assert len(summary["improvement_medians"]) == 2
        lines = (tmp_path / "placebo_synthetic_plot.csv").read_text().splitlines()
        assert lines[0] == "dataset,noise,variant,metric,value"
        assert any(",improvement," in line for line in lines[1:])

    def test_random_subset_variant_included(self, tmp_path):
        run("placebo-synthetic", "--na", "10", "--nb", "10",
            "--datasets", "1", "--rule", "fixed:3", "--k", "2",
            "--with-random-subset", "--seed", "2", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "placebo_synthetic.json").read_text())
        assert payload["config"]["with_random_subset"] is True
        report = payload["datasets"][0]["report"]
        names = {r["variant"] for r in report["rows"]} | {s["variant"] for s in report["skipped"]}
        assert names == {"sc_full", "cluster_sc", "sc_random_subset"}

    def test_config_echo_keeps_squared_rule(self, tmp_path):
        run("placebo-synthetic", "--na", "10", "--nb", "10", "--datasets", "1",
            "--rule", "energy:0.9:squared", "--cluster-rule", "fixed:3", "--k", "2",
            "--seed", "2", "--out", str(tmp_path))
        config = json.loads((tmp_path / "placebo_synthetic.json").read_text())["config"]
        assert (config["rule"], config["cluster_rule"]) == ("energy:0.9:squared", "fixed:3")

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_datasets_below_one_rejected(self, count, tmp_path, capsys):
        assert run("placebo-synthetic", "--datasets", count, "--seed", "1",
                   "--out", str(tmp_path)) == 1
        assert f"--datasets must be >= 1, got {count}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_every_cell_skipped(self, tmp_path):
        # with 2 + 2 units the target's cluster never keeps 2 donors, so the
        # dataset has no complete cell: it is not won and has no median
        code = run("placebo-synthetic", "--na", "2", "--nb", "2", "--k", "2",
                   "--datasets", "1", "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "placebo_synthetic.json").read_text())
        assert payload["datasets"][0]["report"]["medians"] == {}
        assert payload["summary"] == {
            "datasets_won_by_cluster": 0,
            "improvement_medians": [None],
            "median_improvement": None,
        }


class TestPlaceboPanel:
    def test_panel_and_hpi_are_exclusive(self, tmp_path, capsys):
        assert run("placebo-panel", "--seed", "1", "--out", str(tmp_path)) == 2
        assert run("placebo-panel", "--panel", "x.csv", "--hpi", "y.csv",
                   "--seed", "1", "--out", str(tmp_path)) == 2

    def test_panel_requires_t0(self, tmp_path):
        assert run("placebo-panel", "--panel", "x.csv", "--seed", "1",
                   "--out", str(tmp_path)) == 2

    def test_bad_range(self, tmp_path):
        assert run("placebo-panel", "--hpi", "x.csv", "--range", "1997Q1",
                   "--seed", "1", "--out", str(tmp_path)) == 2

    def test_runs_on_synthetic_panel(self, tmp_path):
        run("simulate", "--na", "8", "--nb", "8", "--seed", "19",
            "--out", str(tmp_path))
        code = run("placebo-panel", "--panel", str(tmp_path / "simulate_panel.csv"),
                   "--t0", "8", "--iterations", "2", "--train-fraction", "0.75",
                   "--rule", "fixed:3", "--k", "2", "--seed", "23",
                   "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "placebo_panel.json").read_text())
        assert payload["report"]["reference"] == "observed"
        assert len(payload["report"]["per_iteration"]) == 2


class TestRecoveryCheck:
    def test_smoke(self, tmp_path):
        code = run("recovery-check", "--na", "8", "--nb", "8",
                   "--noise-grid", "gaussian:0.0,gaussian:0.3",
                   "--datasets", "2", "--rule", "fixed:6", "--seed", "31",
                   "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "recovery_check.json").read_text())
        assert len(payload["result"]["cells"]) == 2
        assert payload["result"]["datasets_per_cell"] == 2

    @pytest.mark.parametrize("k, allowed", [
        ("2", {2}), ("auto", set(range(AUTO_K_RANGE[0], AUTO_K_RANGE[1] + 1))),
    ])
    def test_fitted_k_recorded(self, tmp_path, k, allowed):
        code = run("recovery-check", "--na", "8", "--nb", "8", "--datasets", "2",
                   "--k", k, "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "recovery_check.json").read_text())
        for cell in payload["result"]["cells"]:
            assert len(cell["ks"]) == 2
            assert set(cell["ks"]) <= allowed

    @pytest.mark.parametrize("k", ["3", "auto"])
    def test_k_other_than_two(self, tmp_path, k):
        code = run("recovery-check", "--na", "8", "--nb", "8", "--datasets", "2",
                   "--k", k, "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "recovery_check.json").read_text())
        for cell in payload["result"]["cells"]:
            assert all(0.0 <= f <= 1.0 for f in cell["fractions"])


class TestConfigFile:
    def test_config_sets_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nn = 80\nna = 40\ntrials = 4\n")
        code = run("gap-check", "--config", str(cfg), "--trials", "2",
                   "--seed", "13", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "gap_check.json").read_text())
        assert payload["config"]["n"] == 80
        assert payload["config"]["trials"] == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nbogus = 1\n")
        assert run("gap-check", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path)) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_restarts_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[recovery-check]\nrestarts = 5\n")
        assert run("recovery-check", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path)) == 1
        assert "unknown key 'restarts'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--conf", "--co", "--conf="])
    def test_abbreviated_config_flag(self, tmp_path, flag):
        # argparse accepts any unambiguous prefix of --config, so the file
        # must be read for it too
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nn = 80\nna = 40\ntrials = 2\n")
        given = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
        code = run("gap-check", *given, "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "gap_check.json").read_text())
        assert payload["config"]["n"] == 80

    def test_ambiguous_prefix_is_usage_error(self, tmp_path, capsys):
        # --c could be --config, --cluster-rule or --cluster-mode
        assert run("placebo-synthetic", "--c", str(tmp_path / "run.ini"),
                   "--seed", "1", "--out", str(tmp_path)) == 2
        assert "ambiguous option" in capsys.readouterr().err

    def test_file_supplies_required_flag(self, tmp_path, capsys):
        run("simulate", "--na", "6", "--nb", "6", "--seed", "3", "--out", str(tmp_path))
        given = ["cluster", "--panel", str(tmp_path / "simulate_panel.csv"), "--k", "2",
                 "--seed", "1", "--out", str(tmp_path)]
        assert run(*given) == 2
        assert "required: --t0" in capsys.readouterr().err
        cfg = tmp_path / "run.ini"
        cfg.write_text("[cluster]\nt0 = 8\n")
        assert run(*given, "--config", str(cfg)) == 0
        assert json.loads((tmp_path / "cluster.json").read_text())["config"]["t0"] == 8
        # the file supplied t0 to its own call only
        capsys.readouterr()
        assert run(*given) == 2
        assert "required: --t0" in capsys.readouterr().err

    def test_file_values_apply_to_their_own_call_only(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nn = 80\nna = 40\n")
        argv = ["gap-check", "--trials", "2", "--seed", "1"]
        assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
        assert json.loads((tmp_path / "a" / "gap_check.json").read_text())["config"]["n"] == 80
        assert run(*argv, "--na", "25", "--out", str(tmp_path / "b")) == 0
        assert json.loads((tmp_path / "b" / "gap_check.json").read_text())["config"]["n"] == 1000

    @pytest.mark.parametrize("command", [None, *sorted(build_parser()[1])])
    def test_help_matches_a_fresh_parser(self, command, tmp_path, capsys):
        # calls whose files supply the required flags come first; the help
        # of the parser every call shares must not show what they supplied
        cfg = tmp_path / "run.ini"
        cfg.write_text("[cluster]\npanel = p.csv\nt0 = 8\n\n[spectrum]\npanel = p.csv\n")
        for name in ("cluster", "spectrum"):
            assert run(name, "--config", str(cfg), "--bogus") == 2
        capsys.readouterr()
        assert run(*(["--help"] if command is None else [command, "--help"])) == 0
        parser, subs = build_parser()
        fresh = parser if command is None else subs[command]
        assert capsys.readouterr().out == fresh.format_help()

    def test_missing_file_rejected(self, tmp_path):
        assert run("gap-check", "--config", str(tmp_path / "nope.ini"),
                   "--seed", "1", "--out", str(tmp_path)) == 1

    def test_other_sections_ignored(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nna = 999\n\n[gap-check]\nn = 70\nna = 35\n")
        run("gap-check", "--config", str(cfg), "--trials", "2",
            "--seed", "3", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "gap_check.json").read_text())
        assert payload["config"]["n"] == 70

    def test_bad_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nna = abc\n")
        assert run("gap-check", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path)) == 1
        assert "key 'na'" in capsys.readouterr().err

    def test_spec_valued_keys(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nnoise = uniform:0.5\n")
        run("gap-check", "--config", str(cfg), "--n", "50", "--na", "25",
            "--trials", "2", "--seed", "3", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "gap_check.json").read_text())
        assert payload["config"]["noise"] == "uniform:0.5"

    def test_bad_range_key_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[placebo-panel]\nrange = 1997Q1\n")
        assert run("placebo-panel", "--hpi", "x.csv", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "out")) == 1
        assert "key 'range': range '1997Q1': expected FIRST:LAST" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_range_key(self, tmp_path):
        hpi = write_hpi(tmp_path / "hpi.csv")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[placebo-panel]\nrange = 1997Q1:1998Q4\n")
        code = run("placebo-panel", "--hpi", str(hpi), "--config", str(cfg),
                   "--iterations", "1", "--rule", "fixed:2", "--k", "1",
                   "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "placebo_panel.json").read_text())
        assert payload["config"]["t"] == 8


def test_main_builds_the_parser_once(monkeypatch, tmp_path):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    argv = ["gap-check", "--n", "50", "--na", "25", "--trials", "2", "--seed", "1"]
    assert run(*argv, "--out", str(tmp_path / "a")) == 0
    assert run(*argv, "--out", str(tmp_path / "b")) == 0
    assert len(built) == 1


class TestEnvOutDir:
    def test_env_receives_files(self, monkeypatch, tmp_path):
        target = tmp_path / "nested" / "reports"
        monkeypatch.setenv("CLUSTERSC_OUT_DIR", str(target))
        code = run("gap-check", "--n", "50", "--na", "25", "--trials", "2",
                   "--seed", "4")
        assert code == 0
        assert (target / "gap_check.json").exists()


# SHA-256 of every file the acceptance criterion-8 commands and one lasso run
# write
RECORDED_DIGESTS = {
    "simulate/simulate_meta.json":
        "a9949117ec744548c6dad9043b3c85528871668262874211beb909cb84bea8aa",
    "simulate/simulate_panel.csv":
        "2002c83c52ecc460ce14cabdc4221e2d5451c49020e0022f4ffe3e8199af5ad8",
    "simulate/simulate_signal.csv":
        "ed7aac1d175ef1c180f264856a72c443eae6f2de492c99b3556aa98562c12750",
    "placebo-synthetic/placebo_synthetic.json":
        "1df057ff709b9acba0c917f3015dc73f49d77d507b511d1bf9c8071a3ad78a96",
    "placebo-synthetic/placebo_synthetic_plot.csv":
        "4dc47022e0399f399fe9c7b8ab747005e4c276632de2cdd836b05bfd09045d60",
    "placebo-panel/placebo_panel.json":
        "eac2a22402d16aabafedc0659095fab93326ecb3e747cd0eda43722cab26912a",
    "placebo-panel/placebo_panel_plot.csv":
        "9b6cd1d832e244269d22c81b10eef01a0571169e73e807773b04ce4dae09c383",
    "cluster/cluster.json":
        "1699ef2ff3565d210d49d95eccedb12638cb89272868d723c47a97a581bcb462",
    "cluster/cluster_plot.csv":
        "cc211e595ed9c2fa650b3fe13a562328f85380fc96e072f953aeac84824e6f24",
    "spectrum/spectrum.json":
        "65380e697cb22efd5f0785f8b7985fd108b9010857c187089f73f6606fdadca0",
    "spectrum/spectrum_plot.csv":
        "c2624a1e8d7150a5e859ee4aeed6ecaeb44678e19afc640d6b335433b13f24b5",
    "gap-check/gap_check.json":
        "771b096cb09c24c8a98f6cb0931fb1db3c72bb13117dfe99418abb66beff3ebe",
    "gap-check/gap_check_plot.csv":
        "9ef4f1967d188cb1938b976d8916e1c5a752abeae85e82103b6e03cdc531b0be",
    "recovery-check/recovery_check.json":
        "c515d29cbf32615fb7bf83153e5269a3802aa7deedb683b04f4e37c834194fa3",
    "recovery-check/recovery_check_plot.csv":
        "4ed73641b189fd02e83690bccfdd4a9fc86d95ab0dd3cac8cbbe4d5915a4b69f",
    "placebo-synthetic-lasso/placebo_synthetic.json":
        "90284aeb6acea4929a973e7dcbac91b935ac5c966b39a4797dc2583bc7b08615",
    "placebo-synthetic-lasso/placebo_synthetic_plot.csv":
        "bbdce8a6b8b78c761f9125489af5e5ce3edcbc9188842f31402f71bb9384dbcc",
    "placebo-panel-auto/placebo_panel.json":
        "fd49e1e6b01b72026ca969a0a8c6050256cf118a45a4e181b185996a2e1e5202",
    "placebo-panel-auto/placebo_panel_plot.csv":
        "d88efbfe43284da43e59eb39b51887e5f43a694c5d82cf30257c1b5ed2b2180f",
    "placebo-synthetic-subset/placebo_synthetic.json":
        "29b03959c21df838056ff2deafd828cea29d2f571f84e455f26dae665c237a6b",
    "placebo-synthetic-subset/placebo_synthetic_plot.csv":
        "a16b9b0adcb7abcc9aa4d81a78f46abd863d996aac02f16db82da4c2bb3b454e",
}


# The criterion-8 commands, one lasso run, one split run with auto k and the
# random subset, and one leave-one-out run with the random subset, a cluster
# rule of its own and one clustering per dataset; {panel} is a 20-unit simulated panel and {hpi} a long
# quarterly file (see the reference_inputs fixture)
REFERENCE_COMMANDS = {
    "simulate": ["simulate", "--na", "6", "--nb", "6", "--seed", "41"],
    "placebo-synthetic": ["placebo-synthetic", "--na", "10", "--nb", "10",
                          "--datasets", "1", "--rule", "fixed:3", "--k", "2",
                          "--seed", "42"],
    "placebo-panel": ["placebo-panel", "--panel", "{panel}", "--t0", "8",
                      "--iterations", "2", "--rule", "fixed:3", "--k", "2",
                      "--seed", "43"],
    "cluster": ["cluster", "--panel", "{panel}", "--t0", "8", "--k", "2",
                "--seed", "44"],
    "spectrum": ["spectrum", "--panel", "{panel}", "--t0", "8"],
    "gap-check": ["gap-check", "--n", "60", "--na", "30", "--trials", "3",
                  "--seed", "45"],
    "recovery-check": ["recovery-check", "--na", "8", "--nb", "8", "--datasets", "2",
                       "--noise-grid", "gaussian:0.0,gaussian:0.2",
                       "--rule", "fixed:6", "--seed", "46"],
    "placebo-synthetic-lasso": ["placebo-synthetic", "--method", "lasso",
                                "--na", "20", "--nb", "20", "--datasets", "1",
                                "--k", "2", "--seed", "47"],
    "placebo-panel-auto": ["placebo-panel", "--panel", "{panel}", "--t0", "8",
                           "--iterations", "2", "--k", "auto", "--with-random-subset",
                           "--seed", "49"],
    "placebo-synthetic-subset": ["placebo-synthetic", "--na", "10", "--nb", "10",
                                 "--datasets", "2", "--cluster-mode", "per_dataset",
                                 "--with-random-subset", "--rule", "fixed:4",
                                 "--cluster-rule", "fixed:2", "--k", "2", "--seed", "50"],
}
# the same, plus the --hpi path with its window and a label for t0
CONFIG_COMMANDS = {
    **REFERENCE_COMMANDS,
    "placebo-panel-hpi": ["placebo-panel", "--hpi", "{hpi}", "--range", "1997Q1:1998Q4",
                          "--t0", "1998Q2", "--iterations", "2", "--rule", "fixed:2",
                          "--k", "auto", "--with-random-subset", "--seed", "48"],
}
# flags that name files; the config echo leaves them out
PATH_FLAGS = {"out", "config", "stem", "panel", "hpi"}


# writes the 20-unit panel the reference commands read as {panel}
PANEL_COMMAND = ["simulate", "--na", "10", "--nb", "10", "--seed", "40"]


@pytest.fixture()
def reference_inputs(tmp_path):
    src = tmp_path / "panel_src"
    assert run(*PANEL_COMMAND, "--out", str(src)) == 0
    return {
        "panel": str(src / "simulate_panel.csv"),
        "hpi": str(write_hpi(src / "hpi.csv")),
    }


def reference_argv(label, inputs):
    return [arg.format(**inputs) for arg in CONFIG_COMMANDS[label]]


def flag_dests(command):
    """Every flag of a command by dest name, less those naming files."""
    return {a.dest for a in build_parser()[1][command]._actions} - {"help"} - PATH_FLAGS


def echoed_config(out):
    """The config of the one JSON file a command wrote into out."""
    (path,) = out.glob("*.json")
    return json.loads(path.read_text())["config"]


@pytest.mark.parametrize("label", sorted(CONFIG_COMMANDS))
def test_config_echoes_every_flag(label, reference_inputs, tmp_path, capsys):
    argv = reference_argv(label, reference_inputs)
    assert run(*argv, "--out", str(tmp_path / "out")) == 0
    config = echoed_config(tmp_path / "out")
    assert flag_dests(argv[0]) <= set(config)
    assert not PATH_FLAGS & set(config)
    if label == "placebo-panel-hpi":
        assert config["range"] == "1997Q1:1998Q4"
        assert config["t0"] == 6  # the label 1998Q2, resolved to a count


@pytest.mark.parametrize("label", sorted(CONFIG_COMMANDS))
def test_config_echo_as_ini_reruns_the_same_files(label, reference_inputs, tmp_path, capsys):
    """Writing the echoed flag keys as an INI section reproduces the run."""
    argv = reference_argv(label, reference_inputs)
    command = argv[0]
    assert run(*argv, "--out", str(tmp_path / "flags")) == 0
    config = echoed_config(tmp_path / "flags")
    dests = flag_dests(command)
    ini = tmp_path / "run.ini"
    ini.write_text("\n".join(
        [f"[{command}]"]
        + [f"{key} = {value}" for key, value in config.items()
           if key in dests and value is not None]
    ) + "\n")
    inputs = []
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--panel", "--hpi"):
            inputs += [flag, value]
    assert run(command, *inputs, "--config", str(ini), "--out", str(tmp_path / "ini")) == 0
    written = sorted(path.name for path in (tmp_path / "flags").iterdir())
    assert sorted(path.name for path in (tmp_path / "ini").iterdir()) == written
    for name in written:
        assert (tmp_path / "ini" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes(), name


def openblas_kernel() -> str | None:
    """The kernel numpy's scipy-openblas picked for this CPU, or None off that
    build; OPENBLAS_CORETYPE, when set, is what it picked."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


# the native digest sets, by the OpenBLAS kernel they were recorded under
NATIVE_DIGESTS = {"SkylakeX": RECORDED_DIGESTS}


def native_digests() -> dict:
    """This host's native digest set; skips, naming the kernel, when none is recorded."""
    kernel = openblas_kernel()
    if kernel not in NATIVE_DIGESTS:
        pytest.skip(
            f"no native digests are recorded for the OpenBLAS kernel {kernel!r} "
            f"(recorded: {', '.join(NATIVE_DIGESTS)}); the Prescott digests still check the bytes"
        )
    return NATIVE_DIGESTS[kernel]


def test_outputs_match_recorded_digests(reference_inputs, tmp_path, capsys):
    """The criterion-8 commands, one lasso run, one auto-k split run and one
    leave-one-out run with the random subset write the recorded bytes.

    Criterion 8 checks that a rerun repeats itself; this checks that a
    change to the code leaves the outputs as they were. The criterion-8
    commands fit ridge only, so a lasso placebo run is added to cover the
    lasso solver, and their split run uses a fixed k and no random subset,
    so a split run with auto k and the random subset is added to cover the
    donor pools the split harness shares between targets. Their
    leave-one-out run has neither the random subset, nor a cluster rule of
    its own, nor one clustering per dataset, so a run with all three is
    added. A change that is meant to alter an output updates its
    digest here and says why.

    The digests were recorded with numpy 2.4.6 and scipy 1.17.1 on
    OpenBLAS 0.3.31 (x86-64, 2-core Xeon). Another numpy or BLAS build may
    round differently and change them. So may the same build on another CPU:
    numpy's OpenBLAS is a DYNAMIC_ARCH build that picks its kernels by CPU,
    and these digests were recorded under its SkylakeX (AVX-512) kernels.
    Under the Haswell or Zen kernels only 6 of the 21 match, and under
    Sandybridge, Nehalem or Prescott only 4, with no code change. So the
    digests are kept by kernel (NATIVE_DIGESTS), the kernel is read from the
    library, and under a kernel with no recorded set the check skips and
    names it. Rerun the commands on the parent commit, on the same host, to
    tell such a difference from a real change.

    The commands run twice: with this process's whole affinity mask and
    pinned to one CPU, so the bytes are shown not to depend on how many CPUs
    the BLAS may use.
    """
    expected = native_digests()
    mask = os.sched_getaffinity(0)
    for cpus in (mask, {min(mask)}):
        digests = {}
        os.sched_setaffinity(0, cpus)
        try:
            for label in REFERENCE_COMMANDS:
                out = tmp_path / f"{len(cpus)}cpu" / label
                argv = reference_argv(label, reference_inputs)
                assert run(*argv, "--out", str(out)) == 0, label
                for path in sorted(out.iterdir()):
                    digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.sched_setaffinity(0, mask)
        capsys.readouterr()
        assert digests == expected, f"{len(cpus)} CPU(s)"


def test_fresh_interpreter_outputs_match_recorded_digests(tmp_path):
    """The placebo-synthetic reference commands, each run by a fresh
    `python -m clustersc` at this process's whole affinity mask, write the
    recorded bytes.

    A fresh process has loaded no scipy when it starts its first k-means
    run, so it loads scipy in the middle of its first placebo call. The
    test above never sees that path: test_outputs_match_recorded_digests
    runs the commands in the test process, where the test modules have
    loaded scipy already.
    """
    expected = native_digests()
    labels = [label for label in REFERENCE_COMMANDS if label.startswith("placebo-synthetic")]
    digests = {}
    for label in labels:
        out = tmp_path / label
        done = run_fresh(*REFERENCE_COMMANDS[label], "--out", str(out))
        assert done.returncode == 0, done.stderr
        for path in sorted(out.iterdir()):
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {
        key: digest for key, digest in expected.items() if key.split("/")[0] in labels
    }


# SHA-256 of the same files, written under OpenBLAS's Prescott kernels
PRESCOTT_DIGESTS = {
    "simulate/simulate_meta.json":
        "a9949117ec744548c6dad9043b3c85528871668262874211beb909cb84bea8aa",
    "simulate/simulate_panel.csv":
        "cca71470ed9ab4e9dcecc8b403642babfaa2c841275f50f96d51686fe1e6e062",
    "simulate/simulate_signal.csv":
        "b49574322f261fe762db715bf3f9eecfecc6e3122a0739c3b6cf09d7204d5cf6",
    "placebo-synthetic/placebo_synthetic.json":
        "3313a9545acd54cbc6fefc75f3a133eb73279e05a828d9d4a9cb58d793fac5d9",
    "placebo-synthetic/placebo_synthetic_plot.csv":
        "1d6e8dcee4170bd704334b373d3512acf1cefb470c6c467da8fcc4c5570c0377",
    "placebo-panel/placebo_panel.json":
        "2e344a7505c94affbfe0b82f3f1c0fffee6f1612ae22b98aad9fd7639d282a0e",
    "placebo-panel/placebo_panel_plot.csv":
        "47336cb168d121e66290973c8cf570e976e1692c0d5c03021a5deea8a3be468f",
    "cluster/cluster.json":
        "8c3824807d78f8a8797f6f0969fce83b289765d71227fb3aa83dedc3c303f4ec",
    "cluster/cluster_plot.csv":
        "cc211e595ed9c2fa650b3fe13a562328f85380fc96e072f953aeac84824e6f24",
    "spectrum/spectrum.json":
        "518b732a8dc6ec1e83ebd0278254f6acb1ea283e56c44c822a21be2fc263c39d",
    "spectrum/spectrum_plot.csv":
        "556d12ede29a4df1ca8a012e11d6dc8c4d1afd0f28d6259f343f1eb60477cca0",
    "gap-check/gap_check.json":
        "62c9ff7c54ddebe6317d6b203cc4a2a2ca3320a1137bb67d51c605ccba8d7b07",
    "gap-check/gap_check_plot.csv":
        "3e37e088a94ae73cb272c10af5b918ee40291586b0b345754a5353c8621457a9",
    "recovery-check/recovery_check.json":
        "c515d29cbf32615fb7bf83153e5269a3802aa7deedb683b04f4e37c834194fa3",
    "recovery-check/recovery_check_plot.csv":
        "4ed73641b189fd02e83690bccfdd4a9fc86d95ab0dd3cac8cbbe4d5915a4b69f",
    "placebo-synthetic-lasso/placebo_synthetic.json":
        "106a9bb03dfaa30ded99d635ad372f6febf4ef5b29ea475399617323a162442c",
    "placebo-synthetic-lasso/placebo_synthetic_plot.csv":
        "192b532c0f1b5c6c6d4bb0aa52261cf275ff29ebbec0cf6a4d45a570043d1165",
    "placebo-panel-auto/placebo_panel.json":
        "852523ddd292b1e8b8c0f5dc6e3190222c8b21dd66871d44b9f8fe92fad27fe2",
    "placebo-panel-auto/placebo_panel_plot.csv":
        "2ce0d6d73d6d30e1ba9fe1536d414ea88f8dffa2380d1e4547355166ab218b97",
    "placebo-synthetic-subset/placebo_synthetic.json":
        "97781d74086b0075dbc0b8b8789f05fedf69cb6eec4ab97a236b19ac18a41d67",
    "placebo-synthetic-subset/placebo_synthetic_plot.csv":
        "37d9c500b127c51219716e9e08914a98bd8ee8c591bcb6965e6645cdc666b7d8",
}

# run by a fresh interpreter: argv[1] is the output directory, argv[2] the
# JSON of [PANEL_COMMAND, REFERENCE_COMMANDS]; prints the digests as JSON
PRESCOTT_SCRIPT = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from clustersc.cli import main
out = Path(sys.argv[1])
panel_command, commands = json.loads(sys.argv[2])
panel = str(out / "panel_src" / "simulate_panel.csv")
digests = {}
with contextlib.redirect_stdout(io.StringIO()):
    assert main(panel_command + ["--out", str(out / "panel_src")]) == 0
    for label, argv in commands.items():
        assert main([arg.format(panel=panel) for arg in argv] + ["--out", str(out / label)]) == 0, label
        for path in sorted((out / label).iterdir()):
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def numpy_blas() -> str | None:
    """The name of the BLAS numpy was built against, when numpy says."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def test_outputs_match_prescott_digests(tmp_path):
    """The reference commands, and the simulate run that writes their panel,
    write the recorded bytes under OpenBLAS's Prescott kernels, on any
    x86-64 host.

    test_outputs_match_recorded_digests holds only where numpy's OpenBLAS
    picks the kernels the digests were recorded under (SkylakeX). This
    check pins the kernels instead: one fresh interpreter runs every
    command with OPENBLAS_CORETYPE=Prescott, a baseline kernel that any
    x86-64 CPU runs, so it fails only when the code changes bytes. The
    environment variable is honoured by the DYNAMIC_ARCH scipy-openblas
    build numpy ships with; with another BLAS, or on another architecture,
    the check is skipped and says why. A change meant to alter an output
    updates both digest sets.
    """
    blas = numpy_blas()
    if blas != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas!r}, not scipy-openblas: OPENBLAS_CORETYPE pins nothing")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the Prescott kernels are x86-64 kernels; this host is {platform.machine()}")
    done = subprocess.run(
        [sys.executable, "-c", PRESCOTT_SCRIPT, str(tmp_path),
         json.dumps([PANEL_COMMAND, REFERENCE_COMMANDS])],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott",
             "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == PRESCOTT_DIGESTS
