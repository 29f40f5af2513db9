"""Command line interface: exit codes, file outputs, config merging.

Every invocation goes through ``main(argv)`` in-process so coverage tools
see the handlers and failures carry ordinary tracebacks.
"""

from __future__ import annotations

import json

import pytest

from clustersc.cli import (
    main,
    parse_k,
    parse_noise,
    parse_noise_grid,
    parse_rule,
    resolve_out_dir,
)
from clustersc.errors import ConfigError
from clustersc.linalg import RankRule
from clustersc.panel import load_panel_csv
from clustersc.reporting import rule_tag


def run(*argv):
    return main(list(argv))


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

    def test_noise_grid(self):
        grid = parse_noise_grid("gaussian:0.0,gaussian:0.4")
        assert [n.params[0] for n in grid] == [0.0, 0.4]

    def test_rule_forms(self):
        assert parse_rule("fixed:3") == RankRule.fixed(3)
        assert parse_rule("energy:0.95") == RankRule.energy(0.95)
        assert parse_rule("energy:0.9:squared") == RankRule.energy(0.9, squared=True)

    @pytest.mark.parametrize(
        "rule",
        [RankRule.fixed(3), RankRule.energy(0.95), RankRule.energy(0.9, squared=True)],
    )
    def test_rule_tag_round_trip(self, rule):
        assert parse_rule(rule_tag(rule)) == rule

    @pytest.mark.parametrize("bad", ["", "fixed", "fixed:0", "energy:1.5", "energy:0.9:cubed"])
    def test_bad_rule(self, bad):
        with pytest.raises(ConfigError):
            parse_rule(bad)

    def test_k(self):
        assert parse_k("auto") == "auto"
        assert parse_k("4") == 4
        with pytest.raises(ConfigError):
            parse_k("0")


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
        names = [v["name"] for v in payload["config"]["variants"]]
        assert names == ["sc_full", "cluster_sc", "sc_random_subset"]

    def test_config_echo_keeps_squared_rule(self, tmp_path):
        run("placebo-synthetic", "--na", "10", "--nb", "10", "--datasets", "1",
            "--rule", "energy:0.9:squared", "--cluster-rule", "fixed:3", "--k", "2",
            "--seed", "2", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "placebo_synthetic.json").read_text())
        rules = [v["rule"] for v in payload["config"]["variants"]]
        assert rules == ["energy:0.9:squared", "fixed:3"]


class TestPlaceboPanel:
    def test_panel_and_hpi_are_exclusive(self, tmp_path, capsys):
        assert run("placebo-panel", "--seed", "1", "--out", str(tmp_path)) == 1
        assert run("placebo-panel", "--panel", "x.csv", "--hpi", "y.csv",
                   "--seed", "1", "--out", str(tmp_path)) == 1

    def test_panel_requires_t0(self, tmp_path):
        assert run("placebo-panel", "--panel", "x.csv", "--seed", "1",
                   "--out", str(tmp_path)) == 1

    def test_bad_range(self, tmp_path):
        assert run("placebo-panel", "--hpi", "x.csv", "--range", "1997Q1",
                   "--seed", "1", "--out", str(tmp_path)) == 1

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

    def test_spec_valued_keys(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[gap-check]\nnoise = uniform:0.5\n")
        run("gap-check", "--config", str(cfg), "--n", "50", "--na", "25",
            "--trials", "2", "--seed", "3", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "gap_check.json").read_text())
        assert payload["config"]["noise"] == "uniform:0.5"


class TestEnvOutDir:
    def test_env_receives_files(self, monkeypatch, tmp_path):
        target = tmp_path / "nested" / "reports"
        monkeypatch.setenv("CLUSTERSC_OUT_DIR", str(target))
        code = run("gap-check", "--n", "50", "--na", "25", "--trials", "2",
                   "--seed", "4")
        assert code == 0
        assert (target / "gap_check.json").exists()
