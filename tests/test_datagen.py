"""Synthetic panel generator: hand values, moment checks, determinism.

Known values used below:
  - A sinusoid row with alpha=1, omega=1, phi=0 on T=4 normalized time
    points (1/4, 2/4, 3/4, 4/4) is sin(2 pi t) = [1, 0, -1, 0].
  - alpha=0 forces an all-zero row regardless of omega and phi.
  - Uniform noise on [-h, h] has variance h^2 / 3.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from clustersc.datagen import (
    GROUP_A_SPEC,
    GROUP_B_SPEC,
    NoiseSpec,
    SignalSpec,
    add_noise,
    gen_dataset,
    gen_group,
    parse_noise,
)
from clustersc.errors import ConfigError, InvalidParamsError


def sinusoid_rows(alphas, omegas, phis, t_count):
    """The oracle's basis rows, alpha * sin(2 pi omega t + phi) at t = 1/T .. T/T."""
    alphas, omegas, phis = (np.asarray(v, dtype=float)[:, None] for v in (alphas, omegas, phis))
    t = np.arange(1, t_count + 1) / t_count
    return alphas * np.sin(2.0 * np.pi * omegas * t + phis)


def oracle_group(spec, n_units, t_count, rng):
    """gen_group redrawn in its order (beta alphas, uniform omegas, normal
    phis, uniform weights); returns the basis and the group's signal."""
    r = spec.n_components
    alphas = rng.beta(*spec.alpha, size=r)
    omegas = rng.uniform(*spec.omega, size=r)
    phis = rng.normal(*spec.phi, size=r)
    basis = sinusoid_rows(alphas, omegas, phis, t_count)
    return basis, rng.uniform(0.0, 1.0, size=(n_units, r)) @ basis


class TestSinusoidRows:
    def test_hand_values(self):
        rows = sinusoid_rows(np.array([1.0]), np.array([1.0]), np.array([0.0]), 4)
        np.testing.assert_allclose(rows, [[1.0, 0.0, -1.0, 0.0]], atol=1e-12)

    def test_zero_amplitude(self):
        rows = sinusoid_rows(np.array([0.0]), np.array([2.7]), np.array([1.3]), 6)
        np.testing.assert_allclose(rows, 0.0, atol=0)

    def test_bounded_by_alpha(self):
        rng = np.random.default_rng(211)
        alphas = rng.uniform(0, 2, size=5)
        rows = sinusoid_rows(alphas, rng.uniform(1, 6, 5), rng.normal(size=5), 50)
        assert np.all(np.abs(rows) <= alphas[:, None] + 1e-12)


class TestBasisAndGroup:
    def test_basis_shape_and_determinism(self):
        basis, signal = oracle_group(GROUP_A_SPEC, 7, 10, np.random.default_rng(5))
        assert basis.shape == (3, 10)
        assert np.array_equal(gen_group(GROUP_A_SPEC, 7, 10, np.random.default_rng(5)), signal)
        assert np.array_equal(gen_group(GROUP_A_SPEC, 7, 10, 5), signal)

    @pytest.mark.parametrize(
        "spec", [GROUP_A_SPEC, GROUP_B_SPEC, SignalSpec(1, (0.5, 0.5), (0.0, 9.0), (2.0, 0.0))]
    )
    @pytest.mark.parametrize("n_units, t_count", [(1, 2), (5, 13), (40, 100)])
    def test_group_matches_oracle_bit_for_bit(self, spec, n_units, t_count):
        # the same signal, and the generator left where the oracle leaves it
        ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
        signal = gen_group(spec, n_units, t_count, ours)
        assert np.array_equal(signal, oracle_group(spec, n_units, t_count, theirs)[1])
        assert ours.random() == theirs.random()

    def test_group_rank_bounded_by_components(self):
        rng = np.random.default_rng(7)
        g = gen_group(GROUP_A_SPEC, 40, 12, rng)
        assert g.shape == (40, 12)
        s = np.linalg.svd(g, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 3

    def test_group_shares_one_basis(self):
        # all rows lie in a single 3-d row space, so any 4 rows are dependent
        rng = np.random.default_rng(9)
        g = gen_group(GROUP_B_SPEC, 4, 20, rng)
        s = np.linalg.svd(g, compute_uv=False)
        assert s[3] <= 1e-10 * s[0]


class TestNoise:
    def test_gaussian_zero_is_identity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 4))
        y = add_noise(x, NoiseSpec.gaussian(0.0), np.random.default_rng(1))
        assert np.array_equal(x, y)

    def test_gaussian_moments(self):
        rng = np.random.default_rng(13)
        draws = add_noise(np.zeros((200, 100)), NoiseSpec.gaussian(0.3), rng)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 0.09) < 0.05 * 0.09

    def test_uniform_bounded_and_variance(self):
        rng = np.random.default_rng(17)
        h = 0.5
        draws = add_noise(np.zeros((200, 100)), NoiseSpec.uniform(h), rng)
        assert np.all(np.abs(draws) <= h)
        assert abs(draws.var() - h * h / 3) < 0.05 * h * h / 3

    def test_student_t_heavy_tails(self):
        rng = np.random.default_rng(19)
        draws = add_noise(np.zeros(100000), NoiseSpec.student_t(5, 0.3), rng).ravel()
        z = draws - draws.mean()
        kurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
        assert kurt > 1.0

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            NoiseSpec.gaussian(-0.1)
        with pytest.raises(InvalidParamsError):
            NoiseSpec.uniform(-1.0)
        with pytest.raises(InvalidParamsError):
            NoiseSpec.student_t(2, 0.3)
        with pytest.raises(InvalidParamsError):
            NoiseSpec.student_t(5, -0.3)
        with pytest.raises(InvalidParamsError):
            NoiseSpec("triangular", (1.0,))

    @pytest.mark.parametrize("params, shown", [
        pytest.param(("0.3",), r"\('0\.3',\)", id="text"),
        pytest.param((True,), r"\(True,\)", id="bool"),
    ])
    def test_params_must_be_numbers(self, params, shown):
        # numpy's isfinite would raise a raw TypeError for text and take a
        # bool for a number
        with pytest.raises(InvalidParamsError, match=f"^gaussian parameters must be numbers, got {shown}$"):
            NoiseSpec("gaussian", params)

    @pytest.mark.parametrize("kind, params", [
        ("gaussian", (1.0, 2.0)), ("uniform", ()), ("student_t", (4.0,)), ("laplace", (1.0,)),
    ])
    def test_kind_and_arity_name_the_grammar(self, kind, params):
        with pytest.raises(InvalidParamsError, match=(
            r"^expected gaussian:SD, uniform:HALF_WIDTH or student_t:DOF:SCALE, "
            rf"got kind '{kind}' with {len(params)} parameter\(s\)$"
        )):
            NoiseSpec(kind, params)

    def test_parse_noise_reports_the_spec_diagnosis(self):
        with pytest.raises(ConfigError, match=(
            r"^noise 'gaussian:1:2': expected gaussian:SD, uniform:HALF_WIDTH or "
            r"student_t:DOF:SCALE, got kind 'gaussian' with 2 parameter\(s\)$"
        )):
            parse_noise("gaussian:1:2")

    def test_overflowing_student_t_draws_warn_nothing(self):
        # scale * t overflows to inf; the panel or the gap check refuses the draws
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = NoiseSpec.student_t(3, 1e308).sample(1000, np.random.default_rng(1))
        assert np.isinf(draws).any()

    def test_uniform_range_must_be_finite(self):
        # Generator.uniform draws from [-h, h) only while 2 * h is finite
        widest = float(np.finfo(float).max) / 2
        assert np.isfinite(add_noise(np.zeros(3), NoiseSpec.uniform(widest), 1)).all()
        with pytest.raises(InvalidParamsError, match=r"half_width <= 8\.988465674311579e\+307"):
            NoiseSpec.uniform(np.nextafter(widest, np.inf))


class TestSignalSpecValidation:
    def test_domains(self):
        with pytest.raises(InvalidParamsError):
            SignalSpec(0, (2, 2), (1, 3), (0, 1))
        with pytest.raises(InvalidParamsError):
            SignalSpec(3, (0, 2), (1, 3), (0, 1))
        with pytest.raises(InvalidParamsError):
            SignalSpec(3, (2, 2), (3, 1), (0, 1))
        with pytest.raises(InvalidParamsError):
            SignalSpec(3, (2, 2), (1, 3), (0, -1))


class TestGenDataset:
    def test_shapes_and_labels(self):
        ds = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 6, 4, 10, 8, NoiseSpec.gaussian(0.2), seed=42)
        assert ds.panel.values.shape == (10, 10)
        assert ds.true_signal.shape == (10, 10)
        assert ds.group_labels == ["A"] * 6 + ["B"] * 4
        assert len(ds.panel.unit_ids) == 10
        assert len(set(ds.panel.unit_ids)) == 10
        assert ds.panel.split.t0 == 8
        assert ds.seed == 42

    def test_true_signal_rank(self):
        ds = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 30, 30, 12, 10, NoiseSpec.gaussian(0.1), seed=1)
        s = np.linalg.svd(ds.true_signal, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 6

    def test_noiseless_panel_equals_signal(self):
        ds = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 5, 5, 10, 8, NoiseSpec.gaussian(0.0), seed=3)
        assert np.array_equal(ds.panel.values, ds.true_signal)

    def test_reproducible_from_seed(self):
        a = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 5, 5, 10, 8, NoiseSpec.gaussian(0.3), seed=9)
        b = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 5, 5, 10, 8, NoiseSpec.gaussian(0.3), seed=9)
        assert np.array_equal(a.panel.values, b.panel.values)
        assert np.array_equal(a.true_signal, b.true_signal)

    def test_noise_is_additive(self):
        noisy = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 5, 5, 10, 8, NoiseSpec.gaussian(0.3), seed=9)
        clean = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 5, 5, 10, 8, NoiseSpec.gaussian(0.0), seed=9)
        assert np.array_equal(noisy.true_signal, clean.true_signal)
        resid = noisy.panel.values - noisy.true_signal
        assert np.std(resid) > 0.2

    def test_default_specs_match_protocol(self):
        assert GROUP_A_SPEC.n_components == 3
        assert GROUP_A_SPEC.alpha == (2.0, 2.0)
        assert GROUP_A_SPEC.omega == (1.0, 3.0)
        assert GROUP_A_SPEC.phi == (0.0, 1.0)
        assert GROUP_B_SPEC.alpha == (2.0, 5.0)
        assert GROUP_B_SPEC.omega == (3.0, 6.0)

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 0, 5, 10, 8, NoiseSpec.gaussian(0.1), seed=1)
        with pytest.raises(InvalidParamsError):
            gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 5, 5, 10, 10, NoiseSpec.gaussian(0.1), seed=1)
