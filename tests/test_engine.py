"""Synthetic control engine: learn/infer plus the clustered pipeline.

The noiseless constructions rely on exact linear algebra: when donors are
exactly rank-r and the target's pre-intervention series lies in the donor
row space restricted to the pre window, any least squares solution
reproduces the target's full series, so post-intervention error is zero up
to float noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersc.cluster import cluster_members, fit_cluster_model
from clustersc.datagen import GROUP_A_SPEC, GROUP_B_SPEC, NoiseSpec, gen_dataset
from clustersc.engine import (
    EffectEstimate,
    InterventionSplit,
    ScFit,
    cluster_sc,
    sc_denoise,
    sc_fit_weights,
    sc_infer,
    sc_learn,
)
from clustersc.errors import (
    ClusterScError,
    DegenerateClusterError,
    DegenerateSpectrumError,
    InvalidParamsError,
    InvalidRankError,
    ShapeError,
)
from clustersc.evaluate import _mean_squares
from clustersc.linalg import RankRule, gram_factors, select_rank, svd
from clustersc.regression import RegressionSpec


def disjoint_groups(rng, n_per=6, t=10, t_split=5, lo=0.9, hi=1.1):
    """Two groups with time-disjoint rank-2 signals and tight weights.

    Group A signals live on columns [0, t_split), group B on [t_split, t),
    so their rows are exactly orthogonal even on the pre window.
    """
    basis_a = np.zeros((2, t))
    basis_b = np.zeros((2, t))
    basis_a[:, :t_split] = rng.normal(size=(2, t_split))
    basis_b[:, t_split:] = rng.normal(size=(2, t - t_split))
    wa = rng.uniform(lo, hi, size=(n_per, 2))
    wb = rng.uniform(lo, hi, size=(n_per, 2))
    donors = np.vstack([wa @ basis_a, wb @ basis_b])
    target_w = rng.uniform(lo, hi, size=2)
    target = target_w @ basis_a
    return donors, target, basis_a, basis_b


def projection(fit, split):
    """sc_infer's counterfactual path; the observed series does not enter it."""
    return sc_infer(fit, split, np.zeros(split.t_total)).counterfactual_post


class TestScLearn:
    def test_self_representation_noiseless(self):
        rng = np.random.default_rng(401)
        donors = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 10))
        split = InterventionSplit(8, 10)
        target = donors[5]
        fit = sc_learn(donors, split, target[:8], RankRule.fixed(2), RegressionSpec("ols"))
        design = fit.denoised_donors[:, :8].T
        np.testing.assert_allclose(design @ fit.weights.values, target[:8], atol=1e-8)
        np.testing.assert_allclose(projection(fit, split), target[8:], atol=1e-8)

    def test_minimum_norm_weight_recovery(self):
        rng = np.random.default_rng(403)
        donors = rng.normal(size=(9, 3)) @ rng.normal(size=(3, 12))
        split = InterventionSplit(9, 12)
        design = donors[:, :9].T
        g = rng.normal(size=9)
        f_star = design.T @ np.linalg.lstsq(design.T, g, rcond=None)[0]
        target_pre = design @ f_star
        fit = sc_learn(donors, split, target_pre, RankRule.fixed(3), RegressionSpec("ols"))
        np.testing.assert_allclose(fit.weights.values, f_star, atol=1e-6)

    def test_denoised_rank(self):
        rng = np.random.default_rng(407)
        donors = rng.normal(size=(30, 10))
        split = InterventionSplit(8, 10)
        fit = sc_learn(donors, split, rng.normal(size=8), RankRule.fixed(3), RegressionSpec("ridge", lam=0.1))
        assert fit.rank_used == 3
        assert np.linalg.matrix_rank(fit.denoised_donors) == 3

    def test_generator_config_smoke(self):
        ds = gen_dataset(GROUP_A_SPEC, GROUP_B_SPEC, 30, 30, 10, 8, NoiseSpec.gaussian(0.2), seed=11)
        fit = sc_learn(
            ds.panel.values[1:],
            ds.panel.split,
            ds.panel.values[0, :8],
            RankRule.energy(0.95),
            RegressionSpec("ridge", lam=0.01),
            donor_ids=ds.panel.unit_ids[1:],
        )
        assert fit.weights.values.shape == (59,)
        assert np.all(np.isfinite(fit.weights.values))
        assert 1 <= fit.rank_used <= 10
        assert fit.weights.donor_ids[0] == ds.panel.unit_ids[1]

    def test_shape_validation(self):
        donors = np.ones((4, 6))
        split = InterventionSplit(4, 6)
        with pytest.raises(ShapeError):
            sc_learn(donors, split, np.ones(3), RankRule.fixed(1), RegressionSpec("ols"))
        with pytest.raises(ShapeError):
            sc_learn(np.ones((4, 5)), split, np.ones(4), RankRule.fixed(1), RegressionSpec("ols"))


class TestScProjectInfer:
    @pytest.fixture
    def noisy_fit(self):
        rng = np.random.default_rng(409)
        donors = rng.normal(size=(12, 10))
        split = InterventionSplit(7, 10)
        fit = sc_learn(donors, split, rng.normal(size=7), RankRule.fixed(4), RegressionSpec("ridge", lam=0.05))
        return fit, split

    def test_projection_is_weighted_post_block(self, noisy_fit):
        fit, split = noisy_fit
        expected = fit.denoised_donors[:, split.t0 :].T @ fit.weights.values
        np.testing.assert_allclose(projection(fit, split), expected, atol=0)

    def test_unit_weight_picks_one_donor(self):
        rng = np.random.default_rng(411)
        donors = rng.normal(size=(5, 8))
        split = InterventionSplit(6, 8)
        fit = sc_learn(donors, split, donors[3, :6], RankRule.fixed(5), RegressionSpec("ols"))
        fit.weights.values[:] = 0.0
        fit.weights.values[3] = 1.0
        np.testing.assert_allclose(projection(fit, split), fit.denoised_donors[3, 6:], atol=0)

    def test_zero_weights_zero_projection(self, noisy_fit):
        fit, split = noisy_fit
        fit.weights.values[:] = 0.0
        np.testing.assert_allclose(projection(fit, split), 0.0, atol=0)

    def test_zero_effect_when_observed_matches(self, noisy_fit):
        fit, split = noisy_fit
        counterfactual = projection(fit, split)
        target_full = np.concatenate([np.zeros(split.t0), counterfactual])
        est = sc_infer(fit, split, target_full)
        np.testing.assert_allclose(est.effect, 0.0, atol=1e-12)
        np.testing.assert_allclose(est.observed_post, counterfactual, atol=0)

    def test_constant_shift_effect(self, noisy_fit):
        fit, split = noisy_fit
        counterfactual = projection(fit, split)
        target_full = np.concatenate([np.zeros(split.t0), counterfactual + 1.0])
        est = sc_infer(fit, split, target_full)
        np.testing.assert_allclose(est.effect, 1.0, atol=1e-12)

    def test_noiseless_in_span_zero_effect(self):
        rng = np.random.default_rng(413)
        donors = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 10))
        split = InterventionSplit(8, 10)
        target = rng.normal(size=8) @ donors  # in the row space by construction
        fit = sc_learn(donors, split, target[:8], RankRule.fixed(3), RegressionSpec("ols"))
        est = sc_infer(fit, split, target)
        assert np.linalg.norm(est.effect) <= 1e-6
        np.testing.assert_allclose(est.pre_fit_residual, 0.0, atol=1e-6)

    def test_fit_and_split_must_cover_the_same_periods(self, noisy_fit):
        fit, _ = noisy_fit
        with pytest.raises(ShapeError, match=r"^fit covers 10 periods, split expects 9$"):
            sc_infer(fit, InterventionSplit(7, 9), np.zeros(9))

    def test_target_full_must_span_the_split(self, noisy_fit):
        fit, split = noisy_fit
        with pytest.raises(ShapeError, match=r"^target_full must have length 10, got \(9,\)$"):
            sc_infer(fit, split, np.zeros(9))


class TestClusterSc:
    @pytest.mark.parametrize("k", [2.7, 2.9, True, "two"])
    def test_bad_k_is_diagnosed(self, k):
        # fit_cluster_model's k rule (validate_k), not a silently truncated k
        donors = np.random.default_rng(7).normal(size=(12, 10))
        with pytest.raises(InvalidParamsError, match="k must be 'auto' or a positive integer"):
            cluster_sc(donors, InterventionSplit(8, 10), donors[0], RankRule.fixed(3),
                       RegressionSpec("ridge", lam=0.1), k=k, rng=1)

    def test_noiseless_disjoint_groups_exact(self):
        rng = np.random.default_rng(419)
        donors, target_pre_full, basis_a, _ = disjoint_groups(rng)
        split = InterventionSplit(8, 10)
        est, fit, model = cluster_sc(
            donors,
            split,
            target_pre_full,
            RankRule.fixed(4),
            RegressionSpec("ols"),
            k=2,
            rng=np.random.default_rng(1),
        )
        # the selected cluster is exactly the six group-A donors
        assert fit.weights.values.shape == (6,)
        assert sorted(fit.donor_ids) == list(range(6))
        post_mse = float(np.mean(est.effect**2))
        assert post_mse <= 1e-10

    def test_k_one_identical_to_plain_sc(self):
        rng = np.random.default_rng(421)
        for trial in range(5):
            donors = rng.normal(size=(15, 10))
            target = rng.normal(size=10)
            split = InterventionSplit(8, 10)
            rule = RankRule.energy(0.95)
            reg = RegressionSpec("ridge", lam=0.01)
            plain_fit = sc_learn(donors, split, target[:8], rule, reg)
            plain_est = sc_infer(plain_fit, split, target)
            est, fit, model = cluster_sc(
                donors, split, target, rule, reg, k=1, rng=np.random.default_rng(trial)
            )
            assert model.k == 1
            assert np.array_equal(fit.weights.values, plain_fit.weights.values)
            assert np.array_equal(est.counterfactual_post, plain_est.counterfactual_post)
            assert np.array_equal(est.effect, plain_est.effect)

    def test_donor_ids_must_match_the_donors(self):
        # a short list raised a raw IndexError after the clustering
        donors = np.random.default_rng(5).normal(size=(6, 5))
        with pytest.raises(ShapeError, match="^2 donor ids for 6 donors$"):
            cluster_sc(donors, InterventionSplit(3, 5), donors[0], RankRule.fixed(2),
                       RegressionSpec("ols"), k=2, rng=1, donor_ids=[1, 2])

    def test_more_donor_ids_than_donors(self):
        donors = np.random.default_rng(5).normal(size=(6, 5))
        with pytest.raises(ShapeError, match="^7 donor ids for 6 donors$"):
            cluster_sc(donors, InterventionSplit(3, 5), donors[0], RankRule.fixed(2),
                       RegressionSpec("ols"), k=2, rng=1, donor_ids=list(range(7)))

    def test_degenerate_cluster_raises(self):
        rng = np.random.default_rng(423)
        base = np.zeros(10)
        base[0] = 1.0
        donors = np.vstack(
            [base + rng.normal(scale=0.01, size=10) for _ in range(6)]
            + [100.0 * np.eye(10)[1]]
        )
        target = 100.0 * np.eye(10)[1] + rng.normal(scale=0.01, size=10)
        with pytest.raises(DegenerateClusterError) as err:
            cluster_sc(
                donors,
                InterventionSplit(8, 10),
                target,
                RankRule.fixed(2),
                RegressionSpec("ols"),
                k=2,
                rng=np.random.default_rng(2),
            )
        assert err.value.size == 1

    def test_effect_linearity_in_observation(self):
        rng = np.random.default_rng(431)
        donors = rng.normal(size=(20, 10))
        target = rng.normal(size=10)
        split = InterventionSplit(8, 10)
        args = (donors, split)
        kwargs = dict(k=2, rng=np.random.default_rng(7))
        est1, _, _ = cluster_sc(*args, target, RankRule.fixed(3), RegressionSpec("ols"), **kwargs)
        shifted = target.copy()
        shifted[8:] += 2.5
        kwargs = dict(k=2, rng=np.random.default_rng(7))
        est2, _, _ = cluster_sc(*args, shifted, RankRule.fixed(3), RegressionSpec("ols"), **kwargs)
        np.testing.assert_allclose(est2.effect - est1.effect, 2.5, atol=1e-10)

    def test_beats_plain_sc_at_moderate_noise(self):
        # reduced-scale accuracy comparison with the group ranks given as
        # known inputs: the pool is denoised at its joint rank 6, the
        # cluster at its own rank 3. Restricting to the target's cluster
        # halves the rank the weights must capture and drops the off-group
        # rows, so the median post-intervention error against the true
        # signal falls in essentially every dataset. (With a rank picked by
        # the plain 0.95 energy rule instead, T=10 spectra at this noise
        # saturate near full rank and the comparison turns into a coin
        # flip; see the module docstring note on rank selection.)
        wins = 0
        datasets = 12
        reg = RegressionSpec("ridge", lam=0.01)
        for d in range(datasets):
            ds = gen_dataset(
                GROUP_A_SPEC, GROUP_B_SPEC, 100, 100, 10, 8,
                NoiseSpec.gaussian(0.3), seed=5000 + d,
            )
            rng = np.random.default_rng(600 + d)
            targets = rng.choice(100, size=20, replace=False)
            cluster_mses, full_mses = [], []
            for t in targets:
                pool = np.delete(ds.panel.values, t, axis=0)
                truth_post = ds.true_signal[t, 8:]
                target_series = ds.panel.values[t]
                est_c, _, _ = cluster_sc(
                    pool, ds.panel.split, target_series, RankRule.fixed(3), reg,
                    k=2, rng=np.random.default_rng(7000 + 100 * d + t),
                )
                cluster_mses.append(np.mean((est_c.counterfactual_post - truth_post) ** 2))
                fit_f = sc_learn(pool, ds.panel.split, target_series[:8], RankRule.fixed(6), reg)
                proj_f = sc_infer(fit_f, ds.panel.split, target_series).counterfactual_post
                full_mses.append(np.mean((proj_f - truth_post) ** 2))
            wins += np.median(cluster_mses) < np.median(full_mses)
        assert wins >= datasets - 2


class TestStackedCore:
    """A stack of pools runs denoise -> fit -> infer -> MSE in one call per
    stage; every pool's numbers must be the ones it gets alone, bit for bit,
    and a bad pool must raise in a stack what it raises alone."""

    SPLIT = InterventionSplit(8, 10)
    RULES = (RankRule.fixed(2), RankRule.energy(0.9), RankRule.energy(0.8, squared=True))
    REGS = (RegressionSpec("ridge", lam=0.05), RegressionSpec("ridge"), RegressionSpec("lasso", 0.01))

    @staticmethod
    def pools(rng, count, n):
        """count noisy pools (n, 10) of planted ranks 1..min(n, 10), mixed."""
        ranks = rng.integers(1, min(n, 10) + 1, size=count)
        return np.stack([
            rng.normal(size=(n, r)) @ rng.normal(size=(r, 10)) + 0.05 * rng.normal(size=(n, 10))
            for r in ranks
        ])

    def run(self, donors, targets, rule, reg):
        """Ranks, weights, counterfactual, pre fit and both MSEs, stacked or not."""
        t0 = self.SPLIT.t0
        pool = sc_denoise(donors, rule)
        fit = sc_fit_weights(pool, self.SPLIT, targets[..., :t0], reg)
        estimate = sc_infer(fit, self.SPLIT, targets)
        return (
            pool.values, np.asarray(pool.rank_used), fit.weights.values,
            estimate.counterfactual_post, estimate.pre_fit,
            _mean_squares(estimate.pre_fit - targets[..., :t0]),
            _mean_squares(estimate.counterfactual_post - targets[..., t0:]),
        )

    @given(
        count=st.integers(1, 9),
        # n <= t0 solves ridge's primal system, n > t0 its dual
        n=st.sampled_from([3, 6, 8, 9, 13, 40]),
        rule=st.sampled_from(RULES),
        reg=st.sampled_from(REGS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    def test_stack_matches_pool_by_pool(self, count, n, rule, reg, seed):
        rng = np.random.default_rng(seed)
        donors = self.pools(rng, count, n)
        targets = rng.normal(size=(count, 10))
        stacked = self.run(donors, targets, rule, reg)
        for b in range(count):
            alone = self.run(donors[b], targets[b], rule, reg)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[b], want)

    @given(
        count=st.integers(1, 9),
        n=st.sampled_from([3, 8, 13, 40]),
        reg=st.sampled_from(REGS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    def test_one_pool_with_a_stack_of_targets(self, count, n, reg, seed):
        # the split harness fits every target of a shared pool as one stack
        rng = np.random.default_rng(seed)
        donors = self.pools(rng, 1, n)[0]
        targets = rng.normal(size=(count, 10))
        stacked = self.run(donors, targets, self.RULES[1], reg)
        for b in range(count):
            alone = self.run(donors, targets[b], self.RULES[1], reg)
            assert all(np.array_equal(got[b], want) for got, want in zip(stacked[2:], alone[2:]))

    @pytest.mark.parametrize("rule", RULES, ids=["fixed", "energy", "energy_squared"])
    def test_one_stack_holds_mixed_ranks(self, rule):
        rng = np.random.default_rng(5)
        donors = self.pools(rng, 9, 40)
        targets = rng.normal(size=(9, 10))
        stacked = self.run(donors, targets, rule, self.REGS[0])
        ranks = set(stacked[1].tolist())
        assert ranks == {2} if rule.kind == "fixed" else len(ranks) > 1, ranks
        for b in range(9):
            alone = self.run(donors[b], targets[b], rule, self.REGS[0])
            assert all(np.array_equal(got[b], want) for got, want in zip(stacked, alone))

    @pytest.mark.parametrize("bad", ["nan", "inf", "zeros"])
    @pytest.mark.parametrize("rule", RULES, ids=["fixed", "energy", "energy_squared"])
    def test_bad_pool_raises_in_a_stack_what_it_raises_alone(self, bad, rule):
        rng = np.random.default_rng(7)
        donors = self.pools(rng, 5, 12)
        targets = rng.normal(size=(5, 10))
        donors[3] = 0.0
        if bad != "zeros":
            donors[3, 4, 2] = float(bad)

        def outcome(*args):
            try:
                return self.run(*args, rule, self.REGS[0])
            except ClusterScError as exc:
                return type(exc), str(exc)

        alone = outcome(donors[3], targets[3])
        stacked = outcome(donors, targets)
        if isinstance(alone[0], type):
            assert stacked == alone
        else:  # a fixed rule denoises an all-zero pool to zeros
            assert all(np.array_equal(got[3], want) for got, want in zip(stacked, alone))


class TestScDenoise:
    """sc_denoise reads each pool's spectrum from its Gram matrix; the ranks
    it picks must be the ones the pool's SVD spectrum gives."""

    RULES = (
        RankRule.energy(0.95), RankRule.energy(0.9),
        RankRule.energy(0.95, squared=True), RankRule.energy(0.9, squared=True),
    )

    @staticmethod
    def criterion_4_pools(noise, seed):
        """Leave-one-out full pools (399 x 10) and per_dataset clusters
        (about 200 x 10) of one criterion-4-shaped dataset."""
        dataset = gen_dataset(
            GROUP_A_SPEC, GROUP_B_SPEC, 200, 200, 10, 8, NoiseSpec.gaussian(noise), seed=seed
        )
        values = dataset.panel.values
        labels = fit_cluster_model(
            dataset.panel.pre, RankRule.energy(0.95), k=2, rng=seed
        ).assignments.labels
        pools = []
        for target in (0, 57, 199, 260):
            rows = np.delete(np.arange(values.shape[0]), target)
            pools.append(values[rows])
            label = int(labels[target])
            pools.append(values[rows[cluster_members(labels[rows], label)]])
        return pools

    @pytest.mark.parametrize("noise", [0.1, 0.25, 0.4])
    def test_ranks_match_the_svd_spectrum(self, noise):
        for seed in (401, 402):
            for pool in self.criterion_4_pools(noise, seed):
                want = np.linalg.svd(pool, compute_uv=False)
                for rule in self.RULES:
                    assert sc_denoise(pool, rule).rank_used == select_rank(want, rule), (
                        noise, seed, pool.shape, rule,
                    )

    def test_matches_the_svd_truncation(self):
        pool = self.criterion_4_pools(0.25, 403)[0]
        factors = svd(pool)
        for r in (1, 3, 6, 9, 10):
            oracle = (factors.u[:, :r] * factors.sigma[:r]) @ factors.v[:, :r].T
            got = sc_denoise(pool, RankRule.fixed(r)).values
            assert np.abs(got - oracle).max() <= 1e-10 * np.linalg.norm(pool)

    def test_wide_pool_keeps_n_values(self):
        donors = np.random.default_rng(11).normal(size=(4, 10))
        assert sc_denoise(donors, RankRule.fixed(4)).rank_used == 4
        with pytest.raises(InvalidRankError):
            sc_denoise(donors, RankRule.fixed(5))

    def test_wide_stack_keeps_n_values(self):
        donors = np.random.default_rng(17).normal(size=(3, 4, 10))
        assert sc_denoise(donors, RankRule.fixed(4)).rank_used == (4, 4, 4)
        with pytest.raises(InvalidRankError):
            sc_denoise(donors, RankRule.fixed(5))

    def test_rank_used_is_an_int_per_pool(self):
        donors = np.random.default_rng(19).normal(size=(3, 30, 10))
        alone = sc_denoise(donors[0], RankRule.energy(0.9)).rank_used
        stacked = sc_denoise(donors, RankRule.energy(0.9)).rank_used
        assert type(alone) is int
        assert type(stacked) is tuple and len(stacked) == 3
        assert all(type(rank) is int for rank in stacked) and stacked[0] == alone

    @pytest.mark.parametrize("rule", [RankRule.energy(0.9), RankRule.energy(0.9, squared=True)])
    def test_all_zero_pool_has_no_energy_rank(self, rule):
        with pytest.raises(DegenerateSpectrumError):
            sc_denoise(np.zeros((12, 10)), rule)

    @pytest.mark.parametrize("j", [-600, 600])
    @pytest.mark.parametrize("rule", [RankRule.energy(0.95), RankRule.fixed(3)])
    def test_power_of_two_scaling_is_exact(self, j, rule):
        donors = np.random.default_rng(13).normal(size=(3, 40, 10))
        base = sc_denoise(donors, rule)
        scaled = sc_denoise(np.ldexp(donors, j), rule)
        assert scaled.rank_used == base.rank_used
        assert np.array_equal(scaled.values, np.ldexp(base.values, j))


class TestGramForm:
    """sc_fit_weights regresses on Z = V_r[:t0] Sigma_r; its weights, pre fit
    and counterfactual must be those of the same solver on the denoised
    design (X V_r V_r')[:, :t0]', formed here the plain way."""

    SPLIT = InterventionSplit(8, 10)

    @staticmethod
    def denoised_oracle(donors, target_pre, rank, lam):
        """Weights on the denoised design: minimum-norm least squares at
        lam 0, else ridge's dual closed form."""
        design = svd_truncation(donors, rank)[:, :8].T
        if lam == 0:
            return np.linalg.lstsq(design, target_pre, rcond=None)[0]
        return design.T @ np.linalg.solve(design @ design.T + lam * np.eye(8), target_pre)

    def test_ols_weights_are_the_minimum_norm_solution(self):
        # rank 2 over three periods, the other seven all zero: at fixed rank
        # 6 the fifth and sixth singular values are 0, the third and fourth
        # the Gram's rounding (about 1e-8 sigma_1), and the weights must stay
        # finite and ignore all four directions, as least squares on the
        # denoised design does
        rng = np.random.default_rng(3)
        donors = np.zeros((30, 10))
        donors[:, [0, 3, 8]] = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 3))
        target_pre = rng.normal(size=8)
        pool = sc_denoise(donors, RankRule.fixed(6))
        sigma, _ = gram_factors(donors)
        assert np.array_equal(sigma[4:6], np.zeros(2)) and np.all(sigma[2:4] < 1e-7 * sigma[0])
        assert pool.rank_used == 6 and np.array_equal(pool.scale[2:], np.zeros(8))
        fit = sc_fit_weights(pool, self.SPLIT, target_pre, RegressionSpec("ols"))
        want = np.linalg.lstsq(pool.values[:, :8].T, target_pre, rcond=None)[0]
        assert np.all(np.isfinite(fit.weights.values))
        np.testing.assert_allclose(fit.weights.values, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [2, 5, 40])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_weights_and_products_match_the_denoised_design(self, n, lam):
        # n = 2 is a cluster of exactly two donors: a wide pool of rank 2
        rng = np.random.default_rng(17 + n)
        donors = rng.normal(size=(n, 3)) @ rng.normal(size=(3, 10)) + 0.1 * rng.normal(size=(n, 10))
        target = rng.normal(size=10)
        rank = min(n, 3)
        reg = RegressionSpec("ols") if lam == 0 else RegressionSpec("ridge", lam=lam)
        fit = sc_learn(donors, self.SPLIT, target[:8], RankRule.fixed(rank), reg)
        want = self.denoised_oracle(donors, target[:8], rank, lam)
        scale = np.abs(want).max()
        np.testing.assert_allclose(fit.weights.values, want, rtol=0, atol=1e-10 * scale)
        estimate = sc_infer(fit, self.SPLIT, target)
        denoised = svd_truncation(donors, rank)
        np.testing.assert_allclose(
            estimate.pre_fit, denoised[:, :8].T @ want, rtol=0, atol=1e-10 * np.abs(target).max()
        )
        np.testing.assert_allclose(
            estimate.counterfactual_post, denoised[:, 8:].T @ want,
            rtol=0, atol=1e-10 * np.abs(target).max(),
        )

    @pytest.mark.parametrize("j", [-600, 600])
    @pytest.mark.parametrize("rule", [RankRule.energy(0.95), RankRule.fixed(3)])
    def test_power_of_two_scaling_is_exact(self, j, rule):
        # the Gram's prescale makes every factor the same at any scale; past
        # about 2**450 LAPACK's least squares rescales by factors that are
        # not powers of two, so the fits' own relation is checked at
        # |j| <= 400 (TestScaleEquivariance in test_evaluate.py)
        donors = np.random.default_rng(23).normal(size=(40, 10))
        base = sc_denoise(donors, rule)
        pool = sc_denoise(np.ldexp(donors, j), rule)
        assert pool.rank_used == base.rank_used
        assert np.array_equal(pool.v, base.v)
        assert np.array_equal(pool.scale, np.ldexp(base.scale, j))
        assert np.array_equal(pool.values, np.ldexp(base.values, j))


def svd_truncation(donors, rank):
    """The rank-r SVD truncation of donors."""
    factors = svd(donors)
    return (factors.u[:, :rank] * factors.sigma[:rank]) @ factors.v[:, :rank].T
