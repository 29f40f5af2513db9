"""Singular value tools against hand values and an independent eigensolver oracle.

Known values used below:
  - [[2,0],[0,1],[0,0]] has singular values (2, 1).
  - [[1,1],[1,1]] has singular values (2, 0).
  - diag(3, 1) has spectrum rows (1, 3.0, 0.75), (2, 1.0, 1.0).
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clustersc.errors import (
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidRankError,
    ShapeError,
)
from clustersc.linalg import (
    RankRule, hsvt, parse_rule, rule_tag, select_rank, spectrum_report, svd,
)


def numerical_rank(sigma) -> int:
    """Oracle: count of singular values above 1e-12 times the largest."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0:
        return 0
    return int(np.count_nonzero(sigma > 1e-12 * sigma[0]))


def gram_rank_r_oracle(x: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation via eigendecomposition of the Gram matrix.

    Independent route: project x onto the span of the top-r eigenvectors of
    x.T @ x instead of truncating an SVD.
    """
    w, vecs = np.linalg.eigh(x.T @ x)
    order = np.argsort(w)[::-1]
    basis = vecs[:, order[:r]]
    return x @ basis @ basis.T


def sign_loop_oracle(u: np.ndarray, v: np.ndarray):
    """The sign convention one column at a time: flip v's column (and u's)
    when its first entry above 1e-12 in magnitude is negative."""
    u, v = u.copy(), v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
            u[:, j] = -u[:, j]
    return u, v


def random_rank_r(rng: np.random.Generator, n: int, t: int, r: int) -> np.ndarray:
    return rng.normal(size=(n, r)) @ rng.normal(size=(r, t))


class TestSvd:
    def test_known_diag(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        f = svd(x)
        np.testing.assert_allclose(f.sigma, [2.0, 1.0], atol=1e-12)

    def test_known_rank_one(self):
        f = svd(np.ones((2, 2)))
        np.testing.assert_allclose(f.sigma, [2.0, 0.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            t = int(rng.integers(1, 13))
            x = rng.normal(size=(n, t))
            f = svd(x)
            p = min(n, t)
            np.testing.assert_allclose(f.low_rank(f.sigma.size), x, atol=1e-8)
            np.testing.assert_allclose(f.u.T @ f.u, np.eye(p), atol=1e-8)
            np.testing.assert_allclose(f.v.T @ f.v, np.eye(p), atol=1e-8)
            assert np.all(np.diff(f.sigma) <= 1e-12)
            assert np.all(f.sigma >= 0)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_reconstruction_property(self, x):
        f = svd(x)
        scale = max(1.0, float(np.abs(x).max()))
        np.testing.assert_allclose(f.low_rank(f.sigma.size), x, atol=1e-8 * scale)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=(rng.integers(2, 10), rng.integers(2, 8)))
            f = svd(x)
            for j in range(f.v.shape[1]):
                col = f.v[:, j]
                nz = np.flatnonzero(np.abs(col) > 1e-9)
                assert nz.size > 0
                assert col[nz[0]] > -1e-12

    def test_signs_match_column_loop(self, monkeypatch):
        # factors as LAPACK might return them, with leading entries below
        # 1e-12 or exactly +-0 and columns with no entry above 1e-12; the
        # signs (zeros' too) equal the column loop's, bit for bit
        rng = np.random.default_rng(13)
        factors = []
        for case in range(300):
            n, t = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            p = min(n, t)
            u, vh = rng.normal(size=(n, p)), rng.normal(size=(p, t))
            lead = rng.integers(0, t + 1, size=p)  # entries set small per row of vh
            for j in range(p):
                vh[j, : lead[j]] = rng.choice([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12], size=lead[j])
            factors.append((u, np.sort(rng.random(p))[::-1], vh))
        calls = iter(factors)
        monkeypatch.setattr(np.linalg, "svd", lambda x, full_matrices: next(calls))
        for case, (u, sigma, vh) in enumerate(factors):
            want_u, want_v = sign_loop_oracle(u, vh.T)
            f = svd(np.ones((u.shape[0], vh.shape[1])))
            assert f.u.tobytes() == want_u.tobytes(), f"case {case}"
            assert f.v.tobytes() == want_v.tobytes(), f"case {case}"

    def test_signs_with_zero_leading_coordinates(self):
        # real SVDs whose v columns start with zeros: leading columns of x
        # that are 0, and x with a single column
        rng = np.random.default_rng(17)
        for case in range(100):
            x = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            x[:, : int(rng.integers(0, x.shape[1]))] = 0.0
            u, sigma, vh = np.linalg.svd(x, full_matrices=False)
            want_u, want_v = sign_loop_oracle(u, vh.T)
            f = svd(x)
            assert f.u.tobytes() == want_u.tobytes(), f"case {case}"
            assert f.v.tobytes() == want_v.tobytes(), f"case {case}"

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 5))
        a, b = svd(x), svd(x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.v, b.v)

    def test_zero_matrix(self):
        f = svd(np.zeros((4, 3)))
        np.testing.assert_allclose(f.sigma, 0.0, atol=0)
        np.testing.assert_allclose(f.low_rank(f.sigma.size), np.zeros((4, 3)), atol=0)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            svd(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInputError):
            svd(np.array([[np.inf, 1.0]]))
        with pytest.raises(ShapeError):
            svd(np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            svd(np.zeros(4))


class TestHsvt:
    def test_exact_rank_two_identity(self):
        rng = np.random.default_rng(5)
        x = random_rank_r(rng, 6, 4, 2)
        np.testing.assert_allclose(hsvt(x, 2), x, atol=1e-8)

    def test_known_diag_truncation(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(hsvt(x, 1), expected, atol=1e-12)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.normal(size=(6, 4))
            np.testing.assert_allclose(hsvt(x, 3), gram_rank_r_oracle(x, 3), atol=1e-8)

    def test_eckart_young(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(8, 5))
        r = 2
        best = np.linalg.norm(x - hsvt(x, r))
        for _ in range(100):
            cand = random_rank_r(rng, 8, 5, r)
            assert best <= np.linalg.norm(x - cand) + 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(7, 6))
        y = hsvt(x, 3)
        assert numerical_rank(svd(y).sigma) == 3
        np.testing.assert_allclose(hsvt(y, 3), y, atol=1e-9)

    def test_full_rank_is_identity(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(5, 7))
        np.testing.assert_allclose(hsvt(x, 5), x, atol=1e-8)

    def test_rank_bounds(self):
        x = np.ones((3, 4))
        with pytest.raises(InvalidRankError):
            hsvt(x, 0)
        with pytest.raises(InvalidRankError):
            hsvt(x, 4)

    def test_weyl_perturbation(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            a = rng.normal(size=(7, 5))
            b = a + rng.normal(scale=0.1, size=(7, 5))
            sa, sb = svd(a).sigma, svd(b).sigma
            top_diff = svd(a - b).sigma[0]
            assert np.max(np.abs(sa - sb)) <= top_diff + 1e-8


class TestSelectRank:
    def test_energy_known(self):
        assert select_rank(np.array([6.0, 3.0, 1.0]), RankRule.energy(0.9)) == 2

    def test_energy_rank_one(self):
        assert select_rank(np.array([5.0, 0.0, 0.0]), RankRule.energy(0.5)) == 1

    def test_fixed(self):
        assert select_rank(np.array([5.0, 1.0, 0.5]), RankRule.fixed(3)) == 3
        with pytest.raises(InvalidRankError):
            select_rank(np.array([5.0, 1.0, 0.5]), RankRule.fixed(4))
        with pytest.raises(InvalidRankError):
            RankRule.fixed(0)

    def test_energy_all_zero(self):
        with pytest.raises(DegenerateSpectrumError):
            select_rank(np.zeros(3), RankRule.energy(0.9))

    def test_energy_monotone_in_threshold(self):
        rng = np.random.default_rng(31)
        sigma = np.sort(rng.uniform(0.1, 5.0, size=6))[::-1]
        ranks = [select_rank(sigma, RankRule.energy(t)) for t in np.linspace(0.05, 1.0, 20)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_energy_threshold_domain(self):
        with pytest.raises(InvalidRankError):
            RankRule.energy(0.0)
        with pytest.raises(InvalidRankError):
            RankRule.energy(1.5)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"kind": "energy", "threshold": 2.0},
                     "energy threshold must be in (0, 1], got 2.0", id="threshold-above-one"),
        pytest.param({"kind": "energy", "threshold": float("nan")},
                     "energy threshold must be in (0, 1], got nan", id="threshold-nan"),
        pytest.param({"kind": "energy"}, "energy threshold must be in (0, 1], got None",
                     id="threshold-missing"),
        pytest.param({"kind": "energy", "threshold": True},
                     "energy threshold must be in (0, 1], got True", id="bool-threshold"),
        pytest.param({"kind": "fixed", "r": -2},
                     "fixed rank must be a positive integer, got -2", id="negative-r"),
        pytest.param({"kind": "fixed", "r": 2.5},
                     "fixed rank must be a positive integer, got 2.5", id="fractional-r"),
        pytest.param({"kind": "fixed", "r": True},
                     "fixed rank must be a positive integer, got True", id="bool-r"),
        pytest.param({"kind": "median", "r": 2}, "unknown rank rule kind 'median'",
                     id="unknown-kind"),
        pytest.param({"kind": "fixed", "r": 3, "threshold": 0.5, "squared": True},
                     "a fixed rule takes no threshold or squared, got RankRule(kind='fixed', r=3, "
                     "threshold=0.5, squared=True)", id="fixed-with-threshold"),
        pytest.param({"kind": "fixed", "r": 3, "squared": True},
                     "a fixed rule takes no threshold or squared, got RankRule(kind='fixed', r=3, "
                     "threshold=None, squared=True)", id="fixed-squared"),
        pytest.param({"kind": "energy", "r": 3, "threshold": 0.5},
                     "an energy rule takes no r, got RankRule(kind='energy', r=3, threshold=0.5, "
                     "squared=False)", id="energy-with-r"),
        pytest.param({"kind": "energy", "threshold": 0.5, "squared": "no"},
                     "squared must be a bool, got 'no'", id="squared-text"),
        pytest.param({"kind": "energy", "threshold": 0.5, "squared": 1},
                     "squared must be a bool, got 1", id="squared-int"),
        pytest.param({"kind": "energy", "threshold": 0.5, "squared": None},
                     "squared must be a bool, got None", id="squared-none"),
        pytest.param({"kind": "fixed", "r": 3, "squared": 0},
                     "squared must be a bool, got 0", id="fixed-squared-zero"),
    ])
    def test_rule_validates_itself(self, kwargs, message):
        # built directly, not through fixed() or energy(): the rule still checks itself
        with pytest.raises(InvalidRankError, match=f"^{re.escape(message)}$"):
            RankRule(**kwargs)

    @pytest.mark.parametrize("rule", [
        *(RankRule.fixed(r) for r in (1, 3, 10**6)),
        *(RankRule.energy(t, squared) for t in (1e-9, 0.1, 0.9, 0.95, 1 / 3, 1.0)
          for squared in (False, True)),
        RankRule("fixed", r=np.int64(7)),
        RankRule("energy", threshold=np.float32(0.3)),
    ], ids=repr)
    def test_tag_round_trips_to_an_equal_rule(self, rule):
        assert parse_rule(rule_tag(rule)) == rule

    def test_rule_normalises_its_numbers(self):
        fixed = RankRule("fixed", r=np.int64(3))
        assert fixed == RankRule.fixed(3) and type(fixed.r) is int
        energy = RankRule("energy", threshold=np.float32(0.5))
        assert energy == RankRule.energy(0.5) and type(energy.threshold) is float

    def test_squared_variant(self):
        # plain: 3/(3+1+1) = 0.6 < 0.8 so r=2; squared: 9/11 = 0.818 >= 0.8 so r=1
        sigma = np.array([3.0, 1.0, 1.0])
        assert select_rank(sigma, RankRule.energy(0.8)) == 2
        assert select_rank(sigma, RankRule.energy(0.8, squared=True)) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma, rule", [
        pytest.param([1e308, 1e308, 1e300], RankRule.energy(0.95), id="plain"),
        pytest.param([1e200, 1e200, 1e100], RankRule.energy(0.95, squared=True), id="squared"),
    ])
    def test_energy_of_an_overflowing_spectrum(self, sigma, rule):
        # the total overflows unless the spectrum is scaled first; inf / inf
        # then made every ratio nan and the rank 1
        assert select_rank(np.array(sigma), rule) == 2

    def test_numerical_rank(self):
        assert numerical_rank(np.array([5.0, 1.0, 1e-15])) == 2
        assert numerical_rank(np.zeros(3)) == 0
        assert numerical_rank(np.array([2.0, 1.0])) == 2


class TestSpectrumReport:
    def test_known_diag(self):
        rows = spectrum_report(np.diag([3.0, 1.0]))
        assert rows[0][0] == 1 and rows[1][0] == 2
        np.testing.assert_allclose([rows[0][1], rows[1][1]], [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose([rows[0][2], rows[1][2]], [0.75, 1.0], atol=1e-12)

    def test_rank_one(self):
        rows = spectrum_report(np.ones((3, 3)))
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_matches_gram_oracle_ratios(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(5, 3))
        w = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
        sig = np.sqrt(np.clip(w, 0.0, None))
        expected = np.cumsum(sig) / np.sum(sig)
        rows = spectrum_report(x)
        np.testing.assert_allclose([r[2] for r in rows], expected, atol=1e-8)

    def test_ratios_nondecreasing_final_one(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.normal(size=(rng.integers(2, 9), rng.integers(2, 7)))
            rows = spectrum_report(x)
            ratios = [r[2] for r in rows]
            assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
            assert abs(ratios[-1] - 1.0) <= 1e-12

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            spectrum_report(np.zeros((3, 2)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spectrum(self):
        # cumsum overflowed to inf unless the spectrum is scaled first, which
        # gave the ratios 0, nan, nan
        rows = spectrum_report(np.diag([1e308, 1e308, 1e300]))
        assert [r[1] for r in rows] == [1e308, 1e308, 1e300]
        ratios = [r[2] for r in rows]
        assert np.all(np.isfinite(ratios))
        assert ratios[0] == pytest.approx(0.5) and ratios[1] == pytest.approx(1.0)
        assert ratios[-1] == 1.0
