"""Regression solvers against closed-form hand values and a grid-search oracle.

Known values used below:
  - OLS on the 2x2 identity with y = [2, 3] returns y itself.
  - Ridge on the identity with lam = 1 solves (I + I) f = y, so f = y / 2:
    y = [2, 3] gives [1.0, 1.5].
  - Lasso on the identity decouples into soft thresholding at T0 * lam:
    y = [2, 0.5], lam = 0.25, T0 = 2 gives [1.5, 0.0].

The lasso objective and its Gap Safe duality gap are written out here, apart
from the solver, so the solver's own gap is checked against an independent
formula.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from clustersc import regression
from clustersc.errors import (
    InvalidInputError,
    InvalidParamsError,
    ShapeError,
    SolverStepLimitError,
)
from clustersc.regression import RegressionSpec, WeightVector, active_set, fit

EPS = np.finfo(float).eps


def lasso_objective(design, y, values, lam) -> float:
    """(1 / (2 T0)) ||y - design f||^2 + lam ||f||_1."""
    resid = y - design @ values
    return float(resid @ resid / (2 * design.shape[0]) + lam * np.abs(values).sum())


def lasso_gap_oracle(design, y, values, lam) -> float:
    """Gap Safe duality gap of the objective above at f.

    With level = T0 lam and residual r = y - X f, the dual point
    theta = r * level / max(level, ||X' r||_inf) is feasible for the dual
    max 0.5 ||y||^2 - 0.5 ||y - theta||^2 s.t. ||X' theta||_inf <= level, so
    primal minus dual, over T0, bounds f's suboptimality.
    """
    t0 = design.shape[0]
    level = t0 * lam
    resid = y - design @ values
    worst = float(np.abs(design.T @ resid).max())
    theta = resid * (level / worst if worst > level else 1.0)
    primal = 0.5 * float(resid @ resid) + level * float(np.abs(values).sum())
    dual = 0.5 * float(y @ y) - 0.5 * float((y - theta) @ (y - theta))
    return max(primal - dual, 0.0) / t0


def soft_threshold_oracle(y: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(y) * np.maximum(np.abs(y) - thresh, 0.0)


def grid_oracle_objective(design: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Coarse-to-fine grid minimum of the lasso objective over [-3, 3]^n.

    Starts at step 0.1 and refines twice by 10x around the running best,
    reaching resolution 1e-3. The objective is convex, so nested refinement
    around the coarse minimizer brackets the true minimum.
    """
    n = design.shape[1]
    lo = np.full(n, -3.0)
    hi = np.full(n, 3.0)
    best = np.inf
    for step in (0.1, 0.01, 0.001):
        axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        resid = y[None, :] - pts @ design.T
        obj = (resid**2).sum(axis=1) / (2 * design.shape[0])
        obj += lam * np.abs(pts).sum(axis=1)
        i = int(np.argmin(obj))
        best = float(obj[i])
        center = pts[i]
        lo = center - 1.5 * step
        hi = center + 1.5 * step
    return best


class TestOls:
    def test_identity(self):
        w = fit(np.eye(2), np.array([2.0, 3.0]), RegressionSpec("ols"))
        np.testing.assert_allclose(w.values, [2.0, 3.0], atol=1e-10)

    def test_minimum_norm_recovery(self):
        # f* lies in the row space of the design, so it is the minimum-norm
        # least squares solution and lstsq must reproduce it.
        rng = np.random.default_rng(101)
        for _ in range(20):
            t0, n = 4, 9
            design = rng.normal(size=(t0, n))
            g = rng.normal(size=n)
            f_star = design.T @ np.linalg.lstsq(design.T, g, rcond=None)[0]
            y = design @ f_star
            w = fit(design, y, RegressionSpec("ols"))
            np.testing.assert_allclose(w.values, f_star, atol=1e-6)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            design = rng.normal(size=(6, 3))
            y = rng.normal(size=6)
            w = fit(design, y, RegressionSpec("ols"))
            np.testing.assert_allclose(design.T @ (y - design @ w.values), 0.0, atol=1e-8)


class TestRidge:
    def test_identity_lambda_one(self):
        w = fit(np.eye(2), np.array([2.0, 3.0]), RegressionSpec("ridge", lam=1.0))
        np.testing.assert_allclose(w.values, [1.0, 1.5], atol=1e-10)

    def test_zero_lambda_equals_ols(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            design = rng.normal(size=(8, 4))  # full column rank a.s.
            y = rng.normal(size=8)
            w0 = fit(design, y, RegressionSpec("ridge", lam=0.0))
            w1 = fit(design, y, RegressionSpec("ols"))
            np.testing.assert_allclose(w0.values, w1.values, atol=1e-8)

    def test_closed_form_both_shapes(self):
        # tall (t0 > n) and wide (t0 < n) designs against the primal formula
        rng = np.random.default_rng(109)
        for t0, n in [(7, 3), (3, 7)]:
            design = rng.normal(size=(t0, n))
            y = rng.normal(size=t0)
            lam = 0.3
            expected = np.linalg.solve(
                design.T @ design + lam * np.eye(n), design.T @ y
            )
            w = fit(design, y, RegressionSpec("ridge", lam=lam))
            np.testing.assert_allclose(w.values, expected, atol=1e-8)

    def test_norm_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(113)
        design = rng.normal(size=(5, 8))
        y = rng.normal(size=5)
        norms = [
            np.linalg.norm(fit(design, y, RegressionSpec("ridge", lam=lam)).values)
            for lam in [0.01, 0.1, 0.5, 1.0, 5.0, 25.0]
        ]
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))


class TestLasso:
    def test_identity_soft_threshold(self):
        y = np.array([2.0, 0.5])
        w = fit(np.eye(2), y, RegressionSpec("lasso", lam=0.25))
        np.testing.assert_allclose(w.values, [1.5, 0.0], atol=1e-8)
        assert w.converged

    def test_identity_matches_oracle_formula(self):
        rng = np.random.default_rng(127)
        for _ in range(10):
            t0 = 5
            y = rng.normal(size=t0)
            lam = float(rng.uniform(0.05, 0.5))
            w = fit(np.eye(t0), y, RegressionSpec("lasso", lam=lam))
            np.testing.assert_allclose(
                w.values, soft_threshold_oracle(y, t0 * lam), atol=1e-8
            )

    def test_large_lambda_all_zero(self):
        rng = np.random.default_rng(131)
        design = rng.normal(size=(4, 6))
        y = rng.normal(size=4)
        lam_min = np.max(np.abs(design.T @ y)) / design.shape[0]
        w = fit(design, y, RegressionSpec("lasso", lam=lam_min * 1.001))
        np.testing.assert_allclose(w.values, 0.0, atol=1e-10)

    def test_objective_beats_zero_and_ols(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            design = rng.normal(size=(4, 3))
            y = rng.normal(size=4)
            lam = 0.1
            w = fit(design, y, RegressionSpec("lasso", lam=lam))
            obj = lasso_objective(design, y, w.values, lam)
            assert obj <= lasso_objective(design, y, np.zeros(3), lam) + 1e-10
            ols = fit(design, y, RegressionSpec("ols")).values
            assert obj <= lasso_objective(design, y, ols, lam) + 1e-10

    def test_grid_oracle(self):
        rng = np.random.default_rng(139)
        for _ in range(8):
            t0 = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            design = rng.normal(size=(t0, n))
            f_true = rng.uniform(-1.0, 1.0, size=n)
            y = design @ f_true + rng.normal(scale=0.1, size=t0)
            lam = float(rng.uniform(0.02, 0.3))
            w = fit(design, y, RegressionSpec("lasso", lam=lam))
            assert np.all(np.abs(w.values) < 2.9)
            got = lasso_objective(design, y, w.values, lam)
            want = grid_oracle_objective(design, y, lam)
            assert abs(got - want) <= 1e-4

    def test_active_size_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(149)
        design = rng.normal(size=(6, 10))
        y = rng.normal(size=6)
        sizes = []
        for lam in [0.01, 0.03, 0.1, 0.3, 1.0]:
            w = fit(design, y, RegressionSpec("lasso", lam=lam))
            sizes.append(np.count_nonzero(np.abs(w.values) > 1e-12))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_step_bound_raises(self, monkeypatch):
        rng = np.random.default_rng(151)
        design = rng.normal(size=(6, 12))
        y = rng.normal(size=6)
        monkeypatch.setattr(regression, "_path_step_bound", lambda t0, n: 1)
        with pytest.raises(SolverStepLimitError, match="more than 1 steps"):
            fit(design, y, RegressionSpec("lasso", lam=1e-6))

    def test_warm_problem_deterministic(self):
        rng = np.random.default_rng(157)
        design = rng.normal(size=(8, 20))
        y = rng.normal(size=8)
        a = fit(design, y, RegressionSpec("lasso", lam=0.05))
        b = fit(design, y, RegressionSpec("lasso", lam=0.05))
        assert np.array_equal(a.values, b.values)


class TestLassoCertificate:
    """Degenerate designs: the path answer satisfies the KKT conditions, and
    its reported gap matches the oracle and meets the tolerance.

    Half the designs are Gaussian T0 x n (rank min(T0, n)), half are
    products of Gaussian T0 x r and r x n factors (rank r); a quarter of
    each get zero columns, a quarter a duplicated column, and a quarter are
    scaled by 1e3. lam runs log-uniformly from 1e-5 to 1.5 lam_max.

    No answer stored in double precision gets the gap below about
    eps cond(X_A)^2 ||y||^2 / (2 T0), where X_A holds the active columns:
    rounding f moves X'r by about X'X times eps |f|. So the bound is
    1e-9 max(1, ||y||^2 / (2 T0)), raised to 16 eps cond(X_A)^2 times the
    same scale where that is larger; in this sample only rank-r products
    with an ill-conditioned square factor reach that.
    """

    def test_degenerate_designs(self):
        rng = np.random.default_rng(163)
        for trial in range(3000):
            t0 = int(rng.integers(3, 12))
            n = int(rng.integers(2, 81))
            if trial % 2:
                r = int(rng.integers(1, min(t0, n) + 1))
                design = rng.normal(size=(t0, r)) @ rng.normal(size=(r, n))
            else:
                design = rng.normal(size=(t0, n))
            kind = (trial // 2) % 4
            pair = None
            if kind == 1:
                design[:, rng.integers(0, n, size=max(1, n // 5))] = 0.0
            elif kind == 2 and n > 1:
                pair = sorted(rng.choice(n, size=2, replace=False))
                design[:, pair[1]] = design[:, pair[0]]
            elif kind == 3:
                design *= 1e3
            y = rng.normal(size=t0)
            lam_max = float(np.abs(design.T @ y).max()) / t0
            hi = max(1.5 * lam_max, 2e-5)
            lam = float(np.exp(rng.uniform(np.log(1e-5), np.log(hi))))

            w = fit(design, y, RegressionSpec("lasso", lam=lam))
            gap = lasso_gap_oracle(design, y, w.values, lam)
            scale = max(1.0, float(y @ y) / (2 * t0))
            on = np.flatnonzero(w.values)
            cond = np.linalg.cond(design[:, on]) if on.size else 1.0
            assert gap <= max(1e-9, 16 * EPS * cond**2) * scale, (trial, gap, cond)
            assert w.gap == pytest.approx(gap, rel=1e-6, abs=1e-14 * scale)
            assert w.converged
            # KKT: |X_j' r| <= T0 lam, with equality and matching sign on the
            # support; slack for rounding f, as above
            level = t0 * lam
            corr = design.T @ (y - design @ w.values)
            rounding = 16 * EPS * np.linalg.norm(design, 2) ** 2 * np.abs(w.values).sum()
            slack = 1e-9 * level + rounding
            assert np.all(np.abs(corr) <= level + slack), trial
            np.testing.assert_allclose(
                corr[on], level * np.sign(w.values[on]), rtol=0, atol=slack
            )
            if lam >= lam_max:
                assert np.all(w.values == 0.0)
            if pair is not None:
                assert w.values[pair[1]] == 0.0, trial

    def test_zero_target_and_zero_design(self):
        for design, y in [(np.ones((4, 3)), np.zeros(4)), (np.zeros((4, 3)), np.ones(4))]:
            w = fit(design, y, RegressionSpec("lasso", lam=0.1))
            assert np.all(w.values == 0.0) and w.gap == 0.0 and w.converged

    def test_zero_penalty_reaches_least_squares(self):
        # at lam = 0 the path ends at a least squares fit on at most rank(X)
        # columns; later columns lie in the span of the active ones
        rng = np.random.default_rng(181)
        for t0, n, r in [(8, 40, 8), (8, 40, 3), (8, 5, 5), (6, 12, 6)]:
            design = rng.normal(size=(t0, r)) @ rng.normal(size=(r, n))
            y = rng.normal(size=t0)
            w = fit(design, y, RegressionSpec("lasso", lam=0.0))
            resid = y - design @ w.values
            assert np.abs(design.T @ resid).max() <= 1e-10 * np.linalg.norm(y)
            assert np.count_nonzero(w.values) <= r
            assert w.gap == pytest.approx(lasso_gap_oracle(design, y, w.values, 0.0))
            assert w.converged == (w.gap <= 1e-8 * float(y @ y) / (2 * t0))

    def test_gap_only_for_lasso(self):
        rng = np.random.default_rng(173)
        design = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        for spec in (RegressionSpec("ols"), RegressionSpec("ridge", lam=0.1)):
            w = fit(design, y, spec)
            assert w.gap is None and w.converged
        w = fit(design, y, RegressionSpec("lasso", lam=0.1))
        assert w.gap is not None and w.gap <= 1e-12

    def test_overflowing_products_are_refused(self):
        # entries near 1e300 overflow X'y and the gap's norms to inf and nan;
        # the fit used to return all-zero weights with gap nan, silently
        rng = np.random.default_rng(191)
        design = rng.uniform(-1e300, 1e300, size=(8, 11))
        y = rng.uniform(-1e300, 1e300, size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="lasso duality gap is nan"):
                fit(design, y, RegressionSpec("lasso", lam=0.01))

    def test_converged_is_gap_within_tolerance(self):
        # the tolerance is relative to (y'y) / (2 T0), so the same problem in
        # other units (design, target and lam all scaled by 1e5, where the
        # gap reaches 2e-6) converges too
        rng = np.random.default_rng(179)
        cases = [(rng.normal(size=(6, 12)), rng.normal(size=6), 1.0)]
        rng = np.random.default_rng(0)
        cases.append((rng.normal(size=(8, 40)), rng.normal(size=8), 1e5))
        for design, y, scale in cases:
            design, y, lam = scale * design, scale * y, scale * 0.01
            w = fit(design, y, RegressionSpec("lasso", lam=lam))
            assert w.converged and w.gap > 0.0  # rounding leaves a gap above zero
            relative_gap = w.gap / (float(y @ y) / (2 * y.size))
            tight = fit(design, y, RegressionSpec("lasso", lam=lam, lasso_tol=relative_gap / 2))
            assert tight.gap == w.gap and not tight.converged


class TestActiveSet:
    def test_threshold(self):
        w = WeightVector(
            values=np.array([0.5, 0.0, 1e-12]), donor_ids=["a", "b", "c"]
        )
        assert active_set(w) == ["a"]

    def test_matches_element_loop(self):
        # weights exactly at +-ACTIVE_SET_TOL, a step either side of it, and
        # signed zeros, with string and integer ids: the ids kept, their
        # order and their types are those of the loop over each weight
        tol = regression.ACTIVE_SET_TOL
        edges = [tol, -tol, np.nextafter(tol, 1.0), np.nextafter(-tol, -1.0),
                 np.nextafter(tol, 0.0), 0.0, -0.0, 0.3, -2.0]
        rng = np.random.default_rng(19)
        for case in range(200):
            n = int(rng.integers(1, 30))
            values = rng.choice(edges, size=n) * rng.choice([1.0, 1.0, -1.0], size=n)
            ids = [f"u{i}" for i in range(n)] if case % 2 else list(rng.permutation(n).tolist())
            w = WeightVector(values=values, donor_ids=ids)
            want = [did for did, val in zip(w.donor_ids, w.values) if abs(val) > tol]
            got = active_set(w)
            assert got == want and [type(d) for d in got] == [type(d) for d in want], f"case {case}"

    def test_custom_ids_alignment(self):
        w = fit(
            np.eye(2),
            np.array([2.0, 0.5]),
            RegressionSpec("lasso", lam=0.25),
            donor_ids=["u7", "u9"],
        )
        assert w.donor_ids == ["u7", "u9"]
        assert active_set(w) == ["u7"]

    def test_default_ids_are_indices(self):
        w = fit(np.eye(3), np.array([1.0, 2.0, 3.0]), RegressionSpec("ols"))
        assert w.donor_ids == [0, 1, 2]


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fit(np.eye(3), np.ones(2), RegressionSpec("ols"))
        with pytest.raises(ShapeError):
            fit(np.eye(2), np.ones((2, 2)), RegressionSpec("ols"))

    def test_nonfinite(self):
        with pytest.raises(InvalidInputError):
            fit(np.array([[1.0, np.nan]]), np.ones(1), RegressionSpec("ols"))
        with pytest.raises(InvalidInputError):
            fit(np.eye(2), np.array([1.0, np.inf]), RegressionSpec("ols"))

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"lam": "0.1"}, "lam must be a number, got '0.1'", id="text-lam"),
        pytest.param({"lam": None}, "lam must be a number, got None", id="none-lam"),
        pytest.param({"lam": True}, "lam must be a number, got True", id="bool-lam"),
        pytest.param({"lasso_tol": True}, "lasso_tol must be a number, got True", id="bool-tol"),
    ])
    def test_params_must_be_numbers(self, kwargs, message):
        # numpy's isfinite would raise a raw TypeError for text or None, and
        # take a bool for a number
        method = "lasso" if "lasso_tol" in kwargs else "ridge"
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            RegressionSpec(method, **kwargs)

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            RegressionSpec("banana")
        with pytest.raises(InvalidParamsError):
            RegressionSpec("ridge", lam=-1.0)
        with pytest.raises(InvalidParamsError):
            RegressionSpec("lasso", lasso_tol=-1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_lasso_tol_must_be_finite(self, tol):
        # nan would read every certified fit as unconverged, inf every fit as converged
        with pytest.raises(InvalidParamsError, match="lasso_tol must be finite and > 0"):
            RegressionSpec("lasso", lasso_tol=tol)

    @pytest.mark.parametrize("design, error", [
        (np.ones(3), ShapeError), (np.ones((0, 2)), ShapeError),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), InvalidInputError),
    ])
    def test_design_is_checked_as_a_matrix(self, design, error):
        # the design goes through linalg.as_matrix, the one finite-matrix check
        with pytest.raises(error, match="matrix"):
            fit(design, np.ones(len(design)), RegressionSpec("ols"))

    def test_id_length_mismatch(self):
        with pytest.raises(ShapeError):
            fit(np.eye(2), np.ones(2), RegressionSpec("ols"), donor_ids=["a"])
