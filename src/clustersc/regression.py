"""Synthetic control weight solvers: OLS, ridge, and lasso.

All three regress a target's pre-intervention series on the (denoised) donor
series, with donors as columns of the design matrix. There is no intercept
and no constraint on the weights. OLS returns the minimum-norm least squares
solution; ridge solves its closed form; lasso runs cyclic coordinate descent
on the objective

    (1 / (2 * T0)) * ||y - design @ f||^2 + lam * ||f||_1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParamsError, ShapeError

REGRESSION_METHODS = ("ols", "ridge", "lasso")
ACTIVE_SET_TOL = 1e-10


@dataclass(frozen=True)
class RegressionSpec:
    """Solver choice plus its parameters.

    lam is the ridge or lasso penalty (ignored by OLS). Lasso stops when the
    largest absolute coordinate update over a full sweep drops below
    lasso_tol, or when lasso_max_iter sweeps have run; running out of sweeps
    is reported through WeightVector.converged, not an exception.
    """

    method: str
    lam: float = 0.0
    lasso_tol: float = 1e-8
    lasso_max_iter: int = 10000

    def __post_init__(self):
        if self.method not in REGRESSION_METHODS:
            raise InvalidParamsError(
                f"method must be one of {REGRESSION_METHODS}, got {self.method!r}"
            )
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InvalidParamsError(f"lam must be >= 0, got {self.lam!r}")
        if self.lasso_tol <= 0:
            raise InvalidParamsError(f"lasso_tol must be > 0, got {self.lasso_tol!r}")
        if self.lasso_max_iter < 1:
            raise InvalidParamsError(
                f"lasso_max_iter must be >= 1, got {self.lasso_max_iter!r}"
            )


@dataclass
class WeightVector:
    """Donor weights aligned with donor_ids; converged is false only when
    lasso ran out of sweeps."""

    values: np.ndarray
    donor_ids: list
    converged: bool = True


def _validate(design, target, donor_ids):
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2 or design.shape[0] == 0 or design.shape[1] == 0:
        raise ShapeError(f"design must be a nonempty 2-d matrix, got {design.shape}")
    if target.ndim != 1:
        raise ShapeError(f"target must be 1-d, got shape {target.shape}")
    if target.shape[0] != design.shape[0]:
        raise ShapeError(
            f"design has {design.shape[0]} rows but target has {target.shape[0]}"
        )
    if not np.all(np.isfinite(design)):
        raise InvalidInputError("design contains NaN or infinite entries")
    if not np.all(np.isfinite(target)):
        raise InvalidInputError("target contains NaN or infinite entries")
    if donor_ids is None:
        donor_ids = list(range(design.shape[1]))
    else:
        donor_ids = list(donor_ids)
        if len(donor_ids) != design.shape[1]:
            raise ShapeError(
                f"{len(donor_ids)} donor ids for {design.shape[1]} design columns"
            )
    return design, target, donor_ids


def fit(design, target, spec: RegressionSpec, donor_ids=None) -> WeightVector:
    """Solve for donor weights; design is (T0, n) with one column per donor."""
    design, target, donor_ids = _validate(design, target, donor_ids)
    converged = True
    if spec.method == "ols":
        values = np.linalg.lstsq(design, target, rcond=None)[0]
    elif spec.method == "ridge":
        values = _ridge(design, target, spec.lam)
    else:
        values, converged = _lasso_cd(
            design, target, spec.lam, spec.lasso_tol, spec.lasso_max_iter
        )
    return WeightVector(values=values, donor_ids=donor_ids, converged=converged)


def _ridge(design, target, lam):
    if lam == 0.0:
        return np.linalg.lstsq(design, target, rcond=None)[0]
    t0, n = design.shape
    if n <= t0:
        return np.linalg.solve(design.T @ design + lam * np.eye(n), design.T @ target)
    # dual form, identical solution but a T0 x T0 system when donors outnumber
    # pre-intervention periods
    dual = np.linalg.solve(design @ design.T + lam * np.eye(t0), target)
    return design.T @ dual


def _lasso_cd(design, target, lam, tol, max_iter):
    """Cyclic coordinate descent with soft thresholding.

    Works on the Gram matrix so each coordinate visit costs O(1) plus an
    O(n) update when the coordinate actually moves; with T0 << n this is far
    cheaper than touching the design per coordinate. Sweeps over all
    coordinates, then over the nonzero ones until they settle, then verifies
    with another full sweep. Convergence is only declared when a full sweep
    moves no coordinate by tol or more; every sweep of either kind counts
    against max_iter.
    """
    t0, n = design.shape
    gram = design.T @ design
    corr = design.T @ target
    diag = np.ascontiguousarray(np.diag(gram))
    thresh = t0 * lam
    f = np.zeros(n)
    gram_f = np.zeros(n)  # gram @ f, maintained incrementally
    all_idx = np.arange(n)
    sweeps = 0
    while sweeps < max_iter:
        sweeps += 1
        if _sweep(gram, corr, diag, gram_f, f, thresh, all_idx) < tol:
            return f, True
        while sweeps < max_iter:
            active = np.flatnonzero(f)
            if active.size == 0:
                break
            sweeps += 1
            if _sweep(gram, corr, diag, gram_f, f, thresh, active) < tol:
                break
    return f, False


def _sweep(gram, corr, diag, gram_f, f, thresh, idx):
    delta_max = 0.0
    for j in idx:
        cj = diag[j]
        if cj == 0.0:
            continue
        rho = corr[j] - gram_f[j] + cj * f[j]
        if rho > thresh:
            new = (rho - thresh) / cj
        elif rho < -thresh:
            new = (rho + thresh) / cj
        else:
            new = 0.0
        delta = new - f[j]
        if delta != 0.0:
            gram_f += gram[j] * delta
            f[j] = new
            delta_max = max(delta_max, abs(delta))
    return delta_max


def lasso_objective(design, target, values, lam) -> float:
    """(1 / (2 T0)) ||y - design f||^2 + lam ||f||_1, for tests and reports."""
    design = np.asarray(design, dtype=float)
    resid = np.asarray(target, dtype=float) - design @ np.asarray(values, dtype=float)
    return float(
        resid @ resid / (2 * design.shape[0]) + lam * np.abs(values).sum()
    )


def active_set(weights: WeightVector) -> list:
    """Donor ids whose weight magnitude exceeds ACTIVE_SET_TOL."""
    return [
        did
        for did, val in zip(weights.donor_ids, weights.values)
        if abs(val) > ACTIVE_SET_TOL
    ]
