"""Synthetic control weight solvers: OLS, ridge, and lasso.

All three regress a target's pre-intervention series on the (denoised) donor
series, with donors as columns of the design matrix. There is no intercept
and no constraint on the weights. OLS returns the minimum-norm least squares
solution; ridge solves its closed form; lasso minimises

    (1 / (2 * T0)) * ||y - design @ f||^2 + lam * ||f||_1

exactly, by following the lasso path (LARS-lasso homotopy: Osborne, Presnell
& Turlach 2000; Efron et al. 2004) from the smallest penalty with an all-zero
solution down to lam. Each step solves a system in the active columns' Gram
matrix and moves to the next penalty at which a column joins or a
coefficient reaches zero. The answer is then certified by its Gap Safe
duality gap (Ndiaye et al. 2017), an upper bound on its distance to the
optimal objective.

On a rank-deficient design the lasso optimum need not be unique (Tibshirani
2013); the path picks one. When several columns would join at the same
penalty, the lowest column index joins first, and a column whose correlation
moves in step with the active columns' (it lies in their span) never joins.
So of two identical columns only the lower-indexed one carries weight, and a
zero column never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParamsError, ShapeError, SolverStepLimitError

REGRESSION_METHODS = ("ols", "ridge", "lasso")
ACTIVE_SET_TOL = 1e-10
# a join candidate lies in the span of the active columns when its correlation
# gains on the penalty at a relative rate 1 -/+ a_j at most this small, or
# when its correlation with the active fit's residual is at most this share
# of ||X_j|| ||y||
_SPAN_TOL = 1e-9
# events within this relative distance of the next one count as a tie
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RegressionSpec:
    """Solver choice plus its parameters.

    lam is the ridge or lasso penalty (ignored by OLS). lasso_tol is the
    relative duality-gap tolerance a lasso fit must meet to count as
    converged: the path solver is exact, and its answer is certified when
    its Gap Safe gap is at most lasso_tol * (y'y) / (2 T0). That scale is the
    objective at zero weights, which bounds the optimum, so the test reads
    the same whatever the units of the data.
    """

    method: str
    lam: float = 0.0
    lasso_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in REGRESSION_METHODS:
            raise InvalidParamsError(
                f"method must be one of {REGRESSION_METHODS}, got {self.method!r}"
            )
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InvalidParamsError(f"lam must be >= 0, got {self.lam!r}")
        if self.lasso_tol <= 0:
            raise InvalidParamsError(f"lasso_tol must be > 0, got {self.lasso_tol!r}")


@dataclass
class WeightVector:
    """Donor weights aligned with donor_ids.

    gap is the lasso fit's Gap Safe duality gap, on the scale of the
    objective in the module docstring, and None for OLS and ridge; converged
    is gap <= RegressionSpec.lasso_tol * (y'y) / (2 T0) for lasso and always
    true otherwise.
    The certificate needs a penalty above the rounding noise of X'r: at
    lam = 0 the gap is ||r||^2 / (2 T0), so a least squares fit that does not
    interpolate reads unconverged.
    """

    values: np.ndarray
    donor_ids: list
    converged: bool = True
    gap: float | None = None


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
    if spec.method == "ols":
        values = np.linalg.lstsq(design, target, rcond=None)[0]
    elif spec.method == "ridge":
        values = _ridge(design, target, spec.lam)
    else:
        values, gap = _lasso_lars(design, target, spec.lam)
        zero_objective = float(target @ target) / (2 * design.shape[0])
        return WeightVector(
            values, donor_ids, converged=gap <= spec.lasso_tol * zero_objective, gap=gap
        )
    return WeightVector(values=values, donor_ids=donor_ids)


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


def _path_step_bound(t0, n):
    """Most path steps a fit may take before SolverStepLimitError."""
    return 8 * (min(t0, n) + 1) + 100


def _lasso_lars(design, target, lam):
    """Lasso weights by the homotopy path, and their duality gap.

    Works on the scale 0.5 ||y - X f||^2 + level ||f||_1 with level = T0 lam.
    While the active set A and its signs s stay fixed, the solution at
    penalty p is f_A = u - p d with G_AA u = X_A' y and G_AA d = s, and an
    inactive column's correlation is X_j'(y - X f) = e_j + p a_j. The path
    starts from A empty and f = 0, and each step moves p down to the next
    event: an inactive correlation reaching +-p (the column joins with
    that sign) or a shrinking active coefficient reaching zero (it leaves).
    A column in the span of the active ones never joins: its e_j is rounding
    noise, or its correlation keeps pace with p. A coefficient that has just
    left may not rejoin with the same sign on the next step, since its
    correlation sits at the bound right then. The path ends at p = level.
    """
    t0, n = design.shape
    level = t0 * lam
    values = np.zeros(n)
    corr = design.T @ target
    # |X_j' y| can reach at most this; e_j below _SPAN_TOL of it is rounding
    reach = np.linalg.norm(design, axis=0) * np.linalg.norm(target)
    penalty = np.inf
    active, signs = [], []
    banned = None  # (column, sign) that just left
    for _ in range(_path_step_bound(t0, n)):
        cols = design[:, active]
        u, d = np.linalg.solve(cols.T @ cols, np.column_stack([corr[active], signs])).T
        e = design.T @ (target - cols @ u)
        a = design.T @ (cols @ d)
        moving = np.abs(e) > _SPAN_TOL * reach
        with np.errstate(divide="ignore", invalid="ignore"):
            rise = np.where(moving & (1.0 - a > _SPAN_TOL), e / (1.0 - a), -np.inf)
            fall = np.where(moving & (1.0 + a > _SPAN_TOL), -e / (1.0 + a), -np.inf)
        if banned is not None:
            (rise if banned[1] > 0 else fall)[banned[0]] = -np.inf
        join = np.maximum(rise, fall)
        join[active] = -np.inf
        leave = np.full(len(active), -np.inf)
        shrinking = np.asarray(signs) * d < 0
        leave[shrinking] = u[shrinking] / d[shrinking]
        times = np.minimum(np.concatenate([join, leave]), penalty)
        nxt = float(times.max())
        if nxt <= level:
            values[active] = u - level * d
            return values, _duality_gap(design, target, values, level)
        # of tied events the first in this order wins: joins by column, then
        # leaves in the order the coefficients joined
        event = int(np.flatnonzero(times >= nxt * (1.0 - _TIE_TOL))[0])
        penalty = nxt
        banned = None
        if event < n:
            active.append(event)
            signs.append(1.0 if rise[event] >= fall[event] else -1.0)
        else:
            i = event - n
            banned = (active.pop(i), signs.pop(i))
    raise SolverStepLimitError(
        f"lasso path took more than {_path_step_bound(t0, n)} steps "
        f"on a {t0} x {n} design"
    )


def _duality_gap(design, target, values, level):
    """Gap Safe duality gap of f, divided by T0 to match the objective.

    The dual point is the residual scaled into the feasible set
    ||X' theta||_inf <= level, so the gap bounds f's suboptimality.
    """
    resid = target - design @ values
    bound = max(level, float(np.abs(design.T @ resid).max()))
    scale = level / bound if bound > 0 else 1.0
    primal = 0.5 * float(resid @ resid) + level * float(np.abs(values).sum())
    shifted = target - scale * resid
    dual = 0.5 * float(target @ target) - 0.5 * float(shifted @ shifted)
    return max(primal - dual, 0.0) / design.shape[0]


def active_set(weights: WeightVector) -> list:
    """Donor ids whose weight magnitude exceeds ACTIVE_SET_TOL."""
    ids = weights.donor_ids
    return [ids[i] for i in np.flatnonzero(np.abs(weights.values) > ACTIVE_SET_TOL).tolist()]
