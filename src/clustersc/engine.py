"""The synthetic control engine.

Plain robust SC: denoise the full donor window by HSVT, regress the target's
pre-intervention series on the denoised pre block, then push the weights
through the denoised post block to get the counterfactual. The clustered
variant first restricts the donor pool to the cluster nearest the target in
singular vector space and runs the same engine on that subset.

Learning is two steps. sc_denoise depends on the donor pool alone (spectrum,
rank rule, HSVT); sc_fit_weights fits one target's weights on a denoised pool.
sc_learn is the two in sequence; sc_denoise checks the donors and
sc_fit_weights the target's window. A caller that serves many targets from
the same pool, as the split placebo harness does, denoises it once and fits
each target on the result. sc_infer returns the pre-period fit with its
residual, so scoring it against another reference needs no second product.

Every pool the package fits is tall (hundreds of donors over about ten
periods), so each step works in period space, in the pool's T x T Gram
form. hsvt_factors takes a stack of prescaled Grams (linalg.gram) to each
pool's spectrum and right singular vectors V in one eigh call, picks each
rank r from its spectrum (select_rank) and keeps the singular values the fit
regresses on (kept_scale); sc_denoise runs it on a pool's own Gram, and the
placebo core on the Grams it builds (a leave-one-out pool's is a downdate of
a shared Gram). HSVT at rank r is X V_r V_r', which a DenoisedPool forms
only when read. sc_fit_weights regresses OLS and ridge targets on
Z = V_r[:t0] Sigma_r (t0 x r) through regression.fit (fit_coordinates): the
coordinates c it returns give the donor weights X V_r Sigma_r^-1 c (0 for
each sigma kept_scale drops), which are the solver's weights on the
denoised design (X V_r V_r')[:, :t0]'. The lasso keeps its primal path on
that design. sc_infer pushes the weights through the denoised window, as
the weights are what a caller reads and may change. The placebo core reads
its pre fits and counterfactuals from the coordinates instead (project: Z c
and V_r[t0:] Sigma_r c), which agree with sc_infer's to rounding, and forms
weights only to score them.

The steps also take stacks: pools of one shape (B, n, T) with one target
each, or one pool with a stack of targets, and the core's stacks of factors
(B, T, T). A stack is one eigh call, one ridge solve (regression.fit_stack)
and one product per step, and each pool's numbers are the ones it gets
alone, bit for bit, because every stacked product is a matmul, which makes
the same BLAS call per pool as for a pool alone. The rank rule still reads
one spectrum at a time, and the pools of a stack may keep different ranks:
each pool's directions past its rank are zeroed, so mixed ranks still make
one product.

A note on rank selection. The engine benefits from clustering through the
rank: a cluster's matrix has lower signal rank than the pool's, so its HSVT
keeps fewer, cleaner directions. That only happens when the rank rule can
tell the two apart. Fixed rules with the true group ranks show the full
effect. The plain cumulative energy rule at high thresholds saturates near
full rank on short, noisy windows (noise spreads the spectrum's tail), and
then both pipelines denoise at nearly full rank, HSVT approaches the
identity, and the clustered run differs from the plain one only through
donor subsetting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import fit_cluster_model, nearest_cluster
from .errors import ShapeError
from .linalg import RankRule, as_matrix, gram, gram_eigen, rank_projection, select_rank
from .panel import InterventionSplit
from .regression import RegressionSpec, WeightVector, fit_stack

__all__ = [
    "InterventionSplit",
    "ScFit",
    "EffectEstimate",
    "DenoisedPool",
    "sc_denoise",
    "sc_fit_weights",
    "sc_learn",
    "sc_infer",
    "cluster_sc",
]


@dataclass
class ScFit:
    """A learned synthetic control: weights plus the denoised donor window.

    A fit of a stack of targets (see sc_fit_weights) holds one row of weights
    per target, and the pool or stack of pools it was fitted on.
    """

    weights: WeightVector
    donor_ids: list
    denoised_donors: np.ndarray
    rank_used: int | tuple[int, ...]
    cluster_label: int | None = None


@dataclass
class EffectEstimate:
    """Post-intervention comparison of observation and counterfactual; for a
    stack of fits, every array has one row per target."""

    counterfactual_post: np.ndarray
    observed_post: np.ndarray
    effect: np.ndarray
    pre_fit: np.ndarray
    pre_fit_residual: np.ndarray


@dataclass(frozen=True)
class DenoisedPool:
    """A donor window X (n, T) and its HSVT in factor form.

    v holds X's right singular vectors as columns (T, T), and scale the
    singular values a fit regresses on (kept_scale): sigma_i below
    rank_used, 0 from it on (T,). The denoised window X V_r V_r' (values) is
    formed only when read. A stack of pools has the stack's leading axis on
    every array and one rank per pool.
    """

    donors: np.ndarray
    v: np.ndarray
    scale: np.ndarray
    rank_used: int | tuple[int, ...]

    @property
    def values(self) -> np.ndarray:
        return rank_projection(self.donors, self.v, self.rank_used)


def kept_scale(sigma, rank) -> np.ndarray:
    """The singular values a fit regresses on: sigma (T,) with every value
    from position rank on set to 0, and every value at or below
    sqrt(T eps) sigma_1 too, since a Gram's eigenvalues carry an error of
    about T eps sigma_1^2, so such a value may be rounding alone. A stack of
    spectra (B, T) takes one rank per row.
    """
    periods = sigma.shape[-1]
    floor = math.sqrt(periods * np.finfo(float).eps) * sigma[..., :1]
    keep = (np.arange(periods) < np.asarray(rank)[..., None]) & (sigma > floor)
    return np.where(keep, sigma, 0.0)


def hsvt_factors(g, exponent, sizes, rule: RankRule):
    """The HSVT of pools given by their Grams: spectrum, rank, kept scale.

    g is a Gram (T, T) or a stack of them (B, T, T) under the prescales
    2**-exponent, as linalg.gram returns them (a caller may also downdate
    one); sizes holds each pool's row count (one int for all). The rule
    reads each pool's first min(n, T) singular values, as many as its rows
    span. Returns (v, scale, rank): the right singular vectors, kept_scale's
    values, and the rank, one per pool for a stack. One eigh call serves
    the stack.
    """
    sigma, v = gram_eigen(g, exponent)
    periods = v.shape[-1]
    if sigma.ndim == 1:
        rank = select_rank(sigma[: min(sizes, periods)], rule)
    else:
        sizes = np.broadcast_to(sizes, sigma.shape[:1]).tolist()
        rank = tuple([select_rank(s[: min(n, periods)], rule) for s, n in zip(sigma, sizes)])
    return v, kept_scale(sigma, rank), rank


def sc_denoise(donors, rule: RankRule) -> DenoisedPool:
    """The target-free step of sc_learn: spectrum, rank selection, HSVT.

    donors is one window (n, T) or a stack of equally shaped windows
    (B, n, T). The stack takes one eigh call and a rank per window, and each
    window's factors are the ones it gets alone, bit for bit.
    """
    donors = as_matrix(donors, stacked=True)
    return DenoisedPool(donors, *hsvt_factors(*gram(donors), donors.shape[-2], rule))


def fit_coordinates(v, scale, t0: int, target_pre, reg: RegressionSpec) -> np.ndarray:
    """Each target's OLS or ridge fit in its pool's singular coordinates.

    The fit regresses the target on Z = V_r[:t0] Sigma_r (t0 x T, zero past
    the rank; v and scale as a DenoisedPool holds them): the donor weights
    X V_r Sigma_r^-1 coords (weight_direction) are those of the same solver
    on the denoised design (X V_r V_r')[:, :t0]', and the pre fit is
    Z coords (project). target_pre is (t0,) or a stack (B, t0); v and scale
    are one pool's or a stack of B pools'.
    """
    loadings = v * scale[..., None, :]
    return fit_stack(loadings[..., :t0, :], target_pre, reg).values


def _inverse(scale) -> np.ndarray:
    """1 / sigma where HSVT keeps a positive sigma, 0 elsewhere."""
    inverse = np.zeros_like(scale)
    np.divide(1.0, scale, out=inverse, where=scale > 0)
    return inverse


def weight_direction(v, scale, coords) -> np.ndarray:
    """V_r Sigma_r^-1 coords, (T,) per target: a pool's donors times it give
    the donor weights of an OLS or ridge fit (see fit_coordinates)."""
    return (v @ (_inverse(scale) * coords)[..., None])[..., 0]


def project(v, scale, t0: int, coords) -> tuple[np.ndarray, np.ndarray]:
    """The pre fit Z coords and the counterfactual V_r[t0:] Sigma_r coords."""
    loadings = v * scale[..., None, :]
    coords = coords[..., None]
    return (loadings[..., :t0, :] @ coords)[..., 0], (loadings[..., t0:, :] @ coords)[..., 0]


def sc_fit_weights(
    pool: DenoisedPool,
    split: InterventionSplit,
    target_pre,
    reg: RegressionSpec,
    donor_ids=None,
    cluster_label: int | None = None,
) -> ScFit:
    """The per-target step of sc_learn: fit the weights on a denoised pool.

    OLS and ridge fit in the pool's singular coordinates (fit_coordinates);
    the lasso keeps its primal path on the denoised design. Either argument
    may carry a leading stack axis: a stack of pools with one target each,
    or one pool with a stack of targets (B, t0). Then the weights hold one
    row per target, fitted by regression.fit_stack.
    """
    periods = pool.v.shape[-1]
    if periods != split.t_total:
        raise ShapeError(f"donors have {periods} periods, split expects {split.t_total}")
    target_pre = np.asarray(target_pre, dtype=float)
    if target_pre.ndim not in (1, 2) or target_pre.shape[-1] != split.t0:
        raise ShapeError(
            f"target_pre must have length t0={split.t0}, got {target_pre.shape}"
        )
    n = pool.donors.shape[-2]
    if donor_ids is None:
        donor_ids = list(range(n))
    elif len(donor_ids) != n:
        raise ShapeError(f"{len(donor_ids)} donor ids for {n} donors")
    single = pool.v.ndim == 2 and target_pre.ndim == 1
    target_pre = target_pre[None] if single else target_pre
    values = pool.values
    if reg.method == "lasso":
        weights = fit_stack(values[..., : split.t0].swapaxes(-1, -2), target_pre, reg, donor_ids)
    else:
        coords = fit_coordinates(pool.v, pool.scale, split.t0, target_pre, reg)
        direction = weight_direction(pool.v, pool.scale, coords)
        weights = WeightVector((pool.donors @ direction[..., None])[..., 0], list(donor_ids))
    if single:
        weights.values = weights.values[0]
    return ScFit(
        weights=weights,
        donor_ids=weights.donor_ids,
        denoised_donors=values,
        rank_used=pool.rank_used,
        cluster_label=cluster_label,
    )


def sc_learn(
    donors,
    split: InterventionSplit,
    target_pre,
    rule: RankRule,
    reg: RegressionSpec,
    donor_ids=None,
    cluster_label: int | None = None,
) -> ScFit:
    """Denoise the donor window at the selected rank and fit the weights."""
    return sc_fit_weights(
        sc_denoise(donors, rule), split, target_pre, reg, donor_ids, cluster_label
    )


def sc_infer(sc_fit: ScFit, split: InterventionSplit, target_full) -> EffectEstimate:
    """The counterfactual (the denoised post block through the weights), the
    effect (observed post minus it), and the pre-period fit with its residual.

    A stack of fits takes a stack of targets (B, T) and returns one row of
    each per target, every product one matmul over the stack.
    """
    target_full = np.asarray(target_full, dtype=float)
    if target_full.ndim not in (1, 2) or target_full.shape[-1] != split.t_total:
        raise ShapeError(
            f"target_full must have length {split.t_total}, got {target_full.shape}"
        )
    donors = sc_fit.denoised_donors
    periods = donors.shape[-1]
    if periods != split.t_total:
        raise ShapeError(f"fit covers {periods} periods, split expects {split.t_total}")
    # matmul broadcasts a pool over a stack of weights
    weights = sc_fit.weights.values[..., None]
    counterfactual = (donors[..., split.t0 :].swapaxes(-1, -2) @ weights)[..., 0]
    observed_post = target_full[..., split.t0 :]
    pre_fit = (donors[..., : split.t0].swapaxes(-1, -2) @ weights)[..., 0]
    return EffectEstimate(
        counterfactual_post=counterfactual,
        observed_post=observed_post,
        effect=observed_post - counterfactual,
        pre_fit=pre_fit,
        pre_fit_residual=target_full[..., : split.t0] - pre_fit,
    )


def cluster_sc(
    donors,
    split: InterventionSplit,
    target_full,
    rule: RankRule,
    reg: RegressionSpec,
    k="auto",
    rng=None,
    donor_ids=None,
):
    """Cluster the donor pool, keep the target's cluster, run SC on it.

    The clustering sees only pre-intervention data (see fit_cluster_model
    for k). The target's cluster must hold at least 2 donors, else
    DegenerateClusterError is raised. The rank rule is applied afresh
    to the selected cluster's matrix. donor_ids, when given, holds one id per
    donor row (ShapeError otherwise, before the clustering). Each step checks
    its own inputs, so a wrong period count or target length is found after
    the clustering.

    Returns (EffectEstimate, ScFit, ClusterModel). With k=1 the selected
    cluster is the whole pool, reproducing plain SC bit for bit.
    """
    donors = as_matrix(donors)
    target_full = np.asarray(target_full, dtype=float)
    if donor_ids is None:
        donor_ids = list(range(donors.shape[0]))
    elif len(donor_ids) != donors.shape[0]:
        raise ShapeError(f"{len(donor_ids)} donor ids for {donors.shape[0]} donors")
    model = fit_cluster_model(donors[:, : split.t0], rule, k=k, rng=rng)
    label, selected = nearest_cluster(model, target_full[: split.t0])
    sub_ids = [donor_ids[i] for i in selected]
    sc_fit = sc_learn(
        donors[selected],
        split,
        target_full[: split.t0],
        rule,
        reg,
        donor_ids=sub_ids,
        cluster_label=label,
    )
    estimate = sc_infer(sc_fit, split, target_full)
    return estimate, sc_fit, model
