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

sc_denoise takes each pool's spectrum and right singular vectors from its
T x T Gram matrix (linalg.gram_factors), picks the rank from that spectrum
(select_rank, as for any spectrum) and returns the pool times its rank-r
projector in period space (linalg.rank_projection), the HSVT of the pool.

The three steps also take stacks: equally shaped pools (B, n, T) with one
target each, or one pool with a stack of targets. A stack is one eigh call,
one ridge solve (regression.fit_stack) and one product per step, and each
pool's numbers are the ones it gets alone, bit for bit, because every
stacked product is a matmul, which makes the same BLAS call per pool as for
a pool alone. A single pool goes through the same code as a stack of one.
The rank rule still reads one spectrum at a time, and the pools of a stack
may keep different ranks: the projector masks each pool's directions past
its rank, so mixed ranks still make one product.

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

from dataclasses import dataclass

import numpy as np

from .cluster import fit_cluster_model, nearest_cluster
from .errors import ShapeError
from .linalg import RankRule, as_matrix, gram_factors, rank_projection, select_rank
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
    """A donor window after HSVT at the rank the rule selected; a stack of
    windows has the stack's leading axis and one rank per window."""

    values: np.ndarray
    rank_used: int | tuple[int, ...]


def sc_denoise(donors, rule: RankRule) -> DenoisedPool:
    """The target-free step of sc_learn: spectrum, rank selection, HSVT.

    donors is one window (n, T) or a stack of equally shaped windows
    (B, n, T). The stack takes one eigh call, a rank per window and one HSVT
    product, and each window's result is the one it gets alone, bit for bit.
    """
    donors = as_matrix(donors, stacked=True)
    sigma, v = gram_factors(donors)
    if sigma.ndim == 1:
        rank = select_rank(sigma, rule)
    else:
        rank = tuple([select_rank(s, rule) for s in sigma])
    return DenoisedPool(rank_projection(donors, v, rank), rank)


def sc_fit_weights(
    pool: DenoisedPool,
    split: InterventionSplit,
    target_pre,
    reg: RegressionSpec,
    donor_ids=None,
    cluster_label: int | None = None,
) -> ScFit:
    """The per-target step of sc_learn: fit the weights on a denoised pool.

    Either argument may carry a leading stack axis: a stack of pools with one
    target each, or one pool with a stack of targets (B, t0). Then the
    weights hold one row per target, fitted by regression.fit_stack.
    """
    values = pool.values
    periods = values.shape[-1]
    if periods != split.t_total:
        raise ShapeError(f"donors have {periods} periods, split expects {split.t_total}")
    target_pre = np.asarray(target_pre, dtype=float)
    if target_pre.ndim not in (1, 2) or target_pre.shape[-1] != split.t0:
        raise ShapeError(
            f"target_pre must have length t0={split.t0}, got {target_pre.shape}"
        )
    single = values.ndim == 2 and target_pre.ndim == 1
    design = values[..., : split.t0].swapaxes(-1, -2)
    weights = fit_stack(design, target_pre[None] if single else target_pre, reg, donor_ids)
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
