"""Singular value decomposition with fixed signs, hard thresholding, and rank rules.

The denoising step of every estimator in this package is hard singular value
thresholding (HSVT): keep the top r singular triplets and drop the rest. The
rank r either comes from a fixed request or from an energy rule on the
cumulative singular value mass. Flags, config files and reports write a
rule one way, fixed:R, energy:T or energy:T:squared: parse_rule reads that
grammar and rule_tag writes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusterScError,
    ConfigError,
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidRankError,
    ShapeError,
)

# Slack when comparing a cumulative ratio against an energy threshold, so that
# exact-in-theory boundaries like 9/10 >= 0.9 survive float rounding.
ENERGY_TIE_TOL = 1e-12


def as_matrix(x) -> np.ndarray:
    """Validate and return a finite, nonempty 2-d float array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got {x.ndim} dimension(s)")
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise ShapeError(f"matrix must be nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("matrix contains NaN or infinite entries")
    return x


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD x = u @ diag(sigma) @ v.T with a deterministic sign convention.

    u is (n, p), sigma is (p,) nonincreasing and nonnegative, v is (T, p),
    with p = min(n, T). Each column of v has a nonnegative first nonzero
    coordinate; the matching column of u is flipped jointly so the product is
    unchanged.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def low_rank(self, r: int) -> np.ndarray:
        """Reconstruction from the leading r singular triplets."""
        if not 1 <= r <= self.sigma.size:
            raise InvalidRankError(
                f"rank must be in 1..{self.sigma.size}, got {r}"
            )
        return (self.u[:, :r] * self.sigma[:r]) @ self.v[:, :r].T


def svd(x) -> SvdFactors:
    """Thin SVD of a finite matrix, signs fixed for reproducibility."""
    x = as_matrix(x)
    u, sigma, vh = np.linalg.svd(x, full_matrices=False)
    v = vh.T
    # each column's first entry above 1e-12 in magnitude; v columns are unit
    # vectors, so a column has none only if it is near 0, which LAPACK does
    # not produce, and such a column keeps its sign
    big = np.abs(v) > 1e-12
    first = big.argmax(axis=0)
    cols = np.arange(v.shape[1])
    signs = np.where(big[first, cols] & (v[first, cols] < 0), -1.0, 1.0)
    u *= signs
    v *= signs
    return SvdFactors(u=u, sigma=sigma, v=v)


def hsvt(x, r: int) -> np.ndarray:
    """Hard singular value thresholding: best rank-r approximation of x."""
    x = as_matrix(x)
    if not 1 <= r <= min(x.shape):
        raise InvalidRankError(f"rank must be in 1..{min(x.shape)}, got {r}")
    return svd(x).low_rank(r)


@dataclass(frozen=True)
class RankRule:
    """How to pick the HSVT rank from a spectrum.

    kind "fixed" uses the requested r directly; kind "energy" picks the
    smallest r whose cumulative singular value ratio reaches the threshold.
    By default the ratio is over plain singular values, matching a cumulative
    singular value plot; squared=True uses squared values instead.
    """

    kind: str
    r: int | None = None
    threshold: float | None = None
    squared: bool = False

    @classmethod
    def fixed(cls, r: int) -> "RankRule":
        if not isinstance(r, (int, np.integer)) or r < 1:
            raise InvalidRankError(f"fixed rank must be a positive integer, got {r!r}")
        return cls(kind="fixed", r=int(r))

    @classmethod
    def energy(cls, threshold: float, squared: bool = False) -> "RankRule":
        if not 0.0 < threshold <= 1.0:
            raise InvalidRankError(
                f"energy threshold must be in (0, 1], got {threshold!r}"
            )
        return cls(kind="energy", threshold=float(threshold), squared=squared)


def parse_rule(text: str) -> RankRule:
    """Parse the rule grammar: fixed:R, energy:THRESHOLD or energy:THRESHOLD:squared."""
    parts = [p.strip() for p in text.split(":")]
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return RankRule.fixed(int(parts[1]))
        if parts[0] == "energy" and len(parts) == 2:
            return RankRule.energy(float(parts[1]))
        if parts[0] == "energy" and len(parts) == 3 and parts[2] == "squared":
            return RankRule.energy(float(parts[1]), squared=True)
    except (ValueError, ClusterScError) as exc:
        raise ConfigError(f"rule {text!r}: {exc}") from None
    raise ConfigError(
        f"rule {text!r}: expected fixed:R, energy:T, or energy:T:squared"
    )


def rule_tag(rule: RankRule) -> str:
    """A rule in the grammar parse_rule reads, e.g. fixed:6 or energy:0.9:squared."""
    if rule.kind == "fixed":
        return f"fixed:{rule.r}"
    return f"energy:{rule.threshold}" + (":squared" if rule.squared else "")


def select_rank(sigma, rule: RankRule) -> int:
    """Apply a rank rule to a nonincreasing spectrum."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ShapeError("sigma must be a nonempty 1-d array")
    if rule.kind == "fixed":
        if rule.r > sigma.size:
            raise InvalidRankError(
                f"fixed rank {rule.r} exceeds spectrum length {sigma.size}"
            )
        return rule.r
    if rule.kind == "energy":
        vals = sigma**2 if rule.squared else sigma
        total = vals.sum()
        if total <= 0:
            raise DegenerateSpectrumError(
                "all singular values are zero; energy rule undefined"
            )
        ratios = np.cumsum(vals) / total
        return int(np.argmax(ratios >= rule.threshold - ENERGY_TIE_TOL)) + 1
    raise InvalidRankError(f"unknown rank rule kind {rule.kind!r}")


def spectrum_report(x) -> list[tuple[int, float, float]]:
    """Rows (index, sigma_i, cumulative ratio) for the spectrum of x.

    Indices are 1-based and the final cumulative ratio is exactly 1. An
    all-zero matrix has no meaningful ratios and raises
    DegenerateSpectrumError.
    """
    sigma = svd(x).sigma
    cum = np.cumsum(sigma)
    total = cum[-1]
    if total <= 0:
        raise DegenerateSpectrumError("all singular values are zero")
    return [
        (i + 1, float(sigma[i]), float(cum[i] / total)) for i in range(sigma.size)
    ]
