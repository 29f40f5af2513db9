"""Singular value decomposition with fixed signs, hard thresholding, and rank rules.

The denoising step of every estimator in this package is hard singular value
thresholding (HSVT): keep the top r singular directions and drop the rest. The
rank r either comes from a fixed request or from an energy rule on the
cumulative singular value mass. Flags, config files and reports write a
rule one way, fixed:R, energy:T or energy:T:squared: parse_rule reads that
grammar and rule_tag writes it. RankRule checks itself, however it is built.

HSVT needs only the right singular vectors, so gram_factors finds them, and
the singular values, from the eigendecomposition of the T x T Gram matrix
X'X, one eigh call for a matrix or a whole stack; the donor pools here are
tall (hundreds of units over about ten periods), so that is much cheaper
than an SVD of X. Each matrix is first scaled by 2**-e, e being the exponent
of its largest entry, so its Gram cannot overflow and LAPACK never rescales
it by a factor that is not a power of two: scaling X by 2**j scales every
singular value and the HSVT result by exactly 2**j. A Gram squares the
condition number, so singular values below about 1e-8 times the largest
lose their relative accuracy (the leading ones, and the directions they
span, keep it). svd stays the decomposition for the k-means embedding, which
needs the left factors too, and for spectrum reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

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


def as_matrix(x, stacked: bool = False) -> np.ndarray:
    """Validate and return a finite, nonempty 2-d float array.

    With stacked, a 3-d array passes too, read as a stack of equally shaped
    matrices along its first axis; it is checked once, as a whole.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 and not (stacked and x.ndim == 3):
        raise ShapeError(f"expected a 2-d matrix, got {x.ndim} dimension(s)")
    if 0 in x.shape:
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


def svd(x) -> SvdFactors:
    """Thin SVD of a finite matrix, signs fixed for reproducibility."""
    x = as_matrix(x)
    u, sigma, vh = np.linalg.svd(x, full_matrices=False)
    v = vh.T
    # each column's first entry above 1e-12 in magnitude; v columns are unit
    # vectors, so a column has none only if it is near 0, which LAPACK does
    # not produce, and such a column keeps its sign
    big = np.abs(v) > 1e-12
    first = big & (big.cumsum(axis=0) == 1)
    signs = np.where((first & (v < 0)).any(axis=0), -1.0, 1.0)
    u *= signs
    v *= signs
    return SvdFactors(u=u, sigma=sigma, v=v)


def gram_factors(x) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and right singular vectors of a matrix x (n, T),
    or of each matrix of a stack (B, n, T), from the eigendecomposition of
    its Gram matrix (see the module docstring).

    x must be finite, as as_matrix returns it. Returns sigma, (p,) or
    (B, p) with p = min(n, T), nonincreasing and nonnegative, and v, (T, T)
    or (B, T, T), whose columns are the matching eigenvectors in the same
    order (the last T - p span x's null space when x is wide). A stack's
    factors are the ones each matrix gets alone, bit for bit.
    """
    exponent = np.frexp(np.abs(x).max(axis=(-2, -1)))[1]
    scaled = np.ldexp(x, -exponent[..., None, None])
    lam, v = np.linalg.eigh(scaled.swapaxes(-1, -2) @ scaled)
    # descending; rounding can leave a zero eigenvalue slightly negative
    lam = np.maximum(lam[..., ::-1][..., : min(x.shape[-2:])], 0.0)
    # contiguous, so the projector's products stay BLAS calls
    return np.ldexp(np.sqrt(lam), exponent[..., None]), np.ascontiguousarray(v[..., ::-1])


def rank_projection(x, v, rank) -> np.ndarray:
    """x @ V_r V_r', the HSVT of x at rank r, with v from gram_factors(x).

    For a stack, rank holds one rank per matrix. The projector keeps the
    columns of v below each matrix's rank through a mask, so a stack of
    mixed ranks is one product, and each matrix's result is the one it gets
    alone, bit for bit.
    """
    keep = np.arange(v.shape[-1]) < np.asarray(rank)[..., None, None]
    return x @ ((v * keep) @ v.swapaxes(-1, -2))


def hsvt(x, r: int) -> np.ndarray:
    """Hard singular value thresholding: best rank-r approximation of x.

    InvalidRankError unless r is an integer (a Python or NumPy one, not a
    bool) in 1..min(n, T).
    """
    x = as_matrix(x)
    p = min(x.shape)
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 1 <= r <= p:
        raise InvalidRankError(f"rank must be an integer in 1..{p}, got {r!r}")
    return rank_projection(x, gram_factors(x)[1], r)


@dataclass(frozen=True)
class RankRule:
    """How to pick the HSVT rank from a spectrum.

    kind "fixed" uses the requested r directly; kind "energy" picks the
    smallest r whose cumulative singular value ratio reaches the threshold.
    By default the ratio is over plain singular values, matching a cumulative
    singular value plot; squared=True uses squared values instead.
    InvalidRankError unless r is a positive integer (kept as an int), or the
    threshold is a number in (0, 1] (kept as a float; a bool is refused, as
    it is for r), or squared is a bool, or when
    a field the kind does not use is set (a fixed rule's threshold or squared,
    an energy rule's r).
    """

    kind: str
    r: int | None = None
    threshold: float | None = None
    squared: bool = False

    def __post_init__(self):
        if not isinstance(self.squared, bool):
            raise InvalidRankError(f"squared must be a bool, got {self.squared!r}")
        if self.kind == "fixed":
            if isinstance(self.r, bool) or not isinstance(self.r, (int, np.integer)) or self.r < 1:
                raise InvalidRankError(f"fixed rank must be a positive integer, got {self.r!r}")
            if self.threshold is not None or self.squared:
                raise InvalidRankError(f"a fixed rule takes no threshold or squared, got {self!r}")
            object.__setattr__(self, "r", int(self.r))
        elif self.kind == "energy":
            if (
                isinstance(self.threshold, bool)
                or not isinstance(self.threshold, Real)
                or not 0.0 < self.threshold <= 1.0
            ):
                raise InvalidRankError(
                    f"energy threshold must be in (0, 1], got {self.threshold!r}"
                )
            if self.r is not None:
                raise InvalidRankError(f"an energy rule takes no r, got {self!r}")
            object.__setattr__(self, "threshold", float(self.threshold))
        else:
            raise InvalidRankError(f"unknown rank rule kind {self.kind!r}")

    @classmethod
    def fixed(cls, r: int) -> "RankRule":
        return cls("fixed", r=r)

    @classmethod
    def energy(cls, threshold: float, squared: bool = False) -> "RankRule":
        return cls("energy", threshold=threshold, squared=squared)


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
    # times 2**-e, e being sigma[0]'s exponent, so no sum overflows; a power
    # of two scales every sum exactly, so the ratios keep their bits
    vals = np.ldexp(sigma, -math.frexp(sigma[0])[1])
    vals = vals**2 if rule.squared else vals
    total = vals.sum()
    if total <= 0:
        raise DegenerateSpectrumError("all singular values are zero; energy rule undefined")
    ratios = np.cumsum(vals) / total
    return int(np.argmax(ratios >= rule.threshold - ENERGY_TIE_TOL)) + 1


def spectrum_report(x) -> list[tuple[int, float, float]]:
    """Rows (index, sigma_i, cumulative ratio) for the spectrum of x.

    Indices are 1-based and the final cumulative ratio is exactly 1. An
    all-zero matrix has no meaningful ratios and raises
    DegenerateSpectrumError.
    """
    sigma = svd(as_matrix(x)).sigma
    cum = np.cumsum(np.ldexp(sigma, -math.frexp(sigma[0])[1]))  # as in select_rank
    total = cum[-1]
    if total <= 0:
        raise DegenerateSpectrumError("all singular values are zero")
    return [
        (i + 1, float(sigma[i]), float(cum[i] / total)) for i in range(sigma.size)
    ]
