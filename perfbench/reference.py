"""A fixed reference kernel that measures how fast the machine is right now.

On the 2-vCPU Intel Xeon virtual machine this benchmark was tuned on, CPU
speed drifts by a fifth or more within seconds: the same sixty CLI calls took
anywhere from 6.8 to 10.7 s from one pass to the next. The end-to-end timings
are therefore expressed in units of this kernel, timed right before every
call: over a pass, the total call time divided by the total kernel time
varied by about 4% where raw time varied by 20% or more.

The kernel mixes what the package spends its time on: a Python loop of
scalar NumPy updates (the lasso's coordinate sweep), vectorised distance and
mean steps on a small point set (k-means) and a thin SVD (HSVT). It uses no
clustersc code, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20250327)
_DESIGN = _rng.normal(size=(8, 200))
_GRAM = _DESIGN.T @ _DESIGN
_TARGET = _rng.normal(size=8)
_POINTS = _rng.normal(size=(400, 6))


def _kernel() -> float:
    f = np.zeros(200)
    gram_f = np.zeros(200)
    corr = _DESIGN.T @ _TARGET
    for j in range(200):
        rho = corr[j] - gram_f[j] + _GRAM[j, j] * f[j]
        delta = 0.5 * rho / _GRAM[j, j] - f[j]
        if delta != 0.0:
            gram_f += _GRAM[j] * delta
            f[j] += delta
    centers = _POINTS[:3].copy()
    for _ in range(20):
        labels = ((_POINTS[:, None, :] - centers[None]) ** 2).sum(axis=-1).argmin(axis=1)
        for k in range(3):
            centers[k] = _POINTS[labels == k].mean(axis=0)
    return float(np.linalg.svd(_DESIGN.T, compute_uv=False)[0] + f.sum())


def reference_seconds() -> float:
    """Wall seconds of two kernel runs (about 5 ms on the tuning machine)."""
    start = perf_counter()
    _kernel()
    _kernel()
    return perf_counter() - start
