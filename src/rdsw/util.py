"""Shared helpers: errors, deterministic formatting, confidence bands, worker pools."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "ArgumentError",
    "BudgetExceededError",
    "OverflowGuardError",
    "RefusalError",
    "Z99",
    "fmt",
    "wilson_interval",
    "linear_fit",
    "parallel_map",
    "weighted_median",
]

# normal quantile for two-sided 99% intervals
Z99 = 2.5758293035489004


class ArgumentError(ValueError):
    """Raised for an argument out of range; the message starts with the argument's name."""


class BudgetExceededError(ValueError):
    """Raised when an exact enumeration would exceed its stated budget."""


class OverflowGuardError(FloatingPointError):
    """Raised when a matrix product block degenerates past the log-scale floor."""


class RefusalError(ValueError):
    """Raised when an operation declines to produce a number it cannot stand behind."""


def fmt(x) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well behaved at 0 and ``trials`` successes, unlike the Wald interval.
    """
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the division by denom can round the endpoints past p at 0 or all
    # successes; clamp so the interval always contains the point estimate
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least squares line through (x, y).

    Returns (slope, intercept, r2). A perfect fit of constant data reports
    r2 = 1.0; r2 is clipped to [0, 1] against rounding.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("linear_fit needs two or more points")
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("linear_fit needs at least two distinct x values")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot <= 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, min(1.0, max(0.0, r2))


def parallel_map(fn, items, threads: int = 1) -> list:
    """Apply ``fn`` over ``items``, optionally on a worker pool.

    Results come back ordered by item index regardless of scheduling, and
    ``fn`` must not share mutable state between items, so the output is
    identical for every thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def weighted_median(values, weights) -> float:
    """Smallest v with cumulative weight at least half the total."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    total = cw[-1]
    if total <= 0.0:
        raise ValueError("weighted_median needs positive total weight")
    idx = int(np.searchsorted(cw, 0.5 * total))
    idx = min(idx, values.size - 1)
    return float(values[order][idx])
