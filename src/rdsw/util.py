"""Shared helpers: errors, deterministic formatting, confidence bands, worker pools."""

from __future__ import annotations

import json
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
    "table_chunks",
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


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt(float(v))
    return str(v)


def _jcell(v):
    if isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


# rows formatted at a time: a table's text never sits in memory whole
CHUNK_ROWS = 4096


def _chunk_cells(column, a: int, b: int, csv: bool) -> list:
    """The cells of rows a..b of one column. A float64 array is formatted in
    one pass over ``tolist()`` (the bytes of ``fmt``, nan, inf and -0
    included); any other column goes through ``_cell`` or ``_jcell`` value by
    value, so a numpy bool still prints as ``True``."""
    part = column[a:b]
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return ["%.17g" % v for v in part.tolist()] if csv else part.tolist()
    return [_cell(v) for v in part] if csv else [_jcell(v) for v in part]


def table_chunks(header: list[str], columns: list, csv: bool = True):
    """Yield the text of one table, ``CHUNK_ROWS`` rows at a time.

    ``columns`` holds one sequence per header field. CSV is the header line,
    then one line per row, with reals in 17 significant digits and Python
    bools as 0 or 1. JSON is the text of one ``json.dumps(rows, indent=2,
    sort_keys=True)`` over the row dicts plus a newline: the chunks' bodies
    joined by ``",\n"`` inside ``[\n ... \n]``.
    """
    n_rows = len(columns[0]) if columns else 0
    if csv:
        yield ",".join(header) + "\n"
    elif n_rows == 0:
        yield "[]\n"
        return
    for a in range(0, n_rows, CHUNK_ROWS):
        cells = [_chunk_cells(c, a, a + CHUNK_ROWS, csv) for c in columns]
        if csv:
            yield "".join(",".join(row) + "\n" for row in zip(*cells))
        else:
            body = json.dumps([dict(zip(header, row)) for row in zip(*cells)], indent=2, sort_keys=True)
            yield ("[\n" if a == 0 else ",\n") + body[2:-2]
    if not csv:
        yield "\n]\n"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 99% Wilson score interval for a binomial proportion.

    Well behaved at 0 and ``trials`` successes, unlike the Wald interval.
    """
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    p = successes / trials
    z = Z99
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
