"""Fiber Lyapunov exponents, large-deviation curves, and distortion moduli.

The deviation statistic at horizon n is the word average of log |(f^n)'|
(equivalently log of the pair-distance ratio in the sync variant); exact
probabilities come from full word enumeration when N^n fits the budget,
otherwise Monte Carlo with 99% Wilson bands. Both curves come from one
builder, on the same per-horizon streams and word order, which is what makes
their tables comparable entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CIRCLE, coordinate_grid, distance
from .measures import estimate_stationary
from .systems import WORD_BUDGET, SystemSpec, _mean_log_deriv, _require_derivatives, ensemble_steps, word_levels
from .util import ArgumentError, batch_stderr, linear_fit, table_chunks, wilson_interval

__all__ = [
    "GammaEstimate",
    "LDCurve",
    "DistortionReport",
    "estimate_gamma",
    "ld_curve",
    "sync_ld_curve",
    "distortion_report",
    "DEFAULT_HORIZONS",
    "default_epsilons",
]

DEFAULT_HORIZONS = (8, 12, 16, 20, 24)
EXACT_LD_BUDGET = 1 << 20
CENSOR_FLOOR = 1e-300

_GAMMA_BASE = 5 << 16
_DIST_BASE = (5 << 16) | 4
_LD_BASE = (5 << 16) | 8  # + horizon index, shared by both curves


@dataclass(frozen=True)
class GammaEstimate:
    """Monte Carlo fiber exponent plus its stationary one-step cross-check."""

    gamma_hat: float
    stderr: float
    one_step: float
    one_step_stderr: float
    consistent: bool


@dataclass(frozen=True)
class LDCurve:
    """Deviation probabilities P(|stat_n - gamma_hat| > eps) per (eps, horizon).

    exact[j] marks horizons computed by full enumeration (their ci bounds
    collapse onto the value). fitted_rates regresses -log p on n over the
    nonzero entries of each row; rows with fewer than two usable entries get
    the +inf sentinel and are excluded from the eps^2 fit for h_hat.
    """

    epsilons: np.ndarray
    horizons: np.ndarray
    probs: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    exact: np.ndarray
    fitted_rates: np.ndarray
    h_hat: float
    h_r2: float
    gamma_hat: float
    replicas: int
    censored_fraction: np.ndarray
    flagged_horizons: np.ndarray
    gamma_gap: float

    def to_csv(self) -> str:
        """One row per (epsilon, horizon), epsilon-major."""
        ne, nh = len(self.epsilons), len(self.horizons)
        header = ["epsilon", "n", "prob", "ci_low", "ci_high", "fitted_rate"]
        columns = [
            np.repeat(self.epsilons, nh),
            np.tile(self.horizons, ne),
            self.probs.ravel(),
            self.ci_low.ravel(),
            self.ci_high.ravel(),
            np.repeat(self.fitted_rates, nh),
        ]
        return "".join(table_chunks(header, columns))


@dataclass(frozen=True)
class DistortionReport:
    """Modulus of log-derivative continuity and word-sampled distortion ratios.

    omega_grid[i, k] is the modulus of map i at ladder scale delta_k on a
    4096-point grid; max_ratio_per_n[m] is the replica mean of the largest
    derivative ratio over the tracked arc after m+1 steps. The tempered
    verdict asks (1/n) log of the final mean ratio to sit below 0.05.
    """

    deltas: np.ndarray
    omega_grid: np.ndarray
    max_ratio_per_n: np.ndarray
    tempered: bool
    final_log_mean_ratio_rate: float


def estimate_gamma(
    system: SystemSpec,
    n: int = 1000,
    replicas: int = 100,
    x0: float = 0.5,
    seed: int = 0,
) -> GammaEstimate:
    """Fiber Lyapunov exponent: replica average of (1/n) log |(f^n)'(x0)|.

    Cross-checked against the one-step stationary integral of log |f'|;
    agreement within 3 combined standard errors plus a 64-ulp allowance (the
    allowance is what keeps exactly-representable systems, where both spreads
    are zero, from flagging over one rounding of a mean).
    """
    if n < 1:
        raise ArgumentError(f"n: must be positive, got {n}")
    if replicas < 2:
        raise ArgumentError(f"replicas: must be at least 2, got {replicas}")
    _require_derivatives(system, "estimate_gamma")
    per, _ = _deriv_stat(system, x0, system.word_stream(seed, _GAMMA_BASE).blocks(n, replicas), n)
    gamma_hat = float(per.mean())
    stderr = float(per.std(ddof=1) / math.sqrt(replicas))
    stat = estimate_stationary(system, burn_in=1000, samples=100_000, seed=seed)
    g = _mean_log_deriv(system, stat.atoms)
    one_step = float(np.sum(g * stat.weights))
    one_se = batch_stderr(g)
    tol = 3.0 * (stderr + one_se) + 64.0 * np.finfo(float).eps * max(1.0, abs(gamma_hat))
    return GammaEstimate(gamma_hat, stderr, one_step, one_se, bool(abs(gamma_hat - one_step) <= tol))


def default_epsilons(gamma_hat: float) -> np.ndarray:
    """The standard ladder 0.05|gamma| .. 0.5|gamma| in ten steps."""
    return np.linspace(0.05, 0.5, 10) * abs(gamma_hat)


def _fit_rates(epsilons, horizons, probs):
    rates = np.empty(len(epsilons))
    for i in range(len(epsilons)):
        ns, ys = [], []
        for j, n in enumerate(horizons):
            p = probs[i, j]
            if p > 0.0:
                ns.append(float(n))
                ys.append(-math.log(p))
        if len(ns) >= 2:
            rates[i] = linear_fit(ns, ys)[0]
        elif len(ns) == 1:
            rates[i] = ys[0] / ns[0]
        else:
            rates[i] = math.inf
    finite = np.isfinite(rates)
    if finite.sum() >= 2:
        h_hat, _, h_r2 = linear_fit(np.asarray(epsilons)[finite] ** 2, rates[finite])
    else:
        h_hat, h_r2 = math.nan, math.nan
    return rates, float(h_hat), float(h_r2)


def _widen(arrays, width: int) -> tuple:
    """Each word's states repeated for each of its children, once a block is wider."""
    size = arrays[0].size
    return tuple(np.repeat(a, width // size) for a in arrays) if width > size else arrays


def _deriv_stat(system, x0, blocks, n):
    """(1/n) log |(f^n)'(x0)| per word, and no censor mask.

    ``blocks`` yields the ``(start, block)`` pairs that ``ensemble_steps``
    takes: the levels of the word tree, one row each, or a stream's blocks.
    The states widen by ``_widen`` whenever a block is wider than them, so
    one loop serves both.
    """
    x, ld = np.full(1, float(x0)), np.zeros(1)
    for block in blocks:
        x, ld = _widen((x, ld), block[1].shape[1])
        for _ in ensemble_steps(system, (block,), (x,), ld):
            pass
    return ld / n, None


def _sync_stat(system, x, y, blocks, n):
    """(1/n) log of the pair-distance ratio per word, with distances censored
    at CENSOR_FLOOR, and the mask of the censored words; ``blocks`` as for
    ``_deriv_stat``."""
    av, bv = np.full(1, float(x)), np.full(1, float(y))
    d0 = distance(system.space, av, bv)
    for block in blocks:
        av, bv = _widen((av, bv), block[1].shape[1])
        for _ in ensemble_steps(system, (block,), (av, bv)):
            pass
    dn = distance(system.space, av, bv)
    cens = dn < CENSOR_FLOOR
    dn = np.maximum(dn, CENSOR_FLOOR)
    return (np.log(dn) - np.log(d0)) / n, cens


def _check_pair(system, x, y) -> None:
    if distance(system.space, x, y) == 0.0:
        raise ArgumentError(f"y: must be a point other than x = {float(x)!r}, got {float(y)!r}")


def _ld_gamma(system, x0, seed, gamma_hat, exact_budget, caller=None) -> float:
    """Both curves' prologue: the exact-budget check, the derivative refusal
    in ``caller``'s name when one is given, then gamma_hat, estimated from
    x0 when it is None."""
    if exact_budget > WORD_BUDGET:
        raise ArgumentError(f"exact_budget: at most WORD_BUDGET = {WORD_BUDGET} words, got {exact_budget}")
    if caller is not None:
        _require_derivatives(system, caller)
    if gamma_hat is not None:
        return float(gamma_hat)
    return estimate_gamma(system, n=2048, replicas=64, x0=x0, seed=seed).gamma_hat


def _ld_curve(system, stat, starts, epsilons, horizons, replicas, seed, gamma_hat, exact_budget):
    """The curve of ``stat(system, *starts, blocks, n)`` around gamma_hat.

    Per horizon n: the levels of the word tree when N^n fits exact_budget
    (each cell the weight of the deviating words), else the replicas of the
    horizon's own stream (Wilson bands); both curves share these streams.
    """
    if epsilons is None:
        epsilons = default_epsilons(gamma_hat)
        if not np.all(epsilons > 0.0):
            raise ArgumentError(
                "epsilons: required, since the default ladder 0.05..0.5 |gamma_hat| scales with "
                f"|gamma_hat|, which is {abs(gamma_hat)!r} here"
            )
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 1 or epsilons.size == 0 or np.any(epsilons <= 0.0):
        raise ValueError("epsilons must be a nonempty positive 1-D ladder")
    horizons = np.asarray(DEFAULT_HORIZONS if horizons is None else horizons, dtype=np.int64)
    if horizons.ndim != 1 or horizons.size == 0 or np.any(horizons < 1):
        raise ArgumentError("horizons: must be a nonempty 1-D list of positive integers")
    ne, nh = len(epsilons), len(horizons)
    probs = np.zeros((ne, nh))
    lo = np.zeros((ne, nh))
    hi = np.zeros((ne, nh))
    exact = np.zeros(nh, dtype=bool)
    censored = np.zeros(nh)
    means = np.zeros(nh)
    for j, n in enumerate(horizons.tolist()):
        exact[j] = system.n_maps**n <= exact_budget
        if exact[j]:
            last = {}  # the levels stream through the statistic, which leaves the last one's weights here
            levels = word_levels(system, n, budget=exact_budget)
            stats, cens = stat(system, *starts, ((0, srow[None]) for srow, last["w"] in levels), n)
        else:
            stats, cens = stat(system, *starts, system.word_stream(seed, _LD_BASE + j).blocks(n, replicas), n)
        dev = np.abs(stats - gamma_hat)
        if exact[j]:
            w = last["w"]
            censored[j] = float(np.sum(w[cens])) if cens is not None else 0.0
            means[j] = float(np.sum(stats * w))
            for i, eps in enumerate(epsilons):
                probs[i, j] = lo[i, j] = hi[i, j] = float(np.sum(w[dev > eps]))
        else:
            censored[j] = float(np.mean(cens)) if cens is not None else 0.0
            means[j] = float(np.mean(stats))
            for i, eps in enumerate(epsilons):
                count = int(np.sum(dev > eps))
                probs[i, j] = count / replicas
                lo[i, j], hi[i, j] = wilson_interval(count, replicas)
    rates, h_hat, h_r2 = _fit_rates(epsilons, horizons, probs)
    flagged = censored > 0.5
    usable = np.nonzero(~flagged)[0]
    gap = abs(means[usable[-1]] - gamma_hat) if usable.size else math.nan
    return LDCurve(
        epsilons,
        horizons,
        probs,
        lo,
        hi,
        exact,
        rates,
        h_hat,
        h_r2,
        float(gamma_hat),
        int(replicas),
        censored,
        flagged,
        float(gap),
    )


def ld_curve(
    system: SystemSpec,
    x0: float = 0.5,
    epsilons=None,
    horizons=None,
    replicas: int = 100_000,
    seed: int = 0,
    gamma_hat: float | None = None,
    exact_budget: int = EXACT_LD_BUDGET,
) -> LDCurve:
    """Large-deviation curve of the derivative statistic around gamma_hat.

    Exact enumeration whenever N^n fits exact_budget (at most WORD_BUDGET),
    else Monte Carlo with Wilson bands; pass gamma_hat to pin the centering
    (otherwise a seeded internal estimate is used). Epsilons default to the
    0.05..0.5 |gamma| ladder, which needs gamma != 0.
    """
    g = _ld_gamma(system, x0, seed, gamma_hat, exact_budget, "ld_curve")
    return _ld_curve(system, _deriv_stat, (x0,), epsilons, horizons, replicas, seed, g, exact_budget)


def sync_ld_curve(
    system: SystemSpec,
    x: float,
    y: float,
    epsilons=None,
    horizons=None,
    replicas: int = 100_000,
    seed: int = 0,
    gamma_hat: float | None = None,
    exact_budget: int = EXACT_LD_BUDGET,
) -> LDCurve:
    """Large-deviation curve of the pair-contraction statistic.

    Same streams, word order, and table layout as ld_curve, so for affine
    systems (position-free derivatives) the two tables agree entry for entry
    when given the same gamma_hat. Distances are censored at 1e-300; a
    horizon with more than half its words censored is flagged unusable. The
    report also carries the gap between the mean statistic at the largest
    usable horizon and gamma_hat (the first-assertion check).
    """
    g = _ld_gamma(system, x, seed, gamma_hat, exact_budget)  # estimate_gamma refuses a system without derivatives, projective ones included
    _check_pair(system, x, y)
    return _ld_curve(system, _sync_stat, (x, y), epsilons, horizons, replicas, seed, g, exact_budget)


def distortion_report(
    system: SystemSpec,
    x: float,
    y: float,
    n: int = 1000,
    replicas: int = 256,
    seed: int = 0,
) -> DistortionReport:
    """Distortion diagnostics for the arc carried between a synchronizing pair.

    omega_grid tabulates the modulus of continuity of log |f'| per map on a
    4096-point grid at each of 8 geometric ladder scales from 1e-4 to 0.25.
    Along ``replicas`` sampled words the contracted arc between the pair is
    tracked through a 32-point grid; the per-step max derivative ratio
    max exp(S_z - S_w) is averaged over words.
    On the circle both candidate arcs are tracked and the one that actually
    contracted (smaller final length; ties to the shorter initial arc) is
    reported, matching the orientation convention.
    """
    _require_derivatives(system, "distortion_report")
    _check_pair(system, x, y)
    deltas = np.geomspace(1e-4, 0.25, 8)
    omega = _omega_grid(system, deltas)
    circle = system.space == CIRCLE
    xf, yf = float(x), float(y)
    ts = np.linspace(0.0, 1.0, 32)
    if circle:
        len1 = (yf - xf) % 1.0
        len2 = (xf - yf) % 1.0
        grids = [(xf + len1 * ts) % 1.0, (yf + len2 * ts) % 1.0]
        init_len = [len1, len2]
    else:
        lo, hi = min(xf, yf), max(xf, yf)
        grids = [lo + (hi - lo) * ts]
        init_len = [hi - lo]
    stream = system.word_stream(seed, _DIST_BASE)
    n_arcs = len(grids)
    pts = np.repeat(np.stack(grids)[:, :, None], replicas, axis=2)  # (arcs, grid point, replica)
    ld = np.zeros_like(pts)
    spreads = np.empty((n_arcs, replicas, n))
    for k in ensemble_steps(system, stream.blocks(n, replicas), (pts,), log_deriv=ld):
        if k:
            spreads[:, :, k - 1] = ld.max(axis=1) - ld.min(axis=1)
    if circle:
        flen = np.stack([(pts[a, -1] - pts[a, 0]) % 1.0 for a in range(n_arcs)])
        pick = np.argmin(flen, axis=0)
        tie = flen[0] == flen[1]
        pick[tie] = int(np.argmin(init_len))
        chosen = spreads[pick, np.arange(replicas), :]
    else:
        chosen = spreads[0]
    mean_ratio = np.exp(chosen).mean(axis=0)
    rate = float(math.log(mean_ratio[-1]) / n)
    return DistortionReport(deltas, omega, mean_ratio, bool(rate < 0.05), rate)


def _omega_grid(system: SystemSpec, deltas: np.ndarray, k: int = 4096) -> np.ndarray:
    from scipy.ndimage import maximum_filter1d, minimum_filter1d

    circle = system.space == CIRCLE
    grid = coordinate_grid(system.space, k)
    mode = "wrap" if circle else "nearest"
    out = np.zeros((system.n_maps, deltas.size))
    for i, m in enumerate(system.maps):
        g = np.log(np.abs(np.asarray(m.deriv(grid), dtype=float)))
        for j, delta in enumerate(deltas):
            w = min(max(1, int(math.floor(delta * k))), k - 1)
            spread = maximum_filter1d(g, w + 1, mode=mode) - minimum_filter1d(g, w + 1, mode=mode)
            out[i, j] = float(spread.max())
    return out
