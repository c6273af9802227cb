"""Fiber Lyapunov exponents, large-deviation curves, and distortion moduli.

The deviation statistic at horizon n is the word average of log |(f^n)'|
(equivalently log of the pair-distance ratio in the sync variant); exact
probabilities come from full word enumeration when N^n fits the budget,
otherwise Monte Carlo with 99% Wilson bands. Both curve builders share their
per-horizon streams and word order, which is what makes their tables
comparable entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CIRCLE, coordinate_grid, distance
from .measures import estimate_stationary
from .systems import WORD_BUDGET, SystemSpec, ensemble_apply, ensemble_apply_many, ensemble_steps, word_levels
from .util import ArgumentError, RefusalError, linear_fit, table_chunks, wilson_interval

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
_LD_BASE = (5 << 16) | 8  # + horizon index, shared by both curve builders


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
    if not all(m.has_derivative for m in system.maps):
        raise RefusalError("estimate_gamma needs derivative support for every map")
    stream = system.word_stream(seed, _GAMMA_BASE)
    x = np.full(replicas, float(x0))
    ld = np.zeros(replicas)
    for _ in ensemble_steps(system, stream, n, replicas, (x,), log_deriv=ld):
        pass
    per = ld / n
    gamma_hat = float(per.mean())
    stderr = float(per.std(ddof=1) / math.sqrt(replicas))
    stat = estimate_stationary(system, burn_in=1000, samples=100_000, seed=seed)
    g = np.zeros(stat.n_atoms)
    for p, m in zip(system.probs, system.maps):
        g += float(p) * np.log(np.abs(np.asarray(m.deriv(stat.atoms), dtype=float)))
    one_step = float(np.sum(g * stat.weights))
    nb = 32
    bm = g[: g.size - g.size % nb].reshape(nb, -1).mean(axis=1)
    one_se = float(bm.std(ddof=1) / math.sqrt(nb))
    tol = 3.0 * (stderr + one_se) + 64.0 * np.finfo(float).eps * max(1.0, abs(gamma_hat))
    return GammaEstimate(gamma_hat, stderr, one_step, one_se, bool(abs(gamma_hat - one_step) <= tol))


def default_epsilons(gamma_hat: float) -> np.ndarray:
    """The standard ladder 0.05|gamma| .. 0.5|gamma| in ten steps."""
    return np.linspace(0.05, 0.5, 10) * abs(gamma_hat)


def _resolve_gamma(system, x0, seed, gamma_hat):
    if gamma_hat is not None:
        return float(gamma_hat)
    return estimate_gamma(system, n=2048, replicas=64, x0=x0, seed=seed).gamma_hat


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


def _ld_table(system, epsilons, horizons, replicas, seed, stat_builder, exact_budget):
    """Shared engine: per horizon, exact word enumeration or MC, same streams.

    ``stat_builder(rows, n)`` runs the words of an iterable of n symbol rows:
    the levels of the word tree, or the stream's rows. Its states widen by
    ``np.repeat`` whenever a row is wider than them, so one loop serves both.
    """
    ne, nh = len(epsilons), len(horizons)
    probs = np.zeros((ne, nh))
    ci_low = np.zeros((ne, nh))
    ci_high = np.zeros((ne, nh))
    exact = np.zeros(nh, dtype=bool)
    censored = np.zeros(nh)
    stats_means = np.zeros(nh)
    for j, n in enumerate(horizons):
        n = int(n)
        if system.n_maps**n <= exact_budget:
            levels = word_levels(system, n, budget=exact_budget)
            weights = np.ones(1)

            def rows():
                nonlocal weights
                for srow, weights in levels:
                    yield srow

            stats, cens = stat_builder(rows(), n)
            exact[j] = True
            censored[j] = float(np.sum(weights[cens])) if cens is not None else 0.0
            stats_means[j] = float(np.sum(stats * weights))
            dev = stat_builder.deviation(stats)
            for i, eps in enumerate(epsilons):
                p = float(np.sum(weights[dev > eps]))
                probs[i, j] = p
                ci_low[i, j] = p
                ci_high[i, j] = p
        else:
            stream = system.word_stream(seed, _LD_BASE + j)
            stats, cens = stat_builder(stream.rows(n, replicas), n)
            censored[j] = float(np.mean(cens)) if cens is not None else 0.0
            stats_means[j] = float(np.mean(stats))
            dev = stat_builder.deviation(stats)
            for i, eps in enumerate(epsilons):
                count = int(np.sum(dev > eps))
                p = count / replicas
                lo, hi = wilson_interval(count, replicas)
                probs[i, j] = p
                ci_low[i, j] = lo
                ci_high[i, j] = hi
    return probs, ci_low, ci_high, exact, censored, stats_means


def _widen(arrays, width: int) -> tuple:
    """Each word's states repeated for each of its children, once a row is wider."""
    size = arrays[0].size
    return tuple(np.repeat(a, width // size) for a in arrays) if width > size else arrays


class _DerivStat:
    """Word statistic: (1/n) sum of log |f'| along the orbit from x0."""

    def __init__(self, system, x0, gamma_hat):
        self.system = system
        self.x0 = float(x0)
        self.gamma_hat = float(gamma_hat)

    def __call__(self, rows, n):
        x, ld = np.full(1, self.x0), np.zeros(1)
        for row in rows:
            x, ld = _widen((x, ld), row.size)
            ensemble_apply(self.system, x, row, log_deriv=ld)
        return ld / n, None

    def deviation(self, stats):
        return np.abs(stats - self.gamma_hat)


class _SyncStat:
    """Word statistic: (1/n) log of the pair-distance ratio, censored at 1e-300."""

    def __init__(self, system, x, y, gamma_hat):
        self.system = system
        self.x = float(x)
        self.y = float(y)
        self.gamma_hat = float(gamma_hat)

    def __call__(self, rows, n):
        av, bv = np.full(1, self.x), np.full(1, self.y)
        d0 = distance(self.system.space, av, bv)
        for row in rows:
            av, bv = _widen((av, bv), row.size)
            ensemble_apply_many(self.system, (av, bv), row)
        dn = distance(self.system.space, av, bv)
        cens = dn < CENSOR_FLOOR
        dn = np.maximum(dn, CENSOR_FLOOR)
        return (np.log(dn) - np.log(d0)) / n, cens

    def deviation(self, stats):
        return np.abs(stats - self.gamma_hat)


def _check_exact_budget(exact_budget: int) -> None:
    if exact_budget > WORD_BUDGET:
        raise ArgumentError(f"exact_budget: at most WORD_BUDGET = {WORD_BUDGET} words, got {exact_budget}")


def _build_curve(system, builder, epsilons, horizons, replicas, seed, gamma_hat, exact_budget):
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
    probs, lo, hi, exact, censored, stat_means = _ld_table(
        system, epsilons, horizons, replicas, seed, builder, exact_budget
    )
    rates, h_hat, h_r2 = _fit_rates(epsilons, horizons, probs)
    flagged = censored > 0.5
    usable = ~flagged
    gap = math.nan
    if usable.any():
        top = int(np.nonzero(usable)[0][-1])
        gap = abs(stat_means[top] - gamma_hat)
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
    _check_exact_budget(exact_budget)
    if not all(m.has_derivative for m in system.maps):
        raise RefusalError("ld_curve needs derivative support for every map")
    g = _resolve_gamma(system, x0, seed, gamma_hat)
    builder = _DerivStat(system, x0, g)
    return _build_curve(system, builder, epsilons, horizons, replicas, seed, g, exact_budget)


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
    _check_exact_budget(exact_budget)
    g = _resolve_gamma(system, x, seed, gamma_hat)  # refuses a system without derivatives, projective ones included
    if distance(system.space, x, y) == 0.0:
        raise ArgumentError(f"y: must be a point other than x = {float(x)!r}, got {float(y)!r}")
    builder = _SyncStat(system, x, y, g)
    return _build_curve(system, builder, epsilons, horizons, replicas, seed, g, exact_budget)


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
    if not all(m.has_derivative for m in system.maps):
        raise RefusalError("distortion_report needs derivative support for every map")
    if distance(system.space, x, y) == 0.0:
        raise ArgumentError(f"y: must be a point other than x = {float(x)!r}, got {float(y)!r}")
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
    for k in ensemble_steps(system, stream, n, replicas, (pts,), log_deriv=ld):
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
