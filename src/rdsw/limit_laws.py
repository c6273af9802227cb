"""Quenched limit-law checks: SLLN gaps, variance estimation, CLT normality,
and law-of-iterated-logarithm statistics for Birkhoff sums of an observable.

Sums follow S_n = sum_{k=0}^{n-1} h(X_k), so the initial point contributes
the first term. All plug-in centerings are documented on each operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .geometry import CIRCLE, INTERVAL, distance
from .measures import EmpiricalMeasure, estimate_stationary, resample
from .systems import SystemSpec, WordStream, _finite_array, ensemble_steps, iterate
from .util import ArgumentError, RefusalError

__all__ = [
    "Observable",
    "observable",
    "SllnResult",
    "Sigma2Estimate",
    "CltResult",
    "LilResult",
    "slln_check",
    "estimate_sigma2",
    "clt_test",
    "lil_statistic",
]

_SLLN_BASE = 4 << 16
_SIGMA_BASE = (4 << 16) | 1
_CLT_BASE = (4 << 16) | 2
_LIL_BASE = (4 << 16) | 3
_CHECK_BASE = (4 << 16) | 9
# stationary atoms a variance run resamples its starts from
_SIGMA_STATIONARY = 100_000
# the shortest horizon lil_statistic accepts
LIL_MIN_N = 10_000

_KINDS = ("coordinate", "cos2pi", "sin2pi", "custom_tabulated")


@dataclass(frozen=True)
class Observable:
    """A real observable of the phase coordinate.

    Kinds: coordinate, cos2pi, sin2pi, and custom_tabulated (piecewise linear
    through (nodes, values), periodic on the circle). When a Holder pair
    (holder_alpha, holder_const) is declared it is spot checked at load on
    10^4 seeded pairs against the space's metric; violations raise at once.
    Leave the pair as None for observables with no declared modulus (the
    coordinate on the circle is the canonical example).
    """

    kind: str
    space: str = INTERVAL
    holder_alpha: float | None = None
    holder_const: float | None = None
    nodes: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.space not in (CIRCLE, INTERVAL):
            raise ValueError(f"observables live on circle or interval, not {self.space!r}")
        if self.kind == "custom_tabulated":
            if len(self.nodes) < 2 or len(self.nodes) != len(self.values):
                raise ValueError("custom_tabulated needs matching nodes/values, >= 2 entries")
            if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
                raise ValueError("nodes must be strictly increasing")
        if (self.holder_alpha is None) != (self.holder_const is None):
            raise ValueError("declare both holder_alpha and holder_const or neither")
        if self.holder_alpha is not None:
            if not 0.0 < self.holder_alpha <= 1.0:
                raise ValueError("holder_alpha must lie in (0, 1]")
            if self.holder_const <= 0.0:
                raise ValueError("holder_const must be positive")
            self._spot_check()

    def _spot_check(self, pairs: int = 10_000):
        u = WordStream(0x0B5E, _CHECK_BASE, (1.0,)).uniforms(2 * pairs)
        xs, ys = u[:pairs], u[pairs:]
        d = distance(self.space, xs, ys)
        lhs = np.abs(self(xs) - self(ys))
        rhs = self.holder_const * d**self.holder_alpha + 1e-9
        bad = np.nonzero(lhs > rhs)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"declared Holder pair fails at ({xs[i]:.6f}, {ys[i]:.6f}): "
                f"|h(x)-h(y)| = {lhs[i]:.3e} > {rhs[i]:.3e}"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "coordinate":
            return x % 1.0 if self.space == CIRCLE else x
        if self.kind == "cos2pi":
            return np.cos(2.0 * math.pi * x)
        if self.kind == "sin2pi":
            return np.sin(2.0 * math.pi * x)
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if self.space == CIRCLE:
            xr = (x - nodes[0]) % 1.0 + nodes[0]
            return np.interp(xr, np.append(nodes, nodes[0] + 1.0), np.append(values, values[0]))
        return np.interp(np.clip(x, nodes[0], nodes[-1]), nodes, values)


def observable(kind: str, space: str = INTERVAL) -> Observable:
    """Standard instances with their canonical Holder declarations."""
    if kind == "coordinate" and space == INTERVAL:
        return Observable("coordinate", INTERVAL, 1.0, 1.0)
    if kind == "coordinate" and space == CIRCLE:
        return Observable("coordinate", CIRCLE)  # not Holder for the arc metric
    if kind in ("cos2pi", "sin2pi"):
        return Observable(kind, space, 1.0, 2.0 * math.pi)
    raise ValueError(f"no canonical instance for {kind!r} on {space!r}")


@dataclass(frozen=True)
class SllnResult:
    checkpoints: np.ndarray
    means: np.ndarray
    gaps: np.ndarray
    nu_hat: float
    sigma2_hat: float
    threshold: float
    verdict: bool


@dataclass(frozen=True)
class Sigma2Estimate:
    sigma2: float
    stderr: float
    nu_hat: float
    batch_sigma2: float
    batch_stderr: float
    flagged: bool


@dataclass(frozen=True)
class CltResult:
    ks_stat: float
    threshold: float
    passed: bool
    verdict: str
    nu_hat: float
    sigma2_hat: float


@dataclass(frozen=True)
class LilResult:
    stats: np.ndarray
    median: float
    verdict: bool
    checkpoints: np.ndarray
    nu_hat: float
    sigma2_hat: float


def _ensemble_sums(system: SystemSpec, h, x0s: np.ndarray, n: int, stream, marks=()):
    """Birkhoff sums over an ensemble; optionally record S at given step counts.

    ``x0s`` has shape (..., replicas): leading axes run on the same words.
    Returns (S_final, recorded) where recorded[m] is a copy of S after m terms
    for each m in marks up to n. The k-th term is h at the pre-step position,
    so the initial point contributes the first term.
    """
    x = np.array(x0s, dtype=float)
    s = np.zeros_like(x)
    marks = {int(m) for m in np.asarray(marks).reshape(-1)}
    recorded: dict[int, np.ndarray] = {}
    for k in ensemble_steps(system, stream, n, x.shape[-1], (x,)):
        if k in marks:
            recorded[k] = s.copy()
        if k < n:
            s += np.asarray(h(x), dtype=float)
    return s, recorded


def slln_check(
    system: SystemSpec,
    h,
    x0,
    n: int,
    seed: int = 0,
) -> SllnResult:
    """Track |S_m/m - nu_hat| along one orbit at 24 geometric checkpoints from 10 to n.

    nu_hat comes from estimate_stationary on its own derived stream; the
    verdict asks the final gap to be below 3 sqrt(sigma2_hat / n + se_nu^2),
    where sigma2_hat comes from a small estimate_sigma2 run started from the
    first 100k atoms of the occupation orbit, and se_nu is the batch-means
    standard error of nu_hat over that orbit.
    Without the se_nu term the band would be tighter than the noise of the
    very plug-in it centers on.
    """
    if n < 10:
        raise ArgumentError(f"n: must be at least 10, the first checkpoint, got {n}")
    checkpoints = np.unique(np.geomspace(10, n, 24).astype(np.int64))
    stat = estimate_stationary(system, burn_in=1000, samples=200_000, seed=seed)
    nu_hat = stat.mean_of(h)
    vals = np.asarray(h(stat.atoms), dtype=float)
    nb = 32
    bm = vals[: vals.size - vals.size % nb].reshape(nb, -1).mean(axis=1)
    se_nu = float(bm.std(ddof=1) / math.sqrt(nb))
    # the orbit's head is bit for bit the stationary estimate estimate_sigma2 would draw
    head = EmpiricalMeasure(stat.atoms[:_SIGMA_STATIONARY], None, system.space)
    sigma2_hat = _sigma2_from(system, h, head, n=4096, replicas=64, seed=seed).sigma2
    stream = system.word_stream(seed, _SLLN_BASE)
    n_top = int(checkpoints.max())
    # single orbit: cheaper and exact to run scalar, then one vectorized pass
    points = iterate(system, float(x0), stream, n_top - 1)
    cum = np.cumsum(np.asarray(h(points), dtype=float))
    means = cum[checkpoints - 1] / checkpoints
    gaps = np.abs(means - nu_hat)
    threshold = 3.0 * math.sqrt(max(sigma2_hat, 0.0) / n + se_nu**2) + 1e-12
    return SllnResult(
        checkpoints, means, gaps, nu_hat, sigma2_hat, threshold, bool(gaps[-1] < threshold)
    )


def estimate_sigma2(
    system: SystemSpec,
    h,
    n: int,
    replicas: int,
    seed: int = 0,
) -> Sigma2Estimate:
    """Estimate the limit variance sigma2(h) = lim Var(S_n)/n.

    Initial points are resampled from an estimated stationary measure;
    sigma2 = mean over replicas of (S_n - n nu_hat)^2 / n with nu_hat the
    replica grand mean of S_n/n (a plug-in whose error shrinks at
    1/sqrt(replicas * n), which keeps the bias term n*(nu_hat - nu)^2
    negligible). A 16-batch batch-means estimate cross-checks the value;
    disagreement beyond 3 combined standard errors sets ``flagged``.
    """
    if replicas < 30:
        raise ArgumentError(f"replicas: must be at least 30, got {replicas}")
    if n < 64:
        raise ArgumentError(f"n: must be at least 64 for a variance estimate, got {n}")
    stat = estimate_stationary(system, burn_in=1000, samples=_SIGMA_STATIONARY, seed=seed)
    return _sigma2_from(system, h, stat, n, replicas, seed)


def _sigma2_from(system: SystemSpec, h, stat: EmpiricalMeasure, n: int, replicas: int, seed: int) -> Sigma2Estimate:
    """estimate_sigma2 from a given stationary estimate ``stat``."""
    x0s = resample(stat, replicas, seed=seed).atoms
    stream = system.word_stream(seed, _SIGMA_BASE)
    ell = n // 16
    marks = [j * ell for j in range(1, 17)]
    s, recorded = _ensemble_sums(system, h, x0s, n, stream, marks)
    nu_hat = float(s.mean() / n)
    devs = (s - n * nu_hat) ** 2 / n
    sigma2 = float(devs.mean())
    stderr = float(devs.std(ddof=1) / math.sqrt(replicas))
    stacked = np.stack([recorded[m] for m in marks])
    batches = np.diff(stacked, axis=0, prepend=0.0)
    bdevs = (batches - ell * nu_hat) ** 2 / ell
    batch_sigma2 = float(bdevs.mean())
    batch_stderr = float(bdevs.std(ddof=1) / math.sqrt(bdevs.size))
    flagged = abs(sigma2 - batch_sigma2) > 3.0 * math.sqrt(stderr**2 + batch_stderr**2)
    return Sigma2Estimate(sigma2, stderr, nu_hat, batch_sigma2, batch_stderr, bool(flagged))


def clt_test(
    system: SystemSpec,
    h,
    x0,
    n: int,
    replicas: int,
    seed: int = 0,
) -> CltResult | tuple[CltResult, ...]:
    """Kolmogorov-Smirnov normality check of quenched normalized sums.

    All replicas start at the same x0. Normalization uses the self-consistent
    plug-ins nu_hat = grand mean of S_n/n and sigma2_hat = replica variance of
    S_n/sqrt(n); the pass threshold 1.63/sqrt(replicas) + 0.01 budgets the
    plug-in error. A variance below 1e-12 routes to the degenerate verdict,
    which passes only when every normalized sum is numerically zero.

    ``x0`` is one real, or a non-empty 1-D sequence of reals: then every start
    runs on the same words (those of a call with one start) in one pass, and
    the result is a tuple with one CltResult per start.
    """
    if replicas < 100:
        raise ArgumentError(f"replicas: must be at least 100, got {replicas}")
    try:
        starts = _finite_array("x0", x0)
    except ValueError:
        starts = None
    if starts is None or starts.ndim > 1 or starts.size == 0:
        raise ArgumentError("x0: expected a finite real or a non-empty 1-D sequence of finite reals")
    stream = system.word_stream(seed, _CLT_BASE)
    x0s = np.broadcast_to(starts.reshape(-1, 1), (starts.size, replicas))
    sums, _ = _ensemble_sums(system, h, x0s, n, stream)
    results = tuple(_clt_result(s, n, replicas) for s in sums)
    return results[0] if starts.ndim == 0 else results


def _clt_result(s: np.ndarray, n: int, replicas: int) -> CltResult:
    """clt_test's verdict on the replica sums ``s`` of one start."""
    nu_hat = float(s.mean() / n)
    sigma2_hat = float(s.var(ddof=1) / n)
    threshold = 1.63 / math.sqrt(replicas) + 0.01
    if sigma2_hat < 1e-12:
        resid = np.max(np.abs(s / n - nu_hat))
        passed = bool(resid <= 1e-9 * max(1.0, abs(nu_hat)))
        return CltResult(0.0, threshold, passed, "degenerate_normal", nu_hat, sigma2_hat)
    z = np.sort((s - n * nu_hat) / math.sqrt(n * sigma2_hat))
    cdf = ndtr(z)
    grid = np.arange(replicas + 1) / replicas
    ks = float(max(np.max(cdf - grid[:-1]), np.max(grid[1:] - cdf)))
    return CltResult(ks, threshold, bool(ks < threshold), "normal", nu_hat, sigma2_hat)


def lil_statistic(
    system: SystemSpec,
    h,
    x0,
    n_max: int,
    seed: int = 0,
    replicas: int = 256,
) -> LilResult:
    """Running-max LIL statistic per replica, with its median verdict.

    stat = max over geometric checkpoints n of
    |S_n - n nu_hat| / sqrt(2 n log log n * sigma2_hat), using the same
    self-consistent plug-ins as clt_test. The verdict asks the replica median
    to land in [0.5, 1.5].
    """
    if n_max < LIL_MIN_N:
        raise ArgumentError(f"n_max: must be at least {LIL_MIN_N}, got {n_max}")
    checkpoints = np.unique(np.geomspace(100, n_max, 48).astype(np.int64))
    stream = system.word_stream(seed, _LIL_BASE)
    x0s = np.full(replicas, float(x0))
    s, recorded = _ensemble_sums(system, h, x0s, n_max, stream, checkpoints)
    nu_hat = float(s.mean() / n_max)
    sigma2_hat = float(s.var(ddof=1) / n_max)
    if sigma2_hat < 1e-12:
        raise RefusalError("lil_statistic is undefined for a degenerate variance")
    stats = np.zeros(replicas)
    for m in checkpoints:
        denom = math.sqrt(2.0 * m * math.log(math.log(m)) * sigma2_hat)
        vals = np.abs(recorded[int(m)] - m * nu_hat) / denom
        np.maximum(stats, vals, out=stats)
    med = float(np.median(stats))
    return LilResult(stats, med, bool(0.5 <= med <= 1.5), checkpoints, nu_hat, sigma2_hat)
