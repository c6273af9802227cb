"""Synchronization diagnostics: paired orbits, decay-rate fits, averaged
sync sums, local contraction probes, and proximality scans.

Everything is driven by seeded WordStreams, so every number here is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CIRCLE, INTERVAL, PROJECTIVE, distance
from .systems import SystemSpec, WordStream, _resolve_word, _start_state, ensemble_apply_many, ensemble_steps, iterate
from .util import ArgumentError, RefusalError, linear_fit

__all__ = [
    "SYNC_STREAM",
    "SyncTrace",
    "RateFit",
    "AverageSyncResult",
    "ProximalityVerdict",
    "paired_orbit",
    "fit_sync_rate",
    "average_sync_sum",
    "local_contraction_probe",
    "proximality_probe",
]

DISTANCE_FLOOR = 1e-14
# the fewest distances at or above the floor that fit_sync_rate fits a rate to
RATE_FIT_POINTS = 8

# stream id of the word behind a sync-rate trace; average_sync_sum draws its
# words from the same id, and giving it its own would change its bytes
SYNC_STREAM = 3 << 16
_LCP_BASE = (3 << 16) | 1
_PROX_BASE = (3 << 16) | 4


@dataclass(frozen=True)
class SyncTrace:
    """Distances along one paired orbit, k = 0..n, plus word metadata."""

    distances: np.ndarray
    x: object
    y: object
    seed: int | None
    stream_id: int | None


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential rate of a distance trace.

    rate is the slope of log d_k against k over the entries at or above the
    numeric floor 1e-14; censored_at is the first index below the floor, if
    any. r2 is 1.0 for a perfect fit (constant traces included).
    """

    rate: float
    intercept: float
    r2: float
    censored_at: int | None


@dataclass(frozen=True)
class AverageSyncResult:
    """Partial sums sum_{m<=k} E-hat[d^alpha at step m] and a boundedness call."""

    partial_sums: np.ndarray
    alpha: float
    bounded: bool
    tail_fraction: float


@dataclass(frozen=True)
class ProximalityVerdict:
    x: float
    y: float
    min_distance: float
    verdict: str


def paired_orbit(system: SystemSpec, x, y, word, n: int) -> SyncTrace:
    """Distances between two orbits driven by one shared word.

    Exchanging x and y returns bit-identical distances: every step and the
    distance formula are symmetric in the two states.
    """
    symbols = _resolve_word(system, word, n)
    seed = word.seed if isinstance(word, WordStream) else None
    sid = word.stream_id if isinstance(word, WordStream) else None
    xs = iterate(system, x, symbols, n)
    ys = iterate(system, y, symbols, n)
    return SyncTrace(distance(system.space, xs, ys), x, y, seed, sid)


def fit_sync_rate(trace: SyncTrace) -> RateFit:
    """Exponential decay rate of a distance trace by least squares on log d.

    Entries below ``DISTANCE_FLOOR`` are censored; fewer than
    ``RATE_FIT_POINTS`` usable entries is a refusal rather than a fit.
    """
    d = np.asarray(trace.distances, dtype=float)
    usable = d >= DISTANCE_FLOOR
    below = np.nonzero(~usable)[0]
    censored_at = int(below[0]) if below.size else None
    ks = np.nonzero(usable)[0]
    if ks.size < RATE_FIT_POINTS:
        raise RefusalError(
            f"only {ks.size} distances at or above the floor {DISTANCE_FLOOR:g}; "
            f"need at least {RATE_FIT_POINTS} for a rate fit"
        )
    slope, intercept, r2 = linear_fit(ks.astype(float), np.log(d[ks]))
    return RateFit(slope, intercept, r2, censored_at)


def average_sync_sum(
    system: SystemSpec,
    x,
    y,
    alpha: float,
    n: int,
    replicas: int,
    seed: int = 0,
) -> AverageSyncResult:
    """Partial sums of E-hat[d^alpha(X_k^x, X_k^y)] over k = 0..n.

    The expectation is over ``replicas`` independent words (one shared stream,
    so the result is reproducible). Boundedness verdict: the last decile of
    steps contributes under 1% of the total.
    """
    if replicas < 100:
        raise ArgumentError(f"replicas: must be at least 100, got {replicas}")
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha: must lie in (0, 1], got {alpha}")
    stream = system.word_stream(seed, SYNC_STREAM)
    a0 = _start_state(system, x)
    b0 = _start_state(system, y)
    av = np.full((replicas, *np.shape(a0)), a0)
    bv = np.full((replicas, *np.shape(b0)), b0)
    means = np.empty(n + 1)
    means[0] = distance(system.space, a0, b0) ** alpha
    for k in ensemble_steps(system, stream, n, replicas, (av, bv)):
        if k:
            means[k] = float(np.mean(distance(system.space, av, bv) ** alpha))
    sums = np.cumsum(means)
    m0 = int(math.floor(0.9 * n))
    total = float(sums[-1])
    tail = float(sums[-1] - sums[m0])
    frac = tail / total if total > 0.0 else 0.0
    return AverageSyncResult(sums, float(alpha), frac < 0.01, frac)


def local_contraction_probe(
    system: SystemSpec,
    x,
    radius: float,
    n: int,
    replicas: int,
    q_target: float,
    seed: int = 0,
) -> float:
    """Fraction of words along which the ball B(x, radius) stays q-contracted.

    A word succeeds when diam(f_word^k(B)) <= q_target^k for every k <= n.
    On the interval and circle the ball is an arc and monotonicity makes the
    two endpoints exact; on projective space the ball is tracked through a
    64-direction sample, whose diameter is the largest ``distance`` between
    two of its directions (``_cloud_diameter``).
    """
    if not math.isfinite(radius) or radius <= 0.0:
        raise ArgumentError(f"radius: must be a positive finite real, got {radius!r}")
    if not math.isfinite(q_target) or q_target <= 0.0:
        raise ArgumentError(f"q_target: must be a positive finite real, got {q_target!r}")
    if n < 1:
        raise ArgumentError(f"n: must be positive, got {n!r}")
    if replicas < 1:
        raise ArgumentError(f"replicas: must be positive, got {replicas!r}")
    stream = system.word_stream(seed, _LCP_BASE)
    qk = q_target ** np.arange(1, n + 1)
    ok = np.ones(replicas, dtype=bool)
    if system.space == PROJECTIVE:
        cloud = _projective_ball(system, x, radius, 64)
        flat = np.tile(cloud, (replicas, 1))
        for step, row in enumerate(stream.rows(n, replicas)):
            ensemble_apply_many(system, (flat,), np.repeat(row, cloud.shape[0]))
            ok &= _cloud_diameter(flat.reshape(replicas, cloud.shape[0], -1)) <= qk[step]
        return float(np.mean(ok))
    xf = float(x)
    circle = system.space == CIRCLE
    if circle:
        lo = np.full(replicas, (xf - radius) % 1.0)
        hi = np.full(replicas, (xf + radius) % 1.0)
    else:
        lo = np.full(replicas, max(0.0, xf - radius))
        hi = np.full(replicas, min(1.0, xf + radius))
    for k in ensemble_steps(system, stream, n, replicas, (lo, hi)):
        if k:
            diam = np.minimum((hi - lo) % 1.0, 0.5) if circle else distance(INTERVAL, lo, hi)
            ok &= diam <= qk[k - 1]
    return float(np.mean(ok))


def _cloud_diameter(pts: np.ndarray) -> np.ndarray:
    """Per replica, the largest ``distance`` between two rows of ``pts`` (replicas, count, d).

    Sweeps the rows k of the cloud: row k's distances to rows k+1..count-1
    reduce into a running maximum, so a step holds O(replicas * count)
    distances, not all replicas * count^2 pairs. ``distance`` is symmetric bit
    for bit and 0 on the diagonal, so this is the all-pairs maximum bit for bit.
    """
    q = np.ascontiguousarray(pts.transpose(1, 0, 2))
    diam = np.zeros(q.shape[1])
    for k in range(q.shape[0] - 1):
        np.maximum(diam, distance(PROJECTIVE, q[k], q[k + 1 :]).max(axis=0), out=diam)
    return diam


def _projective_ball(system: SystemSpec, x, radius: float, count: int) -> np.ndarray:
    center = _start_state(system, x)
    d = center.size
    phi_max = math.asin(min(1.0, radius))
    ts = np.linspace(-1.0, 1.0, count)
    if d == 2:
        tangent = np.array([-center[1], center[0]])
        ang = phi_max * ts
        return np.cos(ang)[:, None] * center + np.sin(ang)[:, None] * tangent
    # deterministic tangent fan from a fixed auxiliary stream
    aux = WordStream(0xD1AE, _LCP_BASE, (1.0,))
    raw = aux.uniforms(count * d).reshape(count, d) - 0.5
    raw -= np.outer(raw @ center, center)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    tang = raw / norms
    ang = phi_max * np.abs(ts)
    pts = np.cos(ang)[:, None] * center + np.sin(ang)[:, None] * tang
    pts[0] = center
    return pts


def proximality_probe(
    system: SystemSpec,
    pair_grid,
    horizon: int,
    replicas: int,
    tol: float,
    seed: int = 0,
) -> list[ProximalityVerdict]:
    """Scan pairs for evidence of approach below ``tol`` along random words.

    Per pair: the minimum distance over all replicas and steps 1..horizon.
    Verdict "proximal_evidence" when that minimum dips to tol or below, else
    "no_approach_below".
    """
    pair_grid = [(float(a), float(b)) for a, b in pair_grid]
    p = len(pair_grid)
    if p == 0:
        raise ValueError("pair_grid must not be empty")
    xs = np.repeat(np.array([a for a, _ in pair_grid]), replicas)
    ys = np.repeat(np.array([b for _, b in pair_grid]), replicas)
    best = np.full(p * replicas, np.inf)
    stream = system.word_stream(seed, _PROX_BASE)
    for k in ensemble_steps(system, stream, horizon, p * replicas, (xs, ys)):
        if k:
            np.minimum(best, distance(system.space, xs, ys), out=best)
    mins = best.reshape(p, replicas).min(axis=1)
    out = []
    for (a, b), mn in zip(pair_grid, mins):
        verdict = "proximal_evidence" if mn <= tol else "no_approach_below"
        out.append(ProximalityVerdict(a, b, float(mn), verdict))
    return out
