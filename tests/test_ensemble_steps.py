"""The Monte Carlo loops on ``systems.ensemble_steps`` against frozen copies of
the per-row loops they replaced, bit for bit (floats compared as uint64).

Each ``_frozen_*`` function below is the loop as it read before the driver:
one ``stream.rows`` row at a time through ``ensemble_apply`` or
``ensemble_apply_many``. The driver gathers a one-table system's coefficients
once per sub-block of ``systems._GATHER`` symbols, inside symbol blocks of
2^17, so the run lengths here end inside a sub-block and inside a block.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rdsw import lyapunov, synchronization, systems
from rdsw.cocycles import cocycle_gallery, projective_system
from rdsw.gallery import gallery
from rdsw.geometry import CIRCLE, INTERVAL, distance
from rdsw.limit_laws import _ensemble_sums, observable
from rdsw.systems import (
    AffineMap,
    SystemSpec,
    TabulatedMap,
    _start_state,
    ensemble_apply,
    ensemble_apply_many,
    ensemble_steps,
)

_BLOCK = 1 << 17  # uniforms per WordStream.blocks block


def _mixed_interval() -> SystemSpec:
    """Two groups: the affine table and a tabulated map without one."""
    tab = TabulatedMap([0.0, 0.4, 1.0], [0.1, 0.5, 0.9], node_derivs=[0.8, 1.0, 0.7])
    return SystemSpec((AffineMap(0.5, 0.0), tab, AffineMap(0.5, 0.5)), (0.3, 0.3, 0.4), name="mixed_interval")


def _system(name: str) -> SystemSpec:
    return _mixed_interval() if name == "mixed_interval" else gallery(name)


def _same(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _run_lengths(width: int) -> tuple:
    """One length that ends inside the second gather sub-block, one inside the
    second symbol block (and inside a sub-block of it)."""
    per = max(1, systems._GATHER // width)
    rows = max(1, _BLOCK // width)
    return per + per // 2 + 1, rows + per // 2 + 1


# -- frozen per-row loops -----------------------------------------------------


def _frozen_sums(system, h, x0s, n, stream, marks=None):
    replicas = x0s.shape[0]
    x = np.array(x0s, dtype=float)
    s = np.zeros(replicas)
    recorded = {}
    marks = [] if marks is None else sorted(set(int(m) for m in np.asarray(marks).reshape(-1)))
    mark_iter = iter(marks)
    next_mark = next(mark_iter, None)
    terms = 0
    for row in stream.rows(n, replicas):
        s += np.asarray(h(x), dtype=float)
        ensemble_apply(system, x, row)
        terms += 1
        while next_mark is not None and next_mark == terms:
            recorded[terms] = s.copy()
            next_mark = next(mark_iter, None)
    return s, recorded


def _frozen_gamma_ld(system, n, replicas, x0, seed):
    stream = system.word_stream(seed, lyapunov._GAMMA_BASE)
    x = np.full(replicas, float(x0))
    ld = np.zeros(replicas)
    for row in stream.rows(n, replicas):
        ensemble_apply(system, x, row, log_deriv=ld)
    return ld


def _frozen_distortion(system, x, y, n, replicas, seed):
    """distortion_report's (max_ratio_per_n, rate) through its old arc-major loop."""
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
    stream = system.word_stream(seed, lyapunov._DIST_BASE)
    n_arcs = len(grids)
    pts = np.concatenate([np.tile(g, replicas) for g in grids])
    ld = np.zeros_like(pts)
    spreads = np.empty((n_arcs, replicas, n))
    for step, row in enumerate(stream.rows(n, replicas)):
        ensemble_apply(system, pts, np.tile(np.repeat(row, 32), n_arcs), log_deriv=ld)
        shaped = ld.reshape(n_arcs, replicas, 32)
        spreads[:, :, step] = shaped.max(axis=2) - shaped.min(axis=2)
    final = pts.reshape(n_arcs, replicas, 32)
    if circle:
        flen = np.stack([(final[a, :, -1] - final[a, :, 0]) % 1.0 for a in range(n_arcs)])
        pick = np.argmin(flen, axis=0)
        tie = flen[0] == flen[1]
        pick[tie] = int(np.argmin(init_len))
        chosen = spreads[pick, np.arange(replicas), :]
    else:
        chosen = spreads[0]
    mean_ratio = np.exp(chosen).mean(axis=0)
    return mean_ratio, float(math.log(mean_ratio[-1]) / n)


def _frozen_average_sync(system, x, y, alpha, n, replicas, seed):
    stream = system.word_stream(seed, synchronization.SYNC_STREAM)
    a0 = _start_state(system, x)
    b0 = _start_state(system, y)
    av = np.full((replicas, *np.shape(a0)), a0)
    bv = np.full((replicas, *np.shape(b0)), b0)
    means = np.empty(n + 1)
    means[0] = distance(system.space, a0, b0) ** alpha
    for step, row in enumerate(stream.rows(n, replicas), 1):
        ensemble_apply_many(system, (av, bv), row)
        means[step] = float(np.mean(distance(system.space, av, bv) ** alpha))
    return np.cumsum(means)


def _frozen_proximality(system, pair_grid, horizon, replicas, seed):
    xs = np.repeat(np.array([a for a, _ in pair_grid]), replicas)
    ys = np.repeat(np.array([b for _, b in pair_grid]), replicas)
    best = np.full(len(pair_grid) * replicas, np.inf)
    stream = system.word_stream(seed, synchronization._PROX_BASE)
    for row in stream.rows(horizon, len(pair_grid) * replicas):
        ensemble_apply_many(system, (xs, ys), row)
        np.minimum(best, distance(system.space, xs, ys), out=best)
    return best.reshape(len(pair_grid), replicas).min(axis=1)


def _frozen_contraction(system, x, radius, n, replicas, q_target, seed):
    stream = system.word_stream(seed, synchronization._LCP_BASE)
    qk = q_target ** np.arange(1, n + 1)
    ok = np.ones(replicas, dtype=bool)
    xf = float(x)
    circle = system.space == CIRCLE
    if circle:
        lo = np.full(replicas, (xf - radius) % 1.0)
        hi = np.full(replicas, (xf + radius) % 1.0)
    else:
        lo = np.full(replicas, max(0.0, xf - radius))
        hi = np.full(replicas, min(1.0, xf + radius))
    for step, row in enumerate(stream.rows(n, replicas)):
        ensemble_apply_many(system, (lo, hi), row)
        diam = np.minimum((hi - lo) % 1.0, 0.5) if circle else distance(INTERVAL, lo, hi)
        ok &= diam <= qk[step]
    return float(np.mean(ok))


# -- pins ---------------------------------------------------------------------


_SUM_CASES = [
    *(("binary_affine", w, n) for w in (1, 64, 256, 10_000) for n in _run_lengths(w)),
    ("moebius_pair", 256, _run_lengths(256)[1]),
    ("moebius_pair", 10_000, _run_lengths(10_000)[1]),
    ("anton", 64, _run_lengths(64)[0]),
    ("mixed_interval", 64, _run_lengths(64)[0]),
]


@pytest.mark.parametrize("name, width, n", _SUM_CASES)
def test_ensemble_sums_match_frozen_loop(name, width, n):
    """Birkhoff sums with marks, as estimate_sigma2 and lil_statistic run them."""
    sys = _system(name)
    h = observable("cos2pi", sys.space) if sys.space == CIRCLE else observable("coordinate", INTERVAL)
    x0s = np.random.default_rng(width).random(width)
    marks = np.unique(np.linspace(1, n, 7).astype(np.int64))
    got, got_marks = _ensemble_sums(sys, h, x0s, n, sys.word_stream(3, 7), marks)
    want, want_marks = _frozen_sums(sys, h, x0s, n, sys.word_stream(3, 7), marks)
    assert _same(got, want)
    assert sorted(got_marks) == sorted(want_marks) == marks.tolist()
    assert all(_same(got_marks[m], want_marks[m]) for m in want_marks)


@pytest.mark.parametrize("name", ["binary_affine", "anton", "moebius_pair", "mixed_interval"])
@pytest.mark.parametrize("replicas", [1, 64, 10_000])
def test_gamma_log_derivatives_match_frozen_loop(name, replicas):
    sys = _system(name)
    n = _run_lengths(replicas)[1 if replicas > 1 else 0]
    want = _frozen_gamma_ld(sys, n, replicas, 0.4, 6)
    x, ld = np.full(replicas, 0.4), np.zeros(replicas)
    for _ in ensemble_steps(sys, sys.word_stream(6, lyapunov._GAMMA_BASE), n, replicas, (x,), log_deriv=ld):
        pass
    assert _same(ld, want)
    if replicas > 1:
        g = lyapunov.estimate_gamma(sys, n=n, replicas=replicas, x0=0.4, seed=6)
        per = want / n
        assert _same(g.gamma_hat, float(per.mean()))
        assert _same(g.stderr, float(per.std(ddof=1) / math.sqrt(replicas)))


@pytest.mark.parametrize(
    "name, x, y",
    [("anton", 0.2, 0.6), ("moebius_pair", 0.9, 0.1), ("binary_affine", 0.7, 0.2), ("mixed_interval", 0.3, 0.8)],
)
def test_distortion_report_matches_frozen_loop(name, x, y):
    """Two arcs on the circle, one on the interval; the (arcs, 32, replicas)
    layout ends a gather sub-block of 2^14 // 100 rows inside the run."""
    sys = _system(name)
    n, replicas = 300, 100
    got = lyapunov.distortion_report(sys, x, y, n=n, replicas=replicas, seed=7)
    ratio, rate = _frozen_distortion(sys, x, y, n, replicas, 7)
    assert _same(got.max_ratio_per_n, ratio) and _same(got.final_log_mean_ratio_rate, rate)


@pytest.mark.parametrize(
    "name, x, y",
    [
        ("anton", 0.2, 0.7),
        ("moebius_pair", 0.1, 0.6),
        ("binary_affine", 0.0, 1.0),
        ("mixed_interval", 0.1, 0.9),
        ("diag_rot", [1.0, 0.0], [0.0, 1.0]),
        ("single_hyperbolic", [1.0, 0.2], [-0.3, 1.0]),
    ],
)
def test_average_sync_sum_matches_frozen_loop(name, x, y):
    """Circle, interval and projective space (where the driver keeps the per-row call)."""
    sys = projective_system(cocycle_gallery(name)) if isinstance(x, list) else _system(name)
    n, replicas = _run_lengths(256)[0], 256
    got = synchronization.average_sync_sum(sys, x, y, 0.5, n=n, replicas=replicas, seed=8)
    assert _same(got.partial_sums, _frozen_average_sync(sys, x, y, 0.5, n, replicas, 8))


@pytest.mark.parametrize("name", ["anton", "binary_affine", "moebius_pair", "mixed_interval"])
def test_proximality_probe_matches_frozen_loop(name):
    sys = _system(name)
    pairs = [(0.1, 0.9), (0.3, 0.35), (0.5, 0.51)]
    got = synchronization.proximality_probe(sys, pairs, horizon=200, replicas=100, tol=1e-3, seed=9)
    want = _frozen_proximality(sys, pairs, 200, 100, 9)
    assert _same([v.min_distance for v in got], want)


@pytest.mark.parametrize("name", ["anton", "binary_affine", "slope_pair", "moebius_pair", "mixed_interval"])
@pytest.mark.parametrize("replicas", [64, 10_000])
def test_local_contraction_probe_matches_frozen_loop(name, replicas):
    sys = _system(name)
    n = _run_lengths(replicas)[0]
    got = synchronization.local_contraction_probe(sys, 0.4, 0.05, n, replicas, 0.99, seed=10)
    assert _same(got, _frozen_contraction(sys, 0.4, 0.05, n, replicas, 0.99, 10))


def test_leading_axes_share_the_symbol_row():
    """A (starts, replicas) ensemble steps like one run per start on the same words."""
    sys = gallery("anton")
    starts = np.array([0.1, 0.5, 0.9])
    x, ld = np.repeat(starts[:, None], 300, axis=1), np.zeros((3, 300))
    seen = list(ensemble_steps(sys, sys.word_stream(4), 40, 300, (x,), log_deriv=ld))
    assert seen == list(range(41)), "one yield before each step and one after the last"
    for i, x0 in enumerate(starts):
        xi, ldi = np.full(300, x0), np.zeros(300)
        for row in sys.word_stream(4).rows(40, 300):
            ensemble_apply(sys, xi, row, log_deriv=ldi)
        assert _same(x[i], xi) and _same(ld[i], ldi)
