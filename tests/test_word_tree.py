"""Exact enumeration by word tree against the word matrix, bit for bit.

``word_levels`` expands the prefix tree of all length-n words one level at a
time. The reference is the route it replaced, kept in this file: the
(N^n, n) ``word_matrix``, weights multiplied column by column, and an
N^n-wide ensemble stepped under each column in turn. Floats are compared
through ``uint64`` views, so -0.0, NaN payloads and the last bit all count.
"""

from __future__ import annotations

import numpy as np
import pytest

from rdsw.acceptance import QN_BATTERY, _phi_mix
from rdsw.gallery import gallery, gallery_ids
from rdsw.geometry import distance
from rdsw.lyapunov import CENSOR_FLOOR, _deriv_stat, _sync_stat, ld_curve, sync_ld_curve
from rdsw.operators import qn_identity_test
from rdsw.systems import (
    MoebiusMap,
    PerturbedRotation,
    Rotation,
    SystemSpec,
    ensemble_apply,
    ensemble_apply_many,
    word_levels,
    word_matrix,
)
from scalar_reference import row_apply, row_apply_many

X0 = 0.3
PAIR = (0.2, 0.7)


# two family tables (so each step selects states by group) and non-dyadic
# probabilities (so the order of the weight products shows in the last bit)
MIXED = "mixed-circle"
SYSTEMS = [*gallery_ids(), MIXED]


def _system(name: str) -> SystemSpec:
    if name != MIXED:
        return gallery(name)
    maps = (Rotation(0.1), MoebiusMap(np.array([[1.3, 0.2], [0.1, 0.8]])), PerturbedRotation(0.3, amp=0.05, harmonic=2))
    return SystemSpec(maps, (0.2, 0.3, 0.5), name=MIXED)


def _depth(name: str) -> int:
    return 5 if name == "anton" else 6 if name == MIXED else 8


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def word_weights(system, words: np.ndarray) -> np.ndarray:
    """Probability weight of each row of a word matrix."""
    probs = np.asarray(system.probs, dtype=float)
    w = np.ones(words.shape[0], dtype=float)
    for j in range(words.shape[1]):
        w *= probs[words[:, j].astype(np.int64)]
    return w


def _matrix_route(system, n: int, x0: float, pair: tuple) -> dict:
    """Every word stepped n times from x0 and from the pair, one column per step."""
    words = word_matrix(system, n)
    m = words.shape[0]
    x, ld = np.full(m, x0), np.zeros(m)
    a, b = np.full(m, pair[0]), np.full(m, pair[1])
    d0 = distance(system.space, a, b)
    for k in range(n):
        col = words[:, k].copy()
        row_apply(system, x, col, log_deriv=ld)
        row_apply_many(system, (a, b), col)
    dn = distance(system.space, a, b)
    cens = dn < CENSOR_FLOOR
    sync = (np.log(np.maximum(dn, CENSOR_FLOOR)) - np.log(d0)) / n
    return {"x": x, "ld": ld, "a": a, "b": b, "weights": word_weights(system, words), "deriv": ld / n, "sync": sync, "cens": cens}


def _tree_route(system, n: int, x0: float, pair: tuple) -> dict:
    x, ld, a, b = np.full(1, x0), np.zeros(1), np.full(1, pair[0]), np.full(1, pair[1])
    for srow, weights in word_levels(system, n):
        x, ld, a, b = (np.repeat(v, system.n_maps) for v in (x, ld, a, b))
        ensemble_apply(system, x, srow, log_deriv=ld)
        ensemble_apply_many(system, (a, b), srow)
    deriv, _ = _deriv_stat(system, x0, ((0, srow[None]) for srow, _ in word_levels(system, n)), n)
    sync, cens = _sync_stat(system, *pair, ((0, srow[None]) for srow, _ in word_levels(system, n)), n)
    return {"x": x, "ld": ld, "a": a, "b": b, "weights": weights, "deriv": deriv, "sync": sync, "cens": cens}


def _assert_same(got: dict, want: dict) -> None:
    for key, ref in want.items():
        assert got[key].shape == ref.shape, key
        if ref.dtype == bool:
            assert np.array_equal(got[key], ref), key
        else:
            assert np.array_equal(_bits(got[key]), _bits(ref)), f"{key} differs"


@pytest.mark.parametrize("name", SYSTEMS)
def test_tree_matches_word_matrix_bitwise(name):
    sys, n = _system(name), _depth(name)
    _assert_same(_tree_route(sys, n, X0, PAIR), _matrix_route(sys, n, X0, PAIR))


def test_tree_censor_mask_matches_word_matrix():
    """Pairs 1e-290 apart: words that start with the upper branch merge them
    exactly (censored), words of lower branches only keep halving (not)."""
    sys = gallery("binary_affine")
    want = _matrix_route(sys, 8, X0, (0.0, 1e-290))
    assert 0 < want["cens"].sum() < want["cens"].size, "the mask should be mixed"
    _assert_same(_tree_route(sys, 8, X0, (0.0, 1e-290)), want)


@pytest.mark.parametrize("name", SYSTEMS)
def test_exact_ld_tables_match_word_matrix_sums(name):
    """The exact LD cell is the weight of the deviating words, as before."""
    sys, n = _system(name), _depth(name)
    ref = _matrix_route(sys, n, X0, PAIR)
    eps = np.array([0.01, 0.05, 0.2])
    for curve, stat in (
        (ld_curve(sys, x0=X0, epsilons=eps, horizons=[n], gamma_hat=-0.3), ref["deriv"]),
        (sync_ld_curve(sys, *PAIR, epsilons=eps, horizons=[n], gamma_hat=-0.3), ref["sync"]),
    ):
        assert curve.exact.tolist() == [True]
        want = [float(np.sum(ref["weights"][np.abs(stat + 0.3) > e])) for e in eps]
        assert np.array_equal(_bits(curve.probs[:, 0]), _bits(want))


QN_CASES = (*QN_BATTERY, (MIXED, "mix", _phi_mix, 2, 0.4, 6))


@pytest.mark.parametrize("idx", range(len(QN_CASES)))
def test_qn_kernel_matches_word_matrix(idx):
    name, _, phi, j, x, n = QN_CASES[idx]
    sys = _system(name)
    n = min(n, _depth(name))
    words = word_matrix(sys, n)
    pos = np.full(words.shape[0], float(sys.maps[j](x)))
    for c in range(n - 1):
        row_apply(sys, pos, words[:, c])
    want = float(np.sum(word_weights(sys, words) * np.asarray(phi(words[:, n - 1], pos), dtype=float)))
    got = qn_identity_test(sys, phi, j, x, n, replicas=16, seed=idx).kernel_value
    assert _bits(got) == _bits(want)


def _level_blocks(system, n: int, out: dict):
    """The levels of ``word_levels`` as one-row blocks; ``out["weights"]`` ends
    as the last level's weights."""
    for srow, out["weights"] in word_levels(system, n):
        yield 0, srow[None]


def _distortion_gaps(system, n: int, x: float, y: float):
    """n |sync - deriv| per length-n word (the derivative statistic from x, the
    pair statistic from (x, y)) and the words' weights."""
    out = {}
    deriv, _ = _deriv_stat(system, x, _level_blocks(system, n, out), n)
    sync, _ = _sync_stat(system, x, y, _level_blocks(system, n, {}), n)
    return n * np.abs(sync - deriv), out["weights"]


def _weighted_quantile(values, weights, q: float) -> float:
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, q * cum[-1])])


@pytest.mark.parametrize("n, above3", [(12, 0.0232), (16, 0.0230), (20, 0.0230)])
def test_bounded_distortion_on_moebius_words(n, above3):
    """On the synchronizing moebius_pair the two LD statistics differ by O(1/n)
    off a small set of words: the weighted law of n |sync - deriv| does not
    move with n (its maximum does, on words the pair has not merged along)."""
    gap, w = _distortion_gaps(gallery("moebius_pair"), n, 0.2, 0.7)
    assert _weighted_quantile(gap, w, 0.5) == pytest.approx(0.673, abs=0.001)
    assert _weighted_quantile(gap, w, 0.9) == pytest.approx(1.89, abs=0.001)
    assert _weighted_quantile(gap, w, 0.99) == pytest.approx(3.625, abs=0.01)
    assert float(np.sum(w[gap > 3.0])) == pytest.approx(above3, abs=0.0001)


def test_unbounded_distortion_on_anton_words():
    """On the non-proximal anton the pair never merges: the median of
    n |sync - deriv| grows linearly in n, by 0.44-0.52 per step."""
    sys = gallery("anton")
    medians = [_weighted_quantile(*_distortion_gaps(sys, n, 0.3, 0.8), 0.5) for n in (6, 8, 10, 12)]
    assert medians == pytest.approx([2.95, 3.94, 4.83, 5.85], abs=0.01)
    steps = np.diff(medians) / 2.0
    assert np.all((0.44 < steps) & (steps < 0.52)), steps
