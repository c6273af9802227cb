"""Fiber exponents, large-deviation tables, and distortion diagnostics.

The slope_pair system makes the whole LD pipeline exactly checkable: the
n-step derivative statistic depends only on the count of steep steps, so
deviation probabilities are binomial tail sums of dyadic word weights and
must come out bit-identical to the combinatorial values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from rdsw.gallery import gallery
from rdsw.lyapunov import (
    DEFAULT_HORIZONS,
    distortion_report,
    estimate_gamma,
    ld_curve,
    sync_ld_curve,
)
from rdsw.systems import WORD_BUDGET

LOG2 = math.log(2.0)


def test_gamma_binary_exact():
    sys = gallery("binary_affine")
    g = estimate_gamma(sys, n=400, replicas=32, seed=1)
    print(f"gamma_hat = {g.gamma_hat!r}, one-step = {g.one_step!r}")
    assert abs(g.gamma_hat + LOG2) < 1e-12, "every word has log-derivative exactly -log 2 per step"
    assert abs(g.one_step + LOG2) < 1e-12
    assert g.consistent


def test_gamma_slope_pair_matches_closed_form():
    sys = gallery("slope_pair")
    g = estimate_gamma(sys, n=1500, replicas=128, x0=0.2, seed=2)
    target = -1.5 * LOG2
    print(f"gamma_hat = {g.gamma_hat:.6f} vs -1.5 log 2 = {target:.6f} (se {g.stderr:.2e})")
    assert abs(g.gamma_hat - target) < 0.01
    assert g.consistent, "ensemble and stationary one-step estimates should agree"


def test_ld_probabilities_are_exact_binomial_tails():
    sys = gallery("slope_pair")
    gm = -1.5 * LOG2
    eps = 0.2
    curve = ld_curve(sys, x0=0.2, epsilons=[eps], horizons=(16,), gamma_hat=gm, seed=0)
    assert bool(curve.exact[0]), "2^16 words sit inside the exact budget"
    # deviation of the n-step statistic is log2 * |c - 8| / 16 for c steep steps
    ks = np.arange(17)
    dev = LOG2 * np.abs(ks - 8) / 16.0
    count = sum(math.comb(16, int(k)) for k in ks[dev > eps])
    expected = count / 65536.0
    print(f"exact tail: {count}/65536 = {expected!r}, curve prob = {curve.probs[0, 0]!r}")
    assert curve.probs[0, 0] == expected, "dyadic weights must reproduce the binomial tail exactly"
    assert curve.ci_low[0, 0] == curve.probs[0, 0] == curve.ci_high[0, 0]


def test_ld_exact_cells_equal_the_binomial_closed_form():
    """Every exact cell of the ``ld-exact-handoff`` curve (horizons 8..20 x ten
    epsilons) is the binomial tail summed as Fractions and rounded once: a word
    with k shallow (slope 1/2) and n - k steep (slope 1/4) steps has the
    statistic -(k + 2(n - k)) log 2 / n and the weight 2^-n."""
    sys = gallery("slope_pair")
    gm = estimate_gamma(sys, n=2048, replicas=64, x0=0.2, seed=0).gamma_hat
    curve = ld_curve(sys, x0=0.2, gamma_hat=gm, seed=51)
    cells = 0
    for j, n in enumerate(curve.horizons.tolist()):
        if not curve.exact[j]:
            continue
        for i, eps in enumerate(curve.epsilons):
            tail = sum(
                Fraction(math.comb(n, k), 2**n)
                for k in range(n + 1)
                if abs(-(k + 2 * (n - k)) * LOG2 / n - gm) > eps
            )
            assert curve.probs[i, j] == float(tail), f"n = {n}, eps = {eps!r}"
            cells += 1
    assert curve.exact.tolist() == [True, True, True, True, False]
    assert cells == 40


def test_ld_rate_fit_and_default_grid():
    sys = gallery("slope_pair")
    gm = estimate_gamma(sys, n=2048, replicas=64, x0=0.2, seed=0).gamma_hat
    curve = ld_curve(sys, x0=0.2, gamma_hat=gm, seed=3)
    assert curve.horizons.shape[0] == len(DEFAULT_HORIZONS)
    assert curve.probs.shape == (curve.epsilons.size, curve.horizons.size)
    print(f"h_hat = {curve.h_hat:.3f}, r2 = {curve.h_r2:.3f}, exact flags {curve.exact}")
    assert curve.h_hat > 0.0
    assert curve.h_r2 > 0.9
    # probabilities decay along n for each fixed epsilon wherever nonzero
    finite = curve.probs[:, 0] > 0
    assert np.all(curve.probs[finite, 0] >= curve.probs[finite, -1])


def test_ld_epsilon_beyond_max_deviation_gives_inf_rate():
    sys = gallery("slope_pair")
    # the statistic can deviate at most log2/2 = 0.3466; 0.4 is structurally empty
    curve = ld_curve(sys, x0=0.2, epsilons=[0.4], horizons=(8, 12, 16), gamma_hat=-1.5 * LOG2, seed=0)
    assert np.all(curve.probs == 0.0)
    assert np.isinf(curve.fitted_rates[0]), "empty rows report the +inf sentinel"


def test_sync_ld_identity_with_orbit_curve():
    sys = gallery("slope_pair")
    gm = -1.5 * LOG2
    kv = dict(epsilons=[0.1, 0.25], horizons=(8, 12), gamma_hat=gm, seed=4)
    a = ld_curve(sys, x0=0.2, **kv)
    b = sync_ld_curve(sys, 0.2, 0.7, **kv)
    assert np.array_equal(a.probs, b.probs), "pair-distance deviations must match orbit deviations bit for bit"
    assert a.to_csv() == b.to_csv()


def test_sync_ld_rejects_equal_pair():
    sys = gallery("slope_pair")
    with pytest.raises(ValueError):
        sync_ld_curve(sys, 0.3, 0.3, gamma_hat=-1.5 * LOG2)


def test_sync_ld_censoring_flags_and_gamma_gap():
    """slope_pair contracts the pair by 2^-1.5 per step on average, so its
    distance falls under CENSOR_FLOOR = 1e-300 for more and more words past
    n = 30: a horizon is flagged once more than half its words are censored,
    and gamma_gap is read at the largest unflagged horizon, n = 36."""
    curve = sync_ld_curve(
        gallery("slope_pair"), 0.2, 0.7, epsilons=[0.05, 0.2], horizons=[16, 30, 34, 36, 40, 60],
        replicas=4000, seed=0, gamma_hat=-1.5 * LOG2,
    )
    assert curve.exact.tolist() == [True, False, False, False, False, False]
    assert curve.censored_fraction.tolist() == [0.0, 0.0, 0.15225, 0.44775, 0.91875, 1.0]
    assert curve.flagged_horizons.tolist() == (curve.censored_fraction > 0.5).tolist()
    assert curve.flagged_horizons.tolist() == [False, False, False, False, True, True]
    assert curve.gamma_gap == pytest.approx(8.091617105387698, rel=1e-12)
    flagged = sync_ld_curve(
        gallery("binary_affine"), 0.2, 0.7, epsilons=[0.05], horizons=[1100, 1200],
        replicas=200, seed=0, gamma_hat=-LOG2,
    )
    assert flagged.censored_fraction.tolist() == [1.0, 1.0]
    assert flagged.flagged_horizons.all()
    assert math.isnan(flagged.gamma_gap), "no usable horizon leaves no gap to read"


def test_ld_monte_carlo_brackets_and_flags():
    sys = gallery("slope_pair")
    curve = ld_curve(
        sys, x0=0.2, epsilons=[0.15], horizons=(10,), gamma_hat=-1.5 * LOG2,
        replicas=5000, seed=5, exact_budget=1,
    )
    assert not bool(curve.exact[0])
    assert curve.ci_low[0, 0] <= curve.probs[0, 0] <= curve.ci_high[0, 0]
    assert curve.ci_high[0, 0] - curve.ci_low[0, 0] > 0.0, "Monte Carlo cells carry a real interval"


def test_ld_csv_round_trips():
    sys = gallery("slope_pair")
    curve = ld_curve(sys, x0=0.2, epsilons=[0.2], horizons=(8,), gamma_hat=-1.5 * LOG2, seed=0)
    lines = curve.to_csv().strip().splitlines()
    assert lines[0] == "epsilon,n,prob,ci_low,ci_high,fitted_rate"
    eps, n, prob, lo, hi, rate = lines[1].split(",")
    assert float(eps) == curve.epsilons[0]
    assert int(n) == 8
    assert float(prob) == curve.probs[0, 0], "17-digit serialization must round-trip"


def test_distortion_affine_ratios_exactly_one():
    for name in ("binary_affine", "slope_pair"):
        rep = distortion_report(gallery(name), 0.2, 0.7, n=300, replicas=64, seed=6)
        assert np.all(rep.max_ratio_per_n == 1.0), f"{name}: affine derivative ratios must be exactly 1"
        assert np.all(rep.omega_grid == 0.0)
        assert rep.tempered
        assert rep.final_log_mean_ratio_rate == 0.0


def test_distortion_anton_tempered():
    rep = distortion_report(gallery("anton"), 0.1, 0.35, n=300, replicas=64, seed=4)
    print(
        f"anton: final mean ratio {rep.max_ratio_per_n[-1]:.4f}, "
        f"rate {rep.final_log_mean_ratio_rate:.5f}"
    )
    assert rep.max_ratio_per_n[-1] > 1.0, "curved maps should show real distortion"
    assert rep.tempered, "distortion must grow subexponentially"
    assert rep.final_log_mean_ratio_rate < 0.05


def test_ld_curve_reproducible_across_calls():
    sys = gallery("slope_pair")
    kv = dict(epsilons=[0.1], horizons=(21,), gamma_hat=-1.5 * LOG2, replicas=2000, seed=7)
    a = ld_curve(sys, x0=0.2, **kv)
    b = ld_curve(sys, x0=0.2, **kv)
    assert np.array_equal(a.probs, b.probs)
    assert a.to_csv() == b.to_csv()


def test_exact_budget_is_capped_at_the_word_budget():
    sys = gallery("slope_pair")
    kv = dict(epsilons=[0.1], horizons=(4,), gamma_hat=-1.5 * LOG2)
    for curve in (lambda **k: ld_curve(sys, x0=0.2, **k), lambda **k: sync_ld_curve(sys, 0.2, 0.7, **k)):
        with pytest.raises(ValueError, match="exact_budget: at most WORD_BUDGET"):
            curve(exact_budget=WORD_BUDGET + 1, **kv)
        assert curve(exact_budget=WORD_BUDGET, **kv).exact.tolist() == [True]


def test_default_ladder_refuses_a_zero_exponent():
    sys = gallery("two_rotations")
    with pytest.raises(ValueError, match=r"epsilons: .*\|gamma_hat\|, which is 0.0"):
        ld_curve(sys, horizons=(4,), gamma_hat=0.0)
    assert ld_curve(sys, epsilons=[0.1], horizons=(4,), gamma_hat=0.0).probs.tolist() == [[0.0]]


def test_horizons_must_be_positive():
    """A horizon of 0 would divide by zero; a negative one would enumerate no words."""
    sys = gallery("slope_pair")
    for bad in ((0,), (-3, 2), ()):
        with pytest.raises(ValueError, match="horizons: must be a nonempty 1-D list of positive integers"):
            ld_curve(sys, epsilons=[0.1], horizons=bad, gamma_hat=-1.0)
