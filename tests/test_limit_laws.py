"""Quenched limit theorems on the binary affine benchmark."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from rdsw.gallery import gallery
from rdsw.geometry import CIRCLE, INTERVAL
from rdsw.limit_laws import (
    Observable,
    clt_test,
    estimate_sigma2,
    lil_statistic,
    observable,
    slln_check,
)
from rdsw.util import ArgumentError


def test_observable_factory_and_call():
    h = observable("coordinate", INTERVAL)
    assert h.holder_alpha == 1.0 and h.holder_const == 1.0
    assert np.allclose(h(np.array([0.0, 0.3, 1.0])), [0.0, 0.3, 1.0])
    g = observable("cos2pi", CIRCLE)
    assert g(np.array([0.0]))[0] == 1.0


def test_observable_spot_check_rejects_false_declaration():
    # cos(2 pi x) has Lipschitz constant 2 pi; claiming 1 must fail the probe
    with pytest.raises(ValueError, match="Holder pair fails"):
        Observable("cos2pi", CIRCLE, holder_alpha=1.0, holder_const=1.0)


def test_observable_validation():
    with pytest.raises(ValueError, match="both holder_alpha"):
        Observable("coordinate", INTERVAL, holder_alpha=1.0)
    with pytest.raises(ValueError, match="unknown observable"):
        Observable("entropy", INTERVAL)
    with pytest.raises(ValueError, match="no canonical instance"):
        observable("entropy", INTERVAL)


def test_custom_tabulated_observable():
    h = Observable("custom_tabulated", INTERVAL, nodes=(0.0, 0.5, 1.0), values=(0.0, 1.0, 0.0))
    assert h(np.array([0.25]))[0] == pytest.approx(0.5)


def test_slln_gaps_shrink_and_verdict_holds():
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    r = slln_check(sys, h, 0.1, 200_000, seed=6)
    print(f"nu_hat = {r.nu_hat:.5f}; final gap {r.gaps[-1]:.2e} at threshold {r.threshold:.2e}")
    assert r.verdict, "binary affine Birkhoff means must settle at the mean"
    assert abs(r.means[-1] - 0.5) < 0.01
    # gaps at the late checkpoints sit well below the early ones
    assert r.gaps[-1] < max(r.gaps[:5])


def test_sigma2_quarter_for_coordinate():
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    est = estimate_sigma2(sys, h, n=2000, replicas=4000, seed=8)
    print(f"sigma2 = {est.sigma2:.4f} +/- {est.stderr:.4f} (batch {est.batch_sigma2:.4f})")
    assert est.sigma2 == pytest.approx(0.25, abs=0.03)
    assert not est.flagged, "direct and batch-means estimates should agree"


def test_clt_normal_at_two_starts():
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    for x0 in (0.0, 0.97):
        r = clt_test(sys, h, x0, n=4000, replicas=4000, seed=9)
        print(f"x0={x0}: KS = {r.ks_stat:.4f} vs threshold {r.threshold:.4f} -> {r.verdict}")
        assert r.passed, f"KS {r.ks_stat} at x0={x0} exceeded {r.threshold}"
        assert r.verdict == "normal"


def _bits(result) -> list:
    """A result's fields, each float as its uint64 bit pattern."""
    return [np.float64(v).view(np.uint64) if isinstance(v, float) else v for v in dataclasses.astuple(result)]


@pytest.mark.parametrize("name, kind, space", [("binary_affine", "coordinate", INTERVAL), ("anton", "cos2pi", CIRCLE)])
def test_clt_starts_share_words_with_separate_calls(name, kind, space):
    """Several starts in one pass equal one call per start, field for field."""
    sys = gallery(name)
    h = observable(kind, space)
    starts = (0.0, 0.25, 0.97)
    together = clt_test(sys, h, starts, n=300, replicas=200, seed=3)
    assert isinstance(together, tuple) and len(together) == len(starts)
    for x0, r in zip(starts, together):
        alone = clt_test(sys, h, x0, n=300, replicas=200, seed=3)
        assert _bits(r) == _bits(alone), x0
    assert _bits(clt_test(sys, h, np.array([0.97]), n=300, replicas=200, seed=3)[0]) == _bits(together[2])


@pytest.mark.parametrize(
    "x0",
    [(), np.array([]), np.zeros((2, 2)), [[0.1], [0.2]], True, [0.1, True], [0.1, float("nan")], float("inf"), "0.5"],
    ids=["empty-tuple", "empty-array", "2d-array", "nested-list", "bool", "bool-entry", "nan-entry", "inf", "string"],
)
def test_clt_starts_are_validated(x0):
    sys = gallery("binary_affine")
    with pytest.raises(ArgumentError, match=r"^x0: "):
        clt_test(sys, observable("coordinate", INTERVAL), x0, n=10, replicas=100)


def test_lil_median_in_band():
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    r = lil_statistic(sys, h, 0.5, n_max=100_000, seed=10, replicas=128)
    print(f"LIL median {r.median:.4f} over {len(r.stats)} replicas")
    assert r.verdict
    assert 0.5 <= r.median <= 1.5


def test_limit_results_are_reproducible():
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    a = estimate_sigma2(sys, h, n=500, replicas=500, seed=12)
    b = estimate_sigma2(sys, h, n=500, replicas=500, seed=12)
    assert a.sigma2 == b.sigma2 and a.nu_hat == b.nu_hat
