"""Empirical measures: W1 oracles, stationary sampler, atom diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from rdsw.cocycles import cocycle_gallery, projective_system
from rdsw.gallery import gallery
from rdsw.geometry import CIRCLE, INTERVAL
from rdsw.measures import (
    MAX_SHARDS,
    EmpiricalMeasure,
    atom_diagnostic,
    estimate_stationary,
    resample,
    uniform_grid,
    wasserstein1,
)
from rdsw.systems import AffineMap, SystemSpec
from rdsw.util import ArgumentError


def test_w1_hand_oracles():
    a = EmpiricalMeasure([0.2], space=INTERVAL)
    b = EmpiricalMeasure([0.7], space=INTERVAL)
    assert wasserstein1(a, b) == pytest.approx(0.5, abs=1e-15)
    # two point masses vs their average position
    c = EmpiricalMeasure([0.0, 1.0], space=INTERVAL)
    d = EmpiricalMeasure([0.5], space=INTERVAL)
    assert wasserstein1(c, d) == pytest.approx(0.5, abs=1e-15)
    assert wasserstein1(c, c) == 0.0


def test_w1_shifted_uniform_grids():
    # shifting every atom by delta moves W1 by exactly delta
    g = uniform_grid(256, INTERVAL)
    shifted = EmpiricalMeasure(np.clip(g.atoms + 0.003, 0.0, 1.0), g.weights, INTERVAL)
    w = wasserstein1(g, shifted)
    print(f"W1 of 0.003-shifted grid: {w}")
    assert w == pytest.approx(0.003, rel=0.02)


def test_w1_circle_wraparound():
    a = EmpiricalMeasure([0.02], space=CIRCLE)
    b = EmpiricalMeasure([0.98], space=CIRCLE)
    assert wasserstein1(a, b) == pytest.approx(0.04, abs=1e-12), "circle W1 must use arc distance"


def test_uniform_grid_und_weights():
    g = uniform_grid(8, INTERVAL)
    assert np.allclose(g.atoms, (np.arange(8) + 0.5) / 8)
    assert np.allclose(g.weights, 1 / 8)
    with pytest.raises(ValueError):
        uniform_grid(0)


def test_estimate_stationary_binary_affine_close_to_lebesgue():
    sys = gallery("binary_affine")
    m = estimate_stationary(sys, burn_in=500, samples=200_000, seed=3)
    w = wasserstein1(m, uniform_grid(1 << 13, INTERVAL))
    print(f"W1(occupation, Lebesgue) = {w:.2e} at 2e5 samples")
    assert w < 0.01, f"binary affine stationary measure should be Lebesgue, W1 = {w}"


def test_estimate_stationary_shards_are_bit_exact_and_thread_invariant():
    sys = gallery("binary_affine")
    base = estimate_stationary(sys, burn_in=200, samples=40_000, seed=9, shards=4, threads=1)
    pooled = estimate_stationary(sys, burn_in=200, samples=40_000, seed=9, shards=4, threads=4)
    assert np.array_equal(base.atoms, pooled.atoms), "thread count changed sharded atoms"
    single = estimate_stationary(sys, burn_in=200, samples=40_000, seed=9, shards=1)
    assert not np.array_equal(base.atoms, single.atoms), "shard split should change the stream layout"


def test_estimate_stationary_shards_keep_their_stream_ids():
    """Shard j draws stream (1 << 16) + j: one shard more would draw the resampling stream 2 << 16."""
    assert MAX_SHARDS == 1 << 16
    with pytest.raises(ArgumentError, match=r"^shards: must lie in \[1, MAX_SHARDS = 65536\], got 65537"):
        estimate_stationary(gallery("binary_affine"), burn_in=0, samples=1 << 17, shards=MAX_SHARDS + 1)


def test_estimate_stationary_rejects_zero_projective_start():
    sys = projective_system(cocycle_gallery("diag_rot"))
    with pytest.raises(ValueError, match="zero vector"):
        estimate_stationary(sys, burn_in=10, samples=100, x0=[0.0, 0.0])
    m = estimate_stationary(sys, burn_in=10, samples=100, x0=[3.0, 4.0])
    assert m.atoms.shape == (100, 2)
    assert np.allclose(np.linalg.norm(m.atoms, axis=1), 1.0)


def test_resample_reproducible():
    g = uniform_grid(64, INTERVAL)
    r1 = resample(g, 500, seed=5)
    r2 = resample(g, 500, seed=5)
    assert np.array_equal(r1.atoms, r2.atoms)
    assert r1.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_atom_diagnostic_dirac_verdict():
    # both maps fix 0, so the only stationary measure is the Dirac there
    sys = SystemSpec([AffineMap(0.5, 0.0), AffineMap(0.25, 0.0)], (0.5, 0.5), name="pin0")
    m = estimate_stationary(sys, burn_in=200, samples=20_000, seed=1)
    d = atom_diagnostic(sys, m)
    print(f"pin0 verdict: {d.verdict}, fixed points {d.common_fixed_points}, mass {d.max_ball_mass:.4f}")
    assert d.verdict == "dirac_at_common_fixed_point"
    assert any(abs(x) < 1e-6 for x in d.common_fixed_points)


def test_atom_diagnostic_nonatomic_verdict():
    sys = gallery("binary_affine")
    m = estimate_stationary(sys, burn_in=500, samples=50_000, seed=2)
    d = atom_diagnostic(sys, m)
    print(f"binary verdict: {d.verdict}, max ball mass {d.max_ball_mass:.5f} vs {d.ball_threshold:.5f}")
    assert d.verdict == "nonatomic_consistent"
    assert d.common_fixed_points == ()


def test_atom_diagnostic_inconclusive_on_tiny_samples():
    sys = gallery("binary_affine")
    m = estimate_stationary(sys, burn_in=50, samples=500, seed=4)
    d = atom_diagnostic(sys, m)
    assert d.verdict == "inconclusive", "500 atoms cannot support the binomial ball test"


def test_measure_validation():
    with pytest.raises(ValueError, match="at least one atom"):
        EmpiricalMeasure(np.empty(0), space=INTERVAL)
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.5, 0.5], [0.7, 0.1], INTERVAL)  # weights sum != 1
    with pytest.raises(ValueError, match="different spaces"):
        wasserstein1(uniform_grid(4, INTERVAL), uniform_grid(4, CIRCLE))
