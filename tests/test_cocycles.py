"""Matrix cocycles: products, exponent spectra, guards, projective action."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rdsw.cocycles import (
    _SPECTRUM_BASE,
    QR_BLOCK,
    CocycleSpec,
    _reorth,
    cocycle_gallery,
    cocycle_gallery_ids,
    estimate_spectrum,
    projective_system,
    verify_lc_rate,
)
from rdsw.geometry import PROJECTIVE
from rdsw.systems import ProjectiveMap
from rdsw.util import OverflowGuardError, RefusalError

LOG2 = math.log(2.0)


def test_cocycle_validation():
    with pytest.raises(ValueError, match="square"):
        CocycleSpec([np.ones((2, 3))], (1.0,))
    with pytest.raises(ValueError, match="invertible"):
        CocycleSpec([np.zeros((2, 2))], (1.0,))
    with pytest.raises(ValueError, match="one probability per matrix"):
        CocycleSpec([np.eye(2), 2 * np.eye(2)], (0.7,))
    with pytest.raises(ValueError):
        CocycleSpec([np.eye(9)], (1.0,))  # dimension cap


def test_spectrum_single_diagonal_matrix_exact():
    c = CocycleSpec([np.diag([2.0, 0.5])], (1.0,), name="d2")
    e = estimate_spectrum(c, n=1600, replicas=4, seed=0)
    assert np.allclose(e.chis, [-LOG2, LOG2], atol=1e-12), f"chis = {e.chis}"
    assert np.all(e.stderr == 0.0), "a deterministic cocycle has zero replica spread"
    assert e.gap_top == pytest.approx(2 * LOG2, abs=1e-12)
    assert 0.0 < e.q_lc < 1.0


def test_spectrum_triangular_matrix_exact():
    c = cocycle_gallery("single_hyperbolic")
    e = estimate_spectrum(c, n=1600, replicas=4, seed=0)
    print(f"triangular chis: {e.chis}")
    assert np.allclose(e.chis, [-LOG2, LOG2], atol=1e-9), "exponents are log of |eigenvalues|"


def test_spectrum_sum_rule_diag_rot():
    c = cocycle_gallery("diag_rot")
    e = estimate_spectrum(c, n=2000, replicas=32, seed=3)
    total = float(e.chis.sum())
    assert abs(total - c.expected_log_det()) < 1e-10, (
        f"sum of exponents {total} must equal E log|det| = {c.expected_log_det()}"
    )
    assert e.chis[-1] > 0.05, "diag_rot top exponent is known positive"


@pytest.mark.parametrize("replicas", [64, 100, 256])
@pytest.mark.parametrize("cid", cocycle_gallery_ids())
def test_spectrum_matches_per_matrix_loop_bitwise(cid, replicas):
    """The stacked-matrix step against the per-matrix mask loop it replaced."""
    c = cocycle_gallery(cid)
    n = 400
    b = np.tile(np.eye(c.dim), (replicas, 1, 1))
    logs = np.zeros((replicas, c.dim))
    for step, row in enumerate(c.word_stream(0, _SPECTRUM_BASE).rows(n, replicas), 1):
        for i, m in enumerate(c.matrices):
            mask = row == i
            if mask.any():
                b[mask] = np.matmul(m, b[mask])
        if step % QR_BLOCK == 0:  # n is a multiple of QR_BLOCK: no trailing block
            b = _reorth(b, logs)
    chis = (logs / n).mean(axis=0)[::-1]
    est = estimate_spectrum(c, n=n, replicas=replicas, seed=0)
    assert np.array_equal(est.chis.view(np.uint64), chis.view(np.uint64))


def test_rotation_cocycle_has_zero_exponents():
    c = cocycle_gallery("rotation_only")
    e = estimate_spectrum(c, n=500, replicas=4, seed=0)
    assert np.all(np.abs(e.chis) < 1e-12)


def test_underflow_guard_raises():
    c = CocycleSpec([np.diag([1e18, 1e-20])], (1.0,), name="squash")
    with pytest.raises(OverflowGuardError):
        estimate_spectrum(c, n=64, replicas=2, seed=0)


def test_overflow_guard_raises():
    c = CocycleSpec([np.diag([1e300, 1e300])], (1.0,), name="blow")
    with pytest.raises(OverflowGuardError, match="overflowed"):
        estimate_spectrum(c, n=64, replicas=2)


def test_verify_lc_refuses_zero_gap():
    with pytest.raises(RefusalError, match="gap"):
        verify_lc_rate(cocycle_gallery("rotation_only"), seed=0)


def test_verify_lc_diag_rot_high_fraction():
    v = verify_lc_rate(cocycle_gallery("diag_rot"), n=200, replicas=128, seed=5)
    print(f"lc fraction {v.fraction:.3f} at q_target {v.q_target:.4f}")
    assert v.fraction >= 0.9
    assert 0.0 < v.q_target < 1.0


def test_projective_map_and_system():
    a = np.array([[2.0, 0.0], [0.0, 0.5]])
    m = ProjectiveMap(a)
    v = m(np.array([3.0, 4.0]) / 5.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    batch = m(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert batch.shape == (2, 2)
    assert np.allclose(np.linalg.norm(batch, axis=1), 1.0)
    sys = projective_system(cocycle_gallery("diag_rot"))
    assert sys.space == PROJECTIVE
    assert sys.n_maps == 2


def test_gallery_ids_stable():
    assert cocycle_gallery_ids() == ("diag_rot", "single_hyperbolic", "rotation_only")
    with pytest.raises(KeyError):
        cocycle_gallery("spiral")
