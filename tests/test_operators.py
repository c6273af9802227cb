"""Ulam discretizations, spectra, the Q^n identity, and the log-derivative integral."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from rdsw.cocycles import cocycle_gallery, projective_system
from rdsw.gallery import gallery, gallery_facts
from rdsw.lyapunov import estimate_gamma
from rdsw.operators import (
    build_laplace_markov,
    build_transfer_ulam,
    leading_eigen,
    log_deriv_integral,
    qn_identity_test,
    spectral_gap,
    subleading_decay,
)
from rdsw.systems import AffineMap, Rotation, SystemSpec, TabulatedMap
from rdsw.util import BudgetExceededError, RefusalError

# Frozen reference: second eigenvalue modulus of the anton transfer operator
# at k = 1024 cells, computed by a dense eigensolve and stable under grid
# refinement to the third decimal.
ANTON_GAP = 0.2632


def _coord(j, x):
    return np.asarray(x, dtype=float)


def test_transfer_matrix_binary_hand_oracle():
    op = build_transfer_ulam(gallery("binary_affine"), 4)
    dense = op.to_dense()
    # Cell a maps into cell floor(a/2) under x/2 and into floor(a/2) + k/2
    # under x/2 + 1/2, each carrying probability 1/2; boundaries are dyadic
    # so every overlap is a whole cell and the entries are exact.
    expected = np.zeros((4, 4))
    for a in range(4):
        expected[a, a // 2] = 0.5
        expected[a, a // 2 + 2] = 0.5
    print("dense transfer matrix at k=4:\n", dense)
    assert np.array_equal(dense, expected), "binary transfer matrix should match the hand oracle exactly"
    assert op.kind == "transfer" and op.blocks == 1
    assert op.quadrature_maps == (), "dyadic affine maps need no quadrature fallback"
    assert np.array_equal(op.row_sums(), np.ones(4)), "row sums should be exactly 1"


def test_row_stochastic_across_gallery():
    worst = {}
    for gid in (row["id"] for row in gallery_facts()):
        op = build_transfer_ulam(gallery(gid), 64)
        worst[gid] = float(np.abs(op.row_sums() - 1.0).max())
    print("row-sum deviations at k=64:", worst)
    for gid, dev in worst.items():
        assert dev < 1e-9, f"{gid}: Ulam rows must be stochastic, max deviation {dev}"


def test_duality_pairing():
    op = build_transfer_ulam(gallery("binary_affine"), 256)
    rng = np.random.default_rng(3)
    w = rng.random(256)
    w /= w.sum()
    h = rng.standard_normal(256)
    lhs = float(op.push(w) @ h)
    rhs = float(w @ op.apply(h))
    print("pairing lhs:", lhs, "rhs:", rhs)
    assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-12), "measure-side and function-side actions must agree in pairing"


def test_leading_eigen_binary_uniform_exact():
    op = build_transfer_ulam(gallery("binary_affine"), 256)
    le = leading_eigen(op)
    dev = float(np.abs(le.weights - 1.0 / 256).max())
    print("eigenvalue:", le.eigenvalue, "uniform deviation:", dev, "iterations:", le.iterations)
    assert le.converged and le.residual == 0.0, "uniform start is already stationary, one exact step"
    assert dev == 0.0, "binary stationary weights should be exactly uniform"
    assert abs(le.eigenvalue - 1.0) < 1e-14


def test_nilpotent_collapse_and_smooth_decay():
    # Cell-aligned self-similar maps make the Ulam matrix nilpotent off the
    # stationary direction: P^log2(k) is exactly the rank-one projection.
    P = build_transfer_ulam(gallery("binary_affine"), 8).to_dense()
    proj = np.linalg.multi_dot([P, P, P])
    assert np.array_equal(proj, np.full((8, 8), 0.125)), "P^3 at k=8 should equal the uniform projection exactly"

    sg = spectral_gap(build_transfer_ulam(gallery("binary_affine"), 8))
    print("matrix moduli at k=8:", sg.moduli)
    assert sg.moduli[1] < 1e-7, "matrix spectrum off the leading direction collapses to zero"

    # The smooth-probe decay rate recovers the 1/2 contraction factor that
    # the degenerate matrix spectrum hides.
    dec = subleading_decay(build_transfer_ulam(gallery("binary_affine"), 256))
    print("smooth decay rate at k=256:", dec.rate, "window:", dec.window)
    assert 0.45 <= dec.rate <= 0.55, f"smooth subleading decay should sit near 1/2, got {dec.rate}"
    assert dec.window >= 4, "need a usable ratio window"


def test_anton_ulam_gap_golden():
    op = build_transfer_ulam(gallery("anton"), 1024)
    sg = spectral_gap(op)
    le = leading_eigen(op)
    print("anton moduli at k=1024:", sg.moduli[:3], "gap:", sg.gap, "method:", sg.method)
    assert sg.method == "dense"
    assert abs(sg.gap - ANTON_GAP) <= 0.02, f"anton spectral gap {sg.gap} off the frozen value {ANTON_GAP}"
    assert le.converged and np.all(le.weights >= -1e-15)
    assert abs(float(le.weights.sum()) - 1.0) < 1e-12


def test_rotation_permutation_has_no_gap():
    quarter = SystemSpec(maps=(Rotation(0.25),), probs=(1.0,), name="quarter_turn")
    op = build_transfer_ulam(quarter, 4)
    dense = op.to_dense()
    print("quarter-turn matrix:\n", dense)
    assert np.array_equal(np.sort(dense.ravel()), np.array([0.0] * 12 + [1.0] * 4)), "aligned rotation should be a permutation matrix"
    sg = spectral_gap(op)
    assert np.all(np.abs(sg.moduli - 1.0) < 1e-12), "permutation spectrum lies on the unit circle"
    assert abs(sg.gap) < 1e-12, "an isometry leaves no spectral gap"


def test_laplace_markov_reduction_and_product_stationary():
    solo = SystemSpec(maps=(AffineMap(0.5, 0.25),), probs=(1.0,), name="solo")
    transfer = build_transfer_ulam(solo, 32)
    laplace = build_laplace_markov(solo, 32)
    assert laplace.kind == "laplace_markov" and laplace.blocks == 1
    assert np.array_equal(laplace.to_dense(), transfer.to_dense()), "with one symbol the product operator reduces to the transfer operator"

    binary = build_laplace_markov(gallery("binary_affine"), 16)
    assert binary.size == 32, "two symbol blocks of 16 cells"
    le = leading_eigen(binary)
    dev = float(np.abs(le.weights - 1.0 / 32).max())
    print("product stationary deviation from p x uniform:", dev)
    assert dev == 0.0, "stationary vector of the product operator is exactly p tensor uniform here"


def test_qn_identity_hand_oracles():
    b = gallery("binary_affine")
    # Starting at x=0 under symbol 0 the trajectory stays at 0; after two
    # more steps the word average of the coordinate is (0 + .5 + .25 + .75)/4.
    cases = {
        (0, 1): 0.0,
        (1, 1): 0.5,
        (0, 2): 0.25,
        (0, 3): 0.375,
    }
    for (j, n), expected in cases.items():
        res = qn_identity_test(b, _coord, j, 0.0, n, replicas=4000, seed=3)
        print(f"j={j} n={n}: kernel={res.kernel_value} mc={res.monte_carlo_value} z={res.z_score:.3f}")
        assert res.kernel_value == expected, f"exact kernel value at j={j}, n={n}"
        assert res.passed, "Monte Carlo side should sit within 4 standard errors"
        assert math.isfinite(res.z_score)


def test_qn_identity_guards():
    b = gallery("binary_affine")
    with pytest.raises(ValueError, match="1 <= n <= 20"):
        qn_identity_test(b, _coord, 0, 0.0, 0)
    with pytest.raises(ValueError, match="1 <= n <= 20"):
        qn_identity_test(b, _coord, 0, 0.0, 21)
    with pytest.raises(ValueError, match="out of range"):
        qn_identity_test(b, _coord, 5, 0.0, 3)
    # Three symbols at depth 20 ask for 3^20 words, over the enumeration
    # budget; the guard fires before any allocation.
    with pytest.raises(BudgetExceededError, match="Monte Carlo"):
        qn_identity_test(gallery("anton"), _coord, 0, 0.4, 20, replicas=10)


def test_ulam_validation():
    b = gallery("binary_affine")
    for bad in (1, 48, 3, 1 << 17):
        with pytest.raises(ValueError, match="power of two"):
            build_transfer_ulam(b, bad)
    with pytest.raises(RefusalError, match="1-D phase spaces"):
        build_transfer_ulam(projective_system(cocycle_gallery("diag_rot")), 64)
    with pytest.raises(ValueError, match="at least 2"):
        spectral_gap(build_transfer_ulam(b, 4), m_eigs=1)
    with pytest.raises(ValueError, match="dense form"):
        build_transfer_ulam(b, 4096).to_dense()


def test_quadrature_fallback_for_non_monotone_map():
    tent = TabulatedMap(nodes=[0.0, 0.5, 1.0], values=[0.0, 1.0, 0.0])
    assert not tent.monotone
    system = SystemSpec(maps=(tent,), probs=(1.0,), name="tent_solo")
    with pytest.warns(RuntimeWarning, match="quadrature"):
        op = build_transfer_ulam(system, 64)
    dev = float(np.abs(op.row_sums() - 1.0).max())
    print("quadrature maps:", op.quadrature_maps, "row-sum deviation:", dev)
    assert op.quadrature_maps == (0,), "the tent map should be flagged as sampled"
    assert dev == 0.0, "sampled rows are still exactly stochastic (counts over a fixed sample size)"


@pytest.mark.parametrize("builder", [build_transfer_ulam, build_laplace_markov])
def test_quadrature_warning_points_at_the_builders_caller(builder):
    tent = TabulatedMap(nodes=[0.0, 0.5, 1.0], values=[0.0, 1.0, 0.0])
    system = SystemSpec(maps=(tent, AffineMap(0.5, 0.0)), probs=(0.5, 0.5))
    with pytest.warns(RuntimeWarning, match="quadrature") as record:
        op = builder(system, 64)
    assert [w.filename for w in record] == [__file__]
    assert op.quadrature_maps == (0,)


def test_coo_text_round_trip():
    op = build_transfer_ulam(gallery("binary_affine"), 4)
    text = op.to_coo_text()
    print(text)
    rebuilt = np.zeros((4, 4))
    rows = []
    for line in text.strip().splitlines():
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
        rows.append(int(r))
    assert rows == sorted(rows), "entries should be emitted in row-major order"
    assert np.array_equal(rebuilt, op.to_dense()), "text form must reproduce the matrix exactly"


def test_log_deriv_integral_and_bilipschitz():
    got = log_deriv_integral(gallery("binary_affine"))
    print("binary log-derivative integral:", got)
    assert abs(got + math.log(2)) < 1e-14, "uniform weights against log(1/2) give -log 2 exactly"

    anton_int = log_deriv_integral(gallery("anton"), k_cells=4096)
    anton_mc = estimate_gamma(gallery("anton"), n=2000, replicas=64, seed=0).gamma_hat
    print("anton integral:", anton_int, "sampled:", anton_mc)
    assert abs(anton_int - anton_mc) < 0.01, "operator-side and trajectory-side exponents must agree"
