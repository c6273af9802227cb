from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdsw.geometry import CIRCLE, INTERVAL, PROJECTIVE, distance, mod1

reals = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_circle_distance_hand_values():
    assert distance(CIRCLE, 0.0, 0.5) == 0.5
    assert distance(CIRCLE, 0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert distance(CIRCLE, 0.25, 1.25) == 0.0
    assert distance(CIRCLE, 1.9, 0.1) == pytest.approx(0.2, abs=1e-15), "unreduced coordinates must be reduced"
    assert distance(CIRCLE, -0.25, 0.5) == 0.25
    d = distance(CIRCLE, np.array([0.0, 0.4]), np.array([0.9, 0.5]))
    assert np.allclose(d, [0.1, 0.1]), f"vectorized arc distances wrong: {d}"


@given(reals, reals)
def test_circle_distance_symmetric_and_bounded(x, y):
    d1, d2 = distance(CIRCLE, x, y), distance(CIRCLE, y, x)
    assert d1 == d2  # bit-for-bit, the formula is symmetric in x, y
    assert 0.0 <= d1 <= 0.5


@given(reals, reals, reals)
def test_circle_triangle_inequality(x, y, z):
    assert distance(CIRCLE, x, z) <= distance(CIRCLE, x, y) + distance(CIRCLE, y, z) + 1e-12


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_mod1_is_the_remainder_bit_for_bit(x):
    r = mod1(np.float64(x))
    assert np.float64(r).tobytes() == np.float64(x % 1.0).tobytes() == np.remainder(x, 1.0).tobytes()
    assert 0.0 <= r <= 1.0


def test_interval_distance():
    assert distance(INTERVAL, 0.0, 1.0) == 1.0
    assert distance(INTERVAL, 0.3, 0.3) == 0.0
    assert isinstance(distance(INTERVAL, 0.2, 0.7), float)


def test_projective_distance_antipode_invariant():
    v = np.array([1.0, 0.0])
    w = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    d = distance(PROJECTIVE, v, w)
    print(f"projective distance e1 vs 45deg: {d}")
    assert d == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert distance(PROJECTIVE, v, -w) == d, "antipode changed the distance"
    assert distance(PROJECTIVE, v, v) == 0.0


@pytest.mark.parametrize("theta", [1e-9, 1e-12])
def test_projective_distance_resolves_small_angles(theta):
    """One ulp of <a, b>^2 is a distance of about 1.5e-8 in sqrt(1 - <a, b>^2);
    the wedge norm has no such floor."""
    d = distance(PROJECTIVE, np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)]))
    assert d == pytest.approx(np.sin(theta), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_projective_pair_alone_equals_its_ensemble_row(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(2000, dim))
    b = rng.normal(size=(2000, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    rows = distance(PROJECTIVE, a, b)
    alone = np.array([distance(PROJECTIVE, p, q) for p, q in zip(a, b)])
    assert rows.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
    assert np.array_equal(rows, distance(PROJECTIVE, b, a)), "distance must be symmetric bit for bit"


def test_distance_rejects_unknown_space():
    with pytest.raises(ValueError, match="unknown space 'plane'"):
        distance("plane", 0.0, 1.0)
