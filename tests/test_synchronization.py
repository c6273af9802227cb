"""Pair traces, rate fits, averaged sums, contraction probes, proximality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rdsw.acceptance import DIAG_ROT_CHI_TOP
from rdsw.cocycles import CocycleSpec, cocycle_gallery, cocycle_gallery_ids, projective_system
from rdsw.gallery import gallery, gallery_ids
from rdsw.geometry import CIRCLE, PROJECTIVE, distance
from rdsw.synchronization import (
    _LCP_BASE,
    _cloud_diameter,
    _projective_ball,
    average_sync_sum,
    fit_sync_rate,
    local_contraction_probe,
    paired_orbit,
    proximality_probe,
)
from rdsw.systems import ensemble_apply_many
from rdsw.util import ArgumentError, RefusalError
from scalar_reference import scalar_fn

LOG2 = math.log(2.0)


def test_binary_pair_distance_halves_every_step():
    sys = gallery("binary_affine")
    trace = paired_orbit(sys, 0.125, 0.625, [0, 1, 0, 1, 0, 1, 0, 1], 8)
    expected = 0.5 * 0.5 ** np.arange(9)
    assert np.array_equal(trace.distances, expected), "dyadic pair should halve exactly"


def test_paired_orbit_symmetric_in_endpoints():
    sys = gallery("anton")
    w = sys.word_stream(11, 3 << 16)
    t1 = paired_orbit(sys, 0.1, 0.6, w, 200)
    t2 = paired_orbit(sys, 0.6, 0.1, w, 200)
    assert np.array_equal(t1.distances, t2.distances), "distance must not depend on pair order"


def _reference_pair_distances(system, x, y, symbols):
    """The per-step scalar loop paired_orbit must reproduce bit for bit."""
    fns = [scalar_fn(m) for m in system.maps]
    circle = system.space == CIRCLE
    out = np.empty(len(symbols) + 1)
    a, b = float(x), float(y)
    d = abs(a % 1.0 - b % 1.0) if circle else abs(a - b)
    out[0] = min(d, 1.0 - d) if circle else d
    for k, s in enumerate(symbols):
        a = fns[s](a)
        b = fns[s](b)
        d = abs(a - b)
        out[k + 1] = min(d, 1.0 - d) if circle else d
    return out


@pytest.mark.parametrize("name", gallery_ids())
def test_paired_orbit_matches_scalar_reference_bitwise(name):
    sys = gallery(name)
    starts = [(0.1, 0.6), (0.3, 0.35), (0.0, 1.0)]
    if sys.space == CIRCLE:
        starts.append((1.25, 0.1))  # entry 0 reduces mod 1 before the fold
    for seed, (x, y) in enumerate(starts):
        word = sys.word_stream(seed, 3 << 16)
        got = paired_orbit(sys, x, y, word, 3000).distances
        want = _reference_pair_distances(sys, x, y, word.draw(3000).tolist())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"{name} from {(x, y)}"


def _reference_projective_distances(system, x, y, symbols):
    """The per-step projective loop paired_orbit must reproduce bit for bit."""
    a = np.asarray(x, dtype=float) / float(np.linalg.norm(x))
    b = np.asarray(y, dtype=float) / float(np.linalg.norm(y))
    out = [distance(PROJECTIVE, a, b)]
    for s in symbols:
        f = system.maps[s]
        a = f(a)
        b = f(b)
        out.append(distance(PROJECTIVE, a, b))
    return np.array(out)


def _projective_systems():
    systems = [projective_system(cocycle_gallery(c)) for c in cocycle_gallery_ids()]
    shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 2.0]])
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    systems.append(projective_system(CocycleSpec([shear, perm], (0.3, 0.7), name="shear3")))
    return systems


@pytest.mark.parametrize("sys", _projective_systems(), ids=lambda s: s.name)
def test_projective_paired_orbit_matches_reference_bitwise(sys):
    d = sys.maps[0].dim
    starts = [(np.eye(d)[0], np.eye(d)[1]), (np.arange(1.0, d + 1.0), -np.ones(d))]
    for seed, (x, y) in enumerate(starts):
        word = sys.word_stream(seed, 3 << 16)
        got = paired_orbit(sys, x, y, word, 500).distances
        want = _reference_projective_distances(sys, x, y, word.draw(500).tolist())
        assert got.shape == (501,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"{sys.name} from {(x, y)}"


def test_fit_sync_rate_exact_on_binary():
    sys = gallery("binary_affine")
    for seed in (0, 1, 2, 3):
        trace = paired_orbit(sys, 0.125, 0.625, sys.word_stream(seed, 3 << 16), 60)
        fit = fit_sync_rate(trace)
        assert abs(fit.rate + LOG2) < 1e-9, f"seed {seed}: rate {fit.rate}"
        assert fit.r2 >= 1.0 - 1e-12
        assert fit.censored_at is not None, "60 halvings must drop below the 1e-14 floor"
        assert 44 <= fit.censored_at <= 50


def test_projective_sync_rate_is_the_lyapunov_gap():
    """Lines from e1 and e2 under diag_rot approach at rate -(chi1 - chi2) =
    -2 chi1, since its exponents sum to 0. The fit sees that rate only if the
    distance resolves gaps far below 1.5e-8."""
    sys = projective_system(cocycle_gallery("diag_rot"))
    e = np.eye(2)
    rates = [fit_sync_rate(paired_orbit(sys, e[0], e[1], sys.word_stream(seed, 5), 400)).rate for seed in range(1, 17)]
    print(f"median fitted rate {np.median(rates):.4f}, predicted {-2 * DIAG_ROT_CHI_TOP}")
    assert abs(np.median(rates) + 2 * DIAG_ROT_CHI_TOP) < 0.1


def test_fit_refuses_all_censored_trace():
    sys = gallery("binary_affine")
    trace = paired_orbit(sys, 0.5, 0.5 + 1e-13, [0] * 20, 20)
    with pytest.raises(RefusalError, match="floor"):
        fit_sync_rate(trace)


def test_two_rotations_are_isometric():
    sys = gallery("two_rotations")
    trace = paired_orbit(sys, 0.15, 0.4, sys.word_stream(7, 3 << 16), 100)
    fit = fit_sync_rate(trace)
    spread = trace.distances.max() - trace.distances.min()
    print(f"rotation pair: |rate| = {abs(fit.rate):.2e}, distance spread {spread:.2e}")
    assert abs(fit.rate) < 1e-12, "isometries must show zero synchronization rate"
    assert spread < 1e-12


def test_average_sync_sum_binary_matches_geometric_series():
    sys = gallery("binary_affine")
    r = average_sync_sum(sys, 0.2, 0.9, alpha=1.0, n=60, replicas=500, seed=2)
    # sum over k >= 0 of d0 2^-k = 2 d0 = 1.4
    assert r.partial_sums[-1] == pytest.approx(1.4, rel=1e-6)
    assert r.bounded
    assert r.tail_fraction < 0.01


def test_average_sync_sum_anton_grows_linearly():
    sys = gallery("anton")
    r = average_sync_sum(sys, 0.3, 0.8, alpha=1.0, n=200, replicas=200, seed=3)
    half = len(r.partial_sums) // 2
    slope = (r.partial_sums[-1] - r.partial_sums[half]) / (len(r.partial_sums) - 1 - half)
    print(f"anton averaged sums grow {slope:.4f} per step; bounded={r.bounded}")
    assert not r.bounded
    assert slope >= 0.375, "separated arcs keep the pair at least 3/8 apart"


def test_average_sync_sum_steps_every_space_alike():
    """Step 0 is the distance of the starting pair, reduced on the circle and
    normalised on projective space; isometries keep it at every step."""
    rotations = gallery("two_rotations")
    r = average_sync_sum(rotations, 1.9, 0.1, alpha=0.5, n=5, replicas=100)
    assert r.partial_sums[0] == distance(CIRCLE, 1.9, 0.1) ** 0.5
    assert np.allclose(np.diff(r.partial_sums), 0.2**0.5, atol=1e-12)
    lines = projective_system(cocycle_gallery("rotation_only"))
    a, b = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    r = average_sync_sum(lines, a, b, alpha=1.0, n=5, replicas=100)
    assert r.partial_sums[0] == distance(PROJECTIVE, a / 2.0, b / np.linalg.norm(b))
    assert np.allclose(np.diff(r.partial_sums), math.sqrt(0.5), atol=1e-12)


def test_local_contraction_probe_binary_certain():
    sys = gallery("binary_affine")
    frac = local_contraction_probe(sys, 0.3, radius=1e-3, n=50, replicas=64, q_target=0.6, seed=0)
    assert frac == 1.0, "every word contracts an interval arc by exactly 1/2 per step"


def test_local_contraction_probe_fails_for_isometries():
    sys = gallery("two_rotations")
    # q^k drops below the constant 2e-3 arc diameter near k = 59, so a run of
    # 100 steps must catch every word violating the envelope
    frac = local_contraction_probe(sys, 0.3, radius=1e-3, n=100, replicas=64, q_target=0.9, seed=0)
    assert frac == 0.0, "rotations contract nothing"


def _probe_systems():
    """The projective systems above plus random 3-D and 8-D cocycles."""
    rng = np.random.default_rng(12)
    randoms = [[rng.normal(size=(d, d)) for _ in range(3)] for d in (3, 8)]
    return _projective_systems() + [
        projective_system(CocycleSpec(mats, (0.2, 0.3, 0.5), name=f"random{len(mats[0])}")) for mats in randoms
    ]


def _reference_diameter_steps(system, radius, n, replicas, seed):
    """The full pairwise loop the probe's row sweep replaces: each step's cloud
    and, per replica, the largest ``distance`` over all pairs of its directions."""
    center = np.eye(system.maps[0].dim)[0]
    cloud = _projective_ball(system, center, radius, 64)
    flat = np.tile(cloud, (replicas, 1))
    for row in system.word_stream(seed, _LCP_BASE).rows(n, replicas):
        ensemble_apply_many(system, (flat,), np.repeat(row, 64))
        pts = flat.reshape(replicas, 64, -1)
        yield pts, distance(PROJECTIVE, pts[:, :, None, :], pts[:, None, :, :]).max(axis=(1, 2))


@pytest.mark.parametrize("replicas", [1, 7, 256])
@pytest.mark.parametrize("sys", _probe_systems(), ids=lambda s: s.name)
def test_probe_diameter_matches_full_gram_bitwise(sys, replicas):
    """The row sweep equals the maximum over the full matrix of pairwise
    distances, the projective counterpart of a Gram matrix, bit for bit."""
    radius, n, q_target = 0.05, 30, 0.9
    qk = q_target ** np.arange(1, n + 1)
    ok = np.ones(replicas, dtype=bool)
    for step, (pts, want) in enumerate(_reference_diameter_steps(sys, radius, n, replicas, seed=3)):
        got = _cloud_diameter(pts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"{sys.name} step {step}"
        ok &= want <= qk[step]
    center = np.eye(sys.maps[0].dim)[0]
    frac = local_contraction_probe(sys, center, radius, n, replicas, q_target, seed=3)
    assert frac == float(np.mean(ok))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(replicas=0), "replicas"),
        (dict(radius=math.nan), "radius"),
        (dict(radius=math.inf), "radius"),
        (dict(q_target=math.nan), "q_target"),
        (dict(q_target=math.inf), "q_target"),
    ],
)
@pytest.mark.parametrize("space", ["interval", "projective"])
def test_local_contraction_probe_names_bad_argument(kwargs, field, space):
    if space == "projective":
        sys, x = projective_system(cocycle_gallery("diag_rot")), [1.0, 0.0]
    else:
        sys, x = gallery("binary_affine"), 0.3
    args = dict(radius=1e-3, n=10, replicas=8, q_target=0.6) | kwargs
    with pytest.raises(ArgumentError, match=f"^{field}:"):
        local_contraction_probe(sys, x, **args)


def test_proximality_probe_verdicts():
    binary = gallery("binary_affine")
    v = proximality_probe(binary, [(0.2, 0.7)], horizon=100, replicas=8, tol=1e-6, seed=1)[0]
    assert v.verdict == "proximal_evidence"
    anton = gallery("anton")
    v2 = proximality_probe(anton, [(0.3, 0.8)], horizon=500, replicas=8, tol=0.375, seed=1)[0]
    print(f"anton min distance over 500 steps: {v2.min_distance}")
    assert v2.verdict == "no_approach_below"
    assert v2.min_distance >= 0.375
