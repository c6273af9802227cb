"""Map families, system validation, word streams, and exact enumeration."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rdsw
from rdsw import systems
from rdsw.gallery import gallery, gallery_ids
from rdsw.geometry import CIRCLE, INTERVAL, PROJECTIVE, distance
from rdsw.cocycles import CocycleSpec, cocycle_gallery, cocycle_gallery_ids, projective_system
from rdsw.systems import (
    MAX_MAPS,
    AffineMap,
    MapSpec,
    MoebiusMap,
    PerturbedRotation,
    ProjectiveMap,
    Rotation,
    SystemSpec,
    TabulatedMap,
    WordStream,
    ensemble_apply,
    ensemble_apply_many,
    ensemble_steps,
    iterate,
    map_from_params,
    word_levels,
    word_matrix,
)
from rdsw.util import BudgetExceededError
from scalar_reference import numpy_formula, scalar_fn, scalar_orbit


def binary():
    return SystemSpec([AffineMap(0.5, 0.0), AffineMap(0.5, 0.5)], (0.5, 0.5), name="binary")


def test_affine_map_and_inverse():
    m = AffineMap(0.5, 0.25)
    assert m(0.5) == 0.5
    ts = np.linspace(0.0, 1.0, 11)
    back = m.inverse_grid(ts)
    assert np.allclose(m(back[(back > 0) & (back < 1)]), ts[(back > 0) & (back < 1)])


def test_rotation_wraps():
    m = Rotation(0.75)
    assert m(0.5) == pytest.approx(0.25, abs=1e-15)
    assert m.deriv(0.3) == 1.0


def test_moebius_is_circle_diffeo():
    m = MoebiusMap(np.array([[1.3, 0.0], [0.0, 1 / 1.3]]))
    g = np.arange(256) / 256
    y = m(g)
    d = m.deriv(g)
    print(f"moebius derivative range: [{d.min():.4f}, {d.max():.4f}]")
    assert np.all(d > 0.0), "moebius derivative must stay positive"
    assert np.all((0.0 <= y) & (y < 1.0))
    back = m.inverse_grid(y)
    assert np.allclose(np.minimum(np.abs(back - g), 1 - np.abs(back - g)), 0.0, atol=1e-10)


def test_perturbed_rotation_fixed_points():
    # the amp/(2 pi k) sin(2 pi k x) perturbation keeps multiples of 1/(2k) fixed
    m = PerturbedRotation(0.0, 0.06, harmonic=2)
    for x in (0.0, 0.25, 0.5, 0.75):
        assert m(x) == pytest.approx(x, abs=1e-15)
    assert m.deriv(0.0) == pytest.approx(1.06)
    with pytest.raises(ValueError, match="amp"):
        PerturbedRotation(0.1, 1.5)


def test_tabulated_monotone_round_trip():
    nodes = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    vals = np.array([0.0, 0.1, 0.4, 0.9, 1.0])
    m = TabulatedMap(nodes, vals, INTERVAL)
    assert m.monotone
    assert np.allclose(m(nodes), vals)
    mid = m(np.array([0.35]))
    assert 0.1 < mid[0] < 0.4


def test_system_validation_messages():
    with pytest.raises(ValueError, match="probs must sum to 1"):
        SystemSpec([AffineMap(0.5, 0.0), AffineMap(0.5, 0.5)], (0.5, 0.4))
    with pytest.raises(ValueError, match="positive"):
        SystemSpec([AffineMap(0.5, 0.0), AffineMap(0.5, 0.5)], (1.5, -0.5))
    with pytest.raises(ValueError, match="share one phase space"):
        SystemSpec([AffineMap(0.5, 0.0), Rotation(0.3)], (0.5, 0.5))

    class Escapes(MapSpec):
        # built-in interval families all clamp; the range check guards
        # externally defined maps like this one
        family = "escapes"
        has_derivative = False

        def __call__(self, x):
            return 1.5 * np.asarray(x, dtype=float)

        def params(self):
            return {"family": self.family}

    with pytest.raises(ValueError, match="leaves the interval"):
        SystemSpec([Escapes()], (1.0,))


def test_projective_dimensions_are_checked():
    plane, space = ProjectiveMap(np.eye(2)), ProjectiveMap(np.eye(3))
    with pytest.raises(ValueError, match=r"maps\[1\]: dimension 3 differs from the 2 of maps\[0\]"):
        SystemSpec([plane, space], (0.5, 0.5))
    sys = SystemSpec([space], (1.0,))
    assert sys.dim == 3
    with pytest.raises(ValueError, match="a projective start needs 3 coordinates, got 2"):
        iterate(sys, [1.0, 0.0], [0], 1)
    assert iterate(sys, [0.0, 2.0, 0.0], [0], 1).tolist() == [[0.0, 1.0, 0.0]] * 2


def test_map_from_params_round_trip():
    sys = binary()
    x = np.linspace(0, 1, 17)
    tab = TabulatedMap([0.0, 0.3, 0.7], [0.1, 0.55, 0.8], space=CIRCLE, node_derivs=[0.9, 1.2, 0.8])
    every_family = [
        *sys.maps,
        Rotation(0.3),
        PerturbedRotation(0.1, 0.2, harmonic=3, phase=0.5),
        MoebiusMap([[1.3, 0.2], [0.0, 1 / 1.3]]),
        tab,
        ProjectiveMap([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]),
    ]
    assert len({type(m) for m in every_family}) == 6
    for m0 in every_family:
        m1 = map_from_params(m0.params())
        assert m1 == m0 and m1.params() == m0.params()
        arg = np.eye(3) if isinstance(m0, ProjectiveMap) else x
        assert np.array_equal(m0(arg), m1(arg))
    assert tab.params()["node_derivs"] == [0.9, 1.2, 0.8]
    with pytest.raises(ValueError, match="unknown map family"):
        map_from_params({"family": "teleport"})
    with pytest.raises(ValueError, match="unknown key"):
        map_from_params({**sys.maps[0].params(), "space": "interval"})
    with pytest.raises(KeyError, match="b"):
        map_from_params({"family": "affine_interval", "a": 0.5})


@pytest.mark.parametrize(
    "build",
    [
        lambda: AffineMap(np.nan, 0.0),
        lambda: Rotation(np.inf),
        lambda: PerturbedRotation(0.1, 0.2, phase=np.nan),
        lambda: PerturbedRotation(0.1, 0.2, harmonic=np.inf),
        lambda: MoebiusMap([[np.nan, 0.0], [0.0, 1.0]]),
        lambda: TabulatedMap([0.0, np.nan, 1.0], [0.0, 0.5, 1.0]),
        lambda: TabulatedMap([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], node_derivs=[1.0, -np.inf, 1.0]),
        lambda: Rotation("0.25"),
        lambda: MoebiusMap([["2", 0.0], [0.0, "0.5"]]),
    ],
    ids=[
        "affine",
        "rotation",
        "perturbed-phase",
        "perturbed-harmonic",
        "moebius",
        "tabulated-nodes",
        "tabulated-derivs",
        "string-real",
        "string-matrix-entry",
    ],
)
def test_map_constructors_reject_non_finite_reals(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_projective_family_known_without_cocycles_import():
    """Every family is registered by rdsw.systems alone, whatever else is imported."""
    code = (
        "import sys\n"
        "from rdsw.systems import map_from_params\n"
        "p = {'family': 'projective', 'matrix': [[1.0, 0.0], [0.0, 2.0]]}\n"
        "assert map_from_params(p).params() == p\n"
        "assert 'rdsw.cocycles' not in sys.modules\n"
    )
    src = str(Path(rdsw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_word_stream_reproducible_and_blockwise_consistent():
    ws = WordStream(7, 12345, (0.5, 0.5))
    a = ws.draw(1000)
    b = ws.draw(1000)
    assert np.array_equal(a, b), "same (seed, stream) must replay identically"
    blocks = np.concatenate(
        [blk.ravel() for _, blk in ws.blocks(100, 10, max_elems=64)]
    )
    assert np.array_equal(blocks, a), "block traversal disagrees with draw()"
    other = WordStream(7, 12346, (0.5, 0.5)).draw(1000)
    assert not np.array_equal(a, other), "distinct stream ids should decorrelate"


@pytest.mark.parametrize("probs", [(1.0,), (0.5, 0.5), (0.2, 0.3, 0.5), (0.1, 0.05, 0.2, 0.15, 0.1, 0.3, 0.1)])
def test_symbols_equal_searchsorted_right(probs):
    ws = WordStream(5, 2, probs)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    edges = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0.0), np.nextafter(cum[:-1], 1.0)])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, ws.uniforms(10_000)])
    sym = ws._symbols(u)
    assert sym.dtype == np.int8
    assert np.array_equal(sym, np.searchsorted(cum, u, side="right"))
    width = (1 << 20) + 1  # wider than a block: one row per block, and rows cross block edges
    rows = np.array(list(ws.rows(3, width)))
    assert rows.dtype == np.int8
    assert np.array_equal(rows, ws.draw(3 * width).reshape(3, width))


def test_word_stream_rows_hold_a_small_block():
    """A wide ensemble's symbol rows come from blocks of at most 2^17 uniforms, not the whole run."""
    ws = WordStream(3, 1, (0.25, 0.75))
    tracemalloc.start()
    try:
        n = sum(1 for _ in ws.rows(209, 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"peak {peak / 2**20:.2f} MB")
    assert n == 209
    assert peak < 4 * 2**20


def test_word_stream_matches_probs():
    ws = WordStream(3, 0, (0.2, 0.3, 0.5))
    sym = ws.draw(200_000)
    freq = np.bincount(sym, minlength=3) / sym.size
    print(f"symbol frequencies: {freq}")
    assert np.allclose(freq, [0.2, 0.3, 0.5], atol=5e-3)


def test_iterate_matches_hand_composition():
    sys = binary()
    points = iterate(sys, 0.3, [0, 1, 1], 3)
    x1 = 0.15
    x2 = 0.5 * x1 + 0.5
    x3 = 0.5 * x2 + 0.5
    assert np.allclose(points, [0.3, x1, x2, x3])


def test_ensemble_apply_matches_scalar_orbits():
    sys = binary()
    xs = np.array([0.1, 0.5, 0.9])
    srow = np.array([0, 1, 1])
    expected = [scalar_fn(sys.maps[s])(x) for x, s in zip(xs, srow)]
    ld = np.zeros(3)
    ensemble_apply(sys, xs, srow, log_deriv=ld)
    assert np.allclose(xs, expected)
    assert np.allclose(ld, np.log(0.5))


def _tabulated_circle() -> SystemSpec:
    tab = TabulatedMap([0.0, 0.3, 0.7], [0.1, 0.55, 0.8], space=CIRCLE, node_derivs=[0.9, 1.2, 0.8])
    return SystemSpec([tab, Rotation(0.25)], (0.5, 0.5), name="tabulated")


@pytest.mark.parametrize("name", [*gallery_ids(), "tabulated"])
def test_scalar_orbit_matches_ensemble_step_bitwise(name):
    """iterate's scalar closures against ensemble_apply, one step at a time.

    Bit-identical for every family but Moebius maps, whose math and numpy
    atan2/cos/sin may round differently; there each step is held within 1e-15.
    """
    sys = _tabulated_circle() if name == "tabulated" else gallery(name)
    n = 2000
    word = sys.word_stream(11).draw(n)
    scalar = iterate(sys, 0.3, word, n)
    xs = np.array([0.3])
    ensemble = [xs[0]]
    for s in word:
        ensemble_apply(sys, xs, np.array([s]))
        ensemble.append(xs[0])
    ensemble = np.array(ensemble)
    if sys.name == "moebius_pair":
        assert max(distance(CIRCLE, a, b) for a, b in zip(scalar, ensemble)) <= 1e-15
    else:
        assert np.array_equal(scalar.view(np.uint64), ensemble.view(np.uint64))


def _mixed_circle() -> SystemSpec:
    # negative shifts give lifts below 0, so the reduction mod 1 is exercised
    maps = (
        Rotation(-0.25),
        PerturbedRotation(0.1, 0.3, harmonic=2, phase=0.4),
        MoebiusMap([[1.3, 0.2], [0.0, 1 / 1.3]]),
        TabulatedMap([0.0, 0.3, 0.7], [0.1, 0.55, 0.8], space=CIRCLE, node_derivs=[0.9, 1.2, 0.8]),
        PerturbedRotation(-0.2, -0.5, harmonic=1, phase=0.0),
    )
    return SystemSpec(maps, (0.2,) * 5, name="mixed")


def _pin_system(name: str) -> SystemSpec:
    if name == "tabulated":
        return _tabulated_circle()
    if name == "mixed":
        return _mixed_circle()
    if name in cocycle_gallery_ids():
        return projective_system(cocycle_gallery(name))
    return gallery(name)


@pytest.mark.parametrize(
    "name, block, n",
    [
        *((g, systems._ORBIT_BLOCK, systems._ORBIT_BLOCK + 17) for g in gallery_ids()),
        *((g, 5, 700) for g in (*gallery_ids(), "tabulated", "mixed", *cocycle_gallery_ids())),
    ],
)
def test_iterate_matches_frozen_scalar_closures_bitwise(name, block, n, monkeypatch):
    """The orbit kernels against the per-map closures they replaced, bit for bit.

    At the real block size the orbit crosses one block boundary; at a block of
    5 symbols it crosses many, and on the mixed system (two family tables and
    a tabulated map) the kernel runs change every few steps and cross the
    block boundaries too.
    """
    monkeypatch.setattr(systems, "_ORBIT_BLOCK", block)
    sys = _pin_system(name)
    word = sys.word_stream(13).draw(n)
    if sys.space == PROJECTIVE:
        starts = [np.eye(sys.dim)[0], np.arange(1.0, sys.dim + 1.0), -np.ones(sys.dim)]
    else:
        starts = [0.3, 1.25, -0.4, 0.0, 1.0]
    for x0 in starts:
        got = iterate(sys, x0, word, n)
        want = scalar_orbit(sys, x0, word.tolist())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"{name} from {x0}"
    if name == "mixed":
        kinds = np.array([0, 0, 1, 2, 0])[word]  # rotation table, Moebius table, no table
        assert np.count_nonzero(np.diff(kinds)) > 100, "the word must switch kernels often"
        assert iterate(sys, 0.3, word[:0], 0).tolist() == [0.3]


def _reference_apply(system, xs, srow, log_deriv=None):
    """The per-map mask loop that the coefficient-table step replaced."""
    for i, f in enumerate(system.maps):
        mask = srow == i
        if not mask.any():
            continue
        xi = xs[mask]
        if log_deriv is not None:
            log_deriv[mask] += np.log(np.abs(f.deriv(xi)))
        xs[mask] = f(xi)


def _reference_apply_many(system, arrays, srow):
    for i, f in enumerate(system.maps):
        mask = srow == i
        if not mask.any():
            continue
        for a in arrays:
            a[mask] = f(a[mask])


@pytest.mark.parametrize(
    "name, replicas, n",
    [*((g, 257, 2000) for g in gallery_ids()), ("mixed", 257, 2000), ("mixed", 100_003, 10), ("binary_affine", 100_003, 10)],
)
def test_ensemble_step_matches_per_map_loop_bitwise(name, replicas, n):
    """Also at a width that the step splits into several chunks."""
    sys = _mixed_circle() if name == "mixed" else gallery(name)
    start = np.random.default_rng(3).random((2, replicas))
    xs, ld = start[0].copy(), np.zeros(replicas)
    ref_xs, ref_ld = start[0].copy(), np.zeros(replicas)
    pair = start.copy()
    ref_pair = start.copy()
    for srow in sys.word_stream(9).rows(n, replicas):
        ensemble_apply(sys, xs, srow, log_deriv=ld)
        _reference_apply(sys, ref_xs, srow, log_deriv=ref_ld)
        ensemble_apply_many(sys, (pair[0], pair[1]), srow)
        _reference_apply_many(sys, (ref_pair[0], ref_pair[1]), srow)
    for got, want in ((xs, ref_xs), (ld, ref_ld), (pair, ref_pair)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(pair[0], xs), "both entry points must step alike"
    assert np.all((0.0 <= pair) & (pair < 1.0)), "states leave [0, 1)"


_TABLE_FAMILIES = {
    # b = -0.0 sends the state -0.0 to -0.0 + -0.0: np.maximum(0.0, -0.0) keeps that
    # zero's sign and np.maximum(-0.0, 0.0) does not, so the clamp's operand order shows
    "affine": [AffineMap(0.5, 0.0), AffineMap(0.5, 0.5), AffineMap(-0.75, 0.9), AffineMap(1.5, -0.2), AffineMap(0.5, -0.0)],
    "rotation": [Rotation(-0.25), Rotation(0.1), Rotation(0.7071067811865476)],
    "perturbed_rotation": [
        PerturbedRotation(0.1, 0.3, harmonic=2, phase=0.4),
        PerturbedRotation(-0.2, -0.5),
        PerturbedRotation(0.35, 0.9, harmonic=3, phase=-1.1),
        Rotation(0.5),
    ],
    "moebius": [
        MoebiusMap([[1.3, 0.2], [0.0, 1 / 1.3]]),
        MoebiusMap([[2.0, 0.0], [0.0, 0.5]]),
        MoebiusMap([[0.3, -1.2], [0.8, 0.5]]),
    ],
}


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("family", list(_TABLE_FAMILIES))
def test_numpy_step_matches_frozen_formulas_bitwise(family):
    """__call__, deriv, ``_step`` in place and both ensemble steps against the
    family formulas as they were stated before ``_step``, bit for bit, over
    several chunks."""
    maps = _TABLE_FAMILIES[family]
    rng = np.random.default_rng(17)
    x = np.concatenate([[0.0, -0.0, 0.25, 0.5, 1.0], rng.uniform(-0.5, 1.5, 4096)])
    for m in maps:
        image, slope = numpy_formula(m)
        assert _same_bits(m(x), image(x)) and _same_bits(m.deriv(x), slope(x)), m
        y = x.copy()
        d = m._table._step(y, True, *m.table_row(), out=y)[1]
        assert _same_bits(y, image(x)) and _same_bits(d, slope(x)), m
        assert _same_bits(m(0.3), image(np.asarray(0.3))) and _same_bits(m.deriv(0.3), slope(np.asarray(0.3))), m
        if isinstance(m, PerturbedRotation):
            c, k, w, _, phase = m.table_row()
            assert _same_bits(m.lift(x), x + c + k * np.sin(w * x + phase)), m
    sys = SystemSpec(maps, (1.0 / len(maps),) * len(maps))
    width = 2 * systems._GATHER + 11
    xs, ld = rng.random(width), np.zeros(width)
    xs[:64] = -0.0
    pair = np.stack([xs, rng.random(width)])
    ref_xs, ref_ld, ref_pair = xs.copy(), ld.copy(), pair.copy()
    driven, driven_ld, driven_pair = xs.copy(), ld.copy(), pair.copy()
    for _ in ensemble_steps(sys, sys.word_stream(5).blocks(6, width), (driven,), log_deriv=driven_ld):
        pass
    for _ in ensemble_steps(sys, sys.word_stream(5).blocks(6, width), (driven_pair[0], driven_pair[1])):
        pass
    formulas = [numpy_formula(m) for m in maps]
    for srow in sys.word_stream(5).rows(6, width):
        ensemble_apply(sys, xs, srow, log_deriv=ld)
        ensemble_apply_many(sys, (pair[0], pair[1]), srow)
        for i, (image, slope) in enumerate(formulas):
            mask = srow == i
            ref_ld[mask] += np.log(np.abs(slope(ref_xs[mask])))
            ref_xs[mask] = image(ref_xs[mask])
            for a in ref_pair:
                a[mask] = image(a[mask])
    assert _same_bits(xs, ref_xs) and _same_bits(ld, ref_ld) and _same_bits(pair, ref_pair)
    assert _same_bits(driven, ref_xs) and _same_bits(driven_ld, ref_ld) and _same_bits(driven_pair, ref_pair)


def test_affine_orbit_keeps_negative_zero_like_the_ensemble_step():
    """With b = -0.0 the image of -0.0 is -0.0; the orbit kernel's clamp keeps
    that sign as ``_step`` does, so ``iterate``, ``__call__``, ``ensemble_apply``
    and ``ensemble_steps`` agree bit for bit from every start."""
    sys = SystemSpec([AffineMap(0.5, -0.0), AffineMap(0.5, 0.5)], [0.5, 0.5])
    assert _same_bits(iterate(sys, -0.0, [0, 0], 2), [-0.0, -0.0, -0.0])
    starts = np.array([-0.0, 0.0, 0.3, -0.4, 1.25, 1.0])
    word = np.array([0, 0, 1, 0, 0, 0, 1, 1, 0], dtype=np.int8)
    xs, driven = starts.copy(), starts.copy()
    orbits = [iterate(sys, x0, word, word.size) for x0 in starts]
    block = np.repeat(word[:, None], starts.size, axis=1)
    seen = [driven.copy() for _ in ensemble_steps(sys, [(0, block)], (driven,))]
    for k, s in enumerate(word.tolist(), 1):
        ensemble_apply(sys, xs, np.full(starts.size, s, dtype=np.int8))
        for x0, orbit in zip(starts, orbits):
            called = x0
            for t in word[:k].tolist():
                called = sys.maps[t](called)
            assert _same_bits(orbit[k], called), (x0, k)
        assert _same_bits([orbit[k] for orbit in orbits], xs) and _same_bits(seen[k], xs), k


def test_symbol_width_is_bounded():
    """Symbols are int8: past 127 maps they would wrap to negative table indices."""
    rotations = [Rotation(i / 256.0) for i in range(MAX_MAPS + 1)]
    with pytest.raises(ValueError, match="at most 127 maps"):
        SystemSpec(rotations, (1.0 / len(rotations),) * len(rotations))
    sys = SystemSpec(rotations[:MAX_MAPS], (1.0 / MAX_MAPS,) * MAX_MAPS)
    words = word_matrix(sys, 1)[:, 0]
    assert words.min() == 0 and words.max() == MAX_MAPS - 1
    xs = np.zeros(MAX_MAPS)
    ensemble_apply(sys, xs, words)
    assert np.array_equal(xs, np.arange(MAX_MAPS) / 256.0)
    with pytest.raises(ValueError, match="matrices: at most 127"):
        CocycleSpec([np.eye(2)] * (MAX_MAPS + 1), (1.0 / (MAX_MAPS + 1),) * (MAX_MAPS + 1))


def test_word_enumeration_weights_sum_to_one():
    sys = binary()
    levels = list(word_levels(sys, 10))
    assert [(srow.size, w.size) for srow, w in levels] == [(2**k, 2**k) for k in range(1, 11)]
    srow, w = levels[-1]
    assert srow.dtype == np.int8
    assert np.array_equal(srow, np.tile([0, 1], 512)), "the last symbol varies fastest"
    assert w.sum() == 1.0, "dyadic weights must sum to exactly one"
    tri = SystemSpec(
        [AffineMap(0.25, 0.0), AffineMap(0.25, 0.375), AffineMap(0.25, 0.75)],
        (0.25, 0.25, 0.5),
    )
    *_, (srow3, w3) = word_levels(tri, 7)
    assert srow3.shape == w3.shape == (3**7,)
    assert w3[:3].tolist() == [0.25**7, 0.25**7, 0.25**6 * 0.5], "the last symbol varies fastest"
    assert w3[-1] == 0.5**7
    assert w3.sum() == pytest.approx(1.0, abs=1e-14)


def test_word_enumeration_budget_guard():
    tri = SystemSpec(
        [AffineMap(0.25, 0.0), AffineMap(0.25, 0.375), AffineMap(0.25, 0.75)],
        (0.25, 0.25, 0.5),
    )
    # 3^14 words ask for more than 2^20: the call raises before its first level is made
    with pytest.raises(BudgetExceededError, match="use Monte Carlo"):
        word_levels(tri, 14, budget=1 << 20)
    with pytest.raises(BudgetExceededError, match="use Monte Carlo"):
        word_matrix(tri, 14, budget=1 << 20)
    assert len(list(word_levels(tri, 12, budget=3**12))) == 12
    with pytest.raises(ValueError, match="word length must be nonnegative"):
        word_levels(tri, -1)
