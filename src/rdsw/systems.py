"""Map families, IFS specifications with probabilities, word streams, and orbits.

A system is a finite list of maps of one phase space plus a probability vector;
random orbits are driven by explicit symbol words or by seeded WordStreams
(counter-based, so the same (seed, stream_id) always replays the same word).
Composition acts on the left: step k applies the map drawn at slot k to the
current point, so after n steps the point is f_{i_n} ( ... f_{i_1}(x) ... ).
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import CIRCLE, INTERVAL, PROJECTIVE, coordinate_grid, mod1
from .util import BudgetExceededError

__all__ = [
    "MapSpec",
    "AffineMap",
    "Rotation",
    "PerturbedRotation",
    "MoebiusMap",
    "TabulatedMap",
    "ProjectiveMap",
    "map_from_params",
    "SystemSpec",
    "WordStream",
    "iterate",
    "word_matrix",
    "word_levels",
    "ensemble_apply",
    "ensemble_apply_many",
    "ensemble_steps",
]

_TWO_PI = 2.0 * math.pi
WORD_BUDGET = 1 << 24
MAX_MAPS = 127  # symbols are int8
_CHUNK = 1 << 15  # states per pass of the ensemble step: keeps its temporaries cache-sized
_GATHER = 1 << 14  # symbols per coefficient gather of ensemble_steps: keeps the gathered block small
_ORBIT_BLOCK = 1 << 12  # symbols per orbit-kernel call of iterate: its list of floats stays a small transient
_REALS = (int, float, np.integer, np.floating)
_FLOAT_MAX = sys.float_info.max


def _is_finite_real(v) -> bool:
    """A Python or numpy int or float, not a bool, that is a finite float."""
    return isinstance(v, _REALS) and not isinstance(v, bool) and -_FLOAT_MAX <= v <= _FLOAT_MAX


def _finite(name: str, value) -> float:
    if not _is_finite_real(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def _finite_array(name: str, value, expected: str = "finite reals") -> np.ndarray:
    """``value`` as a float array; every entry must pass ``_is_finite_real``."""
    try:
        entries = np.asarray(value, dtype=object)
        ok = all(map(_is_finite_real, entries.flat))
    except ValueError:  # arrays of unequal shapes numpy cannot nest
        ok = False
    if not ok:
        raise ValueError(f"{name}: expected {expected}")
    return entries.astype(float)


def _square_matrix(name: str, value) -> np.ndarray:
    """A read-only invertible square matrix of finite reals, of dimension 2 to 8."""
    m = _finite_array(name, value, "a square matrix of reals")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: must be square, got shape {m.shape}")
    if not 2 <= m.shape[0] <= 8:
        raise ValueError(f"{name}: dimension must be in [2, 8], got {m.shape[0]}")
    with np.errstate(over="ignore"):
        det = abs(float(np.linalg.det(m)))
    if det <= 1e-12:
        raise ValueError(f"{name}: must be invertible, got |det| = {det!r}")
    m.setflags(write=False)
    return m


class MapSpec:
    """Base class for the supported map families.

    Instances are immutable value objects. The constructor's signature is the
    family's parameter list: each argument is kept under its own name, and
    ``params()``, ``map_from_params``, ``repr`` and equality all read it.

    ``__call__``/``deriv`` accept floats or arrays and are the canonical
    evaluator; ``deriv`` is the signed derivative of the lift. A family with a
    coefficient table names in ``_table`` the class whose static methods are
    its formula, and gives its coefficients as ``table_row()``. ``_step(x,
    slope, *row, out=None)`` is the family's one numpy formula: it returns the
    image of ``x`` and, only when ``slope`` is true, the derivative there (else
    None), evaluating their shared part once. With ``out``, which may be ``x``,
    it writes the image there through ufunc ``out`` arguments in the same
    order of operations, after reading all that the derivative needs. The
    ``__call__``/``deriv`` defined here run it on the map's own row, and
    ``ensemble_apply`` and ``ensemble_steps`` on the rows gathered by each
    state's symbol, so all paths round alike. A family without a table
    (``_table`` None) defines its own ``__call__``/``deriv``; the ``_step``
    and ``_orbit`` defined here then step its ensembles and orbits through
    them.

    ``_orbit(x, symbols, *columns)`` is the single-orbit kernel, which
    ``iterate`` runs: from the float ``x`` it steps through ``symbols`` (a
    list of ints) and returns the visited points as a list of floats. A table
    class writes its scalar formula inline on plain floats, reading each
    coefficient from its column as a per-symbol list, with no call per step,
    so it is several times faster per step than ``__call__``. It agrees with
    ``_step`` bit for bit except on Moebius maps, whose ``math`` and numpy
    trigonometry may round differently: at most 1 ulp apart per step. The
    default here, for a map without a table, calls ``__call__`` once per
    symbol and takes no columns.
    """

    family = "abstract"
    space = INTERVAL
    has_derivative = True
    _table = None

    def __call__(self, x):
        return self._table._step(np.asarray(x, dtype=float), False, *self.table_row())[0]

    def deriv(self, x):
        return self._table._step(np.asarray(x, dtype=float), True, *self.table_row())[1]

    def params(self) -> dict:
        out = {"family": self.family}
        for name in inspect.signature(type(self)).parameters:
            v = getattr(self, name)
            out[name] = v.tolist() if isinstance(v, np.ndarray) else v
        return out

    def _step(self, x, slope: bool):
        return self(x), (self.deriv(x) if slope else None)

    def _orbit(self, x, symbols) -> list:
        out = []
        for _ in symbols:
            x = float(self(x))
            out.append(x)
        return out

    def inverse_grid(self, ts):
        """Preimages of targets under the map, for exact partition overlaps.

        Monotone maps only. Circle maps solve lift(x) = t (mod 1) by bisection
        unless a closed form is available; interval maps clamp targets outside
        the range to the nearest endpoint preimage.
        """
        raise NotImplementedError(f"{self.family} has no monotone inverse")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items() if k != "family")
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other):
        return type(self) is type(other) and self.params() == other.params()

    def __hash__(self):
        return hash(repr(self))


class AffineMap(MapSpec):
    """x -> a*x + b on the interval, a != 0. Output is clamped to [0, 1]."""

    family = "affine_interval"
    space = INTERVAL

    def __init__(self, a: float, b: float):
        a = _finite("a", a)
        b = _finite("b", b)
        if a == 0.0:
            raise ValueError("affine map needs a != 0")
        self.a = a
        self.b = b

    def table_row(self) -> tuple:
        return (self.a, self.b)

    @staticmethod
    def _step(x, slope, a, b, out=None):
        y = np.maximum(0.0, np.add(np.multiply(a, x, out=out), b, out=out), out=out)
        return np.minimum(1.0, y, out=out), (np.full_like(x, a) if slope else None)

    @staticmethod
    def _orbit(x, symbols, a, b):
        out = []
        for s in symbols:
            x = a[s] * x + b[s]
            x = (x if x < 1.0 else 1.0) if x > 0.0 else 0.0  # the clamp of _step, -0.0 to 0.0 included
            out.append(x)
        return out

    def inverse_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.clip((ts - self.b) / self.a, 0.0, 1.0)


class Rotation(MapSpec):
    """x -> x + c mod 1 on the circle.

    It evaluates as the perturbed rotation with amp 0, which is bit-identical:
    x + c + 0.0 * sin(.) == x + c and 1 + 0.0 * cos(.) == 1.
    """

    family = "rotation"
    space = CIRCLE

    def __init__(self, c: float):
        self.c = _finite("c", c)

    def table_row(self) -> tuple:
        return (self.c, 0.0, _TWO_PI, 0.0, 0.0)

    def inverse_grid(self, ts):
        return (np.asarray(ts, dtype=float) - self.c) % 1.0


class PerturbedRotation(MapSpec):
    """x -> x + c + (amp / (2 pi k)) sin(2 pi k x + phase) mod 1, |amp| < 1.

    The derivative is 1 + amp cos(2 pi k x + phase), bounded away from 0, so
    every member is an orientation-preserving circle diffeomorphism. harmonic
    (k, a positive integer) and phase generalize the basic k=1, phase=0 form;
    they let pure-cosine perturbations and half-period shifts stay inside the
    family.
    """

    family = "perturbed_rotation"
    space = CIRCLE

    def __init__(self, c: float, amp: float, harmonic: int = 1, phase: float = 0.0):
        self.c = _finite("c", c)
        self.amp = _finite("amp", amp)
        self.phase = _finite("phase", phase)
        if not abs(self.amp) < 1.0:
            raise ValueError(f"perturbed rotation needs |amp| < 1, got {amp}")
        h = _finite("harmonic", harmonic)
        if h != int(h) or h < 1:
            raise ValueError(f"harmonic must be a positive integer, got {harmonic}")
        self.harmonic = int(h)
        self._w = _TWO_PI * self.harmonic
        self._k = self.amp / self._w

    def table_row(self) -> tuple:
        return (self.c, self._k, self._w, self.amp, self.phase)

    @staticmethod
    def _lift(x, c, k, w, phase, out=None):
        """The lift x + c + k sin(t) and its argument t = w x + phase."""
        t = w * x + phase
        return np.add(np.add(x, c, out=out), k * np.sin(t), out=out), t

    @staticmethod
    def _step(x, slope, c, k, w, amp, phase, out=None):
        lift, t = PerturbedRotation._lift(x, c, k, w, phase, out)
        return mod1(lift, out), (1.0 + amp * np.cos(t) if slope else None)

    @staticmethod
    def _orbit(x, symbols, c, k, w, amp, phase):
        """Rows with k == 0 (rotations) add no sine: x + c + 0.0 * sin(.) is x + c
        but for a -0.0 sum, which the reduction mod 1 makes +0.0 either way."""
        sin = math.sin
        out = []
        for s in symbols:
            ks = k[s]
            if ks == 0.0:
                x = (x + c[s]) % 1.0
            else:
                x = (x + c[s] + ks * sin(w[s] * x + phase[s])) % 1.0
            out.append(x)
        return out

    def lift(self, x):
        return self._lift(np.asarray(x, dtype=float), self.c, self._k, self._w, self.phase)[0]

    def inverse_grid(self, ts):
        return _bisect_circle_inverse(self.lift, np.asarray(ts, dtype=float))


class MoebiusMap(MapSpec):
    """Circle map induced by a 2x2 real matrix with positive determinant.

    The circle R/Z doubles as real projective 1-space via v(x) = (cos pi x,
    sin pi x); the map sends x to arg(A v(x)) / pi mod 1 and its derivative is
    det(A) / ||A v(x)||^2.
    """

    family = "moebius_circle"
    space = CIRCLE

    def __init__(self, matrix):
        m = _finite_array("moebius matrix", matrix).reshape(2, 2)
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if det <= 1e-12:
            raise ValueError(f"moebius matrix needs positive determinant, got {det}")
        m.setflags(write=False)
        self.matrix = m
        self.det = det

    def table_row(self) -> tuple:
        (m00, m01), (m10, m11) = self.matrix.tolist()
        return (m00, m01, m10, m11, self.det)

    @staticmethod
    def _step(x, slope, m00, m01, m10, m11, det, out=None):
        th = math.pi * x
        c, s = np.cos(th), np.sin(th)
        u, v = m00 * c + m01 * s, m10 * c + m11 * s  # (u, v) = A (cos pi x, sin pi x)
        del th, c, s  # free them before the image and slope, as large as x
        y = mod1(np.divide(np.arctan2(v, u, out=out), math.pi, out=out), out)
        return y, (det / (u * u + v * v) if slope else None)

    @staticmethod
    def _orbit(x, symbols, m00, m01, m10, m11, det):
        cos, sin, atan2, pi = math.cos, math.sin, math.atan2, math.pi
        out = []
        for s in symbols:
            th = pi * x
            cs, sn = cos(th), sin(th)
            x = (atan2(m10[s] * cs + m11[s] * sn, m00[s] * cs + m01[s] * sn) / pi) % 1.0
            out.append(x)
        return out

    def inverse_grid(self, ts):
        m = self.matrix
        adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        return MoebiusMap(adj)(ts)


class TabulatedMap(MapSpec):
    """Map defined by values at strictly increasing nodes, interpolated.

    Monotone tables get a shape-preserving (PCHIP) interpolant; on the circle
    the values are read as lift values (last-to-first wrap adds 1). Derivative
    evaluation is only offered when node derivatives are supplied, in which
    case a cubic Hermite interpolant is used. Non-monotone tables are accepted
    but flagged, and downstream consumers fall back to quadrature.
    """

    family = "tabulated_monotone"

    def __init__(self, nodes, values, space: str = INTERVAL, node_derivs=None):
        from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

        nodes = _finite_array("tabulated map nodes", nodes)
        values = _finite_array("tabulated map values", values)
        if nodes.ndim != 1 or nodes.size < 3 or values.shape != nodes.shape:
            raise ValueError("tabulated map needs matching 1-D node/value tables, >= 3 entries")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("tabulated map nodes must be strictly increasing")
        if space not in (CIRCLE, INTERVAL):
            raise ValueError(f"tabulated maps live on circle or interval, not {space!r}")
        if space == CIRCLE and (nodes[0] < 0.0 or nodes[-1] >= 1.0):
            raise ValueError("circle nodes must lie in [0, 1)")
        self.space = space
        self.nodes = nodes
        self.values = values
        self.monotone = bool(np.all(np.diff(values) > 0))
        self.has_derivative = node_derivs is not None
        if space == CIRCLE:
            xs = np.append(nodes, nodes[0] + 1.0)
            ys = np.append(values, values[0] + (1.0 if self.monotone else 0.0))
        else:
            xs, ys = nodes, values
        if node_derivs is not None:
            node_derivs = _finite_array("tabulated map node_derivs", node_derivs)
            if node_derivs.shape != nodes.shape:
                raise ValueError("node_derivs must match nodes")
            ds = np.append(node_derivs, node_derivs[0]) if space == CIRCLE else node_derivs
            self._spline = CubicHermiteSpline(xs, ys, ds)
        else:
            self._spline = PchipInterpolator(xs, ys)
        self.node_derivs = node_derivs
        self._dspline = self._spline.derivative()
        self._x0 = float(xs[0])

    def _wrap(self, x):
        if not isinstance(x, float):  # an orbit's float point skips numpy's 0-d overhead: same bits
            x = np.asarray(x, dtype=float)
        if self.space == CIRCLE:
            return self._x0 + (x - self._x0) % 1.0
        return np.clip(x, self.nodes[0], self.nodes[-1])

    def __call__(self, x):
        y = self._spline(self._wrap(x))
        if self.space == CIRCLE:
            return y % 1.0
        return np.clip(y, 0.0, 1.0)

    def deriv(self, x):
        if not self.has_derivative:
            raise ValueError("tabulated map built without node derivatives")
        return self._dspline(self._wrap(x))

    def lift(self, x):
        """Continuous lift; the spline already covers one full period."""
        if not self.monotone:
            raise ValueError("non-monotone tabulated map has no lift")
        if self.space != CIRCLE:
            raise ValueError("lift is a circle-map notion")
        x = np.asarray(x, dtype=float)
        shift = np.floor(x - self._x0)
        return self._spline(x - shift) + shift

    def inverse_grid(self, ts):
        if not self.monotone:
            raise ValueError("non-monotone tabulated map has no monotone inverse")
        ts = np.asarray(ts, dtype=float)
        if self.space == CIRCLE:
            return _bisect_circle_inverse(self.lift, ts)
        return _bisect_interval_inverse(self._spline, ts, float(self.nodes[0]), float(self.nodes[-1]))


class ProjectiveMap(MapSpec):
    """Action of an invertible matrix on unit direction vectors.

    States are unit row vectors with the sign convention handled by callers;
    batches are (m, d) arrays. No scalar derivative is exposed (the projective
    toolkit measures contraction geometrically instead).
    """

    family = "projective"
    space = PROJECTIVE
    has_derivative = False

    def __init__(self, matrix):
        self.matrix = _square_matrix("matrix", matrix)
        self.dim = self.matrix.shape[0]

    def __call__(self, x):
        v = np.asarray(x, dtype=float)
        if v.ndim == 1:
            w = self.matrix @ v
            return w / np.linalg.norm(w)
        w = v @ self.matrix.T
        return w / np.linalg.norm(w, axis=-1, keepdims=True)


_FAMILIES = {
    cls.family: cls for cls in (AffineMap, Rotation, PerturbedRotation, MoebiusMap, TabulatedMap, ProjectiveMap)
}
AffineMap._table = AffineMap
Rotation._table = PerturbedRotation._table = PerturbedRotation
MoebiusMap._table = MoebiusMap


def map_from_params(params: dict) -> MapSpec:
    """Rebuild a map from its ``params()`` dictionary.

    The keys besides ``family`` are the family constructor's arguments: a
    missing required one raises ``KeyError`` with its name, any other key
    raises ``ValueError``.
    """
    fam = params.get("family")
    if fam not in _FAMILIES:
        raise ValueError(f"unknown map family {fam!r}")
    cls = _FAMILIES[fam]
    args = {k: v for k, v in params.items() if k != "family"}
    keys = inspect.signature(cls).parameters
    unknown = sorted(set(args) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}; allowed: {sorted(['family', *keys])}")
    for key, param in keys.items():
        if param.default is param.empty and key not in args:
            raise KeyError(key)
    return cls(**args)


def _bisect(f, target, lo, hi, iters: int = 64):
    """Elementwise bisection for an increasing f: f(x) = target on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = f(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _bisect_circle_inverse(lift, ts):
    ts = np.asarray(ts, dtype=float) % 1.0
    l0 = float(lift(np.array(0.0)))
    target = ts + np.ceil(l0 - ts)
    target = np.where(target < l0, target + 1.0, target)
    target = np.where(target >= l0 + 1.0, target - 1.0, target)
    return _bisect(lift, target, np.zeros_like(ts), np.ones_like(ts)) % 1.0


def _bisect_interval_inverse(f, ts, a: float, b: float):
    """Preimages of ts under an increasing f on [a, b]; targets outside the range clamp to an endpoint."""
    tc = np.clip(ts, float(f(a)), float(f(b)))
    return _bisect(f, tc, np.full_like(tc, a), np.full_like(tc, b))


class _Group:
    """Maps that ``ensemble_apply`` steps together, and their evaluator.

    The evaluator is a family table (the class a map names in ``_table``) or
    a map without one; ``step`` and ``orbit`` are its ``_step`` and
    ``_orbit``. A table holds one column of coefficients per symbol (zeros
    for the symbols of other groups): ``gather`` picks each state's column as
    the row that ``step`` takes, and ``coefs`` are the columns as the lists
    that ``orbit`` takes. A map without a table is a one-member group with
    no columns, so both are empty.
    """

    def __init__(self, symbols, evaluator, columns=None):
        self.symbols = symbols
        self.columns = columns
        self.step = evaluator._step
        self.orbit = evaluator._orbit
        self.coefs = [] if columns is None else columns.tolist()

    def gather(self, s) -> tuple:
        return () if self.columns is None else tuple(self.columns.take(s, axis=1))


def _groups(maps) -> list:
    members = {}
    for i, m in enumerate(maps):
        members.setdefault(m._table or i, []).append(i)
    groups = []
    for key, symbols in members.items():
        if isinstance(key, int):
            groups.append(_Group(symbols, maps[key]))
            continue
        columns = np.zeros((len(maps[symbols[0]].table_row()), len(maps)))
        for i in symbols:
            columns[:, i] = maps[i].table_row()
        groups.append(_Group(symbols, key, columns))
    return groups


class SystemSpec:
    """A finite family of maps of one phase space plus map probabilities.

    Validation: at most ``MAX_MAPS`` maps, matching spaces (and, on
    projective space, one dimension ``dim``), probabilities positive and
    summing to 1 within 1e-12, and (for 1-D spaces) every map checked on a
    2048-point grid for range containment and a derivative bounded away from
    zero whenever the family provides one. Each error message starts with the
    argument at fault: ``maps``, ``maps[i]`` or ``probs``.
    """

    def __init__(self, maps, probs, name: str = ""):
        maps = tuple(maps)
        if not maps:
            raise ValueError("maps: a system needs at least one map")
        if len(maps) > MAX_MAPS:
            raise ValueError(f"maps: a system has at most {MAX_MAPS} maps (int8 symbols), got {len(maps)}")
        spaces = {m.space for m in maps}
        if len(spaces) != 1:
            raise ValueError(f"maps: all maps must share one phase space, got {sorted(spaces)}")
        self.dim = maps[0].dim if maps[0].space == PROJECTIVE else None
        for i, m in enumerate(maps):
            if self.dim is not None and m.dim != self.dim:
                raise ValueError(f"maps[{i}]: dimension {m.dim} differs from the {self.dim} of maps[0]")
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(maps),):
            raise ValueError("probs must align with maps")
        if np.any(probs <= 0.0):
            raise ValueError("probs must all be positive")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probs must sum to 1 within 1e-12, got {float(probs.sum())!r}")
        self.maps = maps
        self.probs = probs.copy()
        self.probs.setflags(write=False)
        self.space = next(iter(spaces))
        self.name = name
        self._groups = _groups(maps)
        self._group_of = np.empty(len(maps), dtype=np.int8)
        for g, group in enumerate(self._groups):
            self._group_of[group.symbols] = g
        if self.space in (CIRCLE, INTERVAL):
            self._grid_check()

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    def _grid_check(self, points: int = 2048):
        g = coordinate_grid(self.space, points)
        for i, m in enumerate(self.maps):
            y = np.asarray(m(g), dtype=float)
            if self.space == INTERVAL and (y.min() < -1e-9 or y.max() > 1.0 + 1e-9):
                raise ValueError(f"maps[{i}]: {m!r} leaves the interval on the check grid")
            if m.has_derivative:
                d = np.asarray(m.deriv(g), dtype=float)
                if d.min() <= 0.0 and d.max() >= 0.0:
                    raise ValueError(f"maps[{i}]: {m!r} derivative changes sign on the check grid")
                if np.min(np.abs(d)) < 1e-9:
                    raise ValueError(f"maps[{i}]: {m!r} derivative is not bounded away from zero")

    def _select(self, srow: np.ndarray):
        """Yield (states, symbols, group) for each group that srow uses, one
        chunk of ``_CHUNK`` states at a time.

        ``states`` indexes the states of the group: the whole chunk (a slice)
        when one group holds all the maps, else their positions.
        """
        for lo in range(0, srow.size, _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            s = srow[chunk]
            if len(self._groups) == 1:
                yield chunk, s, self._groups[0]
                continue
            owner = self._group_of[s]
            for g, group in enumerate(self._groups):
                idx = np.flatnonzero(owner == g)
                if idx.size:
                    yield idx + lo, s[idx], group

    def _orbit(self, x: float, symbols: np.ndarray) -> list:
        """The points after each of ``symbols`` from ``x``, as floats (1-D spaces).

        Each maximal run of symbols of one group goes through the group's
        ``orbit``.
        """
        owner = self._group_of.take(symbols)
        starts = np.concatenate(([0], (owner[1:] != owner[:-1]).nonzero()[0] + 1))
        ends = [*starts[1:].tolist(), symbols.size]
        symbols = symbols.tolist()
        out = []
        for lo, hi, g in zip(starts.tolist(), ends, owner[starts].tolist()):
            group = self._groups[g]
            out += group.orbit(x, symbols[lo:hi], *group.coefs)
            x = out[-1]
        return out

    def word_stream(self, seed: int, stream_id: int = 0) -> "WordStream":
        return WordStream(int(seed), int(stream_id), tuple(float(p) for p in self.probs))

    def params(self) -> dict:
        return {
            "name": self.name,
            "space": self.space,
            "probs": [float(p) for p in self.probs],
            "maps": [m.params() for m in self.maps],
        }

    def __repr__(self) -> str:
        label = self.name or "system"
        return f"SystemSpec<{label}: {self.n_maps} maps on {self.space}>"


_M64 = 1 << 64


@dataclass(frozen=True)
class WordStream:
    """A reproducible symbol stream keyed by (seed, stream_id).

    Counter-based (Philox), so distinct stream ids never overlap and the
    first n symbols are the same however they are consumed: draw(n) equals
    the concatenation of any block traversal.
    """

    seed: int
    stream_id: int
    probs: tuple

    def _rng(self) -> np.random.Generator:
        key = ((self.stream_id % _M64) << 64) | (self.seed % _M64)
        return np.random.Generator(np.random.Philox(key=key))

    def _symbols(self, u: np.ndarray) -> np.ndarray:
        """The int8 symbol of each uniform: how many cumulative probabilities
        below the last it reaches. Since u < 1 = cum[-1], this equals
        ``searchsorted(cum, u, side="right")``."""
        cum = np.cumsum(np.asarray(self.probs, dtype=float))[:-1]
        if cum.size == 0:
            return np.zeros(u.shape, dtype=np.int8)
        s = (u >= cum[0]).view(np.int8)
        for c in cum[1:]:
            s += (u >= c).view(np.int8)
        return s

    def draw(self, n: int) -> np.ndarray:
        """The first n symbols of this stream."""
        return self._symbols(self._rng().random(int(n)))

    def blocks(self, n_rows: int, width: int, max_elems: int = 1 << 17):
        """Yield (start_row, block) covering an (n_rows, width) symbol matrix.

        Rows are replica steps or replica indices depending on the caller;
        the matrix equals draw(n_rows * width).reshape(n_rows, width). A block
        holds at most ``max_elems`` uniforms (1 MB by default), one row if a
        row is wider; its size never changes a symbol.
        """
        rng = self._rng()
        rows = max(1, int(max_elems) // max(1, int(width)))
        start = 0
        while start < n_rows:
            m = min(rows, n_rows - start)
            yield start, self._symbols(rng.random((m, int(width))))
            start += m

    def rows(self, n_rows: int, width: int):
        """The rows of the (n_rows, width) symbol matrix of ``blocks``, one at a time."""
        for _, block in self.blocks(n_rows, width):
            yield from block

    def uniforms(self, n: int) -> np.ndarray:
        """Auxiliary uniform variates from the same keyed stream."""
        return self._rng().random(int(n))


def _resolve_word(system, word, n: int) -> np.ndarray:
    """The first n symbols of a WordStream, or of an explicit word checked
    against ``system.n_maps``."""
    if isinstance(word, WordStream):
        return word.draw(n)
    symbols = np.asarray(word, dtype=np.int64).reshape(-1)
    if symbols.size < n:
        raise ValueError(f"word of length {symbols.size} cannot drive {n} steps")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= system.n_maps):
        raise ValueError("word contains out-of-range symbols")
    return symbols[:n]


def iterate(system: SystemSpec, x0, word, n: int) -> np.ndarray:
    """Run n steps from x0 driven by a word or a WordStream.

    Returns the full orbit X_0..X_n: an (n+1,) array on the circle or the
    interval, (n+1, d) unit rows on projective space (x0 is normalised, and
    must have d coordinates, not all zero). This is the library's one
    single-orbit loop; it is bit-for-bit reproducible for equal inputs.

    On the circle and the interval each maximal run of symbols whose maps
    share a family table goes through that family's ``_orbit`` kernel. The
    word is stepped ``_ORBIT_BLOCK`` symbols at a time, so the kernels' lists
    of floats stay small; each block starts from the last point written.
    Maps without a table, projective ones included, step one call per symbol.
    """
    symbols = _resolve_word(system, word, n)
    x = _start_state(system, x0)
    points = np.empty((n + 1, *np.shape(x)), dtype=float)
    points[0] = x
    if system.space == PROJECTIVE:
        maps = system.maps
        for k, s in enumerate(symbols.tolist(), 1):
            x = maps[s](x)
            points[k] = x
        return points
    for b in range(0, n, _ORBIT_BLOCK):
        e = min(b + _ORBIT_BLOCK, n)
        points[b + 1 : e + 1] = system._orbit(float(points[b]), symbols[b:e])
    return points


def _start_state(system: SystemSpec, x0):
    """A starting point of ``system``: a float on the circle or the interval
    (not reduced), a unit vector of length ``system.dim`` on projective space."""
    if system.space == PROJECTIVE:
        return _as_unit_vector(x0, system.dim)
    return float(x0)


def _as_unit_vector(x0, dim: int) -> np.ndarray:
    v = np.asarray(x0, dtype=float).reshape(-1)
    if v.size != dim:
        raise ValueError(f"a projective start needs {dim} coordinates, got {v.size}")
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise ValueError("projective state cannot be the zero vector")
    return v / nrm


def _check_word_budget(system: SystemSpec, n: int, budget: int) -> None:
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    total = system.n_maps**n
    if total > budget:
        raise BudgetExceededError(
            f"exact enumeration needs N^n = {total} words, over the budget of {budget}; "
            "use Monte Carlo sampling instead"
        )


def word_matrix(system: SystemSpec, n: int, budget: int = WORD_BUDGET) -> np.ndarray:
    """All length-n words as an (N^n, n) int8 matrix in enumeration order
    (the first symbol most significant): the reference ``word_levels`` is
    tested against."""
    _check_word_budget(system, n, budget)
    nmaps = system.n_maps
    idx = np.arange(nmaps**n, dtype=np.int64)
    out = np.empty((idx.size, n), dtype=np.int8)
    for j in range(n):
        out[:, j] = (idx // (nmaps ** (n - 1 - j))) % nmaps
    return out


def word_levels(system: SystemSpec, n: int, budget: int = WORD_BUDGET):
    """The prefix tree of all length-n words, one level at a time.

    Yields ``(srow, weights)`` for k = 1..n. Level k lists the N^k words of
    length k in ``word_matrix`` order, so ``np.repeat(states, N)`` of the
    level k-1 states lines them up with level k, and stepping them under
    ``srow`` (the symbols 0..N-1 tiled N^(k-1) times, int8) applies each
    word's last symbol. ``weights`` are the words' probabilities, multiplied
    in symbol order from 1.0. Raises ``BudgetExceededError`` for N^n over
    ``budget`` on the call, before anything is allocated.
    """
    _check_word_budget(system, n, budget)
    return _levels(system.probs, n)


def _levels(probs: np.ndarray, n: int):
    symbols = np.arange(probs.size, dtype=np.int8)
    weights = np.ones(1)
    for _ in range(n):
        srow = np.tile(symbols, weights.size)
        weights = (weights[:, None] * probs).ravel()
        yield srow, weights


def ensemble_apply(system: SystemSpec, xs: np.ndarray, srow: np.ndarray, log_deriv=None):
    """Advance a vector of states one step under per-state symbols, in place.

    Each family table gathers its coefficients by symbol and evaluates its
    formula once over its states, chunk by chunk, with no mask when one
    table holds every map; a map without a table steps its own states.
    Elementwise arithmetic makes the result independent of the chunking and
    grouping: it equals stepping each map's states alone. When ``log_deriv`` is
    given it accumulates log |f'| evaluated before the move, so after n steps
    it holds sum_{k<n} log |f'_{i_{k+1}}(X_k)|.
    """
    for states, s, group in system._select(srow):
        xs[states], slope = group.step(xs[states], log_deriv is not None, *group.gather(s))
        if log_deriv is not None:
            log_deriv[states] += np.log(np.abs(slope))


def ensemble_apply_many(system: SystemSpec, arrays, srow: np.ndarray):
    """Advance several aligned state vectors under one shared symbol row."""
    for states, s, group in system._select(srow):
        row = group.gather(s)
        for a in arrays:
            a[states] = group.step(a[states], False, *row)[0]


def ensemble_steps(system: SystemSpec, stream: WordStream, n: int, width: int, states, log_deriv=None):
    """Step ensembles in place along the (n, width) symbol matrix of ``stream``.

    A generator: it yields k, the number of steps taken so far, before each
    step and once after the last (k = 0..n), so a caller reads its statistic
    of the states at each yield. ``states`` is a tuple of arrays of shape
    (..., width) on the circle and the interval, (..., width, d) on projective
    space, C-contiguous when they have leading axes. Column j follows replica
    j's word, so leading axes share one symbol row by broadcasting. ``log_deriv`` goes with a lone state array, has its
    shape and accumulates log |f'| before each move as in ``ensemble_apply``.

    When one coefficient table holds every map, its columns are gathered once
    per sub-block of at most ``_GATHER`` symbols and its ``_step`` writes each
    state array in place. The cap keeps the gathered columns, several times
    the symbols' size, from doubling a block's memory: a whole ``blocks``
    block of Moebius columns is 5 MB. Any other system makes each row's
    ``ensemble_apply`` (one array) or ``ensemble_apply_many`` call, on the
    arrays with their leading axes merged. Either way each state gets the
    bits of the per-row loop, since the arithmetic is elementwise.
    """
    groups = system._groups
    if len(groups) > 1 or groups[0].columns is None:
        yield from _row_steps(system, stream, n, width, states, log_deriv)
        return
    step, columns = groups[0].step, groups[0].columns
    per = max(1, _GATHER // width)
    slope = log_deriv is not None
    k = 0
    for _, block in stream.blocks(n, width):
        for lo in range(0, block.shape[0], per):
            for row in zip(*columns.take(block[lo : lo + per], axis=1)):
                yield k
                for a in states:
                    d = step(a, slope, *row, out=a)[1]
                if slope:
                    log_deriv += np.log(np.abs(d))
                k += 1
    yield k


def _row_steps(system: SystemSpec, stream: WordStream, n: int, width: int, states, log_deriv):
    """``ensemble_steps`` by one ``ensemble_apply`` or ``ensemble_apply_many``
    call per row, on views of the arrays with their leading axes merged."""
    lead = states[0].shape[: states[0].ndim - (2 if system.space == PROJECTIVE else 1)]
    flat = [a.reshape(-1, *a.shape[len(lead) + 1 :]) for a in states]
    ld = None if log_deriv is None else log_deriv.reshape(-1)
    k = 0
    for row in stream.rows(n, width):
        yield k
        srow = np.broadcast_to(row, (*lead, width)).reshape(-1)
        if len(flat) == 1:
            ensemble_apply(system, flat[0], srow, ld)
        else:
            ensemble_apply_many(system, flat, srow)
        k += 1
    yield k
