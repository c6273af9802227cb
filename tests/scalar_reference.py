"""Frozen formulas that tests pin the map families' evaluators to, bit for bit.

``scalar_fn`` bodies are the per-map scalar closures that stepped single
orbits before the orbit kernels, kept verbatim, one per family, so that tests
can pin ``iterate``'s kernels to them. ``numpy_formula`` gives the numpy
formula of each coefficient-table family as ``_arg``, ``_image_at`` and
``_slope_at`` stated it before ``_step`` replaced the three, bodies verbatim,
so that tests can pin ``__call__``, ``deriv`` and the ensemble step to it.
Imported by test modules only.
"""

from __future__ import annotations

import math

import numpy as np

from rdsw.geometry import PROJECTIVE, mod1
from rdsw.systems import AffineMap, MoebiusMap, PerturbedRotation, Rotation, _start_state


def scalar_fn(m):
    """A plain-float closure that applies the map ``m`` once."""
    if isinstance(m, AffineMap):
        a, b = m.a, m.b
        return lambda x: min(1.0, max(0.0, a * x + b))
    if isinstance(m, Rotation):
        c = m.c
        return lambda x: (x + c) % 1.0
    if isinstance(m, PerturbedRotation):
        c, k, w, _, ph = m.table_row()
        return lambda x: (x + c + k * math.sin(w * x + ph)) % 1.0
    if isinstance(m, MoebiusMap):
        m00, m01, m10, m11, _ = m.table_row()
        pi = math.pi

        def f(x):
            th = pi * x
            c, s = math.cos(th), math.sin(th)
            return (math.atan2(m10 * c + m11 * s, m00 * c + m01 * s) / pi) % 1.0

        return f
    return m.__call__


def scalar_orbit(system, x0, symbols) -> np.ndarray:
    """The orbit X_0..X_n under ``symbols``, one closure call and one array write per step."""
    x = _start_state(system, x0)
    points = np.empty((len(symbols) + 1, *np.shape(x)), dtype=float)
    points[0] = x
    fns = system.maps if system.space == PROJECTIVE else [scalar_fn(m) for m in system.maps]
    for k, s in enumerate(symbols):
        x = fns[s](x)
        points[k + 1] = x
    return points


def _affine_arg(x, a, b):
    return None


def _affine_image_at(x, t, a, b):
    return np.minimum(1.0, np.maximum(0.0, a * x + b))


def _affine_slope_at(x, t, a, b):
    return np.full_like(x, a)


def _rotation_arg(x, c, k, w, amp, phase):
    return w * x + phase


def _rotation_image_at(x, t, c, k, w, amp, phase):
    return mod1(x + c + k * np.sin(t))


def _rotation_slope_at(x, t, c, k, w, amp, phase):
    return 1.0 + amp * np.cos(t)


def _moebius_arg(x, m00, m01, m10, m11, det):
    th = math.pi * x
    c, s = np.cos(th), np.sin(th)
    return m00 * c + m01 * s, m10 * c + m11 * s


def _moebius_image_at(x, uv, *row):
    u, v = uv
    return mod1(np.arctan2(v, u) / math.pi)


def _moebius_slope_at(x, uv, m00, m01, m10, m11, det):
    u, v = uv
    return det / (u * u + v * v)


def numpy_formula(m):
    """``(image, slope)`` of the table map ``m``: functions of a float array,
    each evaluating the family's shared part and finishing from it."""
    if isinstance(m, AffineMap):
        arg, image_at, slope_at = _affine_arg, _affine_image_at, _affine_slope_at
    elif isinstance(m, (Rotation, PerturbedRotation)):
        arg, image_at, slope_at = _rotation_arg, _rotation_image_at, _rotation_slope_at
    elif isinstance(m, MoebiusMap):
        arg, image_at, slope_at = _moebius_arg, _moebius_image_at, _moebius_slope_at
    else:
        raise TypeError(f"{m!r} has no coefficient table")
    row = m.table_row()
    return (
        lambda x: image_at(x, arg(x, *row), *row),
        lambda x: slope_at(x, arg(x, *row), *row),
    )
