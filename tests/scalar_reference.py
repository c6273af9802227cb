"""The per-map scalar closures that stepped single orbits before the orbit kernels.

``scalar_fn`` bodies are kept verbatim, one per family, so that tests can pin
``iterate``'s kernels to them bit for bit. Imported by test modules only.
"""

from __future__ import annotations

import math

import numpy as np

from rdsw.geometry import PROJECTIVE
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
