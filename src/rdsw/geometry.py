"""Phase spaces and their distances: the circle R/Z, the unit interval, real projective space.

Coordinates are plain floats (or arrays of them); points on projective space are
unit vectors with antipodes identified. ``distance`` is the one pair-distance
formula of each space, for a single pair or a whole ensemble.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CIRCLE",
    "INTERVAL",
    "PROJECTIVE",
    "mod1",
    "coordinate_grid",
    "signed_circle_difference",
    "distance",
]

CIRCLE = "circle"
INTERVAL = "interval"
PROJECTIVE = "projective"


def mod1(x, out=None):
    """x % 1.0 bit for bit (a float's fraction is exact, and x - floor(x) rounds
    1 - f as fmod(x, 1) + 1 does), without numpy's slow remainder loop.

    The circle's one reduction into [0, 1). Like x % 1.0 it returns 1.0 for a
    negative x within half an ulp of 1 below an integer. With ``out`` it writes
    the result there, which may be ``x`` itself.
    """
    return np.subtract(x, np.floor(x), out=out)


def coordinate_grid(space: str, k: int) -> np.ndarray:
    """k equispaced coordinates of a 1-D space: j/k on the circle, where 1
    would repeat 0, and both endpoints of the interval."""
    return np.arange(k) / k if space == CIRCLE else np.linspace(0.0, 1.0, k)


def signed_circle_difference(d):
    """A difference of circle coordinates folded into [-1/2, 1/2): the signed
    shortest step on R/Z."""
    return mod1(d + 0.5) - 0.5


def distance(space: str, a, b):
    """Distance between points a and b of a space, or between aligned arrays of them.

    Circle: any reals, each reduced by ``mod1``, then the shorter arc
    min(d, 1 - d), in [0, 1/2]. Interval: |a - b|. Projective: unit
    representatives along the last axis, and the sine of the angle between
    their lines as the wedge norm sqrt(sum_{i<j} (a_i b_j - a_j b_i)^2). It
    does not cancel for nearly equal lines, as sqrt(1 - <a, b>^2) does below
    about 1.5e-8, and an antipode only flips the sign of each term. The terms
    are summed elementwise in a fixed order, so a pair measured alone and the
    same pair as a row of an ensemble get the same bits.

    Symmetric bit for bit in a and b. A single pair gives a float.
    """
    if space == CIRCLE:
        d = np.abs(mod1(a) - mod1(b))
        d = np.minimum(d, 1.0 - d)
    elif space == INTERVAL:
        d = np.abs(np.subtract(a, b))
    elif space == PROJECTIVE:
        a, b = np.asarray(a), np.asarray(b)
        d = 0.0
        for i in range(a.shape[-1]):
            for j in range(i + 1, a.shape[-1]):
                w = a[..., i] * b[..., j] - a[..., j] * b[..., i]
                d = d + w * w
        d = np.sqrt(d)
    else:
        raise ValueError(f"unknown space {space!r}")
    return float(d) if d.ndim == 0 else d
