"""Phase spaces and metrics: the circle R/Z, the unit interval, real projective space.

Coordinates are plain floats (or arrays of them); points on projective space are
unit vectors with antipodes identified. Snowflake metrics d^alpha with
alpha in (0, 1] are applied on top of the base distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CIRCLE",
    "INTERVAL",
    "PROJECTIVE",
    "MetricKind",
    "reduce_circle",
    "coordinate_grid",
    "signed_circle_difference",
    "coordinate_distance",
    "circle_distance",
    "interval_distance",
    "projective_distance",
    "snowflake",
    "base_distance",
    "distance",
    "space_diameter",
]

CIRCLE = "circle"
INTERVAL = "interval"
PROJECTIVE = "projective"

_SPACES = (CIRCLE, INTERVAL, PROJECTIVE)


def reduce_circle(x):
    """Reduce a coordinate (or array) mod 1 into [0, 1). Idempotent.

    The second reduction folds the one float % can produce outside the
    contract: tiny negative inputs round up to exactly 1.0.
    """
    return (x % 1.0) % 1.0


def coordinate_grid(space: str, k: int) -> np.ndarray:
    """k equispaced coordinates of a 1-D space: j/k on the circle, where 1
    would repeat 0, and both endpoints of the interval."""
    return np.arange(k) / k if space == CIRCLE else np.linspace(0.0, 1.0, k)


def signed_circle_difference(d):
    """A difference of circle coordinates folded into [-1/2, 1/2): the signed
    shortest step on R/Z."""
    return (d + 0.5) % 1.0 - 0.5


def coordinate_distance(space: str, a, b):
    """|a - b| between coordinates (or arrays) of a 1-D space, folded to
    min(d, 1 - d) on the circle, where both must already lie in [0, 1).

    Symmetric bit-for-bit: both branches are symmetric expressions of a, b.
    """
    d = np.abs(np.asarray(a) - np.asarray(b))
    if space == CIRCLE:
        d = np.minimum(d, 1.0 - d)
    return float(d) if d.ndim == 0 else d


def circle_distance(x, y):
    """Arc distance on R/Z of any two coordinates; lands in [0, 1/2]."""
    return coordinate_distance(CIRCLE, np.asarray(x) % 1.0, np.asarray(y) % 1.0)


def interval_distance(x, y):
    """|x - y| on [0, 1]."""
    return coordinate_distance(INTERVAL, x, y)


def projective_distance(x, y):
    """Sine of the angle between lines: ||x ^ y|| for unit representatives.

    Equals |x1*y2 - x2*y1| in dimension 2, computed as sqrt(1 - <x,y>^2) in
    any dimension, which is antipode-invariant as required.
    """
    g = float(np.dot(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    return float(np.sqrt(max(0.0, 1.0 - g * g)))


def snowflake(dist, alpha: float):
    """Apply the snowflake transform d -> d**alpha, alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"snowflake exponent must lie in (0, 1], got {alpha}")
    return dist**alpha


def base_distance(space: str, x, y):
    """Distance in the named space, exponent 1."""
    if space == CIRCLE:
        return circle_distance(x, y)
    if space == INTERVAL:
        return interval_distance(x, y)
    if space == PROJECTIVE:
        return projective_distance(x, y)
    raise ValueError(f"unknown space {space!r}")


def space_diameter(space: str) -> float:
    if space == CIRCLE:
        return 0.5
    if space in (INTERVAL, PROJECTIVE):
        return 1.0
    raise ValueError(f"unknown space {space!r}")


@dataclass(frozen=True)
class MetricKind:
    """A base space plus a snowflake exponent alpha in (0, 1]."""

    base: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.base not in _SPACES:
            raise ValueError(f"unknown base space {self.base!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


def distance(kind: MetricKind, x, y):
    """Distance under a MetricKind: base distance, snowflaked."""
    d = base_distance(kind.base, x, y)
    if kind.alpha == 1.0:
        return d
    return snowflake(d, kind.alpha)
