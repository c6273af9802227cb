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
    "ProjectivePoint",
    "MetricKind",
    "reduce_circle",
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
    vx = x.vec if isinstance(x, ProjectivePoint) else np.asarray(x, dtype=float)
    vy = y.vec if isinstance(y, ProjectivePoint) else np.asarray(y, dtype=float)
    g = float(np.dot(vx, vy))
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


class ProjectivePoint:
    """A line through the origin in R^d, 2 <= d <= 8.

    Stored as a unit vector with a sign convention (first component of
    magnitude above 1e-12 is positive) so that v and -v compare equal.
    """

    __slots__ = ("vec",)

    def __init__(self, vec):
        v = np.array(vec, dtype=float).reshape(-1)
        if not 2 <= v.size <= 8:
            raise ValueError(f"projective dimension must be 2..8, got {v.size}")
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            raise ValueError("cannot projectivize the zero vector")
        v = v / norm
        for c in v:
            if abs(c) > 1e-12:
                if c < 0:
                    v = -v
                break
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return int(self.vec.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and np.array_equal(self.vec, other.vec)

    def __hash__(self) -> int:
        return hash(self.vec.tobytes())

    def __repr__(self) -> str:
        return f"ProjectivePoint({self.vec.tolist()})"


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
