"""Named example systems with known exact facts, for tests and the CLI.

Each entry is constructed fresh per call (instances are cheap and immutable in
practice). ``gallery_facts`` backs the CLI listing.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CIRCLE, distance
from .systems import AffineMap, MoebiusMap, PerturbedRotation, Rotation, SystemSpec

__all__ = ["gallery", "gallery_ids", "gallery_facts", "ANTON_AMP"]

# Amplitude of the sin(4 pi x) perturbation used by the "anton" triple. The
# derivative is 1 + 4*pi*a*cos(4 pi x), so a < 1/(4 pi) ~ 0.0796 keeps every
# member an orientation-preserving diffeomorphism; 0.06 sits comfortably inside
# while keeping the attracting/repelling structure at the fixed points.
ANTON_AMP = 0.06


def _binary_affine() -> SystemSpec:
    maps = (AffineMap(0.5, 0.0), AffineMap(0.5, 0.5))
    return SystemSpec(maps, (0.5, 0.5), name="binary_affine")


def _slope_pair() -> SystemSpec:
    maps = (AffineMap(0.5, 0.0), AffineMap(0.25, 0.75))
    return SystemSpec(maps, (0.5, 0.5), name="slope_pair")


def _anton() -> SystemSpec:
    amp = 4.0 * math.pi * ANTON_AMP
    f1 = PerturbedRotation(0.0, amp, harmonic=2, phase=0.0)
    # f2(x) = f1(x - 1/8) + 1/8 = x - a sin(4 pi x + pi) ... = x - a cos? No:
    # sin(4 pi (x - 1/8)) = sin(4 pi x - pi/2) = -cos(4 pi x), so f2 is the
    # same family member with phase -pi/2.
    f2 = PerturbedRotation(0.0, amp, harmonic=2, phase=-0.5 * math.pi)
    f3 = Rotation(0.5)
    sys = SystemSpec((f1, f2, f3), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), name="anton")
    _verify_anton(sys)
    return sys


def _verify_anton(sys: SystemSpec):
    """Design conditions checked at load: fixed points, slopes, invariant arcs."""
    f1, f2, f3 = sys.maps
    for x in (0.0, 0.25, 0.5, 0.75):
        if distance(CIRCLE, float(f1(x)), x) > 1e-12:
            raise AssertionError(f"f1 must fix {x}")
    for x in (0.125, 0.375, 0.625, 0.875):
        if distance(CIRCLE, float(f2(x)), x) > 1e-12:
            raise AssertionError(f"f2 must fix {x}")
    # f1: repelling at 0 and 1/2, attracting at 1/4 and 3/4
    if not (f1.deriv(0.0) > 1.0 and f1.deriv(0.5) > 1.0):
        raise AssertionError("f1 must repel at 0 and 1/2")
    if not (f1.deriv(0.25) < 1.0 and f1.deriv(0.75) < 1.0):
        raise AssertionError("f1 must attract at 1/4 and 3/4")
    # the arcs [1/4, 3/8] and [3/4, 7/8] are invariant under f1 and f2 and
    # swapped by the half rotation; endpoint containment plus monotonicity
    # gives arc invariance.
    for f in (f1, f2):
        for lo, hi in ((0.25, 0.375), (0.75, 0.875)):
            ylo, yhi = float(f(lo)), float(f(hi))
            if not (lo - 1e-12 <= ylo <= hi + 1e-12 and lo - 1e-12 <= yhi <= hi + 1e-12):
                raise AssertionError(f"{f!r} must keep [{lo}, {hi}] inside itself")
    if distance(CIRCLE, float(f3(0.25)), 0.75) > 1e-12:
        raise AssertionError("f3 must swap the two arcs")


def _two_rotations() -> SystemSpec:
    maps = (Rotation(math.sqrt(2.0) - 1.0), Rotation(math.sqrt(3.0) - 1.0))
    return SystemSpec(maps, (0.5, 0.5), name="two_rotations")


def _moebius_pair() -> SystemSpec:
    lam = 1.3
    hyp = np.array([[lam, 0.0], [0.0, 1.0 / lam]])
    th = math.pi / 5.0
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    maps = (MoebiusMap(hyp), MoebiusMap(rot @ hyp @ rot.T))
    return SystemSpec(maps, (0.5, 0.5), name="moebius_pair")


# id -> (builder, construction, known facts); backs gallery and the CLI listing
_GALLERY = {
    "binary_affine": (
        _binary_affine,
        "{x/2, (x+1)/2} on [0,1], p = (1/2, 1/2)",
        "stationary = Lebesgue; sync rate = -log 2; gamma = -log 2; "
        "sigma2(coordinate) = 1/4; Ulam smooth-probe decay rate 1/2",
    ),
    "slope_pair": (
        _slope_pair,
        "{x/2, x/4 + 3/4} on [0,1], p = (1/2, 1/2)",
        "gamma = -(3/2) log 2; binomial large-deviation probabilities exactly enumerable",
    ),
    "anton": (
        _anton,
        "two sin(4 pi x) perturbations of identity (amp 0.06) plus the half rotation, p = (1/3, 1/3, 1/3)",
        "non-proximal, hence not synchronizing: arcs [1/4,3/8] and "
        "[3/4,7/8] are invariant for the first two maps and swapped by the "
        "third, so pairs started across them never get closer than 3/8; "
        "local contraction still holds around every point",
    ),
    "two_rotations": (
        _two_rotations,
        "rotations by sqrt(2)-1 and sqrt(3)-1, p = (1/2, 1/2)",
        "isometric: pair distances constant, sync rate exactly 0; stationary = Lebesgue",
    ),
    "moebius_pair": (
        _moebius_pair,
        "hyperbolic Moebius map diag(1.3, 1/1.3) and its conjugate by a pi/5 rotation, p = (1/2, 1/2)",
        "smooth synchronizing pair; distinct axes so no common invariant measure",
    ),
}


def gallery(name: str) -> SystemSpec:
    """Build a named example system."""
    if name not in _GALLERY:
        known = ", ".join(sorted(_GALLERY))
        raise KeyError(f"unknown gallery id {name!r}; known ids: {known}")
    return _GALLERY[name][0]()


def gallery_ids() -> list[str]:
    return sorted(_GALLERY)


def gallery_facts() -> list[dict]:
    """Identifier, construction summary, and known exact facts per entry."""
    return [{"id": gid, "system": system, "facts": facts} for gid, (_, system, facts) in _GALLERY.items()]
