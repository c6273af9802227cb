"""Empirical measures on the phase spaces, stationary estimates, and W1 distances.

Measures are finite atom lists with positive weights summing to 1. Stationary
measures are estimated by occupation along seeded orbits; W1 has closed-form
evaluators on the interval (CDF sweep) and the circle (optimal rotation of the
CDF difference via a weighted median).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CIRCLE, INTERVAL, PROJECTIVE, coordinate_grid, distance, signed_circle_difference
from .systems import SystemSpec, WordStream, iterate
from .util import ArgumentError, RefusalError, parallel_map, weighted_median

__all__ = [
    "EmpiricalMeasure",
    "AtomDiagnostic",
    "estimate_stationary",
    "resample",
    "wasserstein1",
    "atom_diagnostic",
    "uniform_grid",
]

# stream id layout: (op base << 16) | shard
_STATIONARY_BASE = 1 << 16
_RESAMPLE_BASE = 2 << 16
# shard j draws stream _STATIONARY_BASE + j, so more shards would reach _RESAMPLE_BASE
MAX_SHARDS = 1 << 16
# the atom diagnostic's fixed conventions: ball radius and Dirac mass threshold
_BALL_RADIUS = 1e-3
_DIRAC_MASS = 0.99


class EmpiricalMeasure:
    """Finitely many weighted atoms on one phase space.

    atoms: (n,) float array for circle/interval coordinates, (n, d) unit rows
    for projective space. weights: positive, sum 1 within 1e-10 (uniform when
    omitted).
    """

    def __init__(self, atoms, weights=None, space: str = INTERVAL):
        atoms = np.asarray(atoms, dtype=float)
        if space in (CIRCLE, INTERVAL):
            atoms = atoms.reshape(-1)
        elif space == PROJECTIVE:
            if atoms.ndim != 2:
                raise ValueError("projective atoms must be an (n, d) array")
        else:
            raise ValueError(f"unknown space {space!r}")
        n = atoms.shape[0]
        if n == 0:
            raise ValueError("a measure needs at least one atom")
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=float).reshape(-1)
            if weights.shape[0] != n:
                raise ValueError("weights must align with atoms")
            if np.any(weights <= 0.0):
                raise ValueError("weights must be positive")
            if abs(float(weights.sum()) - 1.0) > 1e-10:
                raise ValueError(f"weights must sum to 1 within 1e-10, got {weights.sum()!r}")
        if space == CIRCLE:
            atoms = atoms % 1.0
        if space == INTERVAL and (atoms.min() < 0.0 or atoms.max() > 1.0):
            raise ValueError("interval atoms must lie in [0, 1]")
        atoms.setflags(write=False)
        weights = np.array(weights, dtype=float)
        weights.setflags(write=False)
        self.atoms = atoms
        self.weights = weights
        self.space = space

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.shape[0])

    def mean_of(self, fn) -> float:
        """Integral of a function against the measure."""
        return float(np.sum(np.asarray(fn(self.atoms), dtype=float) * self.weights))

    def __repr__(self) -> str:
        return f"EmpiricalMeasure<{self.n_atoms} atoms on {self.space}>"


def uniform_grid(k: int, space: str = INTERVAL) -> EmpiricalMeasure:
    """k equally weighted atoms at cell midpoints (j + 1/2)/k.

    The W1 distance to true Lebesgue is at most 1/(4k), so this is the
    standard stand-in when comparing occupation measures to Lebesgue.
    """
    if k < 1:
        raise ValueError("k must be positive")
    pts = (np.arange(k) + 0.5) / k
    return EmpiricalMeasure(pts, None, space)


def _default_x0(system: SystemSpec):
    if system.space == PROJECTIVE:
        probe = np.zeros(system.dim)
        probe[0] = 1.0
        return probe
    return 0.5


def estimate_stationary(
    system: SystemSpec,
    burn_in: int = 1000,
    samples: int = 100_000,
    seed: int = 0,
    x0=None,
    shards: int = 1,
    threads: int = 1,
) -> EmpiricalMeasure:
    """Occupation measure of seeded orbits after burn-in, equal weights.

    One long orbit by default. With shards > 1 (at most ``MAX_SHARDS``) the
    samples are split over that many independent orbits (shard j draws
    stream ``(1 << 16) + j``) and merged by concatenation in shard order, so
    the result depends on (seed, shards) but never on thread count. x0 defaults to 0.5
    (first basis direction on projective space); burn_in makes the choice
    immaterial.
    """
    if samples < 1:
        raise ArgumentError(f"samples: must be positive, got {samples}")
    if not 1 <= shards <= MAX_SHARDS:
        raise ArgumentError(f"shards: must lie in [1, MAX_SHARDS = {MAX_SHARDS}], got {shards}")
    if burn_in < 0:
        raise ArgumentError(f"burn_in: cannot be negative, got {burn_in}")
    start = _default_x0(system) if x0 is None else x0
    per = [samples // shards + (1 if j < samples % shards else 0) for j in range(shards)]

    def run_shard(j: int) -> np.ndarray:
        stream = system.word_stream(seed, _STATIONARY_BASE + j)
        return iterate(system, start, stream, burn_in + per[j])[burn_in + 1 :]

    chunks = parallel_map(run_shard, range(shards), threads=threads)
    pts = np.concatenate([c for c in chunks if c.shape[0]])
    return EmpiricalMeasure(pts, None, system.space)


def resample(m: EmpiricalMeasure, n: int, seed: int = 0) -> EmpiricalMeasure:
    """Systematic resampling to n equally weighted atoms (deterministic per seed)."""
    stream = WordStream(int(seed), _RESAMPLE_BASE, (1.0,))
    u0 = float(stream.uniforms(1)[0]) / n
    targets = u0 + np.arange(n) / n
    cw = np.cumsum(m.weights)
    cw[-1] = 1.0
    idx = np.searchsorted(cw, targets, side="right")
    idx = np.minimum(idx, m.n_atoms - 1)
    return EmpiricalMeasure(m.atoms[idx], None, m.space)


def wasserstein1(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """W1 distance between two measures on the same interval or circle.

    Interval: integral of |F_a - F_b| by a signed-weight merge sweep, exact
    for atomic measures. Circle: the transport cost is min_t integral of
    |F_a - F_b - t|, and the optimal t is a weighted median of the piecewise
    constant CDF difference weighted by segment length.
    """
    if a.space != b.space:
        raise ValueError("measures live on different spaces")
    if a.space == PROJECTIVE:
        raise RefusalError("wasserstein1 supports circle and interval measures only")
    pos = np.concatenate([a.atoms, b.atoms])
    jump = np.concatenate([a.weights, -b.weights])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    jump = jump[order]
    g = np.cumsum(jump)
    if a.space == INTERVAL:
        return float(np.sum(np.abs(g[:-1]) * np.diff(pos)))
    seg = np.diff(pos, append=pos[0] + 1.0)
    t = weighted_median(g, seg)
    return float(np.sum(np.abs(g - t) * seg))


@dataclass(frozen=True)
class AtomDiagnostic:
    """Outcome of the atom-vs-continuity probe for an estimated measure."""

    verdict: str
    common_fixed_points: tuple
    max_ball_mass: float
    ball_threshold: float
    effective_sample: float


def _injectivity_probe(system: SystemSpec, points: int = 1024):
    g = coordinate_grid(system.space, points)
    for m in system.maps:
        dy = np.diff(np.asarray(m(g), dtype=float))
        if system.space == CIRCLE:
            dy = signed_circle_difference(dy)
        if not (np.all(dy >= -1e-9) or np.all(dy <= 1e-9)):
            raise RefusalError(
                f"atom diagnostic requires injective maps; {m!r} is not monotone "
                "on the probe grid"
            )


def _common_fixed_points(system: SystemSpec, points: int = 4096) -> tuple:
    circle = system.space == CIRCLE
    g = coordinate_grid(system.space, points)
    f0 = system.maps[0]

    def disp(x):
        d = np.asarray(f0(x), dtype=float) - np.asarray(x, dtype=float)
        if circle:
            d = signed_circle_difference(d)
        return d

    vals = disp(g)
    candidates = [float(g[i]) for i in np.nonzero(np.abs(vals) < 1e-12)[0]]
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    for i in sign_change:
        lo, hi = float(g[i]), float(g[i + 1])
        flo = float(disp(lo))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = float(disp(mid))
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        candidates.append(0.5 * (lo + hi))
    if not circle:
        for edge in (0.0, 1.0):
            if abs(float(disp(edge))) < 1e-12:
                candidates.append(edge)
    common = []
    for x in candidates:
        if all(distance(system.space, float(f(x)), x) < 1e-9 for f in system.maps):
            if not any(distance(system.space, x, y) < 1e-9 for y in common):
                common.append(x)
    return tuple(sorted(common))


def _max_ball_mass(m: EmpiricalMeasure, radius: float) -> float:
    order = np.argsort(m.atoms, kind="stable")
    pts = m.atoms[order]
    wts = m.weights[order]
    if m.space == CIRCLE:
        pts = np.concatenate([pts, pts + 1.0])
        wts = np.concatenate([wts, wts])
    cw = np.concatenate([[0.0], np.cumsum(wts)])
    right = np.searchsorted(pts, pts[: m.n_atoms] + 2.0 * radius, side="right")
    mass = cw[right] - cw[np.arange(m.n_atoms)]
    return float(mass.max())


def atom_diagnostic(system: SystemSpec, m: EmpiricalMeasure) -> AtomDiagnostic:
    """Classify an estimated stationary measure as a common-fixed-point Dirac,
    consistent with nonatomic, or inconclusive.

    Dirac: at least 0.99 of the weight within 1e-3 of a point fixed by
    every map. Nonatomic-consistent: the largest ball of that radius
    carries no more than 5 times the uniform expectation plus three binomial
    standard deviations. The binomial test needs expected ball count
    n_eff * p >= 5 (n_eff = 1 / sum w_i^2); below that the verdict is
    inconclusive. Systems with non-injective maps are refused.
    """
    if m.space != system.space:
        raise ValueError("measure and system live on different spaces")
    if m.space == PROJECTIVE:
        raise RefusalError("atom diagnostic covers circle and interval systems only")
    _injectivity_probe(system)
    fixed = _common_fixed_points(system)
    n_eff = 1.0 / float(np.sum(m.weights**2))
    for x in fixed:
        mass = float(np.sum(m.weights[distance(m.space, m.atoms, x) <= _BALL_RADIUS]))
        if mass >= _DIRAC_MASS:
            return AtomDiagnostic("dirac_at_common_fixed_point", fixed, mass, _DIRAC_MASS, n_eff)
    p_ball = min(1.0, 2.0 * _BALL_RADIUS)
    if n_eff * p_ball < 5.0:
        return AtomDiagnostic("inconclusive", fixed, float("nan"), float("nan"), n_eff)
    thr = 5.0 * (p_ball + 3.0 * np.sqrt(p_ball * (1.0 - p_ball) / n_eff))
    top = _max_ball_mass(m, _BALL_RADIUS)
    verdict = "nonatomic_consistent" if top <= thr else "inconclusive"
    return AtomDiagnostic(verdict, fixed, top, float(thr), n_eff)
