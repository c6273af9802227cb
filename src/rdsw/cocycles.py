"""Linear cocycles over an i.i.d. base: matrix products, exponents, projectivization.

Products are re-orthonormalized by QR every 16 steps, accumulating the log
diagonal of R; the exponent estimates are per-replica time averages of those
logs. The projectivized cocycle plugs straight into the 1-D toolkit (it is a
SystemSpec on the projective space), which is how the contraction-rate check
reuses the ball probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .synchronization import local_contraction_probe
from .systems import MAX_MAPS, ProjectiveMap, SystemSpec, WordStream, _square_matrix
from .util import ArgumentError, OverflowGuardError, RefusalError

__all__ = [
    "QR_BLOCK",
    "LOG_FLOOR",
    "CocycleSpec",
    "SpectrumEstimate",
    "LcVerification",
    "estimate_spectrum",
    "projective_system",
    "verify_lc_rate",
    "COCYCLE_GALLERY",
    "cocycle_gallery",
    "cocycle_gallery_ids",
]

QR_BLOCK = 16
LOG_FLOOR = -700.0
_SPECTRUM_BASE = 6 << 16


class CocycleSpec:
    """A finite family of invertible matrices with selection probabilities.

    A rejected input raises ``ValueError`` whose message starts with the
    argument at fault, ``matrices[i]: ...`` or ``probs: ...``.
    """

    def __init__(self, matrices, probs, name: str = ""):
        mats = []
        for i, a in enumerate(matrices):
            m = _square_matrix(f"matrices[{i}]", a)
            if mats and m.shape != mats[0].shape:
                raise ValueError(f"matrices[{i}]: all matrices must share one dimension, got {m.shape}")
            mats.append(m)
        if not mats:
            raise ValueError("matrices: need at least one matrix")
        if len(mats) > MAX_MAPS:
            raise ValueError(f"matrices: at most {MAX_MAPS} matrices (int8 symbols), got {len(mats)}")
        d = mats[0].shape[0]
        p = np.asarray(probs, dtype=float)
        if p.shape != (len(mats),):
            raise ValueError("probs: need exactly one probability per matrix")
        if np.any(p <= 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probs: probabilities must be positive and sum to 1")
        p.setflags(write=False)
        self.matrices = tuple(mats)
        self.probs = p
        self.name = name
        self.dim = d
        self.n_maps = len(mats)

    def word_stream(self, seed: int, stream_id: int = 0) -> WordStream:
        return WordStream(seed, stream_id, tuple(float(q) for q in self.probs))

    def expected_log_det(self) -> float:
        return float(
            sum(p * math.log(abs(np.linalg.det(m))) for p, m in zip(self.probs, self.matrices))
        )


@dataclass(frozen=True)
class SpectrumEstimate:
    """Lyapunov exponents in ascending order with per-exponent standard errors."""

    chis: np.ndarray
    stderr: np.ndarray
    gap_top: float
    q_lc: float
    n: int
    replicas: int


@dataclass(frozen=True)
class LcVerification:
    fraction: float
    q_target: float
    radius: float
    n: int
    replicas: int
    spectrum: SpectrumEstimate


def _reorth(b: np.ndarray, logs: np.ndarray):
    """QR re-orthonormalization step; accumulates log |diag R| into logs."""
    if not np.all(np.isfinite(b)):
        raise OverflowGuardError(
            "matrix product overflowed between re-orthonormalizations; "
            "per-map scales must keep 16-step blocks within double range"
        )
    q, r = np.linalg.qr(b)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(diag < math.exp(LOG_FLOOR)):
        raise OverflowGuardError(
            "matrix product underflowed the log-scale floor of -700 within one block"
        )
    logs += np.log(diag)
    return q


def estimate_spectrum(
    cocycle: CocycleSpec, n: int = 2000, replicas: int = 100, seed: int = 0
) -> SpectrumEstimate:
    """Replica-averaged Lyapunov spectrum from QR-accumulated products.

    chis come out ascending (chis[-1] is the top exponent); gap_top is the
    difference of the top two and q_lc = exp(-gap_top / 2) is the local
    contraction rate target implied by the gap.
    """
    if n < 1:
        raise ArgumentError(f"n: must be positive, got {n}")
    if replicas < 2:
        raise ArgumentError(f"replicas: must be at least 2, got {replicas}")
    d = cocycle.dim
    stream = cocycle.word_stream(seed, _SPECTRUM_BASE)
    mats = np.stack(cocycle.matrices)
    b = np.tile(np.eye(d), (replicas, 1, 1))
    logs = np.zeros((replicas, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for step, row in enumerate(stream.rows(n, replicas), 1):
            b = np.matmul(mats[row], b)
            if step % QR_BLOCK == 0:
                b = _reorth(b, logs)
        if n % QR_BLOCK:
            b = _reorth(b, logs)
    per = logs / n
    chis = per.mean(axis=0)[::-1].copy()
    stderr = (per.std(axis=0, ddof=1) / math.sqrt(replicas))[::-1].copy()
    gap_top = float(chis[-1] - chis[-2])
    return SpectrumEstimate(chis, stderr, gap_top, math.exp(-gap_top / 2.0), n, replicas)


def projective_system(cocycle: CocycleSpec) -> SystemSpec:
    """The projectivized cocycle as a SystemSpec on direction space, named ``<name>_projective``."""
    maps = tuple(ProjectiveMap(m) for m in cocycle.matrices)
    label = cocycle.name + "_projective" if cocycle.name else ""
    return SystemSpec(maps, tuple(float(q) for q in cocycle.probs), name=label)


def verify_lc_rate(
    cocycle: CocycleSpec,
    radius: float = 1e-3,
    n: int = 200,
    replicas: int = 256,
    seed: int = 0,
) -> LcVerification:
    """Check the projectivized cocycle contracts small balls at the gap rate.

    Runs the ball probe at q_target = (1 + q_lc) / 2, halfway between the
    spectral prediction and no contraction at all. Refuses when the top gap
    is not positive (an isometric or gapless cocycle has no rate to verify).
    The spectrum is estimated over 1000 steps and 64 replicas, and the ball
    is centered on the first coordinate axis.
    """
    est = estimate_spectrum(cocycle, 1000, 64, seed)
    if est.gap_top <= 1e-9:
        raise RefusalError(
            f"top Lyapunov gap {est.gap_top:.3e} is not positive; "
            "there is no contraction rate to verify"
        )
    q_target = (1.0 + est.q_lc) / 2.0
    center = np.zeros(cocycle.dim)
    center[0] = 1.0
    frac = local_contraction_probe(
        projective_system(cocycle), center, radius, n, replicas, q_target, seed
    )
    return LcVerification(float(frac), q_target, radius, n, replicas, est)


def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# id -> (builder, known facts); backs cocycle_gallery and the CLI listing
COCYCLE_GALLERY = {
    "diag_rot": (
        lambda: CocycleSpec([np.diag([2.0, 0.5]), _rotation_matrix(math.pi / 4.0)], (0.5, 0.5), name="diag_rot"),
        "diag(2, 1/2) and the 45-degree rotation, p = (1/2, 1/2); "
        "sum of exponents exactly 0; top exponent 0.1707 (golden value)",
    ),
    "single_hyperbolic": (
        lambda: CocycleSpec([np.array([[2.0, 1.0], [0.0, 0.5]])], (1.0,), name="single_hyperbolic"),
        "one triangular matrix [[2, 1], [0, 1/2]]; exponents exactly +/- log 2",
    ),
    "rotation_only": (
        lambda: CocycleSpec([_rotation_matrix(2.0 * math.pi * (math.sqrt(2.0) - 1.0))], (1.0,), name="rotation_only"),
        "one irrational rotation matrix; both exponents 0, "
        "no projective contraction (rate verification refuses)",
    ),
}


def cocycle_gallery(name: str) -> CocycleSpec:
    """Named cocycles used throughout the tests and the command line."""
    if name not in COCYCLE_GALLERY:
        raise KeyError(f"unknown cocycle {name!r}; known ids: {sorted(COCYCLE_GALLERY)}")
    return COCYCLE_GALLERY[name][0]()


def cocycle_gallery_ids() -> tuple[str, ...]:
    return tuple(COCYCLE_GALLERY)
