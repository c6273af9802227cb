"""Ulam discretization of the transfer and Laplace-Markov operators.

Cell-image overlaps are computed exactly for monotone 1-D maps from endpoint
preimages (no quadrature error); non-monotone tabulated maps fall back to a
64-sample midpoint rule and are flagged. The discrete spectral gap together
with grid decay of iterated observables is the library's stand-in for
quasi-compactness on Holder spaces, which no finite matrix can certify.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import CIRCLE, PROJECTIVE
from .systems import (
    SystemSpec,
    TabulatedMap,
    _mean_log_deriv,
    _require_derivatives,
    ensemble_apply,
    ensemble_steps,
    word_levels,
)
from .util import ArgumentError, RefusalError, fmt

__all__ = [
    "UlamOperator",
    "LeadingEigen",
    "SpectralGap",
    "DecayEstimate",
    "QnIdentity",
    "build_transfer_ulam",
    "build_laplace_markov",
    "leading_eigen",
    "spectral_gap",
    "subleading_decay",
    "qn_identity_test",
    "log_deriv_integral",
]

MAX_CELLS = 1 << 16
DENSE_LIMIT = 2048
QUAD_SAMPLES = 64
_QN_BASE = 7 << 16


@dataclass(frozen=True)
class UlamOperator:
    """Row-stochastic discretization on k equal cells (or N symbol copies).

    kind is "transfer" for P on the phase space and "laplace_markov" for Q on
    symbol-by-cell pairs; blocks is the number of symbol copies (1 for P).
    quadrature_maps lists map indices whose overlaps needed the sampled
    fallback; exact rows have no quadrature error at all.
    """

    matrix: sp.csr_matrix
    k_cells: int
    space: str
    kind: str
    blocks: int
    quadrature_maps: tuple

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.k_cells) + 0.5) / self.k_cells

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).reshape(-1)

    def to_dense(self) -> np.ndarray:
        if self.size > DENSE_LIMIT:
            raise ValueError(f"dense form limited to {DENSE_LIMIT} rows, have {self.size}")
        return self.matrix.toarray()

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Function-side action (Ph)(cell) = sum_b M[a,b] h[b]."""
        return self.matrix @ np.asarray(h, dtype=float)

    def push(self, w: np.ndarray) -> np.ndarray:
        """Measure-side action (adjoint): row weights to column weights."""
        return np.asarray(w, dtype=float) @ self.matrix

    def to_coo_text(self) -> str:
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = [
            f"{int(coo.row[i])} {int(coo.col[i])} {fmt(coo.data[i])}" for i in order
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LeadingEigen:
    eigenvalue: float
    weights: np.ndarray
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SpectralGap:
    moduli: np.ndarray
    gap: float
    method: str


@dataclass(frozen=True)
class DecayEstimate:
    """Per-step geometric factor of sup |P^m h - (integral of h)| on the grid.

    rate is the median step ratio over the usable window. For cell-aligned
    self-similar systems the raw matrix is nilpotent off the stationary
    direction (the dense spectrum collapses to 0 after log2 k steps), while
    smooth observables still decay at the operator's smooth-space subleading
    eigenvalue; this estimator reports that rate, which is the meaningful
    lambda_2 surrogate whenever the matrix spectrum degenerates.
    """

    rate: float
    ratios: np.ndarray
    window: int


@dataclass(frozen=True)
class QnIdentity:
    kernel_value: float
    monte_carlo_value: float
    stderr: float
    z_score: float
    passed: bool


def _check_cells(k_cells: int):
    if k_cells < 2 or k_cells & (k_cells - 1) or k_cells > MAX_CELLS:
        raise ArgumentError(f"k_cells: must be a power of two in [2, {MAX_CELLS}], got {k_cells}")


def _pieces_interval(m, k: int):
    """Partition [0,1] into preimage pieces (start, end, target cell)."""
    bounds = np.arange(k + 1) / k
    xinv = np.asarray(m.inverse_grid(bounds), dtype=float)
    cols = np.arange(k)
    if xinv[0] > xinv[-1]:
        xinv = xinv[::-1]
        cols = cols[::-1]
    return xinv[:-1], xinv[1:], cols


def _pieces_circle(m, k: int):
    """Preimage arcs of the k circle cells, split at the single wrap point."""
    levels = np.arange(k) / k
    x = np.asarray(m.inverse_grid(levels), dtype=float) % 1.0
    starts = x
    ends = np.roll(x, -1)
    cols = np.arange(k)
    wrap = ends < starts
    plain = ~wrap
    pb = [starts[plain]]
    pe = [ends[plain]]
    pc = [cols[plain]]
    if wrap.any():
        pb.append(starts[wrap])
        pe.append(np.ones(int(wrap.sum())))
        pc.append(cols[wrap])
        pb.append(np.zeros(int(wrap.sum())))
        pe.append(ends[wrap])
        pc.append(cols[wrap])
    return np.concatenate(pb), np.concatenate(pe), np.concatenate(pc)


def _overlap_matrix(pb, pe, cols, k: int) -> sp.csr_matrix:
    """Exact row-normalized overlaps of cells with preimage pieces."""
    keep = pe > pb
    pb, pe, cols = pb[keep], pe[keep], cols[keep]
    a_lo = np.clip(np.floor(pb * k).astype(np.int64), 0, k - 1)
    a_hi = np.clip(-np.floor(-pe * k).astype(np.int64) - 1, 0, k - 1)
    a_hi = np.maximum(a_hi, a_lo)
    counts = a_hi - a_lo + 1
    total = int(counts.sum())
    offs = np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.repeat(a_lo, counts) + (np.arange(total) - offs)
    pcols = np.repeat(cols, counts)
    pbr = np.repeat(pb, counts)
    per = np.repeat(pe, counts)
    vals = np.maximum(
        0.0, np.minimum(per, (rows + 1) / k) - np.maximum(pbr, rows / k)
    ) * k
    mat = sp.coo_matrix((vals, (rows, pcols)), shape=(k, k))
    return mat.tocsr()


def _quadrature_matrix(m, k: int, space: str) -> sp.csr_matrix:
    offs = (np.arange(QUAD_SAMPLES) + 0.5) / QUAD_SAMPLES / k
    xs = (np.repeat(np.arange(k) / k, QUAD_SAMPLES) + np.tile(offs, k)).reshape(-1)
    ys = np.asarray(m(xs), dtype=float)
    if space == CIRCLE:
        b = np.floor((ys % 1.0) * k).astype(np.int64) % k
    else:
        b = np.clip(np.floor(ys * k).astype(np.int64), 0, k - 1)
    rows = np.repeat(np.arange(k), QUAD_SAMPLES)
    mat = sp.coo_matrix(
        (np.full(rows.size, 1.0 / QUAD_SAMPLES), (rows, b)), shape=(k, k)
    )
    return mat.tocsr()


def _map_overlaps(m, k: int, space: str):
    """(matrix, used_quadrature) for one map."""
    if isinstance(m, TabulatedMap) and not m.monotone:
        warnings.warn(
            f"non-monotone tabulated map: Ulam overlaps use {QUAD_SAMPLES}-sample "
            "quadrature instead of exact endpoint preimages",
            RuntimeWarning,
            stacklevel=4,
        )
        return _quadrature_matrix(m, k, space), True
    if space == CIRCLE:
        pb, pe, cols = _pieces_circle(m, k)
    else:
        pb, pe, cols = _pieces_interval(m, k)
    return _overlap_matrix(pb, pe, cols, k), False


def _ulam_overlaps(system: SystemSpec, k_cells: int):
    """Both Ulam builders' prologue: each map's overlap matrix, and the
    indices of the maps whose overlaps needed quadrature."""
    _check_cells(k_cells)
    if system.space == PROJECTIVE:
        raise RefusalError("Ulam discretization is defined for 1-D phase spaces")
    ts, quad = [], []
    for i, m in enumerate(system.maps):
        t, used_quad = _map_overlaps(m, k_cells, system.space)
        ts.append(t)
        if used_quad:
            quad.append(i)
    return ts, tuple(quad)


def _validate_rows(mat: sp.csr_matrix, label: str):
    sums = np.asarray(mat.sum(axis=1)).reshape(-1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > 1e-10:
        raise RuntimeError(f"{label} rows deviate from stochasticity by {worst:.3e}")
    if mat.nnz and float(mat.data.min()) < 0.0:
        raise RuntimeError(f"{label} has negative entries")


def build_transfer_ulam(system: SystemSpec, k_cells: int) -> UlamOperator:
    """Ulam matrix of the averaged transfer operator on k equal cells.

    Entry (a, b) = sum_i p_i |C_a intersect f_i^{-1}(C_b)| / |C_a|, with the
    overlaps exact for monotone maps via endpoint preimages.
    """
    ts, quad = _ulam_overlaps(system, k_cells)
    total = float(system.probs[0]) * ts[0]
    for p, t in zip(system.probs[1:], ts[1:]):
        total = total + float(p) * t
    total = total.tocsr()
    _validate_rows(total, "transfer operator")
    return UlamOperator(total, k_cells, system.space, "transfer", 1, quad)


def build_laplace_markov(system: SystemSpec, k_cells: int) -> UlamOperator:
    """Block Ulam matrix of Q(phi)(j, x) = sum_i p_i phi(i, f_j(x)).

    Index (j, a) -> (i, b) carries weight p_i times the exact overlap of f_j
    from cell a to cell b; states are ordered symbol-major (j * k + a).
    """
    ts, quad = _ulam_overlaps(system, k_cells)
    probs = [float(p) for p in system.probs]
    q = sp.bmat([[p * t for p in probs] for t in ts], format="csr")
    _validate_rows(q, "laplace-markov operator")
    return UlamOperator(q, k_cells, system.space, "laplace_markov", system.n_maps, quad)


def leading_eigen(op: UlamOperator) -> LeadingEigen:
    """Stationary row vector by measure-side (adjoint) power iteration.

    Starts from the uniform vector and stops once an iteration moves it by at
    most 1e-12 in l1, or after 4096 iterations; non-convergence is reported
    through the residual rather than raised, matching the diagnostic role of
    the output.
    """
    tol, max_iter = 1e-12, 4096
    w = np.full(op.size, 1.0 / op.size)
    lam = 1.0
    res = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        wn = op.push(w)
        lam = float(wn.sum())
        wn = wn / lam
        res = float(np.abs(wn - w).sum())
        w = wn
        if res <= tol:
            break
    return LeadingEigen(lam, w, res, it, res <= tol)


def spectral_gap(op: UlamOperator, m_eigs: int = 6) -> SpectralGap:
    """Leading eigenvalue moduli and the gap 1 - |lambda_2|.

    Dense eigensolve up to 2048 rows; larger operators use a sparse Arnoldi
    estimate (documented as an estimate, not a certified spectrum).
    """
    if m_eigs < 2:
        raise ArgumentError(f"m_eigs: must be at least 2, got {m_eigs}")
    if op.size <= DENSE_LIMIT:
        vals = np.linalg.eigvals(op.to_dense())
        method = "dense"
    else:
        from scipy.sparse.linalg import eigs

        kk = min(m_eigs, op.size - 2)
        vals = eigs(op.matrix.astype(float), k=kk, which="LM", return_eigenvectors=False)
        method = "arnoldi"
    moduli = np.sort(np.abs(vals))[::-1][:m_eigs]
    if abs(moduli[0] - 1.0) > 1e-8:
        raise RuntimeError(f"leading modulus {moduli[0]!r} is not 1 within 1e-8")
    gap = float(1.0 - moduli[1]) if moduli.size > 1 else math.nan
    return SpectralGap(moduli, gap, method)


def subleading_decay(op: UlamOperator) -> DecayEstimate:
    """Decay rate of the centered linear probe under repeated application.

    The probe is the cell-midpoint coordinate minus its stationary mean
    (tiled across symbol blocks for the product operator); iteration stops
    after 64 steps, or once the sup norm falls below 1e-12 times its
    starting value.
    """
    max_iters, floor = 64, 1e-12
    le = leading_eigen(op)
    w = le.weights
    mids = np.tile(op.midpoints(), op.blocks)
    h = mids - float(w @ mids)
    scale = float(np.abs(h).max())
    if scale == 0.0:
        return DecayEstimate(0.0, np.empty(0), 0)
    ratios = []
    prev = scale
    for _ in range(max_iters):
        h = op.apply(h)
        h = h - float(w @ h)
        cur = float(np.abs(h).max())
        if cur < floor * scale:
            break
        ratios.append(cur / prev)
        prev = cur
    arr = np.asarray(ratios)
    rate = float(np.median(arr)) if arr.size else 0.0
    return DecayEstimate(rate, arr, int(arr.size))


def qn_identity_test(
    system: SystemSpec,
    phi,
    j: int,
    x: float,
    n: int,
    replicas: int = 100_000,
    seed: int = 0,
) -> QnIdentity:
    """Exact kernel value of (Q^n phi)(j, x) against a Monte Carlo estimate.

    phi is a callable of (symbol array, point array). The kernel side
    enumerates all words of length n exactly; the sampled side simulates the
    same skew-product functional and must sit within |z| < 4 standard errors.
    """
    if not 1 <= n <= 20:
        raise ValueError("qn identity is enumerated exactly only for 1 <= n <= 20")
    if not 0 <= j < system.n_maps:
        raise ValueError(f"symbol j={j} out of range")
    y0 = float(system.maps[j](float(x)))
    pos = np.full(1, y0)
    for k, (srow, weights) in enumerate(word_levels(system, n), start=1):
        pos = np.repeat(pos, system.n_maps)
        if k < n:  # the last symbols go to phi, not to the map
            ensemble_apply(system, pos, srow)
    kernel = float(np.sum(weights * np.asarray(phi(srow, pos), dtype=float)))
    stream = system.word_stream(seed, _QN_BASE)
    symbols = stream.draw(n * replicas).reshape(n, replicas)
    mpos = np.full(replicas, y0)
    for _ in ensemble_steps(system, ((0, symbols[: n - 1]),), (mpos,)):
        pass
    vals = np.asarray(phi(symbols[n - 1], mpos), dtype=float)
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicas))
    gap = mc - kernel
    if gap == 0.0:
        z = 0.0
    elif se == 0.0:
        z = math.inf
    else:
        z = gap / se
    return QnIdentity(kernel, mc, se, float(z), bool(abs(z) < 4.0))


def log_deriv_integral(system: SystemSpec, k_cells: int = 4096) -> float:
    """The double integral of log |f'| against the Ulam stationary vector.

    Cross-checks estimate_gamma: cell weights come from leading_eigen of the
    transfer matrix, the inner integral is the probability-weighted
    log-derivative at cell midpoints.
    """
    _require_derivatives(system, "log_deriv_integral")
    op = build_transfer_ulam(system, k_cells)
    le = leading_eigen(op)
    cellw = le.weights.reshape(op.blocks, op.k_cells).sum(axis=0)
    return float(np.sum(cellw * _mean_log_deriv(system, op.midpoints())))
