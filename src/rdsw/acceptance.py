"""The acceptance battery: one callable per shipped guarantee.

Each case returns (passed, summary, files) where files maps artifact names to
deterministic bytes (no timings inside); the determinism case re-runs every
other case and byte-compares those artifacts across repeats and thread counts.
The registry backs both the test suite and the command line's verify command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cocycles import CocycleSpec, cocycle_gallery, estimate_spectrum, verify_lc_rate
from .gallery import gallery, gallery_ids
from .geometry import INTERVAL
from .limit_laws import clt_test, estimate_sigma2, lil_statistic, observable, slln_check
from .lyapunov import distortion_report, estimate_gamma, ld_curve, sync_ld_curve
from .measures import estimate_stationary, uniform_grid, wasserstein1
from .operators import (
    build_transfer_ulam,
    leading_eigen,
    log_deriv_integral,
    qn_identity_test,
    subleading_decay,
)
from .synchronization import SYNC_STREAM, average_sync_sum, fit_sync_rate, paired_orbit, proximality_probe
from .util import parallel_map, table_chunks

__all__ = ["CaseResult", "CASE_ORDER", "case_ids", "run_case", "QN_BATTERY"]

LOG2 = math.log(2.0)
DIAG_ROT_CHI_TOP = 0.1707  # frozen: two independent 1e7-step runs, seeds 101/202


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    passed: bool
    summary: str
    elapsed: float
    files: dict


def _csv(header: str, rows) -> bytes:
    return "".join(table_chunks(header.split(","), list(zip(*rows)))).encode()


def _case_stationary(threads: int = 1):
    sys = gallery("binary_affine")
    ref = uniform_grid(1 << 14, INTERVAL)

    def one(seed):
        t0 = time.perf_counter()
        m = estimate_stationary(sys, burn_in=1000, samples=1_000_000, seed=seed)
        return seed, wasserstein1(m, ref), time.perf_counter() - t0

    rows = parallel_map(one, range(1, 9), threads)
    passed = all(w <= 0.01 for _, w, _ in rows) and all(dt < 10.0 for _, _, dt in rows)
    worst = max(w for _, w, _ in rows)
    files = {"stationary_w1.csv": _csv("seed,w1_to_lebesgue", [(s, w) for s, w, _ in rows])}
    return passed, f"8 seeds, worst W1 to Lebesgue {worst:.2e} (bound 0.01)", files


def _case_sync_rates(threads: int = 1):
    sys = gallery("binary_affine")

    def one(seed):
        trace = paired_orbit(sys, 0.125, 0.625, sys.word_stream(seed, SYNC_STREAM), 60)
        return seed, fit_sync_rate(trace)

    rows = parallel_map(one, range(1, 33), threads)
    worst = max(abs(f.rate + LOG2) for _, f in rows)
    r2min = min(f.r2 for _, f in rows)
    passed = worst <= 1e-9 and r2min >= 1.0 - 1e-12
    files = {
        "sync_rates.csv": _csv(
            "seed,rate,r2,censored_at",
            [(s, f.rate, f.r2, -1 if f.censored_at is None else f.censored_at) for s, f in rows],
        )
    }
    return passed, f"32 words, worst |rate + log 2| = {worst:.2e}, min r2 = {r2min}", files


def _case_nonproximal(threads: int = 1):
    sys = gallery("anton")
    xs = [0.25 + 0.125 * (i + 0.5) / 4 for i in range(4)]
    ys = [0.75 + 0.125 * (j + 0.5) / 4 for j in range(4)]
    pairs = [(x, y) for x in xs for y in ys]
    verdicts = proximality_probe(sys, pairs, horizon=10_000, replicas=32, tol=0.375, seed=11)
    lo = min(v.min_distance for v in verdicts)
    passed = lo >= 0.375 and all(v.verdict == "no_approach_below" for v in verdicts)
    files = {
        "nonproximal.csv": _csv(
            "x,y,min_distance,verdict", [(v.x, v.y, v.min_distance, v.verdict) for v in verdicts]
        )
    }
    return passed, f"16 pairs x 32 words x 1e4 steps, min distance {lo!r} (floor 3/8)", files


def _case_sync_average(threads: int = 1):
    ba = gallery("binary_affine")
    r = average_sync_sum(ba, 0.2, 0.7, alpha=1.0, n=60, replicas=10_000, seed=7)
    target = 2.0 * 0.5
    err = abs(r.partial_sums[-1] - target) / target
    an = gallery("anton")
    ra = average_sync_sum(an, 0.3, 0.8, alpha=1.0, n=400, replicas=2_000, seed=8)
    half = len(ra.partial_sums) // 2
    slope = (ra.partial_sums[-1] - ra.partial_sums[half]) / (len(ra.partial_sums) - 1 - half)
    passed = err <= 0.02 and r.bounded and (not ra.bounded) and slope >= 0.375
    files = {
        "sync_average.csv": _csv(
            "system,s_final,bounded,per_step_tail",
            [
                ("binary_affine", r.partial_sums[-1], int(r.bounded), 0.0),
                ("anton", ra.partial_sums[-1], int(ra.bounded), slope),
            ],
        )
    }
    return (
        passed,
        f"binary sum {r.partial_sums[-1]:.6f} vs 2 d0 = 1 (2% band); "
        f"anton unbounded at {slope:.4f}/step (floor 3/8)",
        files,
    )


def _case_sigma2_clt(threads: int = 1):
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    est = estimate_sigma2(sys, h, n=10_000, replicas=10_000, seed=21)
    ok_sigma = abs(est.sigma2 - 0.25) <= 0.025
    clt_rows = []
    ok_clt = True
    starts = (0.0, 0.25, 0.97)
    for x0, r in zip(starts, clt_test(sys, h, starts, n=10_000, replicas=10_000, seed=22)):
        clt_rows.append((x0, r.ks_stat, r.threshold, int(r.passed), r.verdict))
        ok_clt = ok_clt and r.passed
    files = {
        "sigma2.csv": _csv(
            "sigma2,stderr,batch_sigma2,flagged",
            [(est.sigma2, est.stderr, est.batch_sigma2, int(est.flagged))],
        ),
        "clt.csv": _csv("x0,ks_stat,threshold,passed,verdict", clt_rows),
    }
    worst_ks = max(r[1] for r in clt_rows)
    return (
        ok_sigma and ok_clt and not est.flagged,
        f"sigma2 = {est.sigma2:.5f} (0.25 +/- 0.025); worst KS {worst_ks:.4f} "
        f"(threshold {clt_rows[0][2]:.4f}) at three starts",
        files,
    )


def _case_slln(threads: int = 1):
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)

    def one(seed):
        r = slln_check(sys, h, x0=0.5, n=1_000_000, seed=seed)
        return seed, float(r.means[-1]), bool(r.verdict)

    rows = parallel_map(one, range(1, 9), threads)
    worst = max(abs(m - 0.5) for _, m, _ in rows)
    passed = worst < 0.005 and all(v for _, _, v in rows)
    files = {"slln.csv": _csv("seed,mean_at_1e6,verdict", [(s, m, int(v)) for s, m, v in rows])}
    return passed, f"8 seeds at n = 1e6, worst |mean - 1/2| = {worst:.2e} (bound 5e-3)", files


def _case_lil(threads: int = 1):
    sys = gallery("binary_affine")
    h = observable("coordinate", INTERVAL)
    r = lil_statistic(sys, h, x0=0.5, n_max=1_000_000, seed=31, replicas=256)
    passed = bool(r.verdict) and 0.5 <= r.median <= 1.5
    files = {"lil.csv": _csv("median,replicas", [(r.median, len(r.stats))])}
    return passed, f"median normalized running max {r.median:.4f} in [0.5, 1.5]", files


def _case_gamma(threads: int = 1):
    ba = gallery("binary_affine")
    sp = gallery("slope_pair")
    g1 = estimate_gamma(ba, n=1000, replicas=100, seed=41)
    g2 = estimate_gamma(sp, n=1000, replicas=100, seed=42)
    e1 = abs(g1.gamma_hat + LOG2)
    e2 = abs(g2.gamma_hat + 1.5 * LOG2)
    passed = e1 <= 1e-12 and e2 <= 0.01 and g1.consistent and g2.consistent
    files = {
        "gamma.csv": _csv(
            "system,gamma_hat,stderr,one_step,consistent",
            [
                ("binary_affine", g1.gamma_hat, g1.stderr, g1.one_step, int(g1.consistent)),
                ("slope_pair", g2.gamma_hat, g2.stderr, g2.one_step, int(g2.consistent)),
            ],
        )
    }
    return (
        passed,
        f"binary error {e1:.1e} (1e-12 bound); slope-pair error {e2:.1e} (0.01 bound)",
        files,
    )


def _case_ld(threads: int = 1):
    sp = gallery("slope_pair")
    gm = estimate_gamma(sp, n=2048, replicas=64, x0=0.2, seed=0).gamma_hat
    exact = ld_curve(sp, x0=0.2, gamma_hat=gm, seed=51)
    mc = ld_curve(sp, x0=0.2, gamma_hat=gm, seed=51, exact_budget=1, replicas=100_000)
    j16 = int(np.nonzero(exact.horizons == 16)[0][0])
    contained = bool(
        np.all(
            (mc.ci_low[:, j16] <= exact.probs[:, j16])
            & (exact.probs[:, j16] <= mc.ci_high[:, j16])
        )
    )
    ok_fit = exact.h_hat > 0.0 and exact.h_r2 > 0.9
    passed = contained and ok_fit and bool(exact.exact[j16])
    files = {"ld_exact.csv": exact.to_csv().encode(), "ld_mc.csv": mc.to_csv().encode()}
    return (
        passed,
        f"n=16 exact vs MC Wilson containment {contained} over 10 epsilons; "
        f"h_hat = {exact.h_hat:.3f} (r2 = {exact.h_r2:.3f})",
        files,
    )


def _case_sync_ld(threads: int = 1):
    sp = gallery("slope_pair")
    gm = estimate_gamma(sp, n=2048, replicas=64, x0=0.2, seed=0).gamma_hat
    a = ld_curve(sp, x0=0.2, gamma_hat=gm, seed=0)
    b = sync_ld_curve(sp, 0.2, 0.7, gamma_hat=gm, seed=0)
    same = bool(np.array_equal(a.probs, b.probs))
    ca, cb = a.to_csv().encode(), b.to_csv().encode()
    passed = same and ca == cb
    files = {"ld_table.csv": ca, "sync_ld_table.csv": cb}
    return passed, f"prob tables bit-identical: {same}; csv bytes equal: {ca == cb}", files


def _case_distortion(threads: int = 1):
    sp = gallery("slope_pair")
    ba = gallery("binary_affine")
    an = gallery("anton")
    d1 = distortion_report(sp, 0.2, 0.7, n=1000, replicas=128, seed=61)
    d2 = distortion_report(ba, 0.2, 0.7, n=1000, replicas=128, seed=61)
    d3 = distortion_report(an, 0.1, 0.35, n=1000, replicas=256, seed=62)
    affine_exact = bool(
        np.all(d1.max_ratio_per_n == 1.0) and np.all(d2.max_ratio_per_n == 1.0)
    )
    passed = affine_exact and d3.tempered and d3.final_log_mean_ratio_rate < 0.05
    files = {
        "distortion.csv": _csv(
            "system,final_mean_ratio,rate,tempered",
            [
                ("slope_pair", d1.max_ratio_per_n[-1], d1.final_log_mean_ratio_rate, int(d1.tempered)),
                ("binary_affine", d2.max_ratio_per_n[-1], d2.final_log_mean_ratio_rate, int(d2.tempered)),
                ("anton", d3.max_ratio_per_n[-1], d3.final_log_mean_ratio_rate, int(d3.tempered)),
            ],
        )
    }
    return (
        passed,
        f"affine ratios exactly 1: {affine_exact}; anton rate "
        f"{d3.final_log_mean_ratio_rate:.4f} (bound 0.05)",
        files,
    )


def _case_cocycles(threads: int = 1):
    diag = CocycleSpec([np.diag([2.0, 0.5])], (1.0,), name="diag_two")
    tri = cocycle_gallery("single_hyperbolic")
    e1 = estimate_spectrum(diag, n=10_000, replicas=4, seed=71)
    e2 = estimate_spectrum(tri, n=10_000, replicas=4, seed=71)
    err1 = float(np.abs(e1.chis - np.array([-LOG2, LOG2])).max())
    err2 = float(np.abs(e2.chis - np.array([-LOG2, LOG2])).max())
    dr = cocycle_gallery("diag_rot")
    ed = estimate_spectrum(dr, n=4000, replicas=64, seed=72)
    sum_err = abs(float(ed.chis.sum()) - dr.expected_log_det())
    golden_err = abs(float(ed.chis[-1]) - DIAG_ROT_CHI_TOP)
    lc = verify_lc_rate(dr, seed=5)
    passed = (
        err1 <= 1e-6
        and err2 <= 1e-6
        and sum_err <= 1e-6
        and golden_err <= 0.005
        and lc.fraction >= 0.9
    )
    files = {
        "cocycles.csv": _csv(
            "quantity,value",
            [
                ("diag_spectrum_error", err1),
                ("triangular_spectrum_error", err2),
                ("diag_rot_sum_rule_error", sum_err),
                ("diag_rot_chi_top", float(ed.chis[-1])),
                ("lc_fraction", lc.fraction),
                ("lc_q_target", lc.q_target),
            ],
        )
    }
    return (
        passed,
        f"single-matrix spectra within {max(err1, err2):.1e} of log|eig| (1e-6); "
        f"sum rule {sum_err:.1e}; chi_top {ed.chis[-1]:.4f} (golden {DIAG_ROT_CHI_TOP} "
        f"+/- 0.005); lc fraction {lc.fraction:.3f} (floor 0.9)",
        files,
    )


def _phi_one(i, x):
    return np.ones_like(np.asarray(x, dtype=float))


def _phi_coord(i, x):
    return np.asarray(x, dtype=float)


def _phi_cos(i, x):
    return np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


def _phi_mix(i, x):
    return (np.asarray(i, dtype=float) + 1.0) * np.asarray(x, dtype=float)


def _phi_indcos(i, x):
    return (np.asarray(i) == 0) * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


QN_BATTERY = (
    ("binary_affine", "one", _phi_one, 0, 0.0, 1),
    ("binary_affine", "coord", _phi_coord, 0, 0.0, 3),
    ("binary_affine", "coord", _phi_coord, 1, 0.3, 8),
    ("binary_affine", "cos2pi", _phi_cos, 0, 0.7, 12),
    ("binary_affine", "indcos", _phi_indcos, 1, 0.9, 10),
    ("slope_pair", "coord", _phi_coord, 0, 0.5, 5),
    ("slope_pair", "mix", _phi_mix, 1, 0.25, 10),
    ("slope_pair", "cos2pi", _phi_cos, 0, 0.1, 16),
    ("anton", "one", _phi_one, 2, 0.4, 6),
    ("anton", "coord", _phi_coord, 1, 0.15, 8),
    ("anton", "cos2pi", _phi_cos, 0, 0.9, 10),
    ("two_rotations", "mix", _phi_mix, 1, 0.66, 14),
)


def _case_ulam(threads: int = 1):
    ba = gallery("binary_affine")
    op = build_transfer_ulam(ba, 256)
    le = leading_eigen(op)
    uniform_dev = float(np.abs(le.weights - 1.0 / 256).max())
    dec = subleading_decay(op)
    qn_rows = []
    qn_ok = True
    for idx, (gid, label, phi, j, x, n) in enumerate(QN_BATTERY):
        r = qn_identity_test(gallery(gid), phi, j, x, n, replicas=20_000, seed=1000 + idx)
        qn_rows.append((gid, label, j, x, n, r.kernel_value, r.z_score, int(r.passed)))
        qn_ok = qn_ok and r.passed
    gam_rows = []
    gam_ok = True
    for gid in gallery_ids():
        sys = gallery(gid)
        gu = log_deriv_integral(sys, 4096)
        gm = estimate_gamma(sys, n=2000, replicas=64, seed=0).gamma_hat
        gam_rows.append((gid, gu, gm, abs(gu - gm)))
        gam_ok = gam_ok and abs(gu - gm) < 0.01
    passed = uniform_dev <= 1e-10 and 0.45 <= dec.rate <= 0.55 and qn_ok and gam_ok
    files = {
        "ulam_eigen.csv": _csv("cell,weight", list(enumerate(le.weights))),
        "qn_battery.csv": _csv("system,phi,j,x,n,kernel,z,passed", qn_rows),
        "ulam_gamma.csv": _csv("system,ulam_integral,monte_carlo,diff", gam_rows),
    }
    worst_z = max(abs(r[6]) for r in qn_rows)
    return (
        passed,
        f"uniform eigenvector dev {uniform_dev:.1e} (1e-10); decay rate {dec.rate:.3f} "
        f"(band [0.45, 0.55]); 12 kernel identities worst |z| = {worst_z:.2f} (cap 4); "
        f"gamma cross-checks worst {max(r[3] for r in gam_rows):.2e} (0.01)",
        files,
    )


def _case_determinism(threads: int = 1):
    rows = []
    passed = True
    for case_id, fn, _ in CASE_ORDER[:-1]:
        _, _, f1 = fn(1)
        _, _, f2 = fn(1)
        _, _, f8 = fn(8)
        same_rerun = f1.keys() == f2.keys() and all(f1[k] == f2[k] for k in f1)
        same_threads = f1.keys() == f8.keys() and all(f1[k] == f8[k] for k in f1)
        rows.append((case_id, int(same_rerun), int(same_threads)))
        passed = passed and same_rerun and same_threads
    files = {"determinism.csv": _csv("case,identical_rerun,identical_threads8", rows)}
    bad = [r[0] for r in rows if not (r[1] and r[2])]
    summary = (
        "all 13 cases byte-identical across re-runs and threads {1, 8}"
        if passed
        else f"nondeterministic cases: {', '.join(bad)}"
    )
    return passed, summary, files


CASE_ORDER = (
    ("stationary-battery", _case_stationary, "Stationary measure W1 battery"),
    ("sync-rate-battery", _case_sync_rates, "Exponential synchronization rate"),
    ("non-proximality", _case_nonproximal, "Non-proximal pair floor"),
    ("sync-average", _case_sync_average, "Synchronization on average"),
    ("sigma2-clt", _case_sigma2_clt, "Variance and central limit theorem"),
    ("slln-battery", _case_slln, "Strong law of large numbers"),
    ("lil-smoke", _case_lil, "Law of the iterated logarithm"),
    ("gamma-exact", _case_gamma, "Fiber Lyapunov exponents"),
    ("ld-exact-handoff", _case_ld, "Large-deviation exact handoff"),
    ("sync-ld-identity", _case_sync_ld, "Sync-rate LD identity"),
    ("distortion", _case_distortion, "Distortion temperedness"),
    ("cocycle-spectra", _case_cocycles, "Cocycle spectra and LC rate"),
    ("ulam-battery", _case_ulam, "Ulam operators and kernel identities"),
    ("determinism", _case_determinism, "Byte determinism across runs and threads"),
)

_CASES = {cid: (fn, title) for cid, fn, title in CASE_ORDER}
_ALIASES = {str(i + 1): cid for i, (cid, _, _) in enumerate(CASE_ORDER)}


def case_ids() -> tuple:
    return tuple(cid for cid, _, _ in CASE_ORDER)


def run_case(case_id: str, threads: int = 1) -> CaseResult:
    """Run one acceptance case by slug or 1-based number."""
    cid = _ALIASES.get(str(case_id), str(case_id))
    if cid not in _CASES:
        known = ", ".join(case_ids())
        raise KeyError(f"unknown acceptance case {case_id!r}; known: {known}")
    fn, _ = _CASES[cid]
    t0 = time.perf_counter()
    passed, summary, files = fn(threads)
    return CaseResult(cid, bool(passed), summary, time.perf_counter() - t0, files)
