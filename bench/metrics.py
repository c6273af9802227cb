"""Metric names, units and directions; the per-layer -> end-to-end map.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's vocabulary and must match
``BENCHMARK.json`` (``run.py`` refuses to run when they differ). Each per-layer
entry also records which end-to-end metric it should move, on which workload
(``moves``): a faster layer saves at most its self share of ``wall_s`` while
nothing else contends.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import workloads


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str  # how the value is derived from a traced pass; see layer_values
    moves: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower", ""),
    Metric("setup_s", "s", "lower", ""),
    Metric("peak_rss_mb", "MB", "lower", ""),
)

GALLERY_IDS = ("anton", "binary_affine", "moebius_pair", "slope_pair", "two_rotations")

_MC = "wall_s on monte-carlo"
_SCALAR = "wall_s on monte-carlo (scalar-loop ops)"
_EXACT = "wall_s on exact-engines"


def _fn(span, moves, calls=True):
    out = [Metric(f"{span}.self_s", "s", "lower", "self", moves)]
    if calls:
        out.append(Metric(f"{span}.calls", "count", "lower", "calls", moves))
    return out


def _count(name, moves):
    return [Metric(name, "count", "lower", "count", moves)]


def _per_layer():
    ensemble = f"{_MC} (ensemble ops), {_EXACT} (wide); none on the scalar-loop ops"
    rows = []
    rows += _fn("systems.ensemble_apply", ensemble)
    rows += _fn("systems.ensemble_apply_many", ensemble)
    rows += _count("systems.state_steps", ensemble)
    rows.append(Metric("systems.ns_per_state_step", "ns", "lower", "ns_step", ensemble))
    rows += [
        Metric(f"systems.ns_per_state_step.{gid}", "ns", "lower", "ns_step_tag", ensemble)
        for gid in GALLERY_IDS
    ]
    rows += _fn("systems.stream", _MC, calls=False)
    rows += _count("systems.symbols_drawn", _MC)
    rows.append(Metric("systems.ns_per_symbol", "ns", "lower", "ns_symbol", _MC))
    rows += _fn("systems.iterate", _SCALAR)
    rows += _count("systems.scalar_steps", _SCALAR)
    wide = f"{_EXACT} and peak_rss_mb on exact-engines"
    rows += _fn("systems.word_matrix", wide)
    rows += _count("systems.words_enumerated", wide)
    rows += _fn("gallery.gallery", "setup_s on all workloads, and per-op time (cases rebuild systems)")
    rows += _fn("measures.estimate_stationary", _SCALAR)
    rows += _fn("measures.wasserstein1", _SCALAR, calls=False)
    for f in ("paired_orbit", "average_sync_sum", "proximality_probe", "local_contraction_probe"):
        rows += _fn(f"synchronization.{f}", f"{_MC}; {_EXACT} through verify_lc_rate", calls=False)
    for f in ("estimate_sigma2", "clt_test", "lil_statistic"):
        rows += _fn(f"limit_laws.{f}", _MC, calls=False)
    rows += _fn("limit_laws.slln_check", _SCALAR, calls=False)
    for f in ("estimate_gamma", "ld_curve", "sync_ld_curve", "distortion_report"):
        rows += _fn(f"lyapunov.{f}", f"{_EXACT} and {_MC}", calls=False)
    rows += _count("lyapunov.exact_horizons", _EXACT)
    rows += _count("lyapunov.mc_horizons", _EXACT)
    for f in ("estimate_spectrum", "verify_lc_rate"):
        rows += _fn(f"cocycles.{f}", _EXACT, calls=False)
    rows += _count("cocycles.matrix_steps", _EXACT)
    for f in (
        "build_transfer_ulam",
        "build_laplace_markov",
        "leading_eigen",
        "spectral_gap",
        "subleading_decay",
        "qn_identity_test",
        "log_deriv_integral",
    ):
        rows += _fn(f"operators.{f}", wide, calls=False)
    rows += _count("operators.nnz", wide)
    rows += _count("operators.power_iterations", wide)
    pool = f"{_SCALAR} (a process pool would move this down and peak_rss_mb up)"
    rows.append(Metric("util.parallel_map.s", "s", "lower", "total", pool))
    rows += _count("util.parallel_map.items", pool)
    for w in workloads().values():
        for op in w.ops:
            if op.kind == "case":
                name = f"acceptance.{op.target}.s"
                rows.append(Metric(name, "s", "lower", "total", f"wall_s on {w.name}"))
    rows.append(Metric("acceptance.self_s", "s", "lower", "self_prefix", "wall_s of the workload holding the case"))
    commands = sorted({op.target for w in workloads().values() for op in w.ops if op.kind == "cli"})
    for cmd in commands:
        rows.append(Metric(f"cli.{cmd}.s", "s", "lower", "total", f"{_SCALAR} and {_EXACT}"))
    rows.append(Metric("cli.self_s", "s", "lower", "self_prefix", f"{_SCALAR} and {_EXACT}"))
    rows += _count("cli.bytes_written", f"{_SCALAR} and {_EXACT}")
    rows.append(Metric("trace.overhead_s", "s", "lower", "overhead", "none: traced minus untraced wall_s"))
    rows.append(
        Metric(
            "trace.attributed_share",
            "ratio",
            "higher",
            "attributed",
            "none: share of traced op time spent in library spans, not in run_case or cli.main itself",
        )
    )
    return tuple(rows)


PER_LAYER = _per_layer()

# counts that must repeat exactly between traced passes of one run
COUNTS = tuple(m.name for m in PER_LAYER if m.kind in ("count", "calls"))


def layer_values(spans, tags, counts) -> dict:
    """Every per-layer metric derived from the spans of one traced pass.

    trace.overhead_s and trace.attributed_share need the op times and are
    computed by run.py.
    """
    calls, total, self_s = {}, {}, {}
    for (_, name), (c, tot, slf) in spans.items():
        calls[name] = calls.get(name, 0) + c
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + slf

    def per(num, den):
        return 1e9 * num / den if den else 0.0

    out = {}
    for m in PER_LAYER:
        if m.kind == "self":
            out[m.name] = self_s.get(m.name[: -len(".self_s")], 0.0)
        elif m.kind == "calls":
            out[m.name] = calls.get(m.name[: -len(".calls")], 0)
        elif m.kind == "total":
            out[m.name] = total.get(m.name[: -len(".s")], 0.0)
        elif m.kind == "count":
            out[m.name] = counts.get(m.name, 0)
        elif m.kind == "ns_step":
            busy = self_s.get("systems.ensemble_apply", 0.0) + self_s.get("systems.ensemble_apply_many", 0.0)
            out[m.name] = per(busy, counts.get("systems.state_steps", 0))
        elif m.kind == "ns_step_tag":
            busy, steps = tags.get(m.name.rsplit(".", 1)[1], (0.0, 0))
            out[m.name] = per(busy, steps)
        elif m.kind == "ns_symbol":
            out[m.name] = per(self_s.get("systems.stream", 0.0), counts.get("systems.symbols_drawn", 0))
        elif m.kind == "self_prefix":
            prefix = m.name.split(".", 1)[0] + "."
            out[m.name] = sum(v for k, v in self_s.items() if k.startswith(prefix))
    return out
