"""Batch command line: deterministic experiments, strict configs, verify.

Usage: ``rdsw <command> [--config FILE] [--seed N] [--out DIR] [--threads K]``
with commands stationary, sync, limits, lyapunov, ld, cocycle, ulam, verify
(which takes ``--case ID`` and no ``--seed``: every case carries its own
seeds), and gallery (no options).

One runner serves every command but gallery. It loads the config and rejects
unknown keys anywhere before any computation (exit 2 with a field path),
checks the command's params against its schema, resolves the seed, threads,
format and output directory (flags beat config values), and resolves the
subject: a ``SystemSpec``, the ``CocycleSpec`` of ``cocycle``, or the case
list of ``verify``. The command body only computes and adds result tables;
the runner then writes them plus ``manifest.json`` (config echo, resolved
subject and params, seed, package versions, wall time) and prints one
summary line. Identical configs produce byte-identical result files, and only
the manifest's ``wall_time_s`` field varies between repeats.

Reals in CSV output carry 17 significant digits so values round-trip exactly.
Guarded failures from the library (enumeration budgets, cocycle overflow,
refused ill-posed requests) exit with status 4 and a one-line structured
message; config and validation problems exit 2; a verify run with failing
cases exits 1.

Atomicity diagnostics (the ``diagnostic`` flag of ``stationary``) use fixed
conventions: ball radius 1e-3, Dirac mass threshold 0.99, and a nonatomic
band of 5 times the uniform ball mass plus three binomial standard errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .acceptance import case_ids, run_case
from .cocycles import COCYCLE_GALLERY, CocycleSpec, cocycle_gallery, estimate_spectrum, verify_lc_rate
from .gallery import gallery, gallery_facts
from .geometry import INTERVAL, PROJECTIVE, distance
from .limit_laws import LIL_MIN_N, clt_test, estimate_sigma2, lil_statistic, observable, slln_check
from .lyapunov import distortion_report, estimate_gamma, ld_curve, sync_ld_curve
from .measures import MAX_SHARDS, atom_diagnostic, estimate_stationary
from .operators import MAX_CELLS, build_laplace_markov, build_transfer_ulam, leading_eigen, spectral_gap, subleading_decay
from .synchronization import RATE_FIT_POINTS, SYNC_STREAM, average_sync_sum, fit_sync_rate, paired_orbit
from .systems import MAX_MAPS, SystemSpec, _is_finite_real, _start_state, map_from_params
from .util import ArgumentError, BudgetExceededError, OverflowGuardError, RefusalError, fmt, table_chunks

__all__ = ["main"]

# caps on the counts a config sets, each checked before any library call
# steps of one scalar orbit: each costs about 17 bytes (the point, its uniform draw, its symbol)
ORBIT_BUDGET = 1 << 26
# replicas of one ensemble: each holds its states (a 64-direction cloud in the
# local-contraction probe) and draws a uniform and a symbol per step
REPLICA_BUDGET = 1 << 20
# steps of every replica in one ensemble run; lil's default horizon of 10^6 fits
HORIZON_BUDGET = 1 << 20


class ConfigError(ValueError):
    """A config failed schema validation; the message carries the field path."""


# ---------------------------------------------------------------------------
# strict config handling


def _reject_unknown(obj: dict, allowed, path: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        keys = ", ".join(repr(k) for k in unknown)
        raise ConfigError(f"{path}: unknown key(s) {keys}; allowed: {sorted(allowed)}")


def _typed(value, kind: str, path: str):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected integer, got {value!r}")
        return value
    if kind == "pint":
        v = _typed(value, "int", path)
        if v <= 0:
            raise ConfigError(f"{path}: expected positive integer, got {v}")
        return v
    if kind == "real":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected real number, got {value!r}")
        if not _is_finite_real(value):  # NaN, infinities, integers past the float range
            raise ConfigError(f"{path}: expected finite real, got {value!r}")
        return float(value)
    if kind == "preal":
        v = _typed(value, "real", path)
        if v <= 0.0:
            raise ConfigError(f"{path}: expected positive real, got {v!r}")
        return v
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {value!r}")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected boolean, got {value!r}")
        return value
    if kind == "list[preal]":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected non-empty list of positive reals")
        return [_typed(v, "preal", f"{path}[{i}]") for i, v in enumerate(value)]
    if kind == "list[pint]":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected non-empty list of positive integers")
        return [_typed(v, "pint", f"{path}[{i}]") for i, v in enumerate(value)]
    raise AssertionError(kind)


def _params(config: dict, schema: dict) -> dict:
    """Typed params with defaults; a set as the kind lists the allowed strings."""
    raw = config.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError("params: expected an object")
    _reject_unknown(raw, schema, "params")
    out = {}
    for key, (kind, default) in schema.items():
        value = raw.get(key)
        if value is None and (key not in raw or default is None):
            out[key] = default
            continue
        v = _typed(value, "str" if isinstance(kind, set) else kind, f"params.{key}")
        if isinstance(kind, set) and v not in kind:
            raise ConfigError(f"params.{key}: expected one of {sorted(kind)}, got {v!r}")
        out[key] = v
    return out


def _load_config(path: str | None, command: str, allowed: set) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    try:
        config = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(config, allowed, "config")
    stated = config.get("command")
    if stated is not None and stated != command:
        raise ConfigError(f"command: config says {stated!r} but the subcommand is {command!r}")
    return config


# ---------------------------------------------------------------------------
# subjects: what a command runs on


def _resolve_system(spec) -> SystemSpec:
    if spec is None:
        raise ConfigError("system: required (gallery id or inline object)")
    if isinstance(spec, str):
        try:
            return gallery(spec)
        except KeyError as e:
            raise ConfigError(f"system: {e.args[0]}") from e
    if not isinstance(spec, dict):
        raise ConfigError("system: expected gallery id string or object")
    _reject_unknown(spec, {"maps", "probs", "name"}, "system")
    maps_raw = spec.get("maps")
    if not isinstance(maps_raw, list) or not maps_raw or len(maps_raw) > MAX_MAPS:
        raise ConfigError(f"system.maps: expected a list of 1 to {MAX_MAPS} map objects")
    maps = []
    for i, m in enumerate(maps_raw):
        if not isinstance(m, dict) or "family" not in m:
            raise ConfigError(f"system.maps[{i}]: expected an object with a 'family' key")
        try:
            maps.append(map_from_params(m))
        except KeyError as e:
            raise ConfigError(f"system.maps[{i}].{e.args[0]}: required") from e
        except (TypeError, ValueError) as e:
            raise ConfigError(f"system.maps[{i}]: {e}") from e
    probs = spec.get("probs")
    if not isinstance(probs, list):
        raise ConfigError("system.probs: expected a list of reals")
    probs = [_typed(p, "real", f"system.probs[{i}]") for i, p in enumerate(probs)]
    name = _typed(spec.get("name", "custom"), "str", "system.name")
    try:
        return SystemSpec(maps, probs, name=name)
    except ValueError as e:  # SystemSpec names the argument at fault first
        raise ConfigError(f"system.{e}") from e


def _resolve_cocycle(spec) -> CocycleSpec:
    if spec is None:
        raise ConfigError("cocycle: required (gallery id or inline object)")
    if isinstance(spec, str):
        try:
            return cocycle_gallery(spec)
        except KeyError as e:
            raise ConfigError(f"cocycle: {e.args[0]}") from e
    if not isinstance(spec, dict):
        raise ConfigError("cocycle: expected gallery id string or object")
    _reject_unknown(spec, {"matrices", "probs", "name"}, "cocycle")
    mats = spec.get("matrices")
    if not isinstance(mats, list) or not mats:
        raise ConfigError("cocycle.matrices: expected non-empty list of square matrices")
    probs = spec.get("probs")
    if not isinstance(probs, list):
        raise ConfigError("cocycle.probs: expected a list of reals")
    probs = [_typed(p, "real", f"cocycle.probs[{i}]") for i, p in enumerate(probs)]
    name = _typed(spec.get("name", "custom"), "str", "cocycle.name")
    try:
        return CocycleSpec(mats, probs, name=name)
    except ValueError as e:  # CocycleSpec names the argument at fault first
        raise ConfigError(f"cocycle.{e}") from e


# subject key -> (resolver of the raw config value, echo for the manifest)
_SUBJECTS = {
    "system": (_resolve_system, SystemSpec.params),
    "cocycle": (_resolve_cocycle, lambda c: c.name or "inline"),
    "case": (lambda case: [case] if case is not None else list(case_ids()), list),
}


def _check_starts(sys_: SystemSpec, p: dict, *keys):
    """Each given start must be a point of the system: a real cannot start a projective orbit."""
    for key in keys:
        if p[key] is not None:
            try:
                _start_state(sys_, p[key])
            except ValueError as e:
                raise ConfigError(f"params.{key}: {e}") from e


def _check_distinct(sys_: SystemSpec, y, x0: float, what: str):
    """A given y must name another point than x0 (on projective space, where reals name no point, y != x0)."""
    if y is not None and (y == x0 or (sys_.space != PROJECTIVE and distance(sys_.space, y, x0) == 0.0)):
        got = f"{y!r} for both" if y == x0 else f"{y!r} and {x0!r}, one point mod 1"
        raise ConfigError(f"params.y: {what} needs y != params.x0, got {got}")


def _check_budget(p: dict, keys, budget: int, name: str, what: str):
    """The given counts add up to at most ``budget``; the message names every field."""
    if sum(p[key] or 0 for key in keys) > budget:
        fields = " + ".join(f"params.{key}" for key in keys)
        raise ConfigError(f"{fields}: at most {name} = {budget} {what}")


def _check_orbit_length(p: dict, *keys):
    """The given counts add up to the length of one scalar orbit."""
    _check_budget(p, keys, ORBIT_BUDGET, "ORBIT_BUDGET", "steps in one orbit")


def _check_shards(p: dict):
    """Every shard gets a sample, each shard owns a stream id (at most
    ``MAX_SHARDS`` shards), and the shards' orbits, each with its own burn-in,
    add up to at most ``ORBIT_BUDGET`` steps."""
    if p["shards"] > p["samples"]:
        raise ConfigError(f"params.shards: at most params.samples = {p['samples']} shards")
    if p["shards"] > MAX_SHARDS:
        raise ConfigError(f"params.shards: at most MAX_SHARDS = {MAX_SHARDS} shards")
    if p["burn_in"] * p["shards"] + p["samples"] > ORBIT_BUDGET:
        raise ConfigError(
            f"params.burn_in * params.shards + params.samples: at most ORBIT_BUDGET = {ORBIT_BUDGET} steps in all orbits"
        )


def _check_horizon(p: dict, key: str = "n"):
    """The count is the number of steps of every replica in an ensemble run."""
    _check_budget(p, (key,), HORIZON_BUDGET, "HORIZON_BUDGET", "steps per replica")


class _Run:
    """Resolved run settings; collects result tables, then writes them once."""

    def __init__(self, args, config: dict, seeded: bool):
        self.command = args.command
        self.config = config
        self.seed = None
        if seeded:
            self.seed = args.seed if args.seed is not None else config.get("seed", 0)
            if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < (1 << 64):
                raise ConfigError(f"seed: expected integer in [0, 2^64), got {self.seed!r}")
        threads = args.threads if args.threads is not None else config.get("threads", 1)
        self.threads = _typed(threads, "pint", "threads")
        self.format = config.get("format", "csv")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: expected 'csv' or 'json', got {self.format!r}")
        out = args.out if args.out is not None else config.get("output")
        self.out = Path(_typed(out, "str", "output")) if out is not None else Path("rdsw_out") / self.command
        self.summary = None  # replaces the list of written files in the summary line
        self.tables: list[tuple[str, list[str], list]] = []  # name, header, one sequence per field
        self.blobs: list[tuple[str, bytes]] = []
        self.t0 = time.perf_counter()

    def table(self, name: str, header: list[str], rows: list[tuple]):
        """Add a table given row by row; it is kept as columns."""
        self.columns(name, header, list(zip(*rows)))

    def columns(self, name: str, header: list[str], columns: list):
        """Add a table given as one sequence per header field, all of one length."""
        self.tables.append((name, header, columns))

    def blob(self, name: str, data: bytes):
        self.blobs.append((name, data))

    def write(self, resolved: dict) -> list[str]:
        self.out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, header, columns in self.tables:
            path = self.out / f"{name}.{self.format}"
            with path.open("w") as f:
                f.writelines(table_chunks(header, columns, self.format == "csv"))
            written.append(path.name)
        for name, data in self.blobs:
            path = self.out / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            written.append(name)
        manifest = {
            "command": self.command,
            "config": self.config,
            "resolved": resolved,
            "seed": self.seed,
            "threads": self.threads,
            "format": self.format,
            "versions": {
                "rdsw": __version__,
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "wall_time_s": round(time.perf_counter() - self.t0, 3),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
        (self.out / "manifest.json").write_text(text + "\n")
        written.append("manifest.json")
        return written


# ---------------------------------------------------------------------------
# commands: each body gets the resolved run, its subject and its params, and
# only computes and adds result tables


class _Command(NamedTuple):
    help: str
    subject: str  # key of _SUBJECTS, also the config key it is read from
    schema: dict  # param -> (kind, default); see _params
    keys: tuple  # top-level config keys besides "command" and the subject
    body: Callable


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help_text: str, subject: str = "system", keys=("seed", "output", "format", "threads", "params"), **schema):
    """Register the decorated body as ``name``; ``schema`` holds its params."""

    def register(body):
        _COMMANDS[name] = _Command(help_text, subject, schema, keys, body)
        return body

    return register


@_command(
    "stationary",
    "Estimate a stationary measure; write its atoms",
    burn_in=("pint", 1000),
    samples=("pint", 100_000),
    x0=("real", None),
    shards=("pint", 1),
    diagnostic=("bool", False),
)
def _cmd_stationary(run: _Run, sys_: SystemSpec, p: dict):
    _check_starts(sys_, p, "x0")
    _check_orbit_length(p, "burn_in", "samples")
    _check_shards(p)
    m = estimate_stationary(
        sys_,
        burn_in=p["burn_in"],
        samples=p["samples"],
        seed=run.seed,
        x0=p["x0"],
        shards=p["shards"],
        threads=run.threads,
    )
    atoms = np.atleast_2d(m.atoms.T).T
    header = ["weight"] + [f"x{i}" for i in range(atoms.shape[1])]
    run.columns("atoms", header, [m.weights] + list(atoms.T))
    if p["diagnostic"]:
        d = atom_diagnostic(sys_, m)
        run.table(
            "diagnostic",
            ["verdict", "max_ball_mass", "ball_threshold", "effective_sample", "common_fixed_points"],
            [(d.verdict, d.max_ball_mass, d.ball_threshold, d.effective_sample, ";".join(fmt(x) for x in d.common_fixed_points))],
        )


@_command(
    "sync",
    "Pair-distance trace and rate fit, or averaged sync sums",
    mode=({"rate", "average"}, "rate"),
    x=("real", 0.2),
    y=("real", 0.7),
    n=("pint", 60),
    alpha=("preal", 1.0),
    replicas=("pint", 10_000),
)
def _cmd_sync(run: _Run, sys_: SystemSpec, p: dict):
    _check_starts(sys_, p, "x", "y")
    if p["mode"] == "rate":
        _check_orbit_length(p, "n")
        if p["n"] + 1 < RATE_FIT_POINTS:  # a trace holds n + 1 distances, whatever they are
            raise ConfigError(f"params.n: must be at least {RATE_FIT_POINTS - 1} for a rate fit, got {p['n']}")
        trace = paired_orbit(sys_, p["x"], p["y"], sys_.word_stream(run.seed, SYNC_STREAM), p["n"])
        f = fit_sync_rate(trace)
        run.table("trace", ["step", "distance"], list(enumerate(trace.distances)))
        run.table(
            "fit",
            ["rate", "intercept", "r2", "censored_at"],
            [(f.rate, f.intercept, f.r2, -1 if f.censored_at is None else f.censored_at)],
        )
    else:
        _check_horizon(p)
        r = average_sync_sum(sys_, p["x"], p["y"], alpha=p["alpha"], n=p["n"], replicas=p["replicas"], seed=run.seed)
        run.table("partial_sums", ["step", "partial_sum"], list(enumerate(r.partial_sums)))
        run.table(
            "average_summary",
            ["alpha", "final_sum", "bounded", "tail_fraction"],
            [(r.alpha, r.partial_sums[-1], r.bounded, r.tail_fraction)],
        )


@_command(
    "limits",
    "SLLN, variance, CLT, or LIL checks for an observable",
    law=({"slln", "sigma2", "clt", "lil"}, None),
    observable=({"coordinate", "cos2pi", "sin2pi"}, "coordinate"),
    x0=("real", 0.5),
    n=("pint", None),
    replicas=("pint", None),
)
def _cmd_limits(run: _Run, sys_: SystemSpec, p: dict):
    law = p["law"]
    if law is None:
        raise ConfigError("params.law: required; one of ['clt', 'lil', 'sigma2', 'slln']")
    if law == "slln":
        _check_orbit_length(p, "n")
    else:
        _check_horizon(p)
    if law == "lil" and p["n"] is not None and p["n"] < LIL_MIN_N:
        raise ConfigError(f"params.n: must be at least {LIL_MIN_N} for the lil law, got {p['n']}")
    h = observable(p["observable"], sys_.space)
    if law == "slln":
        r = slln_check(sys_, h, p["x0"], p["n"] or 1_000_000, seed=run.seed)
        run.table("slln", ["checkpoint", "mean", "gap"], list(zip(r.checkpoints, r.means, r.gaps)))
        run.table(
            "slln_summary",
            ["nu_hat", "sigma2_hat", "threshold", "verdict"],
            [(r.nu_hat, r.sigma2_hat, r.threshold, r.verdict)],
        )
    elif law == "sigma2":
        r = estimate_sigma2(sys_, h, n=p["n"] or 10_000, replicas=p["replicas"] or 10_000, seed=run.seed)
        run.table(
            "sigma2",
            ["sigma2", "stderr", "nu_hat", "batch_sigma2", "batch_stderr", "flagged"],
            [(r.sigma2, r.stderr, r.nu_hat, r.batch_sigma2, r.batch_stderr, r.flagged)],
        )
    elif law == "clt":
        r = clt_test(sys_, h, p["x0"], n=p["n"] or 10_000, replicas=p["replicas"] or 10_000, seed=run.seed)
        run.table(
            "clt",
            ["ks_stat", "threshold", "passed", "verdict", "nu_hat", "sigma2_hat"],
            [(r.ks_stat, r.threshold, r.passed, r.verdict, r.nu_hat, r.sigma2_hat)],
        )
    else:
        r = lil_statistic(sys_, h, p["x0"], n_max=p["n"] or 1_000_000, seed=run.seed, replicas=p["replicas"] or 256)
        run.table("lil", ["replica", "stat"], list(enumerate(r.stats)))
        run.table(
            "lil_summary",
            ["median", "verdict", "nu_hat", "sigma2_hat"],
            [(r.median, r.verdict, r.nu_hat, r.sigma2_hat)],
        )


@_command(
    "lyapunov",
    "Fiber Lyapunov exponent, optional distortion report",
    n=("pint", 1000),
    replicas=("pint", 100),
    x0=("real", 0.5),
    distortion=("bool", False),
    y=("real", None),
)
def _cmd_lyapunov(run: _Run, sys_: SystemSpec, p: dict):
    _check_starts(sys_, p, "x0", "y")
    y = p["y"]
    if p["distortion"]:
        if sys_.space != INTERVAL and y is None:
            raise ConfigError("params.y: required for the distortion report on the circle")
        y = y if y is not None else min(1.0, p["x0"] + 0.25)
        _check_distinct(sys_, y, p["x0"], "the distortion report")
    _check_horizon(p)
    g = estimate_gamma(sys_, n=p["n"], replicas=p["replicas"], x0=p["x0"], seed=run.seed)
    run.table(
        "gamma",
        ["gamma_hat", "stderr", "one_step", "one_step_stderr", "consistent"],
        [(g.gamma_hat, g.stderr, g.one_step, g.one_step_stderr, g.consistent)],
    )
    if p["distortion"]:
        d = distortion_report(sys_, p["x0"], y, n=p["n"], replicas=min(p["replicas"], 256), seed=run.seed)
        run.table("distortion", ["delta", "omega"], list(zip(d.deltas, d.omega_grid)))
        run.table(
            "distortion_summary",
            ["tempered", "rate", "final_max_ratio"],
            [(d.tempered, d.final_log_mean_ratio_rate, d.max_ratio_per_n[-1])],
        )


@_command(
    "ld",
    "Large-deviation curve (orbit or pair-distance deviations)",
    x0=("real", 0.5),
    y=("real", None),
    epsilons=("list[preal]", None),
    horizons=("list[pint]", None),
    replicas=("pint", 100_000),
    exact_budget=("pint", None),
)
def _cmd_ld(run: _Run, sys_: SystemSpec, p: dict):
    _check_starts(sys_, p, "x0", "y")
    _check_horizon({"horizons": max(p["horizons"] or [0])}, "horizons")
    _check_distinct(sys_, p["y"], p["x0"], "the pair-distance curve")
    kv = dict(
        epsilons=p["epsilons"],
        horizons=None if p["horizons"] is None else tuple(p["horizons"]),
        replicas=p["replicas"],
        seed=run.seed,
    )
    if p["exact_budget"] is not None:
        kv["exact_budget"] = p["exact_budget"]
    if p["y"] is None:
        curve = ld_curve(sys_, x0=p["x0"], **kv)
    else:
        curve = sync_ld_curve(sys_, p["x0"], p["y"], **kv)
    run.blob("ld.csv", curve.to_csv().encode())
    flagged = [int(n) for n, f in zip(curve.horizons, curve.flagged_horizons) if f]
    run.table(
        "ld_summary",
        ["h_hat", "h_r2", "gamma_hat", "replicas", "max_censored_fraction", "gamma_gap", "flagged_horizons"],
        [
            (
                curve.h_hat,
                curve.h_r2,
                curve.gamma_hat,
                curve.replicas,
                float(curve.censored_fraction.max()),
                curve.gamma_gap,
                ";".join(str(n) for n in flagged) or "none",
            )
        ],
    )


@_command(
    "cocycle",
    "Matrix cocycle spectrum or local-contraction check",
    subject="cocycle",
    mode=({"spectrum", "verify_lc"}, "spectrum"),
    n=("pint", 2000),
    replicas=("pint", 100),
    radius=("preal", 1e-3),
)
def _cmd_cocycle(run: _Run, c: CocycleSpec, p: dict):
    _check_horizon(p)
    if p["mode"] == "spectrum":
        e = estimate_spectrum(c, n=p["n"], replicas=p["replicas"], seed=run.seed)
        run.table("spectrum", ["index", "chi", "stderr"], [(i, x, s) for i, (x, s) in enumerate(zip(e.chis, e.stderr))])
        run.table(
            "spectrum_summary",
            ["gap_top", "q_lc", "n", "replicas", "expected_log_det_gap"],
            [(e.gap_top, e.q_lc, e.n, e.replicas, abs(float(e.chis.sum()) - c.expected_log_det()))],
        )
    else:
        v = verify_lc_rate(c, radius=p["radius"], n=p["n"], replicas=p["replicas"], seed=run.seed)
        run.table(
            "lc",
            ["fraction", "q_target", "radius", "n", "replicas"],
            [(v.fraction, v.q_target, v.radius, v.n, v.replicas)],
        )


@_command(
    "ulam",
    "Ulam transfer or Laplace-Markov operator and its spectrum",
    k_cells=("pint", 256),
    kind=({"transfer", "laplace"}, "transfer"),
    export_matrix=("bool", False),
    m_eigs=("pint", 6),
    probe_decay=("bool", False),
)
def _cmd_ulam(run: _Run, sys_: SystemSpec, p: dict):
    _check_budget(p, ("k_cells",), MAX_CELLS, "MAX_CELLS", "cells")
    op = build_transfer_ulam(sys_, p["k_cells"]) if p["kind"] == "transfer" else build_laplace_markov(sys_, p["k_cells"])
    le = leading_eigen(op)
    run.table("eigen", ["index", "weight"], list(enumerate(le.weights)))
    gap = spectral_gap(op, m_eigs=p["m_eigs"])
    run.table("moduli", ["rank", "modulus"], list(enumerate(gap.moduli)))
    header = ["k_cells", "kind", "size", "residual", "iterations", "converged", "gap", "gap_method"]
    row = [p["k_cells"], p["kind"], op.size, le.residual, le.iterations, le.converged, gap.gap, gap.method]
    if p["probe_decay"]:
        header.append("probe_decay_rate")
        row.append(subleading_decay(op).rate)
    run.table("ulam_summary", header, [tuple(row)])
    if p["export_matrix"]:
        run.blob("operator_coo.txt", op.to_coo_text().encode())


@_command("verify", "Run the acceptance battery (all cases or --case ID)", subject="case", keys=("output", "threads"))
def _cmd_verify(run: _Run, ids: list, p: dict) -> int:
    results = []
    for cid in ids:
        r = run_case(cid, threads=run.threads)
        results.append(r)
        print(f"{'PASS' if r.passed else 'FAIL'} {r.case_id:20s} {r.elapsed:8.2f}s  {r.summary}")
        for name, data in r.files.items():
            run.blob(f"{r.case_id}/{name}", data)
    run.table("report", ["case", "passed"], [(r.case_id, r.passed) for r in results])
    n_pass = sum(r.passed for r in results)
    run.summary = f"{n_pass}/{len(results)} cases passed; artifacts"
    return 0 if n_pass == len(results) else 1


def _run_command(args) -> int:
    """Config, run settings and subject in, result files and summary line out."""
    cmd = _COMMANDS[args.command]
    config = _load_config(args.config, args.command, {"command", cmd.subject, *cmd.keys})
    p = _params(config, cmd.schema)
    if "replicas" in p:
        _check_budget(p, ("replicas",), REPLICA_BUDGET, "REPLICA_BUDGET", "replicas")
    run = _Run(args, config, seeded="seed" in cmd.keys)
    resolve, echo = _SUBJECTS[cmd.subject]
    flag = getattr(args, cmd.subject, None)  # verify's --case
    subject = resolve(flag if flag is not None else config.get(cmd.subject))
    try:
        code = cmd.body(run, subject, p) or 0
    except ArgumentError as e:  # the library names the argument at fault first
        if str(e).split(":", 1)[0] not in cmd.schema:
            raise
        raise ConfigError(f"params.{e}") from e
    written = run.write({cmd.subject: echo(subject), "params": p})
    print(f"{run.command}: {run.summary or 'wrote ' + ', '.join(written)} in {run.out}")
    return code


def _cmd_gallery(args) -> int:
    print("systems:")
    for entry in gallery_facts():
        print(f"  {entry['id']}")
        print(f"    construction: {entry['system']}")
        print(f"    facts: {entry['facts']}")
    print("cocycles:")
    for cid, (_, facts) in COCYCLE_GALLERY.items():
        print(f"  {cid}")
        print(f"    facts: {facts}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsw",
        description="Deterministic random-dynamical-systems experiments.",
        epilog="Config files are strict JSON; see the package README for schemas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        q = sub.add_parser(name, help=cmd.help)
        q.set_defaults(func=_run_command)
        q.add_argument("--config", default=None, help="JSON config file (strict schema)")
        if "seed" in cmd.keys:
            q.add_argument("--seed", type=int, default=None, help="seed override (64-bit)")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--threads", type=int, default=None, help="worker threads (results are independent of this)")
        if cmd.subject == "case":
            q.add_argument("--case", default=None, help=f"one case id from: {', '.join(case_ids())}")
    sub.add_parser("gallery", help="List built-in systems and cocycles with known facts").set_defaults(func=_cmd_gallery)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, OverflowGuardError, RefusalError) as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
