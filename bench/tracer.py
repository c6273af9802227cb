"""Out-of-tree tracing: spans around rdsw's public functions, installed from here.

``Tracer.install`` wraps each function named in ``SPANS`` and rebinds every
``rdsw`` module attribute that refers to it, so a call through
``rdsw.limit_laws.ensemble_apply`` is traced as well as one through
``rdsw.systems.ensemble_apply``. Nothing in ``src/`` changes.

Each thread keeps its own span stack and its own aggregate table, so the
``--threads`` workload needs no locks on the hot path. Calls are aggregated
into one record per (parent span, span) rather than stored one by one: a
``lil-smoke`` pass makes ~10^5 ``ensemble_apply`` calls. A span's self time is
its duration minus the durations of its child spans on the same thread. The
work ``util.parallel_map`` runs for its caller, inline or on pool threads,
counts as self time of the calling span (summed over threads). Only calls
that reach a pool (threads > 1, several items) are ``util.parallel_map``
spans, so its self time is the time callers waited for a pool.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import Counter

ROOT = "-"


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(a, kw):
        b = sig.bind(*a, **kw)
        b.apply_defaults()
        return b.arguments

    return bind


class _Thread:
    __slots__ = ("stack", "spans", "tags", "counts")

    def __init__(self):
        self.stack = []  # frames [span name, child seconds]
        self.spans = {}  # (parent, name) -> [calls, total_s, self_s]
        self.tags = {}  # gallery id -> [ensemble-step self_s, state steps]
        self.counts = Counter()


# ---------------------------------------------------------------------------
# work counts, one function per wrapped target: (thread, args, kwargs, result, self_s)


def _ensemble_step(width_of):
    def count(t, a, kw, result, self_s):
        steps = width_of(a, kw)
        t.counts["systems.state_steps"] += steps
        tag = t.tags.setdefault(_arg(a, kw, 0, "system").name, [0.0, 0])
        tag[0] += self_s
        tag[1] += steps

    return count


def _one_apply(a, kw):
    return _arg(a, kw, 2, "srow").size


def _many_apply(a, kw):
    return _arg(a, kw, 2, "srow").size * len(_arg(a, kw, 1, "arrays"))


def _symbols(t, a, kw, result, self_s):
    t.counts["systems.symbols_drawn"] += result.size


def _block_symbols(t, a, kw, item, self_s):
    t.counts["systems.symbols_drawn"] += item[1].size


def _iterate(t, a, kw, result, self_s):
    t.counts["systems.scalar_steps"] += int(_arg(a, kw, 3, "n"))


def _paired_orbit(t, a, kw, result, self_s):
    t.counts["systems.scalar_steps"] += 2 * int(_arg(a, kw, 4, "n"))


def _stationary(bind):
    def count(t, a, kw, result, self_s):
        b = bind(a, kw)
        t.counts["systems.scalar_steps"] += b["burn_in"] * b["shards"] + b["samples"]

    return count


def _words(t, a, kw, result, self_s):
    t.counts["systems.words_enumerated"] += result.shape[0]


def _nnz(t, a, kw, result, self_s):
    t.counts["operators.nnz"] += result.matrix.nnz


def _eigen_iterations(t, a, kw, result, self_s):
    t.counts["operators.power_iterations"] += result.iterations


def _decay_iterations(t, a, kw, result, self_s):
    t.counts["operators.power_iterations"] += result.window


def _ld_horizons(t, a, kw, result, self_s):
    exact = int(result.exact.sum())
    t.counts["lyapunov.exact_horizons"] += exact
    t.counts["lyapunov.mc_horizons"] += int(result.exact.size) - exact


def _spectrum(bind):
    def count(t, a, kw, result, self_s):
        b = bind(a, kw)
        t.counts["cocycles.matrix_steps"] += b["n"] * b["replicas"]

    return count


def _case_name(a, kw):
    return "acceptance." + str(_arg(a, kw, 0, "case_id"))


def _cli_name(a, kw):
    return "cli." + str(_arg(a, kw, 0, "argv")[0])


# (module, attribute, span name or a function of the call's arguments, kind,
# count factory). kind: "call" for plain functions, "gen" for generator
# methods, "pool" for parallel_map.
SPANS = (
    ("rdsw.systems", "ensemble_apply", "systems.ensemble_apply", "call", lambda f: _ensemble_step(_one_apply)),
    ("rdsw.systems", "ensemble_apply_many", "systems.ensemble_apply_many", "call", lambda f: _ensemble_step(_many_apply)),
    ("rdsw.systems", "WordStream.draw", "systems.stream", "call", lambda f: _symbols),
    ("rdsw.systems", "WordStream.blocks", "systems.stream", "gen", lambda f: _block_symbols),
    ("rdsw.systems", "WordStream.uniforms", "systems.stream", "call", None),
    ("rdsw.systems", "iterate", "systems.iterate", "call", lambda f: _iterate),
    ("rdsw.systems", "word_matrix", "systems.word_matrix", "call", lambda f: _words),
    ("rdsw.gallery", "gallery", "gallery.gallery", "call", None),
    ("rdsw.measures", "estimate_stationary", "measures.estimate_stationary", "call", lambda f: _stationary(_bound(f))),
    ("rdsw.measures", "wasserstein1", "measures.wasserstein1", "call", None),
    ("rdsw.synchronization", "paired_orbit", "synchronization.paired_orbit", "call", lambda f: _paired_orbit),
    ("rdsw.synchronization", "average_sync_sum", "synchronization.average_sync_sum", "call", None),
    ("rdsw.synchronization", "proximality_probe", "synchronization.proximality_probe", "call", None),
    ("rdsw.synchronization", "local_contraction_probe", "synchronization.local_contraction_probe", "call", None),
    ("rdsw.limit_laws", "estimate_sigma2", "limit_laws.estimate_sigma2", "call", None),
    ("rdsw.limit_laws", "clt_test", "limit_laws.clt_test", "call", None),
    ("rdsw.limit_laws", "lil_statistic", "limit_laws.lil_statistic", "call", None),
    ("rdsw.limit_laws", "slln_check", "limit_laws.slln_check", "call", None),
    ("rdsw.lyapunov", "estimate_gamma", "lyapunov.estimate_gamma", "call", None),
    ("rdsw.lyapunov", "ld_curve", "lyapunov.ld_curve", "call", lambda f: _ld_horizons),
    ("rdsw.lyapunov", "sync_ld_curve", "lyapunov.sync_ld_curve", "call", lambda f: _ld_horizons),
    ("rdsw.lyapunov", "distortion_report", "lyapunov.distortion_report", "call", None),
    ("rdsw.cocycles", "estimate_spectrum", "cocycles.estimate_spectrum", "call", lambda f: _spectrum(_bound(f))),
    ("rdsw.cocycles", "verify_lc_rate", "cocycles.verify_lc_rate", "call", None),
    ("rdsw.operators", "build_transfer_ulam", "operators.build_transfer_ulam", "call", lambda f: _nnz),
    ("rdsw.operators", "build_laplace_markov", "operators.build_laplace_markov", "call", lambda f: _nnz),
    ("rdsw.operators", "leading_eigen", "operators.leading_eigen", "call", lambda f: _eigen_iterations),
    ("rdsw.operators", "spectral_gap", "operators.spectral_gap", "call", None),
    ("rdsw.operators", "subleading_decay", "operators.subleading_decay", "call", lambda f: _decay_iterations),
    ("rdsw.operators", "qn_identity_test", "operators.qn_identity_test", "call", None),
    ("rdsw.operators", "log_deriv_integral", "operators.log_deriv_integral", "call", None),
    ("rdsw.util", "parallel_map", "util.parallel_map", "pool", None),
    ("rdsw.acceptance", "run_case", _case_name, "call", None),
    ("rdsw.cli", "main", _cli_name, "call", None),
)


class Tracer:
    """Installs span wrappers on rdsw and aggregates what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._undo = []
        self.missing = []

    def thread(self) -> _Thread:
        t = getattr(self._local, "t", None)
        if t is None:
            t = self._local.t = _Thread()
            with self._lock:
                self._tables.append(t)
        return t

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target in SPANS; names that no longer exist go to ``missing``."""
        for modname, attr, name, kind, counter in SPANS:
            mod = sys.modules.get(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            count = counter(orig) if counter else None
            if kind == "gen":
                wrapped = self._gen_span(name, orig, count)
            elif kind == "pool":
                wrapped = self._pool_span(name, orig)
            else:
                wrapped = self._span(name, orig, count)
            if owner_name:
                self._rebind(owner, fname, wrapped)
            else:
                for m in [m for k, m in sys.modules.items() if k == "rdsw" or k.startswith("rdsw.")]:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, key, wrapped)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- spans -------------------------------------------------------------

    def _close(self, t, frame, dt, count, a, kw, result, calls=1):
        stack = t.stack
        self_s = dt - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += dt
            key = (parent[0], frame[0])
        else:
            key = (ROOT, frame[0])
        rec = t.spans.get(key)
        if rec is None:
            rec = t.spans[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt * calls
        rec[2] += self_s
        if count is not None:
            count(t, a, kw, result, self_s)

    def _span(self, name, fn, count):
        perf = time.perf_counter
        thread = self.thread
        close = self._close
        dynamic = callable(name)

        def wrapper(*a, **kw):
            t = thread()
            frame = [name(a, kw) if dynamic else name, 0.0]
            t.stack.append(frame)
            t0 = perf()
            try:
                result = fn(*a, **kw)
            except BaseException:
                t.stack.pop()
                close(t, frame, perf() - t0, None, a, kw, None)
                raise
            dt = perf() - t0
            t.stack.pop()
            close(t, frame, dt, count, a, kw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gen_span(self, name, fn, count):
        perf = time.perf_counter
        thread = self.thread
        close = self._close

        def wrapper(*a, **kw):
            gen = fn(*a, **kw)
            while True:
                t = thread()
                frame = [name, 0.0]
                t.stack.append(frame)
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    dt = perf() - t0
                    t.stack.pop()
                    close(t, frame, dt, None, a, kw, None)
                    return
                dt = perf() - t0
                t.stack.pop()
                close(t, frame, dt, count, a, kw, item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _pool_span(self, name, fn):
        perf = time.perf_counter
        thread = self.thread
        close = self._close
        outer = self._span(name, fn, None)

        def wrapper(f, items, *a, **kw):
            items = list(items)
            caller = thread()
            owner = caller.stack[-1][0] if caller.stack else ROOT

            def item_span(item):
                # Work done for one item is the caller's own work: record it as
                # self time of the calling span (without a call), on whichever
                # thread runs it, so parallel_map keeps only its waiting time.
                t = thread()
                frame = [owner, 0.0]
                t.stack.append(frame)
                t0 = perf()
                try:
                    return f(item)
                finally:
                    dt = perf() - t0
                    t.stack.pop()
                    close(t, frame, dt, None, None, None, None, calls=0)

            threads = a[0] if a else kw.get("threads", 1)
            if threads <= 1 or len(items) <= 1:  # runs inline: an ordinary loop, no span
                return fn(f, items, *a, **kw)
            caller.counts["util.parallel_map.items"] += len(items)
            return outer(item_span, items, *a, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def self_s(self, name: str) -> float:
        """Self time of the span ``name`` so far, summed over threads and parents."""
        spans = self.merged()[0]
        return sum(rec[2] for (_, span), rec in spans.items() if span == name)

    def merged(self):
        """(spans, tags, counts) summed over every thread seen so far."""
        spans, tags, counts = {}, {}, Counter()
        with self._lock:
            tables = list(self._tables)
        for t in tables:
            for key, (calls, total, self_s) in t.spans.items():
                rec = spans.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for gid, (self_s, steps) in t.tags.items():
                rec = tags.setdefault(gid, [0.0, 0])
                rec[0] += self_s
                rec[1] += steps
            counts.update(t.counts)
        return spans, tags, counts
