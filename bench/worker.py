"""One pass of one workload, in a fresh process started by run.py.

The process sets up (imports ``rdsw.cli``, builds the gallery, pays the lazy
scipy imports the ops would otherwise pay on first call), notes the monotonic
time at which it is ready, then runs every op of the workload once and writes
a JSON result: per-op time, verdict, error and sha256 digest of the output
bytes, the pass wall time, peak RSS and, when traced, the per-layer values.

Usage: python3 bench/worker.py --workload NAME --seed N --trace 0|1 --work DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import inspect
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.interpolate  # noqa: E402,F401  lazy in systems.TabulatedMap
import scipy.ndimage  # noqa: E402,F401  lazy in lyapunov._omega_grid
import scipy.sparse.linalg  # noqa: E402,F401  lazy in operators.spectral_gap

import rdsw  # noqa: E402
import rdsw.acceptance  # noqa: E402
import rdsw.cli  # noqa: E402
from rdsw.gallery import gallery, gallery_ids  # noqa: E402

from metrics import layer_values  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import nproc, workloads  # noqa: E402


def _digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        data = files[name]
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


@contextlib.contextmanager
def _resized(sizes: dict):
    """Rebind functions in rdsw.acceptance so that calls get the op's keyword sizes.

    Each size must name a parameter of its function, and each resized function
    must be called during the op, so a size that no longer applies fails the op.
    """
    mod = rdsw.acceptance
    saved, calls = {}, {}

    def resize(fname, fn, replace):
        params = inspect.signature(fn).parameters
        unknown = sorted(set(replace) - set(params))
        if unknown:
            raise RuntimeError(f"{fname} has no parameter(s) {unknown}")

        def call(*a, **kw):
            calls[fname] += 1
            return fn(*a, **{**kw, **replace})

        return call

    try:
        for fname, replace in sizes.items():
            saved[fname] = getattr(mod, fname)
            calls[fname] = 0
            setattr(mod, fname, resize(fname, saved[fname], replace))
        yield
    finally:
        for fname, fn in saved.items():
            setattr(mod, fname, fn)
    unused = sorted(f for f, n in calls.items() if n == 0)
    if unused:
        raise RuntimeError(f"the case never called {unused}; its sizes no longer apply")


def _slug(op) -> str:
    return op.name.replace(":", "_")


def _run_op(op, seed: int, threads: int, work: Path, tracer):
    """Run one op; returns (verdict, error, files)."""
    if op.kind == "case":
        with _resized(op.sizes):
            r = rdsw.acceptance.run_case(op.target, threads=threads)
        return r.passed, None, r.files
    out = work / _slug(op)
    argv = [op.target, "--config", str(work / f"{_slug(op)}.json"), "--seed", str(seed)]
    argv += ["--out", str(out), "--threads", str(threads)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = rdsw.cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"} if out.is_dir() else {}
    if tracer is not None:
        tracer.thread().counts["cli.bytes_written"] += sum(len(b) for b in files.values())
    return True, None if code == 0 else f"exit code {code}", files


def _openblas():
    """(config string, thread count) of the loaded OpenBLAS, or (None, None)."""
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get is not None and cfg is not None:
                get.restype = ctypes.c_int
                cfg.restype = ctypes.c_char_p
                return cfg().decode(), get()
    return None, None


def environment() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (idx / "size").read_text().strip()
    blas, blas_threads = _openblas()
    return {
        "nproc": nproc(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None, help="run every op at this thread count")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not Path(rdsw.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rdsw imported from {rdsw.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    for gid in gallery_ids():
        gallery(gid)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        w = workloads()[args.workload]
        args.work.mkdir(parents=True, exist_ok=True)
        for op in w.ops:
            if op.kind == "cli":
                (args.work / f"{_slug(op)}.json").write_text(json.dumps(op.config))
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        ops = []
        t0 = time.perf_counter()
        for op in w.ops:
            # the op's root span: its self time is time no library span accounts for
            root = f"{'acceptance' if op.kind == 'case' else 'cli'}.{op.target}"
            root0 = tracer.self_s(root) if tracer else 0.0
            start = time.perf_counter()
            try:
                threads = args.threads or op.threads or w.threads
                verdict, error, files = _run_op(op, args.seed, threads, args.work, tracer)
            except Exception as e:  # a failed op is reported, and the pass goes on
                traceback.print_exc()
                verdict, error, files = False, f"{type(e).__name__}: {e}", {}
            digest = _digest(files)
            dt = time.perf_counter() - start
            rec = {"name": op.name, "s": dt, "verdict": bool(verdict), "error": error, "digest": digest}
            if tracer is not None:
                rec["root_self_s"] = tracer.self_s(root) - root0
            ops.append(rec)
        result["wall_s"] = time.perf_counter() - t0
        result["ops"] = ops
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_values(*tracer.merged())
            result["missing"] = tracer.missing
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = rss_kb / 1024.0
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
