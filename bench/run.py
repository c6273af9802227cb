"""rdsw benchmark: verify cases and CLI commands timed end to end and per module.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record

A run of one workload starts fresh worker processes (bench/worker.py), one
pass of the workload's ops each, at least three, and more while they fit in
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json); then more
processes that only set up, until five set-ups are timed.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s``, the time of
one pass (the sum over ops of each op's median time);
``setup_s``, fresh process to ready (median); ``peak_rss_mb``, the peak
resident memory of a pass process and its children (median). With
``--trace 1`` the passes run untraced, traced, traced, untraced, ... and it
reports every per-layer metric (medians over traced passes), the tracing
overhead (traced minus untraced ``wall_s``) and the share of traced op time
that library spans account for, which must be at least ``ATTRIBUTED_FLOOR``.

Every op is checked in every pass: it must not raise, a CLI op must exit 0, a
verify case's verdict must be true, and its output bytes must be identical in
every pass. At the default seed (0) the digests must also equal the reference
digests recorded in bench/reference.json for the installed numpy and scipy.
Failed ops are counted in ``failed`` out of ``attempted`` (op runs); their
share is the ``failed_ops`` line of the report. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

``--record`` rewrites the reference digests for the installed numpy and scipy
from seed-0 runs of every workload at ``--threads 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import COUNTS, END_TO_END, PER_LAYER  # noqa: E402
from workloads import nproc, workloads  # noqa: E402

DEFAULT_SEED = 0
MIN_PASSES = 3  # a traced run takes one more, so that two are untraced
SETUP_SAMPLES = 5
ATTRIBUTED_FLOOR = 0.5
LAST_START_S = 120.0  # no pass starts later than this into a run
RUN_LIMIT_S = 170.0  # a worker still running this long into the run is killed
REFERENCE = HERE / "reference.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, mismatched manifest, dead worker)."""


def check_tree() -> dict:
    """The manifest, once the sources are present and it matches bench/metrics.py."""
    if not (ROOT / "src" / "rdsw" / "__init__.py").is_file():
        raise BenchError(f"no rdsw sources under {ROOT / 'src'}")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [[m["name"], m["unit"], m["better"]] for m in manifest["end_to_end"] + manifest["per_layer"]]
    have = [[m.name, m.unit, m.better] for m in END_TO_END + PER_LAYER]
    if want != have:
        raise BenchError("BENCHMARK.json metrics differ from bench/metrics.py")
    return manifest


def versions_key(env: dict) -> str:
    return f"numpy {env['numpy']} scipy {env['scipy']}"


class Worker:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, threads: int | None):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.count = 0
        # at most nproc threads in all: BLAS gets what the ops' own threads leave
        k = str(max(1, nproc() // (threads or workloads()[workload].most_threads())))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k, MKL_NUM_THREADS=k)

    def run(self, traced: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        cmd += ["--trace", str(int(traced)), "--work", str(self.work / f"pass-{self.count}"), "--result", str(out)]
        if self.threads is not None:
            cmd += ["--threads", str(self.threads)]
        if setup_only:
            cmd.append("--setup-only")
        self.work.mkdir(parents=True, exist_ok=True)
        spawned = time.monotonic()
        timeout = max(1.0, self.deadline - spawned)
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, timeout=timeout)
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"worker for {self.workload} exited with code {proc.returncode}")
        res = json.loads(out.read_text())
        res["setup_s"] = res["ready"] - spawned
        res["took_s"] = time.monotonic() - spawned
        res["traced"] = traced
        shutil.rmtree(self.work / f"pass-{self.count}", ignore_errors=True)
        return res

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def collect(workload: str, seed: int, seconds: float, trace: bool, threads: int | None = None) -> dict:
    """Run passes of one workload; returns the passes and the setup samples.

    Once it has its least number of passes, it starts another only if that
    pass and the set-up-only runs still needed would end within ``seconds``,
    judged by the median time of the passes and set-ups so far.
    """
    worker = Worker(workload, seed, threads)
    least = MIN_PASSES + 1 if trace else MIN_PASSES
    try:
        start = time.monotonic()
        passes = []
        while True:
            traced = trace and len(passes) % 3 != 0
            passes.append(worker.run(traced=traced))
            elapsed = time.monotonic() - start
            setups_left = max(0, SETUP_SAMPLES - len(passes) - 1)
            planned = median([p["took_s"] for p in passes]) + setups_left * median([p["setup_s"] for p in passes])
            if len(passes) >= least and (elapsed + planned > seconds or elapsed > LAST_START_S):
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker.run(setup_only=True)["setup_s"])
        return {"passes": passes, "setups": setups}
    finally:
        worker.close()


def check(passes: list, reference: dict | None) -> list:
    """Failure messages, one per failed op run.

    Ops that ``reference`` lacks are checked for repeat identity only; the
    report names them.
    """
    failures = []
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    for i, p in enumerate(passes):
        for op in p["ops"]:
            name = op["name"]
            if op["error"] is not None:
                failures.append(f"pass {i}: {name}: {op['error']}")
            elif not op["verdict"]:
                failures.append(f"pass {i}: {name}: verdict false")
            elif op["digest"] != first[name]:
                failures.append(f"pass {i}: {name}: output bytes differ from pass 0")
            elif reference is not None and name in reference and op["digest"] != reference[name]:
                failures.append(f"pass {i}: {name}: output bytes differ from the reference digest")
    return failures


def op_time(passes: list, i: int) -> float:
    """The median time of op ``i`` over ``passes``.

    A shared machine's speed drifts over seconds and minutes, and its fast
    spells are short and come at random. On a 2-vCPU host, the fastest of five
    passes of an op spread about twice as much between runs as their median.
    """
    return median(p["ops"][i]["s"] for p in passes)


def pass_time(passes: list) -> float:
    """One pass's wall time: the sum over ops of each op's median time over passes."""
    return sum(op_time(passes, i) for i in range(len(passes[0]["ops"])))


def attributed_share(p: dict) -> float:
    """Share of a traced pass's op time spent below the ops' root spans."""
    return 1.0 - sum(op["root_self_s"] for op in p["ops"]) / sum(op["s"] for op in p["ops"])


def summarize(workload: str, seed: int, trace: bool, data: dict, reference_book: dict) -> dict:
    passes = data["passes"]
    env = passes[0]["env"]
    reference = None
    if seed == DEFAULT_SEED:
        reference = reference_book.get(versions_key(env), {}).get(workload)
    failures = check(passes, reference)
    problems = []
    attempted = sum(len(p["ops"]) for p in passes)
    metrics = {}
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        for p in traced:
            problems += [f"wrapper target missing: {name}" for name in p["missing"]]
        problems = sorted(set(problems))
        for name in COUNTS:
            values = {p["layers"][name] for p in traced}
            if len(values) > 1:
                problems.append(f"count {name} differs between traced passes: {sorted(values)}")
        share = median([attributed_share(p) for p in traced])
        if share < ATTRIBUTED_FLOOR:
            problems.append(f"library spans account for {share:.3f} of traced op time (floor {ATTRIBUTED_FLOOR})")
        for m in PER_LAYER:
            if m.kind == "overhead":
                value = pass_time(traced) - pass_time(plain)
            elif m.kind == "attributed":
                value = share
            elif m.name in COUNTS:
                value = traced[0]["layers"][m.name]
            else:
                value = median([p["layers"][m.name] for p in traced])
            metrics[m.name] = {"value": value, "unit": m.unit}
    else:
        values = {
            "wall_s": pass_time(passes),
            "setup_s": median(data["setups"]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        }
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}

    walls = " ".join(f"{p['wall_s']:.3f}{' traced' if p['traced'] else ''}" for p in passes)
    print(f"== {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"wall_s {pass_time(plain):.4f} s (passes {walls}); "
        f"setup_s {median(data['setups']):.4f} s over {len(data['setups'])}; "
        f"peak_rss_mb {median([p['peak_rss_mb'] for p in passes]):.1f} MB; "
        f"failed_ops {len(failures) / attempted:.4f} ({len(failures)}/{attempted})"
    )
    names = [op["name"] for op in passes[0]["ops"]]
    if reference is None and seed == DEFAULT_SEED:
        print(f"note: no reference digests for {versions_key(env)}; checked repeat identity and verdicts only")
    elif reference is not None:
        for name in names:
            if name not in reference:
                print(f"note: no reference digest for {name}; checked repeat identity and verdict only")
    for i, name in enumerate(names):
        line = f"  {name:40s} {op_time(plain, i):9.4f} s"
        if trace:
            shares = [1.0 - p["ops"][i]["root_self_s"] / p["ops"][i]["s"] for p in traced]
            line += f"  traced {op_time(traced, i):9.4f} s, in library spans {median(shares):.3f}"
        print(line)
    if trace:
        for m in PER_LAYER:
            print(f"  {m.name:48s} {metrics[m.name]['value']:.6g} {m.unit:6s} -> {m.moves}")
    for line in failures + problems:
        print(f"FAIL {line}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def record():
    book = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key, table = None, {}
    for name in workloads():
        data = collect(name, DEFAULT_SEED, 0.0, False, threads=1)
        failures = check(data["passes"], None)
        if failures:
            raise BenchError(f"cannot record {name}: " + "; ".join(failures))
        key = versions_key(data["passes"][0]["env"])
        table[name] = {op["name"]: op["digest"] for op in data["passes"][0]["ops"]}
        print(f"recorded {name}: {len(table[name])} ops")
    book[key] = table
    REFERENCE.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="a workload name or 'all'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    try:
        manifest = check_tree()
        seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
        if args.record:
            return record()
        names = list(workloads()) if args.workload == "all" else [args.workload]
        if any(n not in workloads() for n in names):
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(workloads())}")
        book = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        results = {}
        for name in names:
            data = collect(name, args.seed, seconds, bool(args.trace))
            results[name] = summarize(name, args.seed, bool(args.trace), data, book)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
