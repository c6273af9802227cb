"""The two benchmark workloads as fixed lists of ops.

An op is either a verify case (``rdsw.acceptance.run_case``) or a CLI command
(``rdsw.cli.main``), both run in-process. Verify cases keep their spec seeds;
CLI ops take the benchmark's ``--seed``. To fit a pass into a few seconds, a
case may run at a stated smaller size: ``sizes`` maps a library function that
the case calls to keyword arguments set on every call for the duration of the
op (for example ``lil_statistic(n_max=...)``). Ensemble widths are kept and
mostly only lengths shrink, so each case still stresses the regime it was
chosen for; exact enumeration keeps its full 2^20 width.

monte-carlo holds two groups of ops: replica ensembles, which run through the
ensemble step, and single long orbits in Python scalar loops, which bypass it.
They share a workload for steadiness. On a shared 2-vCPU host the
scalar-loop group's pass time drifts by up to a third within minutes; as a
workload of its own, its wall_s spread 0.17 to 0.26 of its median over runs
of 40 s, against a bound of 0.25. Two workloads leave room for runs of 55 s,
and beside the ensemble ops the group is about half of a pass. The report still
prints each op's time, and the per-layer metrics still separate the groups.

An op runs at ``--threads`` = its own ``threads``, or else its workload's.
The verify cases run at one thread and the sharded ``stationary`` command at
nproc threads: on that host, two Python threads fighting for the GIL in
``parallel_map`` made the scalar-loop cases slower (9.6 s against 7.1 s a
pass) and their pass time spread 0.28 of its median against 0.11. The sharded
command still runs its shards on nproc threads, and its output is still
checked against a reference taken at one thread.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "case" or "cli"
    target: str  # case id or CLI command
    sizes: dict = field(default_factory=dict)  # case ops: {function: {keyword: value}}
    config: dict = field(default_factory=dict)  # cli ops: the JSON config file
    threads: int | None = None  # None: the workload's thread count


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # for ops that set none of their own
    ops: tuple

    def most_threads(self) -> int:
        return max(op.threads or self.threads for op in self.ops)


def _case(case_id: str, **sizes) -> Op:
    return Op(f"case:{case_id}", "case", case_id, sizes=sizes)


def _cli(name: str, command: str, system: str, threads: int | None = None, **params) -> Op:
    return Op(f"cli:{name}", "cli", command, config={"system": system, "params": params}, threads=threads)


def workloads() -> dict:
    k = nproc()
    table = (
        Workload(
            "monte-carlo",
            1,
            (
                # replica ensembles: 256 replicas over long horizons, 1e4 replicas over short ones
                _case(
                    "sigma2-clt",
                    estimate_sigma2={"n": 1_000},
                    clt_test={"n": 1_000},
                ),
                _case("lil-smoke", lil_statistic={"n_max": 30_000}),
                _case("sync-average"),
                _case("non-proximality", proximality_probe={"horizon": 2_000}),
                _case("gamma-exact"),
                _case("distortion", distortion_report={"n": 500}),
                _cli(
                    "limits-clt-moebius",
                    "limits",
                    "moebius_pair",
                    law="clt",
                    observable="cos2pi",
                    n=500,
                    replicas=10_000,
                ),
                # single long orbits in scalar loops, through util.parallel_map
                _case("stationary-battery", estimate_stationary={"samples": 100_000}),
                _case("slln-battery", slln_check={"n": 50_000}),
                _case("sync-rate-battery"),
                _cli(
                    f"stationary-anton-shards{k}",
                    "stationary",
                    "anton",
                    threads=k,
                    diagnostic=True,
                    shards=k,
                ),
                _cli("limits-slln-moebius", "limits", "moebius_pair", law="slln", n=50_000),
            ),
        ),
        Workload(
            "exact-engines",
            1,
            (
                _case("ld-exact-handoff", ld_curve={"replicas": 20_000}),
                _case(
                    "sync-ld-identity",
                    ld_curve={"replicas": 20_000},
                    sync_ld_curve={"replicas": 20_000},
                ),
                _case(
                    "cocycle-spectra",
                    estimate_spectrum={"n": 2_000},
                    verify_lc_rate={"n": 100},
                ),
                _case("ulam-battery"),
                _cli(
                    "ulam-moebius-k2048",
                    "ulam",
                    "moebius_pair",
                    k_cells=2048,
                    probe_decay=True,
                ),
                _cli("ulam-laplace-anton", "ulam", "anton", kind="laplace"),
                _cli(
                    "ld-sync-moebius",
                    "ld",
                    "moebius_pair",
                    x0=0.2,
                    y=0.7,
                    horizons=[8, 16, 24],
                    replicas=20_000,
                ),
            ),
        ),
    )
    return {w.name: w for w in table}
