"""End-to-end checks of the command line entry point (no subprocesses)."""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rdsw.cli
import rdsw.lyapunov
import rdsw.measures
import rdsw.util
from rdsw.cli import main


def _write_config(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_gallery_listing(capsys):
    assert main(["gallery"]) == 0
    out = capsys.readouterr().out
    print(out)
    for token in ("binary_affine", "gamma = -log 2", "anton", "diag_rot", "rotation_only"):
        assert token in out, f"gallery listing should mention {token!r}"


def test_stationary_outputs_and_manifest(tmp_path):
    cfg = _write_config(
        tmp_path,
        "stat.json",
        {
            "command": "stationary",
            "system": "binary_affine",
            "seed": 5,
            "params": {"burn_in": 200, "samples": 20_000},
        },
    )
    out_dir = tmp_path / "run"
    assert main(["stationary", "--config", cfg, "--out", str(out_dir)]) == 0
    atoms = (out_dir / "atoms.csv").read_text().splitlines()
    assert atoms[0] == "weight,x0"
    assert len(atoms) == 20_001, "one row per retained sample"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    print({k: manifest[k] for k in ("command", "seed", "threads", "format")})
    assert manifest["command"] == "stationary"
    assert manifest["seed"] == 5
    assert manifest["resolved"]["params"]["samples"] == 20_000
    assert "rdsw" in manifest["versions"] and "numpy" in manifest["versions"]
    weight = atoms[1].split(",")[0]
    assert float(weight) == 1.0 / 20_000, "weights serialize with full precision"


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(
        tmp_path,
        "stat.json",
        {"command": "stationary", "system": "binary_affine", "seed": 9, "params": {"samples": 500, "burn_in": 10}},
    )
    out_dir = tmp_path / "run"
    assert main(["stationary", "--config", cfg, "--seed", "12", "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 12, "--seed must win over the config seed"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"command": "stationary", "system": "binary_affine", "bogus": 1})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert "config error" in err and "bogus" in err


def test_command_mismatch_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, "mis.json", {"command": "sync", "system": "binary_affine"})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_inline_system_validation_surfaces(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "inline.json",
        {
            "command": "stationary",
            "system": {
                "name": "lopsided",
                "maps": [
                    {"family": "affine_interval", "a": 0.5, "b": 0.0},
                    {"family": "affine_interval", "a": 0.5, "b": 0.5},
                ],
                "probs": [0.5, 0.4],
            },
            "params": {"samples": 100},
        },
    )
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert "probs must sum to 1" in err


def _inline_binary(first_map: dict, **system_keys) -> dict:
    return {
        "command": "stationary",
        "system": {"maps": [first_map, {"family": "affine_interval", "a": 0.5, "b": 0.5}], "probs": [0.5, 0.5], **system_keys},
        "params": {"samples": 100},
    }


_PROJECTIVE_PLANE = {
    "maps": [{"family": "projective", "matrix": [[2.0, 0.0], [0.0, 0.5]]}, {"family": "projective", "matrix": [[0.0, -1.0], [1.0, 0.0]]}],
    "probs": [0.5, 0.5],
}


@pytest.mark.parametrize(
    "payload, expected",
    [
        (_inline_binary({"family": "affine_interval", "a": 0.5}), "config error: system.maps[0].b: required"),
        (_inline_binary({"family": "affine_interval", "a": [1, 2], "b": 0.0}), "config error: system.maps[0]: "),
        (
            {
                "command": "cocycle",
                "cocycle": {"matrices": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.5]]], "probs": [0.5, 0.5]},
            },
            "config error: cocycle.matrices[1]: expected a square matrix of reals",
        ),
        (
            _inline_binary({"family": "affine_interval", "a": math.nan, "b": 0.0}),
            "config error: system.maps[0]: a must be a finite real, got nan",
        ),
        (
            _inline_binary({"family": "affine_interval", "a": 0.5, "b": 0.0, "zzz": 1}),
            "config error: system.maps[0]: unknown key(s) 'zzz'",
        ),
        (
            _inline_binary({"family": "affine_interval", "a": 0.5, "b": 0.0}, space="interval"),
            "config error: system: unknown key(s) 'space'",
        ),
        (
            {"command": "cocycle", "cocycle": {"matrices": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], "probs": [1.0]}},
            "config error: cocycle.matrices[0]: must be square",
        ),
        (
            {"command": "cocycle", "cocycle": {"matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]]], "probs": [0.5, 0.5]}},
            "config error: cocycle.matrices[1]: must be invertible",
        ),
        (
            {"command": "verify", "threads": "x", "case": "sync-rate-battery"},
            "config error: threads: expected integer, got 'x'",
        ),
        (
            _inline_binary({"family": "affine_interval", "a": "0.5", "b": 0.0}),
            "config error: system.maps[0]: a must be a finite real, got '0.5'",
        ),
        (
            _inline_binary({"family": "affine_interval", "a": 0.5, "b": True}),
            "config error: system.maps[0]: b must be a finite real, got True",
        ),
        (
            {"command": "cocycle", "cocycle": {"matrices": [[["2", 0.0], [0.0, "0.5"]]], "probs": [1.0]}},
            "config error: cocycle.matrices[0]: expected a square matrix of reals",
        ),
        (
            {**_inline_binary({"family": "affine_interval", "a": 0.5, "b": 0.0}), "params": {"samples": 100, "x0": 10**400}},
            "config error: params.x0: expected finite real",
        ),
        (
            _inline_binary({"family": "affine_interval", "a": 0.5, "b": 0.0}, probs=[10**400, 0.5]),
            "config error: system.probs[0]: expected finite real",
        ),
        (
            {"command": "cocycle", "cocycle": {"matrices": [[[2.0, 0.0], [0.0, 0.5]]], "probs": [-(10**400)]}},
            "config error: cocycle.probs[0]: expected finite real",
        ),
        (
            {
                "command": "stationary",
                "system": {"maps": [{"family": "rotation", "c": i / 256} for i in range(128)], "probs": [1 / 128] * 128},
            },
            "config error: system.maps: expected a list of 1 to 127 map objects",
        ),
        (
            {"command": "cocycle", "cocycle": {"matrices": [[[2.0, 0.0], [0.0, 0.5]]] * 128, "probs": [1 / 128] * 128}},
            "config error: cocycle.matrices: at most 127 matrices",
        ),
        (
            {
                "command": "stationary",
                "system": {
                    "maps": [{"family": "projective", "matrix": [[2.0, 0.0], [0.0, 0.5]]}, {"family": "projective", "matrix": np.eye(3).tolist()}],
                    "probs": [0.5, 0.5],
                },
            },
            "config error: system.maps[1]: dimension 3 differs from the 2 of maps[0]",
        ),
        (
            {"command": "stationary", "system": _PROJECTIVE_PLANE, "params": {"samples": 100, "x0": 0.3}},
            "config error: params.x0: a projective start needs 2 coordinates, got 1",
        ),
        (
            {"command": "sync", "system": _PROJECTIVE_PLANE, "params": {"n": 10}},
            "config error: params.x: a projective start needs 2 coordinates, got 1",
        ),
        (
            {"command": "ld", "system": _PROJECTIVE_PLANE, "params": {"x0": 0.3}},
            "config error: params.x0: a projective start needs 2 coordinates, got 1",
        ),
        (
            {"command": "lyapunov", "system": _PROJECTIVE_PLANE},
            "config error: params.x0: a projective start needs 2 coordinates, got 1",
        ),
        (
            {"command": "limits", "system": "binary_affine", "params": {"law": "clt", "replicas": 50}},
            "config error: params.replicas: must be at least 100, got 50",
        ),
        (
            {"command": "limits", "system": "binary_affine", "params": {"law": "sigma2", "n": 10}},
            "config error: params.n: must be at least 64 for a variance estimate, got 10",
        ),
        (
            {"command": "limits", "system": "binary_affine", "params": {"law": "sigma2", "n": 100, "replicas": 10}},
            "config error: params.replicas: must be at least 30, got 10",
        ),
        (
            {"command": "limits", "system": "binary_affine", "params": {"law": "lil", "n": 100}},
            "config error: params.n: must be at least 10000 for the lil law, got 100",
        ),
        (
            {"command": "limits", "system": "binary_affine", "params": {"law": "slln", "n": 9}},
            "config error: params.n: must be at least 10, the first checkpoint, got 9",
        ),
        (
            {"command": "sync", "system": "anton", "params": {"mode": "average", "replicas": 50}},
            "config error: params.replicas: must be at least 100, got 50",
        ),
        (
            {"command": "sync", "system": "anton", "params": {"mode": "average", "alpha": 2.0}},
            "config error: params.alpha: must lie in (0, 1], got 2.0",
        ),
        (
            {"command": "sync", "system": "binary_affine", "params": {"mode": "rate", "n": 3}},
            "config error: params.n: must be at least 7 for a rate fit, got 3",
        ),
        (
            {"command": "ulam", "system": "binary_affine", "params": {"k_cells": 100}},
            "config error: params.k_cells: must be a power of two in [2, 65536], got 100",
        ),
        (
            {"command": "ulam", "system": "binary_affine", "params": {"m_eigs": 1}},
            "config error: params.m_eigs: must be at least 2, got 1",
        ),
        (
            {"command": "cocycle", "cocycle": "diag_rot", "params": {"replicas": 1}},
            "config error: params.replicas: must be at least 2, got 1",
        ),
        (
            {"command": "lyapunov", "system": "anton", "params": {"replicas": 1}},
            "config error: params.replicas: must be at least 2, got 1",
        ),
        (
            {"command": "lyapunov", "system": "binary_affine", "params": {"distortion": True, "x0": 1.0}},
            "config error: params.y: the distortion report needs y != params.x0, got 1.0 for both",
        ),
        (
            {"command": "ld", "system": "slope_pair", "params": {"x0": 0.3, "y": 0.3}},
            "config error: params.y: the pair-distance curve needs y != params.x0, got 0.3 for both",
        ),
        (
            {"command": "ld", "system": "anton", "params": {"x0": 0.25, "y": 1.25}},
            "config error: params.y: the pair-distance curve needs y != params.x0, got 1.25 and 0.25, one point mod 1",
        ),
        (
            {"command": "lyapunov", "system": "anton", "params": {"distortion": True, "x0": 0.25, "y": 1.25}},
            "config error: params.y: the distortion report needs y != params.x0, got 1.25 and 0.25, one point mod 1",
        ),
    ],
    ids=[
        "missing-key",
        "list-for-real",
        "ragged-matrix",
        "nan-map-param",
        "unknown-map-key",
        "system-space",
        "non-square-matrix",
        "singular-matrix",
        "verify-threads",
        "string-real",
        "bool-real",
        "string-matrix-entry",
        "huge-int-param",
        "huge-int-system-prob",
        "huge-int-cocycle-prob",
        "too-many-maps",
        "too-many-matrices",
        "projective-dimensions",
        "projective-real-x0",
        "projective-real-sync-start",
        "projective-real-ld-start",
        "projective-real-lyapunov-start",
        "clt-replicas",
        "sigma2-n",
        "sigma2-replicas",
        "lil-n",
        "slln-n",
        "sync-average-replicas",
        "sync-average-alpha",
        "sync-rate-n",
        "ulam-k-cells",
        "ulam-m-eigs",
        "cocycle-replicas",
        "lyapunov-replicas",
        "distortion-default-y",
        "ld-equal-starts",
        "ld-equal-mod-1",
        "distortion-equal-mod-1",
    ],
)
def test_inline_construction_errors_name_the_field(tmp_path, capsys, payload, expected):
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main([payload["command"], "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert expected in err and len(err.strip().splitlines()) == 1


def test_ld_accepts_unreduced_circle_starts(tmp_path):
    """Circle starts need not lie in [0, 1): 1.9 is the point 0.9, 0.2 from 0.1."""
    payload = {"system": "moebius_pair", "params": {"x0": 1.9, "y": 0.1, "horizons": [8], "replicas": 1000}}
    cfg = _write_config(tmp_path, "ld.json", payload)
    assert main(["ld", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "ld.csv").is_file()


@pytest.mark.parametrize("y", [None, 0.3], ids=["orbit", "sync"])
def test_ld_default_ladder_needs_a_nonzero_exponent(tmp_path, capsys, y):
    """Rotations have gamma = 0, so the default ladder 0.05..0.5 |gamma| is all zeros."""
    params = {"horizons": [8], "replicas": 1000, **({} if y is None else {"y": y})}
    cfg = _write_config(tmp_path, "ld.json", {"system": "two_rotations", "params": params})
    assert main(["ld", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert err.startswith("config error: params.epsilons: ") and "|gamma_hat|, which is 0.0" in err
    assert len(err.strip().splitlines()) == 1
    params["epsilons"] = [0.1, 0.2]
    cfg = _write_config(tmp_path, "ld.json", {"system": "two_rotations", "params": params})
    assert main(["ld", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_ld_exact_budget_is_capped_before_any_work(tmp_path, capsys, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("estimate_gamma ran on a config that was going to be rejected")

    monkeypatch.setattr(rdsw.lyapunov, "estimate_gamma", not_called)
    cfg = _write_config(tmp_path, "ld.json", {"system": "slope_pair", "params": {"exact_budget": 33554432, "horizons": [4]}})
    assert main(["ld", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert err == "config error: params.exact_budget: at most WORD_BUDGET = 16777216 words, got 33554432\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, params, field",
    [
        ("stationary", {"samples": 10**400}, "burn_in + params.samples"),
        ("stationary", {"burn_in": 10**400}, "burn_in + params.samples"),
        ("stationary", {"burn_in": 1 << 25, "samples": (1 << 25) + 1}, "burn_in + params.samples"),
        ("limits", {"law": "slln", "n": 10**400}, "n"),
        ("limits", {"law": "slln", "n": rdsw.cli.ORBIT_BUDGET + 1}, "n"),
        ("sync", {"n": 10**400}, "n"),
        ("sync", {"mode": "rate", "n": rdsw.cli.ORBIT_BUDGET + 1}, "n"),
    ],
)
def test_orbit_lengths_are_capped_before_any_work(tmp_path, capsys, monkeypatch, command, params, field):
    def not_called(*args, **kwargs):
        raise AssertionError("an orbit ran on a config that was going to be rejected")

    for name in ("estimate_stationary", "slln_check", "paired_orbit"):
        monkeypatch.setattr(rdsw.cli, name, not_called)
    cfg = _write_config(tmp_path, "c.json", {"system": "binary_affine", "params": params})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert err == f"config error: params.{field}: at most ORBIT_BUDGET = 67108864 steps in one orbit\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "params, message",
    [
        ({"shards": 10**400}, "params.shards: at most params.samples = 100000 shards"),
        ({"samples": 10, "shards": 11}, "params.shards: at most params.samples = 10 shards"),
        (
            {"burn_in": 1 << 24, "samples": (1 << 24) + 1, "shards": 3},
            "params.burn_in * params.shards + params.samples: at most ORBIT_BUDGET = 67108864 steps in all orbits",
        ),
        ({"burn_in": 1, "samples": 1 << 17, "shards": (1 << 16) + 1}, "params.shards: at most MAX_SHARDS = 65536 shards"),
    ],
    ids=["huge", "over-samples", "burn-in-product", "over-stream-ids"],
)
def test_stationary_shards_are_capped_before_any_work(tmp_path, capsys, monkeypatch, params, message):
    """Each shard runs its own burn-in, so the shard count is capped with the total length."""

    def not_called(*args, **kwargs):
        raise AssertionError("an orbit ran on a config that was going to be rejected")

    monkeypatch.setattr(rdsw.cli, "estimate_stationary", not_called)
    cfg = _write_config(tmp_path, "c.json", {"system": "binary_affine", "params": params})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, params, reached",
    [
        ("stationary", {"burn_in": 1 << 25, "samples": 1 << 25}, "estimate_stationary"),
        ("limits", {"law": "slln", "n": 1 << 26}, "slln_check"),
        ("sync", {"n": 1 << 26}, "paired_orbit"),
        ("sync", {"mode": "average", "n": 1 << 20}, "average_sync_sum"),
        ("stationary", {"burn_in": 1 << 24, "samples": 1 << 24, "shards": 3}, "estimate_stationary"),
        ("stationary", {"samples": 5, "shards": 5}, "estimate_stationary"),
        ("stationary", {"burn_in": 1, "samples": 1 << 17, "shards": 1 << 16}, "estimate_stationary"),
    ],
)
def test_orbit_length_cap_admits_the_budget(tmp_path, monkeypatch, command, params, reached):
    """Counts up to their caps reach the library."""

    class Reached(Exception):
        pass

    def stop(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(rdsw.cli, reached, stop)
    cfg = _write_config(tmp_path, "c.json", {"system": "binary_affine", "params": params})
    with pytest.raises(Reached):
        main([command, "--config", cfg, "--out", str(tmp_path / "x")])


_ENSEMBLE_RUNS = (
    "average_sync_sum",
    "estimate_sigma2",
    "clt_test",
    "lil_statistic",
    "estimate_gamma",
    "distortion_report",
    "ld_curve",
    "sync_ld_curve",
    "estimate_spectrum",
    "verify_lc_rate",
    "build_transfer_ulam",
    "build_laplace_markov",
)
_REPLICAS = ("REPLICA_BUDGET", 1 << 20, "replicas")
_HORIZON = ("HORIZON_BUDGET", 1 << 20, "steps per replica")
_CELLS = ("MAX_CELLS", 1 << 16, "cells")


@pytest.mark.parametrize(
    "command, config, field, budget",
    [
        ("limits", {"system": "binary_affine", "params": {"law": "clt", "n": 10, "replicas": 10**400}}, "replicas", _REPLICAS),
        ("limits", {"system": "binary_affine", "params": {"law": "sigma2", "replicas": (1 << 20) + 1}}, "replicas", _REPLICAS),
        ("limits", {"system": "binary_affine", "params": {"law": "lil", "n": (1 << 20) + 1}}, "n", _HORIZON),
        ("limits", {"system": "binary_affine", "params": {"law": "clt", "n": 10**400}}, "n", _HORIZON),
        ("limits", {"system": "binary_affine", "params": {"law": "sigma2", "n": (1 << 20) + 1}}, "n", _HORIZON),
        ("sync", {"system": "anton", "params": {"mode": "average", "n": (1 << 20) + 1}}, "n", _HORIZON),
        ("sync", {"system": "anton", "params": {"mode": "average", "replicas": 10**400}}, "replicas", _REPLICAS),
        ("sync", {"system": "anton", "params": {"replicas": (1 << 20) + 1}}, "replicas", _REPLICAS),
        ("lyapunov", {"system": "anton", "params": {"n": 10**400}}, "n", _HORIZON),
        ("lyapunov", {"system": "anton", "params": {"n": (1 << 20) + 1, "distortion": True, "y": 0.3}}, "n", _HORIZON),
        ("lyapunov", {"system": "anton", "params": {"replicas": (1 << 20) + 1}}, "replicas", _REPLICAS),
        ("ld", {"system": "slope_pair", "params": {"replicas": 10**400}}, "replicas", _REPLICAS),
        ("ld", {"system": "slope_pair", "params": {"horizons": [4, 10**400]}}, "horizons", _HORIZON),
        ("cocycle", {"cocycle": "diag_rot", "params": {"n": (1 << 20) + 1}}, "n", _HORIZON),
        ("cocycle", {"cocycle": "diag_rot", "params": {"mode": "verify_lc", "n": 10**400}}, "n", _HORIZON),
        ("cocycle", {"cocycle": "diag_rot", "params": {"mode": "verify_lc", "replicas": (1 << 20) + 1}}, "replicas", _REPLICAS),
        ("ulam", {"system": "binary_affine", "params": {"k_cells": 10**400}}, "k_cells", _CELLS),
        ("ulam", {"system": "anton", "params": {"k_cells": 1 << 17, "kind": "laplace"}}, "k_cells", _CELLS),
    ],
)
def test_ensemble_counts_are_capped_before_any_work(tmp_path, capsys, monkeypatch, command, config, field, budget):
    def not_called(*args, **kwargs):
        raise AssertionError("an ensemble ran on a config that was going to be rejected")

    for name in _ENSEMBLE_RUNS:
        monkeypatch.setattr(rdsw.cli, name, not_called)
    cfg = _write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    print(err)
    name, cap, what = budget
    assert getattr(rdsw.cli, name) == cap
    assert err == f"config error: params.{field}: at most {name} = {cap} {what}\n"
    assert not (tmp_path / "x").exists()


def test_output_must_be_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, "o.json", {"system": "binary_affine", "output": 5, "params": {"samples": 100}})
    assert main(["stationary", "--config", cfg]) == 2
    err = capsys.readouterr().err
    print(err)
    assert err == "config error: output: expected string, got 5\n"
    assert not (tmp_path / "rdsw_out").exists()


def test_lyapunov_rejects_circle_distortion_before_computing(tmp_path, capsys, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("estimate_gamma ran on a config that was going to be rejected")

    monkeypatch.setattr(rdsw.cli, "estimate_gamma", not_called)
    cfg = _write_config(tmp_path, "l.json", {"system": "anton", "params": {"distortion": True}})
    assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "params.y: required" in capsys.readouterr().err


def test_cocycle_verify_lc_default_config_resolves_contraction(tmp_path):
    """At the default n = 2000 the envelope q_target^k falls far below 1.5e-8,
    where a projective distance of the form sqrt(1 - <a, b>^2) reads 0 or
    1.49e-8, so that every word would fail; the wedge norm keeps resolving."""
    cfg = _write_config(tmp_path, "c.json", {"command": "cocycle", "cocycle": "diag_rot", "params": {"mode": "verify_lc"}})
    assert main(["cocycle", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    header, row = (tmp_path / "run" / "lc.csv").read_text().splitlines()
    fraction = float(dict(zip(header.split(","), row.split(",")))["fraction"])
    print(f"default verify_lc fraction {fraction}")
    assert fraction > 0.0


def test_guard_errors_exit_4(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "lc.json",
        {
            "command": "cocycle",
            "cocycle": "rotation_only",
            "params": {"mode": "verify_lc", "n": 50, "replicas": 8},
        },
    )
    assert main(["cocycle", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    print(err)
    assert "[RefusalError]" in err


def test_seed_validation(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.json", {"command": "stationary", "system": "binary_affine", "params": {"samples": 100}})
    assert main(["stationary", "--config", cfg, "--seed", "-3", "--out", str(tmp_path / "x")]) == 2
    assert "seed" in capsys.readouterr().err


def test_json_format_variant(tmp_path):
    cfg = _write_config(
        tmp_path,
        "j.json",
        {
            "command": "sync",
            "system": "binary_affine",
            "format": "json",
            "seed": 3,
            "params": {"x": 0.125, "y": 0.625, "n": 40},
        },
    )
    out_dir = tmp_path / "run"
    assert main(["sync", "--config", cfg, "--out", str(out_dir)]) == 0
    fit = json.loads((out_dir / "fit.json").read_text())
    print(fit)
    assert isinstance(fit, list) and set(fit[0]) == {"rate", "intercept", "r2", "censored_at"}
    trace = json.loads((out_dir / "trace.json").read_text())
    assert len(trace) == 41


def test_byte_determinism_across_threads(tmp_path):
    payload = {
        "command": "sync",
        "system": "binary_affine",
        "seed": 3,
        "params": {"x": 0.125, "y": 0.625, "n": 60},
    }
    cfg = _write_config(tmp_path, "d.json", payload)
    dirs = [tmp_path / "a", tmp_path / "b"]
    assert main(["sync", "--config", cfg, "--out", str(dirs[0]), "--threads", "1"]) == 0
    assert main(["sync", "--config", cfg, "--out", str(dirs[1]), "--threads", "4"]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        if name == "manifest.json":
            ma, mb = json.loads(a), json.loads(b)
            for drop in ("wall_time_s", "threads"):
                ma.pop(drop), mb.pop(drop)
            assert ma == mb, "manifests must agree apart from timing and thread count"
        else:
            assert a == b, f"{name} must be byte-identical across thread counts"


def test_verify_single_case(tmp_path, capsys):
    out_dir = tmp_path / "verify"
    code = main(["verify", "--case", "sync-rate-battery", "--out", str(out_dir)])
    out = capsys.readouterr().out
    print(out)
    assert code == 0
    assert "PASS sync-rate-battery" in out
    report = (out_dir / "report.csv").read_text()
    assert report == "case,passed\nsync-rate-battery,1\n"
    produced = list((out_dir / "sync-rate-battery").iterdir())
    assert produced, "verify should leave per-case artifacts behind"


def test_verify_unknown_case_exits_2(tmp_path, capsys):
    assert main(["verify", "--case", "not-a-case", "--out", str(tmp_path / "x")]) == 2
    assert "not-a-case" in capsys.readouterr().err


def test_ulam_export(tmp_path):
    cfg = _write_config(
        tmp_path,
        "u.json",
        {
            "command": "ulam",
            "system": "binary_affine",
            "params": {"k_cells": 64, "export_matrix": True, "probe_decay": True},
        },
    )
    out_dir = tmp_path / "run"
    assert main(["ulam", "--config", cfg, "--out", str(out_dir)]) == 0
    coo = (out_dir / "operator_coo.txt").read_text().splitlines()
    assert coo[0] == "0 0 0.5", "sparse export starts with the first dyadic overlap"
    assert len(coo) == 128, "two entries per row at k=64"
    summary = (out_dir / "ulam_summary.csv").read_text().splitlines()
    assert "probe_decay_rate" in summary[0] and "gap" in summary[0]
    eigen = (out_dir / "eigen.csv").read_text().splitlines()
    assert len(eigen) == 65


def _mostly(valid, other):
    """``valid`` nine times in ten, ``other`` otherwise."""
    return st.integers(0, 9).flatmap(lambda k: valid if k else other)


_REAL = _mostly(st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf]))
_ANY = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3) | _REAL
_TABLE = st.lists(_REAL, min_size=3, max_size=5)
_MAP_FIELDS = {
    "affine_interval": {"a": _REAL, "b": _REAL},
    "rotation": {"c": _REAL},
    "perturbed_rotation": {"c": _REAL, "amp": _REAL, "harmonic": st.integers(-1, 3) | _REAL, "phase": _REAL},
    "moebius_circle": {"matrix": st.lists(st.lists(_REAL, min_size=2, max_size=2), min_size=2, max_size=2)},
    "tabulated_monotone": {
        "nodes": _TABLE,
        "values": _TABLE,
        "space": st.sampled_from(["interval", "circle", "torus"]),
        "node_derivs": st.none() | _TABLE,
    },
}
_TOP_FIELDS = {  # valid values, then wrong ones
    "command": (st.just("stationary"), _ANY),
    "seed": (st.integers(0, (1 << 64) - 1), st.integers(-2, 1 << 65) | _ANY),
    "threads": (st.integers(1, 4), _ANY),
    "format": (st.sampled_from(["csv", "json"]), st.just("xml") | _ANY),
    "output": (st.text(max_size=3), _ANY),
}


@st.composite
def _fuzzed_map(draw):
    family = draw(st.sampled_from(sorted(_MAP_FIELDS)))
    m = {"family": family}
    for key, values in _MAP_FIELDS[family].items():
        if draw(_mostly(st.just(True), st.just(False))):
            m[key] = draw(values)
    if not draw(_mostly(st.just(True), st.just(False))):
        m["zzz"] = draw(_ANY)
    return m


@st.composite
def _fuzzed_config(draw):
    maps = draw(st.lists(_fuzzed_map(), min_size=1, max_size=3))
    probs = draw(_mostly(st.just([1.0 / len(maps)] * len(maps)), st.lists(_REAL, max_size=3)))
    config = {"system": {"maps": maps, "probs": probs}, "params": {"samples": 100, "burn_in": 10}}
    for key, (valid, wrong) in _TOP_FIELDS.items():
        value = draw(_mostly(st.sampled_from(["absent", "valid"]), st.just("wrong")))
        if value != "absent":
            config[key] = draw(valid if value == "valid" else wrong)
    return config


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_fuzzed_config())
def test_config_fuzz_exits_cleanly(tmp_path, capsys, config):
    """Any config exits 0, 2 or 4 without a traceback; a refusal is one stderr line."""
    cfg = _write_config(tmp_path, "fuzz.json", config)
    code = main(["stationary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 4), err
    if code:
        assert len(err.strip().splitlines()) == 1, err
    else:  # strict JSON: NaN and infinities would reach parse_constant
        json.loads((tmp_path / "out" / "manifest.json").read_text(), parse_constant=pytest.fail)


# ---------------------------------------------------------------------------
# the streaming table writer


def _reference_table(fmt: str, header: list, rows: list) -> bytes:
    """A table written row by row: every cell through _cell or _jcell, one join or one dumps."""
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(rdsw.util._cell(c) for c in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    payload = [dict(zip(header, (rdsw.util._jcell(c) for c in row))) for row in rows]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _bare_run(tmp_path: Path, fmt: str) -> rdsw.cli._Run:
    args = SimpleNamespace(command="t", seed=None, threads=None, out=str(tmp_path / fmt))
    return rdsw.cli._Run(args, {"format": fmt}, seeded=False)


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1e-300, 5e-324, 1.7976931348623157e308, -2.5]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, rdsw.util.CHUNK_ROWS, rdsw.util.CHUNK_ROWS + 1])
def test_table_writer_matches_row_wise_reference(tmp_path, fmt, n_rows):
    """Tables given by rows or by columns, float arrays or scalars of every kind, stream to the same bytes."""
    rng = np.random.default_rng(n_rows)
    floats = np.concatenate([_SPECIAL, rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)])[:n_rows]
    ints = [int(v) for v in rng.integers(-(1 << 40), 1 << 40, n_rows)]
    flags = [bool(v) for v in rng.integers(0, 2, n_rows)]
    np_flags = rng.integers(0, 2, n_rows).astype(bool)
    words = [f"w{i}" for i in range(n_rows)]
    header = ["z_float", "int", "flag", "np_flag", "a_str", "np_int", "np_float"]
    rows = list(zip(floats.tolist(), ints, flags, np_flags, words, np.arange(n_rows), floats))
    assert all(type(r[3]) is np.bool_ and type(r[6]) is np.float64 for r in rows)
    run = _bare_run(tmp_path, fmt)
    run.table("rows", header, rows)
    run.columns("cols", header, [floats, ints, flags, np_flags, words, np.arange(n_rows), floats.copy()])
    run.columns("strided", ["a", "b"], list(np.stack([floats, -floats], axis=1).T))
    run.write({})
    expected = _reference_table(fmt, header, rows)
    assert (tmp_path / fmt / f"rows.{fmt}").read_bytes() == expected
    assert (tmp_path / fmt / f"cols.{fmt}").read_bytes() == expected
    strided = _reference_table(fmt, ["a", "b"], list(zip(floats, -floats)))
    assert (tmp_path / fmt / f"strided.{fmt}").read_bytes() == strided


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_projective_stationary_atoms_match_row_wise_reference(tmp_path, monkeypatch, fmt):
    """A 3-d projective measure writes columns weight, x0..x2, across a chunk edge."""
    seen = []

    def keep(*args, **kwargs):
        seen.append(rdsw.measures.estimate_stationary(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(rdsw.cli, "estimate_stationary", keep)
    matrices = ([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    system = {"maps": [{"family": "projective", "matrix": m} for m in matrices], "probs": [0.5, 0.5]}
    cfg = _write_config(tmp_path, "c.json", {"system": system, "format": fmt, "params": {"burn_in": 10, "samples": 5000}})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "x")]) == 0
    (m,) = seen
    assert m.atoms.shape == (5000, 3) and 5000 > rdsw.util.CHUNK_ROWS
    rows = [tuple([w] + list(a)) for w, a in zip(m.weights, m.atoms)]
    expected = _reference_table(fmt, ["weight", "x0", "x1", "x2"], rows)
    assert (tmp_path / "x" / f"atoms.{fmt}").read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stationary_write_memory_does_not_grow_with_atoms(tmp_path, monkeypatch, fmt):
    """Writing a 100k-atom measure holds a chunk of formatted rows, not the whole file."""
    measure = rdsw.measures.EmpiricalMeasure(np.random.default_rng(0).random(100_000), None, "interval")
    monkeypatch.setattr(rdsw.cli, "estimate_stationary", lambda *a, **k: measure)
    cfg = _write_config(tmp_path, "c.json", {"system": "binary_affine", "format": fmt})
    tracemalloc.start()
    try:
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "x")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{fmt} peak {peak / 2**20:.2f} MB")
    assert peak < 8 * 2**20
