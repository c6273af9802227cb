"""Golden digests: the same seed gives the same bytes across code changes.

Every CLI command runs at a small config, in csv and in json, plus inline
systems of each map family, ``rdsw gallery`` and the verify cases that cover
the exact word enumeration, the Ulam battery and the sync-rate battery. The sha256
of each result file, and of ``manifest.json`` without ``wall_time_s``, must
equal ``tests/golden.json`` under the key of the installed numpy and scipy
(the manifest's python version is left out with them). Re-record only in a
change that names the bytes it alters and says why:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from rdsw.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
RECORD = "PYTHONPATH=src python tests/test_golden.py --record"


def _map(family: str, **params) -> dict:
    return {"family": family, **params}


_ROTATIONS = {
    "maps": [_map("rotation", c=0.25), _map("perturbed_rotation", c=0.1, amp=0.4, harmonic=2, phase=0.3)],
    "probs": [0.5, 0.5],
}
_MOEBIUS = {"maps": [_map("moebius_circle", matrix=[[1.3, 0.2], [0.1, 0.8]]), _map("rotation", c=0.4)], "probs": [0.6, 0.4]}
_TABULATED_INTERVAL = {
    "maps": [
        _map("tabulated_monotone", nodes=[0.0, 0.5, 1.0], values=[0.0, 0.2, 0.5], node_derivs=[0.3, 0.5, 0.7]),
        _map("affine_interval", a=0.5, b=0.5),
    ],
    "probs": [0.5, 0.5],
}
_TABULATED_CIRCLE = {
    "maps": [
        _map("tabulated_monotone", nodes=[0.0, 0.3, 0.7], values=[0.1, 0.55, 0.8], space="circle", node_derivs=[0.9, 1.2, 0.8]),
        _map("rotation", c=0.5),
    ],
    "probs": [0.5, 0.5],
}
_PROJECTIVE = {"maps": [_map("projective", matrix=[[2.0, 1.0], [1.0, 1.0]]), _map("projective", matrix=[[0.0, -1.0], [1.0, 0.0]])], "probs": [0.5, 0.5]}

# run name -> (command, config); the name's "{fmt}" is filled with csv and json
_FORMATTED = {
    "stationary-binary-{fmt}": ("stationary", {"system": "binary_affine", "params": {"burn_in": 100, "samples": 3000, "diagnostic": True}}),
    "stationary-anton-shards-{fmt}": (
        "stationary",
        {"system": "anton", "threads": 2, "params": {"burn_in": 100, "samples": 3000, "shards": 3, "diagnostic": True}},
    ),
    "sync-rate-binary-{fmt}": ("sync", {"system": "binary_affine", "params": {"x": 0.125, "y": 0.625, "n": 60}}),
    "sync-rate-moebius-{fmt}": ("sync", {"system": "moebius_pair", "params": {"x": 0.2, "y": 0.7, "n": 80}}),
    "sync-average-anton-{fmt}": ("sync", {"system": "anton", "params": {"mode": "average", "n": 40, "replicas": 300, "alpha": 0.5}}),
    "limits-slln-{fmt}": ("limits", {"system": "binary_affine", "params": {"law": "slln", "n": 20000}}),
    "limits-sigma2-{fmt}": ("limits", {"system": "moebius_pair", "params": {"law": "sigma2", "observable": "cos2pi", "n": 200, "replicas": 300}}),
    "limits-clt-{fmt}": ("limits", {"system": "slope_pair", "params": {"law": "clt", "n": 200, "replicas": 300}}),
    "limits-lil-{fmt}": ("limits", {"system": "two_rotations", "params": {"law": "lil", "observable": "sin2pi", "n": 10000, "replicas": 8}}),
    "lyapunov-anton-{fmt}": ("lyapunov", {"system": "anton", "params": {"n": 200, "replicas": 20, "distortion": True, "y": 0.3}}),
    "ld-orbit-slope-{fmt}": ("ld", {"system": "slope_pair", "params": {"horizons": [4, 8, 16], "replicas": 3000}}),
    "ld-sync-moebius-{fmt}": ("ld", {"system": "moebius_pair", "params": {"x0": 0.2, "y": 0.7, "horizons": [4, 8], "replicas": 2000}}),
    "cocycle-spectrum-{fmt}": ("cocycle", {"cocycle": "diag_rot", "params": {"n": 300, "replicas": 8}}),
    "cocycle-lc-{fmt}": ("cocycle", {"cocycle": "single_hyperbolic", "params": {"mode": "verify_lc", "n": 20, "replicas": 8}}),
    "ulam-transfer-{fmt}": ("ulam", {"system": "binary_affine", "params": {"k_cells": 64, "export_matrix": True, "probe_decay": True}}),
    "ulam-laplace-anton-{fmt}": ("ulam", {"system": "anton", "params": {"k_cells": 64, "kind": "laplace"}}),
}
_INLINE = {
    "inline-rotations-sync": ("sync", {"system": _ROTATIONS, "params": {"x": 0.1, "y": 0.6, "n": 50}}),
    "inline-rotations-stationary": ("stationary", {"system": _ROTATIONS, "params": {"burn_in": 50, "samples": 2000, "diagnostic": True}}),
    "inline-moebius-sync-average": ("sync", {"system": _MOEBIUS, "params": {"mode": "average", "n": 30, "replicas": 200}}),
    "inline-moebius-ld": ("ld", {"system": _MOEBIUS, "params": {"x0": 0.3, "y": 0.9, "horizons": [4, 6], "replicas": 1000}}),
    "inline-tabulated-interval-stationary": ("stationary", {"system": _TABULATED_INTERVAL, "params": {"burn_in": 50, "samples": 2000, "diagnostic": True}}),
    "inline-tabulated-interval-lyapunov": ("lyapunov", {"system": _TABULATED_INTERVAL, "params": {"n": 100, "replicas": 10}}),
    "inline-tabulated-circle-sync": ("sync", {"system": _TABULATED_CIRCLE, "params": {"x": 0.05, "y": 0.45, "n": 40}}),
    "inline-tabulated-circle-ulam": ("ulam", {"system": _TABULATED_CIRCLE, "params": {"k_cells": 32}}),
    "inline-projective-stationary": ("stationary", {"system": _PROJECTIVE, "params": {"burn_in": 50, "samples": 500}}),
    "verify-sync-rate-battery": ("verify", {"case": "sync-rate-battery"}),
    "verify-ld-exact-handoff": ("verify", {"case": "ld-exact-handoff"}),
    "verify-sync-ld-identity": ("verify", {"case": "sync-ld-identity"}),
    "verify-ulam-battery": ("verify", {"case": "ulam-battery"}),
}


def _runs() -> dict:
    runs = dict(_INLINE)
    for name, (command, config) in _FORMATTED.items():
        for fmt in ("csv", "json"):
            runs[name.format(fmt=fmt)] = (command, {**config, "format": fmt})
    return runs


RUNS = _runs()


def versions_key() -> str:
    return f"numpy {np.__version__} scipy {scipy.__version__}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_bytes(path: Path) -> bytes:
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"]
    del manifest["versions"]["python"]
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def run_digests(name: str, work: Path) -> dict:
    """sha256 of every file one run writes, by path relative to its output directory."""
    command, config = RUNS[name]
    cfg = work / f"{name}.json"
    cfg.write_text(json.dumps({"command": command, **config}))
    out = work / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 0, f"{name}: exit {code}"
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        digests[rel] = _sha(_manifest_bytes(path) if rel == "manifest.json" else path.read_bytes())
    return digests


def gallery_digest() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["gallery"]) == 0
    return _sha(buf.getvalue().encode())


def _golden() -> dict:
    book = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if versions_key() not in book:
        pytest.fail(f"tests/golden.json has no digests for {versions_key()}; record them with: {RECORD}")
    return book[versions_key()]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_bytes_match_golden(tmp_path, name):
    want = _golden()["runs"].get(name)
    assert want is not None, f"no golden digests for {name}; record them with: {RECORD}"
    got = run_digests(name, tmp_path)
    assert got == want, f"{name}: output bytes differ from tests/golden.json"


def test_gallery_listing_matches_golden():
    assert gallery_digest() == _golden()["gallery"], "rdsw gallery output differs from tests/golden.json"


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(name, Path(tmp)) for name in sorted(RUNS)}
    book = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    book[versions_key()] = {"gallery": gallery_digest(), "runs": runs}
    GOLDEN.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(runs)} runs for {versions_key()} in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    record()
