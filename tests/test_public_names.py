"""The public surface: every exported name exists, and so does every function
the benchmark's tracer wraps, with the argument positions it reads."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import rdsw

MODULES = ["rdsw", *(f"rdsw.{m.name}" for m in pkgutil.iter_modules(rdsw.__path__))]


@pytest.mark.parametrize("modname", MODULES)
def test_every_export_resolves(modname):
    mod = importlib.import_module(modname)
    stale = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == [], f"{modname}.__all__ names what the module no longer defines"


def test_bench_tracer_wraps_only_existing_functions():
    """``bench/tracer.py`` reports a wrapper target that no longer exists as
    ``missing``, and reads some counts from positional arguments."""
    for modname in MODULES:
        importlib.import_module(modname)
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("rdsw_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
    positions = [
        (rdsw.systems.ensemble_apply, 0, "system"),
        (rdsw.systems.ensemble_apply, 2, "srow"),
        (rdsw.systems.ensemble_apply_many, 1, "arrays"),
        (rdsw.systems.ensemble_apply_many, 2, "srow"),
        (rdsw.systems.iterate, 3, "n"),
        (rdsw.synchronization.paired_orbit, 4, "n"),
        (rdsw.acceptance.run_case, 0, "case_id"),
        (rdsw.cli.main, 0, "argv"),
    ]
    for fn, i, name in positions:
        assert list(inspect.signature(fn).parameters)[i] == name, f"{fn.__qualname__} argument {i}"
