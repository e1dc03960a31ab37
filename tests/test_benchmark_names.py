"""The engine names the benchmark harness reads.

perfbench/run.py wraps engine attributes from outside when it traces a
workload (``--trace 1``), and reads ``divcert.KERNEL_BACKEND`` for its
report, so deleting or renaming one of them breaks every traced run.
These tests import the harness as it stands, install its tracer on the
engine modules, and restore them.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

import divcert
from divcert import cli, core, divisibility, qdivisibility, qpoly  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """perfbench/run.py as a module; it puts its own directory on sys.path
    and imports spans and workloads from there, all undone afterwards.  Its
    dataclasses look their module up in sys.modules while it runs."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    added = {"spans", "workloads"} - set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        for name in added:
            sys.modules.pop(name, None)


def _owners():
    """Every divcert module and the classes the tracer patches."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "divcert" or name.startswith("divcert.")]
    return modules + [qpoly.CycloFactorization]


def test_install_wraps_the_engine_and_restore_undoes_it(harness):
    engine = types.SimpleNamespace(**{
        name: sys.modules[f"divcert.{name}"] for name in harness.ENGINE_MODULES})
    # Functions and classes only: a call may rebind a module's caches.
    before = [(owner, {k: v for k, v in vars(owner).items()
                       if isinstance(v, (types.FunctionType, type))})
              for owner in _owners()]
    tracer = harness.spans.Tracer()
    harness.install(tracer, engine)
    try:
        assert qpoly.expand_expr.__wrapped__ is not None
        assert qpoly.CycloFactorization.degree.__wrapped__ is not None
        assert qpoly.gaussian_factorization(6, 3).degree() == 9
        assert tracer.calls["qpoly.CycloFactorization.degree"] == 1
        assert tracer.calls["qpoly.gaussian_factorization"] == 1
    finally:
        tracer.restore()
    for owner, names in before:
        assert all(vars(owner)[k] is v for k, v in names.items()), owner
    assert isinstance(divcert.KERNEL_BACKEND, str)
