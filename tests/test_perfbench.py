"""The benchmark's contract with the package, checked without running it.

perfbench/ reaches into the package by name: its workloads call public
functions with fixed keyword arguments, its microbenchmarks call the layer
functions directly, and its tracer replaces functions, private ones
included, and silently skips a name that is gone.  A rename
there would only zero a metric or fail a benchmark run, so these tests load
the benchmark's own modules, unchanged, and exercise them.
"""
import ast
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from crystal_ca import automaton, make_backend, rmatrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_batch_passes(name):
    workload = workloads.WORKLOADS[name]
    bk = make_backend(workloads.SPEC)
    rmatrix.clear_tables()
    try:
        workload.warm(bk)
        batch = workload.batch(bk, random.Random(0), 0)
        for _ in range(batch.steps):
            batch.step()
        assert batch.failed() == 0
    finally:
        rmatrix.clear_tables()


def _traced_names() -> dict[str, set[str]]:
    """The attributes of rmatrix and automaton that Tracer.install wraps, read
    from its (module, "name", wrapper) target tuples."""
    names: dict[str, set[str]] = {"rmatrix": set(), "automaton": set()}
    for node in ast.walk(ast.parse((PERFBENCH / "tracing.py").read_text())):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in names
                and isinstance(node.elts[1], ast.Constant)):
            names[node.elts[0].id].add(node.elts[1].value)
    return names


def test_tracer_wraps_every_target():
    modules = {"rmatrix": rmatrix, "automaton": automaton}
    targets = _traced_names()
    assert all(targets.values()), targets
    originals = {}
    for mod, names in targets.items():
        for name in names:
            assert hasattr(modules[mod], name), f"{mod}.{name} is gone"
            originals[mod, name] = getattr(modules[mod], name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), original in originals.items():
            assert getattr(modules[mod], name) is not original, f"{mod}.{name} not wrapped"
    finally:
        tracer.uninstall()
    for (mod, name), original in originals.items():
        assert getattr(modules[mod], name) is original


def test_microbenchmarks_run(monkeypatch):
    # micro.py imports its sibling as "workloads"; the trace phase runs it once
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    micro = _load("micro")
    micro.REPEATS = 1
    figures = micro.run(make_backend(workloads.SPEC))
    assert figures
    for name, value in figures.items():
        assert math.isfinite(value) and value > 0, (name, value)
