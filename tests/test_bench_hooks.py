"""The benchmark's tracer wraps netcov functions by module and qualified
name, and its workloads import netcov names, so renaming or moving one of
them fails here instead of in a benchmark run.  Only reads ``perfbench/``."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracer
    import workloads  # noqa: F401  (fails on a netcov name it imports)
finally:
    sys.path.remove(PERFBENCH)

TARGETS = [(module, qualname)
           for _, module, qualname, _ in tracer.Tracer().targets()]


@pytest.mark.parametrize("module,qualname", TARGETS,
                         ids=[f"{m}.{q}" for m, q in TARGETS])
def test_traced_function_resolves(module, qualname):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
