"""The benchmark's tracer wraps netcov functions by module and qualified
name, and its workloads import netcov names, so renaming or moving one of
them fails here instead of in a benchmark run.  Only reads ``perfbench/``."""

import importlib
import os
import sys

import pytest

from netcov.nets import faure_net
from netcov.scramble import default_precision, owen_scramble

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


def test_scramble_counter_reads_owen_scramble():
    # the hook runs only when a traced op calls owen_scramble, so a signature
    # slip would otherwise show only as failed benchmark ops
    b, m, s = 2, 3, 2
    ps = faure_net(b, m, s)
    p_out = default_precision(b, m)
    counts = tracer.Tracer()._count_scramble(owen_scramble(ps, 7), ps, 7)
    assert all(type(value) is int for value in counts.values())
    assert counts["scramble.digits_out"] == ps.n * s * p_out
    # a (0,m,s)-net has b^d prefixes at depth d < m and n from there on
    assert counts["scramble.perms_drawn"] == s * ((b ** m - 1) // (b - 1)
                                                  + ps.n * (p_out - m))
