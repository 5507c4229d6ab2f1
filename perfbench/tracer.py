"""Span and counter recording around the calls into netcov's layers.

The wrappers live here, outside the package: ``install`` replaces each traced
function at every name inside the ``netcov`` modules that resolves to it, so
a caller that imported the function by name (``netcov.cli.run_experiment``,
``netcov.estimators.owen_scramble``) is traced exactly like one that goes
through the defining module.  Methods are replaced on their class.

Every call becomes one span (name, start, end, parent span, op index), kept
in memory until ``summary``.  A span's self time is its duration minus the
durations of its direct children.  Counters are computed from a call's
arguments and result after the span closes; the time that takes is recorded
as a child of the caller, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _perms_drawn(ps, p_out: int) -> int:
    """Permutations owen_scramble draws: one per distinct input-digit prefix
    (tree node) at every output depth of every coordinate.  Digits past the
    input precision are zero, so a prefix count stops growing there."""
    total = 0
    for j in range(ps.s):
        node = np.zeros(ps.n, dtype=np.int64)
        nodes = 1
        for d in range(p_out):
            total += nodes
            if nodes < ps.n and d < ps.precision:
                uniq, node = np.unique(node * ps.b + ps.digits[:, j, d],
                                       return_inverse=True)
                nodes = len(uniq)
    return total


def _profile_bytes(n: int, s: int, p: int) -> int:
    """Bytes of the arrays profile_bruteforce allocates, by arithmetic: per
    coordinate an int64 and a bool n x n matrix plus one bool n x n
    comparison per digit, the off-diagonal mask and the eye it is made from,
    the per-coordinate off-diagonal copies and their stacked int64 matrix.
    np.unique's sort buffers are not counted."""
    pairs = n * (n - 1)
    return s * (8 + 1 + p) * n * n + 2 * n * n + 2 * 8 * s * pairs


class Tracer:
    """Records spans and counters while installed; one per traced phase."""

    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._perm_cache: dict[tuple, int] = {}

    # -- counters -----------------------------------------------------------

    def _count_scramble(self, result, ps, *args, **kwargs):
        key = (hashlib.blake2b(ps.digits.tobytes()).digest(), ps.digits.shape,
               result.precision)
        if key not in self._perm_cache:
            self._perm_cache[key] = _perms_drawn(ps, result.precision)
        return {"scramble.perms_drawn": self._perm_cache[key],
                "scramble.digits_out": int(result.digits.size)}

    @staticmethod
    def _count_eval(result, poly, digits):
        return {"walsh.term_points": len(poly.terms) * digits.shape[0]}

    @staticmethod
    def _count_profile(result, ps):
        return {"counting.gamma_cells": ps.s * ps.n * ps.n * ps.precision,
                "counting.bytes_alloc": _profile_bytes(ps.n, ps.s, ps.precision)}

    @staticmethod
    def _count_verify(result, *args, **kwargs):
        return {"nets.intervals_checked": result.intervals_checked}

    @staticmethod
    def _count_write(result, text, path):
        return {"cli.rows_out": text.count("\n"),
                "cli.bytes_out": len(text.encode("utf-8"))}

    # -- wrappers -----------------------------------------------------------

    def _add_counts(self, hook, result, args, kwargs):
        h0 = perf_counter()
        for key, value in hook(result, *args, **kwargs).items():
            self.counts[key][self.op] += value
        self.spans.append(("trace.counters", h0, perf_counter(),
                           self._stack[-1] if self._stack else -1, self.op))

    def _span(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
            if hook is not None:
                self._add_counts(hook, result, args, kwargs)
            return result
        return wrapper

    def _counter(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add_counts(hook, result, args, kwargs)
            return result
        return wrapper

    def targets(self):
        """(span name or None, module, qualified name, counter hook)."""
        return (
            ("cli.main", "netcov.cli", "main", None),
            (None, "netcov.cli", "_write", self._count_write),
            ("scramble.owen_scramble", "netcov.scramble", "owen_scramble",
             self._count_scramble),
            ("walsh.eval_digit_matrix", "netcov.walsh",
             "WalshPolynomial.eval_digit_matrix", self._count_eval),
            ("estimators.run_experiment", "netcov.estimators", "run_experiment", None),
            ("estimators.build_function", "netcov.estimators", "build_function", None),
            ("counting.profile_bruteforce", "netcov.counting", "profile_bruteforce",
             self._count_profile),
            ("nets.faure_net", "netcov.nets", "faure_net", None),
            ("nets.verify_net", "netcov.nets", "verify_net", self._count_verify),
            ("nets.load_point_set", "netcov.nets", "load_point_set", None),
            ("nets.save_point_set", "netcov.nets", "save_point_set", None),
            ("covkernel.psi_hat_zero_t", "netcov.covkernel", "psi_hat_zero_t", None),
            ("covkernel.cov_polynomial", "netcov.covkernel", "cov_polynomial", None),
            ("covkernel.poly_eval", "netcov.covkernel", "CovPolynomial.eval", None),
            ("covkernel.q_s", "netcov.covkernel", "q_s", None),
        )

    def span_names(self):
        return [t[0] for t in self.targets() if t[0] is not None]

    def counter_names(self):
        return ["scramble.perms_drawn", "scramble.digits_out", "walsh.term_points",
                "counting.gamma_cells", "counting.bytes_alloc",
                "nets.intervals_checked", "cli.rows_out", "cli.bytes_out"]

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "netcov" or key.startswith("netcov.")]
        for name, module, qualname, hook in self.targets():
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = (self._span(name, original, hook) if name is not None
                       else self._counter(original, hook))
            holders = [owner] if isinstance(owner, type) else [
                mod for mod in modules if getattr(mod, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self, cycle: int, cycles: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and counters of the first cycle (ops
        0 .. cycle-1), which repeat exactly at one seed, and self time per
        cycle averaged over the ``cycles`` whole cycles traced."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, t0, t1, _, op), inner in zip(self.spans, child):
            self_s[name] += t1 - t0 - inner
            if op < cycle:
                calls[name] += 1
        out = {}
        for name in self.span_names():
            out[f"{name}.calls"] = (calls[name], "calls/cycle")
            out[f"{name}.self_s"] = (self_s[name] / cycles, "s/cycle")
        for name in self.counter_names():
            first = sum(v for op, v in self.counts[name].items() if op < cycle)
            unit = "B-computed/cycle" if name.endswith("bytes_alloc") \
                or name.endswith("bytes_out") else "count/cycle"
            out[name] = (first, unit)
        return out
