"""The benchmark's three workloads, each a cycle of ``netcov`` CLI commands.

A workload builds its inputs from the workload seed, names the argv lists
of op ``i``, and checks that op's outputs.  ``check`` raises ``CheckFailed``
on a wrong output and otherwise returns the work the op completed, in the
workload's unit.  ``finish`` applies the checks that need a whole run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction
from itertools import product

import numpy as np

from netcov.counting import N_closed_form
from netcov.covkernel import cov_polynomial
from netcov.estimators import ExperimentConfig, build_function, run_experiment
from netcov.scramble import default_precision


class CheckFailed(Exception):
    """An op's output differs from what the benchmark knows it must be."""


def derive(seed: int, *parts) -> int:
    """A 63-bit seed derived from the workload seed and a label."""
    text = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _exit_codes(outs) -> None:
    for rc, _ in outs:
        _require(rc == 0, f"command exited with {rc}")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Replicate:
    """``simulate --config`` at criterion 9's decay shape: b=2, m=4, s=2,
    per-shell decay a=1/2, x=3/20, k_max=5 (112 terms, precision 5)."""

    name = "replicate"
    unit = "replications/s"
    cycle = 1
    seed_used = True
    R = 50
    RETRY_R = 20000
    B, M, S = 2, 4, 2
    A, X, K_MAX = Fraction(1, 2), Fraction(3, 20), 5

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.spec = {"kind": "decay", "decay": "per-shell", "a": str(self.A),
                     "x": str(self.X), "alpha": "1", "k_max": self.K_MAX,
                     "seed": derive(seed, self.name, "function") % 2 ** 31}
        self.config = os.path.join(tmp, "experiment.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"b": self.B, "m": self.M, "s": self.S, "R": self.R,
                       "function": self.spec}, fh)
        self.report = os.path.join(tmp, "report.json")
        self.trace = os.path.join(tmp, "trace.csv")
        self.n = self.B ** self.M
        self.cov_expected = cov_polynomial(self.B, self.M, self.S, self.A) \
            .covariance(self.X)
        # shell weights a^r (bx)^k summed over every nonzero shell, over n
        shells = Fraction(0)
        for k_vec in product(range(self.K_MAX + 1), repeat=self.S):
            if 0 < sum(k_vec) <= self.K_MAX:
                r = sum(1 for k in k_vec if k)
                shells += self.A ** r * (self.B * self.X) ** sum(k_vec)
        self.var_expected = shells / self.n
        coef0 = build_function(self.B, self.S, self.spec).constant_coefficient()
        self.integral = coef0.to_complex()
        self.w0 = float(coef0.weight)
        self.pooled: dict[int, tuple[np.ndarray, np.ndarray, str]] = {}

    def commands(self, i: int):
        return [["--seed", str(derive(self.seed, self.name, i)), "simulate",
                 "--config", self.config, "--out", self.report,
                 "--trace", self.trace]]

    def check(self, i: int, outs) -> int:
        _exit_codes(outs)
        with open(self.report, encoding="utf-8") as fh:
            doc = json.load(fh)
        _require(Fraction(doc["cov_analytic"]) == self.cov_expected,
                 f"cov_analytic {doc['cov_analytic']} != {self.cov_expected}")
        _require(Fraction(doc["var_mc_analytic"]) == self.var_expected,
                 f"var_mc_analytic {doc['var_mc_analytic']} != {self.var_expected}")
        _require((doc["n"], doc["R"], doc["precision"]) == (self.n, self.R, 5),
                 "report shape")
        digest = _sha256(self.trace)
        if i in self.pooled:
            # a repeated op index (the traced phase) must reproduce its stream
            _require(self.pooled[i][2] == digest, f"op {i} output changed")
            return self.R
        with open(self.trace, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        _require(len(rows) == self.R, "trace row count")
        data = np.array([[float(v) for v in row[1:]] for row in rows])
        _require(bool(np.isfinite(data).all()), "non-finite estimate")
        self.pooled[i] = (data[:, 0] + 1j * data[:, 1], data[:, 2], digest)
        return self.R

    def gates(self, estimates: np.ndarray, pair_terms: np.ndarray) -> list[str]:
        """Criterion 9's 3-SE gates on pooled replications."""
        R = len(estimates)
        cov = float(self.cov_expected)
        cov_emp = math.fsum(pair_terms) / R - self.w0
        cov_se = float(np.std(pair_terms, ddof=1)) / math.sqrt(R)
        mean = complex(estimates.mean())
        est_var = math.fsum(np.abs(estimates - mean) ** 2) / (R - 1)
        deltas = (np.abs(estimates - self.integral) ** 2
                  - (self.n - 1) / self.n * (pair_terms - self.w0))
        residual = math.fsum(deltas) / R - float(self.var_expected)
        residual_se = float(np.std(deltas, ddof=1)) / math.sqrt(R)
        failures = []
        if abs(cov_emp - cov) > 3 * cov_se + 1e-12:
            failures.append(f"cov_emp {cov_emp} vs {cov} (se {cov_se})")
        if cov_emp >= 0:
            failures.append(f"cov_emp {cov_emp} not negative")
        if est_var > float(self.var_expected) + 1e-12:
            failures.append(f"est_var {est_var} above {float(self.var_expected)}")
        if abs(residual) > 3 * residual_se + 1e-12:
            failures.append(f"variance identity residual {residual} (se {residual_se})")
        return failures

    def finish(self) -> list[str]:
        """Gate the pooled replications once per run.  As in criterion 9, a
        failed gate is retried once on fresh replications before it counts;
        the retry uses criterion 9's R = 20000 rather than four times the
        pool, which keeps a run inside its time limit."""
        if len(self.pooled) < 1:
            return ["no replications to gate"]
        estimates = np.concatenate([p[0] for p in self.pooled.values()])
        pair_terms = np.concatenate([p[1] for p in self.pooled.values()])
        failures = self.gates(estimates, pair_terms)
        if failures:
            rerun = run_experiment(ExperimentConfig(
                b=self.B, m=self.M, s=self.S, R=self.RETRY_R,
                seed=derive(self.seed, self.name, "retry"),
                function_spec=self.spec))
            failures = self.gates(rerun.estimates, rerun.pair_terms)
        return failures


class NetTools:
    """``net gen``, ``scramble`` at default precision, ``net verify`` and
    ``psi profile`` on temp files, cycling through three net sizes."""

    name = "net-tools"
    unit = "points/s"
    SIZES = ((2, 10, 2), (3, 6, 3), (2, 8, 2))
    cycle = len(SIZES)
    seed_used = True

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.net = os.path.join(tmp, "net.txt")
        self.prefix = os.path.join(tmp, "scrambled")
        self.scrambled = self.prefix + "000.txt"
        self.profile = os.path.join(tmp, "profile.json")

    def commands(self, i: int):
        b, m, s = self.SIZES[i % self.cycle]
        return [
            ["net", "gen", "--base", str(b), "--m", str(m), "--s", str(s),
             "--out", self.net],
            ["--seed", str(derive(self.seed, self.name, i)), "scramble",
             "--out-prefix", self.prefix, self.net],
            ["net", "verify", self.scrambled],
            ["psi", "profile", "--out", self.profile, self.scrambled],
        ]

    def check(self, i: int, outs) -> int:
        b, m, s = self.SIZES[i % self.cycle]
        n = b ** m
        p = default_precision(b, m)
        _exit_codes(outs)
        with open(self.scrambled, encoding="utf-8") as fh:
            header = fh.readline().split()
        _require(header == [str(v) for v in (b, m, s, 0, p)],
                 f"scrambled header {header}")
        report = json.loads(outs[2][1])
        _require(report["passed"] is True and report["t"] == 0, "net verify")
        with open(self.profile, encoding="utf-8") as fh:
            doc = json.load(fh)
        _require((doc["precision"], doc["total_pairs"]) == (p, n * (n - 1)),
                 "profile header")
        _require(sum(doc["counts"].values()) == n * (n - 1), "profile total")
        for key, count in doc["counts"].items():
            vec = tuple(int(v) for v in key.split(","))
            if max(vec) < p:
                _require(count == N_closed_form(b, m, s, vec),
                         f"count at {vec} is {count}")
        return n

    def finish(self) -> list[str]:
        return []


# sha256 of each CSV as the scans wrote them at the commit that introduced
# the benchmark; every later commit must write the same bytes.
GOLDEN = {
    "fig3a": "d6870539d6bc623f96e0d7262e5c685ee0641f5796231e5d9a9aa2a4bba282ce",
    "fig3b": "e2656581d5df7b133793da51af5972041b7721c7081c8be1590e998a4d9699ee",
    "fig3c": "d42c16f73c12883da06ed0f97e5c5ab8e6c8b3cb1745d67d4d8dfae450772aa3",
    "fig4": "c4a1d4671c045cb3a339fed20067a4316f423b04dfb9eae37f6cab97aa01be1e",
    "fig5a": "7097e85b9d81f1ebb97b54197f839f9511b4aecbe9738568f5c3ec806fa351b9",
    "fig5b": "3bcc1cc95e9dbdae6a8c6fd24c3e03482ed51c19b9e4b06e1e82d6542dd6b546",
    "fig5c": "f76d7b8ba0d58056526ed177b5aea336aebc76579abbb1958207e21521959d4f",
    "qscan-3-3-3": "03161d341c6c1998cceb08503676e684a42c253d2fd5c806239418053669c170",
    "qscan-5-3-5": "d91d3fe642fb3040fe0ccb123c6d5d86adccecc34bdf3eccc4717454e13fc6af",
}

class ExactScan:
    """``figure-scan --preset P`` for all seven presets, then ``qscan`` on a
    1/1000 grid.  Pure rational kernel work: the workload seed is unused."""

    name = "exact-scan"
    unit = "rows/s"
    seed_used = False
    OPS = ("3a", "3b", "3c", "4", "5a", "5b", "5c", (3, 3, 3), (5, 3, 5))
    cycle = len(OPS)

    def __init__(self, seed: int, tmp: str):
        self.out_dir = os.path.join(tmp, "figs")
        self.qscan = os.path.join(tmp, "qscan.csv")

    def _target(self, op):
        if isinstance(op, str):
            return f"fig{op}", os.path.join(self.out_dir, f"fig{op}.csv")
        return "qscan-{}-{}-{}".format(*op), self.qscan

    def commands(self, i: int):
        op = self.OPS[i % self.cycle]
        if isinstance(op, str):
            return [["figure-scan", "--preset", op, "--out-dir", self.out_dir]]
        b, m, s = op
        return [["qscan", "--base", str(b), "--m", str(m), "--s", str(s),
                 "--x-grid", "0:1:1/1000", "--out", self.qscan]]

    def check(self, i: int, outs) -> int:
        _exit_codes(outs)
        key, path = self._target(self.OPS[i % self.cycle])
        with open(path, "rb") as fh:
            data = fh.read()
        _require(hashlib.sha256(data).hexdigest() == GOLDEN[key],
                 f"{key} bytes differ from the recorded digest")
        # data rows: every line but the comment and the column header
        return sum(1 for line in data.decode().splitlines()
                   if not line.startswith("#")) - 1

    def finish(self) -> list[str]:
        return []

WORKLOADS = {w.name: w for w in (Replicate, NetTools, ExactScan)}
