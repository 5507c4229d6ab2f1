"""Replication experiments for scrambled-net integration.

A replication scrambles the base net, evaluates the integrand, and records
the sample mean together with the mean over ordered distinct pairs; across
replications those two statistics estimate the estimator variance and the
pair covariance.  All analytic reference values come from the coefficient
map in exact rationals, so every statistical gate compares noise against a
known number, never against another simulation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .covkernel import psi_hat_zero_t
from .digits import (
    ConfigurationError, json_field, json_index, json_integer, json_object, json_rational)
from .nets import PointSet, faure_net
from .scramble import replicate
from .walsh import Coefficient, WalshIndex, WalshPolynomial, random_decay_polynomial


def build_function(b: int, s: int, spec: Mapping) -> WalshPolynomial:
    """Materialize an integrand from its config description.

    kinds: "wal" (a single Walsh character, field l), "decay" (random series
    from random_decay_polynomial; rational fields as strings), "file" (a
    saved coefficient map).
    """
    spec = json_object(spec, "function")
    kind = spec.get("kind")
    if kind == "wal":
        l = json_field(spec, "l", "function", json_index)
        if len(l) != s:
            raise ConfigurationError(f"index {l} has wrong dimension for s={s}")
        return WalshPolynomial(
            b=b, s=s,
            terms={l: Coefficient(Fraction(1), Fraction(0))},
            metadata={"kind": "wal", "l": list(l)},
        )
    if kind == "decay":
        return random_decay_polynomial(
            b=b, s=s,
            kind=json_field(spec, "decay", "function"),
            a=json_field(spec, "a", "function", json_rational, None),
            x=json_field(spec, "x", "function", json_rational),
            alpha=json_field(spec, "alpha", "function", json_rational, Fraction(1)),
            k_max=json_field(spec, "k_max", "function", json_integer),
            seed=json_field(spec, "seed", "function", json_integer, 0),
        )
    if kind == "file":
        with open(json_field(spec, "path", "function", os.fspath), "r",
                  encoding="utf-8") as fh:
            return WalshPolynomial.from_json(fh.read())
    raise ConfigurationError(f"unknown function kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    b: int
    m: int
    s: int
    R: int
    seed: int
    function_spec: Mapping
    precision: int | None = None

    def __post_init__(self):
        # a one-point net (m = 0) has no pairs to estimate a covariance from
        if self.m < 1:
            raise ConfigurationError(f"need m >= 1, got m={self.m}")
        if self.R < 2:
            raise ConfigurationError(f"need at least 2 replications, got {self.R}")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        doc = json_object(doc, "config")
        b, m, s, R = (json_field(doc, key, "config", json_integer) for key in "bmsR")
        return cls(
            b=b, m=m, s=s, R=R, seed=json_field(doc, "seed", "config", json_integer, 0),
            function_spec=dict(json_object(json_field(doc, "function", "config"),
                                       "function")),
            precision=json_field(doc, "precision", "config", json_integer, None),
        )


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    n: int
    precision: int
    integral: complex
    est_mean: complex
    est_var: float
    cov_emp: float
    cov_se: float
    cov_analytic: Fraction
    var_mc_analytic: Fraction
    identity_residual: float
    identity_se: float
    estimates: np.ndarray = field(repr=False)
    pair_terms: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "b": cfg.b, "m": cfg.m, "s": cfg.s, "n": self.n,
            "R": cfg.R, "seed": cfg.seed, "precision": self.precision,
            "integral_re": self.integral.real,
            "integral_im": self.integral.imag,
            "est_mean_re": self.est_mean.real,
            "est_mean_im": self.est_mean.imag,
            "est_var": self.est_var,
            "cov_emp": self.cov_emp,
            "cov_se": self.cov_se,
            "cov_analytic": str(self.cov_analytic),
            "cov_analytic_float": float(self.cov_analytic),
            "var_mc_analytic": str(self.var_mc_analytic),
            "var_mc_analytic_float": float(self.var_mc_analytic),
            "identity_residual": self.identity_residual,
            "identity_se": self.identity_se,
        }

    def trace_rows(self):
        for r, (e, t) in enumerate(zip(self.estimates, self.pair_terms)):
            yield r, float(e.real), float(e.imag), float(t)


def _replication_stats(ps: PointSet, f: WalshPolynomial):
    values = f.eval_digit_matrix(ps.digits)
    n = ps.n
    total = values.sum()
    pair = (abs(total) ** 2 - float((np.abs(values) ** 2).sum())) / (n * (n - 1))
    return total / n, pair


def _shell_kernels(f: WalshPolynomial, b: int, m: int):
    """(shell weight, psi_hat of the shell) for every nonzero shell of f: the
    t = 0 kernel depends on an index only through (r, |k|), so one
    representative index per shell stands for all of them."""
    for k_vec, weight in f.shells().items():
        if any(k_vec):
            rep = tuple(f.b ** (kj - 1) if kj else 0 for kj in k_vec)
            yield weight, psi_hat_zero_t(b, m, WalshIndex(f.b, rep))


def analytic_covariance(f: WalshPolynomial, b: int, m: int) -> Fraction:
    """Exact pair covariance of f over one scrambled t = 0 net, summed per
    shell: weight times psi_hat."""
    return sum((w * psi for w, psi in _shell_kernels(f, b, m)), Fraction(0))


def analytic_variance(f: WalshPolynomial, b: int, m: int) -> Fraction:
    """Exact estimator variance, assembled per shell: each nonzero shell
    contributes its weight times (1 + (n-1) psi_hat)/n."""
    n = b ** m
    return sum((w * (1 + (n - 1) * psi) / n for w, psi in _shell_kernels(f, b, m)),
               Fraction(0))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """R independent scrambles of one base net, with exact reference values.

    Per replication: the sample mean of f and the mean of f(x) conj(f(y))
    over all ordered distinct point pairs.  The pair statistic is computed
    from the identity sum_{i != j} v_i conj(v_j) = |sum v|^2 - sum |v|^2, so
    each replication costs one pass over the points.
    """
    f = build_function(cfg.b, cfg.s, cfg.function_spec)
    if f.b != cfg.b:
        raise ConfigurationError(f"function base {f.b} does not match {cfg.b}")
    precision = cfg.precision
    if precision is None:
        precision = max(cfg.m, f.max_digit_length(), 1)
    base = faure_net(cfg.b, cfg.m, cfg.s, precision=precision)
    n = base.n
    results = [_replication_stats(ps, f)
               for ps in replicate(base, cfg.seed, cfg.R, precision)]

    estimates = np.array([e for e, _ in results], dtype=np.complex128)
    pair_terms = np.array([t for _, t in results], dtype=np.float64)

    coef0 = f.constant_coefficient()
    integral = coef0.to_complex()
    R = cfg.R

    est_mean = complex(math.fsum(estimates.real) / R,
                       math.fsum(estimates.imag) / R)
    est_var = math.fsum(abs(e - est_mean) ** 2 for e in estimates) / (R - 1)

    w0 = float(coef0.weight)
    cov_emp = math.fsum(pair_terms) / R - w0
    cov_se = float(np.std(pair_terms, ddof=1)) / math.sqrt(R)

    var_mc = f.variance_mc(n)
    deltas = [abs(e - integral) ** 2 - (n - 1) / n * (t - w0)
              for e, t in zip(estimates, pair_terms)]
    identity_residual = math.fsum(deltas) / R - float(var_mc)
    identity_se = float(np.std(np.array(deltas), ddof=1)) / math.sqrt(R)

    return ExperimentReport(
        config=cfg, n=n, precision=precision,
        integral=integral, est_mean=est_mean, est_var=est_var,
        cov_emp=cov_emp, cov_se=cov_se,
        cov_analytic=analytic_covariance(f, cfg.b, cfg.m),
        var_mc_analytic=var_mc,
        identity_residual=identity_residual, identity_se=identity_se,
        estimates=estimates, pair_terms=pair_terms,
    )

