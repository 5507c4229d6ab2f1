"""Replication experiments against exact reference values."""

import copy
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import covariance_analytic, eval_point, random_walsh_polynomial
from netcov import estimators, scramble, walsh
from netcov.covkernel import psi_hat_zero_t
from netcov.digits import ConfigurationError
from netcov.estimators import (
    ExperimentConfig,
    analytic_covariance,
    analytic_variance,
    build_function,
    run_experiment,
)
from netcov.nets import faure_net
from netcov.scramble import owen_scramble
from netcov.walsh import Coefficient, WalshPolynomial, shell_of

WAL_SPEC = {"kind": "wal", "l": [1, 1]}


def test_estimate_constant_is_exact():
    f = WalshPolynomial(b=2, s=2, terms={(0, 0): Coefficient(2, 0)}, metadata={})
    ps = faure_net(2, 2, 2)
    assert f.eval_digit_matrix(ps.digits).mean() == 2 + 0j


def test_estimate_character_vanishes_on_the_plain_net():
    # each short character sums to zero over a full resolution-respecting net
    ps = faure_net(2, 2, 2)
    for l in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 0)]:
        f = build_function(2, 2, {"kind": "wal", "l": list(l)})
        assert f.eval_digit_matrix(ps.digits).mean() == 0j


def test_build_function_wal():
    f = build_function(3, 2, {"kind": "wal", "l": [4, 0]})
    assert f.b == 3 and f.s == 2
    assert f.coefficient((4, 0)).weight == 1
    assert f.constant_coefficient().weight == 0


def test_build_function_decay_parses_rational_strings():
    spec = {"kind": "decay", "decay": "per-shell", "a": "1/2", "x": "3/20",
            "alpha": "1", "k_max": 3, "seed": 7}
    f = build_function(2, 2, spec)
    assert f.metadata["a"] == "1/2"
    assert f.max_digit_length() <= 3


def test_build_function_decay_per_index_needs_no_a():
    spec = {"kind": "decay", "decay": "per-index", "x": "1/4",
            "alpha": "1", "k_max": 2, "seed": 1}
    f = build_function(2, 1, spec)
    assert any(w > 0 for k, w in f.shells().items() if any(k))


def test_build_function_file_roundtrip(tmp_path):
    rng = random.Random(5)
    f = random_walsh_polynomial(rng, 2, 2, 3, 4)
    path = tmp_path / "f.json"
    path.write_text(f.to_json(), encoding="utf-8")
    g = build_function(2, 2, {"kind": "file", "path": str(path)})
    assert g.terms == f.terms


def test_build_function_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        build_function(2, 2, {"kind": "wal", "l": [1]})
    with pytest.raises(ConfigurationError):
        build_function(2, 2, {"kind": "sobol"})


def test_config_from_dict_and_validation():
    doc = {"b": 2, "m": 3, "s": 2, "R": 10, "function": WAL_SPEC}
    cfg = ExperimentConfig.from_dict(doc)
    assert (cfg.b, cfg.m, cfg.s, cfg.R) == (2, 3, 2, 10)
    assert cfg.seed == 0 and cfg.precision is None
    with pytest.raises(ConfigurationError):
        ExperimentConfig(b=2, m=1, s=1, R=1, seed=0,
                         function_spec={"kind": "wal", "l": [1]})


def test_replication_cap_admits_criterion_9_and_refuses_one_point_more():
    # criterion 9's rerun: R = 4 x 20000 at n = 16
    ExperimentConfig(b=2, m=4, s=2, R=80_000, seed=0, function_spec=WAL_SPEC)
    R = estimators.MAX_POINTS // 16
    ExperimentConfig(b=2, m=4, s=2, R=R, seed=0, function_spec=WAL_SPEC)
    with pytest.raises(ConfigurationError, match=f"R={R + 1} replications of 2"):
        ExperimentConfig(b=2, m=4, s=2, R=R + 1, seed=0, function_spec=WAL_SPEC)


def test_experiments_are_deterministic():
    cfg = ExperimentConfig(b=2, m=2, s=2, R=6, seed=11, function_spec=WAL_SPEC)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert np.array_equal(first.estimates, second.estimates)
    assert np.array_equal(first.pair_terms, second.pair_terms)


def test_character_experiment_hits_the_exact_covariance():
    # for a single short character every replication gives sample mean 0 and
    # the same pair statistic, so the empirical covariance is exact
    cfg = ExperimentConfig(b=2, m=2, s=2, R=40, seed=1, function_spec=WAL_SPEC)
    report = run_experiment(cfg)
    assert report.n == 4
    assert report.cov_analytic == Fraction(-1, 3)
    assert report.cov_emp == pytest.approx(-1 / 3, abs=1e-15)
    assert report.est_var == 0
    assert report.cov_se == 0
    assert abs(report.est_mean) == 0
    assert abs(report.identity_residual) <= 1e-15
    assert report.identity_se <= 1e-15


def test_analytic_variance_decomposition():
    rng = random.Random(9)
    for m in (1, 2, 3):
        n = 2 ** m
        f = random_walsh_polynomial(rng, 2, 2, 3, 5)
        lhs = analytic_variance(f, 2, m)
        rhs = f.variance_mc(n) + Fraction(n - 1, n) * analytic_covariance(f, 2, m)
        assert lhs == rhs


def test_report_to_dict_carries_exact_strings():
    cfg = ExperimentConfig(b=2, m=2, s=2, R=5, seed=2, function_spec=WAL_SPEC)
    doc = run_experiment(cfg).to_dict()
    assert doc["cov_analytic"] == "-1/3"
    assert doc["cov_analytic_float"] == pytest.approx(-1 / 3)
    assert doc["var_mc_analytic"] == "1/4"
    assert doc["n"] == 4 and doc["R"] == 5
    for key in ("est_var", "cov_emp", "cov_se", "identity_residual",
                "identity_se", "precision"):
        assert key in doc


def test_trace_rows_cover_every_replication():
    cfg = ExperimentConfig(b=2, m=1, s=2, R=7, seed=4, function_spec=WAL_SPEC)
    report = run_experiment(cfg)
    rows = list(report.trace_rows())
    assert len(rows) == 7
    assert rows[0][0] == 0 and rows[-1][0] == 6
    assert all(len(row) == 4 for row in rows)


def test_default_precision_covers_net_and_function():
    spec = {"kind": "decay", "decay": "per-index", "x": "1/4",
            "alpha": "1", "k_max": 3, "seed": 0}
    cfg = ExperimentConfig(b=2, m=1, s=2, R=2, seed=0, function_spec=spec)
    report = run_experiment(cfg)
    f = build_function(cfg.b, cfg.s, cfg.function_spec)
    assert report.precision == max(1, f.max_digit_length())
    cfg2 = ExperimentConfig(b=2, m=3, s=2, R=2, seed=0, function_spec=WAL_SPEC)
    assert run_experiment(cfg2).precision == 3


@pytest.mark.parametrize("b,m,s,R,spec", [
    (2, 2, 2, 23, {"kind": "decay", "decay": "per-shell", "a": "1/2",
                   "x": "3/20", "alpha": "1", "k_max": 3, "seed": 7}),
    (3, 1, 2, 31, {"kind": "wal", "l": [2, 5]}),
])
def test_replications_match_a_per_replication_recomputation(monkeypatch, b, m, s, R,
                                                            spec):
    # blocks of a few replications and chunks that straddle block edges, the
    # last chunk and block partial; each replication is recomputed alone
    monkeypatch.setattr(scramble, "BLOCK_WORDS", 7 * b ** m * s * (3 + 1))
    f = build_function(b, s, spec)
    monkeypatch.setattr(estimators, "CHUNK_ENTRIES", 3 * b ** m * len(f.terms))
    report = run_experiment(ExperimentConfig(b=b, m=m, s=s, R=R, seed=13,
                                             function_spec=spec, precision=3))
    n = b ** m
    base = faure_net(b, m, s, precision=3)
    for r in range(R):
        ps = owen_scramble(base, 13, r, precision=3)
        values = f.eval_digit_matrix(ps.digits)
        total = values.sum()
        # the formula as evaluated one replication at a time, to the bit
        assert report.estimates[r] == total / n
        assert report.pair_terms[r] == \
            (abs(total) ** 2 - float((np.abs(values) ** 2).sum())) / (n * (n - 1))
        # and the pointwise oracle
        points = [eval_point(f, p) for p in ps.digits]
        total = sum(points)
        assert report.estimates[r] == pytest.approx(total / n, abs=1e-12)
        pair = (abs(total) ** 2 - sum(abs(v) ** 2 for v in points)) / (n * (n - 1))
        assert report.pair_terms[r] == pytest.approx(pair, abs=1e-12)


def test_function_base_must_match_the_config(tmp_path):
    f = WalshPolynomial(b=3, s=1, terms={(1,): Coefficient(1, 0)}, metadata={})
    path = tmp_path / "f3.json"
    path.write_text(f.to_json(), encoding="utf-8")
    cfg = ExperimentConfig(b=2, m=1, s=1, R=2, seed=0,
                           function_spec={"kind": "file", "path": str(path)})
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)


def test_per_shell_references_equal_per_index_sums():
    # the kernel depends on an index only through its shell, so summing it
    # per shell must give the very same rationals as summing per index
    rng = random.Random(21)
    for b, m, s in [(2, 2, 2), (3, 2, 2), (5, 1, 3)]:
        n = b ** m
        for _ in range(3):
            f = random_walsh_polynomial(rng, b, s, 3, 12)
            per_index = covariance_analytic(f, lambda idx: psi_hat_zero_t(b, m, idx))
            assert analytic_covariance(f, b, m) == per_index
            variance = sum(
                (c.weight * (1 + (n - 1) * psi_hat_zero_t(b, m, shell_of(b, l))) / n
                 for l, c in f.terms.items() if any(l)),
                Fraction(0))
            assert analytic_variance(f, b, m) == variance


def test_a_decay_run_regroups_no_term(monkeypatch):
    # criterion 9's decay run: the builder hands over every shell total and
    # term value, so only the constant coefficient is converted, once for
    # the integral and once for its weight w0
    calls = dict.fromkeys(["shell_of", "to_complex", "weight_parts"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(walsh, "shell_of", counted("shell_of", walsh.shell_of))
    for name in ("to_complex", "weight_parts"):
        monkeypatch.setattr(Coefficient, name, counted(name, getattr(Coefficient, name)))
    report = run_experiment(ExperimentConfig(
        b=2, m=4, s=2, R=50, seed=202,
        function_spec={"kind": "decay", "decay": "per-shell", "a": "1/2",
                       "x": "3/20", "alpha": "1", "k_max": 5, "seed": 7}))
    assert report.precision == 5
    assert calls == {"shell_of": 0, "to_complex": 1, "weight_parts": 1}


# any JSON value, floats including NaN and the infinities; integers stay
# small so a fuzzed base or dimension cannot stand for a slow build
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 60) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
DELETE = object()


def _edited(doc, path, value):
    """A deep copy of doc with the entry at path set to value, or deleted."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    return doc


def _fuzzed(valid, paths):
    """Any JSON value, or a valid document with one entry replaced or
    deleted."""
    return JSON_VALUES | st.builds(_edited, st.just(valid), st.sampled_from(paths),
                                   JSON_VALUES | st.just(DELETE))


VALID_CONFIG = {"b": 2, "m": 2, "s": 2, "R": 4, "seed": 1, "precision": 3,
                "function": {**WAL_SPEC, "a": "1/2", "x": "3/20",
                             "alpha": "1", "decay": "per-shell", "seed": 0}}
CONFIG_PATHS = [(key,) for key in VALID_CONFIG] + [
    ("function", key) for key in VALID_CONFIG["function"]]
VALID_DECAY_CONFIG = {**VALID_CONFIG, "function": {
    "kind": "decay", "decay": "per-shell", "a": "1/2", "x": "3/20", "alpha": "1",
    "k_max": 2, "seed": 0}}
DECAY_CONFIG_PATHS = [(key,) for key in VALID_DECAY_CONFIG] + [
    ("function", key) for key in VALID_DECAY_CONFIG["function"]]


@given(_fuzzed(VALID_CONFIG, CONFIG_PATHS)
       | _fuzzed(VALID_DECAY_CONFIG, DECAY_CONFIG_PATHS))
@example(_edited(VALID_DECAY_CONFIG, ("function", "a"), DELETE))
@example(_edited(VALID_DECAY_CONFIG, ("function", "k_max"), -3))
@example(_edited(VALID_DECAY_CONFIG, ("s",), -1))
@example(_edited(VALID_DECAY_CONFIG, ("s",), 3000))
def test_any_config_json_loads_or_is_a_configuration_error(doc):
    try:
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
        build_function(cfg.b, cfg.s, cfg.function_spec)
    except ConfigurationError:
        return
    function = doc["function"]
    assert function.get("kind") == "wal" or function.get("k_max", 0) >= 0


VALID_COEFFICIENTS = json.loads(WalshPolynomial(
    b=3, s=2, terms={(0, 0): Coefficient(1, 0), (1, 4): Coefficient(Fraction(1, 2), -1)},
    metadata={"kind": "test"}).to_json())
COEFFICIENT_PATHS = [("b",), ("s",), ("terms",), ("metadata",), ("terms", 1)] + [
    ("terms", 1, key) for key in ("l", "re", "im")]


@given(_fuzzed(VALID_COEFFICIENTS, COEFFICIENT_PATHS))
def test_any_coefficient_json_loads_or_is_a_configuration_error(doc):
    try:
        WalshPolynomial.from_json(json.dumps(doc))
    except ConfigurationError:
        pass
