"""Acceptance gate: one test and one visible result line per criterion.

Each criterion emits exactly one line of the form

    [criterion NN] PASS <title>: <detail> (<seconds>s)

printed immediately (visible under -s) and echoed in a terminal summary
section after the run, so the lines survive output capture either way.  A
criterion fails either by assertion (wrong numbers) or by blowing its time
budget; the budget check runs after the work so the line always appears.
Statistical gates use three standard errors; a failed statistical gate is
retried once with four times the replication count before it counts as a
failure.
"""

import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import conftest
from helpers import (
    GammaGrid,
    covariance_analytic,
    random_walsh_polynomial,
    run_with_rerun,
)
from netcov import cli
from netcov.checks import (
    assembly_matches_witness,
    beta_forms_agree,
    gamma_preserved,
    profile_matches_closed_forms,
    psi_hat_routes_agree,
    recurrence_vanishes,
    witness_difference_holds,
)
from netcov.counting import pdf_normalization
from netcov.covkernel import cov_polynomial, horner, psi_hat_zero_t, q_s_polynomial
from netcov.estimators import ExperimentConfig, run_experiment
from netcov.nets import faure_net, verify_net
from netcov.scramble import ScrambleSeed, owen_scramble

# small nets where brute force is instant
NET_FAMILY = (
    [(2, m, s) for m in range(1, 5) for s in range(1, 3)]
    + [(3, m, s) for m in range(1, 4) for s in range(1, 4)]
)
SHELL_FAMILY = (
    [(2, m, s) for m in range(1, 4) for s in range(1, 4)]
    + [(3, m, s) for m in range(1, 3) for s in range(1, 4)]
)


def _emit(num: int, passed: bool, title: str, detail: str, seconds: float):
    tag = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {tag} {title}: {detail} ({seconds:.2f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, title: str, budget: float):
    info = {"detail": "ok"}
    start = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        _emit(num, False, title, f"raised {type(exc).__name__}: {exc}",
              time.perf_counter() - start)
        raise
    seconds = time.perf_counter() - start
    passed = seconds <= budget
    detail = info["detail"]
    if not passed:
        detail += f"; over the {budget:.0f}s budget"
    _emit(num, passed, title, detail, seconds)
    assert passed, f"criterion {num} took {seconds:.2f}s of its {budget:.0f}s"


def test_criterion_01_pair_counts_match_closed_forms():
    with criterion(1, "measured pair counts equal the closed forms", 10.0) as info:
        checked = 0
        for b, m, s in NET_FAMILY:
            precision = m + 3
            checked += profile_matches_closed_forms(owen_scramble(
                faure_net(b, m, s, precision=precision),
                ScrambleSeed(31, 10 * m + s), precision=precision))
        info["detail"] = f"{len(NET_FAMILY)} scrambled nets, {checked} exact counts"


def test_criterion_02_pair_density_normalizes():
    with criterion(2, "pair density integrates to one", 1.0) as info:
        for b, m, s in NET_FAMILY:
            assert pdf_normalization(b, m, s) == 1
        info["detail"] = f"{len(NET_FAMILY)} configurations, exact rationals"


def test_criterion_03_density_coefficient_routes_agree():
    with criterion(3, "both routes to the density coefficients agree", 5.0) as info:
        indices = sum(psi_hat_routes_agree(b, m, s, m + 3)
                      for b, m, s in SHELL_FAMILY)
        info["detail"] = (f"{indices} indices across {len(SHELL_FAMILY)} "
                          "configurations")


def test_criterion_04_coefficient_covariance_equals_grid_integral():
    with criterion(4, "coefficient covariance equals the grid integral", 120.0) as info:
        rng = random.Random(2024)
        count = 0
        for m, s in product((1, 2), repeat=2):
            grid = GammaGrid(2, m, s, resolution=m + (m + 2))
            for _ in range(20):
                f = random_walsh_polynomial(rng, 2, s, m + 2, rng.randint(2, 6))
                want = covariance_analytic(
                    f, lambda idx: psi_hat_zero_t(2, m, idx))
                assert grid.covariance(f) == want
                count += 1
        info["detail"] = f"{count} random functions, exact rational equality"


def test_criterion_05_witness_nonpositive_on_the_grid():
    with criterion(5, "beta-form witness stays nonpositive", 30.0) as info:
        scanned = 0
        for b in (2, 3, 5, 7):
            for m in range(1, 11):
                for s in range(1, 11):
                    coeffs = q_s_polynomial(b, m, s)
                    assert coeffs[0] == 0
                    assert sum(coeffs) == 1 - b ** m
                    # each numerator has the sign of q_s(i/1000): its
                    # denominator is the positive 1000^deg
                    nums, _ = horner(coeffs, range(1001), 1000)
                    hit = next((i for i, v in enumerate(nums) if v > 0), None)
                    assert hit is None, \
                        f"positive at x={hit}/1000 for {(b, m, s)}"
                    scanned += 1
        info["detail"] = f"{scanned} configurations x 1001 grid points, endpoints exact"


def test_criterion_06_critical_polynomial_equals_the_witness():
    with criterion(6, "critical-decay polynomial equals the witness", 30.0) as info:
        matched = 0
        for b in (2, 3):
            for m in range(1, 12):
                for s in range(1, 13 - m):
                    xs = list(cov_polynomial(b, m, s,
                                             Fraction(b - 1, b)).x_coefficients())
                    while len(xs) > 1 and xs[-1] == 0:
                        xs.pop()
                    target = q_s_polynomial(b, m, s)
                    assert len(xs) == len(target)
                    assert all(c == t for c, t in zip(xs, target))
                    matched += 1
        info["detail"] = f"{matched} configurations, coefficients exactly equal"


def test_criterion_07_recurrence_annihilates_covariance_values():
    with criterion(7, "recurrence annihilates covariance windows", 10.0) as info:
        xs = (Fraction(1, 7), Fraction(2, 5), Fraction(1, 2),
              Fraction(3, 4), Fraction(9, 10))
        residuals = sum(recurrence_vanishes(*case) for case in product(
            (2, 3), range(1, 7), range(1, 13), xs))
        info["detail"] = (f"{residuals} polynomial and witness residuals, "
                          "all exactly zero")


def test_criterion_08_difference_derivative_and_assembly_forms():
    with criterion(8, "difference, derivative, and assembly forms agree", 10.0) as info:
        done = 0
        xs = (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
              Fraction(7, 9), Fraction(1))
        for case in product((2, 3, 5), range(1, 6), range(1, 6), xs):
            done += witness_difference_holds(*case)
        for case in product(range(1, 9), range(1, 9), (
                Fraction(-1, 3), Fraction(0), Fraction(2, 7), Fraction(1),
                Fraction(5, 4))):
            done += beta_forms_agree(*case)
        rng = random.Random(88)
        hits = 0
        while hits < 50:
            b = rng.choice((2, 3, 5))
            m = rng.randint(1, 5)
            s = rng.randint(0, 5)
            x = Fraction(rng.randint(1, 239), 240)
            if x == Fraction(1, b):
                continue
            hits += assembly_matches_witness(b, m, s, x)
        info["detail"] = f"{done + hits} exact identities"


def test_criterion_09_simulation_matches_analytic_predictions():
    with criterion(9, "replication experiments match analytic values", 300.0) as info:

        def make_wal(mult):
            return run_experiment(ExperimentConfig(
                b=2, m=4, s=2, R=20000 * mult, seed=101,
                function_spec={"kind": "wal", "l": [1, 1]}))

        def wal_gates(report):
            target = Fraction(-1, 15)
            assert report.cov_analytic == target
            assert abs(report.cov_emp - float(target)) <= 3 * report.cov_se + 1e-12
            assert report.est_var <= float(report.var_mc_analytic) + 1e-12
            assert abs(report.identity_residual) <= 3 * report.identity_se + 1e-12

        _, wal_reran = run_with_rerun(make_wal, wal_gates)

        x = Fraction(3, 20)
        predicted = cov_polynomial(2, 4, 2, Fraction(1, 2)).covariance(x, 1)
        assert predicted < 0

        def make_decay(mult):
            return run_experiment(ExperimentConfig(
                b=2, m=4, s=2, R=20000 * mult, seed=202,
                function_spec={"kind": "decay", "decay": "per-shell",
                               "a": "1/2", "x": "3/20", "alpha": "1",
                               "k_max": 5, "seed": 7}))

        def decay_gates(report):
            assert report.cov_analytic == predicted
            assert abs(report.cov_emp - float(predicted)) <= 3 * report.cov_se + 1e-12
            assert report.cov_emp < 0
            assert report.est_var <= float(report.var_mc_analytic) + 1e-12
            assert abs(report.identity_residual) <= 3 * report.identity_se + 1e-12

        _, decay_reran = run_with_rerun(make_decay, decay_gates)

        detail = "character and decay runs at R=20000, 3-SE gates"
        if wal_reran or decay_reran:
            detail += ", one 4x retry used"
        info["detail"] = detail


def test_criterion_10_scrambling_preserves_structure():
    with criterion(10, "scrambles preserve depth, quality, and margins", 120.0) as info:
        for b, m, s in ((2, 3, 2), (3, 2, 3)):
            precision = m + 2
            base = faure_net(b, m, s, precision=precision)
            gamma_preserved(
                base, owen_scramble(base, ScrambleSeed(404), precision=precision))
        seeds_checked = 0
        for b, m, s in ((2, 3, 2), (3, 2, 3)):
            base = faure_net(b, m, s)
            for seed in range(50):
                scr = owen_scramble(base, ScrambleSeed(seed), precision=m)
                assert verify_net(scr, t=0).passed
                seeds_checked += 1
        R = 10 ** 4
        for b in (2, 3):
            base = faure_net(b, 1, 1)
            counts = [0] * b
            for rep in range(R):
                scr = owen_scramble(base, ScrambleSeed(77, rep), precision=1)
                counts[int(scr.digits[0][0][0])] += 1
            sd = math.sqrt(R * (1 / b) * (1 - 1 / b))
            assert all(abs(c - R / b) <= 4 * sd for c in counts), counts
        info["detail"] = (f"all pair depths preserved, {seeds_checked} seeds "
                          f"equidistributed, first digits within 4 SD at R={R}")


def test_criterion_11_figure_export(tmp_path):
    with criterion(11, "figure export complete and nonpositive where due", 60.0) as info:
        out_dir = tmp_path / "figs"
        assert cli.main(["figure-scan", "--out-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["fig3a.csv", "fig3b.csv", "fig3c.csv", "fig4.csv",
                         "fig5a.csv", "fig5b.csv", "fig5c.csv"]
        texts = {}
        for name in names:
            text = (out_dir / name).read_text(encoding="utf-8")
            texts[name] = text
            lines = text.splitlines()
            assert len(lines) == 2 + 16 * 101
            assert lines[0].startswith("# fixed:")
            assert lines[1].endswith(",x,value")
        # these three sweeps sit at the critical decay weight of their base
        for name in ("fig3a.csv", "fig3b.csv", "fig3c.csv"):
            for line in texts[name].splitlines()[2:]:
                assert float(line.split(",")[2]) <= 0, (name, line)
        out2 = tmp_path / "figs2"
        assert cli.main(["figure-scan", "--out-dir", str(out2)]) == 0
        for name in names:
            assert (out2 / name).read_text(encoding="utf-8") == texts[name]
        info["detail"] = "7 files x 1616 rows, critical sweeps <= 0, byte-stable"
