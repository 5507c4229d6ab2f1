"""Spectral kernel identities, all in exact rationals.

Every closed form here has an independent route: the shell coefficient
against the inclusion-exclusion sum over measured or formula counts, the
covariance polynomial against the grid-integral oracle, the beta-form
witness against its explicit integer polynomial, the difference form against
telescoping, the recurrence against both solution families, and the
hypergeometric assembly against the direct witness.
"""

import contextlib
import io
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    GammaGrid, cov_polynomial_reference, covariance_analytic, random_walsh_polynomial)
from netcov import cli
from netcov.checks import (
    assembly_matches_witness,
    beta_forms_agree,
    check_psi_hat_flat_zone,
    psi_hat_routes_agree,
    recurrence_vanishes,
    witness_difference_holds,
)
from netcov.covkernel import (
    MAX_ORDER,
    Psi,
    cov_polynomial,
    delta_s,
    delta_second_part,
    horner,
    inc_beta,
    inc_beta_derivative_form,
    psi_hat_general,
    psi_hat_zero_t,
    q_s,
    q_s_polynomial,
    recmain_eval,
    recurrence_residual,
)
from netcov.counting import M_closed_form
from netcov.digits import ConfigurationError, length_vectors
from netcov.nets import dominated_counts, faure_net
from netcov.scramble import ScrambleSeed, owen_scramble
from netcov.walsh import Coefficient, WalshPolynomial, shell_of


def test_shell_coefficient_values():
    assert Psi(2, 2, 1) == 1
    assert Psi(3, 3, 1) == Fraction(5, 4)
    assert Psi(2, 3, 1) == 3
    assert Psi(2, 3, 2) == -1


def test_shell_coefficient_is_minus_one_at_zero_excess():
    for b in (2, 3, 5):
        for r in range(1, 7):
            assert Psi(b, r, 0) == -1


def test_shell_coefficient_vanishes_at_large_excess():
    for b in (2, 3):
        for r in range(1, 5):
            for c in range(r, r + 3):
                assert Psi(b, r, c) == 0


def test_shell_coefficient_validation():
    with pytest.raises(ConfigurationError):
        Psi(2, 0, 0)
    with pytest.raises(ConfigurationError):
        Psi(2, 1, -1)
    with pytest.raises(ConfigurationError):
        Psi(4, 1, 0)


def test_psi_hat_pinned_values():
    # below the depth threshold every coefficient is -1/(n-1)
    assert psi_hat_zero_t(2, 2, (1, 0)) == Fraction(-1, 3)
    # one step past it, with both coordinates occupied, the sign flips
    assert psi_hat_zero_t(2, 2, (2, 1)) == Fraction(1, 3)
    # l = (3, 0, 1) has shell (2, 0, 1): |k| = 3 and r = 2 enter Psi
    k = shell_of(2, (3, 0, 1))
    assert k == (2, 0, 1)
    for m in (1, 2, 3, 4):
        assert psi_hat_zero_t(2, m, k) == Psi(2, 2, max(3 - m, 0)) / (2 ** m - 1)
    # the general route from the t = 0 counts lands on the same value
    assert psi_hat_general(lambda v: M_closed_form(2, 2, v), 2, k, 4) == \
        psi_hat_zero_t(2, 2, k)


def test_psi_hat_rejects_misuse():
    # the zero shell, an empty one, a negative component, a bad base
    for b, k in [(2, (0, 0)), (2, ()), (2, (-1,)), (2, (2, -1)), (4, (1,)), (1, (1,))]:
        with pytest.raises(ConfigurationError):
            psi_hat_zero_t(b, 2, k)
        with pytest.raises(ConfigurationError):
            psi_hat_general(lambda v: 0, b, k, 4)
    with pytest.raises(ConfigurationError):
        psi_hat_general(lambda v: 0, 2, (1,), 1)


@pytest.mark.parametrize("b,m,s", [(2, 2, 2), (3, 1, 2)])
def test_psi_hat_routes_agree_on_formula_counts(b, m, s):
    psi_hat_routes_agree(b, m, s, m + 3)


def test_psi_hat_from_measured_counts():
    # the general route fed with the prefix-cell counts of an actual
    # scrambled net, against the closed form
    b, m, s = 2, 3, 2
    ps = owen_scramble(faure_net(b, m, s, precision=m + 2),
                       ScrambleSeed(17), precision=m + 2)
    counts = dominated_counts(ps)
    for k_vec in length_vectors(s, m + 1):
        if any(k_vec):
            got = psi_hat_general(lambda k: counts.get(k, 0), b, k_vec, ps.n)
            assert got == psi_hat_zero_t(b, m, k_vec)


def test_psi_hat_flat_below_the_depth_threshold():
    check_psi_hat_flat_zone()


# covariance polynomial


def test_cov_polynomial_pinned_coefficients():
    assert cov_polynomial(2, 1, 1, Fraction(1, 2)).x_coefficients() == (0, -1)
    assert cov_polynomial(2, 2, 1, Fraction(1, 2)).x_coefficients() == (0, -1, -2)
    assert cov_polynomial(2, 1, 2, Fraction(1, 2)).x_coefficients() == (0, -2, 1)
    assert cov_polynomial(2, 1, 3, Fraction(1, 2)).x_coefficients() == (0, -3, 3, -1)


def test_cov_polynomial_structure():
    poly = cov_polynomial(3, 2, 2, Fraction(1, 3))
    assert len(poly.coeffs_bx) == 3  # powers 1 .. m+s-1
    doc = poly.to_dict()
    assert doc["a"] == "1/3"
    assert set(doc["coefficients"]) == {"1", "2", "3"}


def test_cov_polynomial_eval_matches_direct_sum():
    # eval is a one-point grid of horner: negative x, x = 0, a large
    # denominator, and degrees up to m + s - 1 = 11
    xs = (Fraction(-7, 3), Fraction(0), Fraction(1, 8), Fraction(1, 3),
          Fraction(12345, 1000003), Fraction(1))
    for b, m, s, a in [(2, 2, 2, Fraction(1, 2)), (3, 5, 3, Fraction(2, 3)),
                       (5, 6, 6, Fraction(7, 11)), (53, 4, 5, Fraction(1))]:
        poly = cov_polynomial(b, m, s, a)
        for x in xs:
            direct = sum(
                (cf * (b * x) ** k
                 for k, cf in enumerate(poly.coeffs_bx, start=1)),
                Fraction(0),
            )
            assert poly.eval(x) == direct


def test_cov_polynomial_covariance_scaling():
    poly = cov_polynomial(2, 2, 1, Fraction(1, 2))
    x = Fraction(1, 4)
    assert poly.covariance(x, alpha=6) == poly.eval(x) * 6 / 3


def test_cov_polynomial_matches_shell_sum():
    # the polynomial coefficient layer against the raw double sum over
    # shells: sum over k_vec of a^r (bx)^k Psi(r, c)
    b, m, s, a = 2, 2, 2, Fraction(1, 3)
    poly = cov_polynomial(b, m, s, a)
    x = Fraction(1, 5)
    direct = Fraction(0)
    for k_vec in length_vectors(s, m + s - 1):
        k = sum(k_vec)
        if k == 0:
            continue
        r = sum(1 for kj in k_vec if kj > 0)
        direct += a ** r * (b * x) ** k * Psi(b, r, max(k - m, 0))
    assert poly.eval(x) == direct


@pytest.mark.parametrize("b", [2, 3, 53])
def test_cov_polynomial_matches_the_fraction_reference(b):
    # the integer numerators over q^s (b-1)^(s-1) against the shell-by-shell
    # Fraction sum, coefficient by coefficient
    for m, s in product(range(1, 9), repeat=2):
        for a in (Fraction(0), Fraction(1, 16), Fraction(2, 3),
                  Fraction(b - 1, b), Fraction(1)):
            poly = cov_polynomial(b, m, s, a)
            reference = cov_polynomial_reference(b, m, s, a)
            assert poly.coeffs_bx == reference
            assert poly.x_denominator > 0
            assert poly.x_coefficients() == (0, *(cf * b ** k for k, cf
                                                  in enumerate(reference, 1)))


SCAN_POLYNOMIALS = st.one_of(
    st.builds(cov_polynomial, st.sampled_from([2, 3, 5, 53]),
              st.integers(1, 6), st.integers(1, 6),
              st.fractions(0, 1, max_denominator=16))
    .map(lambda poly: (poly.x_numerators, poly.x_denominator)),
    st.builds(q_s_polynomial, st.sampled_from([2, 3, 5, 53]),
              st.integers(1, 6), st.integers(0, 6))
    .map(lambda coeffs: (coeffs, 1)),
)


@settings(max_examples=300, deadline=None)
@given(poly=SCAN_POLYNOMIALS, p=st.integers(-40, 40), q=st.integers(1, 30),
       unreduce=st.integers(-4, 4).filter(bool), scale=st.integers(1, 60))
@example(poly=((0, -1), 1), p=0, q=1, unreduce=-3, scale=1)
@example(poly=((0, 0, 0), 7), p=-5, q=3, unreduce=-1, scale=2)
def test_scan_values_are_the_exact_value_rounded_once(poly, p, q, unreduce,
                                                     scale):
    # x = p/q handed to horner unreduced; the scan's float must be
    # float(exact) bit for bit, and an exact zero must print 0.0, never -0.0
    coeffs, den = poly[0], poly[1] * scale
    x = Fraction(p, q)
    exact = sum((Fraction(c, den) * x ** k for k, c in enumerate(coeffs)),
                Fraction(0))
    [num], q_d = horner(coeffs, [p * abs(unreduce)], q * abs(unreduce))
    assert q_d > 0
    assert Fraction(num, q_d * den) == exact
    assert repr(num / (q_d * den)) == repr(float(exact))
    # a one-point grid whose denominator |unreduce| * q is not in lowest
    # terms
    grid = cli._parse_grid(f"{x}:{x}:1/{abs(unreduce)}")
    row = cli._scan_rows([(coeffs, den, "v,")], grid)
    assert row == [f"v,{float(x)!r},{float(exact)!r}"]
    if exact == 0:
        assert row[0].endswith(",0.0")


@settings(max_examples=200, deadline=None)
@given(b=st.sampled_from([2, 3, 5, 53]), m=st.integers(1, 6),
       s=st.integers(1, 6), a=st.fractions(0, 1, max_denominator=16),
       lo=st.tuples(st.integers(-40, 40), st.integers(1, 12)),
       step=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       unreduce=st.integers(1, 4), points=st.integers(1, 12),
       slack=st.fractions(0, 1, max_denominator=8).filter(lambda f: f < 1),
       scale=st.sampled_from(["none", "inv-nm1"]))
@example(b=53, m=6, s=6, a=Fraction(52, 53), lo=(-7, 3), step=(2, 4),
         unreduce=3, points=1, slack=Fraction(1, 2), scale="inv-nm1")
def test_covpoly_grid_rows_are_the_reference_rounded_once(
        b, m, s, a, lo, step, unreduce, points, slack, scale):
    # lo and step written unreduced, lo possibly negative, the grid often
    # holding fewer points than the degree plus one; every row against the
    # shell-by-shell Fraction reference
    lo_text = f"{lo[0] * unreduce}/{lo[1] * unreduce}"
    step_text = f"{step[0] * unreduce}/{step[1] * unreduce}"
    lo, step = Fraction(*lo), Fraction(*step)
    hi = lo + (points - 1 + slack) * step
    reference = cov_polynomial_reference(b, m, s, a)
    divisor = b ** m - 1 if scale == "inv-nm1" else 1
    expected = ["x,value"]
    for i in range(points):
        x = lo + i * step
        exact = sum((cf * (b * x) ** k for k, cf in enumerate(reference, 1)),
                    Fraction(0)) / divisor
        expected.append(f"{float(x)!r},{float(exact)!r}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["covpoly", "--base", str(b), "--m", str(m),
                         "--s", str(s), "--a", str(a),
                         f"--x-grid={lo_text}:{hi}:{step_text}",
                         "--scale", scale])
    assert code == 0
    assert out.getvalue() == "\n".join(expected) + "\n"


def test_cov_polynomial_validation():
    with pytest.raises(ConfigurationError):
        cov_polynomial(2, 0, 1, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        cov_polynomial(2, 1, 0, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        cov_polynomial(2, 1, 1, Fraction(3, 2))


def test_polynomial_builders_stop_at_the_order_cap():
    # m + s = MAX_ORDER builds, in a fraction of a second at s = 1; one more
    # is refused before any work
    assert len(cov_polynomial(2, MAX_ORDER - 1, 1, Fraction(1, 2)).x_numerators) \
        == MAX_ORDER
    assert sum(q_s_polynomial(2, MAX_ORDER - 1, 1)) == 1 - 2 ** (MAX_ORDER - 1)
    for build in (lambda m, s: cov_polynomial(2, m, s, Fraction(1, 2)),
                  lambda m, s: q_s_polynomial(2, m, s)):
        for m, s in ((MAX_ORDER, 1), (1, MAX_ORDER)):
            with pytest.raises(ConfigurationError, match="is more than 512"):
                build(m, s)


def test_truncation_levels_beyond_the_polynomial_carry_nothing():
    # every shell with k >= m+s has excess c >= r, so its coefficient is 0:
    # the finite polynomial loses no covariance
    b, m, s = 3, 2, 2
    for k_vec in length_vectors(s, m + s + 3):
        k = sum(k_vec)
        if k < m + s:
            continue
        r = sum(1 for kj in k_vec if kj > 0)
        assert Psi(b, r, max(k - m, 0)) == 0


# grid-integral oracle


def test_grid_oracle_matches_coefficient_covariance():
    rng = random.Random(12)
    for m, s in [(1, 1), (1, 2), (2, 1)]:
        grid = GammaGrid(2, m, s, resolution=m + 3)
        for _ in range(4):
            f = random_walsh_polynomial(rng, 2, s, 3, rng.randint(2, 5))
            want = covariance_analytic(f, lambda idx: psi_hat_zero_t(2, m, idx))
            assert grid.covariance(f) == want


def test_grid_oracle_resolution_invariance():
    # the density is zero past depth m and the integrand constant past the
    # function's digit depth, so any resolution >= max(m, K) gives the same
    # rational number; m+K is just the canonical safe choice
    rng = random.Random(13)
    f = random_walsh_polynomial(rng, 2, 1, 2, 3)
    values = {
        res: GammaGrid(2, 1, 1, resolution=res).covariance(f)
        for res in (2, 3, 4)
    }
    assert len(set(values.values())) == 1


def test_grid_oracle_guards():
    with pytest.raises(ValueError):
        GammaGrid(2, 3, 1, resolution=2)
    f = random_walsh_polynomial(random.Random(0), 2, 1, k_cap=4, n_terms=2)
    with pytest.raises(ValueError):
        GammaGrid(2, 1, 1, resolution=3).covariance(f)
    irrational = WalshPolynomial(b=2, s=1, terms={
        (1,): Coefficient(Fraction(1), Fraction(0), root=Fraction(2))})
    with pytest.raises(ValueError):
        GammaGrid(2, 1, 1, resolution=3).covariance(irrational)


# incomplete beta


def test_inc_beta_small_cases():
    x = Fraction(1, 4)
    assert inc_beta(1, 1, x) == x
    assert inc_beta(1, 2, x) == Fraction(7, 16)
    assert inc_beta(2, 2, Fraction(1, 2)) == Fraction(1, 2)
    assert inc_beta(2, 1, x) == Fraction(1, 16)


def test_inc_beta_endpoints():
    for a in range(1, 6):
        for b in range(1, 6):
            assert inc_beta(a, b, 0) == 0
            assert inc_beta(a, b, 1) == 1


def test_inc_beta_validation():
    with pytest.raises(ConfigurationError):
        inc_beta(0, 1, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        inc_beta_derivative_form(1, 0, Fraction(1, 2))


@given(st.integers(1, 8), st.integers(1, 8),
       st.fractions(min_value=Fraction(-2), max_value=Fraction(2)))
def test_inc_beta_reflection(a, b, x):
    # polynomial identities, so they hold on all rationals, not only [0,1]
    beta_forms_agree(a, b, x)


@given(st.integers(1, 8), st.integers(1, 8),
       st.fractions(min_value=Fraction(-1), max_value=Fraction(2)))
def test_inc_beta_derivative_form_agrees(a, b, x):
    beta_forms_agree(a, b, x)


# the witness


def test_witness_pinned_value():
    assert q_s(2, 1, 1, Fraction(1, 4)) == Fraction(-1, 4)


def test_witness_m1_family():
    # at m=1, base 2, the witness collapses to (1-x)^s - 1
    for s in range(0, 6):
        for x in (Fraction(0), Fraction(1, 8), Fraction(1, 3),
                  Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            assert q_s(2, 1, s, x) == (1 - x) ** s - 1


def test_witness_endpoints():
    for b in (2, 3, 5):
        for m in range(1, 5):
            for s in range(0, 4):
                assert q_s(b, m, s, 0) == 0
            for s in range(1, 4):
                assert q_s(b, m, s, 1) == 1 - b ** m


def test_witness_order_zero_vanishes():
    for x in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
        assert q_s(3, 2, 0, x) == 0


def test_witness_removable_point_matches_the_polynomial():
    for b, m, s in [(2, 1, 1), (2, 2, 2), (3, 2, 1), (3, 1, 3)]:
        x = Fraction(1, b)
        coeffs = q_s_polynomial(b, m, s)
        via_poly = sum(c * x ** k for k, c in enumerate(coeffs))
        assert q_s(b, m, s, x) == via_poly
        assert q_s(b, m, s, x) == 1 - b ** m * inc_beta(m, s + 1, x)


def test_witness_validation():
    with pytest.raises(ConfigurationError):
        q_s(2, 1, 1, Fraction(3, 2))
    with pytest.raises(ConfigurationError):
        q_s(2, 0, 1, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        q_s(2, 1, -1, Fraction(1, 2))
    with pytest.raises(ConfigurationError, match="need m >= 1 and s >= 0"):
        q_s_polynomial(3, 0, 3)


def test_witness_polynomial_pinned():
    assert q_s_polynomial(2, 1, 1) == (0, -1)
    assert q_s_polynomial(2, 1, 2) == (0, -2, 1)
    assert q_s_polynomial(2, 2, 1) == (0, -1, -2)


def test_witness_polynomial_has_integer_coefficients():
    for b, m, s in [(2, 3, 2), (3, 2, 3), (5, 2, 2), (7, 1, 4)]:
        coeffs = q_s_polynomial(b, m, s)
        assert all(isinstance(c, int) for c in coeffs)
        assert len(coeffs) <= m + s + 1
        assert coeffs[0] == 0
        assert sum(coeffs) == 1 - b ** m  # value at x = 1


def test_witness_polynomial_agrees_with_the_beta_form():
    rng = random.Random(21)
    for b, m, s in [(2, 2, 2), (3, 3, 1), (5, 1, 3), (3, 2, 4)]:
        coeffs = q_s_polynomial(b, m, s)
        for _ in range(5):
            x = Fraction(rng.randint(0, 97), 97)
            via_poly = sum(c * x ** k for k, c in enumerate(coeffs))
            assert q_s(b, m, s, x) == via_poly


def test_witness_polynomial_agrees_with_the_beta_form_at_larger_orders():
    # the running-power sums at m + s up to 24, on the removable point 1/b
    # and at both ends of the interval
    for b, m, s in [(2, 12, 12), (3, 1, 20), (5, 20, 0), (7, 9, 14)]:
        coeffs = q_s_polynomial(b, m, s)
        for x in (Fraction(0), Fraction(1, b), Fraction(2, 7), Fraction(1)):
            [num], den = horner(coeffs, [x.numerator], x.denominator)
            assert Fraction(num, den) == q_s(b, m, s, x)


# the difference form


def test_difference_telescopes():
    xs = (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
          Fraction(4, 5), Fraction(1))
    for case in product((2, 3, 5), range(1, 5), range(1, 5), xs):
        witness_difference_holds(*case)


def test_difference_pinned_value():
    assert delta_s(2, 1, 1, Fraction(1, 4)) == Fraction(1, 4)


def test_difference_splits_into_parts():
    xs = (Fraction(1, 7), Fraction(2, 5), Fraction(6, 7))
    for (b, m, s), x in product([(2, 2, 1), (2, 3, 2), (3, 2, 3)], xs):
        witness_difference_holds(b, m, s, x)


def test_difference_is_nonnegative_on_the_unit_interval():
    for (b, m, s), i in product([(2, 3, 2), (3, 2, 3), (5, 2, 1)], range(51)):
        witness_difference_holds(b, m, s, Fraction(i, 50))


def test_difference_validation():
    with pytest.raises(ConfigurationError):
        delta_s(2, 0, 1, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        delta_s(2, 1, 0, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        delta_second_part(2, 1, -1, Fraction(1, 2))


# the recurrence


def test_recurrence_annihilates_witness_windows():
    xs = (Fraction(1, 7), Fraction(1, 3), Fraction(5, 8))
    for (b, m), s, x in product([(2, 2), (3, 1), (5, 3)], range(1, 5), xs):
        recurrence_vanishes(b, m, s, x)


def test_recurrence_annihilates_polynomial_windows():
    xs = (Fraction(1, 9), Fraction(2, 3))
    for (b, m), s, x in product([(2, 3), (3, 2)], range(1, 4), xs):
        recurrence_vanishes(b, m, s, x)


def test_recurrence_rejects_perturbed_windows():
    b, m, s, x = 2, 2, 1, Fraction(1, 3)
    window = [q_s(b, m, sigma, x) for sigma in range(s, s + 4)]
    window[2] += Fraction(1, 1000)
    assert recurrence_residual(b, m, s, x, window) != 0


def test_recurrence_needs_four_values():
    with pytest.raises(ConfigurationError):
        recurrence_residual(2, 1, 1, Fraction(1, 2), [Fraction(0)] * 3)


# the hypergeometric assembly


def test_assembly_pinned_value():
    assert recmain_eval(2, 1, 1, Fraction(1, 4)) == Fraction(-1, 4)


def test_assembly_matches_witness_at_random_rationals():
    rng = random.Random(33)
    hits = 0
    while hits < 30:
        b = rng.choice([2, 3, 5])
        m = rng.randint(1, 4)
        s = rng.randint(0, 4)
        x = Fraction(rng.randint(1, 199), 200)
        if x == Fraction(1, b):
            continue
        hits += assembly_matches_witness(b, m, s, x)


def test_assembly_order_zero_vanishes():
    for x in (Fraction(1, 5), Fraction(2, 3), Fraction(9, 11)):
        assert recmain_eval(2, 3, 0, x) == 0


def test_assembly_rejects_boundary_and_removable_points():
    for bad in (Fraction(0), Fraction(1), Fraction(1, 2)):
        with pytest.raises(ValueError):
            recmain_eval(2, 1, 1, bad)
    with pytest.raises(ConfigurationError):
        recmain_eval(2, 0, 1, Fraction(1, 3))
