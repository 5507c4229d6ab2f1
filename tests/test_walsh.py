"""Walsh characters, index shells, and finite Walsh series.

The pinned scalar cases fix the digit convention (digit length of 0 is 0,
least-significant index digit pairs with the first point digit) on the
evaluation plan, WalshPolynomial.eval_digit_matrix; everything else is
property-level: the group law on the plan's values, shell partition,
orthonormality on the dyadic grid, Parseval against the pointwise
definition, exact shell weights.
"""

import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    covariance_analytic, decay_polynomial_reference, eval_point, index_digits,
    random_walsh_polynomial, shells_reference, wal_exponent)
from netcov.digits import ConfigurationError, PrecisionError, fraction_digits, length_vectors
from netcov import walsh
from netcov.estimators import build_function
from netcov.nets import faure_net
from netcov.walsh import (
    MAX_TERMS,
    Coefficient,
    WalshPolynomial,
    digit_length,
    enumerate_L_k,
    index_add,
    random_decay_polynomial,
    root_of_unity,
    shell_of,
    shell_size,
)


def test_digit_length():
    assert digit_length(2, 0) == 0
    assert digit_length(2, 1) == 1
    assert digit_length(2, 2) == 2
    assert digit_length(2, 3) == 2
    assert digit_length(2, 4) == 3
    assert digit_length(3, 8) == 2
    assert digit_length(3, 9) == 3
    with pytest.raises(ConfigurationError):
        digit_length(2, -1)


def _wal(b, l, rows):
    """The one-term map wal_l at each (s, P) digit row, through the plan."""
    f = WalshPolynomial(b=b, s=len(l), terms={l: Coefficient(1, 0)})
    return f.eval_digit_matrix(np.array(rows, dtype=np.uint8))


def test_wal_exponent_zero_index():
    assert list(_wal(2, (0,), [[(0, 1, 1)]])) == [1]
    assert list(_wal(5, (0,), np.zeros((1, 1, 0)))) == [1]


def test_wal_exponent_base2():
    # x = 3/4 has digits (1, 1); lambda_0 * xi_1 = 1
    assert list(_wal(2, (1,), [[(1, 1)]])) == [-1]


def test_wal_exponent_base3():
    # x = 2/3 has digits (2,); the character value is omega_3^2
    assert list(_wal(3, (1,), [[(2,)]])) == [root_of_unity(3, 2)]


def test_wal_eval_zero_vector_is_one():
    assert list(_wal(2, (0, 0), [[(1, 0), (0, 1)]])) == [1]


def test_wal_eval_product_of_scalars():
    x = fraction_digits([Fraction(3, 4), Fraction(1, 2)], 2, 2)
    assert list(_wal(2, (1, 1), [x])) == [1]


def test_wal_eval_base3_value():
    x = fraction_digits([Fraction(2, 3)], 3, 1)
    want = complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))
    assert _wal(3, (1,), [x])[0] == pytest.approx(want)


def test_wal_exponent_vector_takes_uint8_digits_as_ints():
    # 250 * 250 = 62500 = 1 mod 251, but 36 in uint8 arithmetic
    b = 251
    l = (250, 250 + 250 * b)
    row = np.full((2, 2), 250, dtype=np.uint8)
    assert wal_exponent(b, l, row) == 3
    assert list(_wal(b, l, [row])) == [root_of_unity(b, 3)]


def test_product_rule_on_random_indices():
    rng = random.Random(0)
    for _ in range(100):
        b = rng.choice([2, 3, 5])
        k = rng.randrange(0, b ** 4)
        l = rng.randrange(0, b ** 4)
        rows = [[tuple(rng.randrange(b) for _ in range(6))]]
        lhs = _wal(b, (k,), rows) * _wal(b, (l,), rows)
        assert lhs == pytest.approx(_wal(b, (index_add(b, k, l),), rows), abs=1e-12)


def test_conjugation_rule_on_random_indices():
    rng = random.Random(1)
    for _ in range(60):
        b = rng.choice([2, 3, 5])
        l = rng.randrange(0, b ** 4)
        rows = [[tuple(rng.randrange(b) for _ in range(6))]]
        # the index whose digits are the negated digits of l
        neg = sum((-d) % b * b ** i for i, d in enumerate(index_digits(b, l, 4)))
        assert _wal(b, (neg,), rows) * _wal(b, (l,), rows) == pytest.approx([1], abs=1e-12)
        assert index_add(b, l, neg) == 0


@given(st.integers(0, 255), st.integers(0, 255))
def test_base2_index_add_is_xor(k, l):
    assert index_add(2, k, l) == (k ^ l)


def test_enumerate_shells_pinned():
    assert enumerate_L_k(2, (1,)) == ((1,),)
    assert enumerate_L_k(2, (2, 1)) == ((2, 1), (3, 1))
    assert enumerate_L_k(3, (1, 0)) == ((1, 0), (2, 0))
    # |L_k| = ((b-1)/b)^r * b^k
    assert len(enumerate_L_k(2, (2, 1))) == 2
    with pytest.raises(ConfigurationError):
        enumerate_L_k(2, (-1,))


@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_shell_size_matches_enumeration(b, k_vec):
    k_vec = tuple(k_vec)
    shell = enumerate_L_k(b, k_vec)
    assert len(shell) == shell_size(b, k_vec)
    for l in shell:
        assert shell_of(b, l) == k_vec


def test_shells_partition_the_index_lattice():
    for b in (2, 3):
        seen = {}
        for k1 in range(3):
            for k2 in range(3):
                for l in enumerate_L_k(b, (k1, k2)):
                    assert l not in seen
                    seen[l] = (k1, k2)
        full = {(l1, l2) for l1 in range(b ** 2) for l2 in range(b ** 2)}
        assert set(seen) == full


def test_shell_of():
    assert shell_of(2, (3, 0, 1)) == (2, 0, 1)
    assert shell_of(3, (0, 8, 9)) == (0, 2, 3)
    assert shell_of(2, ()) == ()
    with pytest.raises(ConfigurationError):
        shell_of(2, (1, -1))


def test_root_of_unity():
    assert root_of_unity(2, 0) == 1
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(2, 7) == -1
    assert root_of_unity(3, 3) == pytest.approx(1)
    assert abs(root_of_unity(5, 2)) == pytest.approx(1)


def test_orthonormality_on_dyadic_cells():
    # exact cell sums of wal_k * conj(wal_l) over the 8 cells of width 1/8:
    # 8 times the identity matrix, exact since base-2 values are +-1
    cells = [fraction_digits([Fraction(i, 8)], 2, 3) for i in range(8)]
    values = [_wal(2, (k,), cells) for k in range(8)]
    for k in range(8):
        for l in range(8):
            assert set(values[k]) <= {1, -1}
            assert (values[k] * values[l].conj()).sum() == (8 if k == l else 0)


def test_random_series_refuse_more_terms_than_indices():
    # b = 2, s = 2, k_cap = 2 leaves 2^4 - 1 = 15 nonzero indices
    with pytest.raises(ValueError, match="15 nonzero indices"):
        random_walsh_polynomial(random.Random(0), b=2, s=2, k_cap=2, n_terms=20)
    f = random_walsh_polynomial(random.Random(0), b=2, s=2, k_cap=2, n_terms=15)
    assert len(f.terms) == 16


def test_parseval_on_the_digit_grid():
    rng = random.Random(4)
    f = random_walsh_polynomial(rng, b=2, s=2, k_cap=2, n_terms=5)
    res = max(f.max_digit_length(), 1)
    total = Fraction(0)
    for c1 in range(2 ** res):
        for c2 in range(2 ** res):
            coords = tuple(
                tuple((c >> (res - 1 - d)) & 1 for d in range(res))
                for c in (c1, c2)
            )
            # root is 1, so each coefficient is exactly re + i*im
            re = im = Fraction(0)
            for l, coef in f.terms.items():
                sign = 1 if wal_exponent(2, l, coords) == 0 else -1
                re += sign * coef.re
                im += sign * coef.im
            total += re * re + im * im
    cell_average = total / 4 ** res
    assert cell_average == sum(c.weight for c in f.terms.values())


# coefficient and value containers


def test_coefficient_weight_is_exact():
    c = Coefficient(Fraction(1), Fraction(1), root=Fraction(2))
    assert c.weight == 4


def test_coefficient_square_root_extraction():
    c = Coefficient(Fraction(2), Fraction(-1), root=Fraction(9, 4))
    assert c.weight == Fraction(45, 4)
    assert c.to_complex() == pytest.approx(3 - 1.5j)


def test_coefficient_rejects_negative_root():
    for root in (-1, Fraction(-1, 3), -0.5):
        with pytest.raises(ConfigurationError):
            Coefficient(Fraction(1), Fraction(0), root=root)


def test_coefficient_accepts_a_zero_root():
    for root in (0, Fraction(0), 0.0, -0.0):
        assert Coefficient(Fraction(1), Fraction(1), root=root).weight == 0


# polynomial container


def test_polynomial_validation():
    with pytest.raises(ConfigurationError):
        WalshPolynomial(b=2, s=2, terms={(1,): Coefficient(Fraction(1), Fraction(0))})
    with pytest.raises(ConfigurationError):
        WalshPolynomial(b=2, s=1, terms={(-1,): Coefficient(Fraction(1), Fraction(0))})


def test_polynomial_accessors():
    f = WalshPolynomial(b=2, s=1, terms={
        (0,): Coefficient(Fraction(2), Fraction(0)),
        (3,): Coefficient(Fraction(0), Fraction(1, 2)),
    })
    assert f.coefficient((3,)).weight == Fraction(1, 4)
    assert f.coefficient((7,)).weight == 0
    assert f.constant_coefficient().to_complex() == 2
    assert f.max_digit_length() == 2


@pytest.mark.parametrize("seed", range(6))
def test_shell_sums_match_the_fraction_sum_of_weights(seed):
    # shells() sums integer parts over a common denominator; the oracle adds
    # the Fractions one term at a time, in the terms' order
    rng = random.Random(seed)
    b = rng.choice([2, 3, 5])
    maps = [random_walsh_polynomial(rng, b=b, s=2, k_cap=3, n_terms=20),
            random_decay_polynomial(b, 2, rng.choice(["per-index", "per-shell"]),
                                    Fraction(1, 3), Fraction(1, 2 * b), Fraction(3, 7),
                                    3, seed)]
    for f in maps:
        expected: dict[tuple[int, ...], Fraction] = {}
        for l, c in f.terms.items():
            assert c.weight == (c.re ** 2 + c.im ** 2) * c.root
            k = shell_of(b, l)
            expected[k] = expected.get(k, Fraction(0)) + c.weight
        assert list(f.shells().items()) == list(expected.items())


def test_shell_weights_and_variance():
    f = WalshPolynomial(b=2, s=2, terms={
        (0, 0): Coefficient(Fraction(1), Fraction(0)),
        (1, 0): Coefficient(Fraction(1, 2), Fraction(0)),
        (1, 1): Coefficient(Fraction(0), Fraction(1, 2)),
        (0, 1): Coefficient(Fraction(1, 2), Fraction(1, 2)),
    })
    shells = f.shells()
    assert shells[(0, 0)] == 1
    assert shells[(1, 0)] == Fraction(1, 4)
    assert shells[(1, 1)] == Fraction(1, 4)
    assert shells[(0, 1)] == Fraction(1, 2)
    assert sum(w for k, w in shells.items() if any(k)) == 1
    assert f.variance_mc(4) == Fraction(1, 4)


def test_covariance_analytic_skips_the_constant():
    f = WalshPolynomial(b=2, s=1, terms={
        (0,): Coefficient(Fraction(7), Fraction(0)),
        (1,): Coefficient(Fraction(1), Fraction(0)),
    })
    assert covariance_analytic(f, lambda idx: Fraction(-1, 3)) == Fraction(-1, 3)


def test_matrix_and_pointwise_evaluation_agree():
    rng = random.Random(7)
    f = random_walsh_polynomial(rng, b=3, s=2, k_cap=2, n_terms=4)
    ps = faure_net(3, 2, 2, precision=3)
    vals = f.eval_digit_matrix(ps.digits)
    for i, p in enumerate(ps.digits):
        assert vals[i] == pytest.approx(eval_point(f, p), abs=1e-12)


@pytest.mark.parametrize("b,k_cap,tables",
                         [(2, 3, True), (2, 12, False), (251, 2, False), (251, 1, True)],
                         ids=["b2-tables", "b2-product", "b251-product", "b251-tables"])
def test_matrix_evaluation_matches_pointwise_on_both_routes(b, k_cap, tables):
    # s * b^k_cap * terms exponent table entries, 9 terms or 10: past 2^16
    # at b = 2 with 12 digits and at b = 251 with 2, so the exponents come
    # from the digit product there
    rng = random.Random(b * k_cap)
    f = random_walsh_polynomial(rng, b=b, s=2, k_cap=k_cap, n_terms=8)
    # with index (1, 1) the row of all b-1 digits reaches the largest table
    # sum s(b-1), the root table's last entry
    f = WalshPolynomial(b=b, s=2, terms={**f.terms, (1, 1): Coefficient(1, 0)})
    assert f.max_digit_length() == k_cap
    assert (f._plan[0] is not None) is tables
    digits = np.array([[[rng.randrange(b) for _ in range(k_cap + 1)]
                        for _ in range(2)] for _ in range(60)], dtype=np.uint8)
    digits[0] = b - 1
    vals = f.eval_digit_matrix(digits)
    for i, row in enumerate(digits):
        assert vals[i] == pytest.approx(eval_point(f, row), abs=1e-12)


@pytest.mark.parametrize("b", [1_048_573, 2 ** 31 - 1])
def test_plan_refuses_a_base_no_digit_row_holds(b):
    # the root table would take one root_of_unity call per residue below b
    f = WalshPolynomial(b=b, s=1, terms={(1,): Coefficient(1, 0)})
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match=f"bases up to 256, got {b}"):
        f.eval_digit_matrix(np.zeros((1, 1, 1), dtype=np.uint8))
    assert time.perf_counter() - start < 0.1
    assert "_plan" not in f.__dict__


def test_matrix_evaluation_checks_precision():
    f = WalshPolynomial(b=2, s=1, terms={(4,): Coefficient(Fraction(1), Fraction(0))})
    ps = faure_net(2, 2, 1)
    with pytest.raises(PrecisionError):
        f.eval_digit_matrix(ps.digits)
    with pytest.raises(ConfigurationError):
        f.eval_digit_matrix(faure_net(2, 2, 2, precision=3).digits)
    # a component past int64 needs 64 digits: refused before any plan is
    # built, and exact once the points carry them
    f = WalshPolynomial(b=2, s=1, terms={
        (2 ** 63 + 1,): Coefficient(Fraction(1), Fraction(0))})
    with pytest.raises(PrecisionError, match="needs 64 digits"):
        f.eval_digit_matrix(ps.digits)
    assert "_plan" not in f.__dict__
    digits = np.zeros((4, 1, 64), dtype=np.uint8)
    digits[1, 0, 0] = digits[2, 0, 63] = digits[3, 0, [0, 63]] = 1
    assert list(f.eval_digit_matrix(digits)) == [1, -1, -1, 1]


def _decay(kind, b, s, alpha):
    return random_decay_polynomial(b, s, kind, Fraction(2, 3), Fraction(1, 3 * b),
                                   alpha, 3, seed=b)


FLOAT_FILE = json.dumps({"b": 3, "s": 2, "terms": [
    {"l": [0, 0], "re": 0.1, "im": -1e-300},
    {"l": [1, 2], "re": -2.5e300, "im": 5e-324},
    {"l": [4, 0], "re": -0.0, "im": 1 / 3}]})


@pytest.mark.parametrize("make", [
    lambda: build_function(3, 3, {"kind": "wal", "l": [1, 5, 0]}),
    lambda: _decay("per-index", 2, 2, Fraction(2, 3)),
    lambda: _decay("per-index", 5, 2, Fraction(7)),
    lambda: _decay("per-shell", 3, 2, Fraction(5, 3)),
    lambda: _decay("per-shell", 7, 1, Fraction(1)),
    lambda: WalshPolynomial.from_json(_decay("per-shell", 2, 2, Fraction(3, 5)).to_json()),
    lambda: WalshPolynomial.from_json(FLOAT_FILE),
    # int parts, and a zero root that scales a negative part to -0.0
    lambda: WalshPolynomial(b=2, s=1, terms={(0,): Coefficient(2, -3, root=Fraction(5)),
                                             (1,): Coefficient(-1, 0, root=0)}),
], ids=["wal", "per-index", "per-index-b5", "per-shell", "per-shell-alpha-1",
        "decay-file", "float-file", "int-parts"])
def test_plan_values_are_to_complex_bit_for_bit(make):
    # the conversion as first written, through float() of each Fraction
    def oracle(c):
        r = math.sqrt(float(c.root))
        return complex(float(c.re) * r, float(c.im) * r)

    f = make()
    coefs = [f.terms[l] for l in sorted(f.terms)]
    want = np.array([oracle(c) for c in coefs], dtype=np.complex128).tobytes()
    assert np.array([c.to_complex() for c in coefs], dtype=np.complex128).tobytes() == want
    assert f._plan[2].tobytes() == want


def test_json_roundtrip_is_exact_for_dyadic_coefficients():
    f = WalshPolynomial(b=2, s=1, terms={
        (0,): Coefficient(Fraction(3, 8), Fraction(-1, 4)),
        (5,): Coefficient(Fraction(7, 16), Fraction(1, 2)),
    }, metadata={"note": "roundtrip"})
    back = WalshPolynomial.from_json(f.to_json())
    assert back.terms == f.terms
    assert back.metadata == {"note": "roundtrip"}
    assert back.b == 2 and back.s == 1


def test_json_preserves_shell_weights_approximately():
    # irrational coefficient magnitudes serialize as floats, so the map is
    # lossy; shell weights must still survive to float precision
    f = random_decay_polynomial(2, 2, "per-shell", Fraction(1, 2),
                                Fraction(1, 8), Fraction(1), 3, seed=1)
    back = WalshPolynomial.from_json(f.to_json())
    for k, w in f.shells().items():
        assert float(back.shells()[k]) == pytest.approx(float(w), rel=1e-12)


# decay series


def test_per_index_kmax_zero_is_constant():
    f = random_decay_polynomial(2, 2, "per-index", None, Fraction(1, 4),
                                Fraction(9), 0, seed=0)
    assert set(f.terms) == {(0, 0)}
    assert f.constant_coefficient().weight == 9
    assert f.constant_coefficient().to_complex() == 3  # sqrt(alpha)


def test_decay_shell_weight_example():
    # per-index at x=1/4 puts 1/4 on the shell k=(1,); per-shell with
    # a=(b-1)/b reproduces it through |L_k| = ((b-1)/b)^r b^k
    per_index = random_decay_polynomial(2, 1, "per-index", None,
                                        Fraction(1, 4), Fraction(1), 1, seed=2)
    per_shell = random_decay_polynomial(2, 1, "per-shell", Fraction(1, 2),
                                        Fraction(1, 4), Fraction(1), 1, seed=2)
    assert per_index.shells()[(1,)] == Fraction(1, 4)
    assert per_shell.shells()[(1,)] == Fraction(1, 4)


def test_per_index_weights_per_index():
    f = random_decay_polynomial(3, 2, "per-index", None, Fraction(1, 5),
                                Fraction(2), 2, seed=3)
    for l, coef in f.terms.items():
        k = sum(digit_length(3, lj) for lj in l)
        assert coef.weight == Fraction(1, 5) ** k * 2


def test_same_seed_reproduces_the_map():
    kw = dict(b=3, s=2, kind="per-shell", a=Fraction(1, 3), x=Fraction(1, 4),
              alpha=Fraction(1), k_max=3, seed=11)
    assert random_decay_polynomial(**kw).terms == random_decay_polynomial(**kw).terms
    kw["seed"] = 12
    assert random_decay_polynomial(b=3, s=2, kind="per-shell", a=Fraction(1, 3),
                                   x=Fraction(1, 4), alpha=Fraction(1),
                                   k_max=3, seed=11).terms != \
        random_decay_polynomial(**kw).terms


def test_large_shells_keep_exact_totals_under_the_cap(monkeypatch):
    monkeypatch.setattr(walsh, "SHELL_SUPPORT_CAP", 16)
    a, x, alpha = Fraction(1, 2), Fraction(3, 8), Fraction(2)
    f = random_decay_polynomial(2, 1, "per-shell", a, x, alpha, 12, seed=3)
    shells = f.shells()
    for k in range(1, 13):
        assert shells[(k,)] == a * (2 * x) ** k * alpha
        support = sum(1 for l in f.terms if digit_length(2, l[0]) == k)
        assert support <= 16


@settings(max_examples=80, deadline=None)
@given(b=st.sampled_from([2, 3, 5, 7]), s=st.integers(1, 3),
       kind=st.sampled_from(["per-index", "per-shell"]),
       a=st.fractions(0, 1, max_denominator=9),
       x_times_b=st.fractions(0, 1, max_denominator=12).filter(lambda v: v < 1),
       alpha=st.fractions(Fraction(1, 9), 5, max_denominator=9).filter(lambda v: v != 1),
       k_max=st.integers(0, 4), seed=st.integers(0, 2 ** 31 - 1),
       cap=st.sampled_from([3, walsh.SHELL_SUPPORT_CAP]))
# the real cap is passed: shells (3, 0) and (0, 3) hold 294 indices
@example(b=7, s=2, kind="per-shell", a=Fraction(1, 2), x_times_b=Fraction(1, 3),
         alpha=Fraction(2, 3), k_max=3, seed=5, cap=walsh.SHELL_SUPPORT_CAP)
# shells of more than 2^63 indices, sampled
@example(b=2 ** 31 - 1, s=2, kind="per-shell", a=Fraction(1, 3), x_times_b=Fraction(1, 2),
         alpha=Fraction(7, 2), k_max=3, seed=8, cap=walsh.SHELL_SUPPORT_CAP)
# every shell past the zero shell is skipped: x = 0, a = 0, or none is asked for
@example(b=3, s=2, kind="per-index", a=None, x_times_b=Fraction(0),
         alpha=Fraction(2, 3), k_max=3, seed=1, cap=3)
@example(b=2, s=3, kind="per-shell", a=Fraction(0), x_times_b=Fraction(1, 2),
         alpha=Fraction(5, 2), k_max=3, seed=2, cap=3)
@example(b=5, s=2, kind="per-shell", a=Fraction(1, 3), x_times_b=Fraction(1, 4),
         alpha=Fraction(1, 9), k_max=0, seed=3, cap=walsh.SHELL_SUPPORT_CAP)
def test_decay_builder_matches_its_first_written_form(b, s, kind, a, x_times_b, alpha,
                                                      k_max, seed, cap):
    zero = (0,) * s
    assume(sum(shell_size(b, k) if kind == "per-index" else min(shell_size(b, k), cap)
               for k in length_vectors(s, k_max) if k != zero) <= 3000)
    x = x_times_b / b
    with mock.patch.object(walsh, "SHELL_SUPPORT_CAP", cap):
        f = random_decay_polynomial(b, s, kind, a, x, alpha, k_max, seed)
    ref = decay_polynomial_reference(b, s, kind, a, x, alpha, k_max, seed, cap)
    assert list(f.terms.items()) == list(ref.terms.items())
    assert list(f.shells().items()) == list(shells_reference(ref).items())
    assert f.to_json() == ref.to_json()
    # the shell totals and values the builder hands over are what the same
    # terms give when regrouped and converted one by one
    plain = WalshPolynomial(b, s, f.terms)
    assert list(f.shells().items()) == list(plain.shells().items())
    assert f.max_digit_length() == plain.max_digit_length()
    # the plan's coefficient column, read without a plan, which the
    # example's b = 2^31 - 1 is refused
    ls = sorted(f.terms)
    assert np.array([f._values[l] for l in ls]).tobytes() == \
        np.array([plain._values[l] for l in ls]).tobytes()


def test_decay_metadata_records_parameters():
    f = random_decay_polynomial(2, 1, "per-shell", Fraction(1, 2),
                                Fraction(1, 8), Fraction(3), 2, seed=5)
    assert f.metadata["kind"] == "per-shell"
    assert f.metadata["x"] == "1/8"
    assert f.metadata["alpha"] == "3"
    assert f.metadata["a"] == "1/2"
    assert f.metadata["k_max"] == 2
    assert f.metadata["seed"] == 5


def test_decay_parameter_validation():
    with pytest.raises(ConfigurationError):
        random_decay_polynomial(2, 1, "per-index", None, Fraction(1, 2),
                                Fraction(1), 2, seed=0)  # x >= 1/b
    with pytest.raises(ConfigurationError):
        random_decay_polynomial(2, 1, "per-index", None, Fraction(1, 4),
                                Fraction(0), 2, seed=0)  # alpha <= 0
    with pytest.raises(ConfigurationError):
        random_decay_polynomial(2, 1, "geometric", None, Fraction(1, 4),
                                Fraction(1), 2, seed=0)
    with pytest.raises(ConfigurationError):
        random_decay_polynomial(2, 1, "per-shell", Fraction(3, 2),
                                Fraction(1, 4), Fraction(1), 2, seed=0)
    # s = 1, per index: 2^k_max terms, counted before any is built
    with pytest.raises(ConfigurationError, match=f"spans at least {2 * MAX_TERMS} "
                                                 f"terms, more than {MAX_TERMS}"):
        random_decay_polynomial(2, 1, "per-index", None, Fraction(1, 4),
                                Fraction(1), 17, seed=0)


def test_polynomial_terms_are_read_only():
    # the evaluation plan is built once from terms, so neither the stored
    # map nor the caller's dict may change them afterwards
    source = {(1,): Coefficient(Fraction(1), Fraction(0))}
    f = WalshPolynomial(b=2, s=1, terms=source)
    digits = np.array([[[0]], [[1]]], dtype=np.uint8)
    values = f.eval_digit_matrix(digits)
    with pytest.raises(TypeError):
        f.terms[(1,)] = Coefficient(Fraction(2), Fraction(0))
    source[(1,)] = Coefficient(Fraction(2), Fraction(0))
    assert np.array_equal(f.eval_digit_matrix(digits), values)
