"""Digit representation, common-prefix counting, and region volumes."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from netcov.digits import (
    AT_LEAST_P,
    ConfigurationError,
    DigitPoint,
    digits_to_str,
    gamma_scalar,
    gamma_vector,
    length_vectors,
    str_to_digits,
    validate_base,
    volume_prefix_eq,
    volume_prefix_ge,
)


def test_from_fractions_expands_exactly():
    p = DigitPoint.from_fractions([Fraction(3, 4), Fraction(1, 3)],
                                  base=2, precision=4)
    assert p.coords[0] == (1, 1, 0, 0)
    # 1/3 in base 2 is 0.010101...; truncation keeps the first four digits
    assert p.coords[1] == (0, 1, 0, 1)


def test_base3_expansion():
    p = DigitPoint.from_fractions([Fraction(2, 3)], base=3, precision=3)
    assert p.coords[0] == (2, 0, 0)


def test_to_fractions_inverts_exact_expansions():
    p = DigitPoint.from_fractions([Fraction(5, 8)], base=2, precision=3)
    assert p.to_fractions() == (Fraction(5, 8),)
    assert p.to_floats() == (0.625,)


def test_point_properties():
    p = DigitPoint(3, ((0, 1), (2, 0), (1, 1)))
    assert p.s == 3
    assert p.precision == 2


def test_coordinate_range_is_validated():
    with pytest.raises(ConfigurationError):
        DigitPoint.from_fractions([Fraction(3, 2)], base=2, precision=2)
    with pytest.raises(ConfigurationError):
        DigitPoint.from_fractions([Fraction(-1, 4)], base=2, precision=2)


def test_digit_range_is_validated():
    with pytest.raises(ConfigurationError):
        DigitPoint(2, ((0, 2),))


def test_mixed_precision_rejected():
    with pytest.raises(ConfigurationError):
        DigitPoint(2, ((0, 1), (0,)))


def test_empty_point_rejected():
    with pytest.raises(ConfigurationError):
        DigitPoint(2, ())


def test_base_must_be_prime():
    for bad in (0, 1, 4, 6, 9, 12):
        with pytest.raises(ConfigurationError):
            validate_base(bad)
    for good in (2, 3, 5, 7, 11, 53, 2 ** 32 - 5):
        validate_base(good)


def test_base_refuses_primes_from_2_to_the_32_before_trial_division():
    # 2^61 - 1 is prime; trial division up to its root would not finish
    with pytest.raises(ConfigurationError, match="below 2\\^32"):
        validate_base(2 ** 61 - 1)


def test_gamma_counts_common_prefix():
    assert gamma_scalar((1, 0, 1), (1, 0, 0)) == 2
    assert gamma_scalar((0, 1), (1, 1)) == 0
    assert gamma_scalar((1, 1), (1, 1)) is AT_LEAST_P


def test_gamma_needs_matching_precision():
    with pytest.raises(ConfigurationError):
        gamma_scalar((1, 0), (1, 0, 0))


def test_gamma_vector_totals():
    x = DigitPoint(2, ((0, 0), (1, 1)))
    y = DigitPoint(2, ((0, 1), (1, 0)))
    parts, total = gamma_vector(x, y)
    assert parts == (1, 1)
    assert total == 2


def test_gamma_vector_sentinel_propagates():
    x = DigitPoint(2, ((0, 0), (1, 1)))
    parts, total = gamma_vector(x, x)
    assert parts == (AT_LEAST_P, AT_LEAST_P)
    assert total is AT_LEAST_P


def test_gamma_vector_partial_sentinel():
    # one coordinate saturated is enough to spoil the total
    x = DigitPoint(2, ((0, 0), (1, 1)))
    y = DigitPoint(2, ((0, 0), (1, 0)))
    parts, total = gamma_vector(x, y)
    assert parts == (AT_LEAST_P, 1)
    assert total is AT_LEAST_P


def test_gamma_vector_rejects_mismatch():
    x = DigitPoint(2, ((0, 0),))
    with pytest.raises(ConfigurationError):
        gamma_vector(x, DigitPoint(3, ((0, 0),)))
    with pytest.raises(ConfigurationError):
        gamma_vector(x, DigitPoint(2, ((0, 0), (0, 0))))


def test_sentinel_is_not_a_number():
    with pytest.raises(TypeError):
        _ = AT_LEAST_P < 3
    with pytest.raises(TypeError):
        _ = AT_LEAST_P + 1


def test_sentinel_is_a_singleton():
    assert type(AT_LEAST_P)() is AT_LEAST_P


def test_length_vectors_order_and_count():
    # first component outermost: seeded series draw their terms in this order
    assert list(length_vectors(2, 2)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(length_vectors(0, 3)) == [()]
    assert sum(1 for _ in length_vectors(3, 4)) == 35  # C(4 + 3, 3)


def test_region_volumes():
    assert volume_prefix_ge(2, (1, 1)) == Fraction(1, 4)
    assert volume_prefix_ge(3, (0,)) == 1
    assert volume_prefix_eq(2, (0, 0)) == Fraction(1, 4)
    assert volume_prefix_eq(3, (1,)) == Fraction(2, 9)


def test_region_volume_validates_sign():
    with pytest.raises(ConfigurationError):
        volume_prefix_ge(2, (-1,))
    with pytest.raises(ConfigurationError):
        volume_prefix_eq(2, (0, -2))


@given(st.integers(min_value=0, max_value=6))
def test_volume_difference_identity(i):
    # {gamma = i} is {gamma >= i} minus {gamma >= i+1}, per coordinate
    assert volume_prefix_eq(2, (i,)) == (
        volume_prefix_ge(2, (i,)) - volume_prefix_ge(2, (i + 1,))
    )


@given(st.data())
def test_gamma_is_symmetric(data):
    b = data.draw(st.sampled_from([2, 3, 5]))
    p = data.draw(st.integers(min_value=1, max_value=8))
    xd = tuple(data.draw(st.integers(0, b - 1)) for _ in range(p))
    yd = tuple(data.draw(st.integers(0, b - 1)) for _ in range(p))
    assert gamma_scalar(xd, yd) == gamma_scalar(yd, xd)


@given(st.data())
def test_gamma_matches_prefix_equality(data):
    b = data.draw(st.sampled_from([2, 3]))
    p = data.draw(st.integers(min_value=1, max_value=8))
    xd = tuple(data.draw(st.integers(0, b - 1)) for _ in range(p))
    yd = tuple(data.draw(st.integers(0, b - 1)) for _ in range(p))
    g = gamma_scalar(xd, yd)
    if g is AT_LEAST_P:
        assert xd == yd
    else:
        assert xd[:g] == yd[:g]
        assert xd[g] != yd[g]


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(99, 100)),
       st.integers(min_value=1, max_value=10))
def test_truncation_error_bound(x, p):
    pt = DigitPoint.from_fractions([x], base=2, precision=p)
    (back,) = pt.to_fractions()
    assert 0 <= x - back < Fraction(1, 2 ** p)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12))
def test_digit_string_roundtrip(digs):
    assert str_to_digits(digits_to_str(digs), 5) == tuple(digs)


def test_str_to_digits_rejects_out_of_base():
    with pytest.raises(ConfigurationError):
        str_to_digits("012", 2)
    with pytest.raises(ConfigurationError):
        str_to_digits("0!1", 2)
