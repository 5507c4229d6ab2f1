"""Digit representation, common-prefix counting, and region volumes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import digits_to_fractions, volume_prefix_ge
from netcov.counting import common_digits, gamma_matrix
from netcov.digits import (
    ConfigurationError,
    fraction_digits,
    length_vectors,
    validate_base,
    volume_prefix_eq,
)
from netcov.nets import PointSet, faure_net
from netcov.scramble import owen_scramble


def test_from_fractions_expands_exactly():
    p = fraction_digits([Fraction(3, 4), Fraction(1, 3)], 2, 4)
    assert p.tolist()[0] == [1, 1, 0, 0]
    # 1/3 in base 2 is 0.010101...; truncation keeps the first four digits
    assert p.tolist()[1] == [0, 1, 0, 1]


def test_base3_expansion():
    p = fraction_digits([Fraction(2, 3)], 3, 3)
    assert p.tolist() == [[2, 0, 0]]


def test_to_fractions_inverts_exact_expansions():
    p = fraction_digits([Fraction(5, 8)], 2, 3)
    assert digits_to_fractions(p, 2) == (Fraction(5, 8),)


def test_point_properties():
    # a point is an (s, P) row of the same dtype a PointSet stores
    p = fraction_digits([0, Fraction(1, 3), "1/2"], 3, 2)
    assert p.shape == (3, 2)
    assert p.dtype == faure_net(3, 1, 2).digits.dtype


def test_coordinate_range_is_validated():
    with pytest.raises(ConfigurationError, match=r"coordinate 3/2 outside \[0,1\)"):
        fraction_digits([Fraction(3, 2)], 2, 2)
    with pytest.raises(ConfigurationError, match=r"coordinate -1/4 outside"):
        fraction_digits([Fraction(-1, 4)], 2, 2)


def test_digit_range_is_validated():
    # a stored row's digits lie below the base, and the base fits one byte
    with pytest.raises(ConfigurationError, match="digit value out of range"):
        PointSet(b=2, m=0, s=1, t=0, digits=np.array([[[0, 2]]], dtype=np.uint8))
    with pytest.raises(ConfigurationError, match="bases up to 256, got 257"):
        fraction_digits([0], 257, 1)
    with pytest.raises(ConfigurationError, match="prime"):
        fraction_digits([0], 4, 1)


def test_empty_point_rejected():
    with pytest.raises(ConfigurationError, match="at least one coordinate"):
        fraction_digits([], 2, 2)
    with pytest.raises(ConfigurationError, match="at least 1 digit"):
        fraction_digits([0], 2, 0)


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


def gamma(x, y):
    """common_digits of two points given as tuples of digit tuples."""
    return common_digits(np.array(x, dtype=np.uint8), np.array(y, dtype=np.uint8))


def test_gamma_counts_common_prefix():
    assert gamma(((1, 0, 1),), ((1, 0, 0),)) == (2,)
    assert gamma(((0, 1),), ((1, 1),)) == (0,)


def test_gamma_needs_matching_precision():
    with pytest.raises(ConfigurationError, match="precision mismatch: 2 vs 3"):
        gamma(((1, 0),), ((1, 0, 0),))


def test_gamma_vector_totals():
    parts = gamma(((0, 0), (1, 1)), ((0, 1), (1, 0)))
    assert parts == (1, 1)
    assert sum(parts) == 2


def test_gamma_vector_sentinel_propagates():
    # agreement through every stored digit reads the precision, in every
    # coordinate that agrees; no sentinel stands in for it
    x = ((0, 0), (1, 1))
    parts = gamma(x, x)
    assert parts == (2, 2)
    assert all(type(c) is int for c in parts)
    assert sum(parts) == 4


def test_gamma_vector_partial_sentinel():
    # one coordinate agreeing throughout reads the precision; the other
    # still counts its common prefix
    parts = gamma(((0, 0), (1, 1)), ((0, 0), (1, 0)))
    assert parts == (2, 1)
    assert sum(parts) == 3


def test_length_vectors_order_and_count():
    # first component outermost: seeded series draw their terms in this order
    assert list(length_vectors(2, 2)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(length_vectors(0, 3)) == [()]
    assert sum(1 for _ in length_vectors(3, 4)) == 35  # C(4 + 3, 3)
    assert list(length_vectors(2, -1)) == []
    assert list(length_vectors(0, -1)) == []
    # 1,000 dimensions take no recursion: the origin, then each unit vector
    # from the last coordinate to the first
    shapes = list(length_vectors(1000, 1))
    assert len(shapes) == 1001 and shapes[1][-1] == 1 and shapes[-1][0] == 1
    with pytest.raises(ConfigurationError, match="dimension must be >= 0"):
        list(length_vectors(-1, 3))


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


def _points(data, b, s, p):
    """Two s-dimensional points of P digits; the second copies a drawn
    prefix of each coordinate of the first, so long common prefixes and
    full agreement are frequent."""
    x, y = [], []
    for _ in range(s):
        xd = [data.draw(st.integers(0, b - 1)) for _ in range(p)]
        keep = data.draw(st.integers(0, p))
        x.append(tuple(xd))
        y.append(tuple(xd[:keep]) + tuple(
            data.draw(st.integers(0, b - 1)) for _ in range(p - keep)))
    return np.array(x, dtype=np.uint8), np.array(y, dtype=np.uint8)


@given(st.data())
def test_gamma_is_symmetric(data):
    b = data.draw(st.sampled_from([2, 3, 5]))
    x, y = _points(data, b, data.draw(st.integers(1, 3)),
                   data.draw(st.integers(1, 8)))
    assert common_digits(x, y) == common_digits(y, x)


@given(st.data())
def test_gamma_matches_prefix_equality(data):
    b = data.draw(st.sampled_from([2, 3]))
    p = data.draw(st.integers(min_value=1, max_value=8))
    x, y = _points(data, b, data.draw(st.integers(1, 3)), p)
    for g, xd, yd in zip(common_digits(x, y), x.tolist(), y.tolist()):
        # g < P: the first g digits agree and digit g + 1 differs;
        # g = P: all P digits agree
        assert 0 <= g <= p
        assert xd[:g] == yd[:g]
        assert g == p or xd[g] != yd[g]


@given(st.data())
def test_gamma_equals_gamma_matrix_of_a_point_set(data):
    b = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, {2: 4, 3: 2, 5: 1}[b]))
    s = data.draw(st.integers(1, 3))
    ps = PointSet(b=b, m=m, s=s, t=m, digits=data.draw(arrays(
        np.uint8, (b ** m, s, data.draw(st.integers(1, 5))),
        elements=st.integers(0, b - 1))))
    i, j = (data.draw(st.integers(0, ps.n - 1)) for _ in range(2))
    assert common_digits(ps.digits[i], ps.digits[j]) == tuple(
        int(gamma_matrix(ps.digits[:, k, :])[i, j]) for k in range(s))


@given(st.data())
def test_gamma_vector_rejects_mismatch(data):
    # rows differing in dimension or precision are refused
    what = data.draw(st.sampled_from(["dimension", "precision"]))
    s = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, 4))
    x = np.zeros((s, p), dtype=np.uint8)
    y = {"dimension": np.zeros((s + 1, p), dtype=np.uint8),
         "precision": np.zeros((s, p + 1), dtype=np.uint8)}[what]
    with pytest.raises(ConfigurationError, match=f"{what} mismatch"):
        common_digits(x, y)
    with pytest.raises(ConfigurationError, match=f"{what} mismatch"):
        common_digits(y, x)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(99, 100)),
       st.integers(min_value=1, max_value=10))
def test_truncation_error_bound(x, p):
    (back,) = digits_to_fractions(fraction_digits([x], 2, p), 2)
    assert 0 <= x - back < Fraction(1, 2 ** p)


@given(st.data())
def test_fraction_digits_reproduces_scrambled_rows(data):
    # every stored row of a scrambled net is the row its exact coordinates
    # expand to
    b = data.draw(st.sampled_from([2, 3, 5, 7]), label="b")
    m = data.draw(st.integers(0, {2: 4, 3: 3, 5: 2, 7: 1}[b]), label="m")
    s = data.draw(st.integers(1, min(b, 3)), label="s")
    p = data.draw(st.integers(max(m, 1), 6), label="P")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    ps = owen_scramble(faure_net(b, m, s, precision=max(m, 1)), seed, precision=p)
    for row in ps.digits:
        again = fraction_digits(digits_to_fractions(row, b), b, p)
        assert again.dtype == row.dtype and np.array_equal(again, row)
