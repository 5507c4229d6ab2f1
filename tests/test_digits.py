"""Digit representation, common-prefix counting, and region volumes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from netcov.counting import common_digits, gamma_matrix
from netcov.digits import (
    ConfigurationError,
    DigitPoint,
    length_vectors,
    validate_base,
    volume_prefix_eq,
    volume_prefix_ge,
)
from netcov.nets import PointSet


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


def gamma(x, y):
    """common_digits of two base-2 points given as tuples of digit tuples."""
    return common_digits(DigitPoint(2, x), DigitPoint(2, y))


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
    return DigitPoint(b, tuple(x)), DigitPoint(b, tuple(y))


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
    for g, xd, yd in zip(common_digits(x, y), x.coords, y.coords):
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
    assert common_digits(ps.point(i), ps.point(j)) == tuple(
        int(gamma_matrix(ps.digits[:, k, :])[i, j]) for k in range(s))


@given(st.data())
def test_gamma_vector_rejects_mismatch(data):
    # points differing in base, dimension or precision are refused
    what = data.draw(st.sampled_from(["base", "dimension", "precision"]))
    s = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, 4))
    x = DigitPoint(2, ((0,) * p,) * s)
    y = {"base": DigitPoint(3, ((0,) * p,) * s),
         "dimension": DigitPoint(2, ((0,) * p,) * (s + 1)),
         "precision": DigitPoint(2, ((0,) * (p + 1),) * s)}[what]
    with pytest.raises(ConfigurationError, match=f"{what} mismatch"):
        common_digits(x, y)
    with pytest.raises(ConfigurationError, match=f"{what} mismatch"):
        common_digits(y, x)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(99, 100)),
       st.integers(min_value=1, max_value=10))
def test_truncation_error_bound(x, p):
    pt = DigitPoint.from_fractions([x], base=2, precision=p)
    (back,) = pt.to_fractions()
    assert 0 <= x - back < Fraction(1, 2 ** p)
