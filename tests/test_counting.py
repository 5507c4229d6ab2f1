"""Pair profiles against the closed-form counting functions."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netcov.checks import profile_matches_closed_forms
from netcov.counting import (
    M_closed_form,
    N_closed_form,
    common_digits,
    joint_pdf,
    joint_pdf_closed_form,
    pair_profile,
    pdf_normalization,
    profile_bruteforce,
)
from netcov.digits import ConfigurationError, PrecisionError, fraction_digits
from netcov.nets import PointSet, faure_net
from netcov.scramble import ScrambleSeed, owen_scramble


def test_profile_of_the_smallest_net():
    profile = profile_bruteforce(faure_net(2, 2, 2))
    assert profile.counts == {(0, 0): 4, (1, 0): 4, (0, 1): 4}
    assert profile.total_pairs == 12
    assert profile.saturated_pairs == 0


def test_profile_counts_total_pairs():
    for b, m, s in [(2, 3, 2), (3, 2, 3), (5, 1, 2)]:
        profile = profile_bruteforce(faure_net(b, m, s, precision=m + 1))
        assert sum(profile.counts.values()) == profile.total_pairs


@pytest.mark.parametrize("b,m,s", [(2, 3, 2), (3, 2, 2), (5, 1, 2), (2, 2, 1)])
def test_closed_forms_on_scrambled_nets(b, m, s):
    profile_matches_closed_forms(owen_scramble(
        faure_net(b, m, s, precision=m + 2), ScrambleSeed(31), precision=m + 2))


def test_dominated_count_sums_exact_counts():
    for b, m, s in [(2, 3, 2), (3, 2, 3)]:
        for k in product(range(m + 1), repeat=s):
            box = product(*[range(kj, m + 1) for kj in k])
            total = sum(N_closed_form(b, m, s, i) for i in box)
            assert total == M_closed_form(b, m, k)


def test_exact_counts_exhaust_all_pairs():
    for b, m, s in [(2, 4, 2), (3, 2, 3), (7, 1, 2)]:
        n = b ** m
        total = sum(N_closed_form(b, m, s, i)
                    for i in product(range(m + 1), repeat=s))
        assert total == n * (n - 1)


def test_m_closed_form_clamps_negative_components():
    assert M_closed_form(2, 3, (-1, 0)) == M_closed_form(2, 3, (0, 0))
    assert M_closed_form(2, 3, (0, 0)) == 8 * 7
    assert M_closed_form(2, 3, (2, 2)) == 0
    assert M_closed_form(3, 2, (1, 1)) == 9 * 0


def test_n_closed_form_edge_cases():
    assert N_closed_form(2, 3, 2, (-1, 0)) == 0
    # value depends on the component sum only
    assert N_closed_form(2, 3, 2, (2, 0)) == N_closed_form(2, 3, 2, (1, 1))
    assert N_closed_form(2, 3, 2, (0, 2)) == N_closed_form(2, 3, 2, (2, 0))
    with pytest.raises(ConfigurationError):
        N_closed_form(2, 3, 2, (0, 0, 0))
    with pytest.raises(ConfigurationError):
        N_closed_form(6, 3, 2, (0, 0))


def test_joint_pdf_closed_form_values():
    assert joint_pdf_closed_form(2, 2, 2, (0, 0)) == Fraction(4, 3)
    assert joint_pdf_closed_form(2, 2, 2, (1, 0)) == Fraction(8, 3)
    assert joint_pdf_closed_form(2, 2, 2, (2, 0)) == 0
    assert joint_pdf_closed_form(2, 2, 2, (1, 1)) == 0
    with pytest.raises(ConfigurationError):
        joint_pdf_closed_form(2, 0, 1, (0,))


def test_profile_exact_count_bounds():
    profile = profile_bruteforce(faure_net(2, 2, 2))
    assert profile.exact_count((-1, 0)) == 0
    with pytest.raises(PrecisionError):
        profile.exact_count((2, 0))
    with pytest.raises(ConfigurationError):
        profile.exact_count((0,))


def test_saturated_pairs_on_a_degenerate_set():
    # two points sharing coordinate 0 through every stored digit
    digits = np.array([[[0, 1], [0, 0]],
                       [[0, 1], [1, 0]]], dtype=np.uint8)
    ps = PointSet(b=2, m=1, s=2, t=1, digits=digits)
    profile = profile_bruteforce(ps)
    assert profile.counts == {(2, 0): 2}
    assert profile.saturated_pairs == 2
    with pytest.raises(PrecisionError):
        profile.exact_count((2, 0))


def test_joint_pdf_from_measured_profile():
    b, m, s = 2, 3, 2
    ps = faure_net(b, m, s, precision=5)
    profile = profile_bruteforce(ps)
    pts = ps.digits
    for i in range(ps.n):
        for j in range(ps.n):
            if i == j:
                continue
            parts = common_digits(pts[i], pts[j])
            want = joint_pdf_closed_form(b, m, s, parts)
            assert joint_pdf(profile, pts[i], pts[j]) == want


def test_joint_pdf_vanishes_on_the_diagonal():
    ps = faure_net(2, 2, 2)
    profile = profile_bruteforce(ps)
    p = ps.digits[1]
    assert joint_pdf(profile, p, p) == 0


def test_joint_pdf_zero_outside_observed_regions():
    profile = profile_bruteforce(faure_net(2, 2, 2))
    x = fraction_digits([Fraction(0), Fraction(0)], 2, 2)
    y = fraction_digits([Fraction(1, 4), Fraction(1, 4)], 2, 2)
    # gamma = (1, 1) never occurs in this net
    assert joint_pdf(profile, x, y) == 0


def test_joint_pdf_reads_saturation_at_the_points_precision():
    # a 5-digit profile, 2-digit points: the first coordinates agree through
    # both of their digits, so the density is 0, although the profile holds
    # pairs with common-digit vector (2, 0)
    profile = profile_bruteforce(faure_net(2, 3, 2, precision=5))
    assert profile.exact_count((2, 0)) > 0
    x = fraction_digits([Fraction(0), Fraction(0)], 2, 2)
    y = fraction_digits([Fraction(0), Fraction(1, 2)], 2, 2)
    assert common_digits(x, y) == (2, 0)
    assert joint_pdf(profile, x, y) == 0


def test_bruteforce_profile_refuses_past_the_pair_cell_cap():
    with pytest.raises(ConfigurationError,
                       match="needs 8384512 pair cells, more than 4194304"):
        profile_bruteforce(faure_net(2, 11, 2))


def test_joint_pdf_validates_inputs():
    profile = profile_bruteforce(faure_net(2, 2, 2))
    # a digit at or past the profile's base, in either point
    x = fraction_digits([Fraction(0), Fraction(0)], 2, 2)
    y = fraction_digits([Fraction(0), Fraction(2, 3)], 3, 2)
    for u, v in ((x, y), (y, x)):
        with pytest.raises(ConfigurationError, match="digit 2 out of range for base 2"):
            joint_pdf(profile, u, v)
    x1 = fraction_digits([Fraction(0)], 2, 2)
    with pytest.raises(ConfigurationError, match="dimension mismatch: 1 vs 2"):
        joint_pdf(profile, x1, x1)
    with pytest.raises(ConfigurationError, match="dimension mismatch: 2 vs 1"):
        joint_pdf(profile, x, x1)


def test_profile_to_dict_format():
    doc = profile_bruteforce(faure_net(2, 2, 2)).to_dict()
    assert doc["counts"] == {"0,0": 4, "0,1": 4, "1,0": 4}
    assert doc["total_pairs"] == 12
    assert doc["precision"] == 2


@pytest.mark.parametrize("b", [2, 3, 5])
def test_pdf_normalization_is_one(b):
    for m in range(1, 4):
        for s in range(1, 4):
            assert pdf_normalization(b, m, s) == 1


def test_pdf_normalization_scales_to_larger_parameters():
    assert pdf_normalization(2, 6, 4) == 1
    assert pdf_normalization(3, 5, 5) == 1


def test_pdf_normalization_validates():
    with pytest.raises(ConfigurationError):
        pdf_normalization(2, 0, 1)
    with pytest.raises(ConfigurationError):
        pdf_normalization(9, 2, 1)


@given(st.data())
def test_prefix_cells_equal_the_pairwise_oracle(data):
    b = data.draw(st.sampled_from([2, 3, 5]), label="b")
    m = data.draw(st.integers(0, {2: 5, 3: 3, 5: 2}[b]), label="m")
    s = data.draw(st.integers(1, 3), label="s")
    p = data.draw(st.integers(1, 5), label="P")
    n = b ** m
    digits = data.draw(arrays(np.uint8, (n, s, p),
                              elements=st.integers(0, b - 1)), label="digits")
    # forced duplicates: row dst becomes a copy of row src
    for src, dst in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n),
            label="copies"):
        digits[dst] = digits[src]
    ps = PointSet(b=b, m=m, s=s, t=m, digits=digits)
    assert pair_profile(ps).counts == profile_bruteforce(ps).counts
