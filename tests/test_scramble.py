"""Digit scrambling: reproducibility, structure preservation, uniformity."""

import math

import numpy as np
import pytest

from netcov.checks import gamma_preserved
from netcov.counting import profile_bruteforce
from netcov.digits import AT_LEAST_P, ConfigurationError, gamma_vector
from netcov.nets import PointSet, faure_net, verify_net
from netcov.scramble import (
    GUARD_DIGITS,
    ScrambleSeed,
    default_precision,
    _tree,
    owen_scramble,
    replicate,
)


def test_seed_validation():
    with pytest.raises(ConfigurationError):
        ScrambleSeed(-1)
    with pytest.raises(ConfigurationError):
        ScrambleSeed(2 ** 64)
    with pytest.raises(ConfigurationError):
        ScrambleSeed(0, -1)
    assert len(ScrambleSeed(7, 3).key()) == 16


def test_scramble_is_reproducible():
    ps = faure_net(2, 3, 2)
    a = owen_scramble(ps, ScrambleSeed(11, 0), precision=6)
    b = owen_scramble(ps, ScrambleSeed(11, 0), precision=6)
    assert np.array_equal(a.digits, b.digits)


def test_master_seed_changes_output():
    ps = faure_net(2, 3, 2)
    a = owen_scramble(ps, ScrambleSeed(1), precision=6)
    b = owen_scramble(ps, ScrambleSeed(2), precision=6)
    assert not np.array_equal(a.digits, b.digits)


def test_replication_index_changes_output():
    ps = faure_net(3, 2, 2)
    a = owen_scramble(ps, ScrambleSeed(5, 0), precision=4)
    b = owen_scramble(ps, ScrambleSeed(5, 1), precision=4)
    assert not np.array_equal(a.digits, b.digits)


def test_replicate_matches_manual_seeds():
    ps = faure_net(3, 2, 2)
    for r, rep in enumerate(replicate(ps, 5, 3, precision=4)):
        manual = owen_scramble(ps, ScrambleSeed(5, r), precision=4)
        assert np.array_equal(rep.digits, manual.digits)


def test_replicate_count_validated():
    with pytest.raises(ConfigurationError):
        list(replicate(faure_net(2, 1, 1), 0, 0))


def test_precision_floor():
    with pytest.raises(ConfigurationError):
        owen_scramble(faure_net(2, 3, 1), ScrambleSeed(0), precision=2)


def test_default_precision():
    assert default_precision(2, 2) == 2 + GUARD_DIGITS
    # large bases cap the output so prefix codes stay in exact integers
    assert default_precision(53, 2) == int(62 / math.log2(53))


def test_output_shape_and_parameters():
    ps = faure_net(2, 2, 2)
    out = owen_scramble(ps, ScrambleSeed(9), precision=7)
    assert (out.b, out.m, out.s, out.t) == (2, 2, 2, 0)
    assert out.precision == 7


def test_gamma_profile_is_preserved_pairwise():
    ps = faure_net(2, 3, 2, precision=5)
    gamma_preserved(ps, owen_scramble(ps, ScrambleSeed(42), precision=5))


def test_identical_coordinates_stay_identical():
    # two points sharing coordinate 0 must still share it after scrambling,
    # through every output digit
    digits = np.array([[[0, 1], [0, 0]],
                       [[0, 1], [1, 0]]], dtype=np.uint8)
    ps = PointSet(b=2, m=1, s=2, t=1, digits=digits)
    out = owen_scramble(ps, ScrambleSeed(3), precision=5)
    assert np.array_equal(out.digits[0, 0], out.digits[1, 0])
    parts, _ = gamma_vector(out.point(0), out.point(1))
    assert parts[0] is AT_LEAST_P


def test_pair_profile_is_scramble_invariant():
    ps = faure_net(2, 3, 2, precision=4)
    base_counts = profile_bruteforce(ps).counts
    out = owen_scramble(ps, ScrambleSeed(8), precision=4)
    assert profile_bruteforce(out).counts == base_counts


@pytest.mark.parametrize("b,m,s", [(2, 3, 2), (3, 2, 3)])
def test_scrambled_net_keeps_equidistribution(b, m, s):
    ps = faure_net(b, m, s)
    for seed in range(5):
        out = owen_scramble(ps, ScrambleSeed(seed), precision=m + 2)
        assert verify_net(out, t=0).passed


def test_guard_digits_are_seed_dependent():
    ps = faure_net(2, 2, 1)
    a = owen_scramble(ps, ScrambleSeed(1), precision=10)
    b = owen_scramble(ps, ScrambleSeed(2), precision=10)
    assert not np.array_equal(a.digits[:, :, 2:], b.digits[:, :, 2:])


def test_first_digit_marginal_is_uniform():
    # first output digit of one fixed point across replications; generous
    # chi-square bound (df=2 far tail) keeps the fixed seed deterministic
    b = 3
    ps = faure_net(b, 1, 2)
    reps = 2000
    counts = np.zeros(b, dtype=np.int64)
    for rep in replicate(ps, 99, reps, precision=2):
        counts[rep.digits[0, 0, 0]] += 1
    expected = reps / b
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.42


def test_tree_memo_follows_the_net_it_was_built_for():
    # same shape, different digits: a stale tree would scramble B (or A, on
    # the way back) through the other net's nodes
    net_a = faure_net(3, 2, 2, precision=4)
    net_b = PointSet(b=3, m=2, s=2, t=0, digits=net_a.digits[:, ::-1, :].copy())
    assert not np.array_equal(net_a.digits, net_b.digits)
    seed = ScrambleSeed(31, 2)

    def scrambles(ps):
        return [owen_scramble(ps, seed, 9).digits] + \
            [out.digits for out in replicate(ps, 31, 3, 9)]

    def fresh_scrambles(ps):
        _tree.cache_clear()
        return scrambles(PointSet(b=ps.b, m=ps.m, s=ps.s, t=ps.t,
                                  digits=ps.digits.copy()))

    want = {"a": fresh_scrambles(net_a), "b": fresh_scrambles(net_b)}
    _tree.cache_clear()
    for name, ps in (("a", net_a), ("b", net_b), ("a", net_a)):
        got = scrambles(ps)
        assert all(np.array_equal(g, w) for g, w in zip(got, want[name]))
