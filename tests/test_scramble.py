"""Digit scrambling: reproducibility, structure preservation, uniformity."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import chi2_sf, scramble_block_reference
from netcov import scramble
from netcov.checks import gamma_preserved
from netcov.counting import common_digits, profile_bruteforce
from netcov.digits import ConfigurationError
from netcov.nets import MAX_POINT_DIGITS, PointSet, faure_net, verify_net
from netcov.scramble import (
    GUARD_DIGITS,
    default_precision,
    owen_scramble,
    replicate_blocks,
)

# family-wise tail of each statistical test below, split Bonferroni-style
# over its chi-square statistics
FAMILY_ALPHA = 1e-6


@pytest.mark.parametrize("scramble_it,key", [
    (lambda ps: owen_scramble(ps, -1), "master seed"),
    (lambda ps: owen_scramble(ps, 2 ** 64), "master seed"),
    (lambda ps: owen_scramble(ps, 0, -1), "replication index"),
    (lambda ps: owen_scramble(ps, 0, 2 ** 64), "replication index"),
    (lambda ps: list(replicate_blocks(ps, -1, 1)), "master seed"),
    (lambda ps: list(replicate_blocks(ps, 2 ** 64, 1)), "master seed"),
], ids=["owen-master-low", "owen-master-high", "owen-replication-low",
        "owen-replication-high", "blocks-master-low", "blocks-master-high"])
def test_seed_validation(scramble_it, key):
    with pytest.raises(ConfigurationError, match=f"^{key} must fit in 64 bits$"):
        scramble_it(faure_net(2, 1, 1))


def test_scramble_is_reproducible():
    ps = faure_net(2, 3, 2)
    a = owen_scramble(ps, 11, 0, precision=6)
    b = owen_scramble(ps, 11, 0, precision=6)
    assert np.array_equal(a.digits, b.digits)


def test_master_seed_changes_output():
    ps = faure_net(2, 3, 2)
    a = owen_scramble(ps, 1, precision=6)
    b = owen_scramble(ps, 2, precision=6)
    assert not np.array_equal(a.digits, b.digits)


def test_replication_index_changes_output():
    ps = faure_net(3, 2, 2)
    a = owen_scramble(ps, 5, 0, precision=4)
    b = owen_scramble(ps, 5, 1, precision=4)
    assert not np.array_equal(a.digits, b.digits)


def test_master_seed_and_replication_index_do_not_commute():
    ps = faure_net(2, 3, 2)
    a = owen_scramble(ps, 5, 7, precision=6)
    b = owen_scramble(ps, 7, 5, precision=6)
    assert not np.array_equal(a.digits, b.digits)


def test_replicate_matches_manual_seeds():
    ps = faure_net(3, 2, 2)
    reps = np.concatenate(list(replicate_blocks(ps, 5, 3, precision=4)))
    for r, digits in enumerate(reps):
        manual = owen_scramble(ps, 5, r, precision=4)
        assert np.array_equal(digits, manual.digits)


def test_replicate_count_validated():
    with pytest.raises(ConfigurationError):
        list(replicate_blocks(faure_net(2, 1, 1), 0, 0))


def test_precision_floor():
    with pytest.raises(ConfigurationError):
        owen_scramble(faure_net(2, 3, 1), 0, precision=2)


def test_default_precision():
    assert default_precision(2, 2) == 2 + GUARD_DIGITS
    # large bases cap the output so prefix codes stay in exact integers
    assert default_precision(53, 2) == int(62 / math.log2(53))


def test_output_shape_and_parameters():
    ps = faure_net(2, 2, 2)
    out = owen_scramble(ps, 9, precision=7)
    assert (out.b, out.m, out.s, out.t) == (2, 2, 2, 0)
    assert out.precision == 7


def test_gamma_profile_is_preserved_pairwise():
    ps = faure_net(2, 3, 2, precision=5)
    gamma_preserved(ps, owen_scramble(ps, 42, precision=5))


def test_gamma_is_preserved_at_the_default_guard_precision():
    ps = faure_net(3, 2, 3)
    out = owen_scramble(ps, 42)
    assert out.precision > ps.precision
    assert gamma_preserved(ps, out) == 9 * 8


def test_identical_coordinates_stay_identical():
    # two points sharing coordinate 0 must still share it after scrambling,
    # through every output digit
    digits = np.array([[[0, 1], [0, 0]],
                       [[0, 1], [1, 0]]], dtype=np.uint8)
    ps = PointSet(b=2, m=1, s=2, t=1, digits=digits)
    out = owen_scramble(ps, 3, precision=5)
    assert np.array_equal(out.digits[0, 0], out.digits[1, 0])
    assert common_digits(out.digits[0], out.digits[1])[0] == 5


def test_pair_profile_is_scramble_invariant():
    ps = faure_net(2, 3, 2, precision=4)
    base_counts = profile_bruteforce(ps).counts
    out = owen_scramble(ps, 8, precision=4)
    assert profile_bruteforce(out).counts == base_counts


@pytest.mark.parametrize("b,m,s", [(2, 3, 2), (3, 2, 3)])
def test_scrambled_net_keeps_equidistribution(b, m, s):
    ps = faure_net(b, m, s)
    for seed in range(5):
        out = owen_scramble(ps, seed, precision=m + 2)
        assert verify_net(out, t=0).passed


def test_guard_digits_are_seed_dependent():
    ps = faure_net(2, 2, 1)
    a = owen_scramble(ps, 1, precision=10)
    b = owen_scramble(ps, 2, precision=10)
    assert not np.array_equal(a.digits[:, :, 2:], b.digits[:, :, 2:])


def test_first_digit_marginal_is_uniform():
    # first output digit of one fixed point across replications; generous
    # chi-square bound (df=2 far tail) keeps the fixed seed deterministic
    b = 3
    ps = faure_net(b, 1, 2)
    reps = 2000
    counts = np.zeros(b, dtype=np.int64)
    for block in replicate_blocks(ps, 99, reps, precision=2):
        counts += np.bincount(block[:, 0, 0, 0], minlength=b)
    expected = reps / b
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.42


def _all_digits(ps, seed, count, precision):
    """(count, n, s, P) output digits of replications 0..count-1."""
    return np.concatenate(list(replicate_blocks(ps, seed, count, precision)))


@pytest.mark.parametrize("b,m,s,count,budget", [
    # a budget of 3 replications of this net per block
    (2, 10, 2, 7, 3 * 1024 * 2 * (default_precision(2, 10) + 1)),
    # the default budget
    (2, 10, 2, 7, scramble.BLOCK_WORDS),
    # blocks of one replication, guard depths drawn a few at a time
    (3, 2, 2, 7, 40),
], ids=["2-10-2-7-three-a-block", "2-10-2-7-default", "3-2-2-7-40"])
def test_blocks_do_not_change_the_stream(monkeypatch, b, m, s, count, budget):
    monkeypatch.setattr(scramble, "BLOCK_WORDS", budget)
    ps = faure_net(b, m, s)
    p_out = default_precision(b, m)
    # the count takes more than one block
    assert budget // (ps.n * s * (p_out + 1)) < count
    reps = _all_digits(ps, 13, count, None)
    for r in range(count):
        assert np.array_equal(
            reps[r], owen_scramble(ps, 13, r).digits)
    assert np.array_equal(reps[:3], _all_digits(ps, 13, 3, None))


@settings(max_examples=60, deadline=None)
@given(b=st.sampled_from([2, 3, 5, 7, 251]), m=st.integers(1, 3), s=st.integers(1, 3),
       stored=st.integers(0, 2), guard=st.integers(-2, 5), count=st.integers(1, 7),
       per_block=st.sampled_from([0.2, 0.5, 1, 2, 3.5]),
       master=st.integers(0, 2 ** 64 - 1))
# P_in < P_out at b = 251, one replication a block
@example(b=251, m=1, s=2, stored=1, guard=3, count=4, per_block=1, master=5)
# P_in = P_out, two replications a block
@example(b=3, m=2, s=2, stored=2, guard=0, count=7, per_block=2, master=6)
# P_in < P_out, the input depths hashed a few at a time
@example(b=2, m=3, s=2, stored=1, guard=4, count=3, per_block=0.2, master=7)
def test_all_depth_hashing_matches_the_per_depth_oracle(b, m, s, stored, guard, count,
                                                         per_block, master):
    assume(s <= b and b ** m <= 343)
    ps = faure_net(b, m, s, precision=m + stored)
    p_out = max(m, m + stored + guard)
    # a budget of per_block replications: under one, a replication's input
    # depths take several passes
    budget = max(1, int(per_block * ps.n * s * (p_out + 1)))
    with mock.patch.object(scramble, "BLOCK_WORDS", budget):
        blocks = list(replicate_blocks(ps, master, count, p_out))
    assert sum(len(block) for block in blocks) == count
    want = scramble_block_reference(ps, master, range(count), p_out)
    assert np.concatenate(blocks).tobytes() == want.tobytes()


def test_a_wide_net_scrambles_within_a_mebibyte():
    # 1,024 points at 41 digits: hashing all 31 guard depths in one pass of
    # about 500 KiB temporaries peaked at 1,753 KiB
    ps = faure_net(2, 10, 2)
    tracemalloc.start()
    try:
        (block,) = replicate_blocks(ps, 11, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (1, 1024, 2, default_precision(2, 10))
    assert peak <= 2 ** 20


def test_a_point_scrambles_the_same_inside_any_point_set():
    net = faure_net(2, 4, 2)
    rows = [3, 7, 8, 12]
    subset = PointSet(b=2, m=2, s=2, t=2, digits=net.digits[rows].copy())
    whole = owen_scramble(net, 21, 4, precision=12).digits
    assert np.array_equal(owen_scramble(subset, 21, 4, precision=12).digits,
                          whole[rows])


def test_scrambles_past_the_digit_cap_are_refused():
    ps = faure_net(2, 4, 2)
    too_deep = MAX_POINT_DIGITS // (ps.n * ps.s) + 1
    with pytest.raises(ConfigurationError, match="digits"):
        owen_scramble(ps, 1, precision=too_deep)
    with pytest.raises(ConfigurationError, match="digits"):
        next(replicate_blocks(ps, 1, 2, precision=too_deep))


# input depths 0..2 (depth 2 is the zero pad of a precision-3 net), guard
# depths 3..5
STAT_PRECISION, STAT_OUT, STAT_R = 3, 6, 3000


@pytest.mark.parametrize("b", [2, 3, 5])
def test_every_output_digit_is_uniform(b):
    ps = faure_net(b, 2, 2, precision=STAT_PRECISION)
    out = _all_digits(ps, 8101, STAT_R, STAT_OUT)
    expected = STAT_R / b
    counts = np.stack([(out == c).sum(axis=0) for c in range(b)])
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=0)
    assert chi2_sf(float(chi2.max()), b - 1) >= FAMILY_ALPHA / chi2.size


@pytest.mark.parametrize("b", [2, 3, 5])
def test_two_points_are_jointly_uniform_from_their_split(b):
    # before the split the digits agree; at the split they are a uniform
    # ordered pair of distinct digits; past it, two independent uniforms
    ps = faure_net(b, 2, 2, precision=STAT_PRECISION)
    out = _all_digits(ps, 8102, STAT_R, STAT_OUT).astype(np.int64)
    first, second = np.triu_indices(ps.n, 1)
    pairs = len(first)
    distinct = np.arange(b * b) % (b + 1) != 0
    tails = []
    for j in range(ps.s):
        differ = ps.digits[first, j] != ps.digits[second, j]
        split = np.where(differ.any(axis=1), differ.argmax(axis=1), STAT_PRECISION)
        for d in range(STAT_OUT):
            x, y = out[:, first, j, d], out[:, second, j, d]
            assert np.array_equal(x[:, split > d], y[:, split > d])
            codes = (x * b + y + b * b * np.arange(pairs)).ravel()
            counts = np.bincount(codes, minlength=pairs * b * b).reshape(pairs, b * b)
            for p in np.flatnonzero(split <= d):
                cells = counts[p][distinct] if split[p] == d else counts[p]
                if split[p] == d:
                    assert counts[p][~distinct].sum() == 0
                expected = STAT_R / len(cells)
                chi2 = float(((cells - expected) ** 2 / expected).sum())
                tails.append(chi2_sf(chi2, len(cells) - 1))
    assert min(tails) >= FAMILY_ALPHA / len(tails)
