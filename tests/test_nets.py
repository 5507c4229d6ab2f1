"""Net construction and the exhaustive equidistribution verifier."""

import io
import math
import re
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import digits_to_fractions, faure_matrices_reference
from netcov import nets
from netcov.digits import ConfigurationError, length_vectors
from netcov.checks import finest_digit_moved
from netcov.counting import pair_profile, profile_bruteforce
from netcov.nets import (
    MAX_PROFILE_WORK,
    MAX_VERIFY_WORK,
    PROFILE_SHAPE_COST,
    PointSet,
    check_net_shape,
    faure_matrices,
    faure_net,
    generate_points,
    index_digit_matrix,
    load_point_set,
    save_point_set,
    verify_net,
)
from netcov.scramble import owen_scramble


def test_first_matrix_is_identity():
    mats = faure_matrices(3, 3, 2)
    assert mats.shape == (2, 3, 3)
    assert np.array_equal(mats[0], np.eye(3, dtype=np.int64))


def test_second_matrix_is_pascal_mod_b():
    mats = faure_matrices(5, 4, 2)
    expected = [[comb(c, r) % 5 for c in range(4)] for r in range(4)]
    assert mats[1].tolist() == expected


def test_pascal_powers_multiply():
    mats = faure_matrices(3, 4, 3)
    assert np.array_equal((mats[1] @ mats[1]) % 3, mats[2])


@pytest.mark.parametrize("b", [p for p in range(2, 62)
                               if all(p % q for q in range(2, p))])
def test_matrices_match_the_closed_form(b):
    for m in range(7):
        for s in sorted({1, 2, b}):
            for precision in (None, m + 3):
                p = max(m, 1) if precision is None else precision
                if b ** m * s * p > nets.MAX_POINT_DIGITS:
                    with pytest.raises(ConfigurationError, match="digits is more than"):
                        faure_matrices(b, m, s, precision)
                    continue
                mats = faure_matrices(b, m, s, precision)
                assert mats.dtype == np.int64
                assert mats.tolist() == faure_matrices_reference(b, m, s, p)


def test_base2_m2_point_values():
    pts = {digits_to_fractions(p, 2) for p in faure_net(2, 2, 2).digits}
    assert pts == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(1, 4)),
    }


def test_one_dimensional_order_is_radical_inverse():
    pts = [digits_to_fractions(p, 2)[0] for p in faure_net(2, 2, 1).digits]
    assert pts == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]


def test_dimension_cap():
    with pytest.raises(ConfigurationError, match="needs s <= b"):
        faure_matrices(3, 2, 4)
    assert faure_matrices(3, 2, 3).shape[0] == 3  # s = b is allowed


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        faure_matrices(2, -1, 1)
    with pytest.raises(ConfigurationError):
        faure_matrices(2, 2, 0)
    with pytest.raises(ConfigurationError):
        faure_matrices(2, 3, 1, precision=2)
    with pytest.raises(ConfigurationError):
        faure_matrices(4, 2, 2)


@pytest.mark.parametrize("b,m,s", [(2, 3, 2), (3, 2, 3), (5, 2, 2),
                                   (7, 1, 3), (2, 5, 1)])
def test_nets_equidistribute(b, m, s):
    report = verify_net(faure_net(b, m, s), t=0)
    assert report.passed, report.failure
    assert report.failure is None


def test_verifier_counts_every_shape():
    report = verify_net(faure_net(2, 2, 2), t=0)
    # shapes with |k| <= 2 in two dimensions
    assert report.shapes_checked == 6
    assert report.intervals_checked == 1 + 2 + 2 + 4 + 4 + 4


def test_verifier_relaxes_with_t():
    report = verify_net(faure_net(2, 3, 2), t=1)
    assert report.passed
    assert report.t == 1


def test_verifier_catches_a_broken_net():
    ps = faure_net(2, 3, 2)
    digits = ps.digits.copy()
    digits[0, 0, 0] ^= 1  # move one point into the wrong half
    broken = PointSet(b=2, m=3, s=2, t=0, digits=digits)
    report = verify_net(broken, t=0)
    assert not report.passed
    assert report.failure is not None
    assert report.failure.expected != report.failure.got
    doc = report.to_dict()
    assert doc["passed"] is False
    assert doc["failure"]["expected"] == report.failure.expected


def test_verifier_names_the_first_shape_past_the_stored_precision():
    # a (0,3,2)-net cut to P = 2: shapes (0, 1) and (0, 2) pass, so shape
    # (0, 3) is the first that needs a third digit
    digits = np.array(faure_net(2, 3, 2).digits[:, :, :2])
    with pytest.raises(ConfigurationError) as exc:
        verify_net(PointSet(b=2, m=3, s=2, t=0, digits=digits), t=0)
    assert str(exc.value) == "shape (0, 3) needs more digits than the stored precision 2"


def test_verifier_refuses_t_outside_0_to_m():
    for t in (-1, 3):
        with pytest.raises(ConfigurationError, match="must lie in 0..m=2"):
            verify_net(faure_net(2, 2, 2), t=t)


def test_verifier_passes_a_large_faure_net():
    # 7^6 points in 7 dimensions: 1,716 shapes, none refused for work.  The
    # 4.7 MiB digit columns and one 0.9 MiB batch for each of 6 pending
    # levels peak near 12 MiB; all 924 finest shapes at once took 5.67 GiB
    ps = faure_net(7, 6, 7)
    tracemalloc.start()
    try:
        report = verify_net(ps, t=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.shapes_checked == 1716
    assert peak < 16 * 2 ** 20


def test_verify_work_cap_admits_every_net_gen_writes():
    # the costliest net in a base the text format holds is (47,3,47);
    # check_net_shape refuses the rest, a composite base among them
    costs = []
    for b, m, s in ((b, m, s) for b in range(2, 63) for m in range(25)
                    for s in range(1, b + 1)):
        try:
            check_net_shape(b, m, s)
        except ConfigurationError:
            continue
        costs.append((comb(s + m, s) * (b ** m + PROFILE_SHAPE_COST), (b, m, s)))
    assert max(costs) == (2_055_001_200, (47, 3, 47))
    assert max(costs)[0] <= MAX_VERIFY_WORK


def _verify_bruteforce(ps, t):
    """verify_net's report dict, counting every interval of every shape by
    np.unique over the points' digit prefixes; None where a shape needs
    more digits than stored."""
    intervals = shapes = 0
    for k in length_vectors(ps.s, ps.m - t):
        if max(k, default=0) > ps.precision:
            return None
        shapes += 1
        intervals += ps.b ** sum(k)
        expected = ps.b ** (ps.m - sum(k))
        prefixes = np.concatenate([ps.digits[:, j, :kj] for j, kj in enumerate(k)],
                                  axis=1)
        rows, counts = np.unique(prefixes, axis=0, return_counts=True)
        count = {int("".join(str(d) for d in row) or "0", ps.b): int(c)
                 for row, c in zip(rows, counts)}
        for cell in range(ps.b ** sum(k)):
            if count.get(cell, 0) != expected:
                return {"passed": False, "t": t, "intervals_checked": intervals,
                        "shapes_checked": shapes,
                        "failure": {"k": list(k), "interval": cell,
                                    "expected": expected,
                                    "got": count.get(cell, 0)}}
    return {"passed": True, "t": t, "intervals_checked": intervals,
            "shapes_checked": shapes}


KINDS = ["faure", "scrambled", "random", "perturbed", "duplicated"]


def _point_set(kind, b, m, s, p, rng):
    """A set of b^m points: a Faure net at P = p digits, one scrambled to p
    digits past max(m, 1), uniform random digits, or a Faure net with one
    digit changed or one point copied over another."""
    if kind == "random":
        return PointSet(b=b, m=m, s=s, t=0,
                        digits=rng.integers(0, b, (b ** m, s, p), dtype=np.uint8))
    s = min(s, b)
    if kind == "scrambled":
        return owen_scramble(faure_net(b, m, s), int(rng.integers(2 ** 32)),
                             precision=max(m, 1) + p)
    digits = np.array(faure_net(b, m, s, precision=max(m, p)).digits[:, :, :p])
    rows = rng.integers(0, b ** m, size=2)
    if kind == "perturbed":
        digits[rows[0], rng.integers(0, s), rng.integers(0, p)] = rng.integers(0, b)
    elif kind == "duplicated":
        digits[rows[0]] = digits[rows[1]]
    return PointSet(b=b, m=m, s=s, t=0, digits=digits)


@given(st.sampled_from([(2, 4), (3, 3), (5, 2)]), st.integers(1, 3),
       st.integers(0, 2),
       st.sampled_from(["random", "perturbed", "duplicated", "finest"]),
       st.integers(0))
def test_verifier_matches_a_bruteforce_count(bm, s, extra, kind, seed):
    (b, m_max), rng = bm, np.random.default_rng(seed)
    m = int(rng.integers(0, m_max + 1))
    p = int(rng.integers(1, m + extra + 2))
    ps = base = _point_set("faure" if kind == "finest" else kind, b, m, s, p, rng)
    for t in range(m + 1):
        if kind == "finest" and 0 < m - t <= p:
            # one digit at depth m - t changed: only the finest shapes at
            # t can see it; P < m - t leaves the net as it is
            digits = np.array(base.digits)
            j = rng.integers(0, base.s)
            digits[-1, j, m - t - 1] = (digits[-1, j, m - t - 1] + rng.integers(1, b)) % b
            ps = PointSet(b=b, m=m, s=base.s, t=0, digits=digits)
        want = _verify_bruteforce(ps, t)
        if want is None:
            with pytest.raises(ConfigurationError, match="stored precision"):
                verify_net(ps, t)
        else:
            assert verify_net(ps, t).to_dict() == want


@given(st.sampled_from([(2, 4), (3, 3), (5, 2), (7, 2)]), st.integers(1, 4),
       st.integers(0, 2), st.sampled_from(KINDS), st.integers(0))
def test_finest_check_and_dominated_counts_match_their_oracles(bm, s, extra, kind,
                                                               seed):
    # balanced finest shapes make a (t,m,s)-net, whatever the batch size, and
    # dominated_counts takes the closed form there and the walk elsewhere
    (b, m_max), rng = bm, np.random.default_rng(seed)
    m = int(rng.integers(0, m_max + 1))
    ps = _point_set(kind, b, m, s, int(rng.integers(1, m + extra + 2)), rng)
    for total in range(min(m, ps.precision) + 1):
        want = _verify_bruteforce(ps, m - total)["passed"]
        for words in (1, 2 * ps.n * total, nets.CELL_WORDS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(nets, "CELL_WORDS", words)
                assert nets.finest_shapes_balanced(ps, total) == want
    assert nets.dominated_counts(ps) == nets._prefix_cell_walk(ps)


def _cell_codes(ps, k):
    """Each point's interval number in shape k: the first k_j digits of each
    coordinate in turn, read as one base-b number."""
    code = np.zeros(ps.n, dtype=np.int64)
    for j, kj in enumerate(k):
        for d in range(kj):
            code = code * ps.b + ps.digits[:, j, d]
    return code


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from(["faure", "scrambled", "duplicated", "random"]), st.integers(0))
def test_cell_walk_visits_length_vectors_in_order(b, s, extra, kind, seed):
    # verify_net names the first bad interval and the first shape past the
    # precision by this order; a shape below one without a repeated cell is
    # left out
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, {2: 4, 3: 3, 5: 2}[b] + 1))
    ps = _point_set(kind, b, m, s, int(rng.integers(1, m + extra + 2)), rng)
    deepest = ps.s * ps.precision

    def descended(k):
        return max(np.bincount(_cell_codes(ps, k))) > 1

    def ancestors(k):
        while any(k):
            last = max(j for j, kj in enumerate(k) if kj)
            k = k[:last] + (k[last] - 1,) + k[last + 1:]
            yield k

    for depth in (int(rng.integers(0, deepest + 1)), math.inf):
        walked = list(nets._cell_walk(ps, depth))
        want = [k for k in length_vectors(ps.s, min(depth, deepest))
                if max(k) <= ps.precision and all(map(descended, ancestors(k)))]
        assert [k for k, _ in walked] == want
        for k, counts in walked:
            cells = np.bincount(_cell_codes(ps, k))
            if b ** sum(k) <= ps.n:  # interval numbers
                assert counts.tolist() == cells.tolist()
            else:
                assert sorted(counts[counts > 0]) == sorted(cells[cells > 0])


def test_profile_of_a_net_needs_only_its_finest_shapes(monkeypatch):
    # a scrambled (3,3,3)-net: its finest check counts C(5, 2) = 10 shapes
    # and its walk C(6, 3) - 1 = 19, so at a cap of 10 shapes the walk is
    # refused but the profile is not
    ps = owen_scramble(faure_net(3, 3, 3), 1)
    monkeypatch.setattr(nets, "MAX_PROFILE_WORK", 10 * (27 + PROFILE_SHAPE_COST))
    assert pair_profile(ps).counts == profile_bruteforce(ps).counts
    with pytest.raises(ConfigurationError, match="more than"):
        nets._prefix_cell_walk(ps)
    with pytest.raises(ConfigurationError, match="more than"):
        pair_profile(finest_digit_moved(ps))


def test_profile_work_cap_admits_18_more_nets_net_gen_writes():
    # nets whose walk passes MAX_PROFILE_WORK but whose finest check fits
    admitted = []
    for b, m, s in ((b, m, s) for b in range(2, 63) for m in range(1, 25)
                    for s in range(1, b + 1)):
        try:
            check_net_shape(b, m, s)
        except ConfigurationError:
            continue
        n = b ** m + PROFILE_SHAPE_COST
        if comb(m + s - 1, s - 1) * n <= MAX_PROFILE_WORK < (comb(m + s, s) - 1) * n:
            admitted.append((b, m, s))
    assert len(admitted) == 18 and (7, 6, 6) in admitted


def test_report_to_dict_on_pass():
    doc = verify_net(faure_net(2, 2, 1), t=0).to_dict()
    assert doc["passed"] is True
    assert "failure" not in doc


def test_point_count_enforced():
    with pytest.raises(ConfigurationError):
        PointSet(b=2, m=2, s=1, t=0, digits=np.zeros((3, 1, 2), dtype=np.uint8))


def test_point_dimension_enforced():
    with pytest.raises(ConfigurationError,
                       match="digit array dimension does not match s"):
        PointSet(b=2, m=1, s=2, t=0, digits=np.zeros((2, 1, 1), dtype=np.uint8))


def test_digit_value_range_enforced():
    with pytest.raises(ConfigurationError):
        PointSet(b=2, m=1, s=1, t=0, digits=np.full((2, 1, 1), 5, dtype=np.uint8))


def test_digits_are_frozen():
    ps = faure_net(2, 2, 1)
    with pytest.raises(ValueError):
        ps.digits[0, 0, 0] = 1


def test_point_accessors():
    ps = faure_net(3, 1, 2)
    assert ps.n == 3
    assert ps.precision == 1
    # point i is the (s, P) digit row digits[i]
    third = ps.digits[2]
    assert third.shape == (ps.s, ps.precision)
    assert digits_to_fractions(third, ps.b) == (Fraction(2, 3), Fraction(2, 3))


def test_save_load_roundtrip():
    ps = faure_net(3, 2, 2, precision=4)
    buf = io.StringIO()
    save_point_set(ps, buf)
    back = load_point_set(io.StringIO(buf.getvalue()))
    assert (back.b, back.m, back.s, back.t) == (ps.b, ps.m, ps.s, ps.t)
    assert np.array_equal(back.digits, ps.digits)


def test_save_format_header():
    buf = io.StringIO()
    save_point_set(faure_net(2, 1, 2), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "2 1 2 0 1"
    assert len(lines) == 3


def test_load_rejects_bad_header():
    with pytest.raises(ConfigurationError):
        load_point_set(io.StringIO("2 1 2 0\n"))


def test_point_set_refuses_bases_past_uint8_digits():
    # digit 256 would wrap to 0 in the uint8 array
    with pytest.raises(ConfigurationError):
        faure_net(257, 1, 1)


def test_text_format_refuses_bases_past_its_digit_characters():
    with pytest.raises(ConfigurationError):
        save_point_set(faure_net(67, 1, 1), io.StringIO())
    with pytest.raises(ConfigurationError):
        load_point_set(io.StringIO("67 0 1 0 1\n0\n"))


def test_extended_precision_pads_with_zeros():
    ps = faure_net(2, 2, 2, precision=5)
    assert ps.precision == 5
    assert int(ps.digits[:, :, 2:].max()) == 0


def test_generated_digits_match_matrix_arithmetic():
    b, m = 3, 2
    mats = faure_matrices(b, m, 2)
    ps = generate_points(b, m, mats)
    dmat = index_digit_matrix(b, m)
    for i in (0, 4, 8):
        for j in range(2):
            manual = (mats[j] @ dmat[:, i]) % b
            assert list(ps.digits[i, j]) == [int(v) for v in manual]


@pytest.mark.parametrize("text,line", [
    ("2 1 2 0 1\n0 1\n\n1\n", "line 4: expected 2 coordinates, got 1"),
    ("2 1 1 0 2\n00\n1\n", "line 3: expected 2 digits per coordinate, got 1"),
    ("2 1 1 0 1\n0\n2\n", "line 3: invalid digit character '2'"),
    ("2 1 1 0 1\n?\n1\n", "line 2: invalid digit character '?'"),
    ("2 1 2 0 1\n0\n1\n", "line 2: expected 2 coordinates, got 1"),
    ("2 x 1 0 1\n0\n1\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("2 1 1 0 -1\n0\n1\n", "line 1: need s >= 1 and P >= 1"),
    ("2 1 1 -5 1\n0\n1\n", "line 1: quality parameter t=-5"),
    ("2 99999999 1 0 1\n0\n1\n", "line 1: point count 2 is not b^m"),
    ("2 1 1 0 1\n\n", "line 1: no point lines follow the header"),
    # a bad character wins over a shape error on a later line
    ("2 1 1 0 1\n2\n1 1\n", "line 2: invalid digit character '2'"),
    ("2 1 1 0 1\n0\né\n", "line 3: invalid digit character 'é' for base 2"),
    ("3 1 2 0 2\n00 01\n12 1x\n20 22\n", "line 3: invalid digit character 'x'"),
    # CRLF line ends and tabs are whitespace like any other: the file loads
    ("2 1 2 0 1\r\n0\t1\r\n1 \t0\r\n", None),
    # so are the characters str.split splits at and a file's lines do not
    # end at
    ("2 1 2 0 1\n0\x0b1\n1\x1c0\n", None),
    ("2 1 2 0 1\n0\xa01\n1 0\n", None),
    ("2 1 2 0 1\n0 1\n1 0", None),
    # two points' width of characters, but one line
    ("2 1 1 0 1\n0 1\n", "line 2: expected 1 coordinates, got 2"),
    # at LOAD_BLOCK = 2 the bad line is in the second chunk
    ("2 2 1 0 1\n0\n1\n0\n2\n", "line 5: invalid digit character '2'"),
    # a P past any read size is named, not read
    ("2 1 1 0 " + "9" * 30 + "\n0\n", f"line 2: expected {'9' * 30} digits"),
])
def test_load_errors_name_the_line(text, line, monkeypatch):
    # a file reads the same in one chunk as in chunks of 2 lines
    for block in (nets.LOAD_BLOCK, 2):
        monkeypatch.setattr(nets, "LOAD_BLOCK", block)
        if line is None:
            ps = load_point_set(io.StringIO(text))
            assert ps.digits.tolist() == [[[0], [1]], [[1], [0]]]
            continue
        with pytest.raises(ConfigurationError, match=re.escape(line)):
            load_point_set(io.StringIO(text))


@pytest.mark.parametrize("block", [nets.LOAD_BLOCK, 3])
def test_saved_files_load_as_whole_chunks(tmp_path, monkeypatch, block):
    # the scrambled (2,10,2) net at 41 digits never reaches the line reader
    ps = owen_scramble(faure_net(2, 10, 2), 9973)
    path = tmp_path / "net.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_point_set(ps, fh)

    def refuse(*args):
        raise AssertionError("a saved file was read line by line")
    monkeypatch.setattr(nets, "_decode_lines", refuse)
    monkeypatch.setattr(nets, "LOAD_BLOCK", block)
    with open(path, encoding="utf-8") as fh:
        back = load_point_set(fh)
    assert ps.precision == 41
    assert np.array_equal(back.digits, ps.digits)


def test_loading_keeps_no_string_per_coordinate(tmp_path):
    # the 0.47 MiB file `net gen --base 2 --m 14 --s 2` writes: one string per
    # coordinate peaked at 4.2 MiB of Python heap, one per line at 1.9 MiB,
    # one per line of a 2^11-line block at 0.87 MiB, a 2^11-line chunk
    # decoded as one array at 0.73 MiB (0.44 MiB of digits)
    path = tmp_path / "net.txt"
    with open(path, "w", encoding="utf-8") as fh:
        save_point_set(faure_net(2, 14, 2), fh)
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            ps = load_point_set(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.digits.shape == (2 ** 14, 2, 14)
    assert peak < 0.8 * 2 ** 20


VALID = "2 2 2 0 2\n00 00\n10 11\n01 10\n11 01\n"


@given(st.text(max_size=40) | st.builds(  # or a valid file with a span replaced
    lambda i, j, new: VALID[:i] + new + VALID[j:], st.integers(0, 12),
    st.integers(0, len(VALID)), st.text("0123 -\nx", max_size=3)))
def test_any_short_text_loads_or_is_a_configuration_error(text):
    try:
        load_point_set(io.StringIO(text))
    except ConfigurationError:
        pass


@given(st.sampled_from([2, 3, 5]), st.integers(0, 2), st.integers(1, 3),
       st.integers(1, 4), st.integers(0, 2), st.integers(0))
def test_save_then_load_round_trips(b, m, s, p, t, seed):
    digits = np.random.default_rng(seed).integers(0, b, (b ** m, s, p), dtype=np.uint8)
    buf = io.StringIO()
    save_point_set(PointSet(b=b, m=m, s=s, t=min(t, m), digits=digits), buf)
    back = load_point_set(io.StringIO(buf.getvalue()))
    assert (back.b, back.m, back.s, back.t) == (b, m, s, min(t, m))
    assert np.array_equal(back.digits, digits)


# a saved file with one span replaced, as (b, m, s, P, seed, i, j, new)
MUTATED = st.tuples(
    st.sampled_from([(2, 0), (2, 3), (3, 2), (5, 1), (37, 1)]), st.integers(1, 3),
    st.integers(1, 4), st.integers(0), st.integers(0, 400), st.integers(0, 400),
    st.text("019azA \n\t\r\x0b\xa0éx", max_size=4))


@given(MUTATED)
def test_chunks_read_as_their_lines_read(case):
    # a trailing space on every line sends each chunk to the line reader
    (b, m), s, p, seed, i, j, new = case
    digits = np.random.default_rng(seed).integers(0, b, (b ** m, s, p), dtype=np.uint8)
    buf = io.StringIO()
    save_point_set(PointSet(b=b, m=m, s=s, t=0, digits=digits), buf)
    text = buf.getvalue()
    text = text[:i] + new + text[max(i, j):]
    spaced = text.replace("\n", " \n")

    def load(text):
        try:
            return load_point_set(io.StringIO(text)).digits.tolist()
        except ConfigurationError as exc:
            return str(exc)
    for block in (1, 2, 2 ** 11):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nets, "LOAD_BLOCK", block)
            assert load(text) == load(spaced)


def test_generated_digits_do_not_depend_on_the_block_size(monkeypatch):
    whole = faure_net(3, 4, 3, precision=6).digits
    monkeypatch.setattr(nets, "GENERATE_BLOCK", 7)
    assert np.array_equal(faure_net(3, 4, 3, precision=6).digits, whole)
