"""Digital (0,m,s)-net construction in prime bases and exhaustive
equidistribution checking.

The generator is the classical power-of-Pascal construction: coordinate j
uses the (j-1)-th power of the upper-triangular Pascal matrix modulo b,
which yields a (0,m,s)-net whenever s <= b.  The verifier is
construction-agnostic: it counts the points of every finest cell shape,
so externally supplied point sets can be checked as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digits import (
    ConfigurationError, length_vectors, validate_base, validate_digit_base)


# Most digits n * s * P (one byte each) a generated or scrambled point set
# holds; at the cap `net gen` took 5 s and 210 MiB on a 2-core Xeon VM
MAX_POINT_DIGITS = 2 ** 24


class UnsupportedConstructionError(ConfigurationError):
    """The requested parameters fall outside what this generator covers."""


def check_point_digits(b: int, m: int, s: int, precision: int) -> None:
    """Refuse, before allocating, b^m points of s coordinates and P digits
    past MAX_POINT_DIGITS; b^m >= 2^m, so a huge m never computes b^m."""
    if m >= MAX_POINT_DIGITS.bit_length() or b ** m * s * precision > MAX_POINT_DIGITS:
        raise ConfigurationError(f"{b}^{m} points x {s} coordinates x {precision} "
                                 f"digits is more than {MAX_POINT_DIGITS} digits")


@dataclass(frozen=True)
class GeneratingMatrices:
    """s generating matrices of shape (precision, m) over the field Z_b."""

    b: int
    m: int
    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        validate_base(self.b)
        for mat in self.mats:
            if mat.shape[1] != self.m:
                raise ConfigurationError("matrix column count must equal m")
            mat.flags.writeable = False

    @property
    def s(self) -> int:
        return len(self.mats)

    @property
    def precision(self) -> int:
        return self.mats[0].shape[0]


@dataclass(frozen=True, eq=False)
class PointSet:
    """n = b^m points as an (n, s, precision) array of exact digits, so
    digits[i] is point i's (s, P) digit row.

    Compared and hashed by identity: the digit array makes field-wise
    equality unusable."""

    b: int
    m: int
    s: int
    t: int
    digits: np.ndarray

    def __post_init__(self):
        validate_digit_base(self.b)
        n, s, _ = self.digits.shape
        if s != self.s:
            raise ConfigurationError("digit array dimension does not match s")
        # b^m > n once m passes n's bit length: a huge m is refused before
        # b^m is computed
        if not 0 <= self.m <= n.bit_length() or n != self.b ** self.m:
            raise ConfigurationError(
                f"point count {n} is not b^m = {self.b}^{self.m}")
        if not 0 <= self.t <= self.m:
            raise ConfigurationError(
                f"quality parameter t={self.t} must lie in 0..m={self.m}")
        if self.digits.size and int(self.digits.max()) >= self.b:
            raise ConfigurationError("digit value out of range for base")
        self.digits.flags.writeable = False

    @property
    def n(self) -> int:
        return self.digits.shape[0]

    @property
    def precision(self) -> int:
        return self.digits.shape[2]


def pascal_matrix_power(b: int, m: int, power: int) -> np.ndarray:
    """The power-th power, mod b, of the m x m upper-triangular matrix with
    entries binom(col, row)."""
    pascal = np.zeros((m, m), dtype=np.int64)
    for r in range(m):
        for c in range(r, m):
            pascal[r, c] = math.comb(c, r) % b
    out = np.eye(m, dtype=np.int64)
    for _ in range(power):
        out = (out @ pascal) % b
    return out


def check_net_shape(b: int, m: int, s: int, precision: int | None = None) -> int:
    """Refuse, by arithmetic alone, a (0,m,s)-net in base b with P digits that
    faure_matrices cannot build; return P.  The precision defaults to m
    digits, and to 1 for the one-point net m = 0, as a point file needs
    P >= 1."""
    validate_base(b)
    if m < 0:
        raise ConfigurationError(f"m must be >= 0, got {m}")
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    if s > b:
        raise UnsupportedConstructionError(
            f"this construction needs s <= b, got s={s} > b={b}"
        )
    p = max(m, 1) if precision is None else precision
    if p < m:
        raise ConfigurationError(f"precision {p} smaller than m={m}")
    check_point_digits(b, m, s, p)
    return p


def faure_matrices(b: int, m: int, s: int, precision: int | None = None) -> GeneratingMatrices:
    """Generating matrices for a (0,m,s)-net in prime base b, s <= b, at the
    precision check_net_shape settles.

    Matrix j is the (j-1)-th Pascal power; rows beyond m (when a larger
    precision is requested) are zero, matching the canonical finite digit
    expansion of the generated points.
    """
    p = check_net_shape(b, m, s, precision)
    mats = []
    for j in range(s):
        top = pascal_matrix_power(b, m, j)
        mat = np.zeros((p, m), dtype=np.int64)
        mat[:m, :] = top
        mats.append(mat)
    return GeneratingMatrices(b, m, tuple(mats))


def index_digit_matrix(b: int, m: int, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
    """Base-b digits (least significant first) of the indices start..stop-1
    (default 0..b^m-1), shape (m, stop - start)."""
    idx = np.arange(start, b ** m if stop is None else stop, dtype=np.int64)
    return idx // b ** np.arange(m, dtype=np.int64)[:, None] % b


# Points per block of generate_points: its int64 index digits and products
# stay near 8 (m + P) bytes a point of the block
GENERATE_BLOCK = 2 ** 15


def generate_points(g: GeneratingMatrices) -> PointSet:
    """All b^m points of the digital net defined by the matrices.

    Point i has coordinate-j digits M_j . digits(i) mod b, with digits(i)
    the least-significant-first expansion of the index.
    """
    b, m = g.b, g.m
    check_point_digits(b, m, g.s, g.precision)
    n = b ** m
    out = np.empty((n, g.s, g.precision), dtype=np.uint8)
    for start in range(0, n, GENERATE_BLOCK):
        stop = min(start + GENERATE_BLOCK, n)
        dmat = index_digit_matrix(b, m, start, stop)
        for j, mat in enumerate(g.mats):
            out[start:stop, j, :] = ((mat @ dmat) % b).T
    return PointSet(b=b, m=m, s=g.s, t=0, digits=out)


def faure_net(b: int, m: int, s: int, precision: int | None = None) -> PointSet:
    """Convenience: generate the (0,m,s)-net straight from parameters."""
    return generate_points(faure_matrices(b, m, s, precision))


@dataclass(frozen=True)
class IntervalFailure:
    k: tuple[int, ...]
    interval: int
    expected: int
    got: int


@dataclass(frozen=True)
class NetReport:
    passed: bool
    t: int
    intervals_checked: int
    shapes_checked: int
    failure: IntervalFailure | None

    def to_dict(self) -> dict:
        d = {
            "passed": self.passed,
            "t": self.t,
            "intervals_checked": self.intervals_checked,
            "shapes_checked": self.shapes_checked,
        }
        if self.failure is not None:
            d["failure"] = {
                "k": list(self.failure.k),
                "interval": self.failure.interval,
                "expected": self.failure.expected,
                "got": self.failure.got,
            }
        return d


# Work cap of the dominated_counts walk, in points refined: a shape costs its
# n points plus PROFILE_SHAPE_COST for numpy's per-call cost (15 ns a point,
# 18 us a shape on a 2-core Xeon: identical points stop in 0.5-1 s)
MAX_PROFILE_WORK = 2 ** 26
PROFILE_SHAPE_COST = 1024
# Work cap of verify_net, in the same units: C(s + m - t, s) shapes of
# n + PROFILE_SHAPE_COST each.  Every net `net gen` writes fits; the largest,
# (47,3,47), costs 2.06e9 and verifies in 10 s on a 2-core Xeon
MAX_VERIFY_WORK = 2 ** 31
# int64 cell codes all pending batches of finest_shapes_balanced hold
# together: each of the up to m - t levels keeps one batch of its nodes
CELL_WORDS = 2 ** 18


def _canonical_children(nodes: list, s: int, total: int) -> tuple[list, list, list]:
    """The children of a batch of canonical-tree nodes, in order: each
    child's parent row, the row of its new digit in the (s * total, n)
    digit columns, and its own node.  A node is (first, depth): the
    coordinate its shape last grew and that coordinate's digit count, so a
    child grows coordinate first one digit deeper, or a later coordinate
    from depth 0."""
    parents, columns, kids = [], [], []
    for row, (first, depth) in enumerate(nodes):
        parents.append(row)
        columns.append(first * total + depth)
        kids.append((first, depth + 1))
        for j in range(first + 1, s):
            parents.append(row)
            columns.append(j * total)
            kids.append((j, 1))
    return parents, columns, kids


def finest_shapes_balanced(ps: PointSet, total: int) -> bool:
    """Whether every elementary cell of every shape k with |k| = total
    (at most the stored precision) holds n / b^total points, which makes a
    (m - total, m, s)-net: every coarser cell is a union of these.

    A cell's raw prefix code reads the shape's digits as one base-b number,
    a child's code being its parent's times b plus the new digit, so codes
    stay below b^total <= n and no cell is re-ranked.  Codes are refined
    along the canonical tree (k grows only at or past its last nonzero
    coordinate) a level at a time, in batches within CELL_WORDS, and one
    bincount per batch runs only at the finest level."""
    n, s, _ = ps.digits.shape
    b = ps.b
    if total == 0:
        return True
    columns = np.ascontiguousarray(
        ps.digits[:, :, :total].transpose(1, 2, 0)).reshape(s * total, n)
    rows = max(1, CELL_WORDS // (n * total))
    cells, expected = b ** total, n // b ** total
    # a batch: its level, its parents' codes times b, and its children
    stack = [(1, np.zeros((1, n), dtype=np.int64),
              *_canonical_children([(0, 0)], s, total))]
    while stack:
        level, scaled, parents, cols, nodes = stack.pop()
        if len(parents) > rows:
            stack.append((level, scaled, parents[rows:], cols[rows:], nodes[rows:]))
            parents, cols, nodes = parents[:rows], cols[:rows], nodes[:rows]
        # a single parent row broadcasts, sparing a copy per child
        code = (scaled if len(scaled) == 1 else scaled[parents]) + columns[cols]
        if level < total:
            code *= b
            stack.append((level + 1, code, *_canonical_children(nodes, s, total)))
            continue
        # each shape's cells count apart; the batch holds len(code) * n
        # points in as many times b^total cells, so a maximum of expected
        # means every cell holds expected
        if len(code) > 1:  # one shape needs no offset, sparing a pass at large n
            code += np.arange(0, len(code) * cells, cells)[:, None]
        if np.bincount(code.ravel()).max() != expected:
            return False
    return True


def _cell_walk(ps: PointSet, depth: float = math.inf, budget: float = math.inf):
    """(k, cell counts) for every shape k with |k| <= depth and no k_j past
    P, in length_vectors order (the canonical tree's preorder, children
    taken from the last coordinate down), descending only below a shape with
    a cell of two or more points.  A cell's code is its parent's times b
    plus the new digit: the interval number while b^|k| <= n, and past that
    the codes are ranked densely before a descent, staying below n * b.  A
    child's work is charged when its parent is visited, and a walk past
    budget is refused at the child that passes it."""
    n, s, p = ps.digits.shape
    columns = np.ascontiguousarray(ps.digits[:, :, :min(depth, p)].transpose(1, 2, 0))
    stack = [((0,) * s, None, 0)]
    work = repeated = 0
    while stack:
        k, parent, first = stack.pop()
        code = (np.zeros(n, dtype=np.int64) if parent is None
                else parent * ps.b + columns[first, k[first] - 1])
        counts = np.bincount(code)
        yield k, counts
        total = sum(k)
        if total == depth or counts.max() < 2:
            continue
        repeated += 1
        if ps.b ** total > n:
            code = (np.cumsum(counts > 0) - 1)[code]
        for j in range(first, s):
            if k[j] == p:
                continue
            work += n + PROFILE_SHAPE_COST
            if work > budget:
                # the shapes with a repeated cell charged so far: those
                # visited, and those waiting, counted here
                waiting = sum(int(np.bincount(c * ps.b + columns[i, kk[i] - 1]).max()) > 1
                              for kk, c, i in stack)
                raise ConfigurationError(
                    f"profile of {n} points in {s} dimensions needs more than "
                    f"{budget} units of work ({repeated + waiting} shapes counted so far)")
            stack.append((k[:j] + (k[j] + 1,) + k[j + 1:], code, j))


def _prefix_cell_walk(ps: PointSet) -> dict[tuple[int, ...], int]:
    """M(k) for every shape k where it is positive, summed over the cells of
    every shape the walk visits; refused past MAX_PROFILE_WORK."""
    n = ps.n
    return {k: pairs for k, counts in _cell_walk(ps, budget=MAX_PROFILE_WORK)
            if (pairs := int(counts @ counts) - n)}


def dominated_counts(ps: PointSet) -> dict[tuple[int, ...], int]:
    """M(k) for every shape k where it is positive: the ordered distinct
    pairs sharing an elementary cell of shape k, sum c(c - 1) over its
    cells.

    When every cell of total m holds one point (the set is a (0,m,s)-net),
    M(k) = n (b^(m - |k|) - 1) for |k| < m and 0 beyond; that is settled by
    finest_shapes_balanced when m <= P, n >= 2 and its C(m + s - 1, s - 1)
    shapes fit MAX_PROFILE_WORK.  Any other set takes the prefix-cell walk
    verify_net's failure path takes, its codes interval numbers while
    b^|k| <= n and dense ranks past that, refused past MAX_PROFILE_WORK."""
    n, s, p = ps.digits.shape
    b, m = ps.b, ps.m
    if (n >= 2 and m <= p
            and math.comb(m + s - 1, s - 1) * (n + PROFILE_SHAPE_COST) <= MAX_PROFILE_WORK
            and finest_shapes_balanced(ps, m)):
        return {k: n * (b ** (m - sum(k)) - 1) for k in length_vectors(s, m - 1)}
    return _prefix_cell_walk(ps)


def verify_net(ps: PointSet, t: int) -> NetReport:
    """Exhaustively check the (t,m,s) equidistribution property.

    For every shape k with |k| <= m - t, every elementary interval
    prod [a_j b^(-k_j), (a_j+1) b^(-k_j)) must hold exactly b^(m-|k|)
    points.  Every such interval is a union of intervals of total m - t, so
    when m - t <= P the set passes exactly when finest_shapes_balanced does,
    and the counts of shapes and intervals follow by arithmetic.  Otherwise
    the prefix-cell walk dominated_counts shares counts each shape in
    length_vectors order, its codes the interval numbers as b^|k| <= n, and
    names the first bad interval.  A check past MAX_VERIFY_WORK is refused
    before it starts.
    """
    b, m, s = ps.b, ps.m, ps.s
    if not 0 <= t <= m:
        raise ConfigurationError(f"quality parameter t={t} must lie in 0..m={m}")
    walk = math.comb(s + m - t, s)
    if walk * (ps.n + PROFILE_SHAPE_COST) > MAX_VERIFY_WORK:
        raise ConfigurationError(
            f"verifying {walk} shapes of {ps.n} points needs more than "
            f"{MAX_VERIFY_WORK} units of work")
    if m - t <= ps.precision and finest_shapes_balanced(ps, m - t):
        # C(L + s - 1, s - 1) shapes of b^L intervals at each total L
        intervals = sum(math.comb(total + s - 1, s - 1) * b ** total
                        for total in range(m - t + 1))
        return NetReport(True, t, intervals, walk, None)
    intervals = 0
    for shapes, (k, counts) in enumerate(_cell_walk(ps, m - t), 1):
        total = sum(k)
        intervals += b ** total
        expected = b ** (m - total)
        # empty cells past the last occupied one leave an earlier cell too full
        bad = np.flatnonzero(counts != expected)
        if bad.size:
            cell = int(bad[0])
            return NetReport(False, t, intervals, shapes,
                             IntervalFailure(k, cell, expected, int(counts[cell])))
        if k[-1] == ps.precision < m - t:
            # the walk's first shapes are (0, ..., 0, j)
            raise ConfigurationError(f"shape {k[:-1] + (k[-1] + 1,)} needs more digits "
                                     f"than the stored precision {ps.precision}")
    return NetReport(True, t, intervals, shapes, None)


# Digit characters of the text format, one per digit value 0..61, so the
# format holds every prime base up to 61
DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CHAR_CODES = np.frombuffer(DIGIT_CHARS.encode("ascii"), dtype=np.uint8)


def _check_text_base(b: int) -> None:
    if b > len(DIGIT_CHARS):
        raise ConfigurationError(
            f"the text format holds bases up to {len(DIGIT_CHARS)}, got {b}")
    validate_base(b)


def save_point_set(ps: PointSet, fh) -> None:
    """Text format: header line ``b m s t P`` then one point per line,
    coordinates as base-b digit strings separated by spaces.  Refuses what
    load_point_set refuses, P = 0, before anything is written."""
    _check_text_base(ps.b)
    n, s, p = ps.digits.shape
    if p < 1:
        raise ConfigurationError(f"need P >= 1 to write a point file, got P={p}")
    # each coordinate's digit characters, then its separator
    body = np.empty((n, s, p + 1), dtype=np.uint8)
    body[:, :, :p] = _CHAR_CODES[ps.digits]
    body[:, :, p] = ord(" ")
    body[:, -1, p] = ord("\n")
    fh.write(f"{ps.b} {ps.m} {s} {ps.t} {p}\n")
    fh.write(body.tobytes().decode("ascii"))


# Point lines load_point_set reads as one chunk of the layout save_point_set
# writes: its heap holds the digit array and one chunk, never a string per
# line of the file
LOAD_BLOCK = 2 ** 11
# Most characters one chunk is read as, whatever s and P the header claims
MAX_LOAD_CHUNK = 2 ** 22


def _decode_block(chunk: str, s: int, p: int, table: bytes, b: int) -> bytes | None:
    """The digit values, one byte each, of lines in exactly the layout
    save_point_set writes, decoded as one array; None for any other text."""
    width = s * (p + 1)
    if not chunk.isascii() or len(chunk) % width:
        return None
    text = chunk.encode("ascii")
    cells = np.frombuffer(text, dtype=np.uint8).reshape(-1, s, p + 1)
    digits = np.frombuffer(text.translate(table), dtype=np.uint8).reshape(cells.shape)[:, :, :p]
    if ((cells[:, :-1, p] == ord(" ")).all() and (cells[:, -1, p] == ord("\n")).all()
            and digits.max() < b):
        return digits.tobytes()
    return None


def _decode_lines(chunk: str, lineno: int, s: int, p: int, table: bytes, b: int) -> bytes:
    """The digit values, one byte each, of the point lines of chunk, its
    first line numbered lineno, read line by line: any whitespace separates
    coordinates and blank lines are skipped.  A malformed line is named by
    its number; the shape of each line is checked as it is read, and the
    characters of the lines before a shape error are decoded before it is
    raised, so it stands only if none of them holds a bad character."""
    rows, linenos, shape_error = [], [], None
    # lines end at "\n" alone, as file iteration ends them
    for lineno, line in enumerate(chunk.removesuffix("\n").split("\n"), start=lineno):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != s:
            shape_error = f"line {lineno}: expected {s} coordinates, got {len(parts)}"
            break
        width = next((len(part) for part in parts if len(part) != p), p)
        if width != p:
            shape_error = f"line {lineno}: expected {p} digits per coordinate, got {width}"
            break
        rows.append("".join(parts))
        linenos.append(lineno)
    text = "".join(rows)
    # "replace" encodes each character as one byte, a non-ASCII one as "?",
    # so byte i is character i of the text
    digits = text.encode("ascii", "replace").translate(table)
    bad = digits.find(255)
    if bad >= 0:
        raise ConfigurationError(f"line {linenos[bad // (s * p)]}: invalid "
                                 f"digit character {text[bad]!r} for base {b}")
    if shape_error:
        raise ConfigurationError(shape_error)
    return digits


def load_point_set(fh) -> PointSet:
    """Read the text format of ``save_point_set``; a malformed line is named
    by its 1-based line number, the first such line winning.  The header is
    line 1, which also takes the blame when its m or t does not fit the
    points below it."""
    header = fh.readline().split()
    try:
        if len(header) != 5:
            raise ConfigurationError("expected header line 'b m s t P'")
        b, m, s, t, p = (int(x) for x in header)
        _check_text_base(b)
        if s < 1 or p < 1:
            raise ConfigurationError(f"need s >= 1 and P >= 1, got s={s}, P={p}")
    except ValueError as exc:  # ConfigurationError is a ValueError too
        raise ConfigurationError(f"line 1: {exc}") from None
    table = np.full(256, 255, dtype=np.uint8)  # 255: not a digit of base b
    table[_CHAR_CODES[:b]] = np.arange(b)
    table = table.tobytes()
    # a chunk of whole lines is decoded as one array when it is in the saved
    # layout, else line by line; every chunk before it decoded cleanly
    digits, lineno = bytearray(), 2
    while chunk := fh.read(min(LOAD_BLOCK * s * (p + 1), MAX_LOAD_CHUNK)):
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        block = _decode_block(chunk, s, p, table, b)
        digits += _decode_lines(chunk, lineno, s, p, table, b) if block is None else block
        lineno += chunk.count("\n")
    if not digits:
        raise ConfigurationError("line 1: no point lines follow the header")
    digits = np.frombuffer(digits, dtype=np.uint8).reshape(-1, s, p)
    try:
        return PointSet(b=b, m=m, s=s, t=t, digits=digits)
    except ConfigurationError as exc:
        raise ConfigurationError(f"line 1: {exc}") from None
