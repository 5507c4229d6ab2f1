"""Pair-coincidence counting for digital point sets.

For an ordered pair of distinct points, the per-coordinate count of leading
common digits locates the pair in a disjoint family of product regions.  The
number of pairs per region is what the joint pair density is made of, and for
t = 0 nets those counts collapse to closed forms in the scalar digit total.

The pair profile is counted on prefix cells: the pairs whose common-digit
vector dominates k are the pairs sharing an elementary cell of shape k, and
exact counts follow by differencing over k.  The O(n^2) pairwise comparison
stays as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .digits import (
    ConfigurationError,
    PrecisionError,
    length_vectors,
    validate_base,
    volume_prefix_eq,
)
from .nets import PointSet, dominated_counts


@dataclass(frozen=True)
class PairProfile:
    """Counts of ordered distinct pairs by per-coordinate common-digit vector.

    Components of a key are capped at the stored precision: a component equal
    to the precision means every stored digit of that coordinate agrees, so
    the true count is only known to be at least that large.
    """

    b: int
    m: int
    s: int
    precision: int
    counts: Mapping[tuple[int, ...], int]

    @property
    def n(self) -> int:
        return self.b ** self.m

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1)

    @property
    def saturated_pairs(self) -> int:
        """Pairs with some coordinate agreeing through all stored digits."""
        return sum(
            cnt for vec, cnt in self.counts.items()
            if any(v >= self.precision for v in vec)
        )

    def exact_count(self, i: Sequence[int]) -> int:
        """Pairs whose common-digit vector equals i exactly."""
        i = tuple(i)
        if len(i) != self.s:
            raise ConfigurationError(f"vector {i} has wrong dimension")
        if any(c < 0 for c in i):
            return 0
        if any(c >= self.precision for c in i):
            raise PrecisionError(
                f"components of {i} reach the stored precision {self.precision}; "
                "exact equality there is not observable"
            )
        return self.counts.get(i, 0)

    def to_dict(self) -> dict:
        return {
            "b": self.b, "m": self.m, "s": self.s,
            "precision": self.precision,
            "total_pairs": self.total_pairs,
            "saturated_pairs": self.saturated_pairs,
            "counts": {
                ",".join(str(v) for v in vec): cnt
                for vec, cnt in sorted(self.counts.items())
            },
        }


def gamma_matrix(digits_j: np.ndarray) -> np.ndarray:
    """Leading-common-digit counts between all rows of one coordinate."""
    n, p = digits_j.shape
    gam = np.zeros((n, n), dtype=np.int64)
    alive = np.ones((n, n), dtype=bool)
    for d in range(p):
        col = digits_j[:, d]
        alive &= col[:, None] == col[None, :]
        gam += alive
    return gam


def common_digits(x: np.ndarray, y: np.ndarray) -> tuple[int, ...]:
    """Common-digit vector of two (s, P) digit rows, read off gamma_matrix:
    per coordinate, the count of leading digits x and y share, where the
    stored precision P means every stored digit agrees."""
    for what, u, v in zip(("dimension", "precision"), x.shape, y.shape):
        if u != v:
            raise ConfigurationError(f"{what} mismatch: {u} vs {v}")
    digits = np.stack([x, y])
    return tuple(int(gamma_matrix(digits[:, j])[0, 1]) for j in range(len(x)))


# n(n-1)s cap for profile_bruteforce, which peaks near 25 bytes per pair cell
MAX_PAIR_CELLS = 2 ** 22


def profile_bruteforce(ps: PointSet) -> PairProfile:
    """Exhaustive profile over all ordered distinct pairs of a point set:
    the O(n^2) oracle that pair_profile is checked against.

    A component equal to the stored precision records a pair whose coordinate
    agrees through every stored digit (the observable cap).  Point sets
    past MAX_PAIR_CELLS are refused before any allocation.
    """
    cells = ps.n * (ps.n - 1) * ps.s
    if cells > MAX_PAIR_CELLS:
        raise ConfigurationError(
            f"profile of {ps.n} points in {ps.s} dimensions needs {cells} "
            f"pair cells, more than {MAX_PAIR_CELLS}")
    mats = [gamma_matrix(ps.digits[:, j, :]) for j in range(ps.s)]
    off_diag = ~np.eye(ps.n, dtype=bool)
    vecs = np.stack([g[off_diag] for g in mats], axis=1)
    uniq, cnt = np.unique(vecs, axis=0, return_counts=True)
    counts = {tuple(int(v) for v in row): int(c) for row, c in zip(uniq, cnt)}
    return PairProfile(b=ps.b, m=ps.m, s=ps.s, precision=ps.precision,
                       counts=counts)


def pair_profile(ps: PointSet) -> PairProfile:
    """Profile of all ordered distinct pairs of a point set, by prefix cells.

    N = D_1 ... D_s M, where D_j f(k) = f(k) - f(k + e_j): one pass per
    coordinate over the sparse M, dropping zeros.  No shape passes the stored
    precision, so a component at it keeps f(k), the count of pairs agreeing
    through every stored digit.  Equal to profile_bruteforce."""
    counts = dominated_counts(ps)
    for j in range(ps.s):
        step = {}
        for k, c in counts.items():
            c -= counts.get(k[:j] + (k[j] + 1,) + k[j + 1:], 0)
            if c:
                step[k] = c
        counts = step
    return PairProfile(b=ps.b, m=ps.m, s=ps.s, precision=ps.precision,
                       counts=counts)


def M_closed_form(b: int, m: int, k: Sequence[int]) -> int:
    """Ordered distinct pairs of a t = 0 net whose common-digit vector
    dominates k componentwise.  Negative components are clamped to 0."""
    validate_base(b)
    total = sum(max(c, 0) for c in k)
    if total > m:
        return 0
    return b ** m * (b ** (m - total) - 1)


def N_closed_form(b: int, m: int, s: int, i: Sequence[int]) -> int:
    """Ordered distinct pairs of a t = 0 net whose common-digit vector equals
    i exactly.  Zero if any component is negative; otherwise a function of
    the component sum alone."""
    validate_base(b)
    i = tuple(i)
    if len(i) != s:
        raise ConfigurationError(f"vector {i} has wrong dimension")
    if any(c < 0 for c in i):
        return 0
    q = sum(i)
    total = 0
    for k in range(s + 1):
        term = comb(s, k) * max(b ** (m - q - k), 1)
        total += -term if k % 2 else term
    return b ** m * total


def _pair_density(b: int, m: int, i: Sequence[int], count: int) -> Fraction:
    """Density of the scrambled pair distribution on the region where the
    common-digit vector equals i, which holds count of the n(n - 1) ordered
    distinct pairs: their share over the region's volume."""
    n = b ** m
    if n < 2:
        raise ConfigurationError("pair density needs at least two points")
    if count == 0:
        return Fraction(0)
    return Fraction(count, n * (n - 1)) / volume_prefix_eq(b, i)


def joint_pdf_closed_form(b: int, m: int, s: int, i: Sequence[int]) -> Fraction:
    """Density of the pair distribution of a scrambled t = 0 net on the
    region where the common-digit vector equals i.  Piecewise constant; zero
    once the component sum reaches m."""
    return _pair_density(b, m, i, N_closed_form(b, m, s, i))


def joint_pdf(profile: PairProfile, x: np.ndarray, y: np.ndarray) -> Fraction:
    """Density of the scrambled pair distribution at the digit rows (x, y),
    read off the measured profile: count of the pair's region, normalized by
    pair count and region volume.  Zero when some coordinate agrees through
    all stored digits (the two-distinct-points density vanishes there in the
    limit)."""
    if len(x) != profile.s:
        raise ConfigurationError(f"dimension mismatch: {len(x)} vs {profile.s}")
    parts = common_digits(x, y)
    top = int(max(x.max(initial=0), y.max(initial=0)))
    if top >= profile.b:
        raise ConfigurationError(f"digit {top} out of range for base {profile.b}")
    count = 0 if x.shape[1] in parts else profile.exact_count(parts)
    return _pair_density(profile.b, profile.m, parts, count)


def pdf_normalization(b: int, m: int, s: int) -> Fraction:
    """Exact integral of the closed-form pair density over the two cubes.

    The density is constant on each common-digit region and nonzero only
    below component sum m, so the integral is a finite sum of region volume
    times density; a correct density makes it 1.
    """
    validate_base(b)
    if m < 1:
        raise ConfigurationError("need m >= 1")
    return sum((joint_pdf_closed_form(b, m, s, i) * volume_prefix_eq(b, i)
                for i in length_vectors(s, m - 1)), Fraction(0))
