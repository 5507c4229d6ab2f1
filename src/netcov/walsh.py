"""Base-b Walsh functions with exact exponent arithmetic, index bookkeeping,
and finite Walsh-series test functions.

Walsh values are carried as exponents in Z_b and turned into complex numbers
only at summation boundaries, so products and conjugations are free of
round-off.  Functions enter the system as finite coefficient maps; every
variance and covariance statement downstream lives in coefficient space.

Indices are int tuples l in N^s.  The shell of l is its vector k of
per-coordinate base-b digit lengths (the digit length of 0 is 0), and L_k
holds every index of shell k.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .digits import (
    ConfigurationError,
    PrecisionError,
    json_field,
    json_index,
    json_integer,
    json_list,
    json_number,
    json_object,
    length_vectors,
    validate_base,
    validate_digit_base,
)

# Indices per shell kept when spreading a shell weight over a large shell.
SHELL_SUPPORT_CAP = 256
# Most terms a random decay function may span; the counting stops past it.
MAX_TERMS = 2 ** 16
# Most entries (coordinates x b^digits cells x terms) of an evaluation plan's
# exponent tables; past it the exponents come from the digit product.
MAX_EXPONENT_TABLE = 2 ** 16


@dataclass(frozen=True)
class Coefficient:
    """One Walsh coefficient, kept exact as (re + i*im) * sqrt(root).

    The squared magnitude (re^2 + im^2) * root is an exact rational for any
    root >= 0, which is what every shell-weight computation consumes.
    """

    re: Fraction
    im: Fraction
    root: Fraction = Fraction(1)

    def __post_init__(self):
        # the numerator's sign, for int, Fraction and float roots alike; a
        # Fraction comparison costs five times as much
        if self.root.as_integer_ratio()[0] < 0:
            raise ConfigurationError("coefficient root factor must be >= 0")

    def weight_parts(self) -> tuple[int, int]:
        """|coefficient|^2 as an unreduced (numerator, denominator) pair of
        integers."""
        (rn, rd), (i_n, i_d) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
        root_n, root_d = self.root.as_integer_ratio()
        return (rn * rn * i_d * i_d + i_n * i_n * rd * rd) * root_n, (rd * i_d) ** 2 * root_d

    @property
    def weight(self) -> Fraction:
        """|coefficient|^2, exact: one Fraction from the integer parts."""
        return Fraction(*self.weight_parts())

    def to_complex(self) -> complex:
        """(re + i*im) * sqrt(root) in floats; each n / d of integer parts
        rounds once, as float() of a Fraction does."""
        (rn, rd), (i_n, i_d) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
        root_n, root_d = self.root.as_integer_ratio()
        scale = math.sqrt(root_n / root_d)
        return complex(rn / rd * scale, i_n / i_d * scale)


def digit_length(b: int, l: int) -> int:
    """Number of base-b digits of l, with digit_length(0) = 0."""
    if l < 0:
        raise ConfigurationError(f"index component must be >= 0, got {l}")
    n = 0
    while l > 0:
        l //= b
        n += 1
    return n


def index_digits(b: int, l: int, length: int | None = None) -> tuple[int, ...]:
    """Base-b digits of l, least significant first."""
    k = digit_length(b, l)
    length = k if length is None else length
    if length < k:
        raise ConfigurationError(f"{l} does not fit in {length} base-{b} digits")
    return tuple(l // b ** i % b for i in range(length))


def shell_of(b: int, l: Sequence[int]) -> tuple[int, ...]:
    """The shell of an index: the base-b digit length of each component."""
    return tuple(digit_length(b, lj) for lj in l)


def wal_exponent(b: int, l: int, digits: Sequence[int]) -> int:
    """Exponent e in Z_b with wal_l(x) = omega_b^e for x given by its digits.

    e = lambda_0 xi_1 + lambda_1 xi_2 + ... mod b, where lambda are the
    digits of l (least significant first) and xi the digits of x, each
    taken as an int: a product of uint8 digits would wrap.
    """
    need = digit_length(b, l)
    if len(digits) < need:
        raise PrecisionError(
            f"index {l} needs {need} digits, point has only {len(digits)}"
        )
    return sum(lam * int(xi) for lam, xi in zip(index_digits(b, l), digits)) % b


def wal_exponent_vector(b: int, l: Sequence[int], x: np.ndarray) -> int:
    """The exponent of wal_l at the (s, P) digit row x."""
    if len(x) != len(l):
        raise ConfigurationError(f"dimension mismatch: {len(x)} vs {len(l)}")
    return sum(wal_exponent(b, lj, cj) for lj, cj in zip(l, x)) % b


def root_of_unity(b: int, e: int) -> complex:
    if b == 2:
        return 1.0 + 0j if e % 2 == 0 else -1.0 + 0j
    return cmath.exp(2j * cmath.pi * (e % b) / b)


def wal_eval(b: int, l: Sequence[int], x: np.ndarray) -> complex:
    """wal_l at the (s, P) digit row x, a complex number on the unit circle."""
    return root_of_unity(b, wal_exponent_vector(b, l, x))


def index_add(b: int, k: int, l: int) -> int:
    """Digitwise sum mod b of two indices (the group operation under which
    wal_k * wal_l = wal_{k (+) l})."""
    length = max(digit_length(b, k), digit_length(b, l))
    return sum((k // b ** p + l // b ** p) % b * b ** p for p in range(length))


def shell_size(b: int, k_vec: Sequence[int]) -> int:
    return math.prod(1 if kj == 0 else (b - 1) * b ** (kj - 1) for kj in k_vec)


def _digit_ranges(b: int, k_vec: Sequence[int]) -> list[range]:
    """The values of each index component in the shell k_vec."""
    return [range(b ** (kj - 1), b ** kj) if kj else range(1) for kj in k_vec]


def enumerate_L_k(b: int, k_vec: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All indices whose per-coordinate digit lengths equal k_vec."""
    validate_base(b)
    if any(kj < 0 for kj in k_vec):
        raise ConfigurationError(f"length components must be >= 0, got {tuple(k_vec)}")
    return tuple(product(*_digit_ranges(b, k_vec)))


def fraction_sum(parts: Sequence[tuple[int, int]]) -> Fraction:
    """The sum of (numerator, denominator > 0) integer pairs as one Fraction,
    over their least common denominator: one gcd in all."""
    den = math.lcm(*(d for _, d in parts))
    return Fraction(sum(num * (den // d) for num, d in parts), den)


@dataclass(frozen=True)
class WalshPolynomial:
    """A finitely supported Walsh coefficient map on [0,1)^s.

    ``terms`` is stored read-only, so the evaluation plan built from it on
    first use stays valid."""

    b: int
    s: int
    terms: Mapping[tuple[int, ...], Coefficient] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        validate_base(self.b)
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        for l in self.terms:
            if len(l) != self.s:
                raise ConfigurationError(f"index {l} has wrong dimension")
            if min(l, default=0) < 0:
                raise ConfigurationError(f"index {l} has negative components")

    def coefficient(self, l: Sequence[int]) -> Coefficient:
        return self.terms.get(tuple(l), Coefficient(Fraction(0), Fraction(0)))

    def constant_coefficient(self) -> Coefficient:
        return self.coefficient((0,) * self.s)

    def shells(self) -> Mapping[tuple[int, ...], Fraction]:
        """Total squared coefficient mass per digit-length shell, read-only:
        summed once, for variance_mc and the analytic covariance alike."""
        return self._shells

    @functools.cached_property
    def _shells(self) -> Mapping[tuple[int, ...], Fraction]:
        parts: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for l, coef in self.terms.items():
            parts.setdefault(shell_of(self.b, l), []).append(coef.weight_parts())
        return MappingProxyType({k: fraction_sum(p) for k, p in parts.items()})

    @functools.cached_property
    def _values(self) -> Mapping[tuple[int, ...], complex]:
        """Each term's coefficient as to_complex gives it."""
        return {l: coef.to_complex() for l, coef in self.terms.items()}

    @classmethod
    def _with_sums(cls, b: int, s: int, terms, metadata,
                   shells: dict, values: dict) -> "WalshPolynomial":
        """A map whose builder already holds what _shells and _values would
        compute: the shell totals in first-term order and every term's
        to_complex value."""
        f = cls(b=b, s=s, terms=terms, metadata=metadata)
        f.__dict__["_shells"] = MappingProxyType(shells)
        f.__dict__["_values"] = values
        return f

    def variance_mc(self, n: int) -> Fraction:
        """Single-replication Monte-Carlo variance of the sample mean of n
        i.i.d. uniform evaluations: the weight off the zero shell, which
        holds only the constant index."""
        return fraction_sum([(w.numerator, w.denominator * n)
                             for k, w in self.shells().items() if any(k)])

    def max_digit_length(self) -> int:
        """Digits of precision needed to evaluate this function: the longest
        coordinate of any shell."""
        return max((kj for k in self.shells() for kj in k), default=0)

    @functools.cached_property
    def _plan(self):
        """(exponent tables or None, index digit matrix of shape
        (s * need, terms), coefficient values, root table), terms in sorted
        order, need = max_digit_length().

        The exponent tables, of shape (s, b^need, terms), hold each
        coordinate's partial exponents mod b indexed by the value of its
        first need digits, so a point's exponents are s table rows added,
        at most s(b-1).  They are None when empty or past
        MAX_EXPONENT_TABLE entries; the exponents then come from the digit
        product, taken mod b.  The root table holds omega_b^e for
        e = 0..s(b-1) and serves both.  A base past MAX_DIGIT_BASE, which
        no digit row holds, is refused before the root table's b entries
        are built."""
        validate_digit_base(self.b)
        b, s, need = self.b, self.s, self.max_digit_length()
        ls = sorted(self.terms)
        # object dtype past int64: components of 2^63 and above divide exactly
        dtype = np.int64 if b ** need < 2 ** 63 else object
        comps = np.array(ls, dtype=dtype).reshape(len(ls), s, 1)
        place = np.array([b ** d for d in range(need)], dtype=dtype)
        lam = (comps // place % b).astype(np.int64).reshape(len(ls), s * need).T
        tables = None
        if 0 < s * b ** need * len(ls) <= MAX_EXPONENT_TABLE:
            cell_digits = np.arange(b ** need)[:, None] // b ** np.arange(need) % b
            # a float64 product through BLAS, exact: each sum is below 2^53
            tables = (cell_digits @ lam.reshape(s, need, len(ls)).astype(float)
                      ).astype(np.int64) % b
        coefs = np.array([self._values[l] for l in ls], dtype=np.complex128)
        roots = np.array([root_of_unity(b, e) for e in range(b)], dtype=np.complex128)
        return tables, lam, coefs, roots[np.arange(s * (b - 1) + 1) % b]

    def eval_digit_matrix(self, digits: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (n, s, P) digit array at once.

        Exponents come from integer table gathers (or one integer matrix
        product); only the final combination with the coefficient values
        is floating point.
        """
        n, s, p = digits.shape
        if s != self.s:
            raise ConfigurationError(f"point dimension {s}, function dimension {self.s}")
        need = self.max_digit_length()
        if p < need:
            raise PrecisionError(f"function needs {need} digits, points carry {p}")
        tables, lam, coefs, roots = self._plan
        digits = digits[:, :, :need].astype(np.int64)
        if tables is None:
            exps = digits.reshape(n, s * need) @ lam % self.b
        else:
            cells = digits @ self.b ** np.arange(need)
            exps = tables[0][cells[:, 0]]
            for j in range(1, s):
                exps += tables[j][cells[:, j]]
        return roots[exps] @ coefs

    def to_json(self) -> str:
        rows = []
        for l in sorted(self.terms):
            z = self._values[l]
            rows.append({"l": list(l), "re": z.real, "im": z.imag})
        return json.dumps(
            {"b": self.b, "s": self.s, "terms": rows,
             "metadata": dict(self.metadata)},
            indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WalshPolynomial":
        """The map to_json wrote; a malformed file is a ConfigurationError
        naming the field."""
        doc = json_object(json.loads(text), "coefficient file")
        terms = {}
        for i, row in enumerate(json_field(doc, "terms", "coefficient file", json_list)):
            row, what = json_object(row, f"term {i}"), f"term {i}"
            l = json_field(row, "l", what, json_index)
            if l in terms:
                raise ConfigurationError(f"{what} repeats the index {list(l)}")
            # binary floats are exact rationals, so the reconstructed map is
            # exact for the values that were written
            terms[l] = Coefficient(
                json_field(row, "re", what, json_number),
                json_field(row, "im", what, json_number))
        b, s = (json_field(doc, key, "coefficient file", json_integer) for key in "bs")
        return cls(b=b, s=s, terms=terms, metadata=json_object(
            doc.get("metadata", {}), "coefficient file metadata"))


@functools.cache
def _circle_point(p: int, q: int, swap: bool,
                  negate: bool) -> tuple[Fraction, Fraction, float, float]:
    """The circle point at t = p/q, its parts swapped and its first part
    negated as drawn, with each part's float n / d as to_complex rounds
    it; 1,200 keys are ever drawn."""
    den = q * q + p * p
    c, s = Fraction(q * q - p * p, den), Fraction(2 * p * q, den)
    if swap:
        c, s = s, c
    if negate:
        c = -c
    return c, s, c.numerator / c.denominator, s.numerator / s.denominator


def _pythagorean_phase(rng: random.Random) -> tuple[Fraction, Fraction, float, float]:
    """A uniform-ish exact rational point on the unit circle: at t = p/q,
    ((1 - t^2) + 2t i)/(1 + t^2), in integers, and its two floats."""
    return _circle_point(rng.randint(-12, 12), rng.randint(1, 12),
                         rng.random() < 0.5, rng.random() < 0.5)


def _sample_shell(b: int, k_vec: tuple[int, ...],
                  rng: random.Random) -> list[tuple[int, ...]]:
    ranges = _digit_ranges(b, k_vec)
    if shell_size(b, k_vec) <= SHELL_SUPPORT_CAP:
        return list(product(*ranges))
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < SHELL_SUPPORT_CAP:
        # a zero component (range(1)) takes no draw
        chosen.add(tuple(rng.randrange(rg.start, rg.stop) if rg.start else 0
                         for rg in ranges))
    return sorted(chosen)


def random_decay_polynomial(
    b: int,
    s: int,
    kind: str,
    a: Fraction | None,
    x: Fraction,
    alpha: Fraction,
    k_max: int,
    seed: int,
) -> WalshPolynomial:
    """A random finite Walsh series with prescribed shell weights.

    kind "per-index": every index of total digit length k <= k_max gets
    squared magnitude x^k * alpha (phases random); the shell totals then
    follow the support-weighted decay with a = (b-1)/b automatically, so the
    ``a`` argument is ignored.

    kind "per-shell": each shell of total length k <= k_max carries total
    weight a^r (bx)^k alpha, spread uniformly over at most SHELL_SUPPORT_CAP
    indices of the shell; the shell total is preserved exactly, which is all
    any covariance statement consumes.
    """
    validate_base(b)
    x, alpha = Fraction(x), Fraction(alpha)
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if not 0 <= x < Fraction(1, b):
        raise ConfigurationError(f"x must lie in [0, 1/b), got {x}")
    if kind not in ("per-index", "per-shell"):
        raise ConfigurationError(f"unknown decay kind {kind!r}")
    if k_max < 0:
        raise ConfigurationError(f"k_max must be >= 0, got {k_max}")
    if kind == "per-shell":
        if a is None:
            raise ConfigurationError("per-shell decay needs the weight a")
        a = Fraction(a)
        if not 0 <= a <= 1:
            raise ConfigurationError(f"a must lie in [0,1], got {a}")
    zero = (0,) * s
    count = 0  # the zero shell, first, holds the constant term
    for k_vec in length_vectors(s, k_max):
        size = shell_size(b, k_vec)
        count += size if kind == "per-index" else min(size, SHELL_SUPPORT_CAP)
        if count > MAX_TERMS:
            raise ConfigurationError(f"{kind} decay up to k_max={k_max} spans at least "
                                     f"{count} terms, more than {MAX_TERMS}")
    rng = random.Random(seed)
    # every term of a shell has weight w, since c^2 + s^2 = 1 exactly, so
    # the shell total is w times the shell's term count; each value is
    # to_complex's n / d * sqrt(root) with one square root per shell
    terms = {zero: Coefficient(Fraction(1), Fraction(0), root=alpha)}
    values = {zero: complex(math.sqrt(alpha.numerator / alpha.denominator), 0.0)}
    shells = {zero: alpha}
    for k_vec in length_vectors(s, k_max):
        if k_vec == zero:
            continue
        # each shell weight is one Fraction of integer parts
        k = sum(k_vec)
        if kind == "per-index":
            support, size = product(*_digit_ranges(b, k_vec)), shell_size(b, k_vec)
            num, den = x.numerator ** k, x.denominator ** k
        else:
            support = _sample_shell(b, k_vec, rng)
            size = len(support)
            r = sum(1 for kj in k_vec if kj)
            num = a.numerator ** r * (b * x.numerator) ** k
            den = a.denominator ** r * x.denominator ** k * size
        if num == 0:
            continue
        w = Fraction(num * alpha.numerator, den * alpha.denominator)
        scale = math.sqrt(w.numerator / w.denominator)
        for l in support:
            c, s_, c_float, s_float = _pythagorean_phase(rng)
            terms[l] = Coefficient(c, s_, root=w)
            values[l] = complex(c_float * scale, s_float * scale)
        shells[k_vec] = Fraction(num * size * alpha.numerator, den * alpha.denominator)
    meta = {"kind": kind, "x": str(x), "alpha": str(alpha),
            "k_max": k_max, "seed": seed}
    if kind == "per-shell":
        meta["a"] = str(a)
    return WalshPolynomial._with_sums(b, s, terms, meta, shells, values)
