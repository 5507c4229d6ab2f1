"""Base-b Walsh functions with exact exponent arithmetic, index bookkeeping,
and finite Walsh-series test functions.

Walsh values are carried as exponents in Z_b and turned into complex numbers
only at summation boundaries, so products and conjugations are free of
round-off.  Functions enter the system as finite coefficient maps; every
variance and covariance statement downstream lives in coefficient space.

Index shells: for a length vector k, the shell L_k holds all indices l whose
per-coordinate base-b digit lengths equal k (the digit length of 0 is 0).
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
from typing import Callable, Mapping, Sequence

import numpy as np

from .digits import (
    ConfigurationError,
    DigitPoint,
    PrecisionError,
    json_field,
    json_index,
    json_integer,
    json_list,
    json_number,
    json_object,
    length_vectors,
    validate_base,
)

# Indices per shell kept when spreading a shell weight over a large shell.
SHELL_SUPPORT_CAP = 256


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
        if self.root < 0:
            raise ConfigurationError("coefficient root factor must be >= 0")

    @property
    def weight(self) -> Fraction:
        """|coefficient|^2, exact."""
        return (self.re * self.re + self.im * self.im) * self.root

    def to_complex(self) -> complex:
        scale = math.sqrt(float(self.root))
        return complex(float(self.re) * scale, float(self.im) * scale)


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
    out = []
    for _ in range(length):
        out.append(l % b)
        l //= b
    return tuple(out)


@dataclass(frozen=True)
class WalshIndex:
    """An index vector l in N^s with its derived digit-length bookkeeping."""

    b: int
    l: tuple[int, ...]

    def __post_init__(self):
        validate_base(self.b)
        if not self.l:
            raise ConfigurationError("index needs at least one coordinate")
        for lj in self.l:
            if lj < 0:
                raise ConfigurationError(f"index component must be >= 0, got {lj}")

    @property
    def s(self) -> int:
        return len(self.l)

    @property
    def k_vec(self) -> tuple[int, ...]:
        return tuple(digit_length(self.b, lj) for lj in self.l)

    @property
    def r_vec(self) -> tuple[int, ...]:
        return tuple(1 if lj > 0 else 0 for lj in self.l)

    @property
    def k(self) -> int:
        return sum(self.k_vec)

    @property
    def r(self) -> int:
        return sum(self.r_vec)

    def is_zero(self) -> bool:
        return all(lj == 0 for lj in self.l)


def wal_exponent(b: int, l: int, digits: Sequence[int]) -> int:
    """Exponent e in Z_b with wal_l(x) = omega_b^e for x given by its digits.

    e = lambda_0 xi_1 + lambda_1 xi_2 + ... mod b, where lambda are the
    digits of l (least significant first) and xi the digits of x.
    """
    need = digit_length(b, l)
    if len(digits) < need:
        raise PrecisionError(
            f"index {l} needs {need} digits, point has only {len(digits)}"
        )
    e = 0
    for lam, xi in zip(index_digits(b, l), digits):
        e += lam * xi
    return e % b


def wal_exponent_vector(idx: WalshIndex, x: DigitPoint) -> int:
    if x.base != idx.b:
        raise ConfigurationError(f"base mismatch: {x.base} vs {idx.b}")
    if x.s != idx.s:
        raise ConfigurationError(f"dimension mismatch: {x.s} vs {idx.s}")
    return sum(wal_exponent(idx.b, lj, cj) for lj, cj in zip(idx.l, x.coords)) % idx.b


def root_of_unity(b: int, e: int) -> complex:
    if b == 2:
        return 1.0 + 0j if e % 2 == 0 else -1.0 + 0j
    return cmath.exp(2j * cmath.pi * (e % b) / b)


def wal_eval(idx: WalshIndex, x: DigitPoint) -> complex:
    """wal_l(x) as a complex number on the unit circle."""
    return root_of_unity(idx.b, wal_exponent_vector(idx, x))


def index_add(b: int, k: int, l: int) -> int:
    """Digitwise sum mod b of two indices (the group operation under which
    wal_k * wal_l = wal_{k (+) l})."""
    length = max(digit_length(b, k), digit_length(b, l))
    out = 0
    for pos in range(length - 1, -1, -1):
        dk = (k // b ** pos) % b
        dl = (l // b ** pos) % b
        out = out * b + (dk + dl) % b
    return out


def shell_size(b: int, k_vec: Sequence[int]) -> int:
    size = 1
    for kj in k_vec:
        size *= 1 if kj == 0 else (b - 1) * b ** (kj - 1)
    return size


def enumerate_L_k(b: int, k_vec: Sequence[int]) -> tuple[WalshIndex, ...]:
    """All indices whose per-coordinate digit lengths equal k_vec."""
    validate_base(b)
    ranges = []
    for kj in k_vec:
        if kj < 0:
            raise ConfigurationError(f"length components must be >= 0, got {kj}")
        ranges.append(range(0, 1) if kj == 0 else range(b ** (kj - 1), b ** kj))
    return tuple(WalshIndex(b, combo) for combo in product(*ranges))


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
            if any(c < 0 for c in l):
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
        out: dict[tuple[int, ...], Fraction] = {}
        for l, coef in self.terms.items():
            k = tuple(digit_length(self.b, lj) for lj in l)
            out[k] = out.get(k, Fraction(0)) + coef.weight
        return MappingProxyType(out)

    def variance_mc(self, n: int) -> Fraction:
        """Single-replication Monte-Carlo variance of the sample mean of n
        i.i.d. uniform evaluations: the weight off the zero shell, which
        holds only the constant index."""
        return sum((w for k, w in self.shells().items() if any(k)), Fraction(0)) / n

    def covariance_analytic(self, psi_hat: Callable[[WalshIndex], Fraction]) -> Fraction:
        """Sum over nonzero indices of |coefficient|^2 * psi_hat(l), exact."""
        total = Fraction(0)
        for l, coef in self.terms.items():
            idx = WalshIndex(self.b, l)
            if idx.is_zero():
                continue
            total += coef.weight * psi_hat(idx)
        return total

    def max_digit_length(self) -> int:
        """Digits of precision needed to evaluate this function."""
        need = 0
        for l in self.terms:
            for lj in l:
                need = max(need, digit_length(self.b, lj))
        return need

    def eval_point(self, x: DigitPoint) -> complex:
        total = 0j
        for l, coef in self.terms.items():
            e = wal_exponent_vector(WalshIndex(self.b, l), x)
            total += coef.to_complex() * root_of_unity(self.b, e)
        return total

    @functools.cached_property
    def _plan(self):
        """(digits needed, index digit matrix of shape (s * need, terms),
        coefficient values, the b roots of unity), terms in sorted order."""
        need = self.max_digit_length()
        ls = sorted(self.terms)
        lam = np.zeros((self.s * need, len(ls)), dtype=np.int64)
        for t, l in enumerate(ls):
            for j, lj in enumerate(l):
                for d, digit in enumerate(index_digits(self.b, lj)):
                    lam[j * need + d, t] = digit
        coefs = np.array([self.terms[l].to_complex() for l in ls],
                         dtype=np.complex128)
        roots = np.array([root_of_unity(self.b, e) for e in range(self.b)],
                         dtype=np.complex128)
        return need, lam, coefs, roots

    def eval_digit_matrix(self, digits: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (n, s, P) digit array at once.

        Exponents come from one integer matrix product mod b; only the final
        combination with the coefficient values is floating point.
        """
        n, s, p = digits.shape
        if s != self.s:
            raise ConfigurationError(f"point dimension {s}, function dimension {self.s}")
        need, lam, coefs, roots = self._plan
        if p < need:
            raise PrecisionError(f"function needs {need} digits, points carry {p}")
        flat = digits[:, :, :need].reshape(n, s * need).astype(np.int64)
        exps = (flat @ lam) % self.b  # (n, terms)
        return roots[exps] @ coefs

    def to_json(self) -> str:
        rows = []
        for l in sorted(self.terms):
            z = self.terms[l].to_complex()
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
            # binary floats are exact rationals, so the reconstructed map is
            # exact for the values that were written
            terms[json_field(row, "l", what, json_index)] = Coefficient(
                json_field(row, "re", what, json_number),
                json_field(row, "im", what, json_number))
        b, s = (json_field(doc, key, "coefficient file", json_integer) for key in "bs")
        return cls(b=b, s=s, terms=terms, metadata=json_object(
            doc.get("metadata", {}), "coefficient file metadata"))


def _pythagorean_phase(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A uniform-ish exact rational point on the unit circle."""
    t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    den = 1 + t * t
    c, s = (1 - t * t) / den, 2 * t / den
    if rng.random() < 0.5:
        c, s = s, c
    if rng.random() < 0.5:
        c = -c
    return c, s


def _sample_shell(b: int, k_vec: tuple[int, ...],
                  rng: random.Random) -> list[tuple[int, ...]]:
    if shell_size(b, k_vec) <= SHELL_SUPPORT_CAP:
        return [idx.l for idx in enumerate_L_k(b, k_vec)]
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < SHELL_SUPPORT_CAP:
        l = tuple(
            0 if kj == 0 else rng.randrange(b ** (kj - 1), b ** kj)
            for kj in k_vec
        )
        chosen.add(l)
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
    x = Fraction(x)
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if not 0 <= x < Fraction(1, b):
        raise ConfigurationError(f"x must lie in [0, 1/b), got {x}")
    if kind not in ("per-index", "per-shell"):
        raise ConfigurationError(f"unknown decay kind {kind!r}")
    if kind == "per-shell":
        a = Fraction(a)
        if not 0 <= a <= 1:
            raise ConfigurationError(f"a must lie in [0,1], got {a}")
    rng = random.Random(seed)
    terms: dict[tuple[int, ...], Coefficient] = {}
    zero = (0,) * s
    terms[zero] = Coefficient(Fraction(1), Fraction(0), root=alpha)
    for k_vec in length_vectors(s, k_max):
        if k_vec == zero:
            continue
        k = sum(k_vec)
        r = sum(1 for kj in k_vec if kj > 0)
        if kind == "per-index":
            w = x ** k * alpha
            support = [idx.l for idx in enumerate_L_k(b, k_vec)]
        else:
            total = a ** r * (b * x) ** k * alpha
            support = _sample_shell(b, k_vec, rng)
            w = total / len(support)
        if w == 0:
            continue
        for l in support:
            c, s_ = _pythagorean_phase(rng)
            terms[l] = Coefficient(c, s_, root=w)
    meta = {"kind": kind, "x": str(x), "alpha": str(alpha),
            "k_max": k_max, "seed": seed}
    if kind == "per-shell":
        meta["a"] = str(a)
    return WalshPolynomial(b=b, s=s, terms=terms, metadata=meta)
