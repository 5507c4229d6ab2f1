"""Exact base-b digit representation of points in [0,1)^s.

Points are stored as digit arrays, never floats: the count of common leading
digits is ill-conditioned in floating point near cell boundaries, so every
comparison happens on exact integer digits.  Conversion to float is deferred
to function-evaluation time.

A point coordinate x = sum_j d_j * b^(-j) is kept as the tuple (d_1, ..., d_P)
with d_1 the most significant digit.  The finite representation is canonical:
constructors never produce trailing-(b-1) tails, so digit equality is value
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class ConfigurationError(ValueError):
    """Inputs disagree on base, precision, or dimension."""


class PrecisionError(ConfigurationError):
    """An operation needs more stored digits than the point carries."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Bases are refused from 2^32 on, before trial division, which takes about
# 10 ms on the largest prime below the bound
MAX_BASE = 2 ** 32


def validate_base(b: int) -> None:
    if not isinstance(b, int) or b >= MAX_BASE or not is_prime(b):
        raise ConfigurationError(
            f"base must be a prime integer below 2^32, got {b!r}")


# JSON input (configs, coefficient files): a wrong value is a
# ConfigurationError naming its key, never a KeyError or TypeError

def json_object(doc, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def json_field(doc: Mapping, key: str, what: str, convert=lambda v: v, default=...):
    """doc[key] passed through convert.  A missing key without a default, or
    a value of the wrong JSON type, is a ConfigurationError naming the key."""
    if key not in doc:
        if default is ...:
            raise ConfigurationError(f"{what} is missing the key {key!r}")
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(
            f"{what} key {key!r} has a bad value: {exc}") from None


def _json_typed(types: tuple, expected: str, convert=lambda v: v):
    """A converter that takes only values of the given JSON types; a bool
    is never taken for a number."""
    def check(v):
        if isinstance(v, bool) or not isinstance(v, types):
            raise TypeError(f"expected {expected}, got {type(v).__name__}")
        return convert(v)
    return check


# a float, a string or a bool is refused, not truncated
json_integer = _json_typed((int,), "an integer")
# e.g. 3 or "3/20"
json_rational = _json_typed((int, str), "an integer or a rational string", Fraction)
# a finite number, as the exact rational it denotes
json_number = _json_typed((int, float), "a number", Fraction)
json_list = _json_typed((list,), "a list")
json_index = _json_typed((list,), "a list of integers",
                         lambda v: tuple(json_integer(c) for c in v))


@dataclass(frozen=True)
class DigitPoint:
    """A point of [0,1)^s as s arrays of P exact base-b digits."""

    base: int
    coords: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        validate_base(self.base)
        if not self.coords:
            raise ConfigurationError("a point needs at least one coordinate")
        p = len(self.coords[0])
        if p < 1:
            raise ConfigurationError("precision must be at least 1 digit")
        for coord in self.coords:
            if len(coord) != p:
                raise ConfigurationError(
                    "all coordinates must share the same precision"
                )
            for d in coord:
                if not 0 <= d < self.base:
                    raise ConfigurationError(
                        f"digit {d} out of range for base {self.base}"
                    )

    @property
    def s(self) -> int:
        return len(self.coords)

    @property
    def precision(self) -> int:
        return len(self.coords[0])

    @classmethod
    def from_fractions(
        cls,
        values: Iterable[Fraction | int | str],
        base: int,
        precision: int,
    ) -> "DigitPoint":
        """Expand exact rational coordinates to digits, truncating at
        ``precision`` digits (no rounding control; that is out of scope)."""
        coords = []
        for v in values:
            x = Fraction(v)
            if not 0 <= x < 1:
                raise ConfigurationError(f"coordinate {x} outside [0,1)")
            digits = []
            for _ in range(precision):
                x *= base
                d = int(x)
                digits.append(d)
                x -= d
            coords.append(tuple(digits))
        return cls(base, tuple(coords))

    def to_fractions(self) -> tuple[Fraction, ...]:
        out = []
        for coord in self.coords:
            acc = Fraction(0)
            scale = Fraction(1, self.base)
            for d in coord:
                acc += d * scale
                scale /= self.base
            out.append(acc)
        return tuple(out)


def volume_prefix_ge(b: int, k: Sequence[int]) -> Fraction:
    """Volume of the pair region where every coordinate shares a digit
    prefix of length at least k_j: exactly b^(-sum k)."""
    _check_nonnegative(k)
    return Fraction(1, b ** sum(k))


def volume_prefix_eq(b: int, i: Sequence[int]) -> Fraction:
    """Volume of the pair region with per-coordinate common prefix exactly
    i_j: (b-1)^s / b^(s + sum i)."""
    _check_nonnegative(i)
    s = len(i)
    return Fraction((b - 1) ** s, b ** (s + sum(i)))


def length_vectors(s: int, total_max: int) -> Iterator[tuple[int, ...]]:
    """All vectors in N^s with component sum <= total_max, first component
    outermost; seeded callers draw in this order, so it must not change.

    An odometer: the last component counts up while the sum allows, then
    the last nonzero component rolls over into its left neighbour."""
    if s < 0:
        raise ConfigurationError(f"dimension must be >= 0, got {s}")
    if total_max < 0:
        return
    if s == 0:
        yield ()
        return
    k, total = [0] * s, 0
    while total <= total_max:
        yield tuple(k)
        if total < total_max:
            k[-1] += 1
            total += 1
            continue
        j = s - 1
        while j > 0 and k[j] == 0:
            j -= 1
        if j == 0:
            return
        total -= k[j] - 1
        k[j], k[j - 1] = 0, k[j - 1] + 1


def _check_nonnegative(vec: Sequence[int]) -> None:
    if any(v < 0 for v in vec):
        raise ConfigurationError(f"vector components must be >= 0, got {tuple(vec)}")

