"""Exact base-b digit representation of points in [0,1)^s.

Points are stored as digit arrays, never floats: the count of common leading
digits is ill-conditioned in floating point near cell boundaries, so every
comparison happens on exact integer digits.  Conversion to float is deferred
to function-evaluation time.

A point of [0,1)^s is an (s, P) uint8 digit row, as a PointSet holds it:
coordinate x = sum_j d_j * b^(-j) is the row (d_1, ..., d_P), d_1 the most
significant digit.  The finite representation is canonical: constructors
never produce trailing-(b-1) tails, so digit equality is value equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


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
# A digit row holds one uint8 per digit, so its base is at most 256
MAX_DIGIT_BASE = 256


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


def validate_digit_base(b: int) -> None:
    """A prime base whose digits fit one byte, as every digit row holds them."""
    validate_base(b)
    if b > MAX_DIGIT_BASE:
        raise ConfigurationError(
            f"uint8 digit storage holds bases up to {MAX_DIGIT_BASE}, got {b}")


def fraction_digits(values: Iterable[Fraction | int | str], b: int,
                    precision: int) -> np.ndarray:
    """The (s, P) uint8 digit row of a point with exact rational coordinates,
    each truncated at P digits (no rounding control; that is out of scope)."""
    validate_digit_base(b)
    if precision < 1:
        raise ConfigurationError("precision must be at least 1 digit")
    rows = []
    for v in values:
        x = Fraction(v)
        if not 0 <= x < 1:
            raise ConfigurationError(f"coordinate {x} outside [0,1)")
        # the first P digits of x are those of floor(x b^P)
        q = x.numerator * b ** precision // x.denominator
        rows.append([q // b ** (precision - 1 - j) % b for j in range(precision)])
    if not rows:
        raise ConfigurationError("a point needs at least one coordinate")
    return np.array(rows, dtype=np.uint8)


def volume_prefix_eq(b: int, i: Sequence[int]) -> Fraction:
    """Volume of the pair region with per-coordinate common prefix exactly
    i_j: (b-1)^s / b^(s + sum i)."""
    if any(c < 0 for c in i):
        raise ConfigurationError(f"vector components must be >= 0, got {tuple(i)}")
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
