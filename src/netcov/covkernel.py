"""Exact spectral kernel of the scrambled-net pair distribution.

Everything here is rational arithmetic end to end: the Walsh coefficients of
the pair density, their closed form for t = 0 nets, the covariance polynomial
they induce under geometric shell decay, the regularized incomplete beta
function for integer parameters, the nonpositivity witness Q_s with its
telescoping difference, a four-term recurrence those values satisfy, and an
independent hypergeometric-style assembly of the same quantity.  Floating
point appears nowhere: the polynomials here have integer numerators, which
`horner` evaluates in integers, so a command-line scan divides once per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from .digits import ConfigurationError, validate_base

# Most m + s the polynomial builders accept: at 512 a build takes under a
# second, and the builders' work grows faster than the square of m + s
MAX_ORDER = 2 ** 9


def _check_order(m: int, s: int) -> None:
    if m + s > MAX_ORDER:
        raise ConfigurationError(f"m + s = {m + s} is more than {MAX_ORDER}")


def _support_size(b: int, k: Sequence[int]) -> int:
    """r, the number of occupied coordinates of a nonzero shell k."""
    validate_base(b)
    if any(kj < 0 for kj in k):
        raise ConfigurationError(f"shell components must be >= 0, got {tuple(k)}")
    if not any(k):
        raise ConfigurationError("the zero shell carries the constant term 1")
    return sum(1 for kj in k if kj)


def psi_hat_general(
    M: Callable[[tuple[int, ...]], int],
    b: int,
    k: Sequence[int],
    n: int,
) -> Fraction:
    """Walsh coefficient of the pair density on the nonzero shell k, from
    dominated-pair counts.

    M maps a componentwise bound vector k - e, with e_j = 1 only where
    k_j > 0 and so never negative, to the number of ordered distinct pairs
    whose common-digit vector dominates it.  Valid for any scrambled digital
    point set, not only t = 0 nets.
    """
    if n < 2:
        raise ConfigurationError("pair density needs at least two points")
    r = _support_size(b, k)
    active = [j for j, kj in enumerate(k) if kj]
    total = Fraction(0)
    for bits in product((0, 1), repeat=r):
        shifted = list(k)
        for j, bit in zip(active, bits):
            shifted[j] -= bit
        w = sum(bits)
        total += Fraction((-1) ** w * M(tuple(shifted)), b ** w)
    return Fraction(1, n * (n - 1)) * Fraction(b, b - 1) ** r * total


def Psi(b: int, r: int, c: int) -> Fraction:
    """Shell coefficient of the t = 0 pair density, up to the 1/(n-1) scale.

    Depends only on the support size r and the depth excess c; the dimension
    never enters.  Always -1 at c = 0; zero once c reaches r.
    """
    validate_base(b)
    if r < 1:
        raise ConfigurationError(f"support size must be >= 1, got {r}")
    if c < 0:
        raise ConfigurationError(f"depth excess must be >= 0, got {c}")
    if c >= r:
        return Fraction(0)
    total = sum(Fraction((-b) ** i * comb(r - 1, i)) for i in range(r - c))
    return -Fraction(1 - b) ** (1 - r) * total


def psi_hat_zero_t(b: int, m: int, k: Sequence[int]) -> Fraction:
    """Walsh coefficient of the t = 0 net pair density on the nonzero
    shell k."""
    return Psi(b, _support_size(b, k), max(sum(k) - m, 0)) / (b ** m - 1)


def horner(coeffs: Sequence[int], numerators: Iterable[int],
           q: int) -> tuple[list[int], int]:
    """Integer polynomial (constant term first, degree d) at each x = p/q
    over one q > 0, as ([sum c_k p^k q^(d-k) per p], q^d): no gcd is taken.
    The coefficients are scaled once to c_k q^(d-k), so each point is one
    Horner pass in p."""
    lead, *rest = [c * q ** k for k, c in enumerate(reversed(coeffs))]
    nums = []
    for p in numerators:
        num = lead
        for c in rest:
            num = num * p + c
        nums.append(num)
    return nums, q ** len(rest)


@dataclass(frozen=True)
class CovPolynomial:
    """Exact coefficients of the scaled covariance under shell decay
    sigma_k^2 = a^r (bx)^k alpha: value(x) * alpha / (b^m - 1) is the pair
    covariance.  Stored as integer x-basis numerators (constant term first)
    over x_denominator; the (bx) monomial basis is derived from them."""

    b: int
    m: int
    s: int
    a: Fraction
    x_numerators: tuple[int, ...]
    x_denominator: int

    @property
    def coeffs_bx(self) -> tuple[Fraction, ...]:
        """Coefficients on the (bx) monomial basis, powers 1 .. m+s-1."""
        return tuple(Fraction(c, self.x_denominator * self.b ** k)
                     for k, c in enumerate(self.x_numerators[1:], start=1))

    def x_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients on the plain x basis, constant term first."""
        return tuple(Fraction(c, self.x_denominator) for c in self.x_numerators)

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        [num], den = horner(self.x_numerators, [x.numerator], x.denominator)
        return Fraction(num, den * self.x_denominator)

    def covariance(self, x, alpha=1) -> Fraction:
        """Pair covariance of a function with these shell weights."""
        return self.eval(x) * Fraction(alpha) / (self.b ** self.m - 1)

    def to_dict(self) -> dict:
        return {
            "b": self.b, "m": self.m, "s": self.s, "a": str(self.a),
            "basis": "bx",
            "coefficients": {str(k): str(cf) for k, cf
                             in enumerate(self.coeffs_bx, start=1)},
        }


def cov_polynomial(b: int, m: int, s: int, a) -> CovPolynomial:
    """Scaled covariance polynomial under the decay sigma_k^2 = a^r (bx)^k.

    The (bx)^k coefficient aggregates every shell of total length k: choose
    the r occupied coordinates, split k into r positive parts, weight by a^r
    and the shell coefficient at depth excess max(k-m, 0).  With a = p/q and
    Psi(b, r, c) = -S(r, c) / (1-b)^(r-1), S(r, c) = sum_{i<r-c} (-b)^i
    C(r-1, i), each coefficient is an integer over q^s (b-1)^(s-1).
    """
    validate_base(b)
    if m < 1 or s < 1:
        raise ConfigurationError("need m >= 1 and s >= 1")
    _check_order(m, s)
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise ConfigurationError(f"decay weight a must lie in [0,1], got {a}")
    p, q = a.numerator, a.denominator
    # a^r Psi(b, r, c) = weight[r] * S(r, c) / den; S(r, c) = partial[r][r-c]
    weight = [comb(s, r) * (-p) ** r * (q * (b - 1)) ** (s - r)
              for r in range(s + 1)]
    partial = [list(accumulate((comb(r - 1, i) * (-b) ** i for i in range(r)),
                               initial=0)) for r in range(s + 1)]
    den = q ** s * (b - 1) ** (s - 1)
    nums = [sum(comb(k - 1, r - 1) * weight[r] * partial[r][r - max(k - m, 0)]
                for r in range(max(k - m, 0) + 1, min(k, s) + 1))
            for k in range(1, m + s)]
    # no tuple(generator): it resizes a 10-slot tuple, filling the free list
    # of the final size, which scans make too few GC-tracked objects to empty
    return CovPolynomial(
        b=b, m=m, s=s, a=a,
        x_numerators=(0, *(n * b ** k for k, n in enumerate(nums, start=1))),
        x_denominator=den)


def inc_beta(a: int, b: int, x) -> Fraction:
    """Regularized incomplete beta I_x(a, b) for integer a, b >= 1, as the
    exact binomial-sum polynomial.  Being a polynomial, it is defined for
    every rational x, which is exactly the continuation the alternating
    algebra downstream needs."""
    if a < 1 or b < 1:
        raise ConfigurationError(f"need integer parameters >= 1, got ({a}, {b})")
    x = Fraction(x)
    total = Fraction(0)
    top = a + b - 1
    for j in range(a, top + 1):
        total += comb(top, j) * x ** j * (1 - x) ** (top - j)
    return total


def inc_beta_derivative_form(a: int, b: int, x) -> Fraction:
    """The same function assembled from the derivative expansion: a leading
    x^a / (a-1)! times a falling-factorial alternating sum."""
    if a < 1 or b < 1:
        raise ConfigurationError(f"need integer parameters >= 1, got ({a}, {b})")
    x = Fraction(x)
    top = a + b - 1
    total = Fraction(0)
    for i in range(a, top + 1):
        total += (comb(top, i)
                  * Fraction(factorial(i - 1), factorial(i - a))
                  * (-x) ** (i - a))
    return x ** a / factorial(a - 1) * total


def q_s(b: int, m: int, s: int, x) -> Fraction:
    """Nonpositivity witness for the covariance at the critical decay weight
    a = (b-1)/b: an incomplete-beta combination, rational in x.

    The lone special point is x = 1/b, where the second beta term has a
    removable singularity; the limit drops it.
    """
    validate_base(b)
    if m < 1 or s < 0:
        raise ConfigurationError("need m >= 1 and s >= 0")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ConfigurationError(f"x must lie in [0,1], got {x}")
    if x == Fraction(1, b):
        return 1 - b ** m * inc_beta(m, s + 1, x)
    head = 1 - b ** m * inc_beta(m, s + 1, x)
    tail = ((1 - x) / (1 - b * x)) ** s * inc_beta(s + 1, m, 1 - b * x)
    return head - tail


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_add_into(acc: list[int], p: Sequence[int], scale: int) -> None:
    if len(p) > len(acc):
        acc.extend([0] * (len(p) - len(acc)))
    for i, pi in enumerate(p):
        acc[i] += scale * pi


def q_s_polynomial(b: int, m: int, s: int) -> tuple[int, ...]:
    """The witness as an explicit polynomial in x, constant term first.

    Both beta terms expand to integer-coefficient polynomials: the head is a
    binomial tail in x, and the other term keeps a factor (1-bx)^{j-s} with
    j > s, which clears the denominator.  Coefficients are exact integers.
    Each sum carries its running power, so the cost is O((m+s)^2).
    """
    validate_base(b)
    if m < 1 or s < 0:
        raise ConfigurationError("need m >= 1 and s >= 0")
    _check_order(m, s)
    top = m + s
    acc = [1]
    power = [1]  # (1-x)^(top-j); (1-x)^s once the head is done
    for j in range(top, m - 1, -1):
        if j < top:
            power = _poly_mul(power, [1, -1])
        _poly_add_into(acc, [0] * j + power, -(b ** m) * comb(top, j))
    tail, power_bx = [0], [1]  # power_bx = (1-bx)^(j-s)
    for j in range(s + 1, top + 1):
        power_bx = _poly_mul(power_bx, [1, -b])
        _poly_add_into(tail, [0] * (top - j) + power_bx,
                       comb(top, j) * b ** (top - j))
    _poly_add_into(acc, _poly_mul(power, tail), -1)
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def delta_s(b: int, m: int, s: int, x) -> Fraction:
    """Consecutive-order difference of the witness: q_s(s-1) - q_s(s).

    Closed form x(b-1)(1-x)^{s-1} sum_{i<m} C(i+s-1, s-1)(bx)^i, manifestly
    nonnegative on [0,1], which is what drives the sign of the whole family.
    """
    validate_base(b)
    if m < 1 or s < 1:
        raise ConfigurationError("need m >= 1 and s >= 1")
    x = Fraction(x)
    total = sum(
        (comb(i + s - 1, s - 1) * (b * x) ** i for i in range(m)), Fraction(0)
    )
    return x * (b - 1) * (1 - x) ** (s - 1) * total


def delta_first_part(b: int, m: int, s: int, x) -> Fraction:
    """The single-binomial piece of the difference: the head terms of the
    two beta expansions collapse to one monomial."""
    x = Fraction(x)
    return b ** m * comb(m + s - 1, s) * x ** m * (1 - x) ** s


def delta_second_part(b: int, m: int, s: int, x) -> Fraction:
    """The tail piece at order s; the difference uses it at s and s-1."""
    if s < 0:
        raise ConfigurationError(f"need s >= 0, got {s}")
    x = Fraction(x)
    total = sum(
        (comb(i + s, s) * (b * x) ** i for i in range(m)), Fraction(0)
    )
    return (1 - x) ** s * (1 - b * x) * total


def recurrence_residual(b: int, m: int, s: int, x, values: Sequence) -> Fraction:
    """Left side of the four-term recurrence in the order s, applied to
    values (c_s, c_{s+1}, c_{s+2}, c_{s+3}) at the point x.  Exact zero when
    the values come from the covariance polynomial at a = (b-1)/b, or from
    the witness q_s."""
    if len(values) != 4:
        raise ConfigurationError("need the four consecutive values c_s..c_{s+3}")
    x = Fraction(x)
    c0, c1, c2, c3 = (Fraction(v) for v in values)
    A = (s + 2) * (b * x - 1)
    B = (m * (b * x - 1) * (x - 1) + b * s * x * (x - 2) + b * x * (x - 3)
         - s * (2 * x - 3) - 3 * x + 5)
    C = -(x - 1) * (b * m * x + b * s * x + b * x + m * x - 2 * m
                    + s * x - 3 * s + x - 4)
    D = (x - 1) ** 2 * (m + s + 1)
    return A * c3 + B * c2 + C * c1 + D * c0


def recmain_eval(b: int, m: int, s: int, x) -> Fraction:
    """The witness assembled the long way round: four hypergeometric-style
    blocks, each Gauss tail rewritten through the incomplete beta before
    evaluation.  Agrees with q_s wherever both are defined; the boundary and
    the removable point are rejected."""
    validate_base(b)
    if m < 1 or s < 0:
        raise ConfigurationError("need m >= 1 and s >= 0")
    x = Fraction(x)
    if not 0 < x < 1 or x == Fraction(1, b):
        raise ValueError(
            f"x = {x} is outside the open domain of this form; use q_s"
        )
    bx = b * x
    bxm = bx ** m
    ratio = ((x - 1) / (bx - 1)) ** s
    t1 = 1 - bxm
    t2 = -(1 - bxm) * ratio
    t3 = bxm * ((x ** m - 1) / x ** m + inc_beta(s + 1, m, 1 - x) / x ** m)
    t4 = bxm * ratio * ((1 - bxm) / bxm - inc_beta(s + 1, m, 1 - bx) / bxm)
    return t1 + t2 + t3 + t4
