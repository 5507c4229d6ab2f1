"""Shared test machinery.

The centerpiece is GammaGrid, an independent oracle for the pair covariance:
it integrates (psi - 1) f(x) conj(f(y)) over the full digit grid in exact
rational arithmetic, never touching the coefficient-space shortcut it is
meant to check.  The rest is small: random rational Walsh series, the
first-written decay-function builder and its per-term shell sums, Faure's
generating matrices from their closed form, the exact coordinates of a
digit row, the dominated-region volume, the Walsh character by its
definition, a Walsh series evaluated point by point with it and its
covariance summed index by index, the scramble hashed one input depth at a
time, the shell-by-shell Fraction sum of the covariance polynomial, the
chi-square tail, and the rerun policy for statistical gates.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from netcov.counting import joint_pdf_closed_form
from netcov.covkernel import Psi
from netcov.digits import ConfigurationError, length_vectors
from netcov.nets import PointSet
from netcov.scramble import _S32, _SYMBOLS, _U64, _mix, _words
from netcov.walsh import (
    Coefficient, WalshPolynomial, digit_length, enumerate_L_k, root_of_unity, shell_of,
    shell_size)


def random_rational(rng: random.Random, num_abs: int = 8, den_max: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_abs, num_abs), rng.randint(1, den_max))


def random_walsh_polynomial(
    rng: random.Random, b: int, s: int, k_cap: int, n_terms: int
) -> WalshPolynomial:
    """A sparse Walsh series with Gaussian-rational coefficients.

    Every index component stays below b^k_cap, so k_cap bounds the digit
    lengths; root is left at 1 so every coefficient value is exact.  More
    terms than the b^(s k_cap) - 1 nonzero indices is a ValueError.
    """
    if n_terms > b ** (s * k_cap) - 1:
        raise ValueError(f"{n_terms} terms need more than the "
                         f"{b ** (s * k_cap) - 1} nonzero indices below b^k_cap")
    zero = (0,) * s
    terms = {zero: Coefficient(random_rational(rng), random_rational(rng))}
    while len(terms) < n_terms + 1:
        l = tuple(rng.randrange(0, b ** k_cap) for _ in range(s))
        if l == zero:
            continue
        terms[l] = Coefficient(random_rational(rng), random_rational(rng))
    return WalshPolynomial(b=b, s=s, terms=terms)


def decay_polynomial_reference(b: int, s: int, kind: str, a, x, alpha, k_max: int,
                               seed: int, cap: int) -> WalshPolynomial:
    """random_decay_polynomial as it was first written, for its rewrite to
    match term for term: each shell weight a chain of Fraction operations,
    each support from the enumerated shell, the same random draws in the
    same order, at most cap indices per shell.  Inputs are assumed valid."""
    rng = random.Random(seed)
    zero = (0,) * s
    terms = {zero: Coefficient(Fraction(1), Fraction(0), root=alpha)}
    for k_vec in length_vectors(s, k_max):
        if k_vec == zero:
            continue
        k, r = sum(k_vec), sum(1 for kj in k_vec if kj > 0)
        if kind == "per-index":
            w = x ** k * alpha
            support = enumerate_L_k(b, k_vec)
        else:
            total = a ** r * (b * x) ** k * alpha
            if shell_size(b, k_vec) <= cap:
                support = enumerate_L_k(b, k_vec)
            else:
                chosen = set()
                while len(chosen) < cap:
                    chosen.add(tuple(0 if kj == 0 else rng.randrange(b ** (kj - 1), b ** kj)
                                     for kj in k_vec))
                support = sorted(chosen)
            w = total / len(support)
        if w == 0:
            continue
        for l in support:
            p, q = rng.randint(-12, 12), rng.randint(1, 12)
            c, sn = Fraction(q * q - p * p, q * q + p * p), Fraction(2 * p * q, q * q + p * p)
            if rng.random() < 0.5:
                c, sn = sn, c
            if rng.random() < 0.5:
                c = -c
            terms[l] = Coefficient(c, sn, root=w)
    meta = {"kind": kind, "x": str(x), "alpha": str(alpha), "k_max": k_max, "seed": seed}
    if kind == "per-shell":
        meta["a"] = str(a)
    return WalshPolynomial(b=b, s=s, terms=terms, metadata=meta)


def shells_reference(f: WalshPolynomial) -> dict[tuple[int, ...], Fraction]:
    """Squared coefficient mass per shell, one Fraction addition a term, in
    the terms' order."""
    out: dict[tuple[int, ...], Fraction] = {}
    for l, c in f.terms.items():
        k = shell_of(f.b, l)
        out[k] = out.get(k, Fraction(0)) + (c.re ** 2 + c.im ** 2) * c.root
    return out


def digits_to_fractions(row: np.ndarray, b: int) -> tuple[Fraction, ...]:
    """The exact coordinates of an (s, P) digit row: the oracle that
    fraction_digits inverts."""
    return tuple(sum((Fraction(int(d), b ** (j + 1)) for j, d in enumerate(coord)),
                     Fraction(0)) for coord in row)


def faure_matrices_reference(b: int, m: int, s: int, precision: int) -> list:
    """Faure's s generating matrices as nested (s, P, m) lists, from the
    closed form of the j-th Pascal power: entry (r, c) is
    binom(c, r) j^(c - r) mod b, and rows past m are zero."""
    return [[[math.comb(c, r) * j ** (c - r) % b if r <= c else 0
              for c in range(m)]
             for r in range(precision)] for j in range(s)]


def volume_prefix_ge(b: int, k: Sequence[int]) -> Fraction:
    """Volume of the pair region where every coordinate shares a digit
    prefix of length at least k_j: exactly b^(-sum k)."""
    if any(c < 0 for c in k):
        raise ConfigurationError(f"vector components must be >= 0, got {tuple(k)}")
    return Fraction(1, b ** sum(k))


def index_digits(b: int, l: int, length: int) -> tuple[int, ...]:
    """The first `length` base-b digits of l, least significant first."""
    return tuple(l // b ** i % b for i in range(length))


def wal_exponent(b: int, l: Sequence[int], x) -> int:
    """The exponent e in Z_b with wal_l = omega_b^e at the (s, P) digit row
    x, by the definition: per coordinate, lambda_0 xi_1 + lambda_1 xi_2 + ...
    with lambda the digits of l_j (least significant first) and xi those of
    x_j, each digit taken as an int since a product of uint8 digits wraps.
    The pointwise oracle that WalshPolynomial's evaluation plan is checked
    against."""
    assert len(x) == len(l), f"dimension mismatch: {len(x)} vs {len(l)}"
    total = 0
    for lj, xj in zip(l, x):
        need = digit_length(b, lj)
        assert len(xj) >= need, f"index {lj} needs {need} digits"
        total += sum(lam * int(xi) for lam, xi in zip(index_digits(b, lj, need), xj))
    return total % b


def eval_point(f: WalshPolynomial, x: np.ndarray) -> complex:
    """f at one (s, P) digit row, a character and a to_complex value a
    term."""
    total = 0j
    for l, coef in f.terms.items():
        total += coef.to_complex() * root_of_unity(f.b, wal_exponent(f.b, l, x))
    return total


def covariance_analytic(f: WalshPolynomial,
                        psi_hat: Callable[[tuple[int, ...]], Fraction]) -> Fraction:
    """Sum over nonzero indices l of |coefficient|^2 * psi_hat(shell of l),
    exact, index by index: it never reads f.shells()."""
    return sum((coef.weight * psi_hat(shell_of(f.b, l))
                for l, coef in f.terms.items() if any(l)), Fraction(0))


def scramble_block_reference(ps: PointSet, master: int, reps: Sequence[int],
                             p_out: int) -> np.ndarray:
    """scramble._scramble_block as first written: the node, own-digit and
    rank hashes of one input depth at a time on (replication, n, s), the
    prefix hash advanced after each depth, and every guard depth alone."""
    counter = _words(np.arange(max(ps.s, p_out)))
    seeds = _words([master, *reps])
    key = _mix(_mix(seeds[:1]) ^ seeds[1:])
    key = _mix(key[:, None] ^ counter[:ps.s])
    key = _mix(key[:, :, None] ^ counter[:p_out])
    out = np.empty((len(reps), ps.n, ps.s, p_out), dtype=np.uint8)
    p_in = min(ps.precision, p_out)
    prefix = np.zeros((ps.n, ps.s), dtype=_U64)
    for d in range(p_in):
        symbol = _SYMBOLS[ps.digits[:, :, d]]
        node = _mix(prefix ^ key[:, None, :, d])
        mine = _mix(node ^ symbol)
        rank = np.zeros(node.shape, dtype=np.uint8)
        for word in _SYMBOLS[:ps.b]:
            rank += _mix(node ^ word) < mine
        out[..., d] = rank
        prefix = _mix(prefix ^ symbol)
    for d in range(p_in, p_out):
        node = _mix(prefix[None] ^ key[:, None, :, d])
        out[..., d] = ((node >> _S32) * _U64(ps.b)) >> _S32
    return out


class GammaGrid:
    """The digit grid at a fixed resolution with pairwise prefix bookkeeping.

    Cells are half-open base-b intervals of width b^-resolution per axis.  A
    Walsh series whose digit lengths fit inside the resolution is constant on
    each cell, and the pair density of an m-digit net is constant on each
    pair of distinct cells (and zero wherever a coordinate shares >= m
    digits), so the covariance double integral collapses to a finite sum.
    Requires resolution >= m for exactly that reason.
    """

    def __init__(self, b: int, m: int, s: int, resolution: int):
        if resolution < m:
            raise ValueError("resolution below m cannot resolve the density")
        self.b, self.m, self.s, self.res = b, m, s, resolution
        g = b ** resolution
        self.g = g
        idx = np.arange(g)
        digits = np.zeros((g, resolution), dtype=np.int64)
        for d in range(resolution):
            digits[:, d] = (idx // b ** (resolution - 1 - d)) % b
        self.axis_digits = digits

        # gamma between axis cells; the diagonal scores `resolution`, which
        # the density maps to zero because resolution >= m
        gam = np.zeros((g, g), dtype=np.int8)
        alive = np.ones((g, g), dtype=bool)
        for d in range(resolution):
            col = digits[:, d]
            alive &= col[:, None] == col[None, :]
            gam += alive
        self.cells = np.indices((g,) * s).reshape(s, -1)
        nc = g ** s
        key = np.zeros((nc, nc), dtype=np.int16)
        for j in range(s):
            cj = self.cells[j]
            key = key * (resolution + 1) + gam[cj[:, None], cj[None, :]]
        self.key = key

    def _decode(self, kidx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.s):
            kidx, rem = divmod(kidx, self.res + 1)
            out.append(rem)
        return tuple(reversed(out))

    def _cell_values(self, f: WalshPolynomial):
        """Exact f value per cell as scaled Gaussian integers (re, im, den).

        Base 2 and root 1 only: there the Walsh characters are +-1 and every
        coefficient is the rational pair (re, im).
        """
        if f.b != 2:
            raise ValueError("exact grid evaluation is implemented for base 2")
        if any(c.root != 1 for c in f.terms.values()):
            raise ValueError("exact grid evaluation needs every root to be 1")
        if f.max_digit_length() > self.res:
            raise ValueError("function digits exceed the grid resolution")
        nc = self.g ** self.s
        den = 1
        for v in f.terms.values():
            den = math.lcm(den, v.re.denominator, v.im.denominator)
        re = np.zeros(nc, dtype=np.int64)
        im = np.zeros(nc, dtype=np.int64)
        for l, v in f.terms.items():
            e = np.zeros(nc, dtype=np.int64)
            for j, lj in enumerate(l):
                lam = np.array(index_digits(2, lj, self.res), dtype=np.int64)
                e += (self.axis_digits @ lam)[self.cells[j]]
            sign = 1 - 2 * (e % 2)
            re += int(v.re * den) * sign
            im += int(v.im * den) * sign
        return re, im, den

    def covariance(self, f: WalshPolynomial) -> Fraction:
        """Exact double integral of (psi - 1) f(x) conj(f(y)) over the cube
        pair, as a rational number."""
        re, im, den = self._cell_values(f)
        bound = int(max(np.abs(re).max(initial=1), np.abs(im).max(initial=1)))
        # keeps every bincount partial sum an exact float64 integer
        assert 2 * bound * bound * self.key.size < 2 ** 53

        prod_re = np.outer(re, re) + np.outer(im, im)
        prod_im = np.outer(im, re) - np.outer(re, im)
        nkeys = (self.res + 1) ** self.s
        flat = self.key.ravel().astype(np.int64)
        sum_re = np.bincount(flat, weights=prod_re.ravel(), minlength=nkeys)
        sum_im = np.bincount(flat, weights=prod_im.ravel(), minlength=nkeys)

        total_re = total_im = Fraction(0)
        for kidx in range(nkeys):
            sr, si = int(sum_re[kidx]), int(sum_im[kidx])
            if sr == 0 and si == 0:
                continue
            psi = joint_pdf_closed_form(self.b, self.m, self.s, self._decode(kidx))
            total_re += sr * psi
            total_im += si * psi

        scale = Fraction(1, self.b ** (2 * self.res * self.s) * den ** 2)
        assert total_im == 0, "pair symmetry must cancel the imaginary part"
        return total_re * scale - f.constant_coefficient().weight


def cov_polynomial_reference(b: int, m: int, s: int, a: Fraction) -> tuple[Fraction, ...]:
    """The (bx)^k coefficients, k = 1 .. m+s-1, summed shell by shell in
    Fraction arithmetic: C(s, r) C(k-1, r-1) a^r Psi(b, r, max(k-m, 0))."""
    coeffs = []
    for k in range(1, m + s):
        total = Fraction(0)
        for r in range(1, s + 1):
            ways = math.comb(s, r) * math.comb(k - 1, r - 1)
            if ways == 0:
                continue
            total += ways * a ** r * Psi(b, r, max(k - m, 0))
        coeffs.append(total)
    return tuple(coeffs)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-square law with integer df >= 1, in
    closed form: a Poisson sum for even df, erfc plus half-integer terms for
    odd df."""
    half = x / 2
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= half / k
            total += term
        return math.exp(-half) * total
    term = math.sqrt(half) / math.gamma(1.5)
    total = 0.0
    for k in range(1, (df + 1) // 2):
        total += term
        term *= half / (k + 0.5)
    return math.erfc(math.sqrt(half)) + math.exp(-half) * total


def run_with_rerun(make_report: Callable[[int], object],
                   gates: Callable[[object], None]):
    """Apply statistical gates; on failure rerun once at 4x replications.

    Returns (report, reran).  A second failure propagates.
    """
    report = make_report(1)
    try:
        gates(report)
        return report, False
    except AssertionError:
        report = make_report(4)
        gates(report)
        return report, True
