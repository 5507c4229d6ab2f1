"""Self-contained identity and property suite at desk scale.

Each check exercises one cross-module identity with exact arithmetic (or an
exhaustive small enumeration) and reports a one-line detail.  The suite backs
the `verify` subcommand: any failure names the identity that broke, which
also makes the suite a mutation detector for the analytic kernel.

The functions named after an identity are its only implementation: the
checks, the acceptance criteria and the unit tests call them, one case at a
time, on their own grids.  Each raises CheckFailure naming the failing case
and returns the number of comparisons it made.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import counting, covkernel, nets
from .digits import length_vectors
from .estimators import build_function
from .nets import PointSet, dominated_counts, faure_net, verify_net
from .scramble import ScrambleSeed, owen_scramble
from .walsh import enumerate_L_k, index_add, shell_of, shell_size


class CheckFailure(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def profile_matches_pairwise(ps: PointSet) -> int:
    """On any point set, the profile differenced from dominated_counts equals
    the pairwise oracle, and dominated_counts, whichever route it takes,
    equals the prefix-cell walk."""
    b, m, s = ps.b, ps.m, ps.s
    expect(counting.pair_profile(ps).counts == counting.profile_bruteforce(ps).counts,
           f"prefix-cell and pairwise profiles differ at {(b, m, s)}")
    expect(dominated_counts(ps) == nets._prefix_cell_walk(ps),
           f"dominated-count routes differ at {(b, m, s)}")
    return 2


def profile_matches_closed_forms(ps: PointSet) -> int:
    """On a scrambled (0,m,s)-net, profile_matches_pairwise holds, and the
    profile's exact counts and the dominated counts it is differenced from
    equal the closed forms for every vector below the stored precision."""
    b, m, s = ps.b, ps.m, ps.s
    profile_matches_pairwise(ps)
    profile, dominated = counting.pair_profile(ps), dominated_counts(ps)
    for i in product(range(ps.precision), repeat=s):
        expect(profile.exact_count(i) == counting.N_closed_form(b, m, s, i),
               f"exact-count mismatch at {(b, m, s)}, i={i}")
        expect(dominated.get(i, 0) == counting.M_closed_form(b, m, i),
               f"dominated-count mismatch at {(b, m, s)}, k={i}")
    return 2 * ps.precision ** s


def finest_digit_moved(ps: PointSet) -> PointSet:
    """ps with the last point's last coordinate moved at depth m, so only the
    finest shape (0, ..., 0, m) of a (0,m,s)-net stops being balanced."""
    digits = ps.digits.copy()
    digits[-1, -1, ps.m - 1] = (digits[-1, -1, ps.m - 1] + 1) % ps.b
    return PointSet(b=ps.b, m=ps.m, s=ps.s, t=ps.t, digits=digits)


def psi_hat_routes_agree(b: int, m: int, s: int, depth: int) -> int:
    """psi_hat_general over M_closed_form equals psi_hat_zero_t on every
    nonzero index of every shell with |k| <= depth, each at its own
    shell_of."""
    indices = [l for k_vec in length_vectors(s, depth)
               for l in enumerate_L_k(b, k_vec) if any(l)]
    for l in indices:
        k_vec = shell_of(b, l)
        general = covkernel.psi_hat_general(
            lambda k: counting.M_closed_form(b, m, k), b, k_vec, b ** m)
        closed = covkernel.psi_hat_zero_t(b, m, k_vec)
        expect(general == closed, f"routes disagree at {(b, m, s)}, "
               f"l={l}: {general} vs {closed}")
    return len(indices)


def witness_difference_holds(b: int, m: int, s: int, x: Fraction) -> int:
    """delta_s telescopes q_{s-1} - q_s, splits into its parts, is >= 0."""
    closed = covkernel.delta_s(b, m, s, x)
    expect(covkernel.q_s(b, m, s - 1, x) - covkernel.q_s(b, m, s, x) == closed,
           f"difference mismatch at {(b, m, s)}, x={x}")
    parts = (covkernel.delta_first_part(b, m, s, x)
             + covkernel.delta_second_part(b, m, s, x)
             - covkernel.delta_second_part(b, m, s - 1, x))
    expect(parts == closed, f"part split mismatch at {(b, m, s)}, x={x}")
    expect(closed >= 0, f"negative difference at {(b, m, s)}, x={x}")
    return 3


def beta_forms_agree(a: int, b: int, x: Fraction) -> int:
    """I_x(a, b) = 1 - I_{1-x}(b, a), and it equals its derivative form."""
    direct = covkernel.inc_beta(a, b, x)
    expect(direct == 1 - covkernel.inc_beta(b, a, 1 - x),
           f"reflection fails at ({a}, {b}, {x})")
    expect(direct == covkernel.inc_beta_derivative_form(a, b, x),
           f"derivative form differs at ({a}, {b}, {x})")
    return 2


def assembly_matches_witness(b: int, m: int, s: int, x: Fraction) -> int:
    """The hypergeometric assembly equals q_s (0 < x < 1, x != 1/b)."""
    expect(covkernel.recmain_eval(b, m, s, x) == covkernel.q_s(b, m, s, x),
           f"assembly differs at {(b, m, s)}, x={x}")
    return 1


@lru_cache(maxsize=1024)
def _critical_polynomial(b: int, m: int, s: int) -> covkernel.CovPolynomial:
    # each polynomial serves four windows at every x of a grid
    return covkernel.cov_polynomial(b, m, s, Fraction(b - 1, b))


def recurrence_vanishes(b: int, m: int, s: int, x: Fraction) -> int:
    """The recurrence annihilates the windows s..s+3 of both solutions at x:
    the covariance polynomial at a = (b-1)/b and the witness q_s."""
    window = [_critical_polynomial(b, m, t).eval(x) for t in range(s, s + 4)]
    res = covkernel.recurrence_residual(b, m, s, x, window)
    expect(res == 0, f"polynomial residual {res} at {(b, m, s)}, x={x}")
    window = [covkernel.q_s(b, m, t, x) for t in range(s, s + 4)]
    res = covkernel.recurrence_residual(b, m, s, x, window)
    expect(res == 0, f"witness residual {res} at {(b, m, s)}, x={x}")
    return 2


def gamma_preserved(base: PointSet, scrambled: PointSet) -> int:
    """Every ordered pair of distinct points keeps its common-digit vector,
    clamped at base.precision: agreement past it is scramble randomness."""
    p = base.precision
    before, after = (np.stack([counting.gamma_matrix(ps.digits[:, j, :p])
                               for j in range(ps.s)], axis=-1)
                     for ps in (base, scrambled))
    changed = np.argwhere((before != after).any(axis=-1))
    if changed.size:
        i, j = changed[0]
        raise CheckFailure(f"pair ({i},{j}) gamma changed: "
                           f"{tuple(before[i, j].tolist())} -> {tuple(after[i, j].tolist())}")
    return base.n * (base.n - 1)


def check_net_equidistribution() -> str:
    cases = [(2, 4, 2), (3, 3, 3), (5, 2, 4), (7, 1, 2)]
    for b, m, s in cases:
        report = verify_net(faure_net(b, m, s), t=0)
        expect(report.passed, f"base-{b} m={m} s={s} net fails: {report.failure}")
    return f"{len(cases)} nets equidistributed at t=0"


def check_scramble_net_quality() -> str:
    count = 0
    for b, m, s in [(2, 3, 2), (3, 2, 3)]:
        base = faure_net(b, m, s)
        for master in range(3):
            ps = owen_scramble(base, ScrambleSeed(master), precision=m + 4)
            report = verify_net(ps, t=0)
            expect(report.passed,
                   f"scrambled base-{b} m={m} s={s} seed={master}: {report.failure}")
            count += 1
    return f"{count} scrambled nets equidistributed at t=0"


def check_scramble_gamma_preservation() -> str:
    pairs = 0
    for b, m, s in [(2, 3, 2), (3, 2, 3)]:
        base = faure_net(b, m, s)
        pairs += gamma_preserved(
            base, owen_scramble(base, ScrambleSeed(17), precision=m + 2))
    return f"gamma preserved on {pairs} ordered pairs"


def check_profile_closed_forms() -> str:
    checked = 0
    for b, m, s in [(2, 3, 2), (3, 2, 2), (3, 1, 3)]:
        ps = owen_scramble(faure_net(b, m, s), ScrambleSeed(5), precision=m + 2)
        checked += profile_matches_closed_forms(ps)
        # a set that only its finest shapes tell from a net takes the walk
        profile_matches_pairwise(finest_digit_moved(ps))
    return f"{checked} profile counts equal their closed forms"


def check_pdf_normalization() -> str:
    cases = [(b, m, s) for b in (2, 3) for m in (1, 2, 3) for s in (1, 2, 3)]
    for b, m, s in cases:
        total = counting.pdf_normalization(b, m, s)
        expect(total == 1, f"density integrates to {total} at {(b, m, s)}")
    return f"density integrates to 1 in {len(cases)} configurations"


def check_psi_hat_two_routes() -> str:
    checked = sum(psi_hat_routes_agree(b, m, s, m + 3)
                  for b, m, s in [(2, 2, 2), (3, 2, 3)])
    return f"{checked} indices agree across both coefficient routes"


def check_psi_hat_flat_zone() -> str:
    checked = 0
    for b, m in [(2, 3), (3, 2)]:
        n = b ** m
        for k_vec in length_vectors(2, m):
            if sum(k_vec) == 0:
                continue
            for l in enumerate_L_k(b, k_vec):
                value = covkernel.psi_hat_zero_t(b, m, shell_of(b, l))
                expect(value == Fraction(-1, n - 1),
                       f"flat zone broken at b={b}, m={m}, l={l}: {value}")
                checked += 1
    return f"{checked} shallow indices sit at -1/(n-1)"


def check_covariance_vs_witness() -> str:
    checked = 0
    xs = [Fraction(1, 7), Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)]
    for b, m, s in product((2, 3), range(1, 4), range(1, 4)):
        poly = covkernel.cov_polynomial(b, m, s, Fraction(b - 1, b))
        for x in xs:
            expect(poly.eval(x) == covkernel.q_s(b, m, s, x),
                   f"polynomial and witness differ at {(b, m, s)}, x={x}")
            checked += 1
    return f"{checked} evaluations match the witness exactly"


def check_witness_sign() -> str:
    points = 0
    for b, m, s in product((2, 3), range(1, 5), range(1, 5)):
        for x in (Fraction(i, 50) for i in range(51)):
            v = covkernel.q_s(b, m, s, x)
            expect(v <= 0, f"positive witness at {(b, m, s)}, x={x}: {v}")
            points += 1
        expect(covkernel.q_s(b, m, s, 0) == 0, f"nonzero at x=0, {(b, m, s)}")
        expect(covkernel.q_s(b, m, s, 1) == 1 - b ** m,
               f"wrong endpoint at x=1, {(b, m, s)}")
    return f"witness nonpositive at {points} grid points, endpoints exact"


def check_witness_difference() -> str:
    xs = [Fraction(1, 10), Fraction(1, 2), Fraction(4, 5)]
    cases = list(product((2, 3), range(1, 4), range(1, 5), xs))
    for case in cases:
        witness_difference_holds(*case)
    return f"{len(cases)} difference evaluations telescope exactly"


def check_beta_identities() -> str:
    rng = random.Random(2024)
    for _ in range(40):
        a, bb = rng.randint(1, 6), rng.randint(1, 6)
        beta_forms_agree(a, bb, Fraction(rng.randint(-8, 12), rng.randint(1, 9)))
    return "40 random beta identities hold"


def check_recurrence_solution() -> str:
    xs = [Fraction(1, 4), Fraction(1, 2), Fraction(5, 7)]
    checked = sum(recurrence_vanishes(*case)
                  for case in product((2, 3), (1, 2, 3), (1, 2, 3), xs))
    return f"{checked} recurrence windows vanish exactly"


def check_hypergeometric_assembly() -> str:
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        b = rng.choice((2, 3, 5))
        m = rng.randint(1, 4)
        s = rng.randint(1, 4)
        x = Fraction(rng.randint(1, 23), 24)
        if x == Fraction(1, b):
            continue
        checked += assembly_matches_witness(b, m, s, x)
    return f"{checked} assembled values equal the witness"


def _wal(b: int, l: int, digits: np.ndarray) -> np.ndarray:
    """wal_l at each (n, 1, P) digit row, by simulate's map and plan."""
    return build_function(b, 1, {"kind": "wal", "l": [l]}).eval_digit_matrix(digits)


def check_walsh_orthogonality() -> str:
    checked = 0
    for b in (2, 3):
        k = 2
        net = faure_net(b, k, 1, precision=k)
        for l in range(1, b ** k):
            total = _wal(b, l, net.digits).sum()
            expect(abs(total) < 1e-9,
                   f"character sum over the base-{b} grid not zero at l={l}")
            checked += 1
        for k_vec in length_vectors(2, 3):
            expect(len(enumerate_L_k(b, k_vec)) == shell_size(b, k_vec),
                   f"shell size mismatch at base {b}, k={k_vec}")
            checked += 1
    return f"{checked} character sums and shell sizes verified"


def check_walsh_product_rule() -> str:
    rng = random.Random(7)
    checked = 0
    for b in (2, 3, 5):
        points = faure_net(b, 2, 1, precision=4).digits[[0, 1, -1]]
        for _ in range(20):
            k = rng.randrange(0, b ** 3)
            l = rng.randrange(0, b ** 3)
            lhs = _wal(b, k, points) * _wal(b, l, points)
            rhs = _wal(b, index_add(b, k, l), points)
            expect(bool((abs(lhs - rhs) < 1e-9).all()),
                   f"product rule fails at base {b}, k={k}, l={l}")
            checked += len(points)
    return f"product rule holds at {checked} sample evaluations"


CHECKS = [
    ("net-equidistribution", check_net_equidistribution),
    ("scramble-net-quality", check_scramble_net_quality),
    ("scramble-gamma-preservation", check_scramble_gamma_preservation),
    ("profile-closed-forms", check_profile_closed_forms),
    ("pdf-normalization", check_pdf_normalization),
    ("psi-hat-two-routes", check_psi_hat_two_routes),
    ("psi-hat-flat-zone", check_psi_hat_flat_zone),
    ("covariance-vs-witness", check_covariance_vs_witness),
    ("witness-sign", check_witness_sign),
    ("witness-difference", check_witness_difference),
    ("beta-identities", check_beta_identities),
    ("recurrence-solution", check_recurrence_solution),
    ("hypergeometric-assembly", check_hypergeometric_assembly),
    ("walsh-orthogonality", check_walsh_orthogonality),
    ("walsh-product-rule", check_walsh_product_rule),
]


def verify_all() -> dict:
    """Run every check; never raises.  The report carries one entry per
    check with its timing, plus the overall verdict."""
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            detail, passed = fn(), True
        except CheckFailure as exc:
            detail, passed = str(exc), False
        except Exception as exc:  # a crash is a failure, not an abort
            detail, passed = f"{type(exc).__name__}: {exc}", False
        results.append({"name": name, "passed": passed, "detail": detail,
                        "seconds": round(time.perf_counter() - start, 4)})
    return {"passed": all(r["passed"] for r in results), "checks": results}
