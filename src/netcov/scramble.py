"""Nested uniform digit scrambling of point sets, reproducibly.

Each coordinate gets an independent random permutation tree: the permutation
applied to the digit at depth d depends on the input digits at depths
1..d-1.  Pairs of points therefore keep their exact common-prefix profile
while each point becomes marginally uniform on [0,1)^s.

Randomness is counter-based hashing of numpy uint64 arrays by the splitmix64
finalizer, as in hash-based Owen scrambling (Laine & Karras 2011; Burley
2020).  A node is keyed by (master seed, replication, coordinate, depth,
node), the node being a rolling hash of the point's own input-digit prefix,
so no tree is built and points that share a prefix share the node.  At an
input depth the output digit is the rank of the input digit among the
node's b symbol hashes, which the bijective finalizer keeps distinct: a true
permutation.  At a guard depth, past the stored precision, every input digit
is the zero pad, so one hash per (replication, prefix, depth) gives sigma(0)
by a 32-bit multiply-high.  Replications are hashed in blocks, and depths in
passes, whose temporary arrays hold at most BLOCK_WORDS words (or one
depth's n * s).  Output depends only on (master seed, replication), never
on global RNG state or on how replications are blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .digits import ConfigurationError
from .nets import PointSet, check_point_digits

# Default number of uniform guard digits appended past the input precision.
GUARD_DIGITS = 31
# uint64 words, 128 KiB, per temporary array of a block of replications.  A
# replication is charged n * s * (P + 1) words, one hash per point,
# coordinate and depth; one past that hashes its depths a few at a time, and
# one at a time, n * s words, once n * s passes BLOCK_WORDS.  At 2^18 the
# (2,10,2) and (3,6,3) nets hashed all 31 guard depths in one pass of about
# 500 KiB arrays.  Against 2^18, one replication of either at default
# precision peaks at half the tracemalloc bytes (885 and 787 KiB, from 1,753
# and 1,581), the net-tools benchmark's peak RSS is 1.2 MiB lower (37.2 from
# 38.4 MiB), and a 2^13- or 2^14-point net scrambles in half the time; the
# blocks of those two nets, whose guard depths take 4 and 5 passes, take
# about 5% longer
BLOCK_WORDS = 2 ** 14

_U64 = np.uint64
# 0-d arrays, which numpy applies faster than scalars
_GOLDEN, _MUL1, _MUL2, _S27, _S30, _S31, _S32 = (np.array(c, dtype=_U64) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 27, 30, 31, 32))


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, a bijection of uint64, applied in place."""
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


def _words(values) -> np.ndarray:
    """Distinct pseudo-random uint64 words for distinct integers below 2^64."""
    return _mix((np.asarray(values, dtype=_U64) + _U64(1)) * _GOLDEN)


_SYMBOLS = _words(np.arange(256))  # one word per digit value


@dataclass(frozen=True)
class ScrambleSeed:
    """(64-bit master seed, replication index) uniquely fix the scramble."""

    master: int
    replication: int = 0

    def __post_init__(self):
        if not 0 <= self.master < 2 ** 64:
            raise ConfigurationError("master seed must fit in 64 bits")
        if not 0 <= self.replication < 2 ** 64:
            raise ConfigurationError("replication index must fit in 64 bits")


def default_precision(b: int, m: int) -> int:
    """Input precision plus guard digits, capped at b^P <= 2^62."""
    cap = int(62 / math.log2(b))
    return max(m, min(m + GUARD_DIGITS, cap))


def _output_precision(ps: PointSet, precision: int | None) -> int:
    p_out = default_precision(ps.b, ps.m) if precision is None else precision
    if p_out < ps.m:
        raise ConfigurationError(f"output precision {p_out} must be >= m = {ps.m}")
    check_point_digits(ps.b, ps.m, ps.s, p_out)
    return p_out


def _scramble_block(ps: PointSet, master: int, reps: Sequence[int],
                    p_out: int) -> np.ndarray:
    """Output digits of replications ``reps``: (len(reps), n, s, p_out) uint8."""
    counter = _words(np.arange(max(ps.s, p_out)))
    seeds = _words([master, *reps])
    key = _mix(_mix(seeds[:1]) ^ seeds[1:])
    key = _mix(key[:, None] ^ counter[:ps.s])
    key = _mix(key[:, :, None] ^ counter[:p_out])  # (replication, coordinate, depth)
    out = np.empty((len(reps), ps.n, ps.s, p_out), dtype=np.uint8)
    p_in = min(ps.precision, p_out)
    prefix = np.zeros((ps.n, ps.s), dtype=_U64)
    # depths per pass: all of them unless one replication alone passes
    # BLOCK_WORDS
    step = max(1, BLOCK_WORDS // prefix.size // len(reps))
    for d in range(0, p_in, step):
        stop = min(d + step, p_in)
        # the prefix hashes read input digits only, so they come first, one
        # depth at a time on (n, s); then the pass's depths are hashed at once
        symbol = _SYMBOLS[ps.digits[:, :, d:stop]]
        prefixes = np.empty_like(symbol)
        for i in range(stop - d):
            prefixes[:, :, i] = prefix
            prefix = _mix(prefix ^ symbol[:, :, i])
        node = _mix(prefixes ^ key[:, None, :, d:stop])
        mine = _mix(node ^ symbol)
        rank = np.zeros(node.shape, dtype=np.uint8)
        for word in _SYMBOLS[:ps.b]:
            rank += _mix(node ^ word) < mine
        out[..., d:stop] = rank
    for d in range(p_in, p_out, step):
        node = _mix(prefix[None, :, :, None] ^ key[:, None, :, d:d + step])
        out[..., d:d + step] = ((node >> _S32) * _U64(ps.b)) >> _S32
    return out


def owen_scramble(ps: PointSet, seed: ScrambleSeed, precision: int | None = None) -> PointSet:
    """Scramble every coordinate through a fresh random permutation tree.

    Output digits beyond the input precision are i.i.d. uniform (each comes
    from a permutation keyed by a prefix that already distinguishes the
    points).  The result is again a valid point set with the same claimed t.
    """
    p_out = _output_precision(ps, precision)
    digits = _scramble_block(ps, seed.master, [seed.replication], p_out)[0]
    return PointSet(b=ps.b, m=ps.m, s=ps.s, t=ps.t, digits=digits)


def replicate_blocks(ps: PointSet, master_seed: int, count: int,
                     precision: int | None = None) -> Iterator[np.ndarray]:
    """Output digits of replications 0 .. count-1, in order, as
    (replications, n, s, P) uint8 blocks of up to BLOCK_WORDS words;
    replication r uses (master_seed, r), so any prefix of the stream is
    run-length independent."""
    if count < 1:
        raise ConfigurationError(f"replication count must be >= 1, got {count}")
    ScrambleSeed(master_seed)
    p_out = _output_precision(ps, precision)
    block = max(1, BLOCK_WORDS // (ps.n * ps.s * (p_out + 1)))
    for start in range(0, count, block):
        yield _scramble_block(ps, master_seed,
                              range(start, min(start + block, count)), p_out)
