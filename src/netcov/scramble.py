"""Nested uniform digit scrambling of point sets, reproducibly.

Each coordinate gets an independent random permutation tree: the permutation
applied to the digit at depth d depends on the input digits at depths
1..d-1.  Pairs of points therefore keep their exact common-prefix profile
while each point becomes marginally uniform on [0,1)^s.

Randomness is counter-mode hashing: every tree node (coordinate, input digit
prefix) keys a blake2b digest of the seed, and the node's permutation is
drawn from that digest.  This gives bit-reproducible output for a given
(master seed, replication index), O(nodes visited) memory, and no dependence
on any global RNG state.

The tree's shape depends only on the input digits, so it is built once per
net (``_tree``) and shared by every replication; a replication only draws
the permutations of its nodes.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .digits import ConfigurationError
from .nets import PointSet

# Default number of uniform guard digits appended past the input precision.
GUARD_DIGITS = 31


@dataclass(frozen=True)
class ScrambleSeed:
    """(64-bit master seed, replication index) uniquely fix the scramble."""

    master: int
    replication: int = 0

    def __post_init__(self):
        if not 0 <= self.master < 2 ** 64:
            raise ConfigurationError("master seed must fit in 64 bits")
        if self.replication < 0:
            raise ConfigurationError("replication index must be >= 0")

    def key(self) -> bytes:
        return self.master.to_bytes(8, "big") + self.replication.to_bytes(8, "big")


def default_precision(b: int, m: int) -> int:
    """Input precision plus guard digits, capped so prefix codes stay inside
    exact 62-bit integer arithmetic per coordinate."""
    cap = int(62 / math.log2(b))
    return max(m, min(m + GUARD_DIGITS, cap))


def _byte_stream(keyed, node: bytes) -> Iterator[int]:
    """Bytes of blake2b(node + counter) under the seed's key, for counter =
    0, 1, ...; ``keyed`` holds the keyed initial state and is copied, never
    updated."""
    counter = 0
    while True:
        h = keyed.copy()
        h.update(node + counter.to_bytes(4, "big"))
        yield from h.digest()
        counter += 1


def _permutation(b: int, keyed, node: bytes) -> list[int]:
    """A permutation of {0..b-1} drawn from the node's digest stream via
    Fisher-Yates with rejection sampling (stable across platforms)."""
    stream = _byte_stream(keyed, node)
    perm = list(range(b))
    for i in range(b - 1, 0, -1):
        bound = i + 1
        limit = 256 - 256 % bound
        while True:
            r = next(stream)
            if r < limit:
                break
        j = r % bound
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@functools.lru_cache(maxsize=1)
def _tree(ps: PointSet, p_out: int):
    """The permutation trees of every coordinate, as far as they depend on
    the input digits alone; the last net's trees are kept for its next
    replication (point sets hash by identity and their digits are frozen).

    Returns (digits, keys, levels): the input digits cut or zero-padded to
    p_out; keys[j][i], the coordinate tag followed by point i's digits, so
    that keys[j][i][:2 + d] names the node holding point i at depth d; and
    levels[j][d] = (node index of each point, one point per node).  Past the
    input digits, or once every point has a node of its own, the nodes stop
    splitting and the depths share one pair of arrays.
    """
    n, s, b = ps.n, ps.s, ps.b
    p_in = min(ps.precision, p_out)
    digits = np.zeros((n, s, p_out), dtype=np.uint8)
    digits[:, :, :p_in] = ps.digits[:, :, :p_in]
    keys, levels = [], []
    for j in range(s):
        tag = j.to_bytes(2, "big")
        keys.append([tag + row.tobytes() for row in digits[:, j]])
        node = np.zeros(n, dtype=np.int64)
        first = np.zeros(1, dtype=np.int64)
        per_depth = []
        for d in range(p_out):
            per_depth.append((node, first))
            if len(first) < n and d < p_in:
                _, first, node = np.unique(node * b + digits[:, j, d],
                                           return_index=True,
                                           return_inverse=True)
        levels.append(per_depth)
    return digits, keys, levels


def owen_scramble(ps: PointSet, seed: ScrambleSeed, precision: int | None = None) -> PointSet:
    """Scramble every coordinate through a fresh random permutation tree.

    Output digits beyond the input precision are i.i.d. uniform (each comes
    from a permutation keyed by a prefix that already distinguishes the
    points).  The result is again a valid point set with the same claimed t.
    """
    b, m = ps.b, ps.m
    p_out = default_precision(b, m) if precision is None else precision
    if p_out < m:
        raise ConfigurationError(f"output precision {p_out} must be >= m = {m}")
    digits, keys, levels = _tree(ps, p_out)
    keyed = hashlib.blake2b(key=seed.key(), digest_size=32)
    out = np.empty((ps.n, ps.s, p_out), dtype=np.uint8)
    for j in range(ps.s):
        for d, (node, first) in enumerate(levels[j]):
            perms = np.array(
                [_permutation(b, keyed, keys[j][i][:2 + d]) for i in first.tolist()],
                dtype=np.uint8)
            out[:, j, d] = perms[node, digits[:, j, d]]
    return PointSet(b=b, m=m, s=ps.s, t=ps.t, digits=out)


def replicate(ps: PointSet, master_seed: int, count: int,
              precision: int | None = None) -> Iterator[PointSet]:
    """Stream of independent scrambles; replication r uses
    (master_seed, r), so any prefix of the stream is run-length independent."""
    if count < 1:
        raise ConfigurationError(f"replication count must be >= 1, got {count}")
    for r in range(count):
        yield owen_scramble(ps, ScrambleSeed(master_seed, r), precision)
