"""Independent GF(2) checks for the benchmark, sharing no code with binframes.

Vectors are plain ints (coordinate i at bit i); a matrix is a tuple of row
words (row i, column j at bit j), the same packing binframes serializes, so
library outputs can be read without calling back into the library.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence


class CheckFailed(Exception):
    """A program output disagreed with what the benchmark knows it must be."""


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def apply(rows: Sequence[int], x: int) -> int:
    """Matrix-vector product: bit i of the result is row i dotted with x."""
    out = 0
    for i, r in enumerate(rows):
        if parity(r & x):
            out |= 1 << i
    return out


def columns(rows: Sequence[int], n_cols: int) -> list[int]:
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows))
            for j in range(n_cols)]


def is_unitary(rows: Sequence[int], n: int) -> bool:
    """U*U = I: the columns are pairwise orthogonal and each has odd weight."""
    if len(rows) != n:
        return False
    cols = columns(rows, n)
    return all(parity(cols[i] & cols[j]) == (i == j)
               for i in range(n) for j in range(n))


def spans(n: int, encs: Sequence[int]) -> bool:
    basis: list[int] = []
    for v in encs:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis) == n


def frame_operator(n: int, encs: Sequence[int]) -> list[int]:
    """Row i of S = sum of f f^T: XOR of the f whose bit i is set."""
    rows = [0] * n
    for f in encs:
        for i in range(n):
            if (f >> i) & 1:
                rows[i] ^= f
    return rows


def is_parseval(n: int, encs: Sequence[int]) -> bool:
    return frame_operator(n, encs) == [1 << i for i in range(n)]


def reconstructs(n: int, encs: Sequence[int], duals: Sequence[int]) -> bool:
    """y = sum((y, g_j) f_j) on every standard basis vector y."""
    if len(duals) != len(encs):
        return False
    for i in range(n):
        e = 1 << i
        acc = 0
        for f, g in zip(encs, duals):
            if parity(e & g):
                acc ^= f
        if acc != e:
            return False
    return True


def gram_row_weights(encs: Sequence[int]) -> list[int]:
    """Sorted row weights of the Grammian, a permutation invariant."""
    return sorted(sum(parity(a & b) for b in encs) for a in encs)


def key_row_weights(size: int, packed: bytes) -> list[int]:
    """Sorted row weights of the symmetric matrix a canonical key packs.

    The key holds the row-major upper triangle, diagonal included,
    MSB-first within each byte.
    """
    if len(packed) != (size * (size + 1) // 2 + 7) // 8:
        raise CheckFailed(f"key of size {size} packs {len(packed)} bytes")
    weights = [0] * size
    t = 0
    for i in range(size):
        for j in range(i, size):
            if (packed[t >> 3] >> (7 - (t & 7))) & 1:
                weights[i] += 1
                if j != i:
                    weights[j] += 1
            t += 1
    return sorted(weights)


def random_unitary(n: int, rng: random.Random) -> tuple[int, ...]:
    """Seeded orthogonal matrix over GF(2), built column by column.

    Each column is an odd-weight vector orthogonal to the earlier ones; a
    dead end (no such vector left) restarts the draw.
    """
    odd = [v for v in range(1, 1 << n) if parity(v)]
    while True:
        cols: list[int] = []
        while len(cols) < n:
            cands = [v for v in odd if all(not parity(v & c) for c in cols)]
            if not cands:
                break
            cols.append(rng.choice(cands))
        if len(cols) == n:
            rows = tuple(columns(cols, n))
            if not is_unitary(rows, n):
                raise CheckFailed("random_unitary built a non-unitary matrix")
            return rows


def direct_sum(n1: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a_i, 0) followed by (0, b_j); Parseval when both parts are."""
    return tuple(a) + tuple(x << n1 for x in b)


def weight_two_family(n: int) -> tuple[int, ...]:
    """Non-spanning family satisfying the scalar Parseval identity."""
    lo = 2 if n % 2 else 1
    pairs = tuple((1 << (i - 1)) | (1 << (j - 1))
                  for i in range(lo, n + 1) for j in range(i + 1, n + 1))
    return ((1,) + pairs) if n % 2 else pairs


def naive_parseval_count(n: int, k: int) -> int:
    """Parseval k-subsets of the nonzero vectors, by testing every subset."""
    ident = [1 << i for i in range(n)]
    return sum(1 for c in combinations(range(1, 1 << n), k)
               if frame_operator(n, c) == ident)
