"""Bit-packed exact linear algebra over the two-element field.

Vectors and matrices keep their entries in Python integers, one bit per
coordinate: coordinate i of a vector lives at bit i-1, so the vector
(1,0,1,1) is stored (and serialized) as the integer 13. Documentation and
the encoding rule are 1-indexed; bit positions are 0-indexed internally.

All values are immutable after construction and every operation is pure,
so everything here is safe to share between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional


def _parity(word: int) -> int:
    return word.bit_count() & 1


def _outer_rows(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """The n rows of sum(a b^T) over the pairs (a, b): row i is the XOR of
    the a whose b has bit i set, so each set bit of a b costs one XOR."""
    rows = [0] * n
    for a, b in pairs:
        while b:
            low = b & -b
            rows[low.bit_length() - 1] ^= a
            b ^= low
    return rows


def _plain_words(obj: object, field: str, noun: str) -> int:
    """The OR of the ints in obj.field, negative iff one is; its bit length
    is the largest. A field that is not a tuple of exact ints (a list,
    bools, another integer type) is stored back as one; ValueError names a
    value that is not an integer. A tuple of ints takes one pass."""
    words, union = getattr(obj, field), 0
    if type(words) is tuple:
        for w in words:
            if type(w) is not int:
                break
            union |= w
        else:
            return union
    plain = []
    for w in words:
        try:
            plain.append(operator.index(w))
        except TypeError:
            raise ValueError(f"{noun} {w!r} is not an integer") from None
        union |= plain[-1]
    object.__setattr__(obj, field, tuple(plain))
    return union


@dataclass(frozen=True)
class BinVector:
    """Element of Z_2^n packed into an int (coordinate i at bit i-1)."""

    dim: int
    bits: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"vector dimension must be positive, got {self.dim}")
        if self.bits < 0 or self.bits.bit_length() > self.dim:
            raise ValueError(
                f"encoding {self.bits} out of range for dimension {self.dim}")

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> "BinVector":
        """Build from coordinates (a_1, ..., a_n), values taken mod 2."""
        coords = list(coords)
        return cls(len(coords), sum(1 << i for i, c in enumerate(coords) if c & 1))

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.dim))

    def coord(self, i: int) -> int:
        """Coordinate a_i, 1-indexed."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"coordinate {i} out of range 1..{self.dim}")
        return (self.bits >> (i - 1)) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "BinVector") -> "BinVector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return BinVector(self.dim, self.bits ^ other.bits)

    __xor__ = __add__

    def __str__(self) -> str:
        return "".join(str(b) for b in self.coords())


@dataclass(frozen=True)
class BinMatrix:
    """m x n matrix over GF(2), row-major packed (row i, column j at bit j-1).

    Zero-row and zero-column shapes are permitted; they arise as operators
    of the empty vector family.
    """

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"bad shape {self.rows}x{self.cols}")
        if len(self.row_bits) != self.rows:
            raise ValueError(
                f"expected {self.rows} rows, got {len(self.row_bits)}")
        union = _plain_words(self, "row_bits", "row word")
        if union < 0 or union.bit_length() > self.cols:
            r = next(r for r in self.row_bits if r < 0 or r.bit_length() > self.cols)
            raise ValueError(f"row word {r} out of range for {self.cols} columns")

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BinMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def from_lists(cls, entries: Iterable[Iterable[int]], cols: Optional[int] = None) -> "BinMatrix":
        rows = [list(r) for r in entries]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols,
                   tuple(sum(1 << j for j, e in enumerate(r) if e & 1) for r in rows))

    @classmethod
    def from_row_encodings(cls, rows: int, cols: int,
                           encodings: Iterable[int]) -> "BinMatrix":
        """Deserialize from (rows, cols) plus the list of row encodings."""
        return cls(rows, cols, tuple(encodings))

    def to_row_encodings(self) -> tuple[int, int, list[int]]:
        """Serialize as (rows, cols, row encodings); bit-exact round trip."""
        return self.rows, self.cols, list(self.row_bits)

    def entry(self, i: int, j: int) -> int:
        """Entry at 0-indexed row i, column j."""
        return (self.row_bits[i] >> j) & 1

    def row(self, i: int) -> BinVector:
        return BinVector(self.cols, self.row_bits[i])

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.row_bits]

    def transpose(self) -> "BinMatrix":
        """The sum of e_i r_i^T over the rows r_i: one XOR per set entry."""
        units = (1 << i for i in range(self.rows))
        return BinMatrix(self.cols, self.rows,
                         tuple(_outer_rows(zip(units, self.row_bits), self.cols)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self.row_bits == self.transpose().row_bits

    def __str__(self) -> str:
        return "\n".join(
            "".join(str((r >> j) & 1) for j in range(self.cols))
            for r in self.row_bits)


def dot(x: BinVector, y: BinVector) -> int:
    """Dot product sum(a_i * b_i) mod 2; parity of the bitwise AND.

    Symmetric and bilinear, but degenerate: every even-weight vector
    pairs to 0 with itself.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return _parity(x.bits & y.bits)


def mat_vec(A: BinMatrix, x: BinVector) -> BinVector:
    """Apply A to x by left multiplication."""
    if A.cols != x.dim:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} times dim {x.dim}")
    out = 0
    for i, r in enumerate(A.row_bits):
        if _parity(r & x.bits):
            out |= 1 << i
    return BinVector(A.rows, out)


def mat_mul(A: BinMatrix, B: BinMatrix) -> BinMatrix:
    """Matrix product over GF(2).

    Row i of the product is the XOR of the rows of B selected by the set
    bits of row i of A, so the cost is one word-XOR per set entry.
    """
    if A.cols != B.rows:
        raise ValueError(
            f"shape mismatch: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    out = []
    for r in A.row_bits:
        acc = 0
        w = r
        while w:
            j = (w & -w).bit_length() - 1
            acc ^= B.row_bits[j]
            w &= w - 1
        out.append(acc)
    return BinMatrix(A.rows, B.cols, tuple(out))


def _independent(words: Iterable[int], limit: int) -> list[int]:
    """0-based indices of the words independent of the words before them,
    by greedy elimination, stopping once `limit` are found. Pivots are
    keyed by their top bit: one XOR per pivot a word meets."""
    pivots: dict[int, int] = {}
    chosen: list[int] = []
    for idx, w in enumerate(words):
        while w and (top := w.bit_length()) in pivots:
            w ^= pivots[top]
        if w:
            pivots[top] = w
            chosen.append(idx)
            if len(chosen) == limit:
                break
    return chosen


def rank(A: BinMatrix) -> int:
    """GF(2) row rank: the number of rows independent of those before."""
    return len(_independent(A.row_bits, A.cols))


def inverse(A: BinMatrix) -> Optional[BinMatrix]:
    """Inverse of a square matrix, or None when the rank is deficient.

    A singular input is an expected outcome during enumeration, not a
    fault, hence the None return rather than an exception.
    """
    if not A.is_square():
        raise ValueError(f"inverse of non-square {A.rows}x{A.cols} matrix")
    n = A.rows
    # augmented rows: original bits in the low n positions, identity above
    aug = [A.row_bits[i] | (1 << (n + i)) for i in range(n)]
    for c in range(n):
        mask = 1 << c
        for piv in range(c, n):
            if aug[piv] & mask:
                break
        else:
            return None
        row = aug[piv]
        aug[piv], aug[c] = aug[c], row
        for i in range(n):
            if i != c and aug[i] & mask:
                aug[i] ^= row
    return BinMatrix(n, n, tuple([row >> n for row in aug]))


def is_unitary(U: BinMatrix) -> bool:
    """True iff U*U = I; squareness then forces invertibility. U*U is the
    sum of r r^T over the rows r of U, summed on the words."""
    if not U.is_square():
        raise ValueError(f"unitarity of non-square {U.rows}x{U.cols} matrix")
    UU = _outer_rows(zip(U.row_bits, U.row_bits), U.rows)
    return all(row == 1 << i for i, row in enumerate(UU))


def select_basis(vectors: list[BinVector], dim: int) -> Optional[list[int]]:
    """Pick the lexicographically-first maximal independent subset.

    Greedy elimination over the vectors in order; returns their 1-based
    indices (matching the coordinate convention) once dim independent
    vectors are found, or None when the family does not span.
    """
    def words():
        for v in vectors:
            if v.dim != dim:
                raise ValueError(f"dimension mismatch: {v.dim} vs {dim}")
            yield v.bits
    chosen = _independent(words(), dim)
    return [i + 1 for i in chosen] if len(chosen) == dim > 0 else None
