"""Bit-packed exact linear algebra over the two-element field.

Vectors and matrices keep their entries in Python integers, one bit per
coordinate: coordinate i of a vector lives at bit i-1, so the vector
(1,0,1,1) is stored (and serialized) as the integer 13. Documentation and
the encoding rule are 1-indexed; bit positions are 0-indexed internally.

All values are immutable after construction and every operation is pure,
so everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


def _parity(word: int) -> int:
    return word.bit_count() & 1


@dataclass(frozen=True)
class BinVector:
    """Element of Z_2^n packed into an int (coordinate i at bit i-1)."""

    dim: int
    bits: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"vector dimension must be positive, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(
                f"encoding {self.bits} out of range for dimension {self.dim}")

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> "BinVector":
        """Build from coordinates (a_1, ..., a_n), values taken mod 2."""
        coords = list(coords)
        bits = 0
        for i, c in enumerate(coords):
            if c & 1:
                bits |= 1 << i
        return cls(len(coords), bits)

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
        limit = 1 << self.cols
        for r in self.row_bits:
            if not 0 <= r < limit:
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
        packed = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            word = 0
            for j, e in enumerate(r):
                if e & 1:
                    word |= 1 << j
            packed.append(word)
        return cls(len(rows), cols, tuple(packed))

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
        cols = []
        for j in range(self.cols):
            word = 0
            for i, r in enumerate(self.row_bits):
                if (r >> j) & 1:
                    word |= 1 << i
            cols.append(word)
        return BinMatrix(self.cols, self.rows, tuple(cols))

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


def rank(A: BinMatrix) -> int:
    """GF(2) row rank by Gaussian elimination.

    Pivots are chosen at the lowest row index, lowest column index, so the
    elimination order is deterministic.
    """
    rows = list(A.row_bits)
    m = len(rows)
    r = 0
    for c in range(A.cols):
        mask = 1 << c
        piv = next((i for i in range(r, m) if rows[i] & mask), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(m):
            if i != r and rows[i] & mask:
                rows[i] ^= rows[r]
        r += 1
        if r == m:
            break
    return r


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
    r = 0
    for c in range(n):
        mask = 1 << c
        piv = next((i for i in range(r, n) if aug[i] & mask), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(n):
            if i != r and aug[i] & mask:
                aug[i] ^= aug[r]
        r += 1
    return BinMatrix(n, n, tuple(row >> n for row in aug))


def is_unitary(U: BinMatrix) -> bool:
    """True iff U*U = I; squareness then forces invertibility."""
    if not U.is_square():
        raise ValueError(f"unitarity of non-square {U.rows}x{U.cols} matrix")
    return all(row == 1 << i for i, row in enumerate(mat_mul(U.transpose(), U).row_bits))


def select_basis(vectors: list[BinVector], dim: int) -> Optional[list[int]]:
    """Pick the lexicographically-first maximal independent subset.

    Greedy elimination over the vectors in order; returns their 1-based
    indices (matching the coordinate convention) once dim independent
    vectors are found, or None when the family does not span.
    """
    pivots: list[tuple[int, int]] = []  # (pivot bit, reduced row)
    chosen: list[int] = []
    for idx, v in enumerate(vectors):
        if v.dim != dim:
            raise ValueError(f"dimension mismatch: {v.dim} vs {dim}")
        w = v.bits
        for p, row in pivots:
            if (w >> p) & 1:
                w ^= row
        if w:
            pivots.append(((w & -w).bit_length() - 1, w))
            chosen.append(idx + 1)
            if len(chosen) == dim:
                return chosen
    return None
