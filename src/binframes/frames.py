"""Frames and Parseval frames over binary vector spaces.

A family of vectors in Z_2^n is a frame when it spans. A Parseval frame
additionally reconstructs every x as the sum of (x, f_j) f_j, which holds
exactly when the frame operator S equals the identity. The type admits
non-frames, repeats and zero vectors on purpose: the properties in this
module are exercised on degenerate inputs rather than forbidding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .gf2 import (BinMatrix, BinVector, _independent, _outer_rows, _plain_words,
                  inverse, mat_mul, rank)


@dataclass(frozen=True)
class Frame:
    """Ordered finite family of vectors in Z_2^n; order is significant.

    Stores the integer encodings; `vectors` derives the BinVectors."""

    dim: int
    encodings: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        union = _plain_words(self, "encodings", "encoding")
        if union < 0 or union.bit_length() > self.dim:
            e = next(e for e in self.encodings if e < 0 or e.bit_length() > self.dim)
            raise ValueError(f"encoding {e} out of range for Z_2^{self.dim}")

    @classmethod
    def from_encodings(cls, dim: int, encodings: Sequence[int]) -> "Frame":
        return cls(dim, tuple(encodings))

    @property
    def size(self) -> int:
        return len(self.encodings)

    @property
    def vectors(self) -> tuple[BinVector, ...]:
        return tuple(BinVector(self.dim, e) for e in self.encodings)

    def analysis_matrix(self) -> BinMatrix:
        """The k x n matrix with the frame vectors as rows."""
        return BinMatrix(self.size, self.dim, self.encodings)


def parse_frame(text: str) -> Frame:
    """Parse the frame literal grammar `n; v1,v2,...,vk`.

    Whitespace-insensitive; the vector list may be empty. This exact
    grammar is shared by the CLI and the golden files.
    """
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError(f"missing ';' in frame literal {text!r}")
    try:
        dim = int(head.strip())
    except ValueError:
        raise ValueError(f"bad dimension in frame literal {text!r}") from None
    if dim < 1:
        raise ValueError(f"dimension must be positive in {text!r}")
    tail = tail.strip()
    if not tail:
        return Frame(dim, ())
    try:
        encodings = [int(p.strip()) for p in tail.split(",")]
    except ValueError:
        raise ValueError(f"bad vector list in frame literal {text!r}") from None
    return Frame.from_encodings(dim, encodings)


def format_frame(frame: Frame) -> str:
    if not frame.encodings:
        return f"{frame.dim};"
    return f"{frame.dim}; " + ",".join(str(e) for e in frame.encodings)


@dataclass(frozen=True)
class FrameOperators:
    """Analysis, synthesis, frame and Grammian operators of one family."""

    analysis: BinMatrix    # k x n, frame vectors as rows
    synthesis: BinMatrix   # n x k, transpose of analysis
    frame_op: BinMatrix    # n x n, S = synthesis * analysis
    grammian: BinMatrix    # k x k, G = analysis * synthesis


def frame_operators(frame: Frame) -> FrameOperators:
    theta = frame.analysis_matrix()
    theta_star = theta.transpose()
    return FrameOperators(
        analysis=theta,
        synthesis=theta_star,
        frame_op=mat_mul(theta_star, theta),
        grammian=mat_mul(theta, theta_star),
    )


def grammian(frame: Frame) -> BinMatrix:
    """The k x k Grammian; entry (i, j) is (f_j, f_i).

    G = sum(c c^T) over the columns c of the analysis matrix, keyed by
    their bit, so the cost follows the set bits and not n."""
    cols: dict[int, int] = {}
    bit = 1
    for f in frame.encodings:
        while f:
            low = f & -f
            cols[low] = cols.get(low, 0) | bit
            f ^= low
        bit <<= 1
    return BinMatrix(frame.size, frame.size,
                     tuple(_outer_rows(zip(cols.values(), cols.values()), frame.size)))


def is_frame(frame: Frame) -> bool:
    """True iff the family spans Z_2^n."""
    return rank(frame.analysis_matrix()) == frame.dim


def is_parseval(frame: Frame) -> bool:
    """True iff the frame operator S = sum(f_j f_j^T) equals the identity;
    one XOR per set bit of the f_j. S has rank at most k, so fewer than n
    vectors are refused before any row is built."""
    if frame.size < frame.dim:
        return False
    S = _outer_rows(zip(frame.encodings, frame.encodings), frame.dim)
    return all(row == 1 << i for i, row in enumerate(S))


def compute_dual(frame: Frame) -> Optional[tuple[BinVector, ...]]:
    """Construct a dual family giving y = sum((y, g_j) f_j), or None.

    When the family spans, the duals are zero outside the
    lexicographically-first basis subset; on that subset they are the
    columns of the inverse of the n x n basis submatrix (the dual basis).
    Returns None when the family is not a frame.
    """
    n, encs = frame.dim, frame.encodings
    basis = _independent(encs, n)
    if len(basis) < n:
        return None
    # the inverse of the basis submatrix's transpose holds the duals as rows
    sub_t = _outer_rows(((1 << c, encs[i]) for c, i in enumerate(basis)), n)
    inv = inverse(BinMatrix(n, n, tuple(sub_t)))
    if inv is None:
        raise RuntimeError("basis submatrix of a spanning family is singular")
    duals = [BinVector(n, 0)] * frame.size
    for i, g in zip(basis, inv.row_bits):
        duals[i] = BinVector(n, g)
    if not verify_reconstruction(frame, duals):
        raise RuntimeError("constructed duals fail to reconstruct")
    return tuple(duals)


def verify_reconstruction(frame: Frame, duals: Sequence[BinVector]) -> bool:
    """True iff y = sum((y, d_j) f_j) for every y in Z_2^n.

    By bilinearity it suffices to check the n standard basis vectors, so
    only the nonzero duals are read; the full sweep over 2^n vectors is
    only used as a test oracle.
    """
    if len(duals) != frame.size:
        raise ValueError(
            f"family size mismatch: {frame.size} vectors, {len(duals)} duals")
    n = frame.dim
    for d in duals:
        if d.dim != n:
            raise ValueError(f"dual of dimension {d.dim} against Z_2^{n}")
    pairs = [(f, d.bits) for f, d in zip(frame.encodings, duals) if d.bits]
    if len(pairs) < n:  # the sum has rank at most len(pairs)
        return False
    images = _outer_rows(pairs, n)
    return all(image == 1 << i for i, image in enumerate(images))


def parseval_identity_holds(frame: Frame) -> bool:
    """Scalar identity sum((x, f_j)^2) = (x, x) checked over all 2^n x.

    Weaker than being a Parseval frame: some non-spanning families satisfy
    it, see weight_two_family. The sweep covers all 2^n vectors, so n > 16
    is refused.
    """
    n = frame.dim
    if n > 16:
        raise ValueError(
            f"the identity check sweeps all 2^n vectors; need n <= 16, got {n}")
    encs = frame.encodings
    for x in range(1 << n):
        lhs = 0
        for e in encs:
            lhs ^= (x & e).bit_count() & 1
        if lhs != x.bit_count() & 1:
            return False
    return True


def weight_two_family(n: int) -> Frame:
    """The standard family satisfying the scalar identity without spanning.

    For even n, all C(n, 2) vectors with exactly two ones (every
    coordinate appears in n-1 of them, an odd count). For odd n, the first
    standard basis vector together with the weight-two family on
    coordinates 2..n. Linear combinations keep an even weight on the
    relevant coordinates, so the family never spans. It is made for the
    2^n sweep of parseval_identity_holds, so n > 16 is refused.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"need 2 <= n <= 16, got {n}")
    lo = 2 if n % 2 else 1
    pairs = [(1 << (i - 1)) | (1 << (j - 1))
             for i in range(lo, n + 1) for j in range(i + 1, n + 1)]
    encs = ([1] + pairs) if n % 2 else pairs
    return Frame.from_encodings(n, encs)


def shift_matrix(n: int) -> BinMatrix:
    """Length-preserving but rank-deficient map: (Ax, Ax) = (x, x) always.

    Entry (i, j) is 1 when i = j = 1 or j - i = 1, so A sends
    (a_1, ..., a_n) to (a_1 + a_2, a_3, ..., a_n, 0). The last row is
    zero, hence rank n-1 and no inverse, yet the quadratic form is
    preserved; no unitary behaves this way over the reals. Checking that
    takes a sweep over all 2^n vectors, so n > 16 is refused.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"need 2 <= n <= 16, got {n}")
    # row i < n is e_{i+1}, plus e_1 in row 1
    return BinMatrix(n, n, (3,) + tuple(1 << i for i in range(2, n)) + (0,))
