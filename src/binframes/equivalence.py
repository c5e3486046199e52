"""Unitary and switching equivalence of Parseval frames.

Two Parseval frames are unitarily equivalent exactly when their Grammians
are equal, and switching equivalent exactly when their Grammians are
conjugate by a permutation matrix. The permutation-conjugation orbit is
fingerprinted by a canonical key: the lexicographically minimal row-major
upper triangle over all simultaneous row/column permutations.

The Grammian criteria are only proven for Parseval frames, so the
equivalence operations refuse other inputs instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BinMatrix, is_unitary, mat_mul, mat_vec
from .frames import Frame, grammian, is_parseval


class ShapeMismatchError(ValueError):
    """Frames of unequal dimension or size were compared."""


class NotParsevalError(ValueError):
    """An equivalence test received a non-Parseval frame."""


class RepeatsPresentError(ValueError):
    """Set-theoretic complement of a family with repeated vectors."""


class DimensionTooSmallError(ValueError):
    """Complement duality needs n >= 3."""


KEY_SIZE_MAX = 256  # the key search recurses once per vector, keeping ~k^3/3 bits


def _check_key_size(k: int) -> None:
    if k > KEY_SIZE_MAX:
        raise ValueError(f"canonical keys need k <= {KEY_SIZE_MAX} vectors, got {k}")


def is_trivially_redundant(frame: Frame) -> bool:
    """True iff the family contains the zero vector or a repeated vector."""
    encs = frame.encodings
    return 0 in encs or len(set(encs)) < len(encs)


@dataclass(frozen=True)
class CanonicalKey:
    """Stable fingerprint of a Grammian's permutation-conjugation orbit.

    The packed bytes hold the upper triangle (row-major, diagonal
    included) of the minimal conjugate, MSB-first within each byte. The
    text form `k<size>:<hex>` is the class identifier used in catalogs.
    """

    size: int
    packed: bytes

    def __str__(self) -> str:
        return f"k{self.size}:{self.packed.hex()}"

    @classmethod
    def from_bits(cls, size: int, bits: tuple[int, ...]) -> "CanonicalKey":
        if len(bits) != size * (size + 1) // 2:
            raise RuntimeError(f"{len(bits)} bits for a key of size {size}")
        out = bytearray((len(bits) + 7) // 8)
        for t, b in enumerate(bits):
            if b:
                out[t >> 3] |= 0x80 >> (t & 7)
        return cls(size, bytes(out))


def _children(rows: tuple[int, ...], diag: list[int], cells: list[list[int]],
              skip: int = 0) -> list[tuple]:
    """(row, v, cells) for each child of a key-search node, sorted by (row, v):
    v comes from the first cell, less the vertices set in skip, every cell
    splits by adjacency to v (zeros first), and row is the one row of the
    upper triangle that v fixes."""
    head = cells[0]
    # interchangeable candidates (identical rows off their own columns)
    # produce identical subtrees; keep the first of each group
    cands: list[int] = []
    for v in head:
        if skip >> v & 1:
            continue
        for u in cands:
            mask = ~((1 << v) | (1 << u))
            if diag[v] == diag[u] and (rows[v] & mask) == (rows[u] & mask):
                break
        else:
            cands.append(v)
    options = []
    for v in cands:
        rest = [u for u in head if u != v]
        new_cells = []
        row = [diag[v]]
        for cell in ([rest] if rest else []) + cells[1:]:
            c0 = [u for u in cell if not (rows[v] >> u) & 1]
            c1 = [u for u in cell if (rows[v] >> u) & 1]
            if c0:
                new_cells.append(c0)
                row.extend([0] * len(c0))
            if c1:
                new_cells.append(c1)
                row.extend([1] * len(c1))
        options.append((row, v, new_cells))
    options.sort(key=lambda t: (t[0], t[1]))
    return options


def _leaf(rows: tuple[int, ...], diag: list[int],
          cells: list[list[int]]) -> tuple[list[int], list[int]]:
    """(order, string) of the one leaf below a discrete partition: the
    vertices in cell order, and the rows they fix, each its diagonal bit
    followed by its adjacency to the vertices after it."""
    order = [cell[0] for cell in cells]
    string: list[int] = []
    for i, v in enumerate(order):
        r = rows[v]
        string.append(diag[v])
        string.extend([(r >> u) & 1 for u in order[i + 1:]])
    return order, string


def _min_lex_form(rows: tuple[int, ...], auts: tuple[tuple[int, ...], ...] | None = None
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal upper-triangle string of a symmetric bit matrix.

    rows[i] holds row i with column j at bit j. Returns (bits, perm) with
    bits the row-major upper triangle of the minimum over all simultaneous
    permutations, and perm the witness: min[i][j] = G[perm[i]][perm[j]].

    Backtracking over _children's ordered partitions of the indices;
    pruning compares exact contiguous prefixes against the incumbent, which
    only a strictly smaller leaf replaces. Candidate order (diagonal,
    produced row) lands a near-minimal incumbent on the first descent.
    A discrete partition (every cell a singleton) has exactly one leaf
    below it, so its string is read off by _leaf and compared whole.

    auts, when given, is a group of automorphisms as bitsets: bit j of
    auts[v][w] is set when element j sends index v to w, and each auts[v]
    partitions the group. A node's group H fixes its prefix pointwise (the
    whole group at the root). Of each H-orbit in the head cell only the
    least vertex is a child: the others have its row, so they come after
    it, and their subtrees are images of its subtree, whose leaves come
    earlier with the same strings. A child v recurses with H & auts[v][v].
    So the first minimal leaf, and with it bits and perm, are those of the
    search without auts.
    """
    k = len(rows)
    diag = [(rows[i] >> i) & 1 for i in range(k)]
    best: list[int] | None = None
    best_perm: tuple[int, ...] = ()

    def dfs(fixed: list[int], cells: list[list[int]], built: list[int], H: int) -> None:
        nonlocal best, best_perm
        if best is not None and built > best[:len(built)]:
            return
        if len(cells) == k - len(fixed):
            order, string = _leaf(rows, diag, cells)
            leaf = built + string
            if best is None or leaf < best:
                best, best_perm = leaf, tuple(fixed + order)
            return
        skip = 0  # the head vertices in the H-orbit of a smaller one
        if H & (H - 1):  # more than the identity
            head = cells[0]
            for i, v in enumerate(head):
                if not skip >> v & 1:
                    moves = auts[v]
                    for w in head[i + 1:]:
                        if moves[w] & H:
                            skip |= 1 << w
        for row, v, new_cells in _children(rows, diag, cells, skip):
            fixed.append(v)
            dfs(fixed, new_cells, built + row, H & auts[v][v] if H else 0)
            fixed.pop()

    # the bitsets of auts[0] are disjoint, so their sum is the group
    dfs([], [list(range(k))] if k else [], [], sum(auts[0]) if auts else 0)
    if best is None:
        raise RuntimeError("canonical form search visited no leaf")
    return tuple(best), best_perm


def _match_form(rows: tuple[int, ...], target: tuple[int, ...]) -> tuple[int, ...] | None:
    """perm of the first leaf, in _min_lex_form's order, whose string is
    target, else None. dfs: True at that leaf, False when a subtree has
    none, None at a row below target's (the minimum is then below target).
    At a discrete partition the one leaf's remaining string (_leaf) is
    compared with the rest of target in one step."""
    k = len(rows)
    diag = [(r >> i) & 1 for i, r in enumerate(rows)]
    want, fixed = list(target), []

    def dfs(cells: list[list[int]], at: int) -> bool | None:
        if len(cells) == k - len(fixed):
            order, string = _leaf(rows, diag, cells)
            if string != (rest := want[at:]):
                return None if string < rest else False
            fixed.extend(order)
            return True
        for row, v, new_cells in _children(rows, diag, cells):
            if row != (part := want[at:at + len(row)]):
                return None if row < part else False
            fixed.append(v)
            if (found := dfs(new_cells, at + len(row))) is not False:
                return found
            fixed.pop()
        return False

    return tuple(fixed) if dfs([list(range(k))] if k else [], 0) else None


def canonical_key(G: BinMatrix) -> CanonicalKey:
    """Canonical key of a symmetric matrix; equal keys iff the matrices
    are conjugate by a permutation matrix."""
    _check_key_size(G.rows)
    if not G.is_symmetric():
        raise ValueError("canonical key needs a symmetric square matrix")
    bits, _ = _min_lex_form(G.row_bits)
    return CanonicalKey.from_bits(G.rows, bits)


def _require_comparable(F: Frame, H: Frame) -> None:
    if F.dim != H.dim or F.size != H.size:
        raise ShapeMismatchError(
            f"cannot compare {F.size} vectors in Z_2^{F.dim} "
            f"with {H.size} vectors in Z_2^{H.dim}")
    if not is_parseval(F) or not is_parseval(H):
        raise NotParsevalError(
            "the Grammian criterion is only proven for Parseval frames")


def _unitary_witness(F: Frame, H: Frame) -> BinMatrix:
    """U = synthesis(H) * analysis(F), checked unitary with U f_i = h_i:
    analysis(F) times row j of U holds coordinate j of every U f_i, one
    word compared with row j of synthesis(H). Callers pass Parseval frames
    with equal Grammians, for which U is such a witness; a failed check is
    a fault here, not a negative verdict.
    """
    synth, A = H.analysis_matrix().transpose(), F.analysis_matrix()
    U = mat_mul(synth, A)
    if not is_unitary(U) or any(
            mat_vec(A, U.row(j)).bits != s for j, s in enumerate(synth.row_bits)):
        raise RuntimeError("unitary witness failed its check")
    return U


def unitary_equivalent(F: Frame, H: Frame) -> BinMatrix | None:
    """Unitary U with U f_i = h_i for all i, or None.

    For Parseval frames this succeeds exactly when the Grammians are
    equal, and then U = synthesis(H) * analysis(F) is a witness.
    """
    _require_comparable(F, H)
    if grammian(F).row_bits != grammian(H).row_bits:
        return None
    return _unitary_witness(F, H)


def switching_equivalent(F: Frame, H: Frame) -> tuple[BinMatrix, tuple[int, ...]] | None:
    """Witness (U, pi) with f_j = U h_pi(j) for all j, or None.

    pi is 0-based. Grammians whose sorted (diagonal bit, row weight) pairs
    differ are not conjugate: None at once. Otherwise H's Grammian is
    matched against F's canonical key; both leaves index one canonical
    form, which gives pi, and U is the unitary-equivalence witness of the
    permuted family. The witness is verified before it is returned.
    """
    _check_key_size(max(F.size, H.size))
    _require_comparable(F, H)
    rows_f, rows_h = grammian(F).row_bits, grammian(H).row_bits
    pairs_f, pairs_h = (sorted((r >> i & 1, r.bit_count()) for i, r in enumerate(rows))
                        for rows in (rows_f, rows_h))
    if pairs_f != pairs_h:
        return None
    bits_f, perm_f = _min_lex_form(rows_f)
    perm_h = _match_form(rows_h, bits_f)
    if perm_h is None:
        return None
    # pi[perm_f[i]] = perm_h[i]: both index row i of the common canonical form
    pi = tuple(h for _, h in sorted(zip(perm_f, perm_h)))
    permuted = Frame(H.dim, tuple(H.encodings[p] for p in pi))
    return _unitary_witness(permuted, F), pi


def complement(frame: Frame, drop_zero: bool = False) -> Frame:
    """Set-theoretic complement in Z_2^n, vectors in ascending encoding.

    For n >= 3 the complement of a no-repeat Parseval frame is again
    Parseval (with or without the zero vector, which contributes nothing
    to the frame operator), and complements preserve switching
    equivalence. Both facts need set semantics, so repeated vectors are
    rejected. The sweep covers all 2^n vectors, so n > 16 is refused.
    """
    if frame.dim < 3:
        raise DimensionTooSmallError(
            f"complement duality needs n >= 3, got n = {frame.dim}")
    if frame.dim > 16:
        raise ValueError(
            f"complement sweeps all 2^n vectors; need n <= 16, got {frame.dim}")
    encs = frame.encodings
    present = set(encs)
    if len(present) < len(encs):
        raise RepeatsPresentError("complement of a family with repeated vectors")
    rest = [v for v in range(1 << frame.dim) if v not in present]
    if drop_zero:
        rest = [v for v in rest if v != 0]
    return Frame.from_encodings(frame.dim, rest)
