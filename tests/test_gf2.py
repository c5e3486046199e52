import random

import pytest
from hypothesis import given, settings, strategies as st

from binframes.gf2 import (BinMatrix, BinVector, dot, inverse, is_unitary,
                           mat_mul, mat_vec, rank, select_basis)
from binframes.frames import shift_matrix

from oracles import (dot_naive, identity_naive, inverse_naive, matmul_naive,
                     rank_naive, transpose_naive, vec_of)


def bm(lists):
    return BinMatrix.from_lists(lists)


def test_dot_examples():
    assert dot(BinVector(4, 13), BinVector(4, 13)) == 1
    assert dot(BinVector(2, 3), BinVector(2, 3)) == 0
    # frozen from the AND-popcount oracle over all 64 pairs in Z_2^3
    assert dot(BinVector(3, 5), BinVector(3, 6)) == 1
    for a in range(8):
        for b in range(8):
            assert dot(BinVector(3, a), BinVector(3, b)) == dot_naive(
                vec_of(a, 3), vec_of(b, 3))


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(BinVector(3, 5), BinVector(4, 5))


def test_dot_symmetric_bilinear_exhaustive():
    for n in range(1, 5):
        vecs = [BinVector(n, v) for v in range(1 << n)]
        for x in vecs:
            for y in vecs:
                assert dot(x, y) == dot(y, x)
                for z in vecs:
                    assert dot(x + z, y) == (dot(x, y) + dot(z, y)) % 2


def test_dot_nondegenerate_pairing():
    # (x, y) = 0 for all y forces x = 0 (and only x = 0)
    for n in range(1, 5):
        for x in range(1 << n):
            annihilates = all(
                dot(BinVector(n, x), BinVector(n, y)) == 0
                for y in range(1 << n))
            assert annihilates == (x == 0)


def test_even_weight_vectors_have_zero_self_dot():
    for n in range(1, 6):
        for x in range(1 << n):
            v = BinVector(n, x)
            assert dot(v, v) == v.weight() % 2


def test_vector_encoding_convention():
    v = BinVector.from_coords([1, 0, 1, 1])
    assert v.bits == 13
    assert v.coords() == (1, 0, 1, 1)
    assert v.coord(1) == 1 and v.coord(2) == 0
    with pytest.raises(ValueError):
        BinVector(3, 8)


def test_mat_mul_identity():
    rng = random.Random(1)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = BinMatrix(m, n, tuple(rng.randrange(1 << n) for _ in range(m)))
        assert mat_mul(BinMatrix.identity(m), A) == A
        assert mat_mul(A, BinMatrix.identity(n)) == A


def test_mat_mul_shift_square():
    # A sends x to (a1+a2, a3, ..., 0), so A^2 sends x to (a1+a2+a3, 0, ..., 0);
    # frozen from the naive triple-loop oracle
    A = shift_matrix(3)
    sq = mat_mul(A, A)
    assert sq.to_lists() == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]
    assert sq.to_lists() == matmul_naive(A.to_lists(), A.to_lists())
    # the pure superdiagonal shift, by contrast, squares to a single corner 1
    N = bm([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert mat_mul(N, N).to_lists() == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]


def test_mat_mul_synthesis_analysis_is_identity_for_parseval():
    theta = BinMatrix(4, 3, (3, 5, 6, 7))
    assert mat_mul(theta.transpose(), theta) == BinMatrix.identity(3)


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul(bm([[1, 0]]), bm([[1, 0]]))


def test_transpose_involution_and_product_rule():
    rng = random.Random(2)
    for _ in range(50):
        m, p, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A = BinMatrix(m, p, tuple(rng.randrange(1 << p) for _ in range(m)))
        B = BinMatrix(p, n, tuple(rng.randrange(1 << n) for _ in range(p)))
        assert A.transpose().transpose() == A
        assert mat_mul(A, B).transpose() == mat_mul(B.transpose(), A.transpose())


def test_adjoint_identity_exhaustive_small():
    # (Ax, y) = (x, A*y) for every A and every pair, all shapes m, n <= 3
    for m in range(1, 4):
        for n in range(1, 4):
            for bits in range(1 << (m * n)):
                rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(m))
                A = BinMatrix(m, n, rows)
                At = A.transpose()
                for x in range(1 << n):
                    ax = mat_vec(A, BinVector(n, x))
                    for y in range(1 << m):
                        yv = BinVector(m, y)
                        assert dot(ax, yv) == dot(BinVector(n, x), mat_vec(At, yv))


def test_adjoint_identity_exhaustive_to_4x4():
    # every A with m, n <= 4 against every (x, y) pair, vectorized:
    # lhs[a,x,y] = (Ax, y), rhs[a,x,y] = (x, A*y), both mod 2
    import numpy as np
    for m in range(1, 5):
        for n in range(1, 5):
            count = 1 << (m * n)
            words = np.arange(count, dtype=np.uint32)
            A = np.zeros((count, m, n), dtype=np.uint8)
            for i in range(m):
                for j in range(n):
                    A[:, i, j] = (words >> (n * i + j)) & 1
            X = np.array([[(x >> j) & 1 for j in range(n)]
                          for x in range(1 << n)], dtype=np.uint8)
            Y = np.array([[(y >> i) & 1 for i in range(m)]
                          for y in range(1 << m)], dtype=np.uint8)
            AX = np.einsum("aij,xj->axi", A, X) % 2
            lhs = np.einsum("axi,yi->axy", AX, Y) % 2
            ATY = np.einsum("aij,yi->ayj", A, Y) % 2
            rhs = np.einsum("xj,ayj->axy", X, ATY) % 2
            assert np.array_equal(lhs, rhs)
    # spot-check the packed implementation against the same statement
    rng = random.Random(3)
    for _ in range(100):
        A = BinMatrix(4, 4, tuple(rng.randrange(16) for _ in range(4)))
        At = A.transpose()
        for x in range(16):
            ax = mat_vec(A, BinVector(4, x))
            for y in range(16):
                yv = BinVector(4, y)
                assert dot(ax, yv) == dot(BinVector(4, x), mat_vec(At, yv))


def test_rank_examples():
    for n in range(1, 7):
        assert rank(BinMatrix.identity(n)) == n
    assert rank(shift_matrix(3)) == 2
    assert rank(BinMatrix(3, 3, (3, 5, 6))) == 2  # 3 + 5 = 6 over GF(2)


def test_rank_transpose_invariant():
    rng = random.Random(4)
    for _ in range(100):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = BinMatrix(m, n, tuple(rng.randrange(1 << n) for _ in range(m)))
        assert rank(A) == rank(A.transpose())
        assert 0 <= rank(A) <= min(m, n)


def test_inverse_examples():
    eye = BinMatrix.identity(4)
    assert inverse(eye) == eye
    for n in range(2, 7):
        assert inverse(shift_matrix(n)) is None
    # frozen from exhaustive check of all 16 2x2 matrices
    M = bm([[1, 1], [0, 1]])
    assert inverse(M) == M
    with pytest.raises(ValueError):
        inverse(bm([[1, 0, 1]]))


def test_inverse_roundtrip():
    rng = random.Random(5)
    found = 0
    while found < 40:
        n = rng.randint(1, 6)
        A = BinMatrix(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
        B = inverse(A)
        if B is None:
            assert rank(A) < n
            continue
        found += 1
        assert mat_mul(A, B) == BinMatrix.identity(n)
        assert mat_mul(B, A) == BinMatrix.identity(n)


def test_is_unitary_examples():
    swap45 = BinMatrix(5, 5, (1, 2, 4, 16, 8))
    assert is_unitary(swap45)
    assert not is_unitary(shift_matrix(4))
    count = sum(
        is_unitary(BinMatrix(2, 2, ((bits >> 0) & 3, (bits >> 2) & 3)))
        for bits in range(16))
    assert count == 2  # identity and the swap
    with pytest.raises(ValueError):
        is_unitary(bm([[1, 0]]))


def test_unitary_iff_dot_preserving_exhaustive():
    for n in range(1, 4):
        for bits in range(1 << (n * n)):
            rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
            U = BinMatrix(n, n, rows)
            preserves = all(
                dot(mat_vec(U, BinVector(n, x)), mat_vec(U, BinVector(n, y)))
                == dot(BinVector(n, x), BinVector(n, y))
                for x in range(1 << n) for y in range(1 << n))
            assert is_unitary(U) == preserves


def test_shift_matrix_is_isometry_but_rank_deficient():
    for n in range(2, 9):
        A = shift_matrix(n)
        for x in range(1 << n):
            v = BinVector(n, x)
            av = mat_vec(A, v)
            assert dot(av, av) == dot(v, v)
        assert rank(A) == n - 1


def test_select_basis_examples():
    vecs = [BinVector(3, v) for v in (1, 2, 4)]
    assert select_basis(vecs, 3) == [1, 2, 3]
    # 6 = 3 + 5 is dependent, so the third basis vector is index 4;
    # frozen from the greedy elimination oracle
    vecs = [BinVector(3, v) for v in (3, 5, 6, 7)]
    assert select_basis(vecs, 3) == [1, 2, 4]
    vecs = [BinVector(3, 7)] * 3
    assert select_basis(vecs, 3) is None


def test_select_basis_picks_independent_spanning_subset():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(1, 8)
        encs = [rng.randrange(1 << n) for _ in range(k)]
        vecs = [BinVector(n, e) for e in encs]
        idx = select_basis(vecs, n)
        spans = rank_naive([vec_of(e, n) for e in encs]) == n
        if not spans:
            assert idx is None
        else:
            assert idx is not None and len(idx) == n
            assert idx == sorted(idx)
            sub = [vec_of(encs[i - 1], n) for i in idx]
            assert rank_naive(sub) == n
            # lexicographically first: no chosen index can move earlier
            for pos, i in enumerate(idx):
                for earlier in range(idx[pos - 1] + 1 if pos else 1, i):
                    trial = [vec_of(encs[j - 1], n) for j in idx[:pos]]
                    trial.append(vec_of(encs[earlier - 1], n))
                    assert rank_naive(trial) < len(trial)


def test_packed_agrees_with_naive_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(1000):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = BinMatrix(m, n, tuple(rng.randrange(1 << n) for _ in range(m)))
        assert rank(A) == rank_naive(A.to_lists())
        p = rng.randint(1, 12)
        B = BinMatrix(n, p, tuple(rng.randrange(1 << p) for _ in range(n)))
        assert mat_mul(A, B).to_lists() == matmul_naive(A.to_lists(), B.to_lists())
        x = rng.randrange(1 << n)
        col = [[b] for b in vec_of(x, n)]
        assert [[b] for b in mat_vec(A, BinVector(n, x)).coords()] == \
            matmul_naive(A.to_lists(), col)
        if m == n:
            inv = inverse(A)
            naive = inverse_naive(A.to_lists())
            if inv is None:
                assert naive is None
            else:
                assert inv.to_lists() == naive


def test_matrix_serialization_roundtrip():
    A = BinMatrix(4, 3, (3, 5, 6, 7))
    rows, cols, encs = A.to_row_encodings()
    assert (rows, cols, encs) == (4, 3, [3, 5, 6, 7])
    assert BinMatrix.from_row_encodings(rows, cols, encs) == A
    # a list or bools are stored as a tuple of ints
    same = BinMatrix(4, 3, [3, 5, 6, 7])
    assert same == A and hash(same) == hash(A) and type(same.row_bits) is tuple
    flag = BinMatrix(1, 2, [True])
    assert flag == BinMatrix(1, 2, (1,)) and hash(flag) == hash(BinMatrix(1, 2, (1,)))
    assert type(flag.row_bits[0]) is int
    with pytest.raises(ValueError, match="row word 1.5 is not an integer"):
        BinMatrix(1, 2, [1.5])


def matrices(m, n):
    """Random m x n matrices over GF(2)."""
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m)
    return rows.map(lambda r: BinMatrix(m, n, tuple(r)))


@st.composite
def chains(draw):
    """(A, B, C) with A m x p, B p x q, C q x r, all sides <= 8."""
    m, p, q, r = (draw(st.integers(1, 8)) for _ in range(4))
    return draw(matrices(m, p)), draw(matrices(p, q)), draw(matrices(q, r))


@st.composite
def squares(draw):
    n = draw(st.integers(1, 8))
    return draw(matrices(n, n))


@settings(max_examples=200, deadline=None)
@given(chains())
def test_product_and_transpose_laws(chain):
    A, B, C = chain
    assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))
    assert mat_mul(A, B).transpose() == mat_mul(B.transpose(), A.transpose())
    assert A.transpose().transpose() == A
    assert rank(A) == rank(A.transpose())


@settings(max_examples=200, deadline=None)
@given(squares())
def test_inverse_exists_exactly_at_full_rank(A):
    n = A.rows
    B = inverse(A)
    assert (B is None) == (rank(A) < n)
    if B is not None:
        assert mat_mul(A, B) == BinMatrix.identity(n)
        assert mat_mul(B, A) == BinMatrix.identity(n)
