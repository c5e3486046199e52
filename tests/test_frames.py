import random
import resource
import subprocess
import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from binframes.frames import (Frame, compute_dual, format_frame,
                              frame_operators, grammian, is_frame,
                              is_parseval, parse_frame,
                              parseval_identity_holds, shift_matrix,
                              verify_reconstruction, weight_two_family)
from binframes.gf2 import BinMatrix, BinVector, mat_mul, rank, select_basis

from oracles import (basis_naive, duals_naive, frame_G_naive, frame_S_naive,
                     is_parseval_naive, parseval_by_sweep, rank_naive,
                     reconstructs_naive, reconstruction_sweep_naive,
                     transpose_naive, vec_of)


def fr(n, *encs):
    return Frame.from_encodings(n, encs)


def test_frame_literal_grammar():
    f = parse_frame("3; 3,5,6,7")
    assert f.dim == 3 and f.encodings == (3, 5, 6, 7)
    assert parse_frame("  3 ;3 , 5,6,  7 ") == f
    assert format_frame(f) == "3; 3,5,6,7"
    assert parse_frame(format_frame(f)) == f
    empty = parse_frame("4;")
    assert empty.size == 0
    assert format_frame(empty) == "4;"
    for bad in ("3 3,5", "x; 1", "3; 1,z", "3; 8", "0; 1", "3; -1"):
        with pytest.raises(ValueError):
            parse_frame(bad)
    # a list, bools or another integer type is stored as a tuple of ints
    class Index:
        def __index__(self):
            return 7

    for same in (Frame(3, [3, 5, 6, 7]), Frame(3, (3, 5, 6, Index()))):
        assert same == f and hash(same) == hash(f)
        assert all(type(e) is int for e in same.encodings)
        assert parse_frame(format_frame(same)) == same
    mixed = Frame(3, (True, 2, 4))
    assert format_frame(mixed) == "3; 1,2,4" and parse_frame("3; 1,2,4") == mixed
    assert hash(Frame(3, [1, 2, 4])) == hash(mixed) == hash(Frame(3, (1, 2, 4)))
    for bad in ((1.0, 2, 4), [1, "2", 4], (1, 2, None)):
        with pytest.raises(ValueError, match="encoding .* is not an integer"):
            Frame(3, bad)


def test_is_frame_examples():
    assert is_frame(fr(3, 1, 2, 4))
    assert not is_frame(fr(2, 3))
    assert not is_frame(fr(3, 3, 5, 6))  # 3 + 5 = 6, rank 2


def test_is_parseval_examples():
    for n in range(1, 7):
        basis = fr(n, *(1 << i for i in range(n)))
        assert is_parseval(basis)
    assert is_parseval(fr(3, 3, 5, 6, 7))
    assert not is_parseval(fr(1, 1, 1))  # repeated spanning vector, S maps x to 0


def test_parseval_matrix_route_agrees_with_sweep():
    # both checks implemented; they must agree
    rng = random.Random(11)
    for n in (1, 2, 3):
        for k in range(0, 5):
            for encs in product(range(1 << n), repeat=k):
                f = fr(n, *encs)
                assert is_parseval(f) == parseval_by_sweep(f.encodings, n)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(0, 6)
        f = fr(n, *(rng.randrange(1 << n) for _ in range(k)))
        assert is_parseval(f) == parseval_by_sweep(f.encodings, n)


def test_frame_operators_shapes_and_entries():
    f = fr(3, 3, 5, 6, 7)
    ops = frame_operators(f)
    assert (ops.analysis.rows, ops.analysis.cols) == (4, 3)
    assert (ops.synthesis.rows, ops.synthesis.cols) == (3, 4)
    assert (ops.frame_op.rows, ops.frame_op.cols) == (3, 3)
    assert (ops.grammian.rows, ops.grammian.cols) == (4, 4)
    assert ops.analysis.row(1) == BinVector(3, 5)
    assert ops.synthesis == ops.analysis.transpose()
    # S and G are symmetric; G entry (i, j) is (f_j, f_i)
    assert ops.frame_op.is_symmetric()
    assert ops.grammian.is_symmetric()
    for i, fi in enumerate(f.vectors):
        for j, fj in enumerate(f.vectors):
            assert ops.grammian.entry(i, j) == (fj.bits & fi.bits).bit_count() % 2


def test_compute_dual_examples():
    basis = fr(3, 1, 2, 4)
    assert compute_dual(basis) == basis.vectors
    duals = compute_dual(fr(2, 1, 2, 3))
    assert duals is not None
    assert tuple(d.bits for d in duals) == (1, 2, 0)
    assert compute_dual(fr(2, 3)) is None


def test_compute_dual_reconstructs_everything():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, 7)
        f = fr(n, *(rng.randrange(1 << n) for _ in range(k)))
        duals = compute_dual(f)
        if duals is None:
            assert not is_frame(f)
            continue
        assert is_frame(f)
        assert reconstruction_sweep_naive(
            f.encodings, [d.bits for d in duals], n)
        # duals vanish off the selected basis subset
        nonzero = sum(1 for d in duals if not d.is_zero())
        assert nonzero <= n


def test_frame_iff_dual_exists_exhaustive():
    for n in (1, 2, 3):
        for k in range(1, 6):
            for encs in product(range(1 << n), repeat=k):
                f = fr(n, *encs)
                duals = compute_dual(f)
                assert (duals is not None) == is_frame(f)
                if duals is not None:
                    assert verify_reconstruction(f, list(duals))


def test_verify_reconstruction_examples():
    basis = fr(2, 1, 2)
    assert verify_reconstruction(basis, list(basis.vectors))
    f = fr(2, 1, 2, 3)
    assert verify_reconstruction(f, [BinVector(2, e) for e in (1, 2, 0)])
    assert not verify_reconstruction(f, [BinVector(2, e) for e in (1, 2, 3)])
    with pytest.raises(ValueError):
        verify_reconstruction(f, [BinVector(2, 1)])
    with pytest.raises(ValueError):
        verify_reconstruction(f, [BinVector(3, 1)] * 3)


def test_verify_reconstruction_basis_check_matches_full_sweep():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(1, 4)
        k = rng.randint(1, 6)
        f_encs = [rng.randrange(1 << n) for _ in range(k)]
        d_encs = [rng.randrange(1 << n) for _ in range(k)]
        got = verify_reconstruction(
            fr(n, *f_encs), [BinVector(n, e) for e in d_encs])
        assert got == reconstruction_sweep_naive(f_encs, d_encs, n)


def test_parseval_identity_examples():
    assert parseval_identity_holds(fr(3, 3, 5, 6, 7))  # a Parseval frame
    assert parseval_identity_holds(fr(2, 3))            # ... and a non-frame
    assert not parseval_identity_holds(fr(2, 1))


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def test_parseval_identity_refuses_large_sweeps(package_env):
    # in a child capped at 512 MB and timed, so that a lost bound fails
    # fast; the identity holds for the standard basis, so an unbounded
    # check would sweep all 2^64 vectors
    code = ("import binframes as bf\n"
            "try:\n"
            "    bf.parseval_identity_holds(bf.Frame(64, tuple(1 << i for i in range(64))))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env, timeout=10,
                          preexec_fn=_cap_memory)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 0 and "n <= 16" in proc.stdout, proc.stderr
    assert not parseval_identity_holds(fr(16, 1))  # n = 16 is still swept


def test_counterexample_builders_refuse_large_dimensions(package_env):
    # in a child capped at 512 MB and timed: unbounded, weight_two_family
    # builds C(n, 2) words and shift_matrix about n^2 / 2 bits, tens of GB
    # at n = 10**5 and 10**6
    code = ("import binframes as bf\n"
            "for build in (bf.weight_two_family, bf.shift_matrix):\n"
            "    for n in (17, 10**5, 10**6):\n"
            "        try:\n"
            "            build(n)\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env, timeout=10,
                          preexec_fn=_cap_memory)
    assert time.perf_counter() - t0 < 1.0
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and len(lines) == 6, proc.stderr
    assert all("n <= 16" in line for line in lines), lines
    assert weight_two_family(16).size == 120  # n = 16 is still built
    assert rank(shift_matrix(16)) == 15


def test_parseval_implies_frame_and_identity_and_self_duality():
    rng = random.Random(14)
    seen = 0
    for _ in range(2000):
        n = rng.randint(1, 4)
        k = rng.randint(1, 6)
        f = fr(n, *(rng.randrange(1 << n) for _ in range(k)))
        if not is_parseval(f):
            continue
        seen += 1
        assert is_frame(f)
        assert f.size >= n
        assert parseval_identity_holds(f)
        # Parseval frames are self-dual in the reconstruction sense
        assert verify_reconstruction(f, list(f.vectors))
    assert seen > 20


def test_weight_two_family_examples():
    assert weight_two_family(2).encodings == (3,)
    assert weight_two_family(4).encodings == (3, 5, 9, 6, 10, 12)
    assert weight_two_family(3).encodings == (1, 6)
    with pytest.raises(ValueError):
        weight_two_family(1)


def test_weight_two_family_separates_identity_from_parseval():
    for n in range(2, 9):
        fam = weight_two_family(n)
        assert parseval_identity_holds(fam)
        assert not is_frame(fam)
        assert not is_parseval(fam)


def test_weight_two_family_coordinate_multiplicities():
    # each relevant coordinate appears in n-1 members (odd), and for odd n
    # the flat summand contributes the lone first-coordinate vector
    for n in range(2, 9):
        fam = weight_two_family(n)
        counts = [0] * n
        for e in fam.encodings:
            for i in range(n):
                if (e >> i) & 1:
                    counts[i] += 1
        if n % 2 == 0:
            assert fam.size == n * (n - 1) // 2
            assert counts == [n - 1] * n
        else:
            assert fam.size == 1 + (n - 1) * (n - 2) // 2
            assert counts[0] == 1
            assert counts[1:] == [n - 2] * (n - 1)
        assert all(c % 2 == 1 for c in counts)


def test_shift_matrix_examples():
    assert shift_matrix(2).to_lists() == [[1, 1], [0, 0]]
    A = shift_matrix(3)
    for x in range(8):
        coords = vec_of(x, 3)
        expect = [(coords[0] + coords[1]) % 2, coords[2], 0]
        got = [0, 0, 0]
        for i, row in enumerate(A.row_bits):
            got[i] = (row & x).bit_count() % 2
        assert got == expect
    assert rank(shift_matrix(4)) == 3
    with pytest.raises(ValueError):
        shift_matrix(1)


def test_grammian_vs_naive_oracle():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(1, 6)
        encs = [rng.randrange(1 << n) for _ in range(k)]
        f = fr(n, *encs)
        assert is_parseval(f) == is_parseval_naive(encs, n)
        assert is_frame(f) == (rank_naive([vec_of(e, n) for e in encs]) == n)


@st.composite
def families(draw, n_range, max_size, max_pairs):
    """(n, encodings) for n in n_range. Half are arbitrary: up to max_size
    vectors, zero vectors likely, the last up to three of them repeats, in
    any order; so k < n and the empty family occur. Half are Parseval by
    construction: a permuted basis plus up to max_pairs(n) vectors that
    occur twice, whose rank-one contributions to S cancel."""
    n = draw(n_range)
    vec = st.just(0) | st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        encs = draw(st.lists(vec, max_size=max_size - 3))
        repeats = draw(st.lists(st.sampled_from(encs), max_size=3)) if encs else []
        return n, draw(st.permutations(encs + repeats))
    pairs = draw(st.lists(vec, max_size=max_pairs(n)))
    return n, draw(st.permutations([1 << i for i in range(n)] + pairs + pairs))


def check_kernels(n, encs):
    """Every frame kernel against its naive route, and the out-of-range
    messages of Frame, BinVector and BinMatrix."""
    f = Frame.from_encodings(n, encs)
    rows = [vec_of(e, n) for e in encs]
    theta = f.analysis_matrix()
    assert theta.transpose().to_lists() == (transpose_naive(rows) or [[]] * n)
    r = rank_naive(rows)
    assert rank(theta) == r and is_frame(f) == (r == n)
    assert select_basis(list(f.vectors), n) == basis_naive(encs, n)
    assert grammian(f).to_lists() == frame_G_naive(encs, n)
    assert is_parseval(f) == is_parseval_naive(encs, n)
    assert frame_operators(f).frame_op.to_lists() == frame_S_naive(encs, n)
    duals, want = compute_dual(f), duals_naive(encs, n)
    assert (None if duals is None else [d.bits for d in duals]) == want
    assert want is None or reconstructs_naive(encs, want, n)
    for word in (-1, 1 << n):
        # the first offending word is named, whatever follows it
        bad = tuple(encs) + (word, 1 << (n + 1))
        with pytest.raises(ValueError, match=rf"^encoding {word} out of range for Z_2\^{n}$"):
            Frame(n, bad)
        with pytest.raises(ValueError, match=rf"^row word {word} out of range for {n} columns$"):
            BinMatrix(len(bad), n, bad)
        with pytest.raises(ValueError, match=rf"^encoding {word} out of range for dimension {n}$"):
            BinVector(n, word)


@settings(max_examples=300, deadline=None)
@given(families(st.integers(1, 8), 30, lambda n: (30 - n) // 2))
def test_kernels_match_naive_oracles_up_to_k30(family):
    check_kernels(*family)


@settings(max_examples=40, deadline=None)
@given(families(st.integers(65, 68), 12, lambda n: 2))
def test_kernels_match_naive_oracles_on_words_wider_than_64_bits(family):
    check_kernels(*family)


def test_empty_family_is_degenerate_not_an_error():
    empty = Frame(3, ())
    assert not is_frame(empty)
    assert not is_parseval(empty)
    ops = frame_operators(empty)
    assert ops.frame_op == BinMatrix.zero(3, 3)
    assert compute_dual(empty) is None
