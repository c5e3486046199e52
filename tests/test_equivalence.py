import random
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from binframes import equivalence
from binframes.equivalence import (CanonicalKey, DimensionTooSmallError,
                                   NotParsevalError, RepeatsPresentError,
                                   ShapeMismatchError, _min_lex_form,
                                   canonical_key, complement,
                                   is_trivially_redundant,
                                   switching_equivalent, unitary_equivalent)
from binframes.frames import Frame, grammian, is_parseval
from binframes.gf2 import BinMatrix, BinVector, is_unitary, mat_vec, rank

from oracles import (all_unitaries, apply_matrix, match_by_full_descent,
                     min_lex_bruteforce, min_lex_bruteforce_np,
                     min_lex_by_full_descent, pack_bits_msb, random_unitary,
                     switching_by_two_keys, upper_tri_string)

# reference 6-vector pair in Z_2^5: equal Grammians, and the connecting
# unitary is the swap of the last two coordinates
EX_F = (18, 26, 22, 29, 19, 15)
EX_H = (10, 26, 14, 29, 11, 23)
EX_G = [[0, 0, 0, 1, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [1, 0, 0, 1, 0, 0]]
EX_U = [[1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0]]
# second reference pair: equal Grammians but no obvious row manipulation
EX2_F = (24, 20, 18, 17, 15, 31)
EX2_H = (30, 17, 9, 5, 3, 31)


def fr(n, *encs):
    return Frame.from_encodings(n, encs)


def sym(rng, k, density=0.5):
    rows = [0] * k
    for i in range(k):
        for j in range(i, k):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def conjugate(rows, perm):
    k = len(rows)
    out = [0] * k
    for i in range(k):
        for j in range(k):
            if (rows[perm[i]] >> perm[j]) & 1:
                out[i] |= 1 << j
    return out


def test_trivially_redundant_examples():
    assert is_trivially_redundant(fr(3, 1, 2, 4, 0))
    assert is_trivially_redundant(fr(3, 1, 2, 4, 6, 6))
    assert not is_trivially_redundant(fr(3, 3, 5, 6, 7))


def test_unitary_equivalent_reflexive():
    f = fr(3, 3, 5, 6, 7)
    assert unitary_equivalent(f, f) == BinMatrix.identity(3)


def test_unitary_equivalent_reference_pair_bit_exact():
    F = fr(5, *EX_F)
    H = fr(5, *EX_H)
    assert grammian(F).to_lists() == EX_G
    assert grammian(H).to_lists() == EX_G
    U = unitary_equivalent(F, H)
    assert U is not None
    assert U.to_lists() == EX_U


def test_unitary_equivalent_second_reference_pair():
    F = fr(5, *EX2_F)
    H = fr(5, *EX2_H)
    assert is_parseval(F) and is_parseval(H)
    assert grammian(F) == grammian(H)
    U = unitary_equivalent(F, H)
    assert U is not None
    assert is_unitary(U)
    for f, h in zip(F.vectors, H.vectors):
        assert mat_vec(U, f) == h


def test_unitary_equivalence_is_index_sensitive():
    # same vector set, different order: the Grammian diagonals disagree
    F = fr(3, 3, 5, 6, 7)
    H = fr(3, 7, 5, 6, 3)
    assert grammian(F) != grammian(H)
    assert unitary_equivalent(F, H) is None
    # but a reordering whose Grammian happens to match is equivalent:
    # swapping the two standard basis vectors is realized by the swap map
    U = unitary_equivalent(fr(2, 1, 2), fr(2, 2, 1))
    assert U is not None
    assert U.to_lists() == [[0, 1], [1, 0]]


def test_unitary_equivalent_iff_equal_grammians_exhaustive_n3():
    # every ordering of the two n=3 Parseval vector sets, both directions
    families = [fr(3, *p) for p in permutations((1, 2, 4))]
    families += [fr(3, *p) for p in permutations((3, 5, 6, 7))]
    for F in families:
        for H in families:
            if F.size != H.size:
                continue
            U = unitary_equivalent(F, H)
            if grammian(F) == grammian(H):
                assert U is not None
                assert is_unitary(U)
                for f, h in zip(F.vectors, H.vectors):
                    assert mat_vec(U, f) == h
            else:
                assert U is None


def test_unitary_equivalent_preconditions():
    with pytest.raises(ShapeMismatchError):
        unitary_equivalent(fr(3, 1, 2, 4), fr(3, 3, 5, 6, 7))
    with pytest.raises(ShapeMismatchError):
        unitary_equivalent(fr(2, 1, 2), fr(3, 1, 2))
    with pytest.raises(NotParsevalError):
        unitary_equivalent(fr(3, 1, 2, 7), fr(3, 1, 2, 7))


def test_canonical_key_identity_fixed_point():
    for k in (1, 2, 5):
        eye = BinMatrix.identity(k)
        bits, perm = _min_lex_form(eye.row_bits)
        assert bits == upper_tri_string(eye.to_lists(), list(range(k)))
        key = canonical_key(eye)
        assert key.size == k
        assert key == CanonicalKey.from_bits(k, bits)


def test_canonical_key_serialization():
    key = canonical_key(grammian(fr(3, 3, 5, 6, 7)))
    assert str(key) == "k4:3880"  # frozen from factorial brute force
    assert canonical_key(BinMatrix.identity(3)).packed == pack_bits_msb(
        (1, 0, 0, 1, 0, 1))
    assert str(canonical_key(BinMatrix.identity(3))) == "k3:94"


def test_canonical_key_reference_grammian_all_conjugates():
    G = BinMatrix.from_lists(EX_G)
    key = canonical_key(G)
    assert str(key) == "k6:0e1110"  # frozen from factorial brute force
    # the 6! conjugates have exactly one minimal string, and it is the key
    best = min_lex_bruteforce(G.to_lists())
    assert CanonicalKey.from_bits(6, best) == key
    for perm in permutations(range(6)):
        conj = BinMatrix.from_lists(
            [[G.to_lists()[perm[i]][perm[j]] for j in range(6)]
             for i in range(6)])
        assert canonical_key(conj) == key


def test_canonical_key_permutation_invariance_random():
    rng = random.Random(21)
    for k in range(1, 13):
        for _ in range(6):
            rows = sym(rng, k, rng.choice((0.2, 0.5, 0.8)))
            key = canonical_key(BinMatrix(k, k, tuple(rows)))
            for _ in range(4):
                perm = list(range(k))
                rng.shuffle(perm)
                conj = conjugate(rows, perm)
                assert canonical_key(BinMatrix(k, k, tuple(conj))) == key


@settings(max_examples=60, deadline=None)
@given(st.integers(17, 24), st.sampled_from((0.2, 0.5, 0.8)),
       st.randoms(use_true_random=False))
def test_canonical_key_permutation_invariance_past_exhaustive_range(k, density, rng):
    rows = sym(rng, k, density)
    perm = list(range(k))
    rng.shuffle(perm)
    assert (canonical_key(BinMatrix(k, k, tuple(conjugate(rows, perm))))
            == canonical_key(BinMatrix(k, k, tuple(rows))))


def test_canonical_key_agrees_with_bruteforce_random():
    rng = random.Random(22)
    for k in range(1, 7):
        for _ in range(20):
            rows = sym(rng, k, rng.choice((0.15, 0.5, 0.85)))
            G = BinMatrix(k, k, tuple(rows))
            assert canonical_key(G) == CanonicalKey.from_bits(
                k, min_lex_bruteforce(G.to_lists()))
    for k, trials in ((7, 6), (8, 6), (9, 3)):
        for _ in range(trials):
            rows = sym(rng, k)
            G = BinMatrix(k, k, tuple(rows))
            assert canonical_key(G) == CanonicalKey.from_bits(
                k, min_lex_bruteforce_np(G.to_lists()))


def test_canonical_form_is_idempotent():
    rng = random.Random(23)
    for k in range(1, 9):
        rows = sym(rng, k)
        bits, perm = _min_lex_form(tuple(rows))
        # rebuild the minimal matrix and canonicalize again
        canon = conjugate(rows, list(perm))
        assert upper_tri_string(
            [[(canon[i] >> j) & 1 for j in range(k)] for i in range(k)],
            list(range(k))) == bits
        bits2, _ = _min_lex_form(tuple(canon))
        assert bits2 == bits


def test_canonical_form_handles_highly_symmetric_matrices():
    # degenerate and regular structures admit k!-sized automorphism
    # groups; the refinement search must stay polynomial on them
    import time
    t0 = time.perf_counter()
    zero = BinMatrix.zero(15, 15)
    assert canonical_key(zero).packed == bytes((15 * 16 // 2 + 7) // 8)
    ones = BinMatrix(15, 15, ((1 << 15) - 1,) * 15)
    assert set(canonical_key(ones).packed[:-1]) == {0xff}
    # complete bipartite block, zero diagonal
    rows = [0] * 14
    for i in range(7):
        for j in range(7, 14):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    kb = canonical_key(BinMatrix(14, 14, tuple(rows)))
    # circulant built from the quadratic residues mod 13
    qr = {pow(x, 2, 13) for x in range(1, 13)}
    rows = [0] * 13
    for i in range(13):
        for j in range(13):
            if i != j and (i - j) % 13 in qr:
                rows[i] |= 1 << j
    kp = canonical_key(BinMatrix(13, 13, tuple(rows)))
    assert kb != kp
    assert time.perf_counter() - t0 < 5.0


def test_canonical_key_requires_symmetry():
    with pytest.raises(ValueError):
        canonical_key(BinMatrix.from_lists([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        canonical_key(BinMatrix.from_lists([[0, 1, 0], [1, 0, 0]]))


def test_switching_equivalent_permutation_only():
    F = fr(3, 3, 5, 6, 7)
    H = fr(3, 7, 6, 5, 3)  # reversed
    out = switching_equivalent(F, H)
    assert out is not None
    U, pi = out
    assert is_unitary(U)
    for j in range(4):
        assert mat_vec(U, H.vectors[pi[j]]) == F.vectors[j]


def test_switching_equivalent_random_unitary_permutation_roundtrip():
    rng = random.Random(24)
    rep = fr(4, 1, 6, 10, 12, 14)
    unitaries = all_unitaries(4)
    for _ in range(50):
        U = rng.choice(unitaries)
        pi = list(range(5))
        rng.shuffle(pi)
        image = fr(4, *(apply_matrix(U, rep.encodings[pi[j]], 4)
                        for j in range(5)))
        assert is_parseval(image)
        out = switching_equivalent(rep, image)
        assert out is not None
        W, sigma = out
        assert is_unitary(W)
        for j in range(5):
            assert mat_vec(W, image.vectors[sigma[j]]) == rep.vectors[j]


def test_switching_witnesses_compose():
    # reflexivity, symmetry and transitivity through explicit witnesses
    members = [fr(4, *m) for m in
               ((1, 6, 10, 12, 14), (2, 5, 9, 12, 13), (4, 3, 9, 10, 11))]
    for F in members:
        out = switching_equivalent(F, F)
        assert out is not None and out[1] == tuple(range(5))
    for F in members:
        for H in members:
            out_fh = switching_equivalent(F, H)
            out_hf = switching_equivalent(H, F)
            assert out_fh is not None and out_hf is not None
    F, H, K = members
    U1, p1 = switching_equivalent(F, H)
    U2, p2 = switching_equivalent(H, K)
    # f_j = U1 h_p1(j), h_j = U2 k_p2(j)  =>  f_j = (U1 U2) k_p2(p1(j))
    from binframes.gf2 import mat_mul
    U12 = mat_mul(U1, U2)
    assert is_unitary(U12)
    for j in range(5):
        assert mat_vec(U12, K.vectors[p2[p1[j]]]) == F.vectors[j]


def test_switching_equivalent_rejects_non_parseval():
    with pytest.raises(NotParsevalError):
        switching_equivalent(fr(3, 3, 5, 6, 7), fr(3, 1, 2, 4, 7))


def test_switching_classes_separate_at_n5():
    # different canonical keys must mean NOT-EQUIVALENT; n=5, k=6 has
    # frames of genuinely different key (unlike n <= 4)
    from binframes.enumeration import classify
    classes = classify(5, 6)
    if len(classes) > 1:
        F = classes[0].representative
        H = classes[1].representative
        assert switching_equivalent(F, H) is None


def test_complement_examples():
    assert complement(fr(3, 1, 2, 4), drop_zero=True).encodings == (3, 5, 6, 7)
    assert complement(fr(3, *range(1, 8)), drop_zero=True).encodings == ()
    assert complement(fr(3, *range(8))).encodings == ()
    comp = complement(fr(4, 1, 2, 3, 7, 11, 12, 15), drop_zero=True)
    assert comp.size == 8
    assert is_parseval(comp)


def test_complement_preconditions():
    with pytest.raises(DimensionTooSmallError):
        complement(fr(2, 1, 2))
    with pytest.raises(RepeatsPresentError):
        complement(fr(3, 1, 1, 2))
    with pytest.raises(ValueError, match="n <= 16"):
        complement(Frame(17, ()))  # refused before its 2^17 sweep


def test_complement_partitions_nonzero_vectors():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(3, 5)
        pool = list(range(1, 1 << n))
        rng.shuffle(pool)
        encs = sorted(pool[:rng.randint(0, len(pool))])
        f = fr(n, *encs)
        comp = complement(f, drop_zero=True)
        assert sorted(set(encs) | set(comp.encodings)) == list(range(1, 1 << n))
        assert not set(encs) & set(comp.encodings)
        assert min(f.size, comp.size) <= (1 << (n - 1)) - 1


def test_complement_preserves_parseval_both_ways():
    from binframes.enumeration import enumerate_parseval
    for n, k in ((3, 3), (3, 4), (4, 5), (4, 7)):
        for f in enumerate_parseval(n, k):
            with_zero = complement(f)
            without = complement(f, drop_zero=True)
            assert 0 in with_zero.encodings
            assert is_parseval(with_zero)   # zero contributes nothing to S
            assert is_parseval(without)


def test_complement_preserves_switching_equivalence():
    from binframes.enumeration import enumerate_parseval
    # exhaustive at n=3 (single members), sampled pairs at n=4
    f, = enumerate_parseval(3, 3)
    h, = enumerate_parseval(3, 4)
    assert switching_equivalent(
        complement(f, drop_zero=True), h) is not None
    members = list(enumerate_parseval(4, 5))
    rng = random.Random(26)
    for _ in range(10):
        a, b = rng.sample(members, 2)
        assert switching_equivalent(a, b) is not None
        ca = complement(a, drop_zero=True)
        cb = complement(b, drop_zero=True)
        assert switching_equivalent(ca, cb) is not None


def test_returned_witnesses_always_verified():
    # the operations check their own contracts; spot-check the surface
    F = fr(4, 1, 2, 4, 8)
    H = fr(4, 2, 1, 4, 8)
    U = unitary_equivalent(F, H)
    assert U is not None and is_unitary(U)
    out = switching_equivalent(F, H)
    assert out is not None
    W, pi = out
    assert sorted(pi) == list(range(4))


def test_switching_rejects_on_grammian_invariants_before_any_key_search(monkeypatch):
    # two n = 5, k = 6 classes whose sorted (diagonal, row weight) pairs differ
    a, b = fr(5, 1, 2, 12, 20, 24, 28), fr(5, 3, 5, 9, 17, 30, 31)

    def no_search(rows):
        raise AssertionError("the key search ran")

    monkeypatch.setattr(equivalence, "_min_lex_form", no_search)
    assert switching_equivalent(a, b) is None


# two n = 5, k = 13 classes that the invariants cannot tell apart: matched
# against a's key, b meets a row below it; matched against b's, a runs out
EQUAL_INVARIANTS = (fr(5, 1, 2, 3, 4, 5, 9, 10, 13, 18, 19, 23, 25, 31),
                    fr(5, 1, 2, 3, 4, 5, 9, 10, 13, 22, 24, 28, 29, 31))


def test_switching_with_equal_invariants_still_searches(monkeypatch):
    a, b = EQUAL_INVARIANTS
    canonized, matched = [], []
    real_form, real_match = equivalence._min_lex_form, equivalence._match_form
    monkeypatch.setattr(equivalence, "_min_lex_form",
                        lambda rows: canonized.append(rows) or real_form(rows))
    monkeypatch.setattr(equivalence, "_match_form",
                        lambda rows, target: matched.append(rows) or real_match(rows, target))
    assert switching_equivalent(a, b) is None
    assert canonized == [grammian(a).row_bits]
    assert matched == [grammian(b).row_bits]


def image(rng, F):
    """F under a random unitary and a random reordering."""
    U = random_unitary(rng, F.dim)
    return Frame.from_encodings(F.dim, [apply_matrix(U, F.encodings[p], F.dim)
                                        for p in rng.sample(range(F.size), F.size)])


def test_switching_witnesses_equal_the_two_key_reference():
    # matching H against F's key must stop at the leaf whose perm the
    # second canonization returned, so (U, pi) are the same bytes
    from binframes.enumeration import catalog
    rng = random.Random(27)
    equivalent, others = [], [EQUAL_INVARIANTS]
    for n in (3, 4, 5):
        reps = [c.representative for row in catalog(n) for c in row.classes]
        equivalent += reps
        others += [(F, H) for i, F in enumerate(reps) for H in reps[i + 1:]
                   if H.size == F.size]
    c1, c2 = [complement(F, drop_zero=True) for F in reps if F.size == 9][:2]
    s1, s2 = (fr(6, *F.encodings, 32) for F in EQUAL_INVARIANTS)  # sums with e_6
    assert c1.size == 22 and s1.size == 14
    equivalent += [c1, s1]
    others += [(c1, c2), (s1, s2)]

    def same(F, H):
        out, ref = switching_equivalent(F, H), switching_by_two_keys(F, H)
        assert (out is None) == (ref is None)
        if out is not None:
            assert (out[0].row_bits, out[1]) == (ref[0].row_bits, ref[1])
        return out is not None

    for F in equivalent:
        H = image(rng, F)
        assert same(F, H) and same(H, F)
    for F, H in others:
        same(F, H)
        same(H, F)


def test_leaf_rule_keeps_keys_and_matches():
    # reading the leaf off a discrete partition must give the (bits, perm)
    # and the first matching leaf that descending to the empty partition did
    from binframes.enumeration import catalog
    rng = random.Random(18)
    frames = [c.representative for n in (3, 4, 5) for row in catalog(n)
              for c in row.classes]
    assert max(F.size for F in frames) >= 26  # the n = 5 complement rows
    frames += [complement(F, drop_zero=True) for F in frames
               if F.dim == 5 and 5 <= F.size <= 9]  # k = 22..26 again
    frames += [fr(3 * m, *(e << 3 * c for c in range(m) for e in (3, 5, 6, 7)))
               for m in range(1, 5)]  # direct sums of 3; 3,5,6,7
    inputs = [conjugate(grammian(F).row_bits, rng.sample(range(F.size), F.size))
              for F in frames]
    for k in range(15):
        inputs += [sym(rng, k, density) for density in (0.15, 0.5, 0.85)]
        inputs += [[0] * k, [(1 << k) - 1] * k, [1 << i for i in range(k)]]
    for rows in map(tuple, inputs):
        bits, perm = _min_lex_form(rows)
        assert (bits, perm) == min_lex_by_full_descent(rows)
        targets = [bits]
        if bits:  # flipping the last bit is decided at a discrete node
            targets.append(bits[:-1] + (1 - bits[-1],))
        if 1 in bits:  # differs at the first one: decided early
            first = bits.index(1)
            targets.append(bits[:first] + (0,) * (len(bits) - first))
        if 0 in bits:  # above the key from its first zero on
            first = bits.index(0)
            targets.append(bits[:first] + (1,) * (len(bits) - first))
        for target in targets:
            got = equivalence._match_form(rows, target)
            assert got == match_by_full_descent(rows, target)
            assert (got is None) == (target != bits)


# Each internal check in the package is forced to fail under python -O,
# which strips assert statements; every one must still raise.
OPTIMIZED_CHECKS = """
import binframes as bf
import binframes.enumeration as en
import binframes.equivalence as eq
import binframes.frames as fm

def raises(fn):
    try:
        fn()
    except RuntimeError:
        return True
    return False

real_coset, real_generators = en._coset, en._generators

def patch(name, value):
    # the enumeration tables are cached from one another: drop them all, so
    # that no check reads a table built under another patch
    setattr(en, name, value)
    for cached in (en._tables, real_coset, en._weights, real_generators, en._moves):
        cached.cache_clear()

F = bf.parse_frame("3; 3,5,6,7")
results = [raises(lambda: bf.CanonicalKey.from_bits(2, (1,)))]
real_is_unitary = eq.is_unitary
eq.is_unitary = lambda U: False
results += [raises(lambda: bf.unitary_equivalent(F, F)),
            raises(lambda: bf.switching_equivalent(F, F))]
eq.is_unitary = real_is_unitary
# H is F with its last two vectors swapped: U (the swap of e_1 and e_2) is
# unitary, but U f_i != h_i, so only the word comparison fails
F7, H7 = bf.parse_frame("4; 1,2,3,7,11,12,15"), bf.parse_frame("4; 1,2,3,7,11,15,12")
U7 = eq.mat_mul(H7.analysis_matrix().transpose(), F7.analysis_matrix())
results.append(eq.is_unitary(U7) and raises(lambda: eq._unitary_witness(F7, H7)))
fm.verify_reconstruction = lambda frame, duals: False
results.append(raises(lambda: bf.compute_dual(F)))
# a generator that is not unitary; the swaps alone, whose orbits split the
# n = 4 classes; a stream that loses a subset its orbit holds and repeats
# the other, so that the counts still agree; a stream that repeats both
en.is_unitary = lambda U: False
results.append(raises(lambda: en._generators(3)))
en.is_unitary = eq.is_unitary
real_walk = en._walk
patch("_generators", lambda n: real_generators(n)[:n - 1])
results.append(raises(lambda: bf.classify(4, 4)))
patch("_generators", real_generators)
en._walk = lambda n, k: real_walk(n, k)[1:] * 2
results.append(raises(lambda: bf.classify(4, 4)))
en._walk = lambda n, k: real_walk(n, k) * 2
results.append(raises(lambda: bf.classify(4, 4)))
en._walk = real_walk
# an n = 6 vector-1 search that loses its first subset, which the orbit of
# the next one holds; one that streams its subsets in reverse, whose first
# is not the least of its class
real_search = en._search
en._search = lambda n, k, first: real_search(n, k, first)[1:]
results.append(raises(lambda: bf.classify(6, 6)))
en._search = lambda n, k, first: real_search(n, k, first)[::-1]
results.append(raises(lambda: bf.classify(6, 7)))
en._search = real_search
# complements of one class passed twice; a class whose member count is not
# its complement's orbit size
cls = bf.classify(4, 4)[0]
results.append(raises(lambda: en._complemented_classes(4, [cls, cls])))
wrong = bf.SwitchingClass(cls.key, cls.representative, cls.member_count + 1)
results.append(raises(lambda: en._complemented_classes(4, [wrong])))
# class keys asked for with a wrong member count, at n = 4 and n = 6; the
# O(n) table past n = 6
results.append(raises(lambda: en._class_key(cls.representative, cls.member_count + 1)))
cls6 = bf.classify(6, 6)[0]
results.append(raises(lambda: en._class_key(cls6.representative, cls6.member_count + 1)))
results.append(raises(lambda: en._moves(7)))
# the weight table past n = 5; masks whose kernel has the wrong dimension;
# an elimination run from the lowest vector up, whose basis words' lowest
# vectors ascend; a coset whose words all lack vector 1; a coset whose
# coordinates are all off by one, so that every generator map is wrong
results.append(raises(lambda: en._weights(6)))
real_masks = en._masks
patch("_masks", lambda n: ([0] * (1 << n), 0))
results.append(raises(lambda: en._coset(3)))
patch("_masks", real_masks)
patch("range", lambda *args: range(1, args[0] + 1) if args[1:] == (0, -1) else range(*args))
results.append(raises(lambda: en._coset(4)))
patch("range", range)
coset = real_coset(4)
patch("_coset", lambda n: coset._replace(word=([w ^ 0b10 for w in coset.word[0]], *coset.word[1:])))
results.append(raises(lambda: en._walk(4, 4)))
patch("_coset", lambda n: coset._replace(index=([i ^ 1 for i in coset.index[0]], *coset.index[1:])))
results.append(raises(lambda: en._generators(4)))
patch("_coset", real_coset)
print(results)
"""


def test_internal_checks_raise_under_optimize(package_env):
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=package_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([True] * 21)
