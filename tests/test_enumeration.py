import concurrent.futures
import functools
import hashlib
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from binframes import enumeration
from binframes.cli import run
from binframes.enumeration import (CatalogRow, SearchConfig, SwitchingClass,
                                   _pool_size, catalog, catalog_lines,
                                   classify, enumerate_parseval, write_catalog)
from binframes.equivalence import (_min_lex_form, canonical_key, complement,
                                   is_trivially_redundant,
                                   switching_equivalent)
from binframes.frames import Frame, grammian, is_parseval
from binframes.gf2 import BinMatrix, BinVector, is_unitary, mat_vec

from oracles import (automorphism_count, classes_by_member_keys,
                     is_parseval_naive, lex_key_by_reversed_word, members,
                     orbit_by_tuples,
                     orthogonal_group_order, parseval_subsets_bruteforce)

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                      "reference_classes.tsv")


def load_reference_reps():
    rows = []
    with open(GOLDEN, encoding="utf-8") as fh:
        for line in fh:
            n, k, vecs = line.rstrip("\n").split("\t")
            rows.append((int(n), int(k),
                         tuple(int(v) for v in vecs.split(","))))
    return rows


def test_enumerate_examples():
    assert [f.encodings for f in enumerate_parseval(3, 3)] == [(1, 2, 4)]
    assert list(enumerate_parseval(3, 5)) == []
    assert [f.encodings for f in enumerate_parseval(2, 2)] == [(1, 2)]
    assert [f.encodings for f in enumerate_parseval(1, 1)] == [(1,)]


def test_enumerate_range_validation():
    with pytest.raises(ValueError):
        list(enumerate_parseval(3, 2))
    with pytest.raises(ValueError):
        list(enumerate_parseval(3, 8))
    with pytest.raises(ValueError):
        list(enumerate_parseval(0, 1))


def test_enumerate_stream_order_and_shape():
    for n, k in ((3, 4), (4, 6), (4, 7)):
        frames = list(enumerate_parseval(n, k))
        encs = [f.encodings for f in frames]
        assert encs == sorted(encs)  # lexicographic subset order
        for f in frames:
            assert f.size == k and f.dim == n
            assert list(f.encodings) == sorted(set(f.encodings))
            assert 0 not in f.encodings
            assert not is_trivially_redundant(f)
            assert is_parseval(f)


def test_pruned_search_equals_bruteforce_filter():
    # the walk through enumerate_parseval, and the whole search tree
    for n in (1, 2, 3, 4):
        for k in range(n, 1 << n):
            want = parseval_subsets_bruteforce(n, k)
            got = [f.encodings for f in enumerate_parseval(n, k)]
            assert got == want, (n, k)
            assert list(enumeration._iter_encodings(n, k)) == want, (n, k)


def test_coset_walk_equals_search():
    # the two engines share only the packed masks: kernel and weight
    # table on one side, depth-first search and tail tables on the other
    def walked(n, k):
        return [enumeration._subset(n, i) for i in enumeration._walk(n, k)]

    for n in (1, 2, 3, 4):
        for k in range(n, 1 << n):
            assert walked(n, k) == list(enumeration._iter_encodings(n, k)), (n, k)
    for k in range(5, 10):
        assert walked(5, k) == list(enumeration._iter_encodings(5, k)), (5, k)


def test_coset_dimension_and_n5_bucket_sizes():
    for n, d in ((1, 0), (2, 0), (3, 1), (4, 5), (5, 16), (6, 42)):
        assert len(enumeration._coset(n).basis) == d
    sizes = {k: len(enumeration._walk(5, k)) for k in range(5, 32)}
    assert [sizes[k] for k in range(5, 16)] == [
        6, 26, 80, 240, 610, 1342, 2592, 4320, 6300, 8100, 9152]
    assert all(sizes[k] == sizes.get(31 - k, 0) for k in sizes)
    assert sum(sizes.values()) == 1 << 16
    for n in (1, 2, 3, 4):
        weights = enumeration._weights(n)
        assert all(w == len(enumeration._subset(n, i)) for i, w in enumerate(weights))
    weights = enumeration._weights(5)
    for i in random.Random(20).sample(range(1 << 16), 2000):
        assert weights[i] == len(enumeration._subset(5, i)), i
    assert all(weights.count(k) == sizes.get(k, 0) for k in range(32))


def test_worker_partitioning_is_transparent():
    # only the whole-tree reference starts a pool; enumerate_parseval reads
    # the class orbits and must give the same stream
    for k in (6, 7):
        seq = list(enumeration._iter_encodings(6, k))
        par = list(enumeration._iter_encodings(6, k, workers=2))
        assert seq and seq == par
        for workers in (1, 2):
            got = [f.encodings for f in enumerate_parseval(6, k, workers=workers)]
            assert got == seq, (k, workers)


def test_pool_size_is_clamped_to_tasks_and_cpus():
    # (workers, tasks, cpus) -> processes started; checked without a pool
    assert _pool_size(2, 28, 2) == 2
    assert _pool_size(10**6, 28, 2) == 2
    assert _pool_size(10**6, 3, 64) == 3
    assert _pool_size(4, 3, 1) == 1
    assert _pool_size(8, 28, 64) == 8


def test_classify_examples():
    classes = classify(3, 3)
    assert len(classes) == 1
    assert classes[0].representative.encodings == (1, 2, 4)
    assert classes[0].member_count == 1

    classes = classify(4, 6)
    assert len(classes) == 1
    table_rep = Frame.from_encodings(4, (1, 3, 5, 9, 14, 15))
    assert switching_equivalent(classes[0].representative, table_rep) is not None
    assert classes[0].representative.encodings == (1, 3, 5, 9, 14, 15)

    for k in range(12, 16):
        assert classify(4, k) == []


def test_classify_counts_partition_the_search():
    # frozen member totals for n=4, plus no frame lost or double-counted
    expected_totals = {4: 2, 5: 4, 6: 4, 7: 6, 8: 6, 9: 4, 10: 4, 11: 2}
    for k in range(4, 12):
        classes = classify(4, k)
        assert len(classes) == 1
        total = sum(c.member_count for c in classes)
        assert total == expected_totals[k]
        assert total == len(list(enumerate_parseval(4, k)))


def test_classify_representative_matches_key():
    for n, k in ((3, 4), (4, 5), (4, 8), (5, 6)):
        for cls in classify(n, k):
            assert cls.member_count >= 1
            assert canonical_key(grammian(cls.representative)) == cls.key


def test_orbit_generators_are_unitary():
    for n in range(1, 7):
        for g, _ in enumeration._generators(n):
            U = BinMatrix(n, n, tuple(g[1 << j] for j in range(n))).transpose()
            assert is_unitary(U)
            assert all(g[x] == mat_vec(U, BinVector(n, x)).bits
                       for x in range(1 << n))


def test_orbit_generators_generate_the_orthogonal_group():
    assert [orthogonal_group_order(n) for n in range(1, 6)] == [1, 2, 6, 48, 720]
    for n in range(1, 6):
        gens = [g for g, _ in enumeration._generators(n)]
        ident = tuple(range(1 << n))
        group, queue = {ident}, [ident]
        for h in queue:
            for g in gens:
                gh = tuple(g[h[x]] for x in range(1 << n))
                if gh not in group:
                    group.add(gh)
                    queue.append(gh)
        assert len(group) == orthogonal_group_order(n), n


def test_moves_tabulate_the_orthogonal_group(monkeypatch):
    # moves[x][y] holds the elements sending x to y: each row partitions the
    # closure, which is all of O(n); every unitary fixes 0
    for n in range(1, 7):
        moves = enumeration._moves(n)
        group = moves[0][0]
        assert group.bit_count() == orthogonal_group_order(n), n
        for row in moves:
            assert sum(b.bit_count() for b in row) == group.bit_count()
            assert functools.reduce(int.__or__, row) == group
    assert group.bit_count() == 23040

    def build(n):
        raise AssertionError(f"_generators({n}) ran before the size check")

    # O(7), 1,451,520 elements, is refused before anything is built
    monkeypatch.setattr(enumeration, "_generators", build)
    with pytest.raises(RuntimeError):
        enumeration._moves(7)


def key_searches(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the (rows, auts) of every key search it runs
    from the enumeration module."""
    calls, real = [], enumeration._min_lex_form

    def spy(rows, auts=None):
        calls.append((rows, auts))
        return real(rows, auts)

    enumeration._min_lex_form = spy
    try:
        return fn(*args, **kwargs), calls
    finally:
        enumeration._min_lex_form = real


@functools.lru_cache(maxsize=None)
def keyed_classes(n, k):
    """classify(n, k) and the (rows, auts) of its key searches."""
    classes, searches = key_searches(classify, n, k)
    return tuple(classes), tuple(searches)


def test_stabilizer_pruned_keys_equal_unpruned_keys():
    # skipping the children that a class's stabilizer shows equivalent must
    # keep bits and perm, also with the indices relabeled
    rng = random.Random(28)
    checked = 0
    searches = []
    for n in (3, 4, 5):
        for shortcut in (True, False):
            config = SearchConfig(use_complement_shortcut=shortcut)
            searches += key_searches(catalog, n, config=config)[1]
    # at n = 6, those of catalog(6, config=SearchConfig(k_min=54)): the
    # classes at k = 6..9, then their complements at k = 54..57
    for k in range(6, 10):
        classes, small = keyed_classes(6, k)
        searches += small
        searches += key_searches(enumeration._complemented_classes, 6, classes)[1]
    for rows, auts in searches:
        k = len(rows)
        assert auts is not None and len(auts) == k
        assert _min_lex_form(rows, auts) == _min_lex_form(rows)
        p = rng.sample(range(k), k)
        rows_p = tuple(sum((rows[p[i]] >> p[j] & 1) << j for j in range(k))
                       for i in range(k))
        auts_p = tuple(tuple(auts[p[i]][p[j]] for j in range(k)) for i in range(k))
        assert _min_lex_form(rows_p, auts_p) == _min_lex_form(rows_p)
        checked += 1
    assert checked == 2 * (2 + 8 + 312) + 2 * 19


@st.composite
def coordinates(draw, min_n=1):
    """(n, a coset coordinate of Z_2^n), n <= 6: one Parseval subset."""
    n = draw(st.integers(min_n, 6))
    return n, draw(st.integers(0, (1 << len(enumeration._coset(n).basis)) - 1))


@settings(max_examples=200, deadline=None)
@given(coordinates())
def test_coordinates_round_trip_through_parseval_words(point):
    n, i = point
    coset = enumeration._coset(n)
    word = enumeration._apply(coset.word, i)
    assert enumeration._apply(coset.index, word) == i
    assert is_parseval_naive(enumeration._encs(word), n)


@settings(max_examples=200, deadline=None)
@given(coordinates())
def test_generator_byte_tables_agree_with_vector_tables(point):
    # each generator's coordinate map, decoded, is its vector table applied
    # to the decoded subset
    n, i = point
    coset = enumeration._coset(n)
    for g, maps in enumeration._generators(n):
        moved = enumeration._word(g[v] for v in enumeration._subset(n, i))
        assert enumeration._apply(coset.word, enumeration._apply(maps, i)) == moved


@settings(max_examples=200, deadline=None)
@given(coordinates(min_n=3))
def test_complement_is_one_xor_on_coordinates(point):
    n, i = point
    rest = set(range(1, 1 << n)) - set(enumeration._subset(n, i))
    assert enumeration._subset(n, i ^ enumeration._coset(n).flip) == tuple(sorted(rest))


def test_word_sweep_equals_tuple_sweep():
    # every class's orbit, member for member in breadth-first order
    sizes = [(n, k) for n in range(1, 6) for k in range(n, min(8, (1 << n) - 1) + 1)]
    checked = 0
    for n, k in sizes + [(6, 6), (6, 7)]:
        gens = [g for g, _ in enumeration._generators(n)]
        for i, _, orbit in enumeration._classes(n, k):
            want = orbit_by_tuples(gens, enumeration._subset(n, i))
            assert [enumeration._subset(n, m) for m in orbit] == want, (n, k)
            checked += 1
    assert checked == 18 + 1 + 2  # n <= 5, then n = 6 at k = 6 and 7


@st.composite
def subsets(draw):
    """(n, sorted encodings of distinct nonzero vectors), n <= 6."""
    n = draw(st.integers(1, 6))
    return n, tuple(sorted(draw(st.sets(st.integers(1, (1 << n) - 1)))))


@settings(max_examples=300, deadline=None)
@given(subsets())
def test_words_decode_to_their_encodings(sub):
    n, encs = sub
    word = enumeration._word(encs)
    assert word < 1 << (1 << n) and not word & 1
    assert enumeration._encs(word) == encs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(0, (1 << len(enumeration._coset(n).basis)) - 1), min_size=2, max_size=40))))
def test_reversed_word_order_is_lex_order(drawn):
    # coordinates against the tuples within each size, and against the
    # reversed words across sizes
    n, coords = drawn
    points = [(i, enumeration._subset(n, i)) for i in coords]
    for a, sa in points:
        for b, sb in points:
            if len(sa) == len(sb):
                assert (a > b) == (sa < sb)
            ka, kb = (lex_key_by_reversed_word(enumeration._word(s), n) for s in (sa, sb))
            assert (a > b) == (ka > kb) and (a == b) == (sa == sb)


def test_reversed_word_key_ascends_over_every_coordinate():
    for n in range(1, 6):
        coset = enumeration._coset(n)
        keys = [lex_key_by_reversed_word(enumeration._apply(coset.word, i), n)
                for i in range(1 << len(coset.basis))]
        assert all(a < b for a, b in zip(keys, keys[1:])), n
    assert len(keys) == 1 << 16


def test_coset_basis_is_in_echelon_form_from_the_low_end():
    # basis[j]'s lowest vector descends with j and is in no other basis
    # word nor the particular word, so it is coordinate bit j
    for n in range(1, 7):
        coset = enumeration._coset(n)
        lows = [word & -word for word in coset.basis]
        assert lows == sorted(set(lows), reverse=True), n
        for j, low in enumerate(lows):
            assert [word for word in coset.basis if word & low] == [coset.basis[j]]
            assert not coset.particular & low
            assert enumeration._apply(coset.index, coset.particular ^ coset.basis[j]) == 1 << j
        assert enumeration._apply(coset.index, coset.particular) == 0
        assert is_parseval_naive(enumeration._encs(coset.particular), n)


def test_n6_subsets_hold_vector_one_by_the_top_coordinate_bit():
    d = len(enumeration._coset(6).basis)
    rng = random.Random(29)
    for _ in range(2000):
        i = rng.getrandbits(d)
        assert (1 in enumeration._subset(6, i)) == bool(i >> d - 1 & 1), i


def test_member_count_times_automorphisms_is_group_order():
    # orbit-stabilizer: a class is an O(n)-orbit, and the stabilizer of a
    # Parseval frame acts on it as the permutations fixing its Grammian;
    # the stabilizer that prunes the class's key search has that size too
    checked = 0
    sizes = [(n, k) for n in range(1, 6) for k in range(n, min(8, (1 << n) - 1) + 1)]
    for n, k in sizes + [(6, k) for k in range(6, 10)]:
        order = orthogonal_group_order(n)
        classes, searches = keyed_classes(n, k)
        assert len(searches) == len(classes)
        for cls, (_, auts) in zip(classes, searches):
            aut = automorphism_count(grammian(cls.representative).to_lists())
            assert cls.member_count * aut == order, (n, k, cls)
            assert sum(auts[0]).bit_count() == aut, (n, k, cls)
            checked += 1
    assert checked == 18 + 19  # 16 at n = 3..5, one each at n = 1, 2; 19 at n = 6


def test_classify_equals_per_member_key_grouping():
    # the reference is the whole search tree at every n; classify reads
    # the coset walk at n <= 5 and the vector-1 subtree at n = 6
    sizes = [(n, k) for n in range(1, 6) for k in range(n, min(9, (1 << n) - 1) + 1)]
    for n, k in sizes + [(6, 6), (6, 7), (6, 8)]:
        want = classes_by_member_keys(
            enumeration._iter_encodings(n, k),
            lambda encs: canonical_key(grammian(Frame.from_encodings(n, encs))))
        got = [(c.representative.encodings, c.key, c.member_count)
               for c in classify(n, k)]
        assert got == want, (n, k)


def test_complement_bijection_on_member_counts():
    for n in (3, 4):
        full = (1 << n) - 1
        for k in range(n, full + 1):
            if full - k < n:
                continue
            a = {c.key: c.member_count for c in classify(n, k)}
            b = classify(n, full - k)
            assert sum(a.values()) == sum(c.member_count for c in b)
            for c in b:
                comp = complement(c.representative, drop_zero=True)
                key = canonical_key(grammian(comp))
                assert a[key] == c.member_count


def test_catalog_row_invariants_including_multiclass():
    # n=5, k=6 is the smallest case with more than one class per row
    rows = catalog(5, 6) + catalog(2) + catalog(1)
    saw_multiclass = False
    for row in rows:
        reps = [c.representative for c in row.classes]
        saw_multiclass |= len(reps) > 1
        assert [r.encodings for r in reps] == sorted(r.encodings for r in reps)
        for rep in reps:
            assert rep.dim == row.n and rep.size == row.k
            assert is_parseval(rep)
            assert not is_trivially_redundant(rep)
    assert saw_multiclass
    assert [(r.n, r.k) for r in catalog(1)] == [(1, 1)]
    assert [(r.n, r.k) for r in catalog(2)] == [(2, 2)]


def test_catalog_rows_n3_n4():
    rows = catalog(3)
    assert [(r.n, r.k, len(r.classes)) for r in rows] == [(3, 3, 1), (3, 4, 1)]
    assert rows[0].classes[0].representative.encodings == (1, 2, 4)
    assert rows[1].classes[0].representative.encodings == (3, 5, 6, 7)

    rows = catalog(4)
    assert [(r.k, len(r.classes)) for r in rows] == [
        (k, 1) for k in range(4, 12)]


def test_catalog_shortcut_agrees_with_direct_search():
    for n in (1, 2, 3, 4):
        direct = catalog_lines(
            catalog(n, config=SearchConfig(use_complement_shortcut=False)))
        shortcut = catalog_lines(catalog(n))
        assert direct == shortcut


def test_catalog_kmax_and_config_ranges():
    rows = catalog(4, 6)
    assert [r.k for r in rows] == [4, 5, 6]
    rows = catalog(4, 7, config=SearchConfig(k_min=5))
    assert [r.k for r in rows] == [5, 6, 7]
    rows = catalog(5, 5)
    assert len(rows) == 1 and rows[0].classes[0].member_count == 6


def test_catalog_searches_each_size_once(monkeypatch):
    # a size serves its direct row and its complement row from one search
    searched = []
    real_walk = enumeration._walk

    def logged(n, k):
        searched.append(k)
        return real_walk(n, k)

    monkeypatch.setattr(enumeration, "_walk", logged)
    for build, want in ((lambda: catalog(4), [4, 5, 6, 7]),
                        (lambda: catalog(3), [3]),
                        (lambda: catalog(5, config=SearchConfig(k_min=24)), [7, 6, 5])):
        searched.clear()
        build()
        assert searched == want


def test_search_size_guard(monkeypatch):
    # n <= 5 is searched at every k and n = 6 up to k = 9; everything else
    # is refused by one check, before any search table is built
    assert catalog(5, 6)  # bounded: fine
    with monkeypatch.context() as m:
        def no_tables(n):
            raise AssertionError(f"search tables built for n = {n}")
        m.setattr(enumeration, "_tables", no_tables)
        with pytest.raises(ValueError):
            catalog(6)  # k = 10 is refused before the k = 6 row starts
        with pytest.raises(ValueError):
            catalog(6, config=SearchConfig(use_complement_shortcut=False))
        with pytest.raises(ValueError):
            classify(6, 20)
        with pytest.raises(ValueError):
            list(enumerate_parseval(7, 7))
        with pytest.raises(ValueError):
            list(enumerate_parseval(40, 40, workers=2))
    for n, k in ((5, 5), (5, 31), (6, 6), (6, 9)):
        enumeration._check_search(n, k)
    for n, k in ((6, 10), (6, 63), (7, 7), (0, 1), (5, 4), (5, 32), (6, 64)):
        with pytest.raises(ValueError):
            enumeration._check_search(n, k)


def test_deep_n5_searches_equal_complements_of_shallow_ones():
    # k = 24, 25 run the pruned search with many slots left, k = 7, 6 end
    # in tail lookups soon; complement duality ties the two
    nonzero = set(range(1, 32))
    for k in (24, 25):
        direct = [f.encodings for f in enumerate_parseval(5, k)]
        comp = sorted(tuple(sorted(nonzero - set(f.encodings)))
                      for f in enumerate_parseval(5, 31 - k))
        assert direct and direct == comp
    # the catalog's route: one orbit sweep per small class (two at k = 25)
    for k in (25, 26):
        assert enumeration._complemented_classes(5, classify(5, 31 - k)) == classify(5, k)


# sha256 of the 312 lines of the full `binframes catalog 5`
CATALOG_5_SHA256 = "eb02244c6b63e8f394d52d460ed61ecb98b4faa38309d4561947603ca8dd67cc"


@functools.lru_cache(maxsize=None)
def catalog_by_route(n, shortcut):
    """The lines of `binframes catalog n`, through the shortcut or directly."""
    return tuple(catalog_lines(catalog(n, config=SearchConfig(use_complement_shortcut=shortcut))))


def test_full_catalog_5_is_pinned():
    shortcut, direct = catalog_by_route(5, True), catalog_by_route(5, False)
    assert shortcut == direct
    data = "".join(line + "\n" for line in shortcut).encode()
    assert hashlib.sha256(data).hexdigest() == CATALOG_5_SHA256
    per_k = Counter(int(line.split("\t")[1]) for line in shortcut)
    assert [per_k[k] for k in range(5, 27)] == [
        1, 2, 3, 3, 6, 11, 16, 22, 27, 31, 34, 34, 31, 27, 22, 16, 11, 6, 3, 3, 2, 1]
    assert len(shortcut) == 312
    assert sum(int(line.split("\t")[-1]) for line in shortcut) == 1 << 16


def test_member_counts_equal_character_sums():
    # an independent route to every printed count: no subset is listed
    for n in (3, 4, 5):
        want = {k: m for k, m in members(n).items() if m}
        for shortcut in (True, False):
            got = Counter()
            for line in catalog_by_route(n, shortcut):
                got[int(line.split("\t")[1])] += int(line.split("\t")[-1])
            assert got == want, (n, shortcut)
    six = members(6)
    assert [six[k] for k in range(6, 10)] == [32, 256, 1856, 11360]
    assert sum(six.values()) == 1 << 42
    for k in range(6, 10):
        assert sum(c.member_count for c in keyed_classes(6, k)[0]) == six[k], k


def test_odd_weight_vectors_and_representatives_meet_vector_1():
    # A Parseval frame spans, so it holds an odd-weight vector. At even n
    # the generators move vector 1 onto every odd-weight vector, so every
    # class's least member holds vector 1. At odd n, x.x = x.j for the
    # all-ones j, so every unitary fixes j, and a class whose only odd-weight
    # vector is j misses vector 1.
    for n in (3, 4, 5, 6):
        full = (1 << n) - 1
        gens = [g for g, _ in enumeration._generators(n)]
        orbit = orbit_by_tuples(gens, (1,))
        odd = [(v,) for v in range(1, full + 1) if v.bit_count() % 2]
        if n % 2:
            assert all(g[full] == full for g in gens)
            odd.remove((full,))
        assert sorted(orbit) == odd, n
    for n in (3, 4, 5):
        for shortcut in (True, False):
            for line in catalog_by_route(n, shortcut):
                vecs = [int(v) for v in line.split("\t")[2].split(",")]
                odd = [v for v in vecs if v.bit_count() % 2]
                assert vecs[0] == 1 or (n % 2 and odd == [(1 << n) - 1]), line
    misses = [line.split("\t")[1] for line in catalog_by_route(5, True)
              if not line.split("\t")[2].startswith("1,")]
    assert misses == ["6", "7", "10", "11"]  # one class each
    for k in range(6, 10):
        assert all(c.representative.encodings[0] == 1 for c in keyed_classes(6, k)[0]), k


def test_n6_class_routes_search_only_the_vector_1_subtree(monkeypatch, capsys):
    # classify, catalog, enumerate and enumerate_parseval at n = 6 run
    # _search from vector 1 only, in this process, whatever the worker count
    firsts = []
    real_search = enumeration._search

    def logged(n, k, first):
        firsts.append(first)
        return real_search(n, k, first)

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"called with {args}, {kwargs}")

    monkeypatch.setattr(enumeration, "_search", logged)
    monkeypatch.setattr(enumeration, "_iter_encodings", must_not_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", must_not_run)
    assert [c.member_count for c in classify(6, 7, workers=2)] == [160, 96]
    assert [len(row.classes) for row in catalog(6, 8)] == [1, 2, 6]
    assert run(["enumerate", "6", "7", "--workers", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 256
    assert len(list(enumerate_parseval(6, 7, workers=2))) == 256
    assert firsts == [1] * 6


def test_catalog_line_format():
    lines = catalog_lines(catalog(3))
    assert lines == [
        "3\t3\t1,2,4\tk3:94\t1",
        "3\t4\t3,5,6,7\tk4:3880\t1",
    ]
    for line in catalog_lines(catalog(4)):
        n, k, vecs, key, count = line.split("\t")
        assert (n, int(count) >= 1) == ("4", True)
        assert key.startswith(f"k{k}:")
        encs = [int(v) for v in vecs.split(",")]
        assert encs == sorted(encs) and len(encs) == int(k)


def test_write_catalog_deterministic_bytes(tmp_path):
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    write_catalog(catalog(4), str(p1))
    write_catalog(catalog(4, config=SearchConfig(workers=2)), str(p2))
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n") and b"\r" not in b1


def test_golden_reference_reps_land_in_enumerated_classes():
    by_nk = {}
    for n, k, encs in load_reference_reps():
        rep = Frame.from_encodings(n, encs)
        assert is_parseval(rep)
        assert not is_trivially_redundant(rep)
        if (n, k) not in by_nk:
            by_nk[n, k] = classify(n, k)
        classes = by_nk[n, k]
        assert len(classes) == 1
        assert switching_equivalent(rep, classes[0].representative) is not None
        assert canonical_key(grammian(rep)) == classes[0].key
