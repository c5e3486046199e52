"""Exhaustive, isomorph-reduced enumeration of binary Parseval frames.

Frames are enumerated as unordered subsets of the nonzero vectors (so no
trivially redundant family can appear) in lexicographic order of their
ascending encodings, grouped into switching classes, which are the orbits
of the unitary group O(n) on vector sets, with one canonical Grammian key
per orbit, and assembled into a catalog. Up to n = 5 the subsets are read
from one coset of a Reed-Muller code; at n = 6 they are searched. Inside,
a subset is its coordinate in that coset, so orbit images, lex order and
complements are table lookups. For k past the halfway point the catalog
can take complements of the small-k classes instead; both routes must
agree, and the tests hold them to that.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .equivalence import CanonicalKey, _min_lex_form, canonical_key
from .frames import Frame, grammian
from .gf2 import BinMatrix, is_unitary


@dataclass(frozen=True)
class SwitchingClass:
    """One switching-equivalence class at fixed (n, k).

    The representative is the member whose sorted encoding list is
    lexicographically least; member_count counts distinct vector-sets,
    the size of the class's O(n)-orbit.
    """

    key: CanonicalKey
    representative: Frame
    member_count: int


@dataclass(frozen=True)
class CatalogRow:
    n: int
    k: int
    classes: tuple[SwitchingClass, ...]


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs: least k, complement shortcut, worker count.

    workers is accepted and changes nothing: no route starts a process.
    At n = 6 a catalog stops at subsets of 9 vectors (see _check_search).
    """

    k_min: Optional[int] = None
    use_complement_shortcut: bool = True
    workers: int = 1


# The last TAIL vectors of a subset come from one table lookup. At n = 6 the
# 3-subset table holds 39,711 subsets (about 10 MB with the smaller tables);
# 4-subsets would be 595,665.
TAIL = 3


def _masks(n: int) -> tuple[list[int], int]:
    """The packed rank-one masks of Z_2^n and the packed identity.

    masks[v] is the contribution v v^T of v to S, n*n bits per word, so S
    of a subset is the XOR of its members' masks; ident packs I alike.
    """
    masks = [sum(v << (i * n) for i in range(n) if (v >> i) & 1)
             for v in range(1 << n)]
    return masks, sum(1 << (i * n + i) for i in range(n))


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> tuple[list[int], int, list[int], list[dict]]:
    """Search tables for Z_2^n, built once per process and shared: read only.

    masks and ident are those of _masks. cover[w] is the OR of masks[w:],
    the bits that the vectors from w on can still flip. tails[t] maps the
    packed S of every t-subset of the nonzero vectors to those subsets, in
    lex order.
    """
    full = (1 << n) - 1
    masks, ident = _masks(n)
    cover = [0] * (full + 2)
    for w in range(full, 0, -1):
        cover[w] = cover[w + 1] | masks[w]
    tails = []
    for t in range(TAIL + 1):
        table: dict[int, list[tuple[int, ...]]] = {}
        for sub in itertools.combinations(range(1, full + 1), t):
            S = 0
            for v in sub:
                S ^= masks[v]
            table.setdefault(S, []).append(sub)
        tails.append(table)
    return masks, ident, cover, tails


def _byte_tables(values: Sequence[int], const: int = 0) -> tuple[list[int], ...]:
    """At least two tables that map an int through an affine map by bytes:
    table j sends byte x to the XOR of values[8j + t] over the set bits t
    of x, and table 0 XORs in const too, so the image of an int is the XOR
    of one lookup per byte (_apply)."""
    tables, padded = [], list(values) + [0] * 16
    for j in range(0, max(len(values), 16), 8):
        table = [0 if j else const] * 256
        for x in range(1, 256):
            low = x & -x
            table[x] = table[x ^ low] ^ padded[j + low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


def _apply(tables: Sequence[list[int]], i: int) -> int:
    """The image of i under _byte_tables: one lookup per byte, XORed."""
    out = 0
    for table in tables:
        out, i = out ^ table[i & 0xFF], i >> 8
    return out


class _Coset(NamedTuple):
    """The Parseval subsets of Z_2^n as one coset of a binary code, n <= 6.

    A subset is a word of 2^n - 1 bits, bit v for vector v. S is linear in
    the word, so the Parseval words are a particular word plus the kernel of
    S, punctured RM(n - 3, n) of dimension d = 2^n - 1 - n(n+1)/2 (16 at
    n = 5, 42 at n = 6). Subset i < 2^d is particular ^ basis[j] over the
    set bits j of i; of two subsets of one size, the larger i is lex first
    (_coset). Tables are _byte_tables."""

    basis: list[int]
    particular: int
    word: tuple[list[int], ...]   # coordinate -> word
    index: tuple[list[int], ...]  # coset word -> coordinate
    # i ^ flip is the complement of subset i: for n >= 3 the word of all
    # nonzero vectors is in the kernel, and flip is its coordinate
    flip: int
    smask: tuple[list[int], ...]  # word -> packed S + I, zero when Parseval


@functools.lru_cache(maxsize=None)
def _coset(n: int) -> _Coset:
    """_Coset(n), by one elimination over the masks of _masks from the
    highest vector down: the lowest vector of basis[j] descends with j and
    is in no other basis word nor, once reduced, in particular, which makes
    coordinate order lex order. Raises unless it is so."""
    full = (1 << n) - 1
    masks, ident = _masks(n)
    # a mask that reduces to zero gives a basis word of its own vector and
    # higher pivot vectors only, and its coordinate bit is gathered from the former
    pivots: dict[int, tuple[int, int]] = {}
    basis, gather = [], [0] * (full + 1)
    for v in range(full, 0, -1):
        S, word = masks[v], 1 << v
        while S:
            top = S.bit_length() - 1
            if top not in pivots:
                pivots[top] = S, word
                break
            S ^= pivots[top][0]
            word ^= pivots[top][1]
        else:
            gather[v] = 1 << len(basis)
            basis.append(word)
    if len(basis) != full - n * (n + 1) // 2:
        raise RuntimeError(f"the kernel of S on Z_2^{n} has dimension {len(basis)}")
    particular = sum(1 << (1 << i) for i in range(n))  # {e_1..e_n}
    for word in basis:
        if particular & word & -word:
            particular ^= word
    lows = [word & -word for word in basis]
    if lows != sorted(lows, reverse=True) or any(
            sum(1 for word in basis + [particular] if word & low) != 1 for low in lows):
        raise RuntimeError(f"the coset basis of Z_2^{n} is not in echelon form")
    index = _byte_tables(gather)
    flip = _apply(index, particular ^ ((1 << full + 1) - 2))
    return _Coset(basis, particular, _byte_tables(basis, particular), index, flip,
                  _byte_tables(masks + [0] * (32 - len(masks)), ident))


@functools.lru_cache(maxsize=None)
def _weights(n: int) -> bytes:
    """weights[i] is the size of subset i: one byte per coset word, for
    n <= 5 (2^42 words at n = 6)."""
    if n > 5:
        raise RuntimeError(f"the Parseval coset of Z_2^{n} is too large to weigh")
    basis, _, (w0, w1) = _coset(n)[:3]
    return bytes((w0[i & 0xFF] ^ w1[i >> 8]).bit_count() for i in range(1 << len(basis)))


def _walk(n: int, k: int) -> list[int]:
    """The Parseval k-subsets of Z_2^n, n <= 5, as descending coordinates,
    which is lex order: those of weight k in _weights, each checked against
    S = I. Decoded, they are the frames of _search."""
    weights, coset = _weights(n), _coset(n)
    (w0, w1), (s0, s1, s2, s3) = coset.word, coset.smask
    out = []
    i = weights.rfind(k)
    while i >= 0:
        w = w0[i & 0xFF] ^ w1[i >> 8]
        if s0[w & 0xFF] ^ s1[w >> 8 & 0xFF] ^ s2[w >> 16 & 0xFF] ^ s3[w >> 24]:
            raise RuntimeError(f"coset word {_encs(w)} of Z_2^{n} is not Parseval")
        out.append(i)
        i = weights.rfind(k, 0, i)
    return out


def _word(encs: Iterable[int]) -> int:
    """The word of a subset: bit v set for each vector v."""
    return sum(1 << v for v in encs)


def _encs(word: int) -> tuple[int, ...]:
    """The ascending encodings of a word's vectors."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return tuple(out)


def _subset(n: int, i: int) -> tuple[int, ...]:
    """The ascending encodings of the subset with coset coordinate i."""
    return _encs(_apply(_coset(n).word, i))


def _check_search(n: int, k: int) -> None:
    """Refuse a search over the k-subsets of Z_2^n before any table exists.

    Admitted: every k up to n = 5, read from the coset, and k <= 9 at n = 6,
    swept from the vector-1 subtree (k = 9: 2 s, the whole tree 20 s; 2-vCPU
    Xeon). At n >= 7 the 3-subset tail table alone would hold 333,375 subsets.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if n <= 6 and not n <= k <= (1 << n) - 1:
        raise ValueError(f"k = {k} out of range [{n}, {(1 << n) - 1}] for Z_2^{n}")
    if n > 6 or (n == 6 and k > 9):
        raise ValueError(
            f"a search over {k}-subsets of Z_2^{n} is too large; "
            "searches cover every k up to n = 5 and k <= 9 at n = 6")


def _search(n: int, k: int, first: Optional[int] = None) -> list[tuple[int, ...]]:
    """Depth-first search over ascending encodings, maintaining partial S.

    With more than TAIL slots left, prune when the deficit S + I has a bit
    that no remaining candidate can flip (outside cover[start]). With r <=
    TAIL slots left, the completions are exactly the r-subsets whose S is
    the deficit and whose first vector is at least start: one lookup.
    Must produce exactly the frames of the naive test-every-subset filter.
    """
    masks, ident, cover, tails = _tables(n)
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def dfs(start: int, S: int) -> None:
        r = k - len(chosen)
        delta = S ^ ident
        if r <= TAIL:
            for tail in tails[r].get(delta, ()):
                if not tail or tail[0] >= start:
                    out.append(tuple(chosen) + tail)
            return
        if delta & ~cover[start]:
            return
        for w in range(start, full - r + 2):
            chosen.append(w)
            dfs(w + 1, S ^ masks[w])
            chosen.pop()

    if first is None:
        dfs(1, 0)
    else:
        chosen.append(first)
        dfs(first + 1, masks[first])
    return out


def _subtree_task(args: tuple[int, int, int]) -> list[tuple[int, ...]]:
    n, k, first = args
    return _search(n, k, first)


def _pool_size(workers: int, tasks: int, cpus: int) -> int:
    """Processes to start; a fork pool starts all of them at once."""
    return min(workers, tasks, cpus)


def _iter_encodings(n: int, k: int, workers: int = 1) -> Iterator[tuple[int, ...]]:
    """Stream Parseval k-subsets in lexicographic order: the whole search tree.

    This is the reference that the tests hold every stream to; no route of
    the package calls it. With workers > 1, workers search the disjoint
    first-vector subtrees, whose results merge in order, so the stream is
    the same for any worker count.
    """
    _check_search(n, k)
    full = (1 << n) - 1
    if workers <= 1:
        yield from _search(n, k)
        return
    tasks = [(n, k, first) for first in range(1, full - k + 2)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = _pool_size(workers, len(tasks), cpus)
    # imported here, so that one-worker runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=size) as pool:
        for chunk in pool.map(_subtree_task, tasks, chunksize=4):
            yield from chunk


def enumerate_parseval(n: int, k: int, *, workers: int = 1) -> Iterator[Frame]:
    """Every Parseval frame of k distinct nonzero vectors in Z_2^n.

    Vectors ascend within each frame and subsets arrive in lexicographic
    order; zero vectors and repeats are excluded at generation time, so no
    trivially redundant frame can appear. Up to n = 5 the frames are read
    from the coset; at n = 6 they are the members of the class orbits
    (_keyed_encodings). workers is accepted and changes nothing.
    """
    _check_search(n, k)
    if n <= 5:
        w0, w1 = _coset(n).word
        stream = (_encs(w0[i & 0xFF] ^ w1[i >> 8]) for i in _walk(n, k))
    else:
        stream = (encs for encs, _ in _keyed_encodings(n, k))
    for encs in stream:
        yield Frame.from_encodings(n, encs)


@functools.lru_cache(maxsize=None)
def _generators(n: int) -> tuple[tuple[tuple[int, ...], tuple[list[int], ...]], ...]:
    """A generating set of O(n), the unitaries of Z_2^n, as (g, maps).

    g[x] is the image of vector x. A unitary keeps S = I, so it maps the
    coset onto itself by an affine map of the coordinates, whose
    _byte_tables are maps. The n - 1 adjacent coordinate swaps generate the
    permutation matrices; for n >= 4 the transvection x -> x + (a.x)a with
    a = 0b1111, unitary as a has even weight, adds the rest. Each is checked
    unitary, and its map against g at 0 and every unit coordinate."""
    columns = [[1 << {i: i + 1, i + 1: i}.get(j, j) for j in range(n)]  # swap i, i + 1
               for i in range(n - 1)]
    if n >= 4:  # column j of the transvection is e_j + a for j < 4
        columns.append([1 << j ^ (0b1111 if j < 4 else 0) for j in range(n)])
    coset = _coset(n)
    points = [0] + [1 << j for j in range(len(coset.basis))]
    gens = []
    for cols in columns:
        if not is_unitary(BinMatrix(n, n, tuple(cols)).transpose()):
            raise RuntimeError(f"orbit generator {cols} is not unitary on Z_2^{n}")
        table = _byte_tables(cols)[0][:1 << n]  # x -> the XOR of cols at x's bits
        moved = [_word(table[v] for v in _subset(n, i)) for i in points]
        c0, *images = [_apply(coset.index, word) for word in moved]
        maps = _byte_tables([image ^ c0 for image in images], c0)
        if any(_apply(coset.word, _apply(maps, i)) != w for i, w in zip(points, moved)):
            raise RuntimeError(f"orbit generator {cols} has a wrong coset map on Z_2^{n}")
        gens.append((tuple(table), maps))
    return tuple(gens)


@functools.lru_cache(maxsize=None)
def _moves(n: int) -> tuple[tuple[int, ...], ...]:
    """O(n) as bitsets, n <= 5: bit j of moves[x][y] is set when element j
    sends vector x to y. The elements are the closure of _generators'
    vector tables, composed by bytes.translate, and moves[0][0], since
    every unitary fixes 0, is the whole group (720 elements at n = 5;
    23,040 at n = 6)."""
    if n > 5:
        raise RuntimeError(f"O({n}) is too large to tabulate")
    pad = bytes(256 - (1 << n))
    tables = [bytes(g) + pad for g, _ in _generators(n)]
    elements = [bytes(range(1 << n))]
    seen = set(elements)
    for g in elements:  # grows while it is read
        for t in tables:
            h = g.translate(t)
            if h not in seen:
                seen.add(h)
                elements.append(h)
    moves = [[0] * (1 << n) for _ in range(1 << n)]
    for j, g in enumerate(elements):
        for x, y in enumerate(g):
            moves[x][y] |= 1 << j
    return tuple(map(tuple, moves))


def _class_key(rep: Frame, members: int) -> CanonicalKey:
    """The canonical key of a class of members subsets with least member rep.

    For n <= 5 the key search is pruned by rep's stabilizer Stab in O(n),
    read from _moves (_min_lex_form's auts), and raises unless
    |Stab| * members = |O(n)|, as orbit-stabilizer requires. At n = 6 it
    is canonical_key's search."""
    n, encs = rep.dim, rep.encodings
    if n > 5:
        return canonical_key(grammian(rep))
    moves = _moves(n)
    stab = moves[0][0]
    for x in encs:  # the elements sending every vector of rep into rep
        into = 0
        for y in encs:
            into |= moves[x][y]
        stab &= into
    if stab.bit_count() * members != moves[0][0].bit_count():
        raise RuntimeError(f"a class of {members} in Z_2^{n} has a stabilizer "
                           f"of {stab.bit_count()} in O({n})")
    auts = tuple([tuple([moves[x][y] & stab for y in encs]) for x in encs])
    bits, _ = _min_lex_form(grammian(rep).row_bits, auts)
    return CanonicalKey.from_bits(len(encs), bits)


def _sweep(n: int, start: int) -> list[int]:
    """The O(n)-orbit of a coordinate, swept breadth first from it."""
    maps = [m for _, m in _generators(n)]
    short = n <= 5  # two tables: the lookups inline
    orbit, seen = [start], {start}
    for member in orbit:  # grows while it is read: breadth first
        lo, hi = member & 0xFF, member >> 8
        for m in maps:
            image = m[0][lo] ^ m[1][hi] if short else _apply(m, member)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def _classes(n: int, k: int) -> list[tuple[int, CanonicalKey, list[int]]]:
    """The classes of the Parseval k-subsets: (least member, key, O(n)-orbit).

    Candidates are read in lex order, descending coordinates; the first that
    no earlier orbit claims is the least of its class, whose orbit is the
    whole class. At n = 6 only the subsets holding vector 1 are candidates:
    a Parseval frame spans, so it holds an odd vector (the even ones span a
    hyperplane), which O(6) moves to vector 1. Keys come from _class_key.
    Raises when the n = 6 search's coordinates do not descend, an orbit
    holds a candidate that was not streamed, a stabilizer and its orbit do
    not multiply to |O(n)|, two orbits share a key (too few generators) or
    the orbits claim other than exactly the candidates streamed."""
    _check_search(n, k)
    coset = _coset(n)
    coords = _walk(n, k) if n <= 5 else [_apply(coset.index, _word(e)) for e in _search(n, k, 1)]
    # the search shares only the masks with the coset: its order certifies the coset's
    if n > 5 and any(a <= b for a, b in zip(coords, coords[1:])):
        raise RuntimeError(f"the coordinates of the {k}-subsets of Z_2^{n} "
                           f"holding vector 1 do not descend in lex order")
    # at n = 6 vector 1 is the lowest vector of the last basis word: the top bit
    top = 1 << len(coset.basis) >> 1
    unclaimed = set(coords)
    keys: set[CanonicalKey] = set()
    classes, held = [], 0
    for i in coords:
        if i not in unclaimed:
            continue
        orbit = _sweep(n, i)  # _generators runs after the size check
        claimed = orbit if n <= 5 else [m for m in orbit if m & top]
        if not unclaimed.issuperset(claimed):
            raise RuntimeError(f"the O({n})-orbit of {_subset(n, i)} holds "
                               f"a subset that was not streamed")
        unclaimed.difference_update(claimed)
        held += len(claimed)
        key = _class_key(Frame.from_encodings(n, _subset(n, i)), len(claimed))
        if key in keys:
            raise RuntimeError(f"two O({n})-orbits share key {key}")
        keys.add(key)
        classes.append((i, key, orbit))
    if held != len(coords):
        raise RuntimeError(f"O({n})-orbits claim {held} subsets "
                           f"of the {len(coords)} streamed at k = {k}")
    return classes


def _keyed_encodings(n: int, k: int) -> Iterator[tuple[tuple[int, ...], CanonicalKey]]:
    """Every Parseval k-subset with its class key, in lex order: the members
    of the class orbits, by descending coordinate."""
    keyed = sorted([(m, key) for _, key, orbit in _classes(n, k) for m in orbit], reverse=True)
    return ((_subset(n, m), key) for m, key in keyed)


def classify(n: int, k: int, *, workers: int = 1) -> list[SwitchingClass]:
    """Group the Parseval k-subsets of Z_2^n into switching classes.

    Classes are the O(n)-orbits of the Parseval k-subsets, keyed by the
    canonical Grammian key of one member each, with their least member as
    representative and orbit size as member count, sorted by representative.
    workers is accepted and changes nothing: no route starts a process.
    """
    return [SwitchingClass(key, Frame.from_encodings(n, _subset(n, i)), len(orbit))
            for i, key, orbit in _classes(n, k)]


def _complemented_classes(n: int, classes: Sequence[SwitchingClass]
                          ) -> list[SwitchingClass]:
    """Classes at k = 2^n - 1 - k_small, from the classes at k_small.

    For n >= 3 complementing within the nonzero vectors maps Parseval
    subsets to Parseval subsets and commutes with O(n), so the complement
    of a class is the orbit of its representative's complement: one sweep
    and one key per class (_class_key), no search. Raises when that orbit
    and the class differ in size, a stabilizer and its orbit do not
    multiply to |O(n)|, or two complements share a key.
    """
    coset = _coset(n)
    out = []
    for cls in classes:
        small = _apply(coset.index, _word(cls.representative.encodings))
        orbit = _sweep(n, small ^ coset.flip)
        if len(orbit) != cls.member_count:
            raise RuntimeError(f"a class of {cls.member_count} has a complement "
                               f"orbit of {len(orbit)} in Z_2^{n}")
        rep = Frame.from_encodings(n, _subset(n, max(orbit)))
        out.append(SwitchingClass(_class_key(rep, len(orbit)), rep, len(orbit)))
    if len({c.key for c in out}) < len(out):
        raise RuntimeError("complements of two classes share a key")
    return sorted(out, key=lambda c: c.representative.encodings)


def catalog(n: int, k_max: Optional[int] = None, *,
            config: Optional[SearchConfig] = None) -> list[CatalogRow]:
    """Catalog rows for every k in [n, 2^n - 1] with a nonempty class list.

    With the complement shortcut enabled (and n >= 3, where complement
    duality holds), sizes past 2^(n-1) - 1 are produced from the
    complementary small size; k whose complement size falls below n can
    hold no Parseval frame at all. Each size is searched and classified
    once, for its direct row and its complement row alike.
    """
    _check_search(n, n)  # refuses n < 1 and n >= 7 before 2^n is formed
    cfg = config or SearchConfig()
    full = (1 << n) - 1
    lo = max(n, cfg.k_min) if cfg.k_min is not None else n
    hi = full if k_max is None else min(k_max, full)
    shortcut = cfg.use_complement_shortcut and n >= 3
    # the subset size searched for each row, smaller than k by complement;
    # all are checked before the first row starts
    sizes = {k: full - k if shortcut and k > (1 << (n - 1)) - 1 else k
             for k in range(lo, hi + 1)}
    searched = [size for size in dict.fromkeys(sizes.values()) if size >= n]
    for size in searched:
        _check_search(n, size)
    classified = {size: classify(n, size) for size in searched}
    rows = []
    for k, size in sizes.items():
        classes = classified.get(size)
        if classes:
            if size < k:
                classes = _complemented_classes(n, classes)
            rows.append(CatalogRow(n, k, tuple(classes)))
    return rows


def catalog_lines(rows: Sequence[CatalogRow]) -> list[str]:
    """One line per class: n, k, ascending vectors, key, member count,
    TAB-separated; rows sorted by (n, k, representative)."""
    out = []
    for row in rows:
        for cls in row.classes:
            vecs = ",".join(str(e) for e in cls.representative.encodings)
            out.append(f"{row.n}\t{row.k}\t{vecs}\t{cls.key}\t{cls.member_count}")
    return out


def write_catalog(rows: Sequence[CatalogRow], path: str) -> None:
    """Write catalog lines with LF endings, byte-deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in catalog_lines(rows):
            fh.write(line + "\n")
