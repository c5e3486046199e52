"""Exhaustive, isomorph-reduced enumeration of binary Parseval frames.

Frames are enumerated as unordered subsets of the nonzero vectors (so no
trivially redundant family can appear) in lexicographic order of their
ascending encodings, grouped into switching classes by canonical Grammian
key, and assembled into a catalog. For k past the halfway point the
catalog can take complements of the small-k classes instead of searching;
both routes must agree, and the tests hold them to that.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .equivalence import CanonicalKey, canonical_key
from .frames import Frame, grammian


@dataclass(frozen=True)
class SwitchingClass:
    """One switching-equivalence class at fixed (n, k).

    The representative is the member whose sorted encoding list is
    lexicographically least; member_count counts distinct vector-sets.
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
    """Search knobs: k range bounds, complement shortcut, worker count.

    allow_large unlocks catalog rows whose underlying search size exceeds
    8 vectors at n >= 5; the full n=5 catalog takes hours single-threaded
    and should not start by accident.
    """

    k_min: Optional[int] = None
    k_max: Optional[int] = None
    use_complement_shortcut: bool = True
    workers: int = 1
    allow_large: bool = False


def _outer_masks(n: int) -> tuple[list[int], int, int]:
    """Per-vector rank-one contributions to S, packed n*n bits per word.

    S of a subset is the XOR of the masks of its members, so the Parseval
    test is a handful of word operations per subset.
    """
    full = (1 << n) - 1
    masks = [0] * (full + 1)
    for v in range(1, full + 1):
        m = 0
        for i in range(n):
            if (v >> i) & 1:
                m |= v << (i * n)
        masks[v] = m
    ident = 0
    for i in range(n):
        ident |= 1 << (i * n + i)
    return masks, ident, full


def _pair_suffix_counts(n: int) -> dict[tuple[int, int], list[int]]:
    """cnt[(b1, b2)][w] = number of v in [w, 2^n - 1] with bits b1, b2 set."""
    full = (1 << n) - 1
    cnt = {}
    for b1 in range(n):
        for b2 in range(b1, n):
            arr = [0] * (full + 2)
            for v in range(full, 0, -1):
                arr[v] = arr[v + 1] + ((v >> b1) & (v >> b2) & 1)
            cnt[(b1, b2)] = arr
    return cnt


def _check_range(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if not n <= k <= (1 << n) - 1:
        raise ValueError(
            f"k = {k} out of range [{n}, {(1 << n) - 1}] for Z_2^{n}")


def _search(n: int, k: int, first: Optional[int] = None) -> list[tuple[int, ...]]:
    """Depth-first search over ascending encodings, maintaining partial S.

    A coordinate pair is completed once no remaining candidate carries
    both bits; prune when a completed pair still needs a parity flip
    (diagonal pairs checked first, they reject earliest). With one slot
    left the diagonal of the deficit pins the only possible vector.
    Must produce exactly the frames of the naive test-every-subset filter.
    """
    masks, ident, full = _outer_masks(n)
    cnt = _pair_suffix_counts(n)
    pairs = [(b, b) for b in range(n)] + [
        (b1, b2) for b1 in range(n) for b2 in range(b1 + 1, n)]
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def dfs(start: int, S: int) -> None:
        r = k - len(chosen)
        if r == 0:
            if S == ident:
                out.append(tuple(chosen))
            return
        if full - start + 1 < r:
            return
        delta = S ^ ident
        if r == 1:
            w = 0
            for i in range(n):
                if (delta >> (i * n + i)) & 1:
                    w |= 1 << i
            if w >= start and w != 0 and masks[w] == delta:
                out.append(tuple(chosen) + (w,))
            return
        for b1, b2 in pairs:
            if (delta >> (b1 * n + b2)) & 1 and cnt[(b1, b2)][start] == 0:
                return
        for w in range(start, full + 1):
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
    """Stream Parseval k-subsets in lexicographic order.

    The search space partitions by the first vector; workers explore
    disjoint subtrees and the results merge in first-vector order, so the
    stream is identical for any worker count.
    """
    _check_range(n, k)
    full = (1 << n) - 1
    if workers <= 1:
        yield from _search(n, k)
        return
    tasks = [(n, k, first) for first in range(1, full - k + 2)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = _pool_size(workers, len(tasks), cpus)
    with ProcessPoolExecutor(max_workers=size) as pool:
        for chunk in pool.map(_subtree_task, tasks, chunksize=4):
            yield from chunk


def enumerate_parseval(n: int, k: int, *, workers: int = 1) -> Iterator[Frame]:
    """Every Parseval frame of k distinct nonzero vectors in Z_2^n.

    Vectors ascend within each frame and subsets arrive in lexicographic
    order; zero vectors and repeats are excluded at generation time, so no
    trivially redundant frame can appear.
    """
    for encs in _iter_encodings(n, k, workers):
        yield Frame.from_encodings(n, encs)


def _classify_members(n: int, k: int,
                      workers: int = 1) -> dict[CanonicalKey, list[tuple[int, ...]]]:
    groups: dict[CanonicalKey, list[tuple[int, ...]]] = {}
    for encs in _iter_encodings(n, k, workers):
        key = canonical_key(grammian(Frame.from_encodings(n, encs)))
        groups.setdefault(key, []).append(encs)
    return groups


def _to_classes(n: int,
                groups: dict[CanonicalKey, list[tuple[int, ...]]]) -> list[SwitchingClass]:
    classes = [
        SwitchingClass(key, Frame.from_encodings(n, min(members)), len(members))
        for key, members in groups.items()
    ]
    classes.sort(key=lambda c: c.representative.encodings)
    return classes


def classify(n: int, k: int, *, workers: int = 1) -> list[SwitchingClass]:
    """Group the Parseval k-subsets of Z_2^n into switching classes.

    Classes are keyed by canonical Grammian key, carry their least member
    as representative, and are sorted by representative.
    """
    return _to_classes(n, _classify_members(n, k, workers))


def _complemented_classes(n: int, k_small: int, workers: int) -> list[SwitchingClass]:
    """Classes at k = 2^n - 1 - k_small, built by complementing members.

    Complementation within the nonzero vectors is a bijection between the
    Parseval subsets at the two sizes and preserves switching classes and
    member counts, so complementing every member reproduces exactly what
    direct search would find.
    """
    nonzero = set(range(1, 1 << n))
    groups: dict[CanonicalKey, list[tuple[int, ...]]] = {}
    for members in _classify_members(n, k_small, workers).values():
        comp = [tuple(sorted(nonzero - set(m))) for m in members]
        key = canonical_key(grammian(Frame.from_encodings(n, min(comp))))
        if key in groups:
            raise RuntimeError(f"complements of two classes share key {key}")
        groups[key] = comp
    return _to_classes(n, groups)


def catalog(n: int, k_max: Optional[int] = None, *,
            config: Optional[SearchConfig] = None) -> list[CatalogRow]:
    """Catalog rows for every k in [n, 2^n - 1] with a nonempty class list.

    With the complement shortcut enabled (and n >= 3, where complement
    duality holds), sizes past 2^(n-1) - 1 are produced from the
    complementary small size; k whose complement size falls below n can
    hold no Parseval frame at all.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    cfg = config or SearchConfig()
    full = (1 << n) - 1
    lo = max(n, cfg.k_min) if cfg.k_min is not None else n
    hi = full if k_max is None else min(k_max, full)
    if cfg.k_max is not None:
        hi = min(hi, cfg.k_max)
    if n >= 5 and not cfg.allow_large:
        threshold = (1 << (n - 1)) - 1 if cfg.use_complement_shortcut else full
        worst = max((full - k if k > threshold else k
                     for k in range(lo, hi + 1)), default=0)
        if worst > 8:
            raise ValueError(
                f"catalog at n = {n} needs a search over {worst}-subsets; "
                "bound k with k_max or opt in with SearchConfig(allow_large=True)")
    rows = []
    for k in range(lo, hi + 1):
        if cfg.use_complement_shortcut and n >= 3 and k > (1 << (n - 1)) - 1:
            k_small = full - k
            if k_small < n:
                classes: list[SwitchingClass] = []
            else:
                classes = _complemented_classes(n, k_small, cfg.workers)
        else:
            classes = classify(n, k, workers=cfg.workers)
        if classes:
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
