"""The queries workload: a seeded stream of single queries, each checked.

A block holds a fixed list of query slots built from every base in
recorded.bases(); the seed draws only the unitaries, permutations, extra
vectors and the order of the block. So every seed gives the same ops in the
same proportions, and blocks of one seed repeat exactly.

Per base B (85 of them: catalog representatives for n = 3..5, direct sums
for n = 6..8, n = 5 complements at k = 22..26), with U a random unitary and
pi a random permutation:
    verify(U B), dual(pi U B), key(pi U B), unitary(B, U B),
    switching(B, pi U B), complement(pi U B)
Per representative R (19): a spanning non-Parseval family U R + v, a
non-spanning family (R inside Z_2^(n+1), moved by a unitary) and a family
with a repeated vector, which exercise verify, dual, the NotParsevalError
and RepeatsPresentError refusals. Per n = 3..8 a moved weight-two family;
per pair of distinct n = 5 classes of one size, negative unitary and
switching queries. Every expected verdict follows from the construction.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import binframes as bf

import oracle
from recorded import Base

DEFAULT_SEED = 20090620
OPS = ("verify", "dual", "key", "unitary", "switching", "complement")
REFUSALS = ("NotParsevalError", "RepeatsPresentError")   # expected exceptions


@dataclass(frozen=True)
class Query:
    op: str
    n: int
    a: tuple[int, ...]                 # encodings of the first frame
    b: Optional[tuple[int, ...]]       # second frame, for unitary/switching
    expect: object                     # see check()
    large: bool                        # a k >= 22 input on the key path
    drop_zero: bool = False
    frames: tuple = ()                 # the Frame objects the program receives


def _image(rows: tuple[int, ...], encs) -> tuple[int, ...]:
    return tuple(oracle.apply(rows, f) for f in encs)


def _shuffled(rng: random.Random, encs) -> tuple[int, ...]:
    out = list(encs)
    rng.shuffle(out)
    return tuple(out)


def _complement(n: int, encs, drop_zero: bool) -> tuple[int, ...]:
    present = set(encs)
    return tuple(v for v in range(1 << n)
                 if v not in present and (v or not drop_zero))


def make_block(bases: list[Base], seed: int = DEFAULT_SEED,
               index: int = 0) -> list[Query]:
    """Block `index` of the stream for `seed`; see the module docstring."""
    rng = random.Random(f"{seed}:{index}")
    out: list[Query] = []

    def q(op, n, a, b=None, expect=None, large=False, drop_zero=False):
        frames = tuple(bf.Frame.from_encodings(n, e) for e in (a, b) if e is not None)
        out.append(Query(op, n, a, b, expect, large, drop_zero, frames))

    for B in bases:
        n = B.n
        img = _image(oracle.random_unitary(n, rng), B.encs)
        pimg = _shuffled(rng, img)
        dz = rng.random() < 0.5
        q("verify", n, img, expect=(True, True))
        q("dual", n, pimg, expect=True)
        q("key", n, pimg, expect=B.key, large=B.large)
        q("unitary", n, B.encs, img, expect=True)
        q("switching", n, B.encs, pimg, expect=True, large=B.large)
        q("complement", n, pimg, expect=_complement(n, pimg, dz), drop_zero=dz)
    for B in (b for b in bases if b.kind == "rep"):
        n = B.n
        img = _image(oracle.random_unitary(n, rng), B.encs)
        extra = img + (rng.randrange(1, 1 << n),)     # S = I + v v^T != I
        q("verify", n, extra, expect=(True, False))
        q("dual", n, extra, expect=True)
        q("unitary", n, extra, extra, expect="NotParsevalError")
        low = _image(oracle.random_unitary(n + 1, rng), B.encs)  # spans n dims
        q("verify", n + 1, low, expect=(False, False))
        q("dual", n + 1, low, expect=False)
        q("switching", n + 1, low, low, expect="NotParsevalError")
        q("complement", n, img + (img[0],), expect="RepeatsPresentError")
    for n in range(3, 9):
        w2 = _image(oracle.random_unitary(n, rng), oracle.weight_two_family(n))
        q("verify", n, w2, expect=(False, False))
        q("dual", n, w2, expect=False)
    reps5 = [b for b in bases if b.kind == "rep" and b.n == 5]
    for i, A in enumerate(reps5):
        for B in reps5[i + 1:]:
            if len(A.encs) != len(B.encs):
                continue
            img = _image(oracle.random_unitary(5, rng), B.encs)
            q("unitary", 5, A.encs, img, expect=False)
            q("switching", 5, A.encs, _shuffled(rng, img), expect=False)
    rng.shuffle(out)
    return out


def op_counts(block: list[Query]) -> dict[str, int]:
    return {op: sum(1 for x in block if x.op == op) for op in OPS}


def call(x: Query):
    """The timed part: one query against the library, nothing else."""
    F = x.frames[0]
    if x.op == "verify":
        return bf.is_frame(F), bf.is_parseval(F)
    if x.op == "dual":
        return bf.compute_dual(F)
    if x.op == "key":
        return bf.canonical_key(bf.grammian(F))
    if x.op == "unitary":
        return bf.unitary_equivalent(F, x.frames[1])
    if x.op == "switching":
        return bf.switching_equivalent(F, x.frames[1])
    return bf.complement(F, drop_zero=x.drop_zero)


def check(x: Query, result) -> None:
    """Raise CheckFailed unless result is what the construction implies."""
    n, k, exp = x.n, len(x.a), x.expect
    bad = oracle.CheckFailed
    if x.op == "verify":
        if result != exp:
            raise bad(f"verify {n}; {x.a}: got {result}, expected {exp}")
    elif x.op == "dual":
        if not exp:
            if result is not None:
                raise bad(f"dual of non-spanning {n}; {x.a} returned {result}")
            return
        if result is None or len(result) != k or any(g.dim != n for g in result):
            raise bad(f"dual of {n}; {x.a}: bad shape {result}")
        if not oracle.reconstructs(n, x.a, [g.bits for g in result]):
            raise bad(f"dual of {n}; {x.a} does not reconstruct")
    elif x.op == "key":
        if str(result) != exp or result.size != k:
            raise bad(f"key of {n}; {x.a}: got {result}, expected {exp}")
        if oracle.key_row_weights(k, result.packed) != oracle.gram_row_weights(x.a):
            raise bad(f"key of {n}; {x.a} is not a conjugate of its Grammian")
    elif x.op == "unitary":
        if not exp:
            if result is not None:
                raise bad(f"unitary {x.a} ~ {x.b}: unexpected witness")
            return
        if result is None:
            raise bad(f"unitary {x.a} ~ {x.b}: no witness")
        U = result.row_bits
        if (result.rows, result.cols) != (n, n) or not oracle.is_unitary(U, n):
            raise bad(f"unitary witness for {x.a} is not unitary")
        if any(oracle.apply(U, f) != h for f, h in zip(x.a, x.b)):
            raise bad(f"unitary witness for {x.a} does not map it onto {x.b}")
    elif x.op == "switching":
        if not exp:
            if result is not None:
                raise bad(f"switching {x.a} ~ {x.b}: unexpected witness")
            return
        if result is None:
            raise bad(f"switching {x.a} ~ {x.b}: no witness")
        W, pi = result
        U = W.row_bits
        if sorted(pi) != list(range(k)):
            raise bad(f"switching witness pi={pi} is not a permutation")
        if (W.rows, W.cols) != (n, n) or not oracle.is_unitary(U, n):
            raise bad(f"switching witness for {x.a} is not unitary")
        if any(x.a[j] != oracle.apply(U, x.b[pi[j]]) for j in range(k)):
            raise bad(f"switching witness fails f_j = U h_pi(j) for {x.a}")
    else:
        if result.dim != n or result.encodings != exp:
            raise bad(f"complement of {n}; {x.a}: got {result.encodings}")


def run_one(x: Query, span=nullcontext) -> tuple[float, Optional[str]]:
    """Time one query inside span(); return (seconds, failure or None).

    An expected refusal (the named exception) is a correct answer; any
    other exception, or an output failing its check, is a failure.
    """
    t0 = time.perf_counter()
    try:
        with span():
            result = call(x)
    except Exception as exc:                 # boundary: record and go on
        dt = time.perf_counter() - t0
        if x.expect in REFUSALS and type(exc).__name__ == x.expect:
            return dt, None
        return dt, f"{x.op} {x.n}; {x.a}: {traceback.format_exc()}"
    dt = time.perf_counter() - t0
    if x.expect in REFUSALS:
        return dt, f"{x.op} {x.n}; {x.a}: expected {x.expect}, got a result"
    try:
        check(x, result)
    except oracle.CheckFailed as exc:
        return dt, str(exc)
    return dt, None
