"""Independent naive oracles used to cross-check the bit-packed paths.

Everything here works on unpacked list-of-lists (or plain combinations
streams) and deliberately shares no code with the package: elimination,
products and subset filters are re-derived from scratch so the two routes
can disagree when one is wrong. The exceptions are switching_by_two_keys,
min_lex_by_full_descent, match_by_full_descent and lex_key_by_reversed_word:
superseded routes of the package, kept to pin its keys, witnesses and order.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import comb


def vec_of(enc, n):
    return [(enc >> i) & 1 for i in range(n)]


def enc_of(coords):
    return sum(b << i for i, b in enumerate(coords))


def dot_naive(x, y):
    return sum(a * b for a, b in zip(x, y)) % 2


def transpose_naive(A):
    return [list(r) for r in zip(*A)]


def identity_naive(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul_naive(A, B):
    m, p = len(A), len(B)
    n = len(B[0]) if B else 0
    return [[sum(A[i][l] * B[l][j] for l in range(p)) % 2 for j in range(n)]
            for i in range(m)]


def rank_naive(A):
    M = [row[:] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(m):
            if i != r and M[i][c]:
                M[i] = [(a + b) % 2 for a, b in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return r


def inverse_naive(A):
    n = len(A)
    M = [A[i][:] + identity_naive(n)[i] for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if M[i][c]), None)
        if piv is None:
            return None
        M[r], M[piv] = M[piv], M[r]
        for i in range(n):
            if i != r and M[i][c]:
                M[i] = [(a + b) % 2 for a, b in zip(M[i], M[r])]
        r += 1
    return [row[n:] for row in M]


def frame_S_naive(encs, n):
    rows = [vec_of(e, n) for e in encs]
    if not rows:
        return [[0] * n for _ in range(n)]
    return matmul_naive(transpose_naive(rows), rows)


def frame_G_naive(encs, n):
    rows = [vec_of(e, n) for e in encs]
    return matmul_naive(rows, transpose_naive(rows))


def is_parseval_naive(encs, n):
    return frame_S_naive(encs, n) == identity_naive(n)


def parseval_by_sweep(encs, n):
    """Check x = sum((x, f_j) f_j) directly for every x in Z_2^n."""
    for x in range(1 << n):
        acc = 0
        for e in encs:
            if (x & e).bit_count() & 1:
                acc ^= e
        if acc != x:
            return False
    return True


def parseval_subsets_bruteforce(n, k):
    """Test every k-subset of the nonzero vectors; no pruning anywhere.

    The frame operator of a subset is the XOR of per-vector rank-one
    contributions, tabulated once up front.
    """
    full = (1 << n) - 1
    outer = [None] * (full + 1)
    for v in range(1, full + 1):
        rows = tuple(v if (v >> i) & 1 else 0 for i in range(n))
        outer[v] = rows
    ident = tuple(1 << i for i in range(n))
    hits = []
    for sub in combinations(range(1, full + 1), k):
        acc = [0] * n
        for v in sub:
            ov = outer[v]
            for i in range(n):
                acc[i] ^= ov[i]
        if tuple(acc) == ident:
            hits.append(sub)
    return hits


def reconstruction_sweep_naive(encs, duals, n):
    """y = sum((y, d_j) f_j) checked over all 2^n vectors y."""
    for y in range(1 << n):
        yv = vec_of(y, n)
        acc = [0] * n
        for f, d in zip(encs, duals):
            if dot_naive(yv, vec_of(d, n)):
                acc = [(a + b) % 2 for a, b in zip(acc, vec_of(f, n))]
        if acc != yv:
            return False
    return True


def basis_naive(encs, n):
    """1-based indices of the vectors independent of those before them,
    once n are found, or None; elimination on coordinate lists."""
    pivots = []  # (first nonzero column, reduced row)
    chosen = []
    for idx, e in enumerate(encs):
        v = vec_of(e, n)
        for c, row in pivots:
            if v[c]:
                v = [(a + b) % 2 for a, b in zip(v, row)]
        if any(v):
            pivots.append((v.index(1), v))
            chosen.append(idx + 1)
            if len(chosen) == n:
                return chosen
    return None


def duals_naive(encs, n):
    """Duals by the basis-inverse route: on basis_naive's subset, the
    columns of the inverse basis submatrix; zero elsewhere. None when the
    family does not span."""
    idx = basis_naive(encs, n)
    if idx is None:
        return None
    inv = inverse_naive([vec_of(encs[i - 1], n) for i in idx])
    duals = [0] * len(encs)
    for col, i in enumerate(idx):
        duals[i - 1] = enc_of([inv[r][col] for r in range(n)])
    return duals


def reconstructs_naive(encs, duals, n):
    """y = sum((y, d_j) f_j) for the n standard basis vectors y."""
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        acc = [0] * n
        for f, d in zip(encs, duals):
            if dot_naive(e, vec_of(d, n)):
                acc = [(a + b) % 2 for a, b in zip(acc, vec_of(f, n))]
        if acc != e:
            return False
    return True


def upper_tri_string(G, perm):
    k = len(G)
    return tuple(G[perm[i]][perm[j]] for i in range(k) for j in range(i, k))


def min_lex_bruteforce(G):
    """Factorial minimization of the upper-triangle string (pure python)."""
    k = len(G)
    best = None
    for p in permutations(range(k)):
        s = upper_tri_string(G, p)
        if best is None or s < best:
            best = s
    return best


def min_lex_bruteforce_np(G):
    """Vectorized factorial minimization, usable up to k = 8."""
    import numpy as np
    k = len(G)
    A = np.array(G, dtype=np.uint8)
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    conj = A[perms[:, :, None], perms[:, None, :]]
    iu = np.triu_indices(k)
    tri = conj[:, iu[0], iu[1]]
    return tuple(min(bytes(row) for row in tri))


def pack_bits_msb(bits):
    """Pack a bit tuple into bytes, MSB-first, trailing zeros."""
    out = bytearray((len(bits) + 7) // 8)
    for t, b in enumerate(bits):
        if b:
            out[t >> 3] |= 0x80 >> (t & 7)
    return bytes(out)


def switching_by_two_keys(F, H):
    """switching_equivalent by canonizing both Grammians and comparing keys.

    The route that matching H against F's key replaced, kept as its
    reference. It reuses the package's key search and witness check, so
    that its (U, pi) are the ones the package returned before.
    """
    from binframes.equivalence import (_check_key_size, _min_lex_form,
                                       _require_comparable, _unitary_witness)
    from binframes.frames import Frame, grammian
    _check_key_size(max(F.size, H.size))
    _require_comparable(F, H)
    rows_f, rows_h = grammian(F).row_bits, grammian(H).row_bits
    pairs_f, pairs_h = (sorted((r >> i & 1, r.bit_count()) for i, r in enumerate(rows))
                        for rows in (rows_f, rows_h))
    if pairs_f != pairs_h:
        return None
    bits_f, perm_f = _min_lex_form(rows_f)
    bits_h, perm_h = _min_lex_form(rows_h)
    if bits_f != bits_h:
        return None
    pi = tuple(h for _, h in sorted(zip(perm_f, perm_h)))
    permuted = Frame(H.dim, tuple(H.encodings[p] for p in pi))
    return _unitary_witness(permuted, F), pi


def min_lex_by_full_descent(rows):
    """_min_lex_form as it was before the discrete-partition leaf rule:
    the search descends one _children level per vector down to the empty
    partition. Kept as the reference whose (bits, perm) the package must
    return unchanged."""
    from binframes.equivalence import _children
    k = len(rows)
    diag = [(rows[i] >> i) & 1 for i in range(k)]
    best, best_perm = None, ()

    def dfs(fixed, cells, built):
        nonlocal best, best_perm
        if best is not None and built > best[:len(built)]:
            return
        if not cells:
            if best is None or built < best:
                best = list(built)
                best_perm = tuple(fixed)
            return
        for row, v, new_cells in _children(rows, diag, cells):
            fixed.append(v)
            dfs(fixed, new_cells, built + row)
            fixed.pop()

    dfs([], [list(range(k))] if k else [], [])
    if best is None:
        raise RuntimeError("canonical form search visited no leaf")
    return tuple(best), best_perm


def match_by_full_descent(rows, target):
    """_match_form as it was before the discrete-partition leaf rule: perm
    of the first leaf whose string is target, else None, found by one
    _children level per vector. Kept as the reference for _match_form."""
    from binframes.equivalence import _children
    diag = [(r >> i) & 1 for i, r in enumerate(rows)]
    want, fixed = list(target), []

    def dfs(cells, at):
        if not cells:
            return True
        for row, v, new_cells in _children(rows, diag, cells):
            if row != (part := want[at:at + len(row)]):
                return None if row < part else False
            fixed.append(v)
            if (found := dfs(new_cells, at + len(row))) is not False:
                return found
            fixed.pop()
        return False

    return tuple(fixed) if dfs([list(range(len(rows)))] if rows else [], 0) else None


def random_unitary(rng, n):
    """A random U with U*U = I as list-of-lists: its rows are an
    orthonormal basis (odd weights, even overlaps) drawn by backtracking."""
    odd = [v for v in range(1, 1 << n) if bin(v).count("1") % 2]

    def extend(basis):
        if len(basis) == n:
            return basis
        for v in rng.sample(odd, len(odd)):
            if all(bin(v & u).count("1") % 2 == 0 for u in basis):
                out = extend(basis + [v])
                if out:
                    return out
        return None
    return [vec_of(r, n) for r in extend([])]


_UNITARY_CACHE = {}


def all_unitaries(n):
    """Every U with U*U = I over GF(2), by trying all 2^(n*n) matrices.

    Returned as list-of-lists. Used to generate test stimuli (n <= 4), so
    the membership test runs on packed words for speed; the packed check
    is itself validated elsewhere against dot-product preservation.
    """
    if n in _UNITARY_CACHE:
        return _UNITARY_CACHE[n]
    out = []
    mask = (1 << n) - 1
    ident = tuple(1 << i for i in range(n))
    for bits in range(1 << (n * n)):
        rows = [(bits >> (n * i)) & mask for i in range(n)]
        cols = [sum(((rows[i] >> j) & 1) << i for i in range(n))
                for j in range(n)]
        utu = []
        for j in range(n):
            acc = 0
            w = cols[j]
            while w:
                i = (w & -w).bit_length() - 1
                acc ^= rows[i]
                w &= w - 1
            utu.append(acc)
        if tuple(utu) == ident:
            out.append([[(r >> j) & 1 for j in range(n)] for r in rows])
    _UNITARY_CACHE[n] = out
    return out


def apply_matrix(U, enc, n):
    """Left-multiply the encoded vector by the list-of-lists matrix."""
    x = vec_of(enc, n)
    return enc_of([sum(U[i][j] * x[j] for j in range(n)) % 2 for i in range(n)])


def orthogonal_group_order(n):
    """|O(n)| as the number of ordered orthonormal bases of Z_2^n.

    A unitary is fixed by its columns, which are exactly such a basis:
    odd-weight vectors with pairwise even overlap. The ordered completions
    of a partial basis depend only on its set, so each set is counted once.
    """
    odd = [v for v in range(1, 1 << n) if bin(v).count("1") % 2]

    @lru_cache(maxsize=None)
    def extend(basis):
        if len(basis) == n:
            return 1
        return sum(extend(basis | {v}) for v in odd
                   if all(bin(v & u).count("1") % 2 == 0 for u in basis))
    return extend(frozenset())


def automorphism_count(G):
    """Permutations p with G[p[i]][p[j]] == G[i][j], by backtracking."""
    k = len(G)

    def extend(p):
        i = len(p)
        if i == k:
            return 1
        return sum(extend(p + [v]) for v in range(k)
                   if v not in p and G[v][v] == G[i][i]
                   and all(G[v][p[j]] == G[i][j] for j in range(i)))
    return extend([])


def classes_by_member_keys(stream, key):
    """Group a subset stream by one key per member: [(least, key, count)].

    The per-member route that orbit sweeps replace, kept to cross-check them.
    """
    groups = {}
    for encs in stream:
        groups.setdefault(key(encs), []).append(encs)
    return sorted((min(members), k, len(members)) for k, members in groups.items())


def orbit_by_tuples(gens, encs):
    """The orbit of a sorted subset under the vector tables gens (g[x] is
    the image of x), swept breadth first over sorted tuples.

    The sweep that word images replaced, kept as their reference.
    """
    orbit = [encs]
    seen = {encs}
    for member in orbit:
        for g in gens:
            image = tuple(sorted([g[v] for v in member]))
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def lex_key_by_reversed_word(word, n):
    """The lex key of a subset word (bit v for vector v): its 2^n bits read
    in reverse. Of two subsets of one size, the lex-first holds the lowest
    vector where they differ, so its key is the larger.

    The key that ordered coset coordinates before they were numbered in lex
    order, kept as their reference.
    """
    return int(f"{word:0{1 << n}b}"[::-1], 2)


def members(n):
    """{k: number of Parseval k-subsets of the nonzero vectors of Z_2^n},
    for every k, by a character sum with no enumeration.

    S = I is d = n(n+1)/2 linear conditions on a subset T, so its indicator
    is 2^-d sum_y (-1)^(sum_i y_ii) prod_{v in T} (-1)^q(v), where y runs
    over the bits y_ij, i <= j, and q(v) = sum y_ij v_i v_j. Summed over
    the k-subsets, the product is [z^k] (1+z)^a (1-z)^b, with b the number
    of nonzero v with q(v) = 1 and a = 2^n - 1 - b. A Gray code over y
    keeps q's truth table as one int: one XOR and one popcount per step.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # monomial[t] is the truth table of v_i v_j: bit v set when v has both
    monomial = [sum(1 << v for v in range(1 << n) if v >> i & 1 and v >> j & 1)
                for i, j in pairs]
    groups = Counter({(0, 0): 1})  # (trace parity, b) -> number of y
    table = trace = 0
    for step in range(1, 1 << len(pairs)):
        t = (step & -step).bit_length() - 1  # the bit where Gray codes step
        table ^= monomial[t]
        trace ^= pairs[t][0] == pairs[t][1]
        groups[trace, table.bit_count()] += 1
    full = (1 << n) - 1
    out = {}
    for k in range(full + 1):
        total = sum((-1) ** tr * count * sum((-1) ** j * comb(full - b, k - j) * comb(b, j)
                                             for j in range(min(b, k) + 1))
                    for (tr, b), count in groups.items())
        out[k], rest = divmod(total, 1 << len(pairs))
        assert rest == 0, (n, k, total)
    return out
