"""Reference outputs the benchmark checks against, and the query bases.

The catalog files under data/ hold the exact bytes `write_catalog` produced
for catalog(3), catalog(4) and catalog(5, k_max=8) when the benchmark was
defined; base_keys.tsv holds the canonical keys of the direct sums and
complements the queries workload uses. Regenerate them only when an output
format changes on purpose:

    python3 perfbench/recorded.py --write
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
GOLDEN = ROOT / "golden" / "reference_classes.tsv"
CATALOG_FILES = {3: "catalog_n3.tsv", 4: "catalog_n4.tsv", 5: "catalog_n5_k8.tsv"}
N5_KMAX = 8
KEYS_FILE = "base_keys.tsv"


def catalog_bytes(n: int) -> bytes:
    return (DATA / CATALOG_FILES[n]).read_bytes()


def catalog_rows(n: int) -> list[tuple[int, int, tuple[int, ...], str, int]]:
    """(n, k, representative, key, member_count) per recorded line."""
    out = []
    for line in catalog_bytes(n).decode().splitlines():
        n_, k, vecs, key, count = line.split("\t")
        out.append((int(n_), int(k), tuple(int(v) for v in vecs.split(",")),
                    key, int(count)))
    return out


def golden_rows() -> list[tuple[int, int, tuple[int, ...]]]:
    out = []
    for line in GOLDEN.read_text().splitlines():
        if line.strip():
            n, k, vecs = line.split("\t")
            out.append((int(n), int(k), tuple(int(v) for v in vecs.split(","))))
    return out


@dataclass(frozen=True)
class Base:
    """A Parseval frame the queries workload draws its inputs from."""

    kind: str                 # rep | sum | comp
    n: int
    encs: tuple[int, ...]
    key: str                  # canonical key recorded at definition time

    @property
    def large(self) -> bool:
        return self.kind == "comp"


def _reps() -> dict[int, list[tuple[int, tuple[int, ...], str]]]:
    out: dict[int, list[tuple[int, tuple[int, ...], str]]] = {}
    for n in (3, 4, 5):
        out[n] = [(k, rep, key) for _, k, rep, key, _ in catalog_rows(n)]
    return out


def _unkeyed_bases() -> list[tuple[str, int, tuple[int, ...]]]:
    """Direct sums (n = 6..8, k <= 16) and n = 5 complements (k = 22..26).

    Direct sums stay at k <= 16 and complements at k >= 22, so the small
    and large key buckets do not overlap.
    """
    reps = _reps()
    r3 = [rep for _, rep, _ in reps[3]]
    r4 = [rep for _, rep, _ in reps[4]]
    r5 = [rep for _, rep, _ in reps[5]]
    sums: list[tuple[int, tuple[int, ...]]] = []
    sums += [(6, oracle.direct_sum(3, a, b)) for a in r3 for b in r3]
    sums += [(6, oracle.direct_sum(5, a, (1,))) for a in r5]
    sums += [(7, oracle.direct_sum(3, a, b)) for a in r3 for b in r4]
    sums += [(8, oracle.direct_sum(3, a, b)) for a in r3 for b in r5]
    sums += [(8, oracle.direct_sum(4, r4[i], r4[j]))
             for i in range(len(r4)) for j in range(i, len(r4))
             if len(r4[i]) + len(r4[j]) <= 12]
    full5 = set(range(1, 32))
    k9 = oracle.direct_sum(4, r4[[len(r) for r in r4].index(8)], (1,))
    comps = [tuple(sorted(full5 - set(f))) for f in r5 + [k9]]
    return ([("sum", n, e) for n, e in sums]
            + [("comp", 5, e) for e in comps])


def bases() -> list[Base]:
    """Every query base, in a fixed order; keys come from the data files."""
    keys = {}
    for line in (DATA / KEYS_FILE).read_text().splitlines():
        n, vecs, key = line.split("\t")
        keys[(int(n), vecs)] = key
    out = [Base("rep", n, rep, key)
           for n, rows in _reps().items() for _, rep, key in rows]
    for kind, n, encs in _unkeyed_bases():
        vecs = ",".join(map(str, encs))
        if (n, vecs) not in keys:
            raise oracle.CheckFailed(f"no recorded key for base {n}; {vecs}")
        out.append(Base(kind, n, encs, keys[(n, vecs)]))
    for b in out:
        if not oracle.is_parseval(b.n, b.encs) or len(set(b.encs)) != len(b.encs):
            raise oracle.CheckFailed(f"base {b.n}; {b.encs} is not a no-repeat Parseval frame")
    return out


def write() -> None:
    """Record the reference files from the library as it stands."""
    sys.path.insert(0, str(ROOT / "src"))
    import binframes as bf

    DATA.mkdir(exist_ok=True)
    for n, name in CATALOG_FILES.items():
        bf.write_catalog(bf.catalog(n, N5_KMAX if n == 5 else None), str(DATA / name))
    with open(DATA / KEYS_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for _, n, encs in _unkeyed_bases():
            key = bf.canonical_key(bf.grammian(bf.Frame.from_encodings(n, encs)))
            fh.write(f"{n}\t{','.join(map(str, encs))}\t{key}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args()
    write()
