"""Per-layer probes for the traced run.

Every traced run, whatever its workload, runs this fixed battery so that it
reports every per-layer metric. Each probe times one layer at the inputs
named in BENCHMARK.md and checks what it returns. Per-call times come from
replaying calls captured under tracing with tracing off, so span overhead
does not enter them.
"""

from __future__ import annotations

import inspect
import os
import re
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

import binframes as bf
from binframes import enumeration as en
from binframes import equivalence as eq
from binframes import frames as fr
from binframes import gf2

import querygen
import recorded
from spans import Tracer, replay

SEARCH_KS = (5, 6, 7, 8)
SMALL_KEY_MAX = 16
LARGE_KEY_MIN = 22
POOL_WORKERS = 2


def pool_workers(available: int) -> Optional[int]:
    """Workers for the pool probes and workload, or None to skip them.

    Never more than the cores this process may run on: on one core a pool
    would only be oversubscribed, so it is skipped instead.
    """
    if available < 2:
        return None
    return min(POOL_WORKERS, available)


def available_cores() -> int:
    return len(os.sched_getaffinity(0))


class Metrics:
    """Per-layer results: value and unit, or a reason the value is missing."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[Optional[float], str, Optional[str]]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (value, unit, None)

    def missing(self, name: str, unit: str, reason: str) -> None:
        self.values[name] = (None, unit, reason)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _recorded_counts() -> tuple[dict[int, int], dict[int, int]]:
    frames: dict[int, int] = {}
    classes: dict[int, int] = {}
    for _, k, _, _, count in recorded.catalog_rows(5):
        frames[k] = frames.get(k, 0) + count
        classes[k] = classes.get(k, 0) + 1
    return frames, classes


def probe_enumeration(m: Metrics) -> dict[int, list[tuple[int, ...]]]:
    """Drain enumerate_parseval(5, k) for k = 5..8, one worker."""
    want_frames, want_classes = _recorded_counts()
    streams: dict[int, list[tuple[int, ...]]] = {}
    total_s = 0.0
    for k in SEARCH_KS:
        t0 = time.perf_counter()
        frames = list(bf.enumerate_parseval(5, k))
        dt = time.perf_counter() - t0
        total_s += dt
        streams[k] = [f.encodings for f in frames]
        n_classes = len({str(bf.canonical_key(bf.grammian(f))) for f in frames})
        m.check(len(frames) == want_frames[k] and n_classes == want_classes[k],
                f"enumerate_parseval(5, {k}): {len(frames)} frames in "
                f"{n_classes} classes, recorded {want_frames[k]} in {want_classes[k]}")
        m.put(f"enumeration.search_s.k{k}", dt, "s")
        m.put(f"enumeration.frames.k{k}", len(frames), "count")
        m.put(f"enumeration.classes.k{k}", n_classes, "count")
    m.put("enumeration.frames_per_s",
          sum(len(s) for s in streams.values()) / total_s, "1/s")
    return streams


def _private(module, name: str) -> Optional[Callable]:
    """A private entry point, or None once a later version renames it."""
    return getattr(module, name, None)


def _chunksize() -> Optional[int]:
    fn = _private(en, "_iter_encodings")
    match = fn and re.search(r"chunksize\s*=\s*(\d+)", inspect.getsource(fn))
    return int(match.group(1)) if match else None


def probe_pool(m: Metrics, serial: dict[int, list[tuple[int, ...]]]) -> None:
    """The process pool against the one-worker drains of probe_enumeration."""
    names = (("pool.speedup", "x"), ("pool.efficiency", "ratio"),
             ("pool.first_result_s", "s"), ("pool.max_chunk_share", "ratio"))
    workers = pool_workers(available_cores())
    if workers is None:
        for name, unit in names:
            m.missing(name, unit, "fewer than two cores: pool skipped")
        return
    pool_s = 0.0
    for k in SEARCH_KS:
        t0 = time.perf_counter()
        gen = bf.enumerate_parseval(5, k, workers=workers)
        first = next(gen)
        if k == SEARCH_KS[0]:
            m.put("pool.first_result_s", time.perf_counter() - t0, "s")
        stream = [first.encodings] + [f.encodings for f in gen]
        pool_s += time.perf_counter() - t0
        m.check(stream == serial[k],
                f"enumerate_parseval(5, {k}, workers={workers}) differs from one worker")
    speedup = sum(m.values[f"enumeration.search_s.k{k}"][0] for k in SEARCH_KS) / pool_s
    m.put("pool.speedup", speedup, "x")
    m.put("pool.efficiency", speedup / workers, "ratio")

    task = _private(en, "_subtree_task")
    chunk = _chunksize() if task is not None else None
    if chunk is None:
        m.missing("pool.max_chunk_share", "ratio",
                  "enumeration._subtree_task or its chunksize not found")
        return
    k = SEARCH_KS[-1]
    times, stream = [], []
    for first in range(1, (1 << 5) - k + 1):
        t0 = time.perf_counter()
        stream += task((5, k, first))
        times.append(time.perf_counter() - t0)
    m.check(stream == serial[k], "pool task units do not rebuild the k = 8 stream")
    chunks = [sum(times[i:i + chunk]) for i in range(0, len(times), chunk)]
    m.put("pool.max_chunk_share", max(chunks) / sum(times), "ratio")


def probe_catalog_small(m: Metrics) -> None:
    """One traced catalog-small pass; its row builders and keys replayed."""
    tr = Tracer()
    tr.capture = {"classify": [], "_complemented_classes": [], "_min_lex_form": []}
    with tr, tr.root("catalog-small"):
        lines = catalog_small_pass()
    m.check(lines == small_reference(), "catalog-small output differs from the recorded bytes")
    _put_pass_s(m, "enumeration.direct_rows_s", en.classify, tr.capture["classify"])
    _put_pass_s(m, "enumeration.complement_rows_s", _private(en, "_complemented_classes"),
                tr.capture["_complemented_classes"])
    key_fn = _private(eq, "_min_lex_form")
    if key_fn is None:
        for name, unit in (("equivalence.keys", "count"), ("equivalence.key_us.small", "us")):
            m.missing(name, unit, "equivalence._min_lex_form not found")
        return
    m.put("equivalence.keys", tr.calls("equivalence", "_min_lex_form"), "count")
    small = [c for c in tr.capture["_min_lex_form"] if len(c[0][0]) <= SMALL_KEY_MAX]
    _put_us(m, "equivalence.key_us.small", key_fn, small,
            "no key of size <= 16 in the catalog-small pass")


def _put_pass_s(m: Metrics, name: str, fn: Optional[Callable], calls: list) -> None:
    """Seconds one pass spends in the captured calls, replayed untraced."""
    per_call = replay(fn, calls) if fn is not None else None
    if per_call is None:
        m.missing(name, "s", "entry point not found or not called in the pass")
    else:
        m.put(name, per_call * len(calls), "s")


def _put_us(m: Metrics, name: str, fn: Optional[Callable], calls: list,
            why: str) -> None:
    per_call = replay(fn, calls) if fn is not None else None
    if per_call is None:
        m.missing(name, "us", why)
    else:
        m.put(name, per_call * 1e6, "us")


# metric name -> (captured function name, original function)
QUERY_REPLAYS = {
    "gf2.mat_mul_us": ("mat_mul", gf2.mat_mul),
    "gf2.mat_vec_us": ("mat_vec", gf2.mat_vec),
    "gf2.rank_us": ("rank", gf2.rank),
    "gf2.inverse_us": ("inverse", gf2.inverse),
    "gf2.is_unitary_us": ("is_unitary", gf2.is_unitary),
    "frames.is_parseval_us": ("is_parseval", fr.is_parseval),
    "frames.is_frame_us": ("is_frame", fr.is_frame),
    "frames.grammian_us": ("grammian", fr.grammian),
    "frames.compute_dual_us": ("compute_dual", fr.compute_dual),
    # captured with cls as the first argument, so replayed unbound
    "frames.from_encodings_us": ("from_encodings", vars(fr.Frame)["from_encodings"].__func__),
    "equivalence.switching_us": ("switching_equivalent", eq.switching_equivalent),
    "equivalence.unitary_us": ("unitary_equivalent", eq.unitary_equivalent),
}


def probe_queries(m: Metrics, bases: list, seed: int) -> None:
    """One traced block of the queries stream; its layer calls replayed."""
    block = querygen.make_block(bases, seed, 0)
    tr = Tracer()
    tr.capture = {fn: [] for fn, _ in QUERY_REPLAYS.values()}
    tr.capture["_min_lex_form"] = []
    with tr:
        for x in block:
            _, failure = querygen.run_one(x, lambda: tr.root("query"))
            m.check(failure is None, failure or "")
    for op, count in querygen.op_counts(block).items():
        m.put(f"queries.count.{op}", count, "count")
    for name, (fn_name, fn) in QUERY_REPLAYS.items():
        _put_us(m, name, fn, tr.capture[fn_name],
                f"{fn_name} was not called in a queries block")
    large = [c for c in tr.capture["_min_lex_form"] if len(c[0][0]) >= LARGE_KEY_MIN]
    _put_us(m, "equivalence.key_us.large", _private(eq, "_min_lex_form"), large,
            "equivalence._min_lex_form made no call of size >= 22 in a queries block")


def probe_cli(m: Metrics, tmp_root: Path, rounds: int = 3) -> None:
    """cli.run(["catalog", "4", "--out", f]) minus its own catalog(4) call."""
    want = recorded.catalog_bytes(4)
    own = []
    for _ in range(rounds):
        tr = Tracer()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=tmp_root) as d:
            out = Path(d) / "catalog4.tsv"
            with tr, tr.root("cli"):
                rc = bf.cli.run(["catalog", "4", "--out", str(out)])
            m.check(rc == 0 and out.read_bytes() == want,
                    f"cli catalog 4 exited {rc} or wrote other bytes")
        own.append(tr.total_s("cli", "run") - tr.total_s("enumeration", "catalog"))
    m.put("cli.run_s.catalog4", statistics.median(own), "s")


def catalog_small_pass() -> bytes:
    """catalog(3), catalog(4) by the complement shortcut, catalog(4) direct."""
    rows3 = bf.catalog(3)
    rows4 = bf.catalog(4)
    rows4_direct = bf.catalog(4, config=bf.SearchConfig(use_complement_shortcut=False))
    return b"".join(rows_bytes(r) for r in (rows3, rows4, rows4_direct))


def small_reference() -> bytes:
    return recorded.catalog_bytes(3) + 2 * recorded.catalog_bytes(4)


def rows_bytes(rows) -> bytes:
    """What write_catalog would write for rows."""
    return "".join(line + "\n" for line in bf.catalog_lines(rows)).encode()


def battery(seed: int, bases: list, tmp_root: Path) -> Metrics:
    m = Metrics()
    serial = probe_enumeration(m)
    probe_pool(m, serial)
    probe_catalog_small(m)
    probe_queries(m, bases, seed)
    probe_cli(m, tmp_root)
    return m
