"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the library's test suite; they take about
a minute, most of it the n = 5 searches run twice.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import binframes as bf  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import querygen  # noqa: E402
import recorded  # noqa: E402
import run  # noqa: E402


def test_pool_workers_never_exceed_cores():
    assert layers.pool_workers(0) is None
    assert layers.pool_workers(1) is None
    assert layers.pool_workers(2) == 2
    assert layers.pool_workers(3) == 2
    assert layers.pool_workers(64) == layers.POOL_WORKERS


@pytest.mark.parametrize("k", [5, 6])
def test_recorded_n5_rows_match_naive_filter(k):
    recorded_count = sum(c for _, kk, _, _, c in recorded.catalog_rows(5) if kk == k)
    assert oracle.naive_parseval_count(5, k) == recorded_count


def test_recorded_rows_cover_golden():
    run._check_golden()


def _count_metrics(seed):
    m = layers.Metrics()
    layers.probe_enumeration(m)
    layers.probe_catalog_small(m)
    layers.probe_queries(m, recorded.bases(), seed)
    assert m.failures == []
    return {k: v for k, (v, unit, _) in m.values.items() if unit == "count"}


def test_exact_counts_repeat_bit_for_bit():
    first = _count_metrics(querygen.DEFAULT_SEED)
    second = _count_metrics(querygen.DEFAULT_SEED)
    assert first == second
    assert [first[f"enumeration.frames.k{k}"] for k in (5, 6, 7, 8)] == [6, 26, 80, 240]
    assert [first[f"enumeration.classes.k{k}"] for k in (5, 6, 7, 8)] == [1, 2, 3, 3]
    assert sum(first[f"queries.count.{op}"] for op in querygen.OPS) == 669


def test_second_seed_keeps_ops_and_proportions():
    bases = recorded.bases()
    a = querygen.make_block(bases, 1)
    b = querygen.make_block(bases, 2)
    assert querygen.op_counts(a) == querygen.op_counts(b)
    assert sum(x.large for x in a) == sum(x.large for x in b) == 20
    assert [x.a for x in a] != [x.a for x in b]
    assert [x.a for x in a] == [x.a for x in querygen.make_block(bases, 1)]


def _first(block, op, **want):
    return next(x for x in block
                if x.op == op and all(getattr(x, k) == v for k, v in want.items()))


def test_checks_reject_wrong_outputs():
    block = querygen.make_block(recorded.bases(), 7)
    key = _first(block, "key", large=False)
    uni = _first(block, "unitary", expect=True)
    sw = _first(block, "switching", expect=True, large=False)
    dual = _first(block, "dual", expect=True)
    comp = _first(block, "complement", drop_zero=True)
    cases = [
        (key, bf.CanonicalKey(len(key.a), bytes(len(querygen.call(key).packed)))),
        (uni, bf.BinMatrix.zero(uni.n, uni.n)),
        (sw, (bf.BinMatrix.zero(sw.n, sw.n), querygen.call(sw)[1])),
        (dual, tuple(bf.BinVector(dual.n, 0) for _ in dual.a)),
        (_first(block, "verify", expect=(True, True)), (True, False)),
        (comp, bf.Frame.from_encodings(comp.n, ())),
    ]
    for x, wrong in cases:
        querygen.check(x, querygen.call(x))
        with pytest.raises(oracle.CheckFailed):
            querygen.check(x, wrong)


def test_no_assert_in_benchmark_code():
    """Checks must survive python -O, so none is an assert statement."""
    for path in HERE.glob("*.py"):
        if path.name == "selftest.py":
            continue
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path


def test_checks_run_under_python_O():
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']\n"
            "import oracle, querygen, recorded\n"
            "x = next(q for q in querygen.make_block(recorded.bases(), 1) if q.op == 'verify')\n"
            "try:\n    querygen.check(x, (None, None))\n"
            "except oracle.CheckFailed:\n    sys.exit(0)\nsys.exit(1)\n")
    p = subprocess.run([sys.executable, "-O", "-c", code], cwd=ROOT)
    assert p.returncode == 0


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(15)]) == (14.0, 100.0)
    samples = [float(i) for i in range(1, 101)]          # 100 samples
    value, p = run.tail(samples)
    assert (value, p) == (90.0, 90.0)                      # ten beyond it
    samples = [float(i) for i in range(1, 2001)]
    assert run.tail(samples) == (1980.0, 99.0)


def test_fails_without_the_library():
    """In a directory with only the benchmark files the run refuses, with
    no result line."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(HERE, Path(d) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=d, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    for line in p.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
