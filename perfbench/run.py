"""The binframes benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload catalog-n5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload

Run from the root of a checkout; binframes is imported from src/. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones. The exit code is 0 when every output passed its check, 1 when one
failed, 2 when the checkout lacks what the benchmark needs and 3 when the
workload cannot run on this machine. BENCHMARK.md explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_TRIALS = 7
SETUP_CODE = ("import sys; from binframes import cli; "
              "sys.exit(cli.run(['verify', '3; 3,5,6,7']))")
SETUP_STDOUT = "frame: yes; parseval: yes; trivially-redundant: no\n"
WORKLOADS = ("catalog-n5", "catalog-n5-pool", "catalog-small", "queries")
LAYER_NAMES = ("gf2", "frames", "equivalence", "enumeration", "pool", "cli", "bench")


def _die(code: int, message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "binframes" / "__init__.py").is_file():
    _die(2, f"no binframes package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import binframes as bf  # noqa: E402

import layers  # noqa: E402
import querygen  # noqa: E402
import recorded  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from spans import Tracer, missing_entry_points  # noqa: E402

Span = Callable[[], object]


# -- workloads --------------------------------------------------------------
#
# A workload is a function run_op(span) that performs one operation and
# returns [(seconds, failure or None)], one entry per operation it timed.
# span() wraps the library calls only, so a traced run can attribute them.

def _catalog_op(call: Callable[[], bytes], want: bytes, what: str):
    def run_op(span: Span):
        t0 = time.perf_counter()
        with span():
            got = call()
        dt = time.perf_counter() - t0
        return [(dt, None if got == want else f"{what}: output differs from the recorded bytes")]
    return run_op


def make_workload(name: str, seed: int):
    if name == "catalog-n5":
        return _catalog_op(lambda: layers.rows_bytes(bf.catalog(5, k_max=recorded.N5_KMAX)),
                           recorded.catalog_bytes(5), "catalog(5, k_max=8)")
    if name == "catalog-n5-pool":
        workers = layers.pool_workers(layers.available_cores())
        if workers is None:
            _die(3, "catalog-n5-pool skipped: this process may use only one core, "
                    "and a pool there would only be oversubscribed")
        cfg = bf.SearchConfig(workers=workers)
        return _catalog_op(
            lambda: layers.rows_bytes(bf.catalog(5, k_max=recorded.N5_KMAX, config=cfg)),
            recorded.catalog_bytes(5), f"catalog(5, k_max=8) with {workers} workers")
    if name == "catalog-small":
        _check_golden()
        return _catalog_op(layers.catalog_small_pass, layers.small_reference(),
                           "catalog-small")
    if name == "queries":
        return _queries_op(seed)
    raise ValueError(name)


def _check_golden() -> None:
    """The recorded n = 3, 4 rows hold the golden classes.

    A golden representative equal to the recorded one matches outright;
    otherwise it must have the recorded key (the same switching class).
    """
    rows = {(n, k): (rep, key) for n in (3, 4)
            for n_, k, rep, key, _ in recorded.catalog_rows(n)}
    golden = recorded.golden_rows()
    if sorted((n, k) for n, k, _ in golden) != sorted(rows):
        raise CheckFailed("recorded n = 3, 4 rows and golden rows cover other (n, k)")
    for n, k, encs in golden:
        rep, key = rows[(n, k)]
        if encs != rep and str(bf.canonical_key(bf.grammian(
                bf.Frame.from_encodings(n, encs)))) != key:
            raise CheckFailed(f"golden {n}; {encs} is not in the recorded class {key}")


def _queries_op(seed: int):
    bases = recorded.bases()
    state = {"index": 0}

    def run_op(span: Span):
        block = querygen.make_block(bases, seed, state["index"])
        state["index"] += 1
        return [querygen.run_one(x, span) for x in block]
    return run_op


# -- measuring --------------------------------------------------------------

def measure(run_op, seconds: float, span: Span = nullcontext):
    """Run operations until `seconds` have passed; at least one."""
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        results += run_op(span)
    return results


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): p99, or else the highest percentile with ten
    samples beyond it, or the maximum when no percentile above the median
    has ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    idx = -(-99 * n // 100) - 1          # nearest-rank p99
    if n - 1 - idx < 10:
        idx = n - 11
    if idx < n // 2:
        return s[-1], 100.0
    return s[idx], 100.0 * (idx + 1) / n


def setup_trials(trials: int = SETUP_TRIALS) -> tuple[list[float], list[str]]:
    """Wall time of fresh interpreters answering `verify "3; 3,5,6,7"`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, failures = [], []
    for _ in range(trials):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if p.returncode != 0 or p.stdout != SETUP_STDOUT:
            failures.append(f"set-up run exited {p.returncode}: {p.stdout!r} {p.stderr!r}")
    return times, failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float):
    run_op = make_workload(name, seed)
    setup, failures = setup_trials()
    results = measure(run_op, seconds)
    lat = [dt for dt, _ in results]
    failures += [f for _, f in results if f]
    tail_s, tail_p = tail(lat)
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = len(results) + len(setup)
    _report_end_to_end(name, metrics, len(lat), tail_p, len(setup), attempted, len(failures))
    return metrics, attempted, failures


def _report_end_to_end(name, metrics, samples, tail_p, setup_n, attempted, failed) -> None:
    p50 = metrics["latency_p50_ms"][0]
    tl = metrics["latency_tail_ms"][0]
    ops = metrics["ops_per_s"][0]
    print(f"workload {name}")
    if name == "queries":
        print(f"  catalog_s      n/a (catalog workloads only)")
        print(f"  queries_per_s  {ops:.1f} 1/s  ({samples} queries, one closed-loop client)")
        print(f"  query_p50_us   {p50 * 1e3:.1f} us")
        print(f"  query_p99_ms   {tl:.3f} ms  (p{tail_p:.1f})")
    else:
        print(f"  catalog_s      p50 {p50 / 1e3:.4f} s, p{tail_p:.1f} {tl / 1e3:.4f} s"
              f"{' (maximum: too few samples for a tail percentile)' if tail_p == 100.0 else ''}"
              f", {samples} passes")
        print(f"  queries_per_s  n/a (queries only)")
        print(f"  query_p50_us   n/a (queries only)")
        print(f"  query_p99_ms   n/a (queries only)")
    print(f"  setup_s        {metrics['setup_s'][0]:.4f} s  (median of {setup_n} fresh interpreters)")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  fail_ratio     {failed}/{attempted} = {failed / attempted:.4g}")


def traced(name: str, seed: int, seconds: float):
    """The layer battery, then the workload's own passes, alternately untraced
    and traced, for trace_overhead and the per-layer self times."""
    bases = recorded.bases()
    m = layers.battery(seed, bases, ROOT)
    run_op = make_workload(name, seed)
    tr = Tracer()
    plain, spanned = [], []
    t0 = time.perf_counter()
    while not spanned or time.perf_counter() - t0 < seconds:
        plain.append(run_op(nullcontext))
        with tr:
            spanned.append(run_op(lambda: tr.root(name)))
    for ops in plain + spanned:
        for _, failure in ops:
            m.check(failure is None, failure or "")
    plain_s = statistics.median(sum(dt for dt, _ in ops) for ops in plain)
    traced_s = statistics.median(sum(dt for dt, _ in ops) for ops in spanned)
    passes = len(spanned)
    m.put("trace_overhead", traced_s / plain_s, "x")
    selfs = tr.layer_self_s()
    for layer in LAYER_NAMES:
        m.put(f"{layer}.self_s", selfs.get(layer, 0.0) / passes, "s")
    pass_total = sum(selfs.values())
    gone = missing_entry_points()
    if "enumeration._search" in gone:
        m.missing("enumeration.search_share", "ratio", "enumeration._search not found")
    else:
        search = tr.total_s("enumeration", "_search") + selfs.get("pool", 0.0)
        m.put("enumeration.search_share", search / pass_total, "ratio")
    if "equivalence._min_lex_form" in gone:
        m.missing("equivalence.key_share", "ratio", "equivalence._min_lex_form not found")
    else:
        m.put("equivalence.key_share",
              tr.total_s("equivalence", "_min_lex_form") / pass_total, "ratio")
    _report_traced(name, m, plain_s, traced_s, passes)
    return m


def _report_traced(name, m, plain_s, traced_s, passes) -> None:
    print(f"workload {name} (traced, {passes} traced passes)")
    print(f"  pass untraced {plain_s:.4f} s, traced {traced_s:.4f} s; "
          f"per-layer self time per traced pass:")
    for layer in LAYER_NAMES:
        print(f"    {layer:12s} {m.values[f'{layer}.self_s'][0]:.4f} s")
    for metric, (value, unit, why) in sorted(m.values.items()):
        shown = f"{value:.6g} {unit}" if why is None else f"missing ({why})"
        print(f"  {metric:32s} {shown}")


# -- output -----------------------------------------------------------------

def _metric(value: Optional[float], unit: str, why: Optional[str] = None) -> dict:
    out = {"value": value, "unit": unit}
    if why is not None:
        out["missing"] = why
    return out


def run_single(args) -> int:
    try:
        if args.trace:
            m = traced(args.workload, args.seed, args.seconds)
            metrics = {k: _metric(*v) for k, v in m.values.items()}
            attempted, failures = m.attempted, m.failures
        else:
            values, attempted, failures = end_to_end(args.workload, args.seed, args.seconds)
            metrics = {k: _metric(*v) for k, v in values.items()}
    except Exception:                    # a crash is a failed run, loudly
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(p.stderr)
        if p.returncode == 3:
            print(f"workload {name}: skipped ({p.stderr.strip()})")
            continue
        code = max(code, p.returncode)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                      "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="binframes benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=querygen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_single(args)


if __name__ == "__main__":
    sys.exit(main())
