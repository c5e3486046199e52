"""Command-line front end.

Frames are passed inline as quoted literals in the `n; v1,...,vk` grammar;
catalog output streams to stdout or, with --out, to a file. Exit codes:
0 success, 1 negative verdict (not a frame, not spanning, not equivalent),
2 usage or parse error, 70 internal error (a failed self-check, never a
verdict), 141 stdout closed by its reader (broken pipe).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .enumeration import SearchConfig, _keyed_encodings, catalog, catalog_lines
from .equivalence import (_check_key_size, canonical_key, complement, is_trivially_redundant,
                          switching_equivalent, unitary_equivalent)
from .frames import (Frame, compute_dual, format_frame, grammian, is_frame,
                     is_parseval, parse_frame, parseval_identity_holds,
                     shift_matrix, weight_two_family)
from .gf2 import BinMatrix, BinVector, dot, is_unitary, mat_vec, rank


def _emit(lines: list[str], out: Optional[str]) -> None:
    if out is None:
        for line in lines:
            print(line)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                for line in lines:
                    fh.write(line + "\n")
        except OSError as exc:  # a usage error (exit 2), not a verdict
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _matrix_lines(M: BinMatrix) -> list[str]:
    return str(M).split("\n") if M.rows else []


def _cmd_verify(args) -> int:
    frame = parse_frame(args.frame)
    if not is_frame(frame):
        print("frame: no")
        return 1
    parseval = "yes" if is_parseval(frame) else "no"
    redundant = "yes" if is_trivially_redundant(frame) else "no"
    print(f"frame: yes; parseval: {parseval}; trivially-redundant: {redundant}")
    return 0


def _cmd_gram(args) -> int:
    frame = parse_frame(args.frame)
    _check_key_size(frame.size)  # before the k x k Grammian
    G = grammian(frame)
    for line in _matrix_lines(G):
        print(line)
    print(f"key: {canonical_key(G)}")
    return 0


def _cmd_dual(args) -> int:
    frame = parse_frame(args.frame)
    duals = compute_dual(frame)
    if duals is None:
        print("NOT-SPANNING")
        return 1
    print(format_frame(Frame.from_encodings(frame.dim, [d.bits for d in duals])))
    return 0


def _cmd_equiv(args) -> int:
    F = parse_frame(args.frame_a)
    H = parse_frame(args.frame_b)
    if args.mode == "unitary":
        U = unitary_equivalent(F, H)
        if U is None:
            print("NOT-EQUIVALENT")
            return 1
        print("U:")
        for line in _matrix_lines(U):
            print(line)
        return 0
    witness = switching_equivalent(F, H)
    if witness is None:
        print("NOT-EQUIVALENT")
        return 1
    U, pi = witness
    print("U:")
    for line in _matrix_lines(U):
        print(line)
    print("pi: " + ",".join(str(p + 1) for p in pi))
    return 0


def _cmd_complement(args) -> int:
    frame = parse_frame(args.frame)
    print(format_frame(complement(frame, drop_zero=args.drop_zero)))
    return 0


def _cmd_enumerate(args) -> int:
    lines = []
    for encs, key in _keyed_encodings(args.n, args.k):
        vecs = ",".join(str(e) for e in encs)
        lines.append(f"{args.n}\t{args.k}\t{vecs}\t{key}\t1")
    _emit(lines, args.out)
    return 0


def _cmd_catalog(args) -> int:
    cfg = SearchConfig(use_complement_shortcut=not args.no_complement_shortcut)
    rows = catalog(args.n, args.kmax, config=cfg)
    _emit(catalog_lines(rows), args.out)
    return 0


def _cmd_counterexample(args) -> int:
    if args.n > 16:
        raise ValueError(
            f"counterexample sweeps all 2^n vectors; need n <= 16, got {args.n}")
    if args.kind == "weight2":
        fam = weight_two_family(args.n)
        print(format_frame(fam))
        print(f"parseval-identity: {'yes' if parseval_identity_holds(fam) else 'no'}")
        print(f"frame: {'yes' if is_frame(fam) else 'no'}")
    else:
        A = shift_matrix(args.n)
        for line in _matrix_lines(A):
            print(line)
        # (Ax, Ax) = (x, x) for all x, checked directly
        xs = (BinVector(args.n, x) for x in range(1 << args.n))
        ok = all(dot(ax := mat_vec(A, x), ax) == dot(x, x) for x in xs)
        print(f"isometry: {'yes' if ok else 'no'}")
        print(f"rank: {rank(A)}")
        print(f"unitary: {'yes' if is_unitary(A) else 'no'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binframes",
        description="Frames and Parseval frames over binary vector spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="frame / Parseval / redundancy verdicts")
    p.add_argument("frame", help="frame literal, e.g. '3; 3,5,6,7'")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gram", help="print the Grammian and canonical key")
    p.add_argument("frame")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("dual", help="construct a dual family")
    p.add_argument("frame")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("equiv", help="equivalence witness for two Parseval frames")
    p.add_argument("frame_a")
    p.add_argument("frame_b")
    p.add_argument("--mode", choices=("unitary", "switching"), default="unitary")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("complement", help="set-theoretic complement in Z_2^n")
    p.add_argument("frame")
    p.add_argument("--drop-zero", action="store_true")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("enumerate", help="stream all Parseval k-subsets")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("catalog", help="switching-class catalog for Z_2^n")
    p.add_argument("n", type=int)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-complement-shortcut", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("counterexample",
                       help="objects separating the near-miss properties")
    p.add_argument("kind", choices=("weight2", "shift"))
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_counterexample)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:  # RecursionError is a RuntimeError
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70  # EX_SOFTWARE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`): let the final flush go to devnull, and
        # exit as a shell reports a process ended by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
