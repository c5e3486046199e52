import os
import resource
import subprocess
import sys
import time

import binframes.cli
import binframes.enumeration
import binframes.equivalence
from binframes.cli import run
from binframes.enumeration import _iter_encodings
from binframes.equivalence import canonical_key
from binframes.frames import Frame, grammian


def out_lines(capsys):
    return capsys.readouterr().out.rstrip("\n").split("\n")


def test_verify_parseval_frame(capsys):
    assert run(["verify", "3; 3,5,6,7"]) == 0
    assert out_lines(capsys) == [
        "frame: yes; parseval: yes; trivially-redundant: no"]


def test_verify_non_frame(capsys):
    assert run(["verify", "2; 3"]) == 1
    assert out_lines(capsys) == ["frame: no"]


def test_verify_frame_not_parseval(capsys):
    assert run(["verify", "3; 1,2,4,7"]) == 0
    assert out_lines(capsys) == [
        "frame: yes; parseval: no; trivially-redundant: no"]
    assert run(["verify", "3; 1,2,4,0"]) == 0
    assert out_lines(capsys) == [
        "frame: yes; parseval: yes; trivially-redundant: yes"]


def test_verify_parse_error(capsys):
    assert run(["verify", "3: 1,2"]) == 2
    assert run(["verify", "3; 9"]) == 2


def test_gram_output(capsys):
    assert run(["gram", "3; 3,5,6,7"]) == 0
    assert out_lines(capsys) == [
        "0110",
        "1010",
        "1100",
        "0001",
        "key: k4:3880",
    ]


def test_dual_output(capsys):
    assert run(["dual", "2; 1,2,3"]) == 0
    assert out_lines(capsys) == ["2; 1,2,0"]
    assert run(["dual", "2; 3"]) == 1
    assert out_lines(capsys) == ["NOT-SPANNING"]


def test_equiv_reference_pair(capsys):
    assert run(["equiv", "5; 18,26,22,29,19,15", "5; 10,26,14,29,11,23"]) == 0
    assert out_lines(capsys) == [
        "U:",
        "10000",
        "01000",
        "00100",
        "00001",
        "00010",
    ]


def test_equiv_switching_mode(capsys):
    assert run(["equiv", "3; 3,5,6,7", "3; 7,6,5,3", "--mode", "switching"]) == 0
    lines = out_lines(capsys)
    assert lines[0] == "U:"
    assert lines[-1].startswith("pi: ")
    pi = [int(p) for p in lines[-1][4:].split(",")]
    assert sorted(pi) == [1, 2, 3, 4]


def test_equiv_negative_and_errors(capsys):
    assert run(["equiv", "3; 3,5,6,7", "3; 7,5,6,3"]) == 1
    assert out_lines(capsys) == ["NOT-EQUIVALENT"]
    # non-Parseval inputs violate the precondition
    assert run(["equiv", "3; 1,2,4,7", "3; 1,2,4,7"]) == 2
    assert run(["equiv", "3; 1,2,4", "3; 3,5,6,7"]) == 2
    assert run(["equiv", "3; 1,2,4", "3; 1,2,4", "--mode", "sideways"]) == 2


def test_queries_search_keys_without_the_orthogonal_group(capsys, monkeypatch):
    # only catalog keys are pruned by a stabilizer; keys and switching
    # queries never tabulate O(n)
    def refuse(n):
        raise RuntimeError(f"a query tabulated O({n})")

    monkeypatch.setattr(binframes.enumeration, "_moves", refuse)
    F, H = "5; 18,26,22,29,19,15", "5; 23,11,29,14,26,10"
    frame, other = binframes.parse_frame(F), binframes.parse_frame(H)
    assert canonical_key(grammian(frame)) == canonical_key(grammian(other))
    assert binframes.equivalence.switching_equivalent(frame, other) is not None
    assert run(["gram", F]) == 0
    assert out_lines(capsys)[-1] == f"key: {canonical_key(grammian(frame))}"
    assert run(["equiv", F, H, "--mode", "switching"]) == 0
    assert out_lines(capsys)[-1].startswith("pi: ")


def test_complement_command(capsys):
    assert run(["complement", "3; 1,2,4", "--drop-zero"]) == 0
    assert out_lines(capsys) == ["3; 3,5,6,7"]
    assert run(["complement", "3; 1,2,4"]) == 0
    assert out_lines(capsys) == ["3; 0,3,5,6,7"]
    assert run(["complement", "2; 1,2"]) == 2
    assert run(["complement", "3; 1,1,2"]) == 2


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def test_complement_refuses_large_sweeps(package_env):
    # in a child capped at 512 MB, so that a lost bound fails fast instead
    # of filling the machine with a 2^40-vector list
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "binframes.cli", "complement", "40; 1"],
        capture_output=True, text=True, env=package_env, timeout=10,
        preexec_fn=_cap_memory)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 2 and "n <= 16" in proc.stderr


def test_parseval_check_refuses_short_families_before_the_identity(package_env):
    # S has rank at most k, so one vector in Z_2^200000 is not Parseval; an
    # n x n identity to compare S with would hold 2.5 GB of bits
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "binframes.cli", "equiv", "200000; 1", "200000; 1"],
        capture_output=True, text=True, env=package_env, timeout=10,
        preexec_fn=_cap_memory)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 2 and "Parseval" in proc.stderr


def test_huge_dimensions_cost_what_their_words_cost(package_env):
    # in a child capped at 512 MB: validation reads bit lengths, rank and
    # the dual's elimination see only the one word, and the Grammian
    # follows the set bits, so none of them builds a 2^n int or walks n
    key = canonical_key(grammian(Frame(2, (1, 2))))
    for argv, code, out in ((["verify", "99999999999; 1"], 1, "frame: no\n"),
                            (["dual", "99999999999; 1"], 1, "NOT-SPANNING\n"),
                            (["gram", "1000000000; 1,2"], 0, f"10\n01\nkey: {key}\n")):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "binframes.cli", *argv],
            capture_output=True, text=True, env=package_env, timeout=10,
            preexec_fn=_cap_memory)
        assert time.perf_counter() - t0 < 1.0, argv[0]
        assert (proc.returncode, proc.stdout) == (code, out), argv[0]


def test_keys_refuse_large_frames_before_the_grammian(package_env):
    # in a child capped at 512 MB: unbounded, gram on 60,000 vectors builds
    # a 450 MB Grammian, and the switching search on this self-equivalent
    # Parseval frame of 1006 vectors recurses past the stack limit
    big = "6; 1,2,4,8,16,32," + ",".join(["3"] * 1000)
    for argv in (["gram", "3; " + ",".join(["1"] * 257)],
                 ["gram", "3; " + ",".join(["1"] * 60000)],
                 ["equiv", big, big, "--mode", "switching"]):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "binframes.cli", *argv],
            capture_output=True, text=True, env=package_env, timeout=10,
            preexec_fn=_cap_memory)
        assert time.perf_counter() - t0 < 1.0, argv[0]
        assert proc.returncode == 2 and "k <= 256" in proc.stderr, argv[0]


def test_keys_at_the_size_bound_are_computed():
    assert binframes.equivalence.KEY_SIZE_MAX == 256
    frame = Frame(3, (1,) * 256)
    assert str(canonical_key(grammian(frame))).startswith("k256:")


def test_enumerate_command(capsys):
    assert run(["enumerate", "3", "3"]) == 0
    assert out_lines(capsys) == ["3\t3\t1,2,4\tk3:94\t1"]
    assert run(["enumerate", "3", "8"]) == 2


def test_enumerate_keys_equal_per_frame_keys(capsys):
    # each line's key comes from its class's orbit, and at n = 6 the lines
    # are the members of the orbits swept from the vector-1 subtree;
    # recomputing keys per frame of the whole search must give the same bytes
    for argv in (["4", "7"], ["5", "8"], ["5", "8", "--workers", "2"], ["6", "7"], ["6", "8"]):
        n, k = int(argv[0]), int(argv[1])
        assert run(["enumerate", *argv]) == 0
        frames = (Frame.from_encodings(n, e) for e in _iter_encodings(n, k))
        want = "".join(
            f"{n}\t{k}\t{','.join(map(str, f.encodings))}\t"
            f"{canonical_key(grammian(f))}\t1\n" for f in frames)
        assert want and capsys.readouterr().out == want


def test_cli_import_leaves_the_pool_unloaded(package_env):
    # no public call starts a process, so none loads the pool's modules,
    # whatever worker count it is given
    code = ("import sys; from binframes import cli, classify, enumerate_parseval; "
            "frames = list(enumerate_parseval(6, 6, workers=2)); "
            "classes = classify(6, 6, workers=2); "
            "print(len(frames), len(classes), [m for m in "
            "('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "32 1 []\n"


def _must_not_run(*args):
    raise AssertionError(f"called with {args}")


def test_enumerate_refuses_large_searches_before_building_tables(
        capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(binframes.enumeration, "_tables", _must_not_run)
        for argv in (["enumerate", "6", "20"], ["enumerate", "40", "40"]):
            t0 = time.perf_counter()
            assert run(argv) == 2
            assert time.perf_counter() - t0 < 1.0
            assert "too large" in capsys.readouterr().err
    assert run(["enumerate", "6", "6"]) == 0
    assert len(out_lines(capsys)) == 32


def test_catalog_command(capsys):
    assert run(["catalog", "3"]) == 0
    assert out_lines(capsys) == [
        "3\t3\t1,2,4\tk3:94\t1",
        "3\t4\t3,5,6,7\tk4:3880\t1",
    ]


def test_catalog_out_file_and_worker_determinism(tmp_path, capsys):
    a = tmp_path / "w1.tsv"
    b = tmp_path / "w8.tsv"
    assert run(["catalog", "4", "--out", str(a)]) == 0
    assert run(["catalog", "4", "--workers", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert capsys.readouterr().out == ""
    c = tmp_path / "direct.tsv"
    assert run(["catalog", "4", "--no-complement-shortcut",
                "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()


def test_counterexample_weight2(capsys):
    assert run(["counterexample", "weight2", "4"]) == 0
    assert out_lines(capsys) == [
        "4; 3,5,9,6,10,12",
        "parseval-identity: yes",
        "frame: no",
    ]
    assert run(["counterexample", "weight2", "3"]) == 0
    assert out_lines(capsys)[0] == "3; 1,6"


def test_counterexample_shift(capsys):
    assert run(["counterexample", "shift", "3"]) == 0
    assert out_lines(capsys) == [
        "110",
        "001",
        "000",
        "isometry: yes",
        "rank: 2",
        "unitary: no",
    ]


def test_counterexample_bad_dimension(capsys):
    assert run(["counterexample", "weight2", "1"]) == 2
    assert run(["counterexample", "shift", "1"]) == 2


def test_counterexample_refuses_large_sweeps(capsys, monkeypatch):
    # refused before the family, the matrix or any sweep is built
    for name in ("weight_two_family", "parseval_identity_holds",
                 "shift_matrix", "mat_vec"):
        monkeypatch.setattr(binframes.cli, name, _must_not_run)
    for kind in ("shift", "weight2"):
        assert run(["counterexample", kind, "30"]) == 2
        assert run(["counterexample", kind, "17"]) == 2
    assert capsys.readouterr().out == ""


def test_unwritable_out_file_is_a_usage_error(capsys, tmp_path):
    # one error line and exit 2, not a traceback and exit 1 (a verdict)
    out = tmp_path / "missing" / "x.tsv"
    for argv in (["catalog", "3"], ["enumerate", "3", "4"]):
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.parent.exists()
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["--help"]) == 0


def test_cli_matches_library_verdicts(capsys):
    from binframes.equivalence import switching_equivalent, unitary_equivalent
    from binframes.frames import compute_dual, is_frame, parse_frame
    for lit in ("3; 1,2,4", "3; 3,5,6", "2; 1,2,3", "1; 1"):
        code = run(["verify", lit])
        assert (code == 0) == is_frame(parse_frame(lit))
        code = run(["dual", lit])
        assert (code == 0) == (compute_dual(parse_frame(lit)) is not None)
        capsys.readouterr()
    pairs = (("3; 3,5,6,7", "3; 7,6,5,3"), ("3; 3,5,6,7", "3; 3,5,6,7"),
             ("4; 1,2,4,8", "4; 8,4,2,1"))
    for a, b in pairs:
        F, H = parse_frame(a), parse_frame(b)
        assert (run(["equiv", a, b]) == 0) == (
            unitary_equivalent(F, H) is not None)
        assert (run(["equiv", a, b, "--mode", "switching"]) == 0) == (
            switching_equivalent(F, H) is not None)
        capsys.readouterr()


def test_internal_fault_exits_70_without_traceback(capsys, monkeypatch):
    # a failed self-check is a fault in the package, not a negative verdict
    for exc in (RuntimeError("forced fault"), RecursionError(), MemoryError()):
        def fault(*args):
            raise exc
        monkeypatch.setattr(binframes.equivalence, "_min_lex_form", fault)
        assert run(["gram", "3; 3,5,6,7"]) == 70
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {type(exc).__name__}")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_closed_stdout_exits_141_without_traceback(package_env):
    # the reader has exited before anything is written, as `head` does
    # once it has its lines
    for argv in (["catalog", "3"], ["enumerate", "4", "5"]):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "binframes.cli", *argv], stdout=w,
                stderr=subprocess.PIPE, text=True, env=package_env, timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 141, proc.stderr
        assert proc.stderr == ""
