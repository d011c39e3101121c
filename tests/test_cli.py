import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import normcert as nc
from normcert import cli, groups
from normcert import dot as dotmod
from normcert import io as iomod
from normcert.cli import main
from normcert.transfers import candidate_pairs
from helpers import (
    CORPUS_SPECS,
    DECIDE_MIX_GROUPS,
    decision_doc_by_hand,
    decision_text_by_loop,
    enumeration,
    enumeration_doc_by_hand,
    enumeration_text_by_loop,
    ladder,
    lattice,
    random_valid_locus,
    transfer_poset_dot_by_loop,
    unbounded_enumeration,
)


def run_cli(args, timeout=None, **env_extra):
    """Run the CLI in a subprocess, returning (exit code, stdout, stderr)."""
    env = dict(os.environ, **env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "normcert.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_lattice_text_and_structured(capsys):
    assert main(["lattice", "--group", "cyclic:4"]) == 0
    out = capsys.readouterr().out
    assert "subgroups: 3" in out and "C4#0" in out
    assert main(["lattice", "--group", "cyclic:4", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "subgroup-lattice" and len(doc["subgroups"]) == 3


def test_transfer_enumerate_c9(capsys):
    assert main(["transfer-enumerate", "--group", "cyclic:9"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("transfer systems on C9: 5")


def test_decide_certified(capsys):
    rc = main(
        ["decide", "--group", "cyclic:4", "--operad", "complete",
         "--locus", "ell:2,(1,0,0)", "--strict"]
    )
    assert rc == 0
    assert "verdict: CertifiedPreserves" in capsys.readouterr().out


def test_decide_with_ell_flag(capsys):
    rc = main(["decide", "--operad", "complete", "--ell", "2,(1,0,0)", "--strict"])
    assert rc == 0
    assert "verdict: CertifiedPreserves" in capsys.readouterr().out
    # exactly one of --locus / --ell
    assert main(["decide", "--operad", "complete"]) == 2
    assert main(
        ["decide", "--operad", "complete", "--ell", "2,(1,0)", "--locus", "ell:2,(1,0)"]
    ) == 2


def test_decide_no_guarantee_strict_exit(capsys):
    rc = main(
        ["decide", "--operad", "complete", "--locus", "ell:2,(0,1)", "--strict"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "verdict: NoGuarantee" in out and "witness:" in out
    # without --strict the same run exits 0
    assert main(["decide", "--operad", "complete", "--locus", "ell:2,(0,1)"]) == 0


def test_decide_with_documents(tmp_path, capsys):
    locus = tmp_path / "locus.json"
    locus.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "vanishing-locus",
                "entries": [
                    {"subgroup": "C1#0", "prime": 2, "heights": "0..1"},
                    {"subgroup": "C2#0", "prime": 2, "heights": "0..1"},
                ],
            }
        )
    )
    operad = tmp_path / "operad.json"
    operad.write_text(json.dumps({"pairs": [["C1#0", "C2#0"]]}))
    rc = main(
        ["decide", "--group", "cyclic:2", "--operad", str(operad),
         "--locus", str(locus), "--format", "structured"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "CertifiedPreserves"
    assert len(doc["inputs"]["locus"]["digest"]) == 64


def test_spectrum_validate(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"entries": [{"subgroup": "C1#0", "prime": 2, "heights": [2]}]}
        )
    )
    rc = main(["spectrum-validate", "--group", "cyclic:4", "--locus", str(bad), "--strict"])
    assert rc == 1
    assert "violation downward-closure" in capsys.readouterr().out
    rc = main(["spectrum-validate", "--locus", "ell:2,(1,0)", "--strict"])
    assert rc == 0
    assert "ok" in capsys.readouterr().out
    # the sentinel is "none", null or the int -1; -1.0 == -1 was read as it too
    vector = tmp_path / "vector.json"
    for entry, code in ((-1, 0), ("none", 0), (None, 0), (-1.0, 2), (0.0, 2), (True, 2), ("-1", 2)):
        vector.write_text(json.dumps({"kind": "height-vector", "p": 2, "ell": [entry, 0]}))
        assert main(["spectrum-validate", "--group", "cyclic:2", "--locus", str(vector)]) == code


def test_ell_enumerate(capsys):
    assert main(["ell-enumerate", "--n", "1", "--height-bound", "0"]) == 0
    out = capsys.readouterr().out
    assert "count: 3" in out
    assert "(none,none) sentinel" in out
    assert "(0,0)" in out


def test_cross_validate(capsys):
    assert main(["cross-validate", "--n", "1", "--prime", "2", "--height-bound", "3", "--strict"]) == 0
    assert "disagreements: 0" in capsys.readouterr().out


def test_dot_command(capsys):
    assert main(["dot", "--group", "symmetric:3", "--what", "subgroup-lattice"]) == 0
    out = capsys.readouterr().out
    nodes = [l for l in out.splitlines() if l.endswith(";") and "->" not in l and "rankdir" not in l]
    assert len(nodes) == 6
    assert "digraph subgroup_lattice" in out


def test_parse_errors_exit_2(capsys):
    assert main(["lattice", "--group", "socle:3"]) == 2
    assert main(["decide", "--operad", "complete", "--locus", "ell:2,(1,"]) == 2
    assert main(["decide", "--operad", "complete", "--locus", "nosuch.json"]) == 2
    assert main(["decide", "--group", "cyclic:9", "--operad", "complete", "--locus", "ell:2,(1,0)"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4


def test_invalid_locus_error_names_the_violation(tmp_path, capsys):
    # decide names the axiom and witness as spectrum-validate's text report
    # does, with no Python repr of the record
    path = tmp_path / "locus.json"
    path.write_text(json.dumps(
        {"entries": [{"subgroup": "C1#0", "prime": 2, "heights": ["inf"]}]}
    ))
    args = ["--group", "cyclic:4", "--locus", str(path)]
    assert main(["spectrum-validate", *args]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == "violation chain-inequality: (2, 0, inf, None)"
    for fmt in ("text", "structured"):
        assert main(["decide", *args, "--operad", "complete", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: locus fails validation, violation chain-inequality: (2, 0, inf, None)\n"
        )


def test_bound_env_variables(capsys):
    code, out, err = run_cli(
        ["lattice", "--group", "cyclic:8"], NORMCERT_MAX_GROUP_ORDER="4"
    )
    assert code == 2 and "exceeds bound 4" in err
    code, out, err = run_cli(
        ["transfer-enumerate", "--group", "dihedral:8"], NORMCERT_MAX_PAIRS="10"
    )
    assert code == 2 and "enumeration bound 10" in err
    # inline height vectors build C_{p^n} under the same group-order bound
    code, out, err = run_cli(
        ["decide", "--operad", "complete", "--ell", "2,(0,0,0,0,0,0,0,0)"]
    )
    assert code == 2 and "exceeds bound 64" in err and not out
    code, out, err = run_cli(
        ["decide", "--operad", "complete", "--ell", "2,(0,0,0,0,0,0)"],
        NORMCERT_MAX_GROUP_ORDER="8",
    )
    assert code == 2 and "exceeds bound 8" in err
    code, out, err = run_cli(
        ["spectrum-validate", "--locus", "ell:2,(0,0,0,0,0,0)"],
        NORMCERT_MAX_GROUP_ORDER="8",
    )
    assert code == 2 and "exceeds bound 8" in err
    code, out, err = run_cli(
        ["decide", "--operad", "complete", "--ell", "2,(0,0,0,0)"],
        NORMCERT_MAX_GROUP_ORDER="8",
    )
    assert code == 0 and "group: C8" in out
    # cross-validate keeps its own bounds: C125 is accepted at p = 5
    code, out, err = run_cli(
        ["cross-validate", "--n", "3", "--prime", "5", "--height-bound", "0"],
        NORMCERT_MAX_GROUP_ORDER="8",
    )
    assert code == 0 and "disagreements: 0" in out


def test_group_order_bound_checked_before_building(tmp_path):
    # each of these ran past 30 s, exited 2 only after 12 s, or grew memory
    # until killed, because the bound was checked after the table was built
    for spec in ("cyclic:1000", "symmetric:5*symmetric:5", "dihedral:600", "cyclic:99999999999"):
        code, out, err = run_cli(["lattice", "--group", spec], timeout=5)
        assert code == 2 and "exceeds bound 64" in err and not out
    table = tmp_path / "c8.csv"
    table.write_text("\n".join(",".join(str((i + j) % 8) for j in range(8)) for i in range(8)))
    code, out, err = run_cli(
        ["lattice", "--group", f"table:{table}*cyclic:2"], timeout=5, NORMCERT_MAX_GROUP_ORDER="8"
    )
    assert code == 2 and "= 16 exceeds bound 8" in err
    code, out, err = run_cli(
        ["lattice", "--group", "symmetric:5"], timeout=30, NORMCERT_MAX_GROUP_ORDER="120"
    )
    assert code == 0 and "subgroups: 156" in out


@pytest.mark.parametrize("doc", [[1, 2], "C1#0", 7])
def test_non_object_locus_document_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "locus.json"
    path.write_text(json.dumps(doc))
    for command in (["decide", "--operad", "complete"], ["spectrum-validate"]):
        assert main(command + ["--group", "cyclic:2", "--locus", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.count("error:") == 2


@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_oversized_table_csv_exits_2_while_reading(shape, tmp_path):
    # parsing every cell before the order and squareness checks took over 4 s
    # and 200 MB for each of these files before exiting 2
    table = tmp_path / f"{shape}.csv"
    if shape == "wide":
        table.write_text(("0," * 200_000 + "0\n") * 64)
        expect = "row 0 of"
    else:
        table.write_text("0\n" * 2_000_000)
        expect = "more than 64 rows"
    code, out, err = run_cli(["lattice", "--group", f"table:{table}"], timeout=5)
    assert code == 2 and not out
    assert err.startswith("error: ") and expect in err and "more than 64" in err


def test_non_integer_table_cell_exits_2(tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text("0,1\n1,0\na,b\n")
    code, out, err = run_cli(["lattice", "--group", f"table:{table}"], timeout=5)
    assert code == 2 and not out
    assert err.startswith("error: ") and "row 2" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["locus", "operad", "table"])
def test_non_utf8_input_file_exits_2(kind, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe{}")
    args = {
        "locus": ["decide", "--group", "cyclic:2", "--operad", "complete", "--locus", str(path)],
        "operad": ["decide", "--group", "cyclic:2", "--operad", str(path), "--ell", "2,(0,0)"],
        "table": ["lattice", "--group", f"table:{path}"],
    }[kind]
    code, out, err = run_cli(args, timeout=5)
    assert code == 2 and not out
    assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err


def test_unwritable_out_path_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(["lattice", "--group", "cyclic:4", "--out", str(target)], timeout=5)
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


C2_6 = "cyclic:2*cyclic:2*cyclic:2*cyclic:2*cyclic:2*cyclic:2"
NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("spec, stdout, error", [
    pytest.param("cyclic:2", "/dev/full", "[Errno 28] No space left on device",
                 marks=NO_DEV_FULL, id="C2-full"),
    pytest.param("cyclic:2*cyclic:2*cyclic:2*cyclic:2", "/dev/full",
                 "[Errno 28] No space left on device", marks=NO_DEV_FULL, id="C2^4-full"),
    pytest.param(C2_6, "pipe", "[Errno 32] Broken pipe", id="C2^6-closed-pipe"),
])
def test_failed_stdout_write_exits_2(spec, stdout, error, unbuffered):
    # a failed write to stdout exits 2 like one to --out, not with a
    # traceback and exit 1.  On /dev/full the larger report fails in the
    # write, the smaller one in the flush, whose bytes left buffered would
    # fail again when Python exits, with code 120.  The pipe's reader
    # closes it after 10 of the 1.8 MB structured C2^6 lattice: unbuffered,
    # the raw write takes only part of a block, and writing the rest fails
    argv = [sys.executable, "-m", "normcert.cli", "lattice", "--group", spec,
            "--format", "structured"]
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    if stdout == "pipe":
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                env=env)
        os.close(write_end)
        with open(read_end, "rb") as reader:
            assert len(reader.read(10)) == 10
        try:
            stderr = proc.communicate(timeout=30)[1]
        finally:
            proc.kill()
    else:
        with open(stdout, "w") as full:
            done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=30, env=env)
        proc, stderr = done, done.stderr
    assert (proc.returncode, stderr) == (2, f"error: {error}\n")


# one input per subcommand that exits 2; the decide locus breaks the chain
# inequality, which the witness stream checks when it is made, and S4's 120
# strict pairs pass the enumeration bound of transfer-enumerate and dot
BAD_INPUTS = [
    ["lattice", "--group", "socle:3"],
    ["transfer-enumerate", "--group", "symmetric:4", "--format", "structured"],
    ["spectrum-validate", "--ell", "2,(11)"],
    ["decide", "--group", "cyclic:4", "--operad", "complete", "--locus", "@chain.json",
     "--format", "structured"],
    ["ell-enumerate", "--n", "-1", "--height-bound", "3"],
    ["cross-validate", "--n", "2", "--height-bound", "2", "--prime", "4"],
    ["dot", "--group", "symmetric:4", "--what", "transfer-poset"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: argv[0])
def test_input_errors_come_before_the_first_byte(argv, tmp_path):
    # every subcommand checks its input before it returns its report, so an
    # input error leaves stdout empty and creates no --out file; a
    # subcommand written as a generator function would run its checks only
    # once the report is written, after --out was opened
    locus = tmp_path / "chain.json"
    locus.write_text(json.dumps({"entries": [{"subgroup": "C1#0", "prime": 2,
                                              "heights": ["inf"]}]}))
    argv = [str(locus) if a == "@chain.json" else a for a in argv]
    assert not any(inspect.isgeneratorfunction(f) for n, f in vars(cli).items()
                   if n.startswith("_cmd_"))
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    target = tmp_path / "report.out"
    assert _in_process(argv + ["--out", str(target)]) == (2, "")
    assert not target.exists()


def test_every_byte_is_written_past_short_writes():
    # a raw write may take fewer bytes than it is given; the sink hands it
    # the rest until every byte is taken
    taken = []

    def write(view):
        taken.append(bytes(view[:3]))
        return len(taken[-1])

    cli._write_encoded(["0123", "", "456789"], write, "ascii", "strict")
    assert taken == [b"012", b"3", b"456", b"789"]


def test_malformed_json_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    message = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    with pytest.raises(iomod.ParseError) as caught:
        cli._load_json(str(bad))
    assert str(caught.value) == message
    code, out, err = run_cli(
        ["decide", "--group", "cyclic:2", "--operad", "complete", "--locus", str(bad)], timeout=5
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_input_heights_bounded_before_expansion(tmp_path):
    # both hung: the heights were expanded one prime at a time
    locus = tmp_path / "locus.json"
    locus.write_text(json.dumps({"entries": [
        {"subgroup": "C1#0", "prime": 2, "heights": "0..99999999"}]}))
    for args in (
        ["spectrum-validate", "--ell", "2,(99999999999999999999,0)"],
        ["decide", "--group", "cyclic:2", "--operad", "complete", "--locus", str(locus)],
    ):
        code, out, err = run_cli(args, timeout=5)
        assert code == 2 and "exceeds the input bound 10" in err and not out


def test_chain_arguments_are_input_errors(capsys):
    assert main(["ell-enumerate", "--n", "-1", "--height-bound", "3"]) == 2
    assert main(["ell-enumerate", "--n", "2", "--height-bound", "2", "--prime", "4"]) == 2
    assert main(["cross-validate", "--n", "2", "--height-bound", "2", "--prime", "4"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "need n >= 0" in captured.err and captured.err.count("4 is not a prime") == 2


def test_cross_validate_group_order_bound():
    # C1009 and C961 ran past 30 s before the order bound
    for n, p in (("1", "1009"), ("2", "31")):
        code, out, err = run_cli(
            ["cross-validate", "--n", n, "--prime", p, "--height-bound", "0"], timeout=5
        )
        assert code == 2 and "p^n <= 343" in err and not out


def test_dot_prime_poset_input_checked(capsys):
    base = ["dot", "--group", "cyclic:2", "--what", "prime-poset"]
    assert main(base + ["--prime", "4", "--height-bound", "1"]) == 2
    assert main(base + ["--height-bound", "-1"]) == 2
    assert main(base + ["--height-bound", "11"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "4 is not a prime" in captured.err
    assert main(base + ["--prime", "3", "--height-bound", "10"]) == 0
    assert '"P(C2#0,10,3)";' in capsys.readouterr().out
    code, out, err = run_cli(base + ["--height-bound", "100000000"], timeout=5)
    assert code == 2 and "height_bound" in err and not out


def test_large_inline_prime_returns_promptly():
    # 10**18 + 3 is prime: trial division would run for minutes
    code, out, err = run_cli(
        ["decide", "--operad", "trivial", "--ell", "1000000000000000003,(0)"], timeout=5
    )
    assert code == 0 and "verdict: CertifiedPreserves" in out


def test_prime_beyond_exact_test_is_an_input_error():
    code, out, err = run_cli(
        ["decide", "--operad", "trivial", "--ell", "100000000000000000000000000007,(0)"],
        timeout=5,
    )
    assert code == 2 and "exceeds the largest supported prime" in err and not out


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    rc = main(
        ["decide", "--operad", "trivial", "--locus", "ell:2,(1,0)",
         "--format", "structured", "--out", str(target)]
    )
    assert rc == 0
    assert json.loads(target.read_text())["verdict"] == "CertifiedPreserves"


@pytest.mark.parametrize(
    "args",
    [
        ["lattice", "--group", "dihedral:8", "--format", "structured"],
        ["transfer-enumerate", "--group", "symmetric:3", "--format", "structured"],
        ["decide", "--operad", "complete", "--locus", "ell:2,(2,1,1)", "--format", "structured"],
        ["ell-enumerate", "--n", "2", "--height-bound", "3", "--include-infinity"],
        ["dot", "--group", "quaternion:8", "--what", "transfer-poset"],
        ["cross-validate", "--n", "1", "--prime", "3", "--height-bound", "2"],
    ],
)
def test_byte_determinism_across_hash_seeds(args):
    code1, out1, _ = run_cli(args, PYTHONHASHSEED="1")
    code2, out2, _ = run_cli(args, PYTHONHASHSEED="2")
    assert code1 == code2 == 0
    assert out1 == out2 and out1


def _in_process(argv) -> tuple[int, str]:
    """(exit code, stdout) of one in-process run; argparse's SystemExit gives its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _write_json(path, doc) -> str:
    path.write_text(iomod.indented_json(doc))
    return str(path)


def _random_height_vector(rng, p: int, n: int) -> nc.HeightVector:
    while True:
        entries = tuple(rng.choice([None, 0, 1, 2, nc.INFINITY]) for _ in range(n + 1))
        v = nc.HeightVector(p, entries)
        if nc.validate_height_vector(v):
            return v


# the groups of the decide-mix benchmark workload
DECIDE_MIX_SPECS = tuple(spec for _, spec in DECIDE_MIX_GROUPS)


def test_warm_caches_do_not_change_output(tmp_path):
    # the C_{p^n} lattices, the lattices of the last group specs, the prime
    # memo and the parser live as long as the process: a second pass over
    # the same requests, with every cache warm, prints the same bytes as the
    # first, and a fresh process prints them too.  The operad document is
    # closed on the cached lattice of C4 in both passes.  Each decide-mix
    # group comes back after the others, through every subcommand that
    # takes --group; all of them have more than 30 candidate pairs, so
    # transfer-enumerate exits 2 there.
    L = lattice("symmetric:4")
    rng = random.Random(7)
    while True:
        vl = random_valid_locus(L, rng)
        if not nc.localization_preserves(vl, nc.complete_system(L)).certified:
            break
    locus = _write_json(tmp_path / "s4-locus.json", iomod.locus_doc(vl))
    s4 = ["decide", "--group", "symmetric:4", "--operad", "complete", "--locus", locus,
          "--strict"]
    operad = _write_json(tmp_path / "c4-operad.json", {"pairs": [["C1#0", "C2#0"]]})
    requests = [
        ["decide", "--operad", "complete", "--ell", "2,(0,1,1)", "--strict"],
        ["decide", "--operad", "complete", "--ell", "2,(2,1,0)", "--strict"],
        s4,
        s4 + ["--format", "structured"],
        ["cross-validate", "--n", "2", "--prime", "3", "--height-bound", "2", "--strict"],
        ["decide", "--ell", "2,(0,1,1)", "--operad", operad, "--strict"],
    ]
    mix = []
    for i, spec in enumerate(DECIDE_MIX_SPECS):
        path = _write_json(tmp_path / f"mix{i}-locus.json",
                           iomod.locus_doc(random_valid_locus(lattice(spec), rng)))
        decide = ["decide", "--group", spec, "--operad", "complete", "--locus", path]
        mix += [
            decide,
            decide + ["--format", "structured"],
            ["lattice", "--group", spec],
            ["transfer-enumerate", "--group", spec],
            ["dot", "--group", spec],
            ["spectrum-validate", "--group", spec, "--locus", path, "--strict"],
        ]
    first = [_in_process(argv) for argv in requests + mix]
    assert [code for code, _ in first] == (
        [1, 0, 1, 1, 0, 1] + [0, 0, 0, 2, 0, 0] * len(DECIDE_MIX_SPECS))
    assert [_in_process(argv) for argv in requests + mix] == first
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = list(pool.map(run_cli, [s4 + ["--format", "structured"], *mix]))
    assert [run[:2] for run in fresh] == [first[3], *first[len(requests):]]


def test_lattice_memo_keys_on_the_order_bound(monkeypatch):
    # the bound is checked before the memo is read, not kept in its key, so
    # a lattice kept under the default bound does not escape a lower one
    argv = ["lattice", "--group", "cyclic:8*cyclic:8"]
    assert _in_process(argv)[0] == 0
    monkeypatch.setenv("NORMCERT_MAX_GROUP_ORDER", "32")
    assert _in_process(argv) == (2, "")


def test_table_spec_is_read_on_each_request(tmp_path):
    # a CSV rewritten between two requests of one process gives the new group
    path = tmp_path / "G.csv"
    argv = ["lattice", "--group", f"table:{path}"]
    outputs = []
    for G in (nc.symmetric(3), nc.cyclic(6)):
        path.write_text("\n".join(",".join(map(str, row)) for row in G.table))
        outputs.append(_in_process(argv))
    assert "subgroups: 6" in outputs[0][1] and "subgroups: 4" in outputs[1][1]
    assert run_cli(argv)[:2] == outputs[1]


def test_lattice_memo_returns_one_object_and_stays_bounded():
    spec = "dihedral:8"
    assert cli._build_lattice(spec) is cli._build_lattice(spec)
    bound = groups._kept_lattice.cache_parameters()["maxsize"]
    for n in range(1, 2 * bound + 1):
        cli._build_lattice(f"cyclic:{n}")
    assert groups._kept_lattice.cache_info().currsize == bound


def test_the_package_keeps_two_memos():
    # the lattice memo and the parser are the only state a request leaves
    # behind in a long-running process
    for module in pkgutil.iter_modules(nc.__path__):
        importlib.import_module(f"normcert.{module.name}")
    memos = {
        f
        for name, module in list(sys.modules.items())
        if name == "normcert" or name.startswith("normcert.")
        for f in vars(module).values()
        if hasattr(f, "cache_info")
    }
    assert memos == {groups._kept_lattice, cli._build_parser}


def test_spellings_of_one_group_share_one_memo_key(monkeypatch):
    # the memo is keyed on the parsed atoms, so these spellings build one
    # lattice on one miss, and each prints what a fresh process prints for it
    monkeypatch.delenv("NORMCERT_MAX_GROUP_ORDER", raising=False)
    spellings = ("cyclic:2*quaternion:8", "cyclic:02*quaternion", " cyclic: 2 * quaternion:8")
    memo = groups._kept_lattice
    memo.cache_clear()
    kept = {id(groups.lattice_of(spec)) for spec in spellings}
    assert len(kept) == 1 and memo.cache_info().misses == 1
    for spec in spellings:
        argv = ["lattice", "--group", spec, "--format", "structured"]
        assert _in_process(argv) == run_cli(argv)[:2]
    assert memo.cache_info().misses == 1
    # a spec that fails is not kept
    for _ in range(2):
        with pytest.raises(nc.UnsupportedSpec):
            groups.lattice_of("cyclic:00*quaternion")
    assert memo.cache_info().currsize == 1


def test_group_and_ell_requests_share_one_lattice(monkeypatch):
    # under the default bound and a raised one, --group cyclic:8 and an inline
    # vector on C8 read one memo key, so both requests get the lattice the
    # memo keeps
    got = []
    for name in ("lattice_of", "cyclic_power_lattice"):
        def recording(*args, build=getattr(cli, name)):
            got.append(build(*args))
            return got[-1]

        monkeypatch.setattr(cli, name, recording)
    for bound in (None, "128"):
        if bound is None:
            monkeypatch.delenv("NORMCERT_MAX_GROUP_ORDER", raising=False)
        else:
            monkeypatch.setenv("NORMCERT_MAX_GROUP_ORDER", bound)
        got.clear()
        assert _in_process(["lattice", "--group", "cyclic:8"])[0] == 0
        assert _in_process(["decide", "--operad", "complete", "--ell", "2,(0,0,0,0)"])[0] == 0
        assert len(got) == 2 and got[0] is got[1] is groups.lattice_of("cyclic:8"), bound


def test_raised_bound_keeps_lattices_up_to_the_default(monkeypatch):
    # the memo keeps a lattice by its group's order, not by the bound it was
    # read under: under a raised bound a group of order <= 64 is kept as under
    # the default, and S5 (order 120) is built on every call and never kept
    monkeypatch.setenv("NORMCERT_MAX_GROUP_ORDER", "128")
    memo = groups._kept_lattice
    memo.cache_clear()
    got = []

    def recording(spec, max_order):
        got.append(groups.lattice_of(spec, max_order))
        return got[-1]

    monkeypatch.setattr(cli, "lattice_of", recording)
    for spec, kept in (("dihedral:8*dihedral:8", True), ("symmetric:5", False)):
        got.clear()
        runs = [_in_process(["lattice", "--group", spec]) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert (got[0] is got[1]) == kept, spec
    assert memo.cache_info().currsize == 1
    bound = memo.cache_parameters()["maxsize"]
    for n in range(1, 2 * bound + 1):
        cli._build_lattice(f"cyclic:{n}")
    assert memo.cache_info().currsize == bound


def test_structured_outputs_reparse_to_equal_values(tmp_path):
    # every structured document the CLI prints is the io builder's document,
    # byte for byte, and reads back with json.loads; the locus, transfer-system
    # and height-vector documents it takes parse back through io to equal values
    rng = random.Random(41)

    def check(argv, doc):
        code, out = _in_process(argv + ["--format", "structured"])
        assert code == 0, argv
        assert out == iomod.indented_json(doc)
        assert json.loads(out) == doc

    for i, spec in enumerate(CORPUS_SPECS):
        L = lattice(spec)
        seed = rng.sample(candidate_pairs(L), min(2, len(candidate_pairs(L))))
        R = nc.close_transfer_system(L, seed)
        vl = random_valid_locus(L, rng)
        locus = _write_json(tmp_path / f"locus{i}.json", iomod.locus_doc(vl))
        operad = _write_json(tmp_path / f"operad{i}.json", iomod.system_doc(R))
        with open(locus) as fh:
            assert iomod.parse_locus(L, json.load(fh)) == vl
        with open(operad) as fh:
            assert iomod.parse_system(L, json.load(fh)) == R
        check(["lattice", "--group", spec], iomod.lattice_doc(L))
        check(["transfer-enumerate", "--group", spec],
              enumeration_doc_by_hand(L, enumeration(spec)))
        check(
            ["spectrum-validate", "--group", spec, "--locus", locus],
            iomod.locus_validation_doc(vl, nc.validate_vanishing_locus(vl)),
        )
        check(
            ["decide", "--group", spec, "--operad", operad, "--locus", locus],
            decision_doc_by_hand(nc.localization_preserves(vl, R), L, R, vl),
        )
    for p, n in ((2, 2), (2, 3), (3, 2)):
        L = nc.cyclic_power_lattice(p, n)
        R = nc.complete_system(L)
        v = _random_height_vector(rng, p, n)
        heights = _write_json(tmp_path / f"heights{p}-{n}.json", iomod.heights_doc(v))
        with open(heights) as fh:
            assert iomod.parse_heights(json.load(fh)) == v
        vl = nc.heights_to_locus(v, L)
        check(
            ["decide", "--group", f"cyclic:{p**n}", "--operad", "complete", "--locus", heights],
            decision_doc_by_hand(nc.localization_preserves(vl, R), L, R, vl),
        )
        hb, inf = rng.randint(0, 3), rng.random() < 0.5
        check(
            ["ell-enumerate", "--n", str(n), "--height-bound", str(hb), "--prime", str(p)]
            + ["--include-infinity"] * inf,
            iomod.heights_enumeration_doc(
                nc.enumerate_commutative_heights(n, hb, inf, p), n, hb, inf, p
            ),
        )
        check(
            ["cross-validate", "--n", str(n), "--height-bound", str(hb), "--prime", str(p)],
            iomod.cross_validation_doc(nc.cross_validate_cyclic(n, p, hb)),
        )


def test_parser_is_built_once_and_keeps_no_state():
    # one cached parser serves every request in a process; after a bad argv
    # the next requests print what a fresh process prints
    assert cli._build_parser() is cli._build_parser()
    assert _in_process(["lattice"])[0] == 2
    for argv in (
        ["decide", "--operad", "complete", "--ell", "2,(0,1,1)"],
        ["ell-enumerate", "--n", "2", "--height-bound", "2"],
        ["lattice", "--group", "symmetric:3"],
    ):
        code, out = _in_process(argv)
        assert (code, out) == run_cli(argv, timeout=30)[:2]


@pytest.mark.parametrize("flag", ["--locus", "--operad"])
def test_deeply_nested_json_input_exits_2(flag, tmp_path):
    # json.load raised RecursionError here, a traceback with exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    args = {"--locus": ["--operad", "complete", "--locus", str(deep)],
            "--operad": ["--operad", str(deep), "--ell", "2,(0,0)"]}[flag]
    code, out, err = run_cli(["decide", "--group", "cyclic:2", *args], timeout=5)
    assert code == 2 and not out
    assert err.startswith("error: ") and "nests too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--locus", "--operad"])
def test_over_long_json_integer_exits_2(flag, tmp_path):
    # json.load raised a plain ValueError past the digit limit, a traceback with exit 1
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    doc = tmp_path / "long.json"
    doc.write_text('{"entries": [{"subgroup": "C1#0", "prime": 2, "heights": ['
                   + "7" * (limit + 1) + "]}]}")
    args = {"--locus": ["--operad", "complete", "--locus", str(doc)],
            "--operad": ["--operad", str(doc), "--ell", "2,(0,0)"]}[flag]
    code, out, err = run_cli(["decide", "--group", "cyclic:2", *args], timeout=5)
    assert code == 2 and not out
    assert err.startswith("error: ") and "integer too long" in err and "Traceback" not in err


@pytest.mark.parametrize("p,length", [(2, 15000), (1000000007, 501)])
@pytest.mark.parametrize("command", [["decide", "--operad", "trivial"], ["spectrum-validate"]])
def test_long_inline_height_vector_exits_2(command, p, length):
    # p**n has more digits than str() converts, and writing it into the
    # bound message raised ValueError, a traceback with exit 1
    ell = f"{p},({','.join(['0'] * length)})"
    code, out, err = run_cli([*command, "--ell", ell], timeout=30)
    assert code == 2 and "exceeds bound 64" in err and not out
    assert "Traceback" not in err


_FUZZ_SPECS = ("cyclic:2", "cyclic:4", "symmetric:3", "quaternion:8", "dihedral:8",
               "cyclic:2*cyclic:2", "socle:3", "cyclic:0", "cyclic:999", "cyclic:x", "",
               "symmetric:9", "table:missing.csv")
_FUZZ_NUMBERS = ("0", "1", "2", "3", "-1", "7", "11", "x", "1000000", "")
_FUZZ_ELLS = ("2,(1,0)", "2,(0,1,1)", "3,(0)", "5,(inf,none)", "4,(1)", "2,(11,0)", "2,(1,", "")


# each subcommand's flags, required ones first
_FUZZ_FLAGS = {
    "lattice": ["--group", "--format", "--out", "--strict"],
    "transfer-enumerate": ["--group", "--format", "--out", "--strict"],
    "spectrum-validate": ["--locus", "--group", "--ell", "--format", "--out", "--strict"],
    "decide": ["--operad", "--locus", "--group", "--ell", "--format", "--out", "--strict"],
    "ell-enumerate": ["--n", "--height-bound", "--include-infinity", "--prime", "--format",
                      "--out", "--strict"],
    "cross-validate": ["--n", "--height-bound", "--prime", "--format", "--out", "--strict"],
    "dot": ["--group", "--what", "--prime", "--height-bound", "--out", "--strict"],
    "nosuch": [],
    "": [],
}
_FUZZ_REQUIRED = {"decide": 2, "ell-enumerate": 2, "cross-validate": 2, "nosuch": 0, "": 0}


def _fuzz_argv(files):
    """A subcommand, usually with its required flags, then a few flags of its
    own or, less often, of any subcommand, with valid and broken values."""
    values = {
        "--group": _FUZZ_SPECS,
        "--format": ("text", "structured", "json"),
        "--operad": ("complete", "trivial", *files),
        "--locus": ("ell:2,(1,0)", "ell:2,(0,1)", "ell:x", *files),
        "--ell": _FUZZ_ELLS,
        "--n": _FUZZ_NUMBERS,
        "--height-bound": _FUZZ_NUMBERS,
        "--prime": _FUZZ_NUMBERS,
        "--what": ("subgroup-lattice", "transfer-poset", "prime-poset", "x"),
        "--out": (files[0] + ".out", files[0] + "/missing/out"),
    }

    def option(flags):
        return st.sampled_from(flags).flatmap(
            lambda f: st.sampled_from(values[f]).map(lambda v: [f, v]) if f in values
            else st.just([f])
        )

    every = sorted({f for flags in _FUZZ_FLAGS.values() for f in flags})
    stray = st.sampled_from([["--nosuch"], ["--help"], ["--group"], ["stray"]])

    def for_command(command):
        flags = _FUZZ_FLAGS[command]
        required = flags[:_FUZZ_REQUIRED.get(command, 1)]
        own = option(flags) if flags else option(every)
        return st.builds(
            lambda head, keep, rest: [command, *(t for o in head[:keep] for t in o),
                                      *(t for o in rest for t in o)],
            st.tuples(*(option([f]) for f in required)),
            st.integers(0, len(required)) | st.just(len(required)),
            st.lists(own | own | own | option(every) | stray, max_size=3),
        )

    return st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(for_command)


def test_fuzzed_argument_vectors_exit_0_1_or_2(tmp_path):
    # in process with the shared parser: every argv ends in exit 0, 1 or 2
    # (argparse's SystemExit included), never in another exception, and a
    # fixed request prints the same bytes before and after the fuzzed ones
    L = lattice("symmetric:3")
    docs = {
        "locus.json": iomod.locus_doc(random_valid_locus(L, random.Random(3))),
        "operad.json": iomod.system_doc(nc.close_transfer_system(L, [(0, 1)])),
        "heights.json": iomod.heights_doc(nc.HeightVector(2, (1, 0))),
        "list.json": [1, 2],
    }
    files = [_write_json(tmp_path / name, doc) for name, doc in docs.items()]
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    files += [str(deep), str(tmp_path / "missing.json")]
    fixed = ["decide", "--group", "symmetric:3", "--operad", files[1], "--locus", files[0],
             "--format", "structured"]
    before = _in_process(fixed)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fuzz_argv(files))
    def run(argv):
        assert _in_process(argv)[0] in (0, 1, 2), argv

    run()
    assert _in_process(fixed) == before


def test_streamed_reports_in_one_process_match_their_oracles(tmp_path):
    # the complete operad against the random loci of the decide-mix benchmark
    # workload, text and structured, all through one interpreter: a report is
    # written from the witness stream, which frees each witness and its
    # checked cuts once written, so a text cached under the identity of a
    # freed tuple would be printed for a later, different one
    requests = []
    for short, spec in (("S4", "symmetric:4"), ("D64", "dihedral:64"),
                        ("D16xC2", "dihedral:16*cyclic:2")):
        L = lattice(spec)
        R = nc.complete_system(L)
        for i in range(2):
            vl = ladder.random_locus(L, f"locus:{short}:{i}")
            d = nc.localization_preserves(vl, R)
            assert not d.certified
            path = _write_json(tmp_path / f"{short}-r{i}.json", iomod.locus_doc(vl))
            decide = ["decide", "--group", spec, "--operad", "complete", "--locus", path,
                      "--strict"]
            requests.append((decide, decision_text_by_loop(d, L, R, vl)))
            requests.append((decide + ["--format", "structured"],
                             iomod.indented_json(decision_doc_by_hand(d, L, R, vl))))
    for argv, expected in requests:
        assert _in_process(argv) == (1, expected), argv


@pytest.mark.parametrize("spec", CORPUS_SPECS + ("dihedral:12", "symmetric:4"))
def test_enumeration_listings_match_their_oracles(spec, monkeypatch):
    # the text listing and the DOT poset read each system's pairs off its
    # pair mask; the oracles sort its pair set.  D12 (48 strict pairs) and
    # S4 (120) lie past the default pair bound
    L, enum = lattice(spec), unbounded_enumeration(spec)
    monkeypatch.setenv("NORMCERT_MAX_PAIRS", str(len(candidate_pairs(L))))
    text = _in_process(["transfer-enumerate", "--group", spec])
    assert text == (0, enumeration_text_by_loop(L, enum))
    poset = _in_process(["dot", "--group", spec, "--what", "transfer-poset"])
    assert poset == (0, transfer_poset_dot_by_loop(L, enum))


def test_enumeration_writers_build_no_transfer_system(monkeypatch):
    # each writer reads the pair masks; the TransferSystem objects are built
    # only when a caller reads enum.systems
    spec = "dihedral:8"
    L = lattice(spec)
    enum = nc.enumerate_transfer_systems(L)
    "".join(iomod.enumeration_json_blocks(L, enum))
    dotmod.transfer_poset_dot(L, enum)
    made = []

    def enumerate_and_keep(*args, **kwargs):
        made.append(nc.enumerate_transfer_systems(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "enumerate_transfer_systems", enumerate_and_keep)
    assert _in_process(["transfer-enumerate", "--group", spec])[0] == 0
    assert len(made) == 1
    for e in (enum, *made):
        assert "systems" not in vars(e)
    assert len(enum.systems) == len(enum) == 294 and "systems" in vars(enum)


def test_reports_stream_in_blocks_that_join_to_the_same_bytes(monkeypatch, tmp_path):
    # blocks of about 300 characters, so the head, witnesses, containment
    # rows, systems, listing lines and the tail fall at block boundaries;
    # each report is written in one forward pass, with no separator taken
    # back and no head put in front once the stream has ended
    monkeypatch.setattr(iomod, "_BLOCK", 300)
    L = lattice("symmetric:4")
    R = nc.complete_system(L)
    vl = random_valid_locus(L, random.Random(3))
    d = nc.localization_preserves(vl, R)
    report = iomod.indented_json(decision_doc_by_hand(d, L, R, vl))
    L8, enum = lattice("dihedral:8"), enumeration("dihedral:8")
    for blocks, expected in (
        (iomod.decision_json_blocks(nc.localization_runs(vl, R), L, R, vl)[0], report),
        (iomod.decision_text_blocks(nc.localization_runs(vl, R), L, R, vl)[0],
         decision_text_by_loop(d, L, R, vl)),
        (iomod.enumeration_json_blocks(L8, enum),
         iomod.indented_json(enumeration_doc_by_hand(L8, enum))),
    ):
        blocks = list(blocks)
        assert len(blocks) > 10 and "".join(blocks) == expected
    listing = _in_process(["transfer-enumerate", "--group", "dihedral:8"])
    assert listing == (0, enumeration_text_by_loop(L8, enum))
    locus = _write_json(tmp_path / "locus.json", iomod.locus_doc(vl))
    target = tmp_path / "report.json"
    assert _in_process(["decide", "--group", "symmetric:4", "--operad", "complete",
                        "--locus", locus, "--format", "structured", "--out", str(target)]) == (0, "")
    assert target.read_bytes() == report.encode()


def test_hostile_group_name_is_escaped_like_json_dumps(tmp_path):
    # a table: group whose name, the file's base name, needs JSON escapes,
    # a backslash among them
    table = tmp_path / '\\S3 "hostile", [x] {y} é.csv'
    table.write_text("\n".join(",".join(map(str, row)) for row in nc.symmetric(3).table))
    locus_doc = {"entries": [{"subgroup": "C2#0", "prime": "any", "heights": [0]}]}
    locus = _write_json(tmp_path / "hostile-locus.json", locus_doc)
    spec = f"table:{table}"
    L = nc.subgroup_lattice(nc.build_group(spec))
    assert L.group.name == '\\S3 "hostile", [x] {y} é'
    vl = iomod.parse_locus(L, locus_doc)
    R = nc.complete_system(L)
    decision = nc.localization_preserves(vl, R)
    assert not decision.certified
    for argv, doc in (
        (["lattice", "--group", spec], iomod.lattice_doc(L)),
        (["transfer-enumerate", "--group", spec],
         enumeration_doc_by_hand(L, nc.enumerate_transfer_systems(L))),
        (["decide", "--group", spec, "--operad", "complete", "--locus", locus],
         decision_doc_by_hand(decision, L, R, vl)),
    ):
        code, out = _in_process(argv + ["--format", "structured"])
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert "\\u00e9" in out and '\\"hostile\\"' in out and '"\\\\S3 ' in out


def test_out_file_matches_utf8_stdout_under_a_c_locale(tmp_path):
    # under the C locale, with locale coercion and UTF-8 mode off, the name
    # read off a non-ASCII table path reaches --out as undecoded argv bytes;
    # the file gets the bytes stdout gets under UTF-8 mode, as does stdout
    table = tmp_path / "tbl-é.csv"
    table.write_text("\n".join(",".join(map(str, row)) for row in nc.cyclic(3).table))
    argv = [sys.executable, "-m", "normcert.cli", "lattice", "--group", f"table:{table}"]
    out = tmp_path / "lattice.txt"
    c_locale = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    want = subprocess.run(argv, capture_output=True, env=dict(os.environ, PYTHONUTF8="1"))
    assert want.returncode == 0 and "tbl-é".encode() in want.stdout
    to_file = subprocess.run(argv + ["--out", str(out)], capture_output=True, env=c_locale)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert out.read_bytes() == want.stdout
    to_stdout = subprocess.run(argv, capture_output=True, env=c_locale)
    assert (to_stdout.returncode, to_stdout.stdout) == (0, want.stdout)


def _run_in_process(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv", [
    ("NORMCERT_MAX_GROUP_ORDER", ["lattice", "--group", "cyclic:2"]),
    ("NORMCERT_MAX_PAIRS", ["transfer-enumerate", "--group", "cyclic:2"]),
])
def test_non_integer_bound_variable_exits_2(name, argv, monkeypatch):
    monkeypatch.setenv(name, "sixty-four")
    assert _run_in_process(argv) == (
        2, "", f"error: environment variable {name} must be an integer\n")


def test_cross_validation_disagreements_are_listed(monkeypatch):
    # no sweep inside the bounds disagrees, so the report is made up
    from normcert.certify import Disagreement

    report = nc.CrossValidationReport(1, 2, 1, 5, 15, 5, (
        Disagreement((1, None), "norm[0,1]", True, False),
        Disagreement((1, None), "complete-operad", False, True),
    ))
    monkeypatch.setattr(cli, "cross_validate_cyclic", lambda n, p, hb: report)
    argv = ["cross-validate", "--n", "1", "--height-bound", "1"]
    code, out, _ = _run_in_process(argv + ["--strict"])
    assert code == 1
    assert out.splitlines()[2:] == [
        "disagreements: 2",
        "disagree norm[0,1] at (1, None): engine=True inequalities=False",
        "disagree complete-operad at (1, None): engine=False inequalities=True",
    ]
    assert _run_in_process(argv)[0] == 0


def _padded_locus(path, size):
    """A valid C2 locus document padded with spaces to ``size`` bytes."""
    text = json.dumps({"entries": [{"subgroup": "C1#0", "prime": 2, "heights": [0]}]})
    path.write_text(text + " " * (size - len(text)))
    return str(path)


def test_json_input_is_read_up_to_the_byte_budget(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 4096)
    argv = ["spectrum-validate", "--group", "cyclic:2", "--locus"]
    at = _padded_locus(tmp_path / "at.json", 4096)
    assert _run_in_process(argv + [at])[:2] == (0, "locus on C2: 1 primes\nok\n")
    past = _padded_locus(tmp_path / "past.json", 4097)
    assert _run_in_process(argv + [past]) == (
        2, "", f"error: {past} exceeds the input budget of 4096 bytes\n")
    assert _run_in_process(["decide", "--group", "cyclic:2", "--ell", "2,(0,0)",
                            "--operad", past])[0] == 2


def test_endless_pipe_input_exits_2_at_the_byte_budget(monkeypatch, tmp_path):
    # the writer stops by itself after four budgets, so a reader that ignored
    # the budget would fail on the message, not hold the pipe's bytes forever
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 1 << 16)
    fifo = str(tmp_path / "zeros")
    os.mkfifo(fifo)
    written = []

    def fill():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            for _ in range(64):
                written.append(fh.write(b"\0" * (1 << 12)))

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    code, out, err = _run_in_process(
        ["decide", "--group", "cyclic:8", "--operad", "complete", "--locus", fifo])
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert (code, out, err) == (2, "", f"error: {fifo} exceeds the input budget of 65536 bytes\n")


def test_long_table_csv_lines_stop_at_the_cap(tmp_path):
    # under an order bound m a line is read no further than 32 m characters:
    # its cut part names it too wide when it holds more than m cells
    table = tmp_path / "padded.csv"
    table.write_text("0," + " " * 3000 + "1\n1,0\n")
    code, out, err = run_cli(["lattice", "--group", f"table:{table}"], timeout=30)
    assert (code, out) == (2, "")
    assert err == f"error: row 0 of {table} is longer than 2048 characters\n"
    code, out, err = run_cli(["lattice", "--group", f"table:{table}"], timeout=30,
                             NORMCERT_MAX_GROUP_ORDER="128")
    assert (code, err) == (0, "") and out.startswith("group padded (order 2)\n")
    assert nc.build_group(f"table:{table}").order == 2  # no bound, no cap
    wide = tmp_path / "wide.csv"
    wide.write_text("0," * 100_000 + "0\n")
    assert _run_in_process(["lattice", "--group", f"table:{wide}"]) == (
        2, "", f"error: row 0 of {wide} has more than 64 entries\n")
