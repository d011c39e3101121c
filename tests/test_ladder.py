"""The bounded-case runner of ``tools/ladder.py`` and its decide-mix locus rule."""

import json
import os
import sys

import normcert as nc
from helpers import ladder

PERFBENCH = os.path.join(ladder.ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


def test_random_loci_are_the_benchmark_documents(tmp_path):
    # the benchmark keeps its own copy of the rule; the two must write the
    # same bytes for every decide-mix group and seed
    docs = workloads.input_documents("decide-mix")
    for short, spec in workloads.DECIDE_GROUPS:
        for i in range(workloads.N_RANDOM_LOCI):
            path = tmp_path / f"{short}-r{i}.json"
            ladder.write_document(str(path), spec, f"locus:{short}:{i}")
            assert path.read_text() == json.dumps(docs[path.name])


def test_uniform_documents_are_the_uniform_loci(tmp_path):
    path = tmp_path / "C2^4-uniform.json"
    ladder.write_document(str(path), "cyclic:2*cyclic:2*cyclic:2*cyclic:2", {2: 3})
    L = nc.subgroup_lattice(nc.build_group("cyclic:2*cyclic:2*cyclic:2*cyclic:2"))
    assert json.loads(path.read_text()) == nc.io.locus_doc(nc.uniform_locus(L, {2: 3}))


def test_operad_documents_list_the_complete_operad(tmp_path):
    path = tmp_path / "C2^4-complete.json"
    ladder.write_document(str(path), "cyclic:2*cyclic:2*cyclic:2*cyclic:2", None)
    L = nc.subgroup_lattice(nc.build_group("cyclic:2*cyclic:2*cyclic:2*cyclic:2"))
    doc = json.loads(path.read_text())
    assert doc == nc.io.system_doc(nc.complete_system(L))
    assert nc.io.parse_system(L, doc) == nc.complete_system(L)


def test_the_raised_bound_case_reads_fourteen_lattices():
    assert len(ladder.LARGE_PRIMES) == 14
    (case,) = [c for c in ladder.CASES if c.env.get("NORMCERT_MAX_GROUP_ORDER")]
    assert len(case.requests) == 14


def test_the_runner_names_each_case_that_fails(tmp_path, capsys):
    # one small interpreter per case; every case but the first breaks one bound
    (tmp_path / "sitecustomize.py").write_text(
        'import sys\nsys.stderr.write("Traceback (most recent call last):\\n")\n')
    path = os.pathsep.join([str(tmp_path), os.path.join(ladder.ROOT, "src"), ladder.TOOLS])
    tiny = {"requests": ("lattice --group cyclic:2",), "sink": ladder.CAPTURED, "exit": 0,
            "seconds": 30, "ceiling_mb": 10**6, "measured_mb": 0}
    cases = [
        ladder.Case("within bounds", **tiny, check=("first_line", "group C2 (order 2)")),
        ladder.Case("wrong exit", **{**tiny, "exit": 1}),
        ladder.Case("low ceiling", **{**tiny, "ceiling_mb": 1}),
        ladder.Case("wrong output", **tiny, check=("first_line", "group C3 (order 3)")),
        ladder.Case("traceback", **{**tiny, "sink": "/dev/full", "exit": 2},
                    env={"PYTHONPATH": path}),
        ladder.Case("too slow", **{**tiny, "seconds": 0.01}),
    ]
    assert ladder.run(cases) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "5 of 6 cases failed: wrong exit; low ceiling; wrong output; traceback; too slow")
    failures = [line for line in out.splitlines() if line.startswith("  FAILED: ")]
    for reason in ("exit 0, not 1", "MB is above 1 MB", "the first line is not 'group C3",
                   "a traceback on stderr", "ran past its 0.01 s limit"):
        assert sum(reason in line for line in failures) == 1, reason
    assert len(failures) == 6  # the slow case is killed, so it also exits -9
