"""The bounded-case runner of ``tools/ladder.py``, its documents and its decide-mix locus rule."""

import json
import os
import random

import pytest

import normcert as nc
from helpers import ladder

import same_output  # helpers puts tools/ on the path
import workloads  # tools/ladder.py puts perfbench/ on the path


def test_every_document_named_is_a_document_entry():
    # a typo in an @NAME fails here, not in the same-output run minutes later
    # (and so does an @NAME in a document's spec)
    lines = [line.split() for case in ladder.CASES for line in case.requests]
    fixed = same_output.fixed_list("decide-mix")
    names = ladder.document_names(w for request in lines + fixed for w in request)
    assert len(names) == 18
    names += ladder.document_names(spec for spec, _ in ladder.DOCUMENTS.values() if spec)
    assert not [name for name in names if name not in ladder.DOCUMENTS]


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:64"])
@pytest.mark.parametrize("where", ["top", "non-normal"])
def test_tower_documents_put_the_whole_tower_at_one_subgroup(tmp_path, spec, where):
    path = tmp_path / "tower.json"
    ladder.write_document(str(path), spec, (ladder.TOWER, where))
    L = nc.subgroup_lattice(nc.build_group(spec))
    sid = L.top.lattice_id
    if where == "non-normal":
        sid = min(s for s in range(len(L)) if not L.is_normal(s))
        assert sid != L.top.lattice_id
    assert json.loads(path.read_text()) == {
        "entries": [{"subgroup": L.names[sid], "prime": 2, "heights": "all"}]}


def test_relabeled_tables_permute_the_element_labels(tmp_path):
    path = tmp_path / "S4-relabeled.csv"
    ladder.write_document(str(path), "symmetric:4", (ladder.RELABEL, "relabel:S4"))
    G = nc.build_group("symmetric:4")
    perm = list(range(G.order))
    random.Random("relabel:S4").shuffle(perm)
    assert perm != sorted(perm)
    rows = [list(map(int, line.split(","))) for line in path.read_text().splitlines()]
    assert len(rows) == G.order
    for a in range(G.order):
        for b in range(G.order):
            assert rows[perm[a]][perm[b]] == perm[G.mul(a, b)]
    assert len(nc.subgroup_lattice(nc.build_group(f"table:{path}"))) == 30


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


def test_the_in_process_runner_sets_variables_per_request(monkeypatch, capfd):
    # a request's NAME=VALUE words hold for it alone; an exception other
    # than SystemExit prints its traceback and gives exit 1, as the CLI does
    requests = [["NORMCERT_MAX_GROUP_ORDER=128", "lattice", "--group", "symmetric:5"],
                ["lattice", "--group", "symmetric:5"],
                ["lattice", "--group", "cyclic:2", "--bogus"]]
    runs = [(buf.getvalue(), code) for buf, code in ladder.run_requests(requests, capture=True)]
    assert [code for _, code in runs] == [0, 2, 2]
    assert runs[0][0].startswith("group S5 (order 120)\n")
    assert runs[1][0] == runs[2][0] == ""
    assert "NORMCERT_MAX_GROUP_ORDER" not in os.environ

    def broken(argv):
        raise ValueError("broken")

    monkeypatch.setattr(nc.cli, "main", broken)
    capfd.readouterr()
    assert [code for _, code in ladder.run_requests([["lattice"]], capture=True)] == [1]
    assert "ValueError: broken" in capfd.readouterr().err
