"""Check that the CLI prints the same bytes as a base revision.

    python3 tools/same_output.py BASE_REV [--seeds 1 2]

BASE_REV is checked out into a temporary ``git worktree``.  Each workload's
input documents are written once, with the base tree.  Then every request of
the given seeds of all three benchmark workloads runs through the base tree
and through this working tree, each request in its own ``python -m
normcert.cli`` subprocess, and the sha256 of its stdout and its exit code
are compared.  The request streams come from ``perfbench/workloads.py``.
Each seed's stream, and the fixed list below, then runs once more on this
working tree, all of it in one interpreter through ``cli.main`` with stdout
captured as ``perfbench/child.py`` captures it, and each request's sha256
and exit code are compared with the base tree's subprocess result: state
that one request leaves in the process, such as a kept subgroup lattice,
must not change what a later one prints.
No stream prints a subgroup lattice, so a fixed list of ``lattice`` (text
and structured) and ``dot --what subgroup-lattice`` requests over every
group of the three workloads, and over D8xD8, runs as well.  D8xD8 (389
subgroups) is there because its lattice build lists 64-bit element masks,
many of which take the dense branch of ``groups._bits``, next to 389-bit
subgroup id masks, which take the sparse one.  The fixed list also runs
structured ``lattice``, ``transfer-enumerate`` and ``decide --operad
complete`` on a ``table:`` CSV of S3, written into the scratch directory,
whose file name holds ``"``, ``\\``, ``,``, ``[``, ``{`` and ``é``, so the
JSON escaping of the group name is compared too.  No stream validates a
locus either, so the fixed list goes on with ``spectrum-validate --strict``,
text and structured, on each decide-mix group's ``u0``, ``r0`` and ``r1``
locus documents.  No stream sends an inline vector spelled with spaces,
``+1``, ``-1``, ``none`` or ``inf``, or a malformed one, so it runs
``spectrum-validate --strict`` and ``decide --operad complete``, text and
structured, on ten ``--ell`` vectors: six that parse, one of which breaks
the chain inequality, and ``2,()``, ``2,(0,,1)``, ``x,(0)`` and ``2,(11)``,
which exit 2.  No stream's decision report has an INFINITY height
either, so the fixed list ends with ``decide --operad complete --strict``,
text and structured, on each decide-mix group against a locus document,
written into the scratch directory, whose one entry puts the whole 2-local
tower (``"heights": "all"``) at G itself: every norm K -> G fails there,
each witness at height ``"inf"`` (68 of them on D64, exit 1).  On S4 and
D64 it also runs against the tower at the first class of subgroups that
are not normal, whose witnesses include norms K -> H with K normal in H
but not in G, the coset sweep of the Mackey cuts (S4: 162 witnesses, 36
of that kind, 6 of them with several blocks; D64: 1248 and 64).  No stream
decides with witnesses on a non-default element labelling, yet the least
element of each double coset, which the ``checked`` lists print, moves with
the labels, and so does the least element of each left coset that the
lattice marks.  So the fixed list also runs ``decide --operad complete
--strict``, text and structured, on a ``table:`` CSV of S4 whose element
labels are permuted by the seed ``relabel:S4``, against a random locus by
the decide-mix rule (seed ``locus:S4-relabeled:0``), both written into the
scratch directory: 949 witnesses, exit 1.  The streams
sweep only C8, C27 and C25 with ``cross-validate``, so the fixed list also
runs it, text and structured, on the trivial group (``--n 0``), at height
bound 0 (``--n 1 --prime 2``) and on C1331 (``--n 3 --prime 11``), which
exits 2.  It ends with every request of the bounded cases of
``tools/ladder.py``, each once, to stdout: the largest requests under each
documented bound, which no stream sends.  Among them are C343 at the order
bound, D12 and S4 above the pair bound, the largest documents that
``indented_json`` writes, the largest decision reports (D8xD8 against a
random locus by the decide-mix rule, 503,371 witnesses), the largest pair
mask (C2^6's complete operad, 95,706 bits, also read as a document that
lists every pair) and fourteen lattices above the default order bound.  The
documents they read are written into the scratch directory with the base
tree.
A request may begin with ``NAME=VALUE`` words, as a shell command line
does; those variables are set for that request only, in its subprocesses
and in the one-interpreter run.
A last batch interleaves ``lattice``, ``dot`` and ``decide --ell`` requests
under ``NORMCERT_MAX_GROUP_ORDER=128`` with the same groups under the
default bound, so its one-interpreter run checks that a lattice kept under
one bound prints the same under the other; S5 and C128, past the default
bound, are built on each request.

Every request of every batch is compared, and each difference is printed,
naming its request, as it is found, so one difference hides no later one.
Exits 0 when every request agrees and 1 when any differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import ladder  # noqa: E402
import workloads  # noqa: E402
from ladder import TOOLS, tree_env  # noqa: E402


def call_with(tree: str, cwd: str, call: str, *args: str) -> None:
    """Call ``MODULE.FUNCTION(*args)`` in an interpreter that imports ``normcert`` from ``tree``."""
    code = f"import sys, {call.split('.')[0]}; {call}(*sys.argv[1:])"
    subprocess.run([sys.executable, "-c", code, *args], env=tree_env(tree, PERFBENCH, TOOLS),
                   cwd=cwd, check=True)


def split_env(request: list[str]) -> tuple[dict[str, str], list[str]]:
    """A request's leading ``NAME=VALUE`` words, as a dict, and the argv after them."""
    n = 0
    while n < len(request) and "=" in request[n]:
        n += 1
    return dict(word.split("=", 1) for word in request[:n]), request[n:]


def outcomes(trees: list[str], request: list[str], cwd: str) -> list[tuple[str, int]]:
    """(sha256 of stdout, exit code) of one request in each tree, run side by side."""
    extra, argv = split_env(request)
    procs = [
        subprocess.Popen([sys.executable, "-m", "normcert.cli", *argv],
                         env={**tree_env(tree), **extra}, cwd=cwd,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        for tree in trees
    ]
    out = []
    for proc in procs:
        stdout, _ = proc.communicate()
        out.append((hashlib.sha256(stdout).hexdigest(), proc.returncode))
    return out


def lattice_requests() -> list[list[str]]:
    """Every way to print the subgroup lattice of every workload group and of D8xD8."""
    specs = dict.fromkeys(
        [spec for _, spec in workloads.DECIDE_GROUPS]
        + [spec for _, spec, _ in workloads.ENUM_GROUPS]
        + [f"cyclic:{p**n}" for p, n in workloads.CYCLIC_GROUPS]
        + [ladder.D8XD8]
    )
    return [
        argv
        for spec in specs
        for argv in (["lattice", "--group", spec],
                     ["lattice", "--group", spec, "--format", "structured"],
                     ["dot", "--group", spec, "--what", "subgroup-lattice"])
    ]


# S3 as a multiplication table, permutations of 0, 1, 2 in lexicographic order
S3_TABLE = ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 4, 0, 5, 1, 3),
            (3, 5, 1, 4, 0, 2), (4, 2, 5, 0, 3, 1), (5, 3, 4, 1, 2, 0))
HOSTILE_CSV = '\\S3 "hostile", [x] {y} é.csv'


def hostile_requests(scratch: str) -> list[list[str]]:
    """Structured requests on S3 under a name that needs JSON escapes.

    Writes the table and a locus document into ``scratch``.
    """
    table = os.path.join(scratch, HOSTILE_CSV)
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(map(str, row)) for row in S3_TABLE) + "\n")
    locus = os.path.join(scratch, "hostile-locus.json")
    with open(locus, "w", encoding="utf-8") as fh:
        fh.write('{"entries": [{"subgroup": "C2#0", "prime": "any", "heights": [0]}]}\n')
    spec = f"table:{table}"
    return [
        ["lattice", "--group", spec, "--format", "structured"],
        ["transfer-enumerate", "--group", spec, "--format", "structured"],
        ["decide", "--group", spec, "--operad", "complete", "--locus", locus,
         "--format", "structured"],
    ]


def locus_requests(decide_dir: str) -> list[list[str]]:
    """``spectrum-validate`` on decide-mix locus documents.

    ``decide_dir`` holds the decide-mix inputs.
    """
    return [
        ["spectrum-validate", "--group", spec, "--locus",
         os.path.join(decide_dir, f"{short}-{loc}.json"), "--strict", "--format", fmt]
        for short, spec in workloads.DECIDE_GROUPS
        for loc in ("u0", "r0", "r1")
        for fmt in ("text", "structured")
    ]


# inline vectors with every spelling an entry may take: spaces, +1, -1,
# none and inf; the second breaks the chain inequality (2 is more than one
# above 0), and the last four exit 2: no entry, an empty entry, no prime and
# a height past the input bound
ELL_VECTORS = ("2,(1,0,none,inf)", "3,(2,0)", "2, ( +1 , 0,-1 )", "3,(inf, none , -1)",
               "2,(inf,+2, 1 ,none)", "5,( +0 )", "2,()", "2,(0,,1)", "x,(0)", "2,(11)")


def ell_requests() -> list[list[str]]:
    """``spectrum-validate --strict`` and ``decide --operad complete`` on ``ELL_VECTORS``."""
    return [
        [*command, "--ell", ell, "--format", fmt]
        for ell in ELL_VECTORS
        for command in (["spectrum-validate", "--strict"], ["decide", "--operad", "complete"])
        for fmt in ("text", "structured")
    ]


# the whole 2-local tower, heights 0 to INFINITY, at G ("top") or at the
# class of the first subgroup that is not normal ("non-normal"); each
# witness names the prime of height "inf"
INF_LOCUS = """import json, sys, normcert as nc
for spec, where, path in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
    L = nc.subgroup_lattice(nc.build_group(spec))
    sid = L.top.lattice_id
    if where == "non-normal":
        sid = next(s for s in range(len(L)) if not L.is_normal(s))
    with open(path, "w") as fh:
        json.dump({"entries": [{"subgroup": L.names[sid], "prime": 2, "heights": "all"}]}, fh)
"""

# groups whose first non-normal class also gets the tower: its witnesses
# include norms K -> H with K normal in H but not in G, several Mackey blocks
# each on S4 (on D64 each such K has index 2 in H, so one block)
NON_NORMAL_GROUPS = ("symmetric:4", "dihedral:64")


def inf_locus_requests(tree: str, scratch: str) -> list[list[str]]:
    """``decide --operad complete --strict`` on INFINITY loci.

    One locus per decide-mix group at G, and one per group of
    ``NON_NORMAL_GROUPS`` at its first non-normal class.  Writes the locus
    documents into ``scratch`` with ``tree``.
    """
    loci = [(spec, "top", os.path.join(scratch, f"{short}-inf.json"))
            for short, spec in workloads.DECIDE_GROUPS]
    loci += [(spec, "non-normal", os.path.join(scratch, f"{short}-non-normal-inf.json"))
             for short, spec in workloads.DECIDE_GROUPS if spec in NON_NORMAL_GROUPS]
    subprocess.run([sys.executable, "-c", INF_LOCUS, *(a for locus in loci for a in locus)],
                   env=tree_env(tree), cwd=scratch, check=True)
    return [
        ["decide", "--group", spec, "--operad", "complete", "--locus", path, "--strict",
         "--format", fmt]
        for spec, _, path in loci
        for fmt in ("text", "structured")
    ]


# S4 with its element labels permuted by the seed "relabel:S4", written as a
# CSV multiplication table to the path given
RELABELED_S4 = """import random, sys, normcert as nc
G = nc.symmetric(4)
perm = list(range(G.order))
random.Random("relabel:S4").shuffle(perm)
rows = [[0] * G.order for _ in range(G.order)]
for a in range(G.order):
    for b in range(G.order):
        rows[perm[a]][perm[b]] = perm[G.mul(a, b)]
with open(sys.argv[1], "w") as fh:
    fh.write("".join(",".join(map(str, row)) + "\\n" for row in rows))
"""


def relabeled_requests(tree: str, scratch: str) -> list[list[str]]:
    """Random-locus decisions on S4 under permuted element labels.

    The least elements of double cosets, which the ``checked`` lists print,
    move with the labels.  Writes the table and the locus into ``scratch``
    with ``tree``.
    """
    table = os.path.join(scratch, "S4-relabeled.csv")
    subprocess.run([sys.executable, "-c", RELABELED_S4, table],
                   env=tree_env(tree), cwd=scratch, check=True)
    locus = os.path.join(scratch, "S4-relabeled-r0.json")
    call_with(tree, scratch, "ladder.write_document", locus, f"table:{table}",
              "locus:S4-relabeled:0")
    return [
        ["decide", "--group", f"table:{table}", "--operad", "complete", "--locus", locus,
         "--strict", "--format", fmt]
        for fmt in ("text", "structured")
    ]


# the trivial group, height bound 0, and C1331 past the bound; C343 is a ladder case
XVAL_ARGS = (("0", "2", "5"), ("1", "2", "0"), ("3", "11", "0"))


def xval_requests() -> list[list[str]]:
    """``cross-validate``, text and structured, on sweeps no stream sends."""
    return [
        ["cross-validate", "--n", n, "--prime", p, "--height-bound", hb, "--format", fmt]
        for n, p, hb in XVAL_ARGS
        for fmt in ("text", "structured")
    ]


def ladder_requests(tree: str, scratch: str) -> list[list[str]]:
    """Every request of the bounded cases of ``tools/ladder.py``, once each.

    Each writes to stdout here, whatever its case's sink.  Writes the
    documents they read into ``scratch`` with ``tree``.
    """
    call_with(tree, scratch, "ladder.write_documents", scratch, *ladder.DOCUMENTS)
    requests = dict.fromkeys(
        (*(f"{name}={value}" for name, value in case.env.items()),
         *ladder.request_argv(line, scratch))
        for case in ladder.CASES
        for line in case.requests
    )
    return [list(request) for request in requests]


# lattices of small groups read under a raised order bound, between the
# same requests under the default one: the memo keeps a lattice by its
# group's order, so in one process the default-bound requests get the
# lattice kept under the raised bound and the other way round.  S5 and
# C128 lie past the default bound and are built on each request
RAISED = "NORMCERT_MAX_GROUP_ORDER=128"
RAISED_BOUND_REQUESTS = [
    [RAISED, "lattice", "--group", "cyclic:8"],
    ["decide", "--operad", "complete", "--ell", "2,(0,0,0,0)"],
    [RAISED, "decide", "--operad", "complete", "--ell", "2,(1,0,0,0)", "--format", "structured"],
    ["lattice", "--group", "cyclic:8", "--format", "structured"],
    [RAISED, "lattice", "--group", ladder.D8XD8, "--format", "structured"],
    ["lattice", "--group", ladder.D8XD8],
    [RAISED, "decide", "--operad", "complete", "--ell", "3,(1,0,0)"],
    ["dot", "--group", "cyclic:27", "--what", "subgroup-lattice"],
    [RAISED, "lattice", "--group", "symmetric:5"],
    ["lattice", "--group", "symmetric:5"],
    [RAISED, "decide", "--operad", "complete", "--ell", "2,(0,0,0,0,0,0,0,0)"],
    ["decide", "--operad", "complete", "--ell", "2,(0,0,0,0,0,0,0,0)"],
    [RAISED, "lattice", "--group", "dihedral:8", "--format", "structured"],
    ["spectrum-validate", "--group", "dihedral:8", "--ell", "2,(0,0,0,0)"],
]


# every request of a batch through ``cli.main`` in one interpreter, stdout
# captured as ``perfbench/child.py`` captures it; (variables, argv) pairs
# come on stdin, and each request's variables are set for it alone
IN_PROCESS = """import contextlib, hashlib, io, json, os, sys, traceback
from normcert import cli
out = []
for extra, argv in json.load(sys.stdin):
    os.environ.update(extra)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback ends python -m normcert.cli with exit 1
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
    for name in extra:
        del os.environ[name]
    out.append((hashlib.sha256(buf.getvalue().encode()).hexdigest(), rc))
json.dump(out, sys.stdout)
"""


def in_process_outcomes(requests: list[list[str]], cwd: str) -> list[tuple[str, int]]:
    """(sha256 of stdout, exit code) of each request, all run in one interpreter of this tree."""
    pairs = [split_env(request) for request in requests]
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], input=json.dumps(pairs),
                          env=tree_env(ROOT), cwd=cwd, stdout=subprocess.PIPE, text=True,
                          check=True)
    return [tuple(o) for o in json.loads(proc.stdout)]


def mismatch(what: str, request: list[str], base_out: tuple, head_out: tuple) -> str:
    (base_sha, base_rc), (head_sha, head_rc) = base_out, head_out
    return (f"{what} ({' '.join(request)}): base exit {base_rc} sha256 {base_sha[:12]}, "
            f"this tree exit {head_rc} sha256 {head_sha[:12]}")


def compare_batch(base: str, label: str, requests: list[list[str]], cwd: str) -> list[str]:
    """How each request of a batch differs from the base tree's, one line per difference.

    Each request runs in its own process in both trees, then the whole batch
    runs once more in one process of this tree, against the base outcomes.
    Each difference is printed as it is found.
    """
    diffs = []

    def differs(line: str) -> None:
        diffs.append(line)
        print(f"differs: {line}", flush=True)

    base_outs = []
    for i, request in enumerate(requests):
        base_out, head_out = outcomes([base, ROOT], request, cwd)
        if base_out != head_out:
            differs(mismatch(f"{label} request {i}", request, base_out, head_out))
        base_outs.append(base_out)
    in_one = in_process_outcomes(requests, cwd)
    for i, (request, base_out, head_out) in enumerate(zip(requests, base_outs, in_one)):
        if base_out != head_out:
            differs(mismatch(f"{label} request {i} in one process", request, base_out, head_out))
    if diffs:
        print(f"{label}: {len(diffs)} differences in {len(requests)} requests", flush=True)
    else:
        print(f"{label}: {len(requests)} requests identical, one process each and all in one",
              flush=True)
    return diffs


def compare(base: str, seeds: list[int], scratch: str) -> list[str]:
    """Every difference between the outputs of the two trees, one line each."""
    workdirs = {}
    for workload in workloads.WORKLOADS:
        workdir = workdirs[workload] = os.path.join(scratch, workload)
        os.makedirs(workdir)
        call_with(base, workdir, "workloads.write_inputs", workload, workdir)
    requests = (lattice_requests() + hostile_requests(scratch)
                + locus_requests(workdirs["decide-mix"]) + ell_requests()
                + inf_locus_requests(base, scratch)
                + relabeled_requests(base, scratch) + xval_requests()
                + ladder_requests(base, scratch))
    diffs = []
    for label, batch in (("fixed list", requests), ("raised bound", RAISED_BOUND_REQUESTS)):
        diffs += compare_batch(base, label, batch, scratch)
    for workload, workdir in workdirs.items():
        for seed in seeds:
            argvs = [[os.path.join(workdir, a[1:]) if a.startswith("@") else a
                      for a in req["argv"]] for req in workloads.stream(workload, seed)]
            diffs += compare_batch(base, f"{workload} seed {seed}", argvs, workdir)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="same-output-")
    base = os.path.join(scratch, "base")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach",
                        base, args.base_rev], check=True)
        try:
            diffs = compare(base, args.seeds, scratch)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base],
                           check=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if diffs:
        print(f"{len(diffs)} differences")
        return 1
    print("same output on every request")
    return 0


if __name__ == "__main__":
    sys.exit(main())
