"""Check that the CLI prints the same bytes as a base revision.

    python3 tools/same_output.py BASE_REV [--seeds 1 2]

BASE_REV is checked out into a temporary ``git worktree``, and every
document the requests read is written once, with the base tree.  Each
request runs in its own ``python -m normcert.cli`` subprocess of the base
tree and of this working tree, and the sha256 of its stdout and its exit
code are compared.  Each batch then runs once more on this working tree, all
of it in one interpreter through ``cli.main``, against the base tree's
subprocess results, so that state one request leaves in the process cannot
change what a later one prints.  The batches are the fixed list below, the
raised-bound batch, and the given seeds of the three benchmark workloads'
request streams (``perfbench/workloads.py``).  A request may begin with
``NAME=VALUE`` words, set for that request alone.  Each difference is
printed, naming its request, as it is found; exits 0 when every request
agrees and 1 when any differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import sys
import tempfile

import ladder
import workloads
from ladder import PERFBENCH, ROOT, TOOLS, split_env, tree_env


def call_with(tree: str, cwd: str, call: str, *args: str) -> str:
    """Call ``MODULE.FUNCTION(*args)`` in an interpreter that imports ``normcert`` from ``tree``.

    Returns what the call printed.
    """
    code = f"import sys, {call.split('.')[0]}; {call}(*sys.argv[1:])"
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=tree_env(tree, PERFBENCH, TOOLS), cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


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


# No stream prints a subgroup lattice.  D8xD8 (389 subgroups) is there
# because its lattice build lists 64-bit element masks, many of which take
# the dense branch of ``groups._bits``, next to 389-bit subgroup id masks,
# which take the sparse one.
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


# structured requests on S3 as a table: CSV whose file name holds ``"``,
# ``\``, ``,``, ``[``, ``{`` and ``é``, so the JSON escaping of the group
# name is compared too
HOSTILE = 'table:@\\S3 "hostile", [x] {y} é.csv'
HOSTILE_REQUESTS = [
    ["lattice", "--group", HOSTILE, "--format", "structured"],
    ["transfer-enumerate", "--group", HOSTILE, "--format", "structured"],
    ["decide", "--group", HOSTILE, "--operad", "complete", "--locus", "@hostile-locus.json",
     "--format", "structured"],
]


# No stream validates a locus.
def locus_requests(decide_dir: str) -> list[list[str]]:
    """``spectrum-validate --strict`` on each decide-mix group's ``u0``, ``r0`` and ``r1`` loci.

    ``decide_dir`` holds the decide-mix inputs.
    """
    return [
        ["spectrum-validate", "--group", spec, "--locus",
         os.path.join(decide_dir, f"{short}-{loc}.json"), "--strict", "--format", fmt]
        for short, spec in workloads.DECIDE_GROUPS
        for loc in ("u0", "r0", "r1")
        for fmt in ("text", "structured")
    ]


# No stream sends an inline vector spelled with spaces, +1, -1, none or inf,
# or a malformed one.  The second breaks the chain inequality (2 is more
# than one above 0), and the last four exit 2: no entry, an empty entry, no
# prime and a height past the input bound.
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


# No stream's decision report has an INFINITY height.  Against the whole
# 2-local tower at G every norm K -> G fails, each witness at height "inf"
# (68 of them on D64, exit 1).  On S4 and D64 the tower also sits at the
# first class of subgroups that are not normal, whose witnesses include
# norms K -> H with K normal in H but not in G, the coset sweep of the
# Mackey cuts (S4: 162 witnesses, 36 of that kind, 6 of them with several
# blocks; D64: 1248 and 64, each K of index 2 in H, so one block).
def inf_locus_requests() -> list[list[str]]:
    """``decide --operad complete --strict`` on the tower loci."""
    loci = [(spec, f"@{short}-inf.json") for short, spec in workloads.DECIDE_GROUPS]
    loci += [(spec, f"@{short}-non-normal-inf.json") for short, spec in workloads.DECIDE_GROUPS
             if short in ladder.NON_NORMAL]
    return [
        ["decide", "--group", spec, "--operad", "complete", "--locus", locus, "--strict",
         "--format", fmt]
        for spec, locus in loci
        for fmt in ("text", "structured")
    ]


# No stream decides with witnesses on a non-default element labelling, yet
# the least element of each double coset, which the ``checked`` lists print,
# moves with the labels, and so does the least element of each left coset
# that the lattice marks.  S4 with its labels permuted by the seed
# "relabel:S4", against a random locus by the decide-mix rule: 949
# witnesses, exit 1.
RELABELED_REQUESTS = [
    ["decide", "--group", "table:@S4-relabeled.csv", "--operad", "complete",
     "--locus", "@S4-relabeled-r0.json", "--strict", "--format", fmt]
    for fmt in ("text", "structured")
]


# The streams sweep only C8, C27 and C25 with cross-validate: here the
# trivial group, height bound 0, and C1331, past the order bound, which
# exits 2; C343 is a ladder case.
XVAL_ARGS = (("0", "2", "5"), ("1", "2", "0"), ("3", "11", "0"))


def xval_requests() -> list[list[str]]:
    """``cross-validate``, text and structured, on sweeps no stream sends."""
    return [
        ["cross-validate", "--n", n, "--prime", p, "--height-bound", hb, "--format", fmt]
        for n, p, hb in XVAL_ARGS
        for fmt in ("text", "structured")
    ]


# The largest requests under each documented bound, which no stream sends:
# C343 at the order bound, D12 and S4 above the pair bound, the largest
# documents ``indented_json`` writes, the largest decision reports (D8xD8
# against a random locus, 503,371 witnesses), the largest pair mask (C2^6's
# complete operad, 95,706 bits, also read as a document) and fourteen
# lattices above the default order bound.
def ladder_requests() -> list[list[str]]:
    """Every request of the bounded cases of ``tools/ladder.py``, once each.

    Each writes to stdout here, whatever its case's sink, with its case's
    variables set for it alone.
    """
    requests = dict.fromkeys(
        (*(f"{name}={value}" for name, value in case.env.items()), *line.split())
        for case in ladder.CASES
        for line in case.requests
    )
    return [list(request) for request in requests]


def fixed_list(decide_dir: str) -> list[list[str]]:
    """The fixed requests, ``@NAME`` words naming documents of ``ladder.DOCUMENTS``."""
    return (lattice_requests() + HOSTILE_REQUESTS + locus_requests(decide_dir)
            + ell_requests() + inf_locus_requests() + RELABELED_REQUESTS + xval_requests()
            + ladder_requests())


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


def print_outcomes(*words: str) -> None:
    """Print ``SHA256 EXIT`` for each request, all run in this interpreter.

    Each request is its words followed by an empty word.  Stdout is
    captured as ``perfbench/child.py`` captures it; ``error:`` lines are
    dropped, and a traceback is printed.
    """
    requests = [list(group) for nonempty, group in itertools.groupby(words, bool) if nonempty]
    with contextlib.redirect_stderr(io.StringIO()):
        for buf, code in ladder.run_requests(requests, capture=True):
            print(hashlib.sha256(buf.getvalue().encode()).hexdigest(), code)


def in_process_outcomes(requests: list[list[str]], cwd: str) -> list[tuple[str, int]]:
    """(sha256 of stdout, exit code) of each request, all run in one interpreter of this tree."""
    words = [word for request in requests for word in (*request, "")]
    out = call_with(ROOT, cwd, "same_output.print_outcomes", *words)
    return [(sha, int(code)) for sha, code in map(str.split, out.splitlines())]


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
    fixed = fixed_list(workdirs["decide-mix"])
    call_with(base, scratch, "ladder.write_documents", scratch,
              *ladder.document_names(word for request in fixed for word in request))
    diffs = []
    for label, batch in (("fixed list", fixed), ("raised bound", RAISED_BOUND_REQUESTS)):
        requests = [[ladder.resolve(word, scratch) for word in request] for request in batch]
        diffs += compare_batch(base, label, requests, scratch)
    for workload, workdir in workdirs.items():
        for seed in seeds:
            requests = [[ladder.resolve(word, workdir) for word in req["argv"]]
                        for req in workloads.stream(workload, seed)]
            diffs += compare_batch(base, f"{workload} seed {seed}", requests, workdir)
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
