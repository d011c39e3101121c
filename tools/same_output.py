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
group of the three workloads runs as well.  The fixed list also runs
structured ``lattice``, ``transfer-enumerate`` and ``decide --operad
complete`` on a ``table:`` CSV of S3, written into the scratch directory,
whose file name holds ``"``, ``\\``, ``,``, ``[``, ``{`` and ``é``, so the
JSON escaping of the group name is compared too.  No stream validates a
locus either, so the fixed list goes on with ``spectrum-validate --strict``,
text and structured, on each decide-mix group's ``u0``, ``r0`` and ``r1``
locus documents and on two inline ``--ell`` vectors, one of which breaks
the chain inequality.  No stream's decision report has an INFINITY height
either, so the fixed list ends with ``decide --operad complete --strict``,
text and structured, on each decide-mix group against a locus document,
written into the scratch directory, whose one entry puts the whole 2-local
tower (``"heights": "all"``) at G itself: every norm K -> G fails there,
each witness at height ``"inf"`` (68 of them on D64, exit 1).  The streams
sweep only C8, C27 and C25 with ``cross-validate``, so the fixed list also
runs it, text and structured, on C343 at the order bound (``--n 3 --prime 7
--height-bound 5``), on the trivial group (``--n 0``), at height bound 0
(``--n 1 --prime 2``) and on C1331 (``--n 3 --prime 11``), which exits 2.

Exits 0 when every request agrees and 1 at the first request that differs,
naming it.
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

import workloads  # noqa: E402


def tree_env(tree: str, *extra: str) -> dict[str, str]:
    """A clean environment that imports ``normcert`` from ``tree``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NORMCERT_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(tree, "src"), *extra])
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(tree: str, workload: str, workdir: str) -> None:
    code = "import sys, workloads; workloads.write_inputs(*sys.argv[1:])"
    subprocess.run([sys.executable, "-c", code, workload, workdir],
                   env=tree_env(tree, PERFBENCH), cwd=workdir, check=True)


def outcomes(trees: list[str], argv: list[str], cwd: str) -> list[tuple[str, int]]:
    """(sha256 of stdout, exit code) of one request in each tree, run side by side."""
    procs = [
        subprocess.Popen([sys.executable, "-m", "normcert.cli", *argv], env=tree_env(tree),
                         cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        for tree in trees
    ]
    out = []
    for proc in procs:
        stdout, _ = proc.communicate()
        out.append((hashlib.sha256(stdout).hexdigest(), proc.returncode))
    return out


def lattice_requests() -> list[list[str]]:
    """Every way to print the subgroup lattice of every workload group."""
    specs = dict.fromkeys(
        [spec for _, spec in workloads.DECIDE_GROUPS]
        + [spec for _, spec, _ in workloads.ENUM_GROUPS]
        + [f"cyclic:{p**n}" for p, n in workloads.CYCLIC_GROUPS]
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


# the second vector breaks the chain inequality: 2 is more than one above 0
ELL_VECTORS = ("2,(1,0,none,inf)", "3,(2,0)")


def locus_requests(decide_dir: str) -> list[list[str]]:
    """``spectrum-validate`` on decide-mix locus documents and inline vectors.

    ``decide_dir`` holds the decide-mix inputs.
    """
    loci = [
        ["--group", spec, "--locus", os.path.join(decide_dir, f"{short}-{loc}.json")]
        for short, spec in workloads.DECIDE_GROUPS
        for loc in ("u0", "r0", "r1")
    ] + [["--ell", ell] for ell in ELL_VECTORS]
    return [
        ["spectrum-validate", *locus, "--strict", "--format", fmt]
        for locus in loci
        for fmt in ("text", "structured")
    ]


# the whole 2-local tower at G, heights 0 to INFINITY; every norm K -> G
# fails at it, and each witness names the prime of height "inf"
INF_LOCUS = """import json, sys, normcert as nc
for spec, path in zip(sys.argv[1::2], sys.argv[2::2]):
    top = f"C{nc.build_group(spec).order}#0"
    with open(path, "w") as fh:
        json.dump({"entries": [{"subgroup": top, "prime": 2, "heights": "all"}]}, fh)
"""


def inf_locus_requests(tree: str, scratch: str) -> list[list[str]]:
    """``decide --operad complete --strict`` on each decide-mix group's INFINITY locus.

    Writes the locus documents into ``scratch`` with ``tree``.
    """
    paths = {spec: os.path.join(scratch, f"{short}-inf.json")
             for short, spec in workloads.DECIDE_GROUPS}
    subprocess.run([sys.executable, "-c", INF_LOCUS,
                    *(a for spec, path in paths.items() for a in (spec, path))],
                   env=tree_env(tree), cwd=scratch, check=True)
    return [
        ["decide", "--group", spec, "--operad", "complete", "--locus", path, "--strict",
         "--format", fmt]
        for spec, path in paths.items()
        for fmt in ("text", "structured")
    ]


# C343 at the order bound, the trivial group, height bound 0, and C1331 past the bound
XVAL_ARGS = (("3", "7", "5"), ("0", "2", "5"), ("1", "2", "0"), ("3", "11", "0"))


def xval_requests() -> list[list[str]]:
    """``cross-validate``, text and structured, on sweeps no stream sends."""
    return [
        ["cross-validate", "--n", n, "--prime", p, "--height-bound", hb, "--format", fmt]
        for n, p, hb in XVAL_ARGS
        for fmt in ("text", "structured")
    ]


# every request of a batch through ``cli.main`` in one interpreter, stdout
# captured as ``perfbench/child.py`` captures it; argv lists come on stdin
IN_PROCESS = """import contextlib, hashlib, io, json, sys, traceback
from normcert import cli
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback ends python -m normcert.cli with exit 1
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
    out.append((hashlib.sha256(buf.getvalue().encode()).hexdigest(), rc))
json.dump(out, sys.stdout)
"""


def in_process_outcomes(argvs: list[list[str]], cwd: str) -> list[tuple[str, int]]:
    """(sha256 of stdout, exit code) of each request, all run in one interpreter of this tree."""
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], input=json.dumps(argvs),
                          env=tree_env(ROOT), cwd=cwd, stdout=subprocess.PIPE, text=True,
                          check=True)
    return [tuple(o) for o in json.loads(proc.stdout)]


def mismatch(what: str, argv: list[str], base_out: tuple, head_out: tuple) -> str:
    (base_sha, base_rc), (head_sha, head_rc) = base_out, head_out
    return (f"{what} ({' '.join(argv)}): base exit {base_rc} sha256 {base_sha[:12]}, "
            f"this tree exit {head_rc} sha256 {head_sha[:12]}")


def compare_batch(base: str, label: str, argvs: list[list[str]], cwd: str) -> str | None:
    """How the first request of a batch differs from the base tree's, or None.

    Each request runs in its own process in both trees, then the whole batch
    runs once more in one process of this tree, against the base outcomes.
    """
    base_outs = []
    for i, argv in enumerate(argvs):
        base_out, head_out = outcomes([base, ROOT], argv, cwd)
        if base_out != head_out:
            return mismatch(f"{label} request {i}", argv, base_out, head_out)
        base_outs.append(base_out)
    in_one = in_process_outcomes(argvs, cwd)
    for i, (argv, base_out, head_out) in enumerate(zip(argvs, base_outs, in_one)):
        if base_out != head_out:
            return mismatch(f"{label} request {i} in one process", argv, base_out, head_out)
    print(f"{label}: {len(argvs)} requests identical, one process each and all in one",
          flush=True)
    return None


def compare(base: str, seeds: list[int], scratch: str) -> str | None:
    """The first request whose output differs between the trees, or None."""
    workdirs = {}
    for workload in workloads.WORKLOADS:
        workdir = workdirs[workload] = os.path.join(scratch, workload)
        os.makedirs(workdir)
        write_inputs(base, workload, workdir)
    requests = (lattice_requests() + hostile_requests(scratch)
                + locus_requests(workdirs["decide-mix"]) + inf_locus_requests(base, scratch)
                + xval_requests())
    diff = compare_batch(base, "fixed list", requests, scratch)
    if diff is not None:
        return diff
    for workload, workdir in workdirs.items():
        for seed in seeds:
            argvs = [[os.path.join(workdir, a[1:]) if a.startswith("@") else a
                      for a in req["argv"]] for req in workloads.stream(workload, seed)]
            diff = compare_batch(base, f"{workload} seed {seed}", argvs, workdir)
            if diff is not None:
                return diff
    return None


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
            diff = compare(base, args.seeds, scratch)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base],
                           check=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if diff is not None:
        print(f"differs: {diff}")
        return 1
    print("same output on every request")
    return 0


if __name__ == "__main__":
    sys.exit(main())
