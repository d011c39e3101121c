"""The ladder of bounded cases: the largest requests under each documented bound.

    python3 tools/ladder.py

Each case of ``CASES`` runs its requests through ``cli.main`` in one fresh
interpreter of this tree, under a time limit.  Its stdout goes to the case's
sink: an ``io.StringIO``, an ``--out`` file, or real stdout on ``/dev/null``
or ``/dev/full``.  The runner runs every case, prints one line per case and
exits 1, naming each case that failed, if any ran past its limit, exited
otherwise than expected, peaked above its RSS ceiling (``ru_maxrss`` from
``os.wait4``, which on Linux also covers the small runner that spawned it),
failed its output check, printed a traceback, or exited 2 with no
``error:`` line.  It takes no options.

A word ``@NAME``, or one that ends in it such as ``table:@NAME``, has it
replaced by the path of the document ``DOCUMENTS[NAME]``, written before the
first case that reads it in an interpreter of its own, or, for a case that
builds its inputs, in that case's interpreter.  ``write_document`` writes
uniform and random loci, the complete operad, literal bytes, the whole
2-local tower at G or at the first subgroup that is not normal, and a
``table:`` CSV whose element labels a seed permutes.  ``run_requests`` runs a
list of requests through ``cli.main`` in the current interpreter.
``tools/same_output.py`` writes, names and runs its fixed requests with
these, and the tests use the decide-mix random-locus rule; ``normcert`` is
imported only where needed, so ``PYTHONPATH`` picks the tree that writes a
document.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402  (the decide-mix groups; it does not import normcert)

C2_6 = "cyclic:2*cyclic:2*cyclic:2*cyclic:2*cyclic:2*cyclic:2"
C4_3 = "cyclic:4*cyclic:4*cyclic:4"
D8XD8 = "dihedral:8*dihedral:8"


def tree_env(tree: str, *paths: str) -> dict[str, str]:
    """A clean environment that imports ``normcert`` from ``tree``, then modules from ``paths``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NORMCERT_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(tree, "src"), *paths])
    env["PYTHONHASHSEED"] = "0"
    return env


def random_locus(L, seed: str):
    """A random locus on ``L`` by the rule of the decide-mix benchmark workload.

    Per class, and per prime 2 and 3, a top drawn from None, 0, 1, 2 with
    ``random.Random(seed)``; the primes up to the top are in the locus.  A
    test holds the workload's own copy in ``perfbench/workloads.py`` to it.
    """
    import normcert as nc

    rng = random.Random(seed)
    primes = []
    for c in range(len(L.classes)):
        for p in (2, 3):
            top = rng.choice((None, 0, 1, 2))
            if top is not None:
                primes.extend(nc.balmer_prime(c, m, p) for m in range(top + 1))
    return nc.vanishing_locus(L, primes)


TOWER, RELABEL = "tower", "relabel"


def write_document(path: str, spec: str | None, rule) -> None:
    """Write to ``path`` the document on ``spec`` that ``rule`` names.

    A dict of tops names the uniform locus, a string the random locus it
    seeds, and None the complete operad, every nested pair listed.
    (TOWER, "top") names the locus whose one entry is the whole 2-local
    tower, heights 0 to INFINITY, at G; (TOWER, "non-normal") puts it at the
    first subgroup that is not normal instead.  (RELABEL, seed) names a
    ``table:`` CSV of the group, its element labels permuted by
    ``random.Random(seed)``.  With no spec, ``rule`` is (piece, count), and
    the file is ``piece`` repeated ``count`` times.
    """
    if spec is None:
        piece, count = rule
        with open(path, "wb") as fh:
            fh.write(piece * count)
        return
    import normcert as nc
    from normcert import io as nio

    if isinstance(rule, tuple) and rule[0] == RELABEL:
        G = nc.build_group(spec)
        perm = list(range(G.order))
        random.Random(rule[1]).shuffle(perm)
        rows = [[0] * G.order for _ in range(G.order)]
        for a in range(G.order):
            for b in range(G.order):
                rows[perm[a]][perm[b]] = perm[G.mul(a, b)]
        with open(path, "w") as fh:
            fh.write("".join(",".join(map(str, row)) + "\n" for row in rows))
        return
    L = nc.subgroup_lattice(nc.build_group(spec))
    if rule is None:
        doc = nio.system_doc(nc.complete_system(L))
    elif isinstance(rule, tuple):
        sid = L.top.lattice_id
        if rule[1] == "non-normal":
            sid = next(s for s in range(len(L)) if not L.is_normal(s))
        doc = {"entries": [{"subgroup": L.names[sid], "prime": 2, "heights": "all"}]}
    else:
        doc = nio.locus_doc(nc.uniform_locus(L, rule) if isinstance(rule, dict)
                            else random_locus(L, rule))
    with open(path, "w") as fh:
        json.dump(doc, fh)


# the decide-mix groups, by short name, that also get the tower at their
# first non-normal class in the same-output fixed list
NON_NORMAL = ("S4", "D64")

# file name -> (group spec, rule of write_document); a spec may name an
# earlier document with @NAME
DOCUMENTS = {
    "C2^6-uniform.json": (C2_6, {2: 3}),  # always certifies
    "C2^6-complete.json": (C2_6, None),  # 95,706 pairs, 2.1 MB
    "D8xD8-r0.json": (D8XD8, "locus:D8xD8:0"),  # 503,371 witnesses
    "C4^3-r0.json": (C4_3, "locus:C4^3:0"),  # 26,504 witnesses
    "zeros.json": (None, (b"\0", 65 << 20)),  # 1 MiB past cli.MAX_INPUT_BYTES
    "one-line.csv": (None, (b"0,", 3_000_000)),  # 6 MB, 3,000,000 cells on one line
    # the documents of the fixed list of tools/same_output.py: S3 as a
    # multiplication table (permutations of 0, 1, 2 in lexicographic order)
    # under a name that needs JSON escapes, and a locus on it
    '\\S3 "hostile", [x] {y} é.csv': (None, (
        b"0,1,2,3,4,5\n1,0,3,2,5,4\n2,4,0,5,1,3\n3,5,1,4,0,2\n4,2,5,0,3,1\n5,3,4,1,2,0\n", 1)),
    "hostile-locus.json": (None, (
        b'{"entries": [{"subgroup": "C2#0", "prime": "any", "heights": [0]}]}\n', 1)),
    **{f"{short}-inf.json": (spec, (TOWER, "top")) for short, spec in workloads.DECIDE_GROUPS},
    **{f"{short}-non-normal-inf.json": (spec, (TOWER, "non-normal"))
       for short, spec in workloads.DECIDE_GROUPS if short in NON_NORMAL},
    "S4-relabeled.csv": ("symmetric:4", (RELABEL, "relabel:S4")),
    "S4-relabeled-r0.json": ("table:@S4-relabeled.csv", "locus:S4-relabeled:0"),
}


def write_documents(workdir: str, *names: str) -> None:
    """Write each document of ``DOCUMENTS`` named into ``workdir``, in the order named."""
    for name in names:
        spec, rule = DOCUMENTS[name]
        write_document(os.path.join(workdir, name), spec and resolve(spec, workdir), rule)


# output checks on a request's captured stdout: each returns what is wrong, or None
CHECKS = {
    "first_line": lambda text, line: (
        None if text.startswith(line + "\n") else f"the first line is not {line!r}"),
    "contains": lambda text, part: None if part in text else f"the output has no {part!r}",
    "subgroups": lambda text, n: None if len(json.loads(text)["subgroups"]) == n else (
        f"the document does not list {n} subgroups"),
}
CAPTURED, OUT = "captured", "--out"


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    requests: tuple[str, ...]  # command lines, split on spaces, run in order in one interpreter
    sink: str  # CAPTURED, OUT, or the device the interpreter's stdout is opened on
    exit: int  # what every request returns
    seconds: float  # time limit of the interpreter
    ceiling_mb: float  # ceiling on its peak RSS
    measured_mb: float  # the peak this runner read when the ceiling was last checked
    env: dict = dataclasses.field(default_factory=dict)  # set in the interpreter's environment
    check: tuple = ()  # (key of CHECKS, argument), on each request's captured stdout
    build_inputs: bool = False  # write the @ documents in the interpreter itself


def _decide(spec: str, locus: str, fmt: str) -> str:
    return f"decide --group {spec} --operad complete --locus @{locus} --strict --format {fmt}"


# primes P, 900 < P < 1000: fourteen lattices of C_P, each read under a raised
# order bound, built on each call and never kept
LARGE_PRIMES = [P for P in range(901, 1000) if all(P % d for d in range(2, 32))]
D12_PAIRS = {"NORMCERT_MAX_PAIRS": "48"}

# measured_mb: 2-vCPU sandbox, Python 3.11.7
CASES = (
    # the complete operad on C2^6, the largest lattice under the order bound
    # (2825 subgroups, 92,881 strict pairs, a pair mask of 95,706 bits),
    # against the uniform locus {2: 3}, which certifies
    *(Case(f"C2^6 decide {fmt} to --out", (_decide(C2_6, "C2^6-uniform.json", fmt),),
           OUT, 0, 60, 80, mb) for fmt, mb in (("text", 42.7), ("structured", 43.0))),
    # the same operad as a document, whose 95,706 pairs are closed as generators
    Case("C2^6 decide text, complete operad as a document",
         (f"decide --group {C2_6} --operad @C2^6-complete.json --locus @C2^6-uniform.json"
          " --strict",),
         CAPTURED, 0, 60, 100, 68.3, check=("contains", "verdict: CertifiedPreserves")),
    # the complete operad on D8xD8 against a random locus: 503,371 witnesses,
    # a 47 MB text report and a 179 MB structured one, each written from the
    # criterion's runs; the captured case builds the locus in its interpreter
    Case("D8xD8 decide text captured", (_decide(D8XD8, "D8xD8-r0.json", "text"),),
         CAPTURED, 1, 30, 200, 73.4, build_inputs=True),
    *(Case(f"D8xD8 decide {fmt} to --out", (_decide(D8XD8, "D8xD8-r0.json", fmt),),
           OUT, 1, 30, 100, mb) for fmt, mb in (("text", 33.8), ("structured", 36.9))),
    Case("C4^3 decide text captured", (_decide(C4_3, "C4^3-r0.json", "text"),),
         CAPTURED, 1, 30, 50, 26.0),
    # C343 at the height bound, the largest sweep cross-validate accepts;
    # --strict exits 1 on any disagreement
    *(Case(f"C343 cross-validate {fmt}",
           (f"cross-validate --n 3 --prime 7 --height-bound 5 --strict --format {fmt}",),
           "/dev/null", 0, 30, 40, mb) for fmt, mb in (("text", 22.8), ("structured", 22.7))),
    # S4: 120 strict pairs, far above the default pair bound, 8691 systems
    Case("S4 enumeration at 120 pairs", ("transfer-enumerate --group symmetric:4",),
         CAPTURED, 0, 30, 70, 47.1, env={"NORMCERT_MAX_PAIRS": "120"},
         check=("first_line", "transfer systems on S4: 8691")),
    # D12: 48 strict pairs, 3133 systems; the structured listing is 20 MB
    Case("D12 enumeration text", ("transfer-enumerate --group dihedral:12",),
         CAPTURED, 0, 30, 50, 26.5, env=D12_PAIRS,
         check=("first_line", "transfer systems on D12: 3133")),
    Case("D12 enumeration structured",
         ("transfer-enumerate --group dihedral:12 --format structured",),
         CAPTURED, 0, 30, 110, 61.1, env=D12_PAIRS, check=("contains", '"count": 3133')),
    Case("D12 transfer poset", ("dot --group dihedral:12 --what transfer-poset",),
         "/dev/null", 0, 30, 50, 29.5, env=D12_PAIRS),
    # the largest documents indented_json writes: the lattice of C2^6 (1.8 MB
    # structured) and the commutative height vectors of C64 up to height 10
    Case("C2^6 lattice text", (f"lattice --group {C2_6}",),
         CAPTURED, 0, 30, 80, 41.6, check=("contains", "\nsubgroups: 2825\n")),
    Case("C2^6 lattice structured", (f"lattice --group {C2_6} --format structured",),
         CAPTURED, 0, 30, 80, 51.9, check=("subgroups", 2825)),
    # a failed write to stdout exits 2 with an error line and no traceback
    Case("C2^6 lattice structured to /dev/full", (f"lattice --group {C2_6} --format structured",),
         "/dev/full", 2, 30, 80, 51.8),
    Case("ell-enumerate n=6 hb=10",
         ("ell-enumerate --n 6 --height-bound 10 --include-infinity --format structured",),
         CAPTURED, 0, 30, 40, 22.2, check=("contains", '"count": 577')),
    # a long-running process stays small: each lattice read under a raised
    # bound is dropped after its request (over 400 MB if all were kept)
    Case("14 lattices under a raised order bound",
         tuple(f"lattice --group cyclic:{P}" for P in LARGE_PRIMES),
         CAPTURED, 0, 60, 150, 59.1, env={"NORMCERT_MAX_GROUP_ORDER": "1000"}),
    # inputs past their budgets exit 2 having read little more than the budget:
    # a locus document 1 MiB past the input bytes, and a table line past
    # 32 characters per cell of the order bound
    Case("65 MiB locus document past the input budget",
         ("decide --group cyclic:8 --operad complete --locus @zeros.json",),
         CAPTURED, 2, 30, 100, 88.3),
    Case("6 MB one-line table CSV past the line cap", ("lattice --group table:@one-line.csv",),
         CAPTURED, 2, 30, 30, 21.2),
)


def resolve(word: str, workdir: str) -> str:
    """``word`` with an ``@NAME`` in it replaced by the path of NAME in ``workdir``."""
    head, at, name = word.partition("@")
    return head + os.path.join(workdir, name) if at else word


def request_argv(line: str, workdir: str) -> list[str]:
    """The words of a request line, each resolved in ``workdir``."""
    return [resolve(word, workdir) for word in line.split()]


def document_names(words) -> list[str]:
    """The names that ``@NAME`` words give, each once, in order."""
    return list(dict.fromkeys(w.partition("@")[2] for w in words if "@" in w))


def _documents(case: Case) -> list[str]:
    return document_names(w for line in case.requests for w in line.split())


def split_env(request: list[str]) -> tuple[dict[str, str], list[str]]:
    """A request's leading ``NAME=VALUE`` words, as a dict, and the argv after them."""
    n = 0
    while n < len(request) and "=" in request[n]:
        n += 1
    return dict(word.split("=", 1) for word in request[:n]), request[n:]


def run_requests(requests, capture: bool):
    """Run each request through ``cli.main`` in this interpreter; yield (stdout, exit code).

    A request is a list of words: ``NAME=VALUE`` words, set in the
    environment for that request alone, then the argv.  With ``capture``
    its stdout goes to the ``io.StringIO`` yielded, else where ``sys.stdout``
    goes, and the one yielded stays empty.  ``SystemExit`` gives the exit
    code; any other exception, as under ``python -m normcert.cli``, prints
    its traceback to the interpreter's own stderr (even where ``sys.stderr``
    is redirected) and gives exit 1.
    """
    import contextlib
    import io
    import traceback

    from normcert import cli

    for request in requests:
        extra, argv = split_env(request)
        saved = {name: os.environ.get(name) for name in extra}
        os.environ.update(extra)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf) if capture else contextlib.nullcontext():
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=sys.__stderr__)
            code = 1
        finally:
            for name, value in saved.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value
        yield buf, code


def _child(workdir: str, fields: dict) -> int:
    """Run one case's requests in this interpreter and return the last exit code."""
    case = Case(**fields)
    if case.build_inputs:
        write_documents(workdir, *_documents(case))
    out = ["--out", os.path.join(workdir, "out")] if case.sink == OUT else []
    argvs = [request_argv(line, workdir) + out for line in case.requests]
    for buf, code in run_requests(argvs, case.sink == CAPTURED):
        if code != case.exit:
            return code
        problem = case.check and CHECKS[case.check[0]](buf.getvalue(), case.check[1])
        if problem:
            print(f"{CHECK_FAILED}{problem}", file=sys.stderr)
    return code


CHECK_FAILED = "output check failed: "
CHILD = "import json, sys, ladder; "


def run_case(case: Case, workdir: str) -> list[str]:
    """Run ``case`` in a fresh interpreter, print its line, and return why it failed."""
    missing = [n for n in _documents(case) if not os.path.exists(os.path.join(workdir, n))]
    if missing and not case.build_inputs:
        subprocess.run([sys.executable, "-c", CHILD + "ladder.write_documents(*sys.argv[1:])",
                        workdir, *missing], env=tree_env(ROOT, TOOLS), check=True)
    run = CHILD + "sys.exit(ladder._child(sys.argv[1], json.loads(sys.argv[2])))"
    stdout = os.devnull if case.sink in (CAPTURED, OUT) else case.sink
    with open(stdout, "w") as so, tempfile.TemporaryFile("w+", errors="replace") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", run, workdir, json.dumps(dataclasses.asdict(case))],
            stdout=so, stderr=se, env={**tree_env(ROOT, TOOLS), **case.env})
        timer = threading.Timer(case.seconds, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        se.seek(0)
        stderr = se.read()
    peak = usage.ru_maxrss / 1024
    print(f"{case.name}: {wall:.2f} s (limit {case.seconds:g} s), exit {code}, "
          f"peak RSS {peak:.1f} MB (ceiling {case.ceiling_mb:g} MB)", flush=True)
    errors = stderr.splitlines()
    failures = [line[len(CHECK_FAILED):] for line in errors if line.startswith(CHECK_FAILED)]
    if wall > case.seconds:
        failures.append(f"ran past its {case.seconds:g} s limit")
    if code != case.exit:
        failures.append(f"exit {code}, not {case.exit}")
    if peak > case.ceiling_mb:
        failures.append(f"peak RSS {peak:.1f} MB is above {case.ceiling_mb:g} MB")
    if "Traceback" in stderr:
        failures.append("a traceback on stderr")
    if case.exit == 2 and not any(line.startswith("error: ") for line in errors):
        failures.append("no error: line on stderr")
    for failure in failures:
        print(f"  FAILED: {failure}", flush=True)
    if failures and stderr:
        print("  stderr, last lines:", *errors[-10:], sep="\n    ", flush=True)
    return failures


def run(cases) -> int:
    """Run every case; 0 when all stay within their bounds, 1 naming those that did not."""
    with tempfile.TemporaryDirectory(prefix="ladder-") as workdir:
        failed = [case.name for case in cases if run_case(case, workdir)]
    if failed:
        print(f"{len(failed)} of {len(cases)} cases failed: {'; '.join(failed)}")
        return 1
    print(f"all {len(cases)} cases within their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(run(CASES))
