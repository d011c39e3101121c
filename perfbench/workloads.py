"""Request streams of the benchmark, generated from a seed.

A stream is a list of requests.  Each request is the argv of one
``normcert`` CLI call plus what its output must mean.  Arguments that start
with ``@`` name an input file in the pass's work directory; the files are
written by :func:`write_inputs` during set-up.

Stream generation is pure Python and does not import ``normcert``, so the
same seed always gives the same list.  Input documents depend only on fixed
catalogue seeds, never on the run seed: the run seed picks catalogue
entries, formats and height vectors, and the order of requests outside
decide-mix.  That keeps
every decision the engine makes checkable against verdicts recorded once
(``expected.json``) or against a closed form.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

WHY = {
    "decide-mix": (
        "desk-scale decide over six non-cyclic groups up to order 64; loads groups "
        "(lattice, double cosets), certify and io/cli serialization of witnesses"
    ),
    "enumerate-poset": (
        "transfer-system enumeration and DOT posets on lattices with at most 30 pairs; "
        "closure dominates, certify idle, groups nearly idle"
    ),
    "cyclic-sweep": (
        "cross-validate, ell-enumerate and decide --ell on C_{p^n}; loads chromatic, "
        "tiny certify calls and the process-global caches; groups and transfers idle"
    ),
}

# -- decide-mix -------------------------------------------------------------------

# (short name, group spec).  C4^3 is left out: one request takes 4-5 s.
DECIDE_GROUPS = (
    ("S4", "symmetric:4"),
    ("D32", "dihedral:32"),
    ("C2^4", "cyclic:2*cyclic:2*cyclic:2*cyclic:2"),
    ("C8xC8", "cyclic:8*cyclic:8"),
    ("D16xC2", "dihedral:16*cyclic:2"),
    ("D64", "dihedral:64"),
)
# Uniform loci (pushed forward from the trivial group) always certify.  Every
# entry puts four primes on each class, so the seed's picks cost about the
# same; the first is the ROADMAP seed case and serves every complete-operad
# request.
UNIFORM_TOPS = ({2: 2, 3: 1}, {2: 3}, {3: 3}, {2: 1, 3: 2}, {2: 1, 3: 1, 5: 1}, {3: 2, 5: 1})
N_RANDOM_LOCI = 2
N_GENERATORS = 2
RANDOM_TOPS = (None, 0, 1, 2)
OPERADS = ("complete", "trivial", *(f"g{i}" for i in range(N_GENERATORS)))
LOCI = ("u", *(f"r{i}" for i in range(N_RANDOM_LOCI)))


def _decide_mix(rng: random.Random) -> list[dict]:
    """Every operad against a uniform and each random locus, on every group.

    Requests that fail and write witness documents carry a fixed format
    (r0 text, r1 structured), so the seed moves the cost of a pass little.
    Requests come in a fixed order, so memory, which grows as the engine's
    caches keep every lattice, peaks at the same point for every seed.
    """
    out = []
    for short, spec in DECIDE_GROUPS:
        for op_id, locus in itertools.product(OPERADS, LOCI):
            op_arg = op_id if op_id in ("complete", "trivial") else f"@{short}-{op_id}.json"
            if locus == "u":
                loc_id = "u0" if op_id == "complete" else f"u{rng.randrange(len(UNIFORM_TOPS))}"
            else:
                loc_id = locus
            if locus == "u" or op_id == "trivial":
                fmt = rng.choice(("text", "structured"))
                expect = {"kind": "decide", "key": f"{short}|{op_id}|{loc_id}", "certified": True}
            else:
                fmt = ("text", "structured")[int(locus[1:]) % 2]
                expect = {"kind": "decide", "key": f"{short}|{op_id}|{loc_id}"}
            out.append({
                "argv": ["decide", "--group", spec, "--operad", op_arg,
                         "--locus", f"@{short}-{loc_id}.json", "--strict", "--format", fmt],
                "expect": expect,
            })
    return out


# -- enumerate-poset --------------------------------------------------------------


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# (short name, spec, number of transfer systems).  C_{p^n} has Catalan(n+1)
# systems (Balchin-Barnes-Roitzheim); the other counts were recorded once.
# Nine groups of three requests put the median inside a group's cluster of
# costs rather than on the gap between two clusters.
ENUM_GROUPS = (
    ("D8", "dihedral:8", 294),
    ("C2xC4", "cyclic:2*cyclic:4", 328),
    ("Q8", "quaternion:8", 68),
    ("C8", "cyclic:8", catalan(4)),
    ("C16", "cyclic:16", catalan(5)),
    ("C27", "cyclic:27", catalan(4)),
    ("C32", "cyclic:32", catalan(6)),
    ("C3xC3", "cyclic:3*cyclic:3", 36),
    ("S3", "symmetric:3", 9),
)


def _enumerate_poset(rng: random.Random) -> list[dict]:
    out = []
    for _, spec, count in ENUM_GROUPS:
        expect = {"kind": "systems", "count": count}
        out.append({"argv": ["transfer-enumerate", "--group", spec], "expect": expect})
        out.append({"argv": ["transfer-enumerate", "--group", spec, "--format", "structured"],
                    "expect": expect})
        out.append({"argv": ["dot", "--group", spec, "--what", "transfer-poset"],
                    "expect": expect})
    rng.shuffle(out)
    return out


# -- cyclic-sweep -----------------------------------------------------------------

XVAL_CASES = ((3, 2, 5), (3, 3, 5), (2, 5, 5))  # (n, p, height bound)
ELL_CASES = ((3, 10, True), (3, 10, False), (4, 8, True), (4, 8, False),
             (5, 6, True), (5, 5, False))  # (n, height bound, include infinity)
CYCLIC_GROUPS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2))  # (p, n), all of order <= 64
MAX_HEIGHT = 10
INF = math.inf


def valid_vector_count(n: int, height_bound: int) -> int:
    """Height vectors on C_{p^n} with each entry at most one above the next."""
    ranks = list(range(-1, height_bound + 1)) + [INF]
    return sum(
        all(r[i] <= r[i + 1] + 1 for i in range(n))
        for r in itertools.product(ranks, repeat=n + 1)
    )


def commutative_count(n: int, height_bound: int, include_infinity: bool) -> int:
    """Closed form for ell-enumerate: a bottom entry plus a 0/1 step pattern."""
    total = sum(
        math.comb(n, k)
        for bottom in range(-1, height_bound + 1)
        for k in range(min(n, height_bound - bottom) + 1)
    )
    return total + int(include_infinity)


def cyclic_generators(p: int, n: int, index: int) -> list[tuple[int, int]]:
    """Generator pairs (k, j), k < j, of chain indices for operad document ``index``."""
    rng = random.Random(f"cyclic-gen:{p}:{n}:{index}")
    pairs = [(k, j) for k in range(n + 1) for j in range(k + 1, n + 1)]
    return sorted(rng.sample(pairs, min(2, len(pairs))))


def _norm_ok(r, k: int, j: int) -> bool:
    return all(r[k] >= r[i] for i in range(k + 1, j + 1))


def _random_valid_ranks(rng: random.Random, n: int) -> list:
    """Ranks of a valid height vector (-1 is the sentinel), built top down."""
    r = [rng.choice([-1, *range(MAX_HEIGHT + 1), INF])]
    for _ in range(n):
        above = r[0]
        if above == INF:
            r.insert(0, INF if rng.random() < 0.5 else rng.randint(-1, MAX_HEIGHT))
        else:
            # half the steps stay commutative: above <= entry <= above + 1
            low = above if rng.random() < 0.5 else -1
            r.insert(0, rng.randint(low, min(above + 1, MAX_HEIGHT)))
    return r


def _entry_text(x) -> str:
    return "inf" if x == INF else "none" if x == -1 else str(x)


def _cyclic_sweep(rng: random.Random) -> list[dict]:
    out = []
    for n, p, hb in XVAL_CASES:
        v = valid_vector_count(n, hb)
        expect = {"kind": "xval", "vectors": v,
                  "norms": v * (n + 1) * (n + 2) // 2, "operads": v}
        for _ in range(2):  # the second call in a pass runs with warm caches
            out.append({"argv": ["cross-validate", "--n", str(n), "--prime", str(p),
                                 "--height-bound", str(hb), "--strict",
                                 "--format", rng.choice(("text", "structured"))],
                        "expect": expect})
    for n, hb, inf in ELL_CASES:
        argv = ["ell-enumerate", "--n", str(n), "--height-bound", str(hb),
                "--prime", str(rng.choice((2, 3, 5))),
                "--format", rng.choice(("text", "structured"))]
        if inf:
            argv.append("--include-infinity")
        out.append({"argv": argv,
                    "expect": {"kind": "ell", "count": commutative_count(n, hb, inf)}})
    for (p, n), operad in itertools.product(CYCLIC_GROUPS, OPERADS):
        r = _random_valid_ranks(rng, n)
        if operad == "complete":
            ok = all(r[i + 1] <= r[i] <= r[i + 1] + 1 for i in range(n))
        elif operad == "trivial":
            ok = True
        else:
            ok = all(_norm_ok(r, k, j) for k, j in cyclic_generators(p, n, int(operad[1])))
        op_arg = operad if operad in ("complete", "trivial") else f"@C{p}_{n}-{operad}.json"
        ell = f"{p},({','.join(_entry_text(x) for x in r)})"
        out.append({"argv": ["decide", "--ell", ell, "--operad", op_arg, "--strict",
                             "--format", rng.choice(("text", "structured"))],
                    "expect": {"kind": "decide", "certified": ok}})
    rng.shuffle(out)
    return out


# -- public entry points ----------------------------------------------------------

_STREAMS = {
    "decide-mix": _decide_mix,
    "enumerate-poset": _enumerate_poset,
    "cyclic-sweep": _cyclic_sweep,
}
WORKLOADS = tuple(_STREAMS)


def stream(workload: str, seed: int) -> list[dict]:
    """The request list of one pass, in the order it is sent."""
    requests = _STREAMS[workload](random.Random(f"{workload}:{seed}"))
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


def write_inputs(workload: str, workdir: str) -> None:
    """Write the locus and operad documents a workload's requests refer to."""
    os.makedirs(workdir, exist_ok=True)
    for name, doc in input_documents(workload).items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh)


def input_documents(workload: str) -> dict[str, dict]:
    """File name to document, built with the engine from fixed catalogue seeds."""
    import normcert as nc
    from normcert import io as nio

    docs = {}
    if workload == "decide-mix":
        for short, spec in DECIDE_GROUPS:
            L = nc.subgroup_lattice(nc.build_group(spec))
            for i, tops in enumerate(UNIFORM_TOPS):
                docs[f"{short}-u{i}.json"] = nio.locus_doc(nc.uniform_locus(L, tops))
            for i in range(N_RANDOM_LOCI):
                rng = random.Random(f"locus:{short}:{i}")
                primes = []
                for c in range(len(L.classes)):
                    for p in (2, 3):
                        top = rng.choice(RANDOM_TOPS)
                        if top is not None:
                            primes.extend(nc.balmer_prime(c, m, p) for m in range(top + 1))
                docs[f"{short}-r{i}.json"] = nio.locus_doc(nc.vanishing_locus(L, primes))
            for i in range(N_GENERATORS):
                docs[f"{short}-g{i}.json"] = _generator_doc(L, short, i)
    elif workload == "cyclic-sweep":
        for p, n in CYCLIC_GROUPS:
            # built directly, so the engine's cached C_{p^n} lattices stay cold
            L = nc.subgroup_lattice(nc.cyclic(p**n))
            chain = [L.names[i] for i in range(n + 1)]
            for i in range(N_GENERATORS):
                docs[f"C{p}_{n}-g{i}.json"] = _pairs_doc(
                    L, [(chain[k], chain[j]) for k, j in cyclic_generators(p, n, i)])
    return docs


def _pairs_doc(L, pairs) -> dict:
    return {"schema_version": 1, "kind": "transfer-system", "group": L.group.name,
            "pairs": [list(pair) for pair in pairs]}


def _generator_doc(L, short: str, index: int) -> dict:
    """Two seeded generator pairs whose closure is neither trivial nor complete.

    Each candidate is closed once here, on the full lattice, so the request
    that parses the document repeats a closure whose size is known to matter.
    """
    import normcert as nc
    from normcert.transfers import candidate_pairs

    rng = random.Random(f"generators:{short}:{index}")
    cand = candidate_pairs(L)
    while True:
        gens = rng.sample(cand, 2)
        size = len(nc.close_transfer_system(L, gens).pairs)
        if len(L) < size < len(L) + len(cand):
            return _pairs_doc(L, [(L.names[k], L.names[h]) for k, h in gens])
