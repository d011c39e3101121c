"""Structured (JSON) documents for inputs and reports.

One dialect for everything: plain JSON with a ``schema_version`` field.
Serialization is canonical, so identical inputs always produce identical
bytes, and every emitted document parses back to an equal in-memory value.
The CLI writes a document with :func:`indented_json`, which is
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``: keys sorted, each
item on its own line indented two spaces per level, ASCII only, and a
final newline.  Decision reports, the largest documents, are written by
:func:`decision_json` to the same bytes straight from the witness stream of
:func:`~normcert.certify.localization_witnesses`, with no witness dict and
no witness kept once written, and transfer enumerations, the next largest, by
:func:`enumeration_json` with no system dict, each containment row the index
strings :func:`~normcert.groups._bits` picks by its bits.  Their dict forms,
:func:`decision_doc` and :func:`enumeration_doc`, are those writers' output
parsed back, so each report is defined once.  Digests hash the compact form
of :func:`canonical_json`.

Height spelling: integers, ``"inf"`` for the formal top, ``"none"`` for the
empty sentinel in height vectors.  Primes: integers or ``"any"`` for the
shared height-0 marker.  Every finite height read from input is at most
``MAX_ENUM_HEIGHT``, checked before a range is expanded.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from .certify import MAX_ENUM_HEIGHT, CrossValidationReport, Decision, NormFailure, Verdict
from .chromatic import (
    ANY_PRIME,
    INFINITY,
    HeightVector,
    VanishingLocus,
    _is_prime,
    balmer_prime,
    vanishing_locus,
)
from .groups import FiniteGroup, SubgroupLattice, _bits
from .transfers import (
    TransferEnumeration,
    TransferSystem,
    close_transfer_system,
    complete_system,
    trivial_system,
)

SCHEMA_VERSION = 1


class ParseError(Exception):
    """A structured document or inline spec is malformed."""


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


_encode_str = json.encoder.encode_basestring_ascii


def indented_json(doc) -> str:
    """The CLI's form of ``doc``: sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _height_doc(h):
    return "inf" if h == INFINITY else h


def _bounded(h: int) -> int:
    if h > MAX_ENUM_HEIGHT:
        raise ParseError(f"height {h} exceeds the input bound {MAX_ENUM_HEIGHT}")
    return h


def _height_from(x):
    if x == "inf":
        return INFINITY
    if isinstance(x, int) and not isinstance(x, bool) and x >= 0:
        return _bounded(x)
    raise ParseError(f"bad height {x!r}")


def _entry_doc(e):
    return "none" if e is None else _height_doc(e)


def _entry_from(x):
    """A height-vector entry: ``"none"``, null or the int -1 is the sentinel."""
    if x is None or x == "none" or (type(x) is int and x == -1):
        return None
    return _height_from(x)


def _prime_from(x):
    if x == ANY_PRIME:
        return ANY_PRIME
    if isinstance(x, int) and not isinstance(x, bool) and _is_prime(x):
        return x
    raise ParseError(f"bad prime {x!r}")


# -- groups and lattices -------------------------------------------------------


def group_doc(G: FiniteGroup) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "group",
        "name": G.name,
        "order": G.order,
        "identity": G.identity,
        "table": [list(row) for row in G.table],
    }


def lattice_doc(L: SubgroupLattice) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "subgroup-lattice",
        "group": {"name": L.group.name, "order": L.group.order},
        "subgroups": [
            {
                "name": L.names[s.lattice_id],
                "order": s.order,
                "members": list(s.members),
                "class": L.class_of[s.lattice_id],
                "normal": L.is_normal(s.lattice_id),
            }
            for s in L.subgroups
        ],
        "classes": [[L.names[i] for i in cls] for cls in L.classes],
        "covers": [[L.names[k], L.names[h]] for k, h in L.covers()],
    }


def _subgroup_id(L: SubgroupLattice, name) -> int:
    if not isinstance(name, str):
        raise ParseError(f"subgroup reference must be a canonical name, got {name!r}")
    try:
        return L.by_name(name).lattice_id
    except KeyError:
        raise ParseError(f"unknown subgroup {name!r} on {L.group.name}") from None


# -- transfer systems -----------------------------------------------------------


def system_doc(R: TransferSystem) -> dict:
    L = R.lattice
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "transfer-system",
        "group": L.group.name,
        "pairs": [[L.names[k], L.names[h]] for k, h in R.sorted_pairs()],
    }


def parse_system(L: SubgroupLattice, spec) -> TransferSystem:
    """Build a transfer system from a keyword or a pair-list document.

    Listed pairs are taken as generators and closed, so any pair list is
    accepted and the result is always a valid system; documents emitted by
    :func:`system_doc` parse back to the system they came from.
    """
    if spec == "complete":
        return complete_system(L)
    if spec == "trivial":
        return trivial_system(L)
    if not isinstance(spec, dict):
        raise ParseError(f"operad spec must be a keyword or document, got {spec!r}")
    pairs = spec.get("pairs")
    if not isinstance(pairs, list):
        raise ParseError("transfer-system document needs a 'pairs' list")
    seed = []
    for item in pairs:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"each pair must be [K, H], got {item!r}")
        kid, hid = _subgroup_id(L, item[0]), _subgroup_id(L, item[1])
        if not L.leq(kid, hid):
            raise ParseError(f"pair {item!r} is not nested")
        seed.append((kid, hid))
    return close_transfer_system(L, seed)


def enumeration_json(L: SubgroupLattice, enum: TransferEnumeration) -> str:
    """The structured transfer enumeration, written without the document's dicts and lists.

    The bytes are those of :func:`indented_json` on the document: the
    ``count`` of systems, each system's ``index`` and sorted ``pairs``, and
    per system the ``containment`` row of the indices of the systems that
    contain it.  Names are escaped, and each nested pair's ``[K, H]`` text
    is built, once per request.  Each containment row is one join over the
    index strings its bits select, and each system one template over the
    texts of its sorted pairs.  Every row holds its own index and every
    system its reflexive pairs, so no list is empty.  The keys sort as
    containment, count, group, kind, schema_version, systems, and the
    result is one join over the rows, the systems and their separators.
    """
    names = [_encode_str(n) for n in L.names]
    pair_text = {
        (k, h): f"[\n          {names[k]},\n          {names[h]}\n        ]"
        for k, above in enumerate(L.up)
        for h in _bits(above)
    }
    index = [str(i) for i in range(len(enum.systems))]
    pieces = ['{\n  "containment": [\n    ']
    for up in enum.up:
        pieces.append("[\n      " + ",\n      ".join(_bits(up, index)) + "\n    ]")
        pieces.append(",\n    ")
    pieces[-1] = (
        f'\n  ],\n  "count": {len(enum.systems)},\n  "group": {_encode_str(L.group.name)},'
        f'\n  "kind": "transfer-enumeration",\n  "schema_version": {SCHEMA_VERSION},'
        '\n  "systems": [\n    '
    )
    for i, s in enumerate(enum.systems):
        pairs = ",\n        ".join([pair_text[p] for p in s.sorted_pairs()])
        pieces.append(
            f'{{\n      "index": {index[i]},\n      "pairs": [\n        {pairs}\n      ]\n    }}'
        )
        pieces.append(",\n    ")
    pieces[-1] = "\n  ]\n}\n"
    return "".join(pieces)


def enumeration_doc(L: SubgroupLattice, enum: TransferEnumeration) -> dict:
    """The transfer-enumeration document as a dict: :func:`enumeration_json`, parsed back."""
    return json.loads(enumeration_json(L, enum))


# -- vanishing loci --------------------------------------------------------------


def locus_doc(VL: VanishingLocus) -> dict:
    L = VL.lattice
    entries = []
    for c, members in enumerate(L.classes):
        rep = L.names[members[0]]
        zero = VL.contains(c, 0, ANY_PRIME)
        zero_written = False
        for p, heights in VL.segments(c):
            if heights == (INFINITY,):
                field = "all"
            elif zero and heights == tuple(range(1, len(heights) + 1)):
                field = f"0..{len(heights)}"
            else:
                field = list(heights)
            zero_written = zero_written or isinstance(field, str)  # "all" and "0..k"
            entries.append({"subgroup": rep, "prime": p, "heights": field})
        if zero and not zero_written:
            entries.append({"subgroup": rep, "prime": "any", "heights": [0]})
    entries.sort(key=lambda e: (e["subgroup"], str(e["prime"])))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "vanishing-locus",
        "group": L.group.name,
        "entries": entries,
    }


def _heights_from(field) -> list:
    if isinstance(field, str):
        if field == "all":
            return [INFINITY]
        lo, sep, hi = field.partition("..")
        if sep:
            try:
                a, b = int(lo), int(hi)
            except ValueError:
                raise ParseError(f"bad height range {field!r}") from None
            if not 0 <= a <= b:
                raise ParseError(f"bad height range {field!r}")
            return list(range(a, _bounded(b) + 1))
        raise ParseError(f"bad heights field {field!r}")
    if isinstance(field, list):
        return [_height_from(x) for x in field]
    return [_height_from(field)]


def parse_locus(L: SubgroupLattice, doc) -> VanishingLocus:
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ParseError("vanishing-locus document needs an 'entries' list")
    primes = []
    for entry in doc["entries"]:
        if not isinstance(entry, dict):
            raise ParseError(f"bad locus entry {entry!r}")
        sid = _subgroup_id(L, entry.get("subgroup"))
        c = L.class_of[sid]
        p = _prime_from(entry.get("prime"))
        heights = _heights_from(entry.get("heights"))
        for h in heights:
            if p == ANY_PRIME and h != 0:
                raise ParseError(f"prime 'any' only carries height 0, got {_height_doc(h)!r}")
            primes.append(balmer_prime(c, h, p))
    return vanishing_locus(L, primes)


def locus_validation_doc(VL: VanishingLocus, violations) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "locus-validation",
        "group": VL.lattice.group.name,
        "ok": not violations,
        "violations": [[v.axiom, repr(v.witness)] for v in violations],
    }


# -- height vectors --------------------------------------------------------------


def heights_doc(v: HeightVector) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "height-vector",
        "p": v.p,
        "ell": [_entry_doc(e) for e in v.entries],
    }


def parse_heights(doc) -> HeightVector:
    if not isinstance(doc, dict):
        raise ParseError("height-vector document must be an object")
    p = doc.get("p")
    ell = doc.get("ell")
    if not isinstance(p, int) or not isinstance(ell, list) or not ell:
        raise ParseError("height-vector document needs 'p' and a nonempty 'ell' list")
    try:
        return HeightVector(p, tuple(_entry_from(x) for x in ell))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_heights_inline(text: str) -> HeightVector:
    """Parse the inline form ``P,(e0,e1,...)`` with entries int, inf or none:
    :func:`parse_heights` of P and the entries, each an int where it reads as one."""
    p_str, sep, rest = text.partition(",")
    rest = rest.strip()
    if not sep or not rest.startswith("(") or not rest.endswith(")"):
        raise ParseError(f"expected 'P,(e0,e1,...)', got {text!r}")
    try:
        p = int(p_str)
    except ValueError:
        raise ParseError(f"bad prime {p_str!r}") from None
    tokens = []
    for tok in rest[1:-1].split(","):
        tok = tok.strip()
        try:
            tok = int(tok)
        except ValueError:
            pass
        tokens.append(tok)
    return parse_heights({"p": p, "ell": tokens})


# -- reports ----------------------------------------------------------------------


def _decision_head(
    verdict: Verdict,
    L: SubgroupLattice,
    R: TransferSystem,
    VL: VanishingLocus,
) -> dict:
    """Every key of the decision report but ``witnesses``; each sorts before it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "decision-report",
        "group": L.group.name,
        "verdict": verdict.value,
        "inputs": {
            "group": {"name": L.group.name, "digest": digest(group_doc(L.group))},
            "operad": {"digest": digest(system_doc(R))},
            "locus": {"digest": digest(locus_doc(VL))},
        },
    }


def _witness_pieces(
    witnesses: Iterable[NormFailure], rows_text, triple_text, prime_text
) -> list[str]:
    """The texts of a witness stream, three per witness, for a report writer to join.

    Each witness is written as it comes and then dropped.  Witnesses of one
    pair (K, H) come together, and those at one J share their ``checked``
    cuts, so ``triple_text(kid, hid, jid, rows)`` is kept per J until the
    next pair, and reused only for the ``checked`` object it was built from.
    ``rows = rows_text(checked)`` is built once per distinct value per
    report.  ``prime_text(q)`` is built once per report, keyed by ``id(q)``,
    and q is kept alive in ``kept``, so no other prime takes that id.  The
    list is empty exactly when the stream is.
    """
    around: dict[int, tuple] = {}
    rows: dict[tuple, str] = {}
    primes: dict[int, str] = {}
    kept = []
    source = target = -1
    pieces: list[str] = []
    for kid, hid, jid, q, checked in witnesses:
        if kid != source or hid != target:
            source, target = kid, hid
            around.clear()
        built = around.get(jid)
        if built is None or built[0] is not checked:
            cuts = rows.get(checked)
            if cuts is None:
                cuts = rows[checked] = rows_text(checked)
            before, after = triple_text(kid, hid, jid, cuts)
            built = around[jid] = (checked, before, after)
        prime = primes.get(id(q))
        if prime is None:
            prime = primes[id(q)] = prime_text(q)
            kept.append(q)
        pieces += (built[1], prime, built[2])
    return pieces


def decision_json(
    witnesses: Iterable[NormFailure],
    L: SubgroupLattice,
    R: TransferSystem,
    VL: VanishingLocus,
) -> tuple[str, bool]:
    """The structured decision report, written from its witness stream.

    Returns the report and whether the stream held a witness.  The bytes
    are those of :func:`indented_json` on the report document, and no
    witness dict is built: each witness is one template over names
    escaped once per report, through :func:`_witness_pieces`.  The head,
    whose verdict the stream decides, goes through :func:`indented_json`
    once the stream ends, with its closing ``}`` cut off; ``witnesses``
    sorts last, so the list closes the document.  The result is one join
    over head, witnesses, separators and tail.
    """
    names = [_encode_str(n) for n in L.names]
    reps = [names[members[0]] for members in L.classes]

    def rows_text(checked):
        return ",\n        ".join(
            f"[\n          {r},\n          {names[c]}\n        ]" for r, c in checked
        )

    def triple_text(kid, hid, jid, rows):
        return (
            f'{{\n      "checked": [\n        {rows}\n      ],'
            f'\n      "norm_source": {names[kid]},\n      "norm_target": {names[hid]},'
            '\n      "prime": ',
            f',\n      "subgroup": {names[jid]}\n    }},\n    ',
        )

    def prime_text(q):
        h = '"inf"' if q.height == INFINITY else q.height
        p = _encode_str(q.prime) if type(q.prime) is str else q.prime
        return (
            f'{{\n        "height": {h},\n        "prime": {p},\n'
            f'        "subgroup": {reps[q.subgroup_class]}\n      }}'
        )

    pieces = _witness_pieces(witnesses, rows_text, triple_text, prime_text)
    held = bool(pieces)
    if held:
        pieces[-1] = pieces[-1][: -len(",\n    ")] + "\n  ]\n}\n"
    head = indented_json(_decision_head(Verdict.of(held), L, R, VL))[:-3]
    pieces.insert(0, head + (',\n  "witnesses": [\n    ' if held else ',\n  "witnesses": []\n}\n'))
    return "".join(pieces), held


def decision_text(
    witnesses: Iterable[NormFailure],
    L: SubgroupLattice,
    R: TransferSystem,
    VL: VanishingLocus,
) -> tuple[str, bool]:
    """The text decision report: a four-line head, then one line per witness.

    Returns the report and whether the stream held a witness.  The
    witness lines come from :func:`_witness_pieces`, as in
    :func:`decision_json`.  The verdict, line 4, is filled in once the
    stream ends.
    """
    names = L.names

    def rows_text(checked):
        return " ".join(f"({r},{names[c]})" for r, c in checked)

    def triple_text(kid, hid, jid, rows):
        return (
            f"witness: norm {names[kid]}->{names[hid]} fails at ",
            f" via {names[jid]}; checked {rows}\n",
        )

    def prime_text(q):
        rep = names[L.classes[q.subgroup_class][0]]
        return f"P({rep},{_height_doc(q.height)},{q.prime})"

    pieces = _witness_pieces(witnesses, rows_text, triple_text, prime_text)
    held = bool(pieces)
    pieces.insert(
        0,
        f"group: {L.group.name}\n"
        f"operad: {len(R.pairs)} admissible pairs\n"
        f"locus: {len(VL.primes)} primes\n"
        f"verdict: {Verdict.of(held).value}\n",
    )
    return "".join(pieces), held


def decision_doc(
    d: Decision,
    L: SubgroupLattice,
    R: TransferSystem,
    VL: VanishingLocus,
) -> dict:
    """The decision report as a dict: :func:`decision_json` of its witnesses, parsed back."""
    return json.loads(decision_json(d.witnesses, L, R, VL)[0])


def cross_validation_doc(report: CrossValidationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cross-validation-report",
        "n": report.n,
        "p": report.p,
        "height_bound": report.height_bound,
        "vectors_checked": report.vectors_checked,
        "norm_comparisons": report.norm_comparisons,
        "operad_comparisons": report.operad_comparisons,
        "ok": report.ok,
        "disagreements": [
            {
                "entries": [_entry_doc(e) for e in d.entries],
                "check": d.check,
                "engine_certified": d.engine_certified,
                "inequality_holds": d.inequality_holds,
            }
            for d in report.disagreements
        ],
    }


def heights_enumeration_doc(
    vectors, n: int, height_bound: int, include_infinity: bool, p: int
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "commutative-height-vectors",
        "n": n,
        "height_bound": height_bound,
        "include_infinity": include_infinity,
        "p": p,
        "count": len(vectors),
        "vectors": [
            {"ell": [_entry_doc(e) for e in v.entries], "sentinel": v.has_sentinel()}
            for v in vectors
        ],
    }
