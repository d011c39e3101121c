"""Batch command line front door.

Subcommands: lattice, transfer-enumerate, spectrum-validate, decide,
ell-enumerate, cross-validate, dot.  Output is deterministic byte for byte
for fixed inputs.  Exit codes: 0 on success, 1 when --strict is set and the
run produced a NoGuarantee verdict, validation violations or cross-check
disagreements, 2 on input errors.

Default bounds can be overridden with the environment variables
NORMCERT_MAX_GROUP_ORDER and NORMCERT_MAX_PAIRS.

Every lattice, from --group or --ell, comes from the one lattice memo
:func:`normcert.groups.lattice_of` through one call that checks
NORMCERT_MAX_GROUP_ORDER itself.  A JSON document is read up to
MAX_INPUT_BYTES, a table CSV line up to 32 characters per cell of the
order bound; past either, the run exits 2.
Each subcommand parses and checks all of its input before it returns its
report as chunks of text: one string for the small reports, a lazy stream
of blocks of about 1 MB for decisions and transfer enumerations.
:func:`_write` is the one code that writes a report, to --out or to
stdout, chunk by chunk as the chunks come; a failed write exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dot as dotmod
from . import io as iomod
from .certify import (
    CertifyError,
    cross_validate_cyclic,
    enumerate_commutative_heights,
    localization_runs,
)
from .chromatic import (
    ChromaticError,
    cyclic_power_lattice,
    heights_to_locus,
    validate_vanishing_locus,
)
from .groups import DEFAULT_MAX_ORDER, GroupError, _bits, lattice_of
from .transfers import (
    DEFAULT_MAX_PAIRS,
    TransferError,
    enumerate_transfer_systems,
)

_INPUT_ERRORS = (
    iomod.ParseError,
    GroupError,
    TransferError,
    ChromaticError,
    CertifyError,
    OSError,
)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise iomod.ParseError(f"environment variable {name} must be an integer") from None


def _max_group_order() -> int:
    return _env_int("NORMCERT_MAX_GROUP_ORDER", DEFAULT_MAX_ORDER)


def _enumeration(L):
    return enumerate_transfer_systems(L, _env_int("NORMCERT_MAX_PAIRS", DEFAULT_MAX_PAIRS))


def _build_lattice(spec: str):
    return lattice_of(spec, _max_group_order())


# 30 times the largest document under the order bound, C2^6's complete operad (2.1 MB)
MAX_INPUT_BYTES = 64 << 20


def _load_json(path: str) -> dict:
    """The JSON document at ``path``, read 1 MiB at a time up to MAX_INPUT_BYTES.

    A pipe works as a file does; a FIFO with no writer waits for one.
    """
    data = bytearray()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            data += chunk
            if len(data) > MAX_INPUT_BYTES:
                raise iomod.ParseError(
                    f"{path} exceeds the input budget of {MAX_INPUT_BYTES} bytes"
                )
    try:
        # newlines read as a text-mode open() reads them, so error positions match
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError:
        raise iomod.ParseError(f"{path} is not UTF-8 text") from None
    except RecursionError:
        raise iomod.ParseError(f"{path} nests too deeply") from None
    except json.JSONDecodeError as exc:
        raise iomod.ParseError(str(exc)) from None
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise iomod.ParseError(f"{path} holds an integer too long to read") from None


def _load_locus(args):
    """Resolve --group and --locus / --ell to a lattice and a vanishing locus."""
    L = _build_lattice(args.group) if args.group else None
    ell, spec = args.ell, args.locus
    if (spec is None) == (ell is None):
        raise iomod.ParseError("exactly one of --locus and --ell is required")
    if spec is not None and spec.startswith("ell:"):
        ell = spec[4:]
    if ell is not None:
        v = iomod.parse_heights_inline(ell)
        if L is None:
            L = cyclic_power_lattice(v.p, v.n, _max_group_order())
        return L, heights_to_locus(v, L)
    doc = _load_json(spec)
    if L is None:
        raise iomod.ParseError("--group is required with a locus document")
    if isinstance(doc, dict) and doc.get("kind") == "height-vector":
        v = iomod.parse_heights(doc)
        return L, heights_to_locus(v, L)
    return L, iomod.parse_locus(L, doc)


def _load_operad(L, spec: str):
    if spec in ("complete", "trivial"):
        return iomod.parse_system(L, spec)
    return iomod.parse_system(L, _load_json(spec))


# -- subcommands -----------------------------------------------------------------


def _cmd_lattice(args):
    L = _build_lattice(args.group)
    if args.format == "structured":
        return (iomod.indented_json(iomod.lattice_doc(L)),), False
    lines = [f"group {L.group.name} (order {L.group.order})", f"subgroups: {len(L)}"]
    for s in L.subgroups:
        members = ",".join(str(m) for m in s.members)
        normal = " normal" if L.is_normal(s.lattice_id) else ""
        lines.append(
            f"{L.names[s.lattice_id]} order {s.order} members ({members})"
            f" class {L.class_of[s.lattice_id]}{normal}"
        )
    lines.append("covers:")
    lines.extend(f"{L.names[k]} < {L.names[h]}" for k, h in L.covers())
    return ("\n".join(lines) + "\n",), False


def _cmd_transfer_enumerate(args):
    L = _build_lattice(args.group)
    enum = _enumeration(L)
    if args.format == "structured":
        return iomod.enumeration_json_blocks(L, enum), False
    names = L.names
    texts = [f"({names[k]}<{names[h]})" for k, h in L.nested_pairs]
    strict = ~L.reflexive_mask

    def lines():
        yield f"transfer systems on {L.group.name}: {len(enum)}\n"
        for i, mask in enumerate(enum.masks):
            pairs = " ".join(_bits(mask & strict, texts))
            yield f"T{i}: {mask.bit_count()} pairs {pairs}".rstrip() + "\n"

    return iomod._blocks(lines()), False


def _cmd_spectrum_validate(args):
    L, vl = _load_locus(args)
    violations = validate_vanishing_locus(vl)
    if args.format == "structured":
        return (iomod.indented_json(iomod.locus_validation_doc(vl, violations)),), bool(violations)
    lines = [f"locus on {L.group.name}: {len(vl.primes)} primes"]
    if violations:
        lines.extend(f"violation {v.axiom}: {v.witness!r}" for v in violations)
    else:
        lines.append("ok")
    return ("\n".join(lines) + "\n",), bool(violations)


def _cmd_decide(args):
    L, vl = _load_locus(args)
    R = _load_operad(L, args.operad)
    if args.format == "structured":
        return iomod.decision_json_blocks(localization_runs(vl, R), L, R, vl)
    return iomod.decision_text_blocks(localization_runs(vl, R), L, R, vl)


def _cmd_ell_enumerate(args):
    vectors = enumerate_commutative_heights(
        args.n, args.height_bound, args.include_infinity, args.prime
    )
    if args.format == "structured":
        doc = iomod.heights_enumeration_doc(
            vectors, args.n, args.height_bound, args.include_infinity, args.prime
        )
        return (iomod.indented_json(doc),), False
    lines = [
        f"commutative height vectors: n={args.n} height_bound={args.height_bound}"
        f" p={args.prime} include_infinity={args.include_infinity}",
        f"count: {len(vectors)}",
    ]
    for v in vectors:
        entries = ",".join(str(iomod._entry_doc(e)) for e in v.entries)
        tag = " sentinel" if v.has_sentinel() else ""
        lines.append(f"({entries}){tag}")
    return ("\n".join(lines) + "\n",), False


def _cmd_cross_validate(args):
    report = cross_validate_cyclic(args.n, args.prime, args.height_bound)
    if args.format == "structured":
        return (iomod.indented_json(iomod.cross_validation_doc(report)),), not report.ok
    lines = [
        f"cross-validation: n={report.n} p={report.p} height_bound={report.height_bound}",
        f"vectors: {report.vectors_checked} norm checks: {report.norm_comparisons}"
        f" operad checks: {report.operad_comparisons}",
        f"disagreements: {len(report.disagreements)}",
    ]
    for d in report.disagreements:
        lines.append(
            f"disagree {d.check} at {d.entries}: engine={d.engine_certified}"
            f" inequalities={d.inequality_holds}"
        )
    return ("\n".join(lines) + "\n",), not report.ok


def _cmd_dot(args):
    L = _build_lattice(args.group)
    if args.what == "subgroup-lattice":
        return (dotmod.lattice_dot(L),), False
    if args.what == "transfer-poset":
        return (dotmod.transfer_poset_dot(L, _enumeration(L)),), False
    return (dotmod.prime_poset_dot(L, args.prime, args.height_bound),), False


# -- wiring ------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="normcert",
        description="Exact certificates for norm-compatibility of chromatic localizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        if fmt:
            p.add_argument("--format", choices=["text", "structured"], default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--strict", action="store_true", help="exit 1 on negative findings")

    p = sub.add_parser("lattice", help="enumerate a subgroup lattice")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("transfer-enumerate", help="enumerate all transfer systems")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=_cmd_transfer_enumerate)

    p = sub.add_parser("spectrum-validate", help="validate a vanishing locus")
    p.add_argument("--group")
    p.add_argument("--locus", help="locus document path or ell:P,(...)")
    p.add_argument("--ell", help="inline height vector P,(e0,e1,...)")
    common(p)
    p.set_defaults(fn=_cmd_spectrum_validate)

    p = sub.add_parser("decide", help="certify a localization against an operad")
    p.add_argument("--group")
    p.add_argument("--operad", required=True, help="complete, trivial, or document path")
    p.add_argument("--locus", help="locus document path or ell:P,(...)")
    p.add_argument("--ell", help="inline height vector P,(e0,e1,...)")
    common(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("ell-enumerate", help="enumerate commutativity-certifying height vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height-bound", type=int, required=True)
    p.add_argument("--include-infinity", action="store_true")
    p.add_argument("--prime", type=int, default=2)
    common(p)
    p.set_defaults(fn=_cmd_ell_enumerate)

    p = sub.add_parser("cross-validate", help="engine vs inequality shortcut on C_{p^n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height-bound", type=int, required=True)
    p.add_argument("--prime", type=int, default=2)
    common(p)
    p.set_defaults(fn=_cmd_cross_validate)

    p = sub.add_parser("dot", help="emit a DOT digraph")
    p.add_argument("--group", required=True)
    p.add_argument(
        "--what",
        choices=["subgroup-lattice", "transfer-poset", "prime-poset"],
        default="subgroup-lattice",
    )
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--height-bound", type=int, default=2)
    common(p, fmt=False)
    p.set_defaults(fn=_cmd_dot)

    return parser


def _write_encoded(chunks, write, encoding: str, errors: str) -> None:
    """Encode each chunk and hand it to ``write`` until it has taken every byte.

    An unbuffered raw write may take fewer bytes than it is given, as a
    pipe does when its reader closes; writing the rest then raises.
    """
    for chunk in chunks:
        view = memoryview(chunk.encode(encoding, errors))
        while view:
            view = view[write(view) :]


def _write(chunks, path) -> None:
    """Write a report's chunks to ``path``, or to stdout when it is None.

    Each chunk is written as it comes, so no more than one chunk of a
    report is held here.  --out is opened once the subcommand has
    returned, after every input check, and gets UTF-8 whatever the locale,
    with an argv byte that did not decode written back as itself.  Stdout
    gets its own encoding and error handler.
    """
    if path:
        with open(path, "wb") as fh:
            _write_encoded(chunks, fh.write, "utf-8", "surrogateescape")
        return
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:  # a capture such as io.StringIO takes the text as it is
        for chunk in chunks:
            out.write(chunk)
        return
    try:
        out.flush()  # text written before the report goes first
        _write_encoded(chunks, binary.write, out.encoding, out.errors)
        binary.flush()
    except OSError:  # what stays buffered would fail again at exit, with code 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        chunks, flagged = args.fn(args)
        _write(chunks, args.out)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if flagged and args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
