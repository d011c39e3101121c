"""Output checks: compare what an answer means, never its bytes.

Structured output is parsed as JSON and only the fields that carry the
answer are read, so an added field (an engine version, say) is not a
failure.  Text output is read line by line the same way.
"""

from __future__ import annotations

import json
import os
import re

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

_DOT_NODE = re.compile(r'^  "T\d+" \[label=', re.M)


def load_recorded() -> dict:
    """Verdicts and witness counts recorded once by ``record.py``."""
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _structured(argv) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "structured"


def _decide(argv, out: str, expect: dict, recorded: dict):
    """(problem or None, whether the output says certified)."""
    if _structured(argv):
        doc = json.loads(out)
        verdict, witnesses = doc["verdict"], len(doc["witnesses"])
    else:
        found = re.search(r"^verdict: (\S+)$", out, re.M)
        if found is None:
            return "no verdict line", False
        verdict, witnesses = found.group(1), out.count("\nwitness: ")
    certified = verdict == "CertifiedPreserves"
    if "key" in expect:
        want_verdict, want_witnesses = recorded["decide"][expect["key"]]
        if "certified" in expect and want_verdict != "CertifiedPreserves":
            return f"recorded verdict {want_verdict} contradicts the oracle", certified
    else:
        want_verdict = "CertifiedPreserves" if expect["certified"] else "NoGuarantee"
        want_witnesses = None
    if verdict != want_verdict:
        return f"verdict {verdict}, expected {want_verdict}", certified
    if want_witnesses is not None and witnesses != want_witnesses:
        return f"{witnesses} witnesses, expected {want_witnesses}", certified
    if certified == (witnesses > 0):
        return f"verdict {verdict} with {witnesses} witnesses", certified
    return None, certified


def _systems(argv, out: str, expect: dict):
    if argv[0] == "dot":
        counts = [len(_DOT_NODE.findall(out))]
    elif _structured(argv):
        doc = json.loads(out)
        counts = [doc["count"], len(doc["systems"]), len(doc["containment"])]
    else:
        head = re.match(r"transfer systems on \S+: (\d+)\n", out)
        if head is None:
            return "no count line"
        counts = [int(head.group(1)), len(re.findall(r"^T\d+: ", out, re.M))]
    if any(c != expect["count"] for c in counts):
        return f"system counts {counts}, expected {expect['count']}"
    return None


def _xval(argv, out: str, expect: dict):
    if _structured(argv):
        doc = json.loads(out)
        got = (doc["vectors_checked"], doc["norm_comparisons"], doc["operad_comparisons"],
               len(doc["disagreements"]))
    else:
        found = re.search(
            r"^vectors: (\d+) norm checks: (\d+) operad checks: (\d+)\n"
            r"disagreements: (\d+)$", out, re.M)
        if found is None:
            return "no summary lines"
        got = tuple(int(x) for x in found.groups())
    want = (expect["vectors"], expect["norms"], expect["operads"], 0)
    if got != want:
        return f"(vectors, norms, operads, disagreements) = {got}, expected {want}"
    return None


def _ell(argv, out: str, expect: dict):
    if _structured(argv):
        doc = json.loads(out)
        counts = [doc["count"], len(doc["vectors"])]
    else:
        found = re.search(r"^count: (\d+)$", out, re.M)
        if found is None:
            return "no count line"
        counts = [int(found.group(1)), len(re.findall(r"^\(", out, re.M))]
    if any(c != expect["count"] for c in counts):
        return f"vector counts {counts}, expected {expect['count']}"
    return None


def check(request: dict, rc: int, out: str, recorded: dict):
    """None when the output means what the request expects, else the reason."""
    argv, expect = request["argv"], request["expect"]
    kind = expect["kind"]
    if kind == "decide":
        try:
            problem, certified = _decide(argv, out, expect, recorded)
        except (ValueError, KeyError) as exc:
            return f"unreadable decision: {exc!r}"
        want_rc = 0 if certified else 1  # every decide runs with --strict
        if problem is None and rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        return problem
    if rc != 0:
        return f"exit code {rc}, expected 0"
    checker = {"systems": _systems, "xval": _xval, "ell": _ell}[kind]
    try:
        return checker(argv, out, expect)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
