"""Record the decide-mix verdicts and witness counts of the current engine.

    python3 perfbench/record.py

Run once, at the commit that defines the benchmark; later commits are
checked against ``expected.json``, so re-recording would hide a change in
behaviour.  Uniform loci and the trivial operad also have an oracle (they
always certify), which the checks apply on top of the recording.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import normcert as nc  # noqa: E402
from normcert import io as nio  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    docs = workloads.input_documents("decide-mix")
    decide = {}
    for short, spec in workloads.DECIDE_GROUPS:
        L = nc.subgroup_lattice(nc.build_group(spec))
        loci = [f"u{i}" for i in range(len(workloads.UNIFORM_TOPS))] + list(workloads.LOCI[1:])
        for op in workloads.OPERADS:
            R = nio.parse_system(L, docs[f"{short}-{op}.json"] if op[0] == "g" else op)
            for loc in loci:
                VL = nio.parse_locus(L, docs[f"{short}-{loc}.json"])
                d = nc.localization_preserves(VL, R)
                decide[f"{short}|{op}|{loc}"] = [d.verdict.value, len(d.witnesses)]
                print(short, op, loc, *decide[f"{short}|{op}|{loc}"], flush=True)
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump({"decide": decide}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
