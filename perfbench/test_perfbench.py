"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from normcert import build_group, cli, subgroup_lattice  # noqa: E402
from normcert.certify import (  # noqa: E402
    MAX_ENUM_HEIGHT,
    MAX_ENUM_LENGTH,
    MAX_XVAL_HEIGHT,
    MAX_XVAL_LENGTH,
)
from normcert.groups import DEFAULT_MAX_ORDER  # noqa: E402
from normcert.transfers import DEFAULT_MAX_PAIRS, candidate_pairs  # noqa: E402

SEEDS = (1, 2, 3)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert workloads.stream(workload, 7) == workloads.stream(workload, 7)
    assert workloads.stream(workload, 7) != workloads.stream(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_stay_within_default_bounds(workload):
    pairs = {}
    for seed in SEEDS:
        for req in workloads.stream(workload, seed):
            argv = req["argv"]
            if "--group" in argv:
                spec = _flag(argv, "--group")
                assert build_group(spec).order <= DEFAULT_MAX_ORDER
                if argv[0] == "transfer-enumerate" or "transfer-poset" in argv:
                    if spec not in pairs:
                        pairs[spec] = len(candidate_pairs(subgroup_lattice(build_group(spec))))
                    assert pairs[spec] <= DEFAULT_MAX_PAIRS
            if argv[0] == "ell-enumerate":
                assert int(_flag(argv, "--n")) <= MAX_ENUM_LENGTH
                assert int(_flag(argv, "--height-bound")) <= MAX_ENUM_HEIGHT
            if argv[0] == "cross-validate":
                assert int(_flag(argv, "--n")) <= MAX_XVAL_LENGTH
                assert int(_flag(argv, "--height-bound")) <= MAX_XVAL_HEIGHT
            if "--ell" in argv:
                p, entries = _flag(argv, "--ell").split(",", 1)
                n = entries.count(",")
                assert n <= 5 and int(p) ** n <= DEFAULT_MAX_ORDER
                heights = [e for e in entries[1:-1].split(",") if e not in ("none", "inf")]
                assert all(0 <= int(h) <= MAX_ENUM_HEIGHT for h in heights)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.min_samples(0.9) == 100
    assert run.min_samples(0.5) == 20
    values = list(range(1, 101))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.5) == 50
    with pytest.raises(ValueError):
        run.percentile(values[:99], 0.9)
    with pytest.raises(ValueError):
        run.percentile(values[:19], 0.5)


def test_self_time_with_nested_spans():
    rows = [
        ("main", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 5.0, 7.0, 0),
        ("other", 20.0, 26.0, -1),
        ("overlap", 21.0, 24.0, 4),
        ("overlap", 23.0, 30.0, 4),  # overlaps its sibling and runs past the parent
    ]
    assert spans.self_times(rows) == [5.0, 2.0, 1.0, 2.0, 1.0, 3.0, 7.0]


def test_closed_forms_match_the_engine():
    assert [workloads.catalan(k) for k in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert workloads.commutative_count(5, 6, True) == 177  # measured at n=5, hb=6
    for n, hb, inf in [(2, 3, False), (3, 4, True)]:
        argv = ["ell-enumerate", "--n", str(n), "--height-bound", str(hb)]
        out = _cli(argv + ["--include-infinity"] * inf)
        assert f"count: {workloads.commutative_count(n, hb, inf)}\n" in out
    out = _cli(["cross-validate", "--n", "2", "--prime", "3", "--height-bound", "3"])
    assert f"vectors: {workloads.valid_vector_count(2, 3)} " in out


def test_cyclic_decide_oracle_agrees_with_the_engine(tmp_path):
    workloads.write_inputs("cyclic-sweep", str(tmp_path))
    reqs = [r for r in workloads.stream("cyclic-sweep", 3) if r["argv"][0] == "decide"]
    assert {r["expect"]["certified"] for r in reqs} == {True, False}
    for req in reqs:
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in req["argv"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        assert checks.check(req, rc, buf.getvalue(), {}) is None, req


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_checks_reject_wrong_answers():
    req = {"argv": ["ell-enumerate", "--n", "1", "--height-bound", "1"],
           "expect": {"kind": "ell", "count": workloads.commutative_count(1, 1, False)}}
    out = _cli(req["argv"])
    assert checks.check(req, 0, out, {}) is None
    assert checks.check(req, 2, out, {}) is not None
    assert checks.check(req, 0, out.replace("count: ", "count: 1"), {}) is not None
