"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All checks are exact; the timed criteria assert their stated budgets.
"""

import itertools
import random
import time

import normcert as nc
from normcert import INFINITY, HeightVector, Verdict
from helpers import (
    CORPUS_SPECS,
    brute_force_norm_support,
    brute_force_transfer_systems,
    enumeration,
    indexing_closure_oracle,
    lattice,
    random_pair,
    random_rep_norm_preserves,
    random_support_data,
    random_uniform_locus,
    random_valid_locus,
)


def _report(num: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_cp_classification():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        plain = {
            v.entries
            for v in nc.enumerate_commutative_heights(1, 10, False, p)
            if not v.has_sentinel()
        }
        expected = {(k, k) for k in range(11)} | {(k + 1, k) for k in range(10)}
        ok = ok and plain == expected
        with_inf = {
            v.entries
            for v in nc.enumerate_commutative_heights(1, 10, True, p)
            if not v.has_sentinel()
        }
        ok = ok and with_inf == expected | {(INFINITY, INFINITY)}
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, "C_p classification", ok, elapsed)


def test_criterion_2_oracle_equivalence_on_chains():
    t0 = time.monotonic()
    ok = True
    for n, p, bound in [(1, 2, 5), (2, 2, 4), (2, 3, 4), (3, 2, 3)]:
        report = nc.cross_validate_cyclic(n, p, bound)
        ok = ok and report.ok and report.vectors_checked > 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(2, "engine vs inequalities on C_{p^n}", ok, elapsed)


def test_criterion_3_pushforward_loci_pass_all_operads():
    t0 = time.monotonic()
    rng = random.Random(1003)
    ok = True
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        systems = enumeration(spec).systems
        loci = [random_uniform_locus(L, rng) for _ in range(20)]
        for vl in loci:
            for R in systems:
                if not nc.localization_preserves(vl, R).certified:
                    ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(3, "uniform loci certified for every operad", ok, elapsed)


def test_criterion_4_trivial_operad_always_certified():
    rng = random.Random(1004)
    ok = True
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        trivial = nc.trivial_system(L)
        for _ in range(100):
            vl = random_valid_locus(L, rng)
            if not nc.localization_preserves(vl, trivial).certified:
                ok = False
    _report(4, "trivial operad certified on random loci", ok)


def test_criterion_5_transfer_system_counts_and_lists():
    ok = True
    for spec in ("cyclic:2", "cyclic:3", "cyclic:5"):
        ok = ok and len(enumeration(spec)) == 2
    for spec in ("cyclic:4", "cyclic:9"):
        ok = ok and len(enumeration(spec)) == 5
    for spec in ("cyclic:8", "cyclic:27"):
        got = [s.pairs for s in enumeration(spec).systems]
        ok = ok and got == brute_force_transfer_systems(lattice(spec))
    _report(5, "transfer-system enumeration vs oracle", ok)


def test_criterion_6_indexing_oracle_on_enumerated_systems():
    ok = True
    for spec in ("cyclic:4", "cyclic:9", "symmetric:3"):
        L = lattice(spec)
        for R in enumeration(spec).systems:
            for H in L.subgroups:
                if indexing_closure_oracle(R, H, 6) is not None:
                    ok = False
    _report(6, "set-level closure oracle", ok)


def test_criterion_7_diagonal_support_calculus():
    rng = random.Random(1007)
    ok = True
    for spec in ("cyclic:4", "symmetric:3"):
        L = lattice(spec)
        triples = [
            (k, h, j)
            for h in range(len(L))
            for k in range(len(L))
            for j in range(len(L))
            if L.leq(k, h) and L.leq(j, h)
        ]
        for _ in range(50):
            S = random_support_data(L, rng)
            for k, h, j in triples:
                if nc.norm_support(S, k, h, j) != brute_force_norm_support(S, k, h, j):
                    ok = False
    _report(7, "norm support vs all-elements oracle", ok)


def test_criterion_8_underlying_determined_bousfield_classes():
    # Real Johnson-Wilson vs the wedge of Real Morava K-theories on C_2:
    # nontrivial geometric fixed points vanish for both, underlying supports
    # are the height range 0..n vs the union of single heights.
    L = lattice("cyclic:2")
    ok = True
    for n in range(6):
        range_profile = frozenset(
            (m, 2) if m else (0, nc.ANY_PRIME) for m in range(n + 1)
        )
        johnson_wilson = nc.support_data(L, [range_profile, frozenset()])
        union_profile = frozenset().union(
            *({(m, 2)} if m else {(0, nc.ANY_PRIME)} for m in range(n + 1))
        )
        wedge_of_fields = nc.support_data(L, [union_profile, frozenset()])
        ok = ok and nc.is_underlying_determined(johnson_wilson)
        ok = ok and nc.is_underlying_determined(wedge_of_fields)
        ok = ok and nc.supports_equal(johnson_wilson, wedge_of_fields)
    _report(8, "underlying-determined support models agree", ok)


def test_criterion_9_structural_invariant_suites():
    rng = random.Random(1009)
    ok = True

    for _ in range(1000):
        L = lattice(rng.choice(CORPUS_SPECS))
        vl = random_valid_locus(L, rng)
        kid, hid = random_pair(L, rng)
        g = rng.randrange(L.group.order)
        a = nc.norm_preserves_locus(vl, kid, hid).certified
        b = nc.norm_preserves_locus(vl, L.conj_id(kid, g), L.conj_id(hid, g)).certified
        if a != b:
            ok = False

    for _ in range(1000):
        L = lattice(rng.choice(CORPUS_SPECS))
        vl = random_valid_locus(L, rng)
        kid, hid = random_pair(L, rng)
        a = nc.norm_preserves_locus(vl, kid, hid).certified
        if a != random_rep_norm_preserves(vl, kid, hid, rng):
            ok = False

    comparable = {}
    for spec in CORPUS_SPECS:
        enum = enumeration(spec)
        n = len(enum.systems)
        comparable[spec] = [
            (i, j) for i in range(n) for j in range(n) if i != j and enum.up[i] >> j & 1
        ]
    for _ in range(1000):
        spec = rng.choice(CORPUS_SPECS)
        L = lattice(spec)
        enum = enumeration(spec)
        i, j = rng.choice(comparable[spec])
        vl = random_valid_locus(L, rng)
        if nc.localization_preserves(vl, enum.systems[j]).certified:
            if not nc.localization_preserves(vl, enum.systems[i]).certified:
                ok = False

    _report(9, "conjugation, representatives, monotonicity (1000x each)", ok)
