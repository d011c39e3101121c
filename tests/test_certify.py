import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normcert as nc
from normcert import INFINITY, HeightVector, Verdict
from normcert import certify
from normcert.certify import _walk
from normcert.transfers import candidate_pairs
from helpers import (
    CORPUS_SPECS,
    assert_attributes_unchanged,
    attributes,
    brute_force_commutative_heights,
    brute_force_norm_preserves,
    brute_force_norm_support,
    brute_force_valid_heights,
    commutative_count,
    cross_validate_by_decisions,
    cut_table_failures,
    cut_table_obstructions,
    double_coset_obstructions,
    enumeration,
    lattice,
    pair_cut_table,
    random_pair,
    random_rep_norm_preserves,
    random_support_data,
    random_uniform_locus,
    random_valid_locus,
)


def chain(p, n):
    return nc.cyclic_power_lattice(p, n)


def test_norm_support_trivial_norm_restricts():
    rng = random.Random(2)
    for spec in ("cyclic:4", "symmetric:3"):
        L = lattice(spec)
        S = random_support_data(L, rng)
        top = L.top
        for J in L.subgroups:
            assert nc.norm_support(S, top, top, J) == S.at_subgroup(J.lattice_id)
        assert nc.norm_support(S, top, top, top) == S.at_class(L.class_of[L.top.lattice_id])


def test_norm_support_c4_example():
    L = lattice("cyclic:4")
    S = nc.support_data(L, [frozenset({(1, 2)}), frozenset(), frozenset({(2, 3)})])
    out = nc.norm_support(S, L.subgroups[1], L.subgroups[2], L.subgroups[0])
    assert out == frozenset({(1, 2)})


def test_norm_support_empty_factor_kills():
    L = lattice("cyclic:4")
    S = nc.support_data(L, [frozenset(), frozenset({(1, 2)}), frozenset({(1, 2)})])
    out = nc.norm_support(S, L.subgroups[0], L.subgroups[2], L.subgroups[0])
    assert out == frozenset()


def test_norm_support_requires_nesting():
    L = lattice("symmetric:3")
    S = nc.support_of_pushforward(L, [])
    with pytest.raises(nc.NotNested):
        nc.norm_support(S, L.top, L.subgroups[1], L.subgroups[0])
    with pytest.raises(nc.NotNested):
        nc.norm_support(S, L.subgroups[0], L.subgroups[1], L.subgroups[4])


def test_norm_support_matches_all_elements_oracle():
    rng = random.Random(9)
    for spec in ("cyclic:4", "symmetric:3", "dihedral:8"):
        L = lattice(spec)
        nested = [
            (k, h, j)
            for h in range(len(L))
            for k in range(len(L))
            for j in range(len(L))
            if L.leq(k, h) and L.leq(j, h)
        ]
        for _ in range(30):
            S = random_support_data(L, rng)
            for k, h, j in nested:
                got = nc.norm_support(S, k, h, j)
                assert got == brute_force_norm_support(S, k, h, j)


def test_empty_locus_always_certified():
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        vl = nc.vanishing_locus(L, [])
        for kid, hid in [(0, 0), (0, len(L) - 1)]:
            assert nc.norm_preserves_locus(vl, kid, hid).certified


def test_cp_paper_families():
    # (n+1, n) and (n, n) certify; (0, 1) does not
    for p in (2, 3):
        L = chain(p, 1)
        for n in range(4):
            for v in [HeightVector(p, (n + 1, n)), HeightVector(p, (n, n))]:
                vl = nc.heights_to_locus(v, L)
                assert nc.norm_preserves_locus(vl, L.subgroups[0], L.subgroups[1]).certified
                assert nc.localization_preserves(vl, nc.complete_system(L)).certified
        vl = nc.heights_to_locus(HeightVector(p, (0, 1)), L)
        d = nc.norm_preserves_locus(vl, L.subgroups[0], L.subgroups[1])
        assert d.verdict is Verdict.NO_GUARANTEE
        (w,) = d.witnesses
        assert w.prime == nc.balmer_prime(1, 1, p)
        assert [cut for _, cut in w.checked] == [0]
        assert not nc.localization_preserves(vl, nc.complete_system(L)).certified
        assert nc.localization_preserves(vl, nc.trivial_system(L)).certified


def test_engine_rejects_invalid_locus():
    L = lattice("cyclic:4")
    bad = nc.vanishing_locus(L, [nc.balmer_prime(0, 2, 2)])
    with pytest.raises(nc.InvalidLocus):
        nc.norm_preserves_locus(bad, 0, 1)
    with pytest.raises(nc.InvalidLocus):
        nc.localization_preserves(bad, nc.trivial_system(L))


def test_engine_requires_nesting_and_shared_lattice():
    L = lattice("cyclic:4")
    vl = nc.vanishing_locus(L, [])
    with pytest.raises(nc.NotNested):
        nc.norm_preserves_locus(vl, 2, 0)
    other = nc.subgroup_lattice(nc.cyclic(4))
    with pytest.raises(nc.LatticeMismatch):
        nc.localization_preserves(vl, nc.complete_system(other))


def test_norm_condition_examples():
    v = HeightVector(2, (2, 1, 1))
    assert nc.norm_condition_holds(v, 0, 0)
    assert nc.norm_condition_holds(v, 0, 2)
    assert not nc.norm_condition_holds(HeightVector(2, (1, 2)), 0, 1)
    with pytest.raises(nc.IndexOutOfRange):
        nc.norm_condition_holds(v, 1, 3)
    with pytest.raises(nc.IndexOutOfRange):
        nc.norm_condition_holds(v, 2, 1)


def test_commutative_condition_examples():
    assert nc.commutative_condition_holds(HeightVector(2, (2, 2, 2)))
    assert nc.commutative_condition_holds(HeightVector(2, (3, 2)))
    assert not nc.commutative_condition_holds(HeightVector(2, (0, 1)))
    assert nc.commutative_condition_holds(HeightVector(2, (INFINITY, INFINITY)))
    with pytest.raises(nc.InvalidHeightVector):
        nc.commutative_condition_holds(HeightVector(2, (2, 0)))


def test_enumerate_commutative_heights_examples():
    got = [v.entries for v in nc.enumerate_commutative_heights(1, 3)]
    assert got == [
        (None, None), (0, None), (0, 0), (1, 0), (1, 1),
        (2, 1), (2, 2), (3, 2), (3, 3),
    ]
    got0 = [v.entries for v in nc.enumerate_commutative_heights(1, 0)]
    assert got0 == [(None, None), (0, None), (0, 0)]
    # constants always make the cut
    for n in (1, 2):
        vecs = {v.entries for v in nc.enumerate_commutative_heights(n, 3)}
        for c in range(4):
            assert tuple([c] * (n + 1)) in vecs
    with pytest.raises(nc.BoundTooLarge):
        nc.enumerate_commutative_heights(7, 3)
    with pytest.raises(nc.BoundTooLarge):
        nc.enumerate_commutative_heights(1, 11)


@pytest.mark.parametrize("include_infinity", [False, True])
def test_enumerate_commutative_heights_matches_brute_force(include_infinity):
    for n in range(6):
        for hb in range(-2, 7):
            want = list(brute_force_commutative_heights(n, hb, include_infinity))
            assert len(want) == commutative_count(n, hb, include_infinity)
            for p in (2, 3):
                got = nc.enumerate_commutative_heights(n, hb, include_infinity, p)
                assert [v.entries for v in got] == want
                assert all(v.p == p for v in got)


def test_enumerate_commutative_heights_at_the_documented_bound():
    start = time.perf_counter()
    got = nc.enumerate_commutative_heights(6, 10, include_infinity=True)
    elapsed = time.perf_counter() - start
    assert len(got) == commutative_count(6, 10, True) == 577
    ranks = [tuple(-1 if e is None else e for e in v.entries) for v in got]
    assert ranks == sorted(set(ranks))
    assert got[0].entries == (None,) * 7 and got[-1].entries == (INFINITY,) * 7
    assert elapsed < 1.0
    assert len(nc.enumerate_commutative_heights(6, 10)) == commutative_count(6, 10, False)


def test_walk_is_the_filtered_product_in_order():
    def valid(a, b):
        return (-1 if a is None else a) <= (-1 if b is None else b) + 1

    def commutative(a, b):
        ra, rb = (-1 if a is None else a), (-1 if b is None else b)
        return rb <= ra <= rb + 1

    for follows in (valid, commutative):
        for hb in (-1, 0, 2):
            domain = [None, *range(hb + 1), INFINITY]
            for length in range(1, 5):
                want = [
                    e
                    for e in itertools.product(domain, repeat=length)
                    if all(follows(e[i], e[i + 1]) for i in range(length - 1))
                ]
                assert list(_walk(length, domain, follows)) == want


def test_chain_arguments_are_checked_up_front():
    with pytest.raises(nc.IndexOutOfRange):
        nc.enumerate_commutative_heights(-1, 3)
    with pytest.raises(nc.NotAPrime):
        nc.enumerate_commutative_heights(2, 2, p=4)
    with pytest.raises(nc.IndexOutOfRange):
        nc.cross_validate_cyclic(-1, 2, 2)
    with pytest.raises(nc.NotAPrime):
        nc.cross_validate_cyclic(2, 4, 2)
    # the group order is bounded before the lattice is built
    for n, p in ((1, 1009), (2, 31), (3, 11)):
        with pytest.raises(nc.BoundTooLarge):
            nc.cross_validate_cyclic(n, p, 0)


def test_cross_validation_counts_match_brute_force_sweep():
    for n in range(4):
        for hb in range(-2, 6):
            vectors = len(brute_force_valid_heights(n, hb))
            report = nc.cross_validate_cyclic(n, 2, hb)
            assert report.ok, report.disagreements
            assert report.vectors_checked == report.operad_comparisons == vectors
            assert report.norm_comparisons == vectors * (n + 1) * (n + 2) // 2


def test_criterion_memos_die_with_the_lattice():
    L = nc.subgroup_lattice(nc.cyclic(8))
    vl = nc.heights_to_locus(HeightVector(2, (0, 1, 1, 0)), L)
    assert not nc.localization_preserves(vl, nc.complete_system(L)).certified
    assert nc.norm_preserves_locus(vl, 1, 2).certified
    ref = weakref.ref(L)
    del L, vl
    gc.collect()
    assert ref() is None


def test_cross_validation_matches_the_sweep_by_decisions():
    # the oracle decides each vector in full and reads the failing norms
    # off its witnesses; the sweep reads them off one cut table per pair
    cases = [(n, p, hb) for n in range(3) for p in (2, 3) for hb in range(-1, 4)]
    for case in cases + [(3, 2, 5), (3, 7, 5)]:
        assert nc.cross_validate_cyclic(*case) == cross_validate_by_decisions(*case), case


@pytest.mark.parametrize("flip", [(0, 2), (1, 3), (2, 2)])
def test_cross_validation_compares_every_norm(monkeypatch, flip):
    # flipping the shortcut at one norm must show at exactly that norm, once
    # per vector, so no pair is left out of the comparison
    n, p, hb = 3, 2, 2
    holds = certify.norm_condition_holds
    vectors = list(_walk(n + 1, [None, 0, 1, 2, INFINITY], certify._closed_step))
    want = []
    for entries in vectors:
        truth = holds(HeightVector(p, entries), *flip)
        want.append(certify.Disagreement(entries, f"norm[{flip[0]},{flip[1]}]", truth, not truth))

    def flipped(v, k, j):
        return holds(v, k, j) != ((k, j) == flip)

    monkeypatch.setattr(certify, "norm_condition_holds", flipped)
    report = nc.cross_validate_cyclic(n, p, hb)
    assert report.vectors_checked == len(vectors)
    assert report.disagreements == tuple(want)


def test_failures_over_the_cut_table_are_the_obstructions():
    # the decide path reads its witnesses off one failure mask per conjugate
    # set of K; the oracle builds a cut table per pair over every J <= H.
    # Same failures in the same order, each with the Mackey cuts of its
    # triple, on K normal in H but not in G too
    rng = random.Random(31)
    seen_failure = set()
    seen_normal_in_h = set()
    specs = CORPUS_SPECS + ("symmetric:4", "dihedral:16*cyclic:2", "dihedral:8*dihedral:8")
    for spec in specs:
        L = lattice(spec)
        cand = candidate_pairs(L)
        for _ in range(3 if len(L) > 100 else 5):
            R = nc.close_transfer_system(L, rng.sample(cand, rng.randint(1, min(4, len(cand)))))
            vl = random_valid_locus(L, rng)
            pairs = R.strict_pairs()
            if len(pairs) > 300:
                pairs = rng.sample(pairs, 300)
            for k, h in pairs:
                want = cut_table_obstructions(vl, k, h)
                got = nc.norm_preserves_locus(vl, k, h).witnesses
                assert _fields(got) == _fields(want)
                assert [(w.subgroup, w.prime) for w in got] == cut_table_failures(
                    vl, pair_cut_table(L, k, h)
                )
                if got:
                    seen_failure.add(spec)
                if not L.is_normal(k) and all(
                    L.conj_id(k, g) == k for g in L.subgroups[h].members
                ):
                    seen_normal_in_h.add(spec)
    assert seen_failure == set(specs)
    assert {"dihedral:8", "symmetric:4", "dihedral:16*cyclic:2", "dihedral:8*dihedral:8"} <= (
        seen_normal_in_h
    )


def test_cross_validation_small():
    for n, p, bound in [(1, 2, 3), (1, 3, 2), (2, 2, 2)]:
        report = nc.cross_validate_cyclic(n, p, bound)
        assert report.ok, report.disagreements
        assert report.vectors_checked > 0
    with pytest.raises(nc.BoundTooLarge):
        nc.cross_validate_cyclic(4, 2, 2)


def test_verdicts_match_all_elements_existential():
    # representatives suffice for the existential search over h
    rng = random.Random(20)
    for _ in range(300):
        L = lattice(rng.choice(CORPUS_SPECS))
        vl = random_valid_locus(L, rng)
        kid, hid = random_pair(L, rng)
        got = nc.norm_preserves_locus(vl, kid, hid).certified
        assert got == brute_force_norm_preserves(vl, kid, hid)


def test_verdicts_conjugation_invariant():
    rng = random.Random(21)
    for _ in range(200):
        L = lattice(rng.choice(CORPUS_SPECS))
        vl = random_valid_locus(L, rng)
        kid, hid = random_pair(L, rng)
        g = rng.randrange(L.group.order)
        base = nc.norm_preserves_locus(vl, kid, hid).certified
        moved = nc.norm_preserves_locus(vl, L.conj_id(kid, g), L.conj_id(hid, g)).certified
        assert base == moved


def test_verdicts_representative_independent():
    rng = random.Random(22)
    for _ in range(200):
        L = lattice(rng.choice(CORPUS_SPECS))
        vl = random_valid_locus(L, rng)
        kid, hid = random_pair(L, rng)
        base = nc.norm_preserves_locus(vl, kid, hid)
        assert base.certified == random_rep_norm_preserves(vl, kid, hid, rng)


def test_operad_monotonicity():
    rng = random.Random(23)
    for _ in range(120):
        spec = rng.choice(CORPUS_SPECS)
        L = lattice(spec)
        enum = enumeration(spec)
        n = len(enum.systems)
        i, j = rng.randrange(n), rng.randrange(n)
        if not enum.up[i] >> j & 1:
            continue
        vl = random_valid_locus(L, rng)
        if nc.localization_preserves(vl, enum.systems[j]).certified:
            assert nc.localization_preserves(vl, enum.systems[i]).certified


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CORPUS_SPECS), st.data(), st.randoms(use_true_random=False))
def test_certification_is_downward_closed_in_the_operad(spec, data, rng):
    # R' adds one nested pair to R and closes: every obstruction for R is
    # one for R', so certifying R' certifies R
    L = lattice(spec)
    R = data.draw(st.sampled_from(enumeration(spec).systems))
    extra = data.draw(st.sampled_from(candidate_pairs(L)))
    R2 = nc.close_transfer_system(L, R.pairs | {extra})
    assert R.pairs <= R2.pairs
    vl = random_valid_locus(L, rng)
    d, d2 = nc.localization_preserves(vl, R), nc.localization_preserves(vl, R2)
    assert set(d.witnesses) <= set(d2.witnesses)
    if d2.certified:
        assert d.certified


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CORPUS_SPECS), st.data(), st.randoms(use_true_random=False))
def test_operad_decision_is_the_norm_decisions_in_pair_order(spec, data, rng):
    # localization_preserves skips the reflexive pairs, which never fail
    L = lattice(spec)
    R = nc.close_transfer_system(L, data.draw(st.sets(st.sampled_from(candidate_pairs(L)))))
    vl = random_valid_locus(L, rng)
    per_norm = [nc.norm_preserves_locus(vl, k, h).witnesses for k, h in sorted(R.pairs)]
    assert nc.localization_preserves(vl, R).witnesses == tuple(itertools.chain(*per_norm))
    assert all(nc.norm_preserves_locus(vl, h, h).certified for h in range(len(L)))


def _fields(witnesses):
    return [
        (w.norm_source, w.norm_target, w.subgroup, w.prime, w.checked) for w in witnesses
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CORPUS_SPECS + ("symmetric:4", "dihedral:16*cyclic:2")),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_witnesses_match_the_double_coset_oracle(spec, data, rng):
    # the engine reads cut classes off the H-conjugates of K; the oracle walks
    # the double cosets K\H/J, and both report the Mackey cuts of a failure
    L = lattice(spec)
    seed = data.draw(st.lists(st.sampled_from(candidate_pairs(L)), max_size=3))
    R = nc.close_transfer_system(L, seed)
    vl = random_valid_locus(L, rng)
    expected = [w for k, h in R.strict_pairs() for w in double_coset_obstructions(vl, k, h)]
    assert _fields(nc.localization_preserves(vl, R).witnesses) == _fields(expected)
    for _ in range(5):
        kid, hid = random_pair(L, rng)
        got = nc.norm_preserves_locus(vl, kid, hid).witnesses
        assert _fields(got) == _fields(double_coset_obstructions(vl, kid, hid))


@pytest.mark.parametrize("spec", ["cyclic:2*cyclic:2*cyclic:2*cyclic:2*cyclic:2",
                                  "dihedral:8*dihedral:8"])
def test_witnesses_match_the_oracle_on_the_largest_lattices(spec):
    # C2^5 (374 subgroups) and D8xD8 (389), the largest lattices under the
    # order bound: witness for witness on sampled strict pairs
    L = lattice(spec)
    rng = random.Random(41)
    cand = sorted(candidate_pairs(L))
    witnesses = 0
    for _ in range(3):
        vl = random_valid_locus(L, rng)
        for kid, hid in rng.sample(cand, 30):
            got = nc.norm_preserves_locus(vl, kid, hid).witnesses
            assert _fields(got) == _fields(double_coset_obstructions(vl, kid, hid))
            witnesses += len(got)
    assert witnesses > 0


def test_witness_triples_are_closed_under_conjugation():
    # (K, H) fails at (J, q) exactly when (K^g, H^g) fails at (J^g, q): the
    # criterion is conjugation-invariant and J^g stays in q's class, so the
    # witnesses of a conjugation-closed operad are a union of orbits
    rng = random.Random(43)
    witnesses = 0
    for spec in ("symmetric:4", "dihedral:16*cyclic:2", "dihedral:32"):
        L = lattice(spec)
        cand = candidate_pairs(L)
        conj = L.conj
        for _ in range(4):
            vl = random_valid_locus(L, rng)
            seed = rng.sample(cand, rng.randint(1, 3))
            for R in (nc.complete_system(L), nc.close_transfer_system(L, seed)):
                found = {
                    (w.norm_source, w.norm_target, w.subgroup, w.prime)
                    for w in nc.localization_preserves(vl, R).witnesses
                }
                for g in range(L.group.order):
                    moved = {(conj[k][g], conj[h][g], conj[j][g], q) for k, h, j, q in found}
                    assert moved == found
                witnesses += len(found)
    assert witnesses > 0


def test_only_failing_triples_compute_double_cosets(monkeypatch):
    # the criterion reads cut classes off conjugates; Mackey cuts are built
    # once per failing (K, H, J), for its witnesses' shared ``checked``, and
    # for nothing else
    calls = {"cuts": 0, "blocks": 0}
    cuts, blocks = nc.SubgroupLattice.mackey_cuts, nc.SubgroupLattice.double_coset_blocks

    def counted_cuts(L, *args):
        calls["cuts"] += 1
        return cuts(L, *args)

    def counted_blocks(L, *args):
        calls["blocks"] += 1
        return blocks(L, *args)

    monkeypatch.setattr(nc.SubgroupLattice, "mackey_cuts", counted_cuts)
    monkeypatch.setattr(nc.SubgroupLattice, "double_coset_blocks", counted_blocks)
    rng = random.Random(26)
    witnesses = triples = 0
    for spec in ("symmetric:4", "dihedral:16*cyclic:2"):
        L = nc.subgroup_lattice(nc.build_group(spec))
        for _ in range(4):
            d = nc.localization_preserves(random_valid_locus(L, rng), nc.complete_system(L))
            checked = {}
            for w in d.witnesses:
                first = checked.setdefault((w.norm_source, w.norm_target, w.subgroup), w.checked)
                assert w.checked is first
            witnesses += len(d.witnesses)
            triples += len(checked)
    assert witnesses > triples > 0
    assert calls["cuts"] == triples
    assert calls["blocks"] <= triples


def test_a_failing_decision_leaves_the_lattice_unchanged():
    # witnesses read Mackey cuts through the coset tables, which the lattice
    # holds from the start, so a decision writes nothing to it
    L = nc.subgroup_lattice(nc.build_group("symmetric:4"))
    before = attributes(L)
    d = nc.localization_preserves(random_valid_locus(L, random.Random(0)), nc.complete_system(L))
    assert d.witnesses
    assert_attributes_unchanged(L, before)


def test_uniform_loci_pass_everything():
    rng = random.Random(24)
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        enum = enumeration(spec)
        for _ in range(3):
            vl = random_uniform_locus(L, rng)
            for R in enum.systems:
                assert nc.localization_preserves(vl, R).certified


def test_witnesses_only_on_failure():
    rng = random.Random(25)
    seen_failure = False
    for _ in range(100):
        L = lattice(rng.choice(CORPUS_SPECS))
        vl = random_valid_locus(L, rng)
        d = nc.localization_preserves(vl, nc.complete_system(L))
        assert bool(d.witnesses) == (d.verdict is Verdict.NO_GUARANTEE)
        seen_failure = seen_failure or not d.certified
        for w in d.witnesses:
            assert not vl.contains(
                L.class_of[w.checked[-1][1]], w.prime.height, w.prime.prime
            )
    assert seen_failure


def test_s3_norms_hand_computed():
    # locus: heights {0} at e, {0, 1 at p=3} at C_3.  The norm from a
    # reflection up to S_3 intersects C_3 down to the trivial subgroup,
    # where height 1 is absent; the norm from C_3 (normal) stays inside C_3.
    L = lattice("symmetric:3")
    e_cls = L.class_of[0]
    c3 = next(i for i in range(len(L)) if L.subgroups[i].order == 3)
    c3_cls = L.class_of[c3]
    vl = nc.vanishing_locus(
        L,
        [
            nc.balmer_prime(e_cls, 0, 3),
            nc.balmer_prime(c3_cls, 0, 3),
            nc.balmer_prime(c3_cls, 1, 3),
        ],
    )
    assert nc.validate_vanishing_locus(vl) == []
    reflection = next(i for i in range(len(L)) if L.subgroups[i].order == 2)
    top = L.top.lattice_id

    d = nc.norm_preserves_locus(vl, reflection, top)
    assert d.verdict is Verdict.NO_GUARANTEE
    (w,) = d.witnesses
    assert w.prime == nc.balmer_prime(c3_cls, 1, 3)
    assert w.subgroup == c3
    assert w.checked == ((0, 0),)  # one double coset, intersection trivial

    assert nc.norm_preserves_locus(vl, c3, top).certified
    # the operad providing only the C_3 -> S_3 norm certifies, complete fails
    partial = nc.close_transfer_system(L, [(c3, top)])
    assert nc.localization_preserves(vl, partial).certified
    assert not nc.localization_preserves(vl, nc.complete_system(L)).certified


def test_closure_is_minimal_against_brute_force():
    rng = random.Random(41)
    from normcert.transfers import candidate_pairs
    from helpers import brute_force_transfer_systems

    for spec in ("cyclic:6", "symmetric:3", "cyclic:8"):
        L = lattice(spec)
        all_valid = brute_force_transfer_systems(L)
        strict = sorted(candidate_pairs(L))
        for _ in range(20):
            seed = rng.sample(strict, rng.randint(0, min(3, len(strict))))
            closed = nc.close_transfer_system(L, seed)
            supersets = [s for s in all_valid if set(seed) <= s]
            expected = frozenset.intersection(*supersets)
            assert closed.pairs == expected


def test_pair_obstructions_cover_all_conjugates():
    # the witness subgroup is the specific conjugate that failed
    L = lattice("dihedral:8")
    reflections = [i for i in range(len(L)) if L.subgroups[i].order == 2]
    # locus at one reflection class only, plus nothing at the trivial subgroup
    cls = L.class_of[reflections[1]]
    others = [i for i in L.classes[cls]]
    vl = nc.vanishing_locus(L, [nc.balmer_prime(cls, 0, 2)])
    hid = next(
        h
        for h in range(len(L))
        if L.subgroups[h].order == 4
        and all(L.leq(r, h) for r in others)
    )
    fails = nc.norm_preserves_locus(vl, 0, hid).witnesses
    assert {w.subgroup for w in fails} == set(others)
