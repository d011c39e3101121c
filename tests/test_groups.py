import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normcert as nc
from normcert.groups import _bits, _greedy_generators
from normcert.transfers import candidate_pairs
from helpers import (
    CORPUS_SPECS,
    associativity_failure,
    brute_force_subgroup_masks,
    candidate_pairs_by_scan,
    classes_below_by_scan,
    covers_by_definition,
    covers_by_up_scan,
    enumeration,
    group_axiom_failure,
    lattice,
    product_double_coset_blocks,
    product_mackey_cuts,
    random_valid_locus,
    relabeled,
    relabeled_rows,
    subconjugate_witness,
    up_sets_by_scan,
)


def perm_index(n, perm):
    return list(itertools.permutations(range(n))).index(tuple(perm))


def test_cyclic_4_has_three_subgroups():
    L = lattice("cyclic:4")
    assert L.group.order == 4
    assert len(L) == 3
    assert [s.order for s in L.subgroups] == [1, 2, 4]


def test_s3_lattice():
    L = lattice("symmetric:3")
    assert L.group.order == 6
    assert len(L) == 6
    assert len(L.classes) == 4
    assert [s.order for s in L.subgroups] == [1, 2, 2, 2, 3, 6]


def test_q8_all_normal():
    L = lattice("quaternion:8")
    assert len(L) == 6
    assert all(L.is_normal(i) for i in range(len(L)))


# the groups of the decide-mix benchmark, each with the largest number of
# generators one of its subgroups needs (S4 needs 2 but keeps the default 3)
DECIDE_MIX_GENERATORS = {
    "symmetric:4": 3,
    "dihedral:32": 2,
    "cyclic:2*cyclic:2*cyclic:2*cyclic:2": 4,
    "cyclic:8*cyclic:8": 2,
    "dihedral:16*cyclic:2": 3,
    "dihedral:64": 2,
}


def test_invalid_table_rejected():
    # constant rows: no element is a left identity
    with pytest.raises(nc.InvalidTable, match="identity"):
        nc.from_table([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    # an associative monoid in which 1 has no inverse
    assert group_axiom_failure([[0, 1], [1, 1]]) == "inverse"
    with pytest.raises(nc.InvalidTable, match="inverse"):
        nc.from_table([[0, 1], [1, 1]])


# a latin square with identity 0 in which every element is its own inverse:
# a loop of order 5 that is not a group
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_nonassociative_loop_rejected():
    assert associativity_failure(LOOP5) == (1, 1, 2)
    assert group_axiom_failure(LOOP5) == "associativity"
    with pytest.raises(nc.InvalidTable, match="associativity fails"):
        nc.from_table(LOOP5)


def test_nonassociativity_seen_only_past_the_first_generator():
    # C2 x LOOP5 with the C2 coordinate fastest: the first greedy generator is
    # (1, e), which is central, so only a later generator shows the failure
    rows = [[LOOP5[x // 2][y // 2] * 2 + (x + y) % 2 for y in range(10)] for x in range(10)]
    first = _greedy_generators(rows, 0)[0]
    assert all(
        rows[rows[x][y]][first] == rows[x][rows[y][first]] for x in range(10) for y in range(10)
    )
    assert group_axiom_failure(rows) == "associativity"
    with pytest.raises(nc.InvalidTable, match="associativity fails"):
        nc.from_table(rows)


# the message of each check of from_table, keyed by the oracle's verdict
AXIOM_MESSAGE = {
    "identity": "no unique two-sided identity",
    "associativity": "associativity fails",
    "inverse": "has no two-sided inverse",
}


def assert_rejected_exactly_when_not_a_group(rows):
    """Check from_table against the cubic oracle; return the oracle's verdict."""
    reason = group_axiom_failure(rows)
    if reason is None:
        nc.from_table(rows)
    else:
        with pytest.raises(nc.InvalidTable, match=AXIOM_MESSAGE[reason]):
            nc.from_table(rows)
    return reason


@pytest.mark.parametrize("spec", CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS))
def test_constructor_tables_pass_the_cubic_check(spec):
    assert group_axiom_failure(lattice(spec).group.table) is None


@pytest.mark.parametrize("spec", ("symmetric:3", "dihedral:8", "cyclic:6"))
def test_every_one_entry_corruption_rejected(spec):
    # Light's test checks only greedy generators as the third factor; many of
    # these tables first fail the cubic scan at a third factor outside them
    G = lattice(spec).group
    perm = list(range(G.order))
    random.Random(spec).shuffle(perm)
    table = relabeled_rows(G, perm)
    outside = 0
    for a, b, v in itertools.product(range(G.order), repeat=3):
        if v == table[a][b]:
            continue
        rows = [list(r) for r in table]
        rows[a][b] = v
        if assert_rejected_exactly_when_not_a_group(rows) == "associativity":
            c = associativity_failure(rows)[2]
            outside += c not in _greedy_generators(rows, perm[G.identity])
    assert outside > 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS)),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_corrupted_table_rejected_exactly_when_not_a_group(spec, rng, corrupt):
    G = lattice(spec).group
    perm = list(range(G.order))
    rng.shuffle(perm)
    rows = relabeled_rows(G, perm)
    if corrupt:
        a, b = rng.randrange(G.order), rng.randrange(G.order)
        rows[a][b] = rng.randrange(G.order)
    assert_rejected_exactly_when_not_a_group(rows)


def test_unsupported_specs():
    for bad in ("cyclic", "cyclic:x", "socle:3", "symmetric:6", "dihedral:7", ""):
        with pytest.raises(nc.UnsupportedSpec):
            nc.build_group(bad)


def test_group_too_large():
    with pytest.raises(nc.GroupTooLarge):
        nc.subgroup_lattice(nc.symmetric(5))
    # build_group is unbounded unless given a bound, which it checks per
    # factor and on the product before building anything
    assert nc.build_group("cyclic:65").order == 65
    for spec in ("cyclic:65", "cyclic:8*cyclic:9", "symmetric:5", "cyclic:10000000000"):
        with pytest.raises(nc.GroupTooLarge):
            nc.build_group(spec, max_order=64)
    assert nc.build_group("cyclic:8*cyclic:8", max_order=64).order == 64
    with pytest.raises(nc.UnsupportedSpec):
        nc.build_group("symmetric:6", max_order=64)


def test_direct_product_order_and_lattice():
    G = nc.build_group("cyclic:2*cyclic:2")
    assert G.order == 4
    L = nc.subgroup_lattice(G)
    assert len(L) == 5  # Klein four group: trivial, three C2, total


@pytest.mark.parametrize(
    "spec", CORPUS_SPECS + ("cyclic:2*cyclic:2", "symmetric:5") + tuple(DECIDE_MIX_GENERATORS)
)
def test_lattice_matches_small_generating_set_oracle(spec):
    # every subgroup of S5 is generated by two elements
    L = nc.subgroup_lattice(nc.build_group(spec), max_order=120)
    max_gen = {**DECIDE_MIX_GENERATORS, "symmetric:5": 2}.get(spec, 3)
    assert {s.mask for s in L.subgroups} == brute_force_subgroup_masks(L.group, max_gen)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(("dihedral:64", "symmetric:4")), st.randoms(use_true_random=False))
def test_lattice_shape_stable_under_relabeling(spec, rng):
    # renaming elements reorders the joins of the search, not what they find
    L = lattice(spec)
    perm = list(range(L.group.order))
    rng.shuffle(perm)
    LH = nc.subgroup_lattice(relabeled(L.group, perm))

    def shape(L):
        return sorted((L.subgroups[c[0]].order, len(c)) for c in L.classes)

    assert shape(LH) == shape(L)
    assert len(LH.covers()) == len(L.covers())


def test_lattice_order_and_conjugacy_invariants():
    for spec in CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS):
        L = lattice(spec)
        keys = [(s.order, s.members) for s in L.subgroups]
        assert keys == sorted(keys)
        assert L.bottom.order == 1 and L.top.order == L.group.order
        for cls in L.classes:
            orders = {L.subgroups[i].order for i in cls}
            assert len(orders) == 1
        G = L.group
        for s in L.subgroups:
            row = L.conj[s.lattice_id]
            assert row == tuple(L.id_of_mask(G.conj_mask(s.mask, g)) for g in range(G.order))
            assert L.class_members(s.lattice_id) == tuple(sorted(set(row)))


def test_conjugation_table_conjugates_by_generators_only(monkeypatch):
    # each element past a greedy generating set at least doubles its span, so
    # the table needs at most log2 |G| columns of conj_mask calls; a central
    # generator needs none, so an abelian group makes no call at all
    calls = 0
    conj_mask = nc.FiniteGroup.conj_mask

    def counted(G, mask, g):
        nonlocal calls
        calls += 1
        return conj_mask(G, mask, g)

    monkeypatch.setattr(nc.FiniteGroup, "conj_mask", counted)
    for spec, abelian in (("symmetric:4", False), ("dihedral:64", False),
                          ("cyclic:2*cyclic:2*cyclic:2*cyclic:2", True)):
        calls = 0
        L = nc.subgroup_lattice(nc.build_group(spec))
        if abelian:
            assert calls == 0
        else:
            assert 0 < calls <= (L.group.order.bit_length() - 1) * len(L)


@pytest.mark.parametrize(
    "spec",
    CORPUS_SPECS + ("dihedral:64", "symmetric:4", "cyclic:2*cyclic:2*cyclic:2*cyclic:2"),
)
def test_covers_match_definition(spec):
    L = lattice(spec)
    assert L.covers() == covers_by_definition(L)


def test_conjugate_transposition_in_s3():
    # <(12)> conjugated by (123) is <(23)>
    L = lattice("symmetric:3")
    g12 = perm_index(3, (1, 0, 2))
    g123 = perm_index(3, (1, 2, 0))
    g23 = perm_index(3, (0, 2, 1))
    H = L.subgroups[L.id_of_mask((1 << 0) | (1 << g12))]
    out = L.subgroups[L.conj_id(H.lattice_id, g123)]
    assert out.mask == (1 << 0) | (1 << g23)


def test_conjugation_trivial_cases():
    L = lattice("cyclic:4")
    for s in L.subgroups:
        assert L.conj_id(s.lattice_id, L.group.identity) == s.lattice_id
        for g in range(4):
            assert L.conj_id(s.lattice_id, g) == s.lattice_id  # abelian


def test_double_cosets_in_c4():
    L = lattice("cyclic:4")
    c2, c4 = L.subgroups[1], L.subgroups[2]
    assert len(L.mackey_cuts(c2.lattice_id, c2.lattice_id, c4.lattice_id)) == 2


def test_double_cosets_transposition_in_s3():
    L = lattice("symmetric:3")
    g12 = perm_index(3, (1, 0, 2))
    K = L.subgroups[L.id_of_mask((1 << 0) | (1 << g12))]
    top = L.top
    blocks = L.double_coset_blocks(K.lattice_id, K.lattice_id, top.lattice_id)
    assert sorted(len(b) for b in blocks) == [2, 4]
    assert len(L.mackey_cuts(K.lattice_id, K.lattice_id, top.lattice_id)) == 2


def test_double_cosets_edge_cases():
    L = lattice("symmetric:3")
    bottom, top = L.bottom.lattice_id, L.top.lattice_id
    assert [r for r, _ in L.mackey_cuts(bottom, top, top)] == [0]
    with pytest.raises(nc.NotSubgroupOfAmbient):
        L.mackey_cuts(top, bottom, 1)


def test_double_cosets_partition_and_orbit_stabilizer():
    rng = random.Random(7)
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        n = len(L)
        for _ in range(20):
            aid = rng.randrange(n)
            inside = [i for i in range(n) if L.leq(i, aid)]
            kid, hid = rng.choice(inside), rng.choice(inside)
            blocks = L.double_coset_blocks(kid, hid, aid)
            elems = sorted(x for b in blocks for x in b)
            assert elems == list(L.subgroups[aid].members)
            K, H = L.subgroups[kid], L.subgroups[hid]
            cuts = L.mackey_cuts(kid, hid, aid)
            assert len(cuts) == len(blocks)
            for b, cut in zip(blocks, cuts):
                r = b[0]
                stab = L.intersect_ids(L.conj_id(kid, r), hid)
                assert len(b) == K.order * H.order // L.subgroups[stab].order
                assert cut == (r, stab)
                # any element of the block gives a cut H-conjugate to stab
                conjugates = {L.conj_id(stab, y) for y in H.members}
                for x in b:
                    assert L.intersect_ids(L.conj_id(kid, x), hid) in conjugates


@pytest.mark.parametrize("spec", CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS))
def test_double_cosets_match_the_product_oracle(spec):
    # the coset-mask walk against all |K|·|J| products, on every nested triple;
    # Mackey cuts take the coset sweep of KJ when K is normal in H and the walk
    # over K otherwise, and the non-abelian decide-mix groups reach both,
    # with K normal in H but not in G among the sweeps
    L = lattice(spec)
    n = len(L)
    normal_in_h_only = not_normal_in_h = 0
    for hid in range(n):
        inside = [i for i in range(n) if L.leq(i, hid)]
        for kid, jid in itertools.product(inside, repeat=2):
            assert L.double_coset_blocks(kid, jid, hid) == product_double_coset_blocks(
                L, kid, jid, hid
            )
            assert L.mackey_cuts(kid, jid, hid) == product_mackey_cuts(L, kid, jid, hid)
            normal_in_h = all(L.conj_id(kid, h) == kid for h in L.subgroups[hid].members)
            normal_in_h_only += normal_in_h and not L.is_normal(kid)
            not_normal_in_h += not normal_in_h
    if spec in ("dihedral:64", "symmetric:4", "dihedral:16*cyclic:2"):
        assert normal_in_h_only > 0 and not_normal_in_h > 0


# least elements of cosets move with the element labels, so the oracles of
# the per-pair Mackey cuts and the coset leads also run on two relabellings
RELABELED_SPECS = ("relabeled:symmetric:4", "relabeled:dihedral:16*cyclic:2")


def oracle_lattice(spec):
    """The lattice of ``spec``, or of a fixed relabelling of its group for ``relabeled:``."""
    _, _, base = spec.partition("relabeled:")
    if not base:
        return lattice(spec)
    G = lattice(base).group
    perm = list(range(G.order))
    random.Random(spec).shuffle(perm)
    return nc.subgroup_lattice(relabeled(G, perm))


@pytest.mark.parametrize(
    "spec", CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS) + RELABELED_SPECS
)
def test_pair_mackey_cuts_match_the_product_oracle(spec):
    # every strict pair at every J below H, in id order, against the
    # |K|·|J| products; the non-abelian groups reach both the coset sweep
    # (K normal in H) and the walk
    L = oracle_lattice(spec)
    normal = walked = 0
    for hid in range(len(L)):
        below = L.down[hid]
        for kid in _bits(below & ~(1 << hid)):
            assert L.pair_mackey_cuts(kid, hid, below) == [
                product_mackey_cuts(L, kid, jid, hid) for jid in _bits(below)
            ]
            if L.down[L.normalizer[kid]] >> hid & 1:
                normal += 1
            else:
                walked += 1
    assert normal > 0
    if "symmetric:4" in spec or "dihedral" in spec:
        assert walked > 0
    with pytest.raises(nc.NotSubgroupOfAmbient):
        L.pair_mackey_cuts(L.top.lattice_id, L.bottom.lattice_id, 1)


@pytest.mark.parametrize(
    "spec", CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS) + RELABELED_SPECS
)
def test_coset_leads_are_the_least_coset_members(spec):
    L = oracle_lattice(spec)
    G = L.group
    for sid, s in enumerate(L.subgroups):
        least = {min(G.mul(x, j) for j in s.members) for x in range(G.order)}
        assert L.coset_leads[sid] == sum(1 << x for x in least)


@pytest.mark.parametrize("spec", CORPUS_SPECS + tuple(DECIDE_MIX_GENERATORS))
def test_normalizer_matches_its_definition(spec):
    # N_G(K) is the g with K^g = K, read off the conjugation table
    L = lattice(spec)
    for kid in range(len(L)):
        stabilizer = sum(1 << g for g in range(L.group.order) if L.conj[kid][g] == kid)
        assert L.subgroups[L.normalizer[kid]].mask == stabilizer


def test_coset_masks_and_inclusion_index_by_definition():
    for spec in ("symmetric:3", "dihedral:8", "cyclic:2*cyclic:2", "symmetric:4"):
        L = lattice(spec)
        G = L.group
        n = len(L)
        covers = covers_by_definition(L)
        for sid, s in enumerate(L.subgroups):
            cosets = L.coset_masks(sid)
            assert cosets == tuple(
                sum({1 << G.mul(x, j) for j in s.members}) for x in range(G.order)
            )
            assert L.coset_masks(sid) is cosets  # built with the lattice
            assert L.up[sid] == sum(1 << h for h in range(n) if L.leq(sid, h))
            assert L.down[sid] == sum(1 << k for k in range(n) if L.leq(k, sid))
            assert L.cover_masks[sid] == sum(1 << h for k, h in covers if k == sid)
        assert L.class_masks == tuple(
            sum(1 << j for j in range(n) if L.class_of[j] == c) for c in range(len(L.classes))
        )


def test_lattice_and_group_are_read_only():
    L = nc.subgroup_lattice(nc.build_group("symmetric:3"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        L.names = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        L.group.name = "G"


@pytest.mark.parametrize(
    "spec", CORPUS_SPECS + ("symmetric:5", "cyclic:2*cyclic:2*cyclic:2*cyclic:2*cyclic:2")
)
def test_inclusion_index_matches_the_scans(spec):
    # covers, strict pairs and the classes below each H, read off the index,
    # against the quadratic scans over every pair of subgroup masks
    L = nc.subgroup_lattice(nc.build_group(spec), max_order=120)
    assert list(L.up) == up_sets_by_scan(L)
    assert L.covers() == covers_by_up_scan(L)
    assert candidate_pairs(L) == candidate_pairs_by_scan(L)
    for hid in range(len(L)):
        below = L.down[hid]
        assert classes_below_by_scan(L, hid) == tuple(
            (c, tuple(j for j in L.classes[c] if below >> j & 1))
            for c, members in enumerate(L.class_masks)
            if members & below
        )


def test_intersect_and_subconjugate():
    L = lattice("symmetric:3")
    g12 = perm_index(3, (1, 0, 2))
    g13 = perm_index(3, (2, 1, 0))
    a = L.id_of_mask((1 << 0) | (1 << g12))
    b = L.id_of_mask((1 << 0) | (1 << g13))
    bottom, top = L.bottom.lattice_id, L.top.lattice_id
    assert L.intersect_ids(a, b) == bottom
    assert L.intersect_ids(a, a) == a
    g = subconjugate_witness(L, a, b)
    assert g is not None and L.conj_id(a, g) == b
    assert subconjugate_witness(L, bottom, a) == 0
    assert subconjugate_witness(L, top, a) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS_SPECS), st.data())
def test_conjugation_is_an_order_isomorphism(spec, data):
    L = lattice(spec)
    sid = data.draw(st.integers(0, len(L) - 1))
    g = data.draw(st.integers(0, L.group.order - 1))
    out = L.conj_id(sid, g)
    assert L.subgroups[out].order == L.subgroups[sid].order
    assert L.conj_id(out, L.group.inv(g)) == sid


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CORPUS_SPECS), st.randoms(use_true_random=False))
@example("symmetric:3", random.Random(11))
def test_double_cosets_stable_under_relabeling(spec, rng):
    # subgroups, class sizes, double cosets of every nested triple, the
    # transfer-system count and decide verdicts survive renaming elements
    L = lattice(spec)
    G = L.group
    perm = list(range(G.order))
    rng.shuffle(perm)
    LH = nc.subgroup_lattice(relabeled(G, perm))

    def transport(mask):
        out = 0
        for i in range(G.order):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    assert {transport(s.mask) for s in L.subgroups} == {s.mask for s in LH.subgroups}
    to = [LH.id_of_mask(transport(s.mask)) for s in L.subgroups]
    assert sorted(map(len, L.classes)) == sorted(map(len, LH.classes))
    n = len(L)
    for aid in range(n):
        inside = [i for i in range(n) if L.leq(i, aid)]
        for kid, hid in itertools.product(inside, repeat=2):
            blocks = L.double_coset_blocks(kid, hid, aid)
            blocks2 = LH.double_coset_blocks(to[kid], to[hid], to[aid])
            transported = sorted(tuple(sorted(perm[x] for x in b)) for b in blocks)
            assert transported == sorted(blocks2)
            cuts2 = LH.mackey_cuts(to[kid], to[hid], to[aid])
            assert len(L.mackey_cuts(kid, hid, aid)) == len(cuts2)
    assert len(nc.enumerate_transfer_systems(LH)) == len(enumeration(spec))

    vl = random_valid_locus(L, rng)
    class_to = [LH.class_of[to[members[0]]] for members in L.classes]
    vl2 = nc.vanishing_locus(
        LH, [nc.BalmerPrime(class_to[q.subgroup_class], q.height, q.prime) for q in vl.primes]
    )
    for system in (nc.complete_system, nc.trivial_system):
        d1 = nc.localization_preserves(vl, system(L))
        d2 = nc.localization_preserves(vl2, system(LH))
        assert d1.verdict == d2.verdict and len(d1.witnesses) == len(d2.witnesses)


def test_table_csv_round_trip(tmp_path):
    G = nc.cyclic(6)
    path = tmp_path / "c6.csv"
    path.write_text("\n".join(",".join(str(x) for x in row) for row in G.table))
    H = nc.build_group(f"table:{path}")
    assert H.order == 6 and H.table == G.table
    assert H.name == "c6"


def test_table_name_is_the_file_base_name(tmp_path):
    # only the platform's separator splits a table: path, so on POSIX a
    # backslash is part of the file name and so of the group name
    rows = "\n".join(",".join(map(str, row)) for row in nc.cyclic(3).table)
    for file, name in (("a\\b.csv", "a\\b"), ("\\C3.v2.csv", "\\C3.v2"), (".csv", "G")):
        (tmp_path / file).write_text(rows)
        assert nc.build_group(f"table:{tmp_path / file}").name == name


@pytest.mark.parametrize("rows, message", [
    ([], "empty multiplication table"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
    ([[0, 2], [1, 0]], "entry 2 in row 0 out of range 0..1"),
])
def test_from_table_rejects_malformed_tables(rows, message):
    with pytest.raises(nc.InvalidTable, match=f"^{message}$"):
        nc.from_table(rows)


def test_direct_product_needs_two_factors():
    with pytest.raises(nc.UnsupportedSpec, match="at least two factors"):
        nc.direct_product(nc.cyclic(2))


def test_quaternion_spec_takes_only_order_8():
    with pytest.raises(nc.UnsupportedSpec, match="only quaternion:8 is supported"):
        nc.build_group("quaternion:4")


def test_blank_table_csv_lines_are_skipped(tmp_path):
    table = tmp_path / "C2.csv"
    table.write_text("\n0,1\n\n1,0\n\n")
    for bound in (None, 64):
        G = nc.build_group(f"table:{table}", max_order=bound)
        assert (G.name, G.table) == ("C2", ((0, 1), (1, 0)))


def test_double_cosets_need_both_factors_inside_the_ambient():
    L = lattice("symmetric:3")
    c2 = next(s.lattice_id for s in L.subgroups if s.order == 2)
    c3 = next(s.lattice_id for s in L.subgroups if s.order == 3)
    for kid, hid in ((c2, 0), (0, c2)):
        with pytest.raises(nc.NotSubgroupOfAmbient, match="need K, H <= A"):
            L.double_coset_blocks(kid, hid, c3)
    assert L.double_coset_blocks(0, 0, c3) == tuple((x,) for x in L.subgroups[c3].members)
