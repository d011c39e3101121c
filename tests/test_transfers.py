import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normcert as nc
from normcert import groups, io as iomod
from normcert.transfers import (
    DEFAULT_MAX_PAIRS, TransferSystem, _OrbitTables, candidate_pairs,
)
from helpers import (
    CORPUS_SPECS,
    DECIDE_MIX_GROUPS,
    assert_attributes_unchanged,
    attributes,
    brute_force_transfer_systems,
    conjugate_gset,
    enumeration,
    g_set,
    gset_cardinality,
    independent_transfer_valid,
    indexing_closure_oracle,
    is_admissible,
    lattice,
    next_closure_enumeration,
    product_gset,
    reflexive_pair_sets,
    reflexive_pairs,
    relabeled,
    set_bits_by_scan,
    unbounded_enumeration,
    worklist_closure,
)

BRUTE_FORCE_SPECS = (
    "cyclic:2", "cyclic:4", "cyclic:8", "cyclic:27", "symmetric:3", "cyclic:6", "quaternion:8",
)


def ids_by_order(L):
    return {L.subgroups[i].order: i for i in range(len(L))}


DECIDE_MIX_SPECS = tuple(spec for _, spec in DECIDE_MIX_GROUPS)


@pytest.mark.parametrize("spec", CORPUS_SPECS + DECIDE_MIX_SPECS)
def test_strict_pairs_are_the_sorted_strict_pairs(spec):
    # strict_pairs against a sort of the pair set, on the trivial and complete
    # systems, random closures and a set of nested pairs that is not a
    # transfer system at all; a pair that is not nested has no bit
    L = lattice(spec)
    rng = random.Random(spec)
    candidates, nested = candidate_pairs(L), L.nested_pairs
    systems = [nc.trivial_system(L), nc.complete_system(L)]
    systems += [nc.close_transfer_system(L, [rng.choice(candidates)]) for _ in range(3)]
    stray = rng.sample(nested, min(8, len(nested)))
    systems.append(TransferSystem.from_pairs(L, stray))
    assert systems[-1].pairs == frozenset(stray)
    for R in systems:
        assert R.strict_pairs() == tuple(sorted(p for p in R.pairs if p[0] != p[1]))
        assert len(R) == R.mask.bit_count() == len(R.pairs)
    with pytest.raises(ValueError):
        TransferSystem.from_pairs(L, stray + [(len(L) - 1, 0)])


@pytest.mark.parametrize("spec", CORPUS_SPECS + DECIDE_MIX_SPECS)
def test_pair_masks_round_trip(spec):
    # bit r of a mask against the rank r of a sort of every nested pair,
    # found by comparing the element masks of each pair of subgroups, and
    # the lattice's pair index against the same sort; from_pairs inverts
    # pairs, and closing an enumerated system's pairs (on the groups under
    # the pair bound) gives its mask back
    L = lattice(spec)
    masks = [s.mask for s in L.subgroups]
    nested = sorted((k, h) for k, a in enumerate(masks) for h, b in enumerate(masks)
                    if a & ~b == 0)
    rank = {p: r for r, p in enumerate(nested)}
    assert L.nested_pairs == tuple(nested)
    assert L.pair_offsets == tuple(
        [rank[k, k] for k in range(len(L))] + [len(nested)])
    assert L.reflexive_mask == sum(1 << rank[k, k] for k in range(len(L)))
    assert nc.complete_system(L).mask == (1 << len(nested)) - 1
    assert nc.trivial_system(L).pairs == reflexive_pairs(L)
    rng = random.Random(f"round-trip:{spec}")
    systems = [nc.trivial_system(L), nc.complete_system(L)]
    systems += [nc.close_transfer_system(L, rng.sample(candidate_pairs(L), 2)) for _ in range(3)]
    enumerated = ()
    if len(candidate_pairs(L)) <= DEFAULT_MAX_PAIRS:
        enumerated = enumeration(spec).systems
    for R in systems + list(enumerated):
        assert R.mask == sum(1 << rank[p] for p in R.pairs)
        assert TransferSystem.from_pairs(L, R.pairs).mask == R.mask
    for s in enumerated:
        assert nc.close_transfer_system(L, s.pairs).mask == s.mask


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:8", "cyclic:2*cyclic:4"])
def test_decoded_pairs_are_the_lattice_index_entries(spec):
    # decoding a mask picks entries of L.nested_pairs and builds no pair
    # tuple of its own, on the dense and sparse branches of _bits alike
    L = lattice(spec)
    rng = random.Random(f"decode:{spec}")
    systems = [nc.trivial_system(L), nc.complete_system(L),
               nc.close_transfer_system(L, rng.sample(candidate_pairs(L), 2))]
    rank = {p: r for r, p in enumerate(L.nested_pairs)}
    for R in systems:
        for pair in R.sorted_pairs() + R.strict_pairs():
            assert pair is L.nested_pairs[rank[pair]]


def test_subgroup_ids_outside_the_lattice_are_not_nested():
    # S3 has 6 subgroups and 15 nested pairs.  Id -1 would wrap to the top
    # in a list index and shift 15 in a rank, past every pair; id 6 has no
    # up-set row.  Both systems and closures raise ValueError on either
    L = lattice("symmetric:3")
    assert len(L) == 6 and len(nc.complete_system(L)) == 15
    for pair in ((-1, 5), (6, 5), (0, -1), (0, 6), (-6, 5), (5, 6)):
        with pytest.raises(ValueError, match="is not nested"):
            TransferSystem.from_pairs(L, [pair])
        with pytest.raises(ValueError, match="is not nested"):
            nc.close_transfer_system(L, [pair])


def test_a_mask_too_long_for_decimal_digits_has_a_repr():
    # the C2^6 complete operad's mask has 95,706 bits, far past the 4300
    # decimal digits str() of an int allows by default
    R = TransferSystem(lattice("cyclic:4"), (1 << 95706) - 1)
    assert repr(R).endswith(f", mask={R.mask:#x})")


def test_complete_and_trivial_are_valid():
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        assert nc.validate_transfer_system(nc.complete_system(L)) == []
        assert nc.validate_transfer_system(nc.trivial_system(L)) == []


def test_missing_restriction_reported_on_cp2():
    # refl + (e, C_{p^2}) alone: restricting to C_p demands (e, C_p)
    for spec in ("cyclic:4", "cyclic:9"):
        L = lattice(spec)
        bad = TransferSystem.from_pairs(L, reflexive_pairs(L) | {(0, 2)})
        violations = nc.validate_transfer_system(bad)
        assert violations
        restriction = [v for v in violations if v.axiom == "restriction"]
        assert restriction and restriction[0].witness == (0, 2, (0, 1))


def test_close_seed_on_cp2():
    for spec in ("cyclic:4", "cyclic:9"):
        L = lattice(spec)
        closed = nc.close_transfer_system(L, [(0, 2)])
        assert closed.pairs == reflexive_pairs(L) | {(0, 1), (0, 2)}
        assert nc.validate_transfer_system(closed) == []


def test_close_empty_seed_is_trivial():
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        assert nc.close_transfer_system(L, []) == nc.trivial_system(L)


def test_close_reflection_seed_on_s3():
    L = lattice("symmetric:3")
    by_order = ids_by_order(L)
    reflections = [i for i in range(len(L)) if L.subgroups[i].order == 2]
    closed = nc.close_transfer_system(L, [(reflections[0], by_order[6])])
    # conjugation brings in the other reflections, restriction pushes down
    for r in reflections:
        assert (r, by_order[6]) in closed.pairs
        assert (0, r) in closed.pairs
    assert (0, by_order[3]) in closed.pairs
    assert (0, by_order[6]) in closed.pairs
    assert (by_order[3], by_order[6]) not in closed.pairs
    assert nc.validate_transfer_system(closed) == []
    # minimality against every valid superset of the seed
    seed = {(reflections[0], by_order[6])}
    for pairs in brute_force_transfer_systems(L):
        if seed <= pairs:
            assert closed.pairs <= pairs


def test_close_rejects_non_nested_seed():
    # closures keep no state on the lattice: a second round on the same
    # lattice sees it exactly as the first did
    L = nc.subgroup_lattice(nc.build_group("symmetric:3"))
    before = attributes(L)
    want = worklist_closure(L, [(1, 5)])
    for _ in range(2):
        # (5, 0) reverses S3 > e; (1, 4) puts a reflection under C3
        for seed in ([(5, 0)], [(1, 4)], [(1, 5), (1, 4)], [(0, 0), (2, 4)]):
            with pytest.raises(ValueError):
                nc.close_transfer_system(L, seed)
        closed = nc.close_transfer_system(L, [(1, 5)])
        assert closed.pairs == want
    assert_attributes_unchanged(L, before)


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:8", "cyclic:2*cyclic:4"])
def test_closures_and_enumeration_on_one_lattice_match_fresh_lattices(spec):
    # close, enumerate, close again on one lattice; each result equals the
    # same call on a lattice of its own, and the lattice keeps its attributes
    def fresh():
        return nc.subgroup_lattice(nc.build_group(spec))

    L = fresh()
    before = attributes(L)
    strict = candidate_pairs(L)
    seeds = [[strict[0]], [strict[-1], strict[len(strict) // 2]]]
    first = [nc.close_transfer_system(L, s).pairs for s in seeds]
    systems = [R.pairs for R in nc.enumerate_transfer_systems(L).systems]
    again = [nc.close_transfer_system(L, s).pairs for s in seeds]
    fresh_closures = [nc.close_transfer_system(fresh(), s).pairs for s in seeds]
    assert first == again == fresh_closures
    assert systems == [R.pairs for R in nc.enumerate_transfer_systems(fresh()).systems]
    assert_attributes_unchanged(L, before)


@pytest.mark.parametrize("spec", BRUTE_FORCE_SPECS)
def test_closure_is_least_brute_force_system(spec):
    # every seed of at most two candidate pairs closes to the least valid
    # pair set containing it
    L = lattice(spec)
    systems = brute_force_transfer_systems(L)
    strict = candidate_pairs(L)
    seeds = [()] + [(p,) for p in strict] + list(itertools.combinations(strict, 2))
    for seed in seeds:
        above = [P for P in systems if set(seed) <= P]
        least = min(above, key=len)
        assert all(least <= P for P in above)
        assert nc.close_transfer_system(L, seed).pairs == least


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS_SPECS), st.data())
def test_closing_from_a_closed_set_closes_from_scratch(spec, data):
    # the invariant Close-by-One rests on: from a closed orbit set A, adding
    # orbit i and joining only i's consequences gives the closure of A + i
    L = lattice(spec)
    strict = candidate_pairs(L)
    tables = _OrbitTables(L)
    seed = data.draw(st.lists(st.sampled_from(strict), max_size=3))
    i = data.draw(st.integers(0, len(tables.members) - 1))
    mask = 0
    for p in seed:
        mask |= 1 << tables.orbit_of[p]
    closed = tables.close(mask)
    assert tables.close(closed) == closed
    child = tables.close(1 << i, closed)
    assert child == tables.close(closed | 1 << i)
    pairs = reflexive_pairs(L).union(*[tables.members[a] for a in set_bits_by_scan(child)])
    assert pairs == worklist_closure(L, seed + [tables.members[i][0]])
    reflexive = nc.trivial_system(L).mask
    assert sum(tables.pair_masks(child), reflexive) == TransferSystem.from_pairs(L, pairs).mask
    # a stop mask only ever cuts the closure short when the child meets it
    below = (1 << i) - 1
    stopped = tables.close(1 << i, closed, below)
    assert stopped == (child if (child ^ closed) & below == 0 else None)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_the_sweeps_match_the_orbit_tables(spec):
    # close_transfer_system and the enumeration's orbit tables, each the
    # oracle of the other, on random seeds of up to four strict pairs
    L = lattice(spec)
    tables, strict = _OrbitTables(L), candidate_pairs(L)
    rng = random.Random(f"sweeps:{spec}")
    for _ in range(30):
        seed = rng.sample(strict, rng.randint(1, min(4, len(strict))))
        orbits = tables.close(sum({1 << tables.orbit_of[p] for p in seed}))
        mask = sum(tables.pair_masks(orbits), L.reflexive_mask)
        assert nc.close_transfer_system(L, seed).mask == mask


@pytest.mark.parametrize("short,spec", DECIDE_MIX_GROUPS)
def test_the_sweeps_match_the_worklist_on_relabelled_groups(short, spec):
    # the decide-mix groups and a seeded relabelling of each, which moves the
    # ids the sweeps walk in order: random seeds of up to five nested pairs
    L = lattice(spec)
    perm = list(range(L.group.order))
    random.Random(f"relabel:{short}").shuffle(perm)
    for M in (L, nc.subgroup_lattice(relabeled(L.group, perm))):
        rng = random.Random(f"sweeps:{short}")
        for _ in range(6):
            seed = rng.sample(M.nested_pairs, rng.randint(1, 5))
            R = nc.close_transfer_system(M, seed)
            assert R.pairs == worklist_closure(M, seed)
            assert nc.validate_transfer_system(R) == []


def test_the_complete_system_of_the_largest_lattice_closes_small():
    # C2^6, the largest lattice under the order bound (2825 subgroups,
    # 95,706 nested pairs): three seeds whose closure is every pair, the
    # last a parsed operad document, each closed in about a second
    L = groups.lattice_of("*".join(["cyclic:2"] * 6))
    complete = nc.complete_system(L)
    assert nc.close_transfer_system(L, [(k, len(L) - 1) for k in range(len(L))]) == complete
    assert nc.close_transfer_system(L, L.nested_pairs) == complete
    assert iomod.parse_system(L, iomod.system_doc(complete)) == complete


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("symmetric:4", "dihedral:16*cyclic:2", "dihedral:64")),
    st.data(),
)
def test_closure_properties_on_large_lattices(spec, data):
    L = lattice(spec)
    strict = candidate_pairs(L)
    seed = data.draw(st.lists(st.sampled_from(strict), max_size=3))
    more = data.draw(st.lists(st.sampled_from(strict), max_size=2))
    closed = nc.close_transfer_system(L, seed).pairs
    assert set(seed) | reflexive_pairs(L) <= closed
    assert nc.close_transfer_system(L, closed).pairs == closed
    assert closed <= nc.close_transfer_system(L, seed + more).pairs
    assert closed == worklist_closure(L, seed)


@pytest.mark.parametrize(
    "spec,count",
    [
        ("cyclic:2", 2),
        ("cyclic:3", 2),
        ("cyclic:4", 5),
        ("cyclic:9", 5),
        ("cyclic:1", 1),
        # C_{p^n} has Catalan(n+1) transfer systems (Balchin-Barnes-Roitzheim)
        ("cyclic:8", 14),
        ("cyclic:16", 42),
        ("cyclic:27", 14),
        ("cyclic:25", 5),
        ("cyclic:32", 132),
        ("cyclic:64", 429),
    ],
)
def test_enumeration_counts_on_chains(spec, count):
    assert len(enumeration(spec)) == count


def test_enumeration_cp2_exact_shape():
    # subsets of {eA, eB, AB} closed under eB => eA and (eA and AB) => eB
    L = lattice("cyclic:4")
    refl = reflexive_pairs(L)
    eA, eB, AB = (0, 1), (0, 2), (1, 2)
    expected = sorted(
        [
            frozenset(refl),
            frozenset(refl | {eA}),
            frozenset(refl | {AB}),
            frozenset(refl | {eA, eB}),
            frozenset(refl | {eA, eB, AB}),
        ],
        key=lambda s: (len(s), sorted(s)),
    )
    assert [s.pairs for s in enumeration("cyclic:4").systems] == expected


@pytest.mark.parametrize("spec", BRUTE_FORCE_SPECS)
def test_validation_agrees_with_independent_check(spec):
    # restriction by intersection plus the separate conjugation check finds
    # a violation exactly when the element-by-element definition fails
    L = lattice(spec)
    for pairs in reflexive_pair_sets(L):
        valid = not nc.validate_transfer_system(TransferSystem.from_pairs(L, pairs))
        assert valid == independent_transfer_valid(L, pairs), sorted(pairs)


@pytest.mark.parametrize("spec", BRUTE_FORCE_SPECS)
def test_enumeration_matches_brute_force(spec):
    got = [s.pairs for s in enumeration(spec).systems]
    assert got == brute_force_transfer_systems(lattice(spec))


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_enumeration_is_complete_and_valid(spec):
    # closure(0) is the bottom; adding any pair to a member and closing
    # lands back in the list, which certifies completeness
    L = lattice(spec)
    enum = enumeration(spec)
    found = {s.pairs for s in enum.systems}
    assert nc.trivial_system(L).pairs in found
    assert nc.complete_system(L).pairs in found
    for s in enum.systems:
        assert nc.validate_transfer_system(s) == []
        for pair in candidate_pairs(L):
            if pair not in s.pairs:
                assert nc.close_transfer_system(L, s.pairs | {pair}).pairs in found


@pytest.mark.parametrize(
    "spec", CORPUS_SPECS + ("dihedral:16", "cyclic:2*cyclic:8", "symmetric:4")
)
def test_enumeration_matches_next_closure(spec):
    # Close-by-One ranked on masks against next-closure ranked on sorted
    # pair lists: the same systems in the same order, the same pair masks,
    # the same containment
    got = unbounded_enumeration(spec)
    want = next_closure_enumeration(lattice(spec))
    assert got.masks == want.masks
    assert got.systems == want.systems
    assert got.up == want.up


@pytest.mark.parametrize(
    "spec, count",
    [("dihedral:16", 6528), ("cyclic:2*cyclic:8", 8105), ("symmetric:4", 8691)],
)
def test_enumeration_counts_above_the_pair_bound(spec, count):
    # counts past DEFAULT_MAX_PAIRS, checked on samples: emitted systems
    # validate, intersections of two stay in the set, and closures of
    # two-pair seeds agree with the worklist oracle and are in the set
    L = lattice(spec)
    cand = sorted(candidate_pairs(L))
    systems = unbounded_enumeration(spec).systems
    assert len(systems) == count
    found = {s.pairs for s in systems}
    rng = random.Random(53)
    for s in rng.sample(systems, 200):
        assert nc.validate_transfer_system(s) == []
    for _ in range(200):
        a, b = rng.sample(systems, 2)
        assert a.pairs & b.pairs in found
    for _ in range(20):
        seed = rng.sample(cand, 2)
        closed = nc.close_transfer_system(L, seed).pairs
        assert closed == worklist_closure(L, seed)
        assert closed in found


def test_enumeration_poset_bottom_top():
    for spec in CORPUS_SPECS:
        enum = enumeration(spec)
        n = len(enum.systems)
        assert all(enum.up[0] >> j & 1 for j in range(n))
        assert all(enum.up[i] >> (n - 1) & 1 for i in range(n))
        assert enum.bottom().pairs == nc.trivial_system(lattice(spec)).pairs
        assert enum.top().pairs == nc.complete_system(lattice(spec)).pairs


def test_lattice_too_large():
    L = lattice("dihedral:8")
    with pytest.raises(nc.LatticeTooLarge):
        nc.enumerate_transfer_systems(L, max_pairs=10)


def test_is_admissible_basics():
    L = lattice("symmetric:3")
    R = nc.trivial_system(L)
    top = L.top.lattice_id
    assert is_admissible(R, g_set(L, top, [top, top]))
    assert not is_admissible(R, g_set(L, top, [0]))
    complete = nc.complete_system(L)
    assert is_admissible(complete, g_set(L, top, [0, 1, 4]))
    # one admissible and one inadmissible orbit
    R2 = nc.close_transfer_system(L, [(4, top)])
    assert is_admissible(R2, g_set(L, top, [4]))
    assert not is_admissible(R2, g_set(L, top, [4, 1]))


def test_admissibility_uses_base_conjugacy():
    # (C2#0, S3) admissible makes every conjugate reflection orbit admissible
    L = lattice("symmetric:3")
    R = nc.close_transfer_system(L, [(1, 5)])
    for r in (1, 2, 3):
        assert is_admissible(R, g_set(L, 5, [r]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("symmetric:3", "dihedral:8", "quaternion:8")), st.data())
def test_admissibility_is_conjugation_invariant(spec, data):
    L = lattice(spec)
    enum = enumeration(spec)
    R = data.draw(st.sampled_from(enum.systems))
    base = data.draw(st.integers(0, len(L) - 1))
    orbit_pool = [i for i in range(len(L)) if L.leq(i, base)]
    orbits = data.draw(st.lists(st.sampled_from(orbit_pool), min_size=0, max_size=3))
    g = data.draw(st.integers(0, L.group.order - 1))
    T = g_set(L, base, orbits)
    assert is_admissible(R, T) == is_admissible(R, conjugate_gset(L, T, g))


def test_gset_cardinality_of_products():
    # |T x T'| = |T| * |T'| checks the double-coset decomposition
    rng = random.Random(3)
    for spec in ("symmetric:3", "dihedral:8", "cyclic:8"):
        L = lattice(spec)
        for _ in range(25):
            base = rng.randrange(len(L))
            pool = [i for i in range(len(L)) if L.leq(i, base)]
            S = g_set(L, base, rng.choices(pool, k=rng.randint(1, 3)))
            T = g_set(L, base, rng.choices(pool, k=rng.randint(1, 3)))
            P = product_gset(L, S, T)
            assert gset_cardinality(L, P) == gset_cardinality(L, S) * gset_cardinality(L, T)


def test_oracle_ok_for_complete_and_enumerated():
    for spec in ("cyclic:4", "cyclic:9"):
        L = lattice(spec)
        for R in enumeration(spec).systems:
            for H in L.subgroups:
                assert indexing_closure_oracle(R, H, 6) is None


def test_oracle_catches_injected_restriction_failure():
    L = lattice("cyclic:4")
    bad = TransferSystem.from_pairs(L, reflexive_pairs(L) | {(0, 2)})
    cx = indexing_closure_oracle(bad, L.top, 6)
    assert cx is not None
    assert cx.operation == "restriction"
    assert not is_admissible(bad, cx.result)


def test_oracle_catches_injected_transitivity_failure():
    L = lattice("cyclic:4")
    bad = TransferSystem.from_pairs(L, reflexive_pairs(L) | {(0, 1), (1, 2)})
    cx = indexing_closure_oracle(bad, L.top, 6)
    assert cx is not None
    assert cx.operation in ("product", "induction")


def test_oracle_bound_checked():
    L = lattice("cyclic:4")
    with pytest.raises(nc.BoundTooLarge):
        indexing_closure_oracle(nc.complete_system(L), L.top, 9)
