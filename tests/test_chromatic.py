import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normcert as nc
from normcert import ANY_PRIME, INFINITY, BalmerPrime, HeightVector
from normcert import io as iomod
from normcert import chromatic, groups
from normcert.certify import MAX_XVAL_HEIGHT, MAX_XVAL_LENGTH, MAX_XVAL_ORDER
from normcert.chromatic import MAX_PRIME, cyclic_p_power
from helpers import (
    CORPUS_SPECS,
    contains_by_definition,
    element_order_cyclic_p_power,
    lattice,
    prime_sort_key,
    random_support_data,
    random_valid_locus,
    segment_top_by_definition,
)


def test_balmer_prime_markers():
    assert nc.balmer_prime(0, 0, 5) == BalmerPrime(0, 0, ANY_PRIME)
    assert nc.balmer_prime(0, 2, 5).prime == 5
    with pytest.raises(ValueError):
        BalmerPrime(0, 0, 5)
    with pytest.raises(ValueError):
        BalmerPrime(0, 1, ANY_PRIME)
    with pytest.raises(ValueError):
        BalmerPrime(0, 1, 6)
    with pytest.raises(ValueError):
        BalmerPrime(0, -1, 2)


def test_empty_locus_is_valid():
    for spec in CORPUS_SPECS:
        assert nc.validate_vanishing_locus(nc.vanishing_locus(lattice(spec), [])) == []


def test_downward_closure_violation():
    L = lattice("cyclic:4")
    vl = nc.vanishing_locus(L, [nc.balmer_prime(0, 2, 3)])
    violations = nc.validate_vanishing_locus(vl)
    assert any(v.axiom == "downward-closure" for v in violations)
    # filling in the segment repairs it
    vl2 = nc.vanishing_locus(
        L, [nc.balmer_prime(0, m, 3) for m in range(3)]
    )
    assert nc.validate_vanishing_locus(vl2) == []


def test_full_locus_is_valid():
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        primes = []
        for c in range(len(L.classes)):
            for p in (2, 3):
                primes.extend(nc.balmer_prime(c, m, p) for m in range(4))
        assert nc.validate_vanishing_locus(nc.vanishing_locus(L, primes)) == []


def test_infinity_primes_denote_full_segments():
    L = lattice("cyclic:4")
    vl = nc.vanishing_locus(L, [BalmerPrime(1, INFINITY, 2), nc.balmer_prime(1, 3, 2)])
    # finite primes implied by the infinity segment are normalised away
    assert vl.primes == frozenset({BalmerPrime(1, INFINITY, 2)})
    assert vl.contains(1, 0, ANY_PRIME)
    assert vl.contains(1, 17, 2)
    assert vl.contains(1, INFINITY, 2)
    assert not vl.contains(1, 1, 3)
    assert not vl.contains(0, 0, ANY_PRIME)


def test_chain_inequality_checked_on_cyclic_p_lattices():
    # tops (2, 0) at the group's own prime violate t0 <= t1 + 1
    L = lattice("cyclic:4")
    primes = [nc.balmer_prime(0, m, 2) for m in range(3)]
    primes += [nc.balmer_prime(1, 0, 2)]
    violations = nc.validate_vanishing_locus(nc.vanishing_locus(L, primes))
    assert any(v.axiom == "chain-inequality" for v in violations)
    # the same shape at a prime not dividing |G| is only height-checked
    primes = [nc.balmer_prime(0, m, 5) for m in range(3)]
    primes += [nc.balmer_prime(1, 0, 5)]
    assert nc.validate_vanishing_locus(nc.vanishing_locus(L, primes)) == []


def test_heights_to_locus_spec_examples():
    assert nc.heights_to_locus(HeightVector(2, (None, None))).primes == frozenset()
    vl = nc.heights_to_locus(HeightVector(2, (1, 0)))
    assert vl.primes == {
        nc.balmer_prime(0, 0, 2),
        nc.balmer_prime(0, 1, 2),
        nc.balmer_prime(1, 0, 2),
    }


def test_heights_round_trip_exhaustive():
    domain = [None, 0, 1, 2, 3, INFINITY]
    for n in range(4):
        for entries in itertools.product(domain, repeat=n + 1):
            v = HeightVector(3, entries)
            assert nc.locus_to_heights(nc.heights_to_locus(v), p=3) == v


def test_heights_to_locus_valid_iff_vector_valid():
    # every vector over the cross-validation domain, on the lattice the sweep
    # uses, for every p whose chain reaches the sweep's longest n: the sweep
    # validates no locus, since each vector it walks is valid
    domain = [None, *range(MAX_XVAL_HEIGHT + 1), INFINITY]
    for p in (2, 3, 5, 7):
        for n in range(MAX_XVAL_LENGTH + 1):
            L = chromatic.cyclic_power_lattice(p, n, MAX_XVAL_ORDER)
            for entries in itertools.product(domain, repeat=n + 1):
                v = HeightVector(p, entries)
                ok = not nc.validate_vanishing_locus(nc.heights_to_locus(v, L))
                assert ok == nc.validate_height_vector(v)


def test_locus_to_heights_on_valid_loci():
    rng = random.Random(5)
    for spec in ("cyclic:4", "cyclic:8", "cyclic:9"):
        L = lattice(spec)
        p = cyclic_p_power(L)[0]
        for _ in range(50):
            vl = random_valid_locus(L, rng)
            stray = [q for q in vl.concrete_primes() if q != p]
            if stray:
                continue
            assert nc.validate_height_vector(nc.locus_to_heights(vl))


def test_locus_to_heights_errors():
    L = lattice("symmetric:3")
    with pytest.raises(nc.NotCyclicPGroupLattice):
        nc.locus_to_heights(nc.vanishing_locus(L, []))
    L6 = lattice("cyclic:6")
    with pytest.raises(nc.NotCyclicPGroupLattice):
        nc.locus_to_heights(nc.vanishing_locus(L6, []))
    L4 = lattice("cyclic:4")
    mixed = nc.vanishing_locus(
        L4, [nc.balmer_prime(0, m, 2) for m in (0, 1)] + [nc.balmer_prime(0, 1, 3)]
    )
    with pytest.raises(nc.NotPLocal):
        nc.locus_to_heights(mixed)
    with pytest.raises(nc.NotCyclicPGroupLattice):
        nc.heights_to_locus(HeightVector(2, (0, 0)), lattice("cyclic:9"))


def test_validate_height_vector():
    assert nc.validate_height_vector(HeightVector(2, (3, 2)))
    assert not nc.validate_height_vector(HeightVector(2, (2, 0)))
    assert nc.validate_height_vector(HeightVector(2, (INFINITY, INFINITY)))
    assert not nc.validate_height_vector(HeightVector(2, (INFINITY, 3)))
    assert nc.validate_height_vector(HeightVector(2, (0, None)))
    assert not nc.validate_height_vector(HeightVector(2, (1, None)))


def test_height_vector_construction_guards():
    with pytest.raises(ValueError):
        HeightVector(4, (0,))
    with pytest.raises(ValueError):
        HeightVector(2, ())
    with pytest.raises(ValueError):
        HeightVector(2, (-2,))


def test_is_prime_matches_trial_division():
    from normcert.chromatic import MAX_PRIME, _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)
    ]
    # strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(10**18 + 3) and _is_prime(2**61 - 1)
    assert not _is_prime((10**9 + 7) * (10**9 + 9))
    with pytest.raises(nc.PrimeTooLarge):
        _is_prime(MAX_PRIME)
    with pytest.raises(nc.PrimeTooLarge):
        HeightVector(10**29 + 1, (0,))


def test_heights_to_locus_without_lattice_is_bounded():
    # C256 would be built behind the caller's back; a given lattice is used as is
    with pytest.raises(nc.GroupTooLarge):
        nc.heights_to_locus(HeightVector(2, (0,) * 9))
    with pytest.raises(nc.GroupTooLarge):
        nc.heights_to_locus(HeightVector(5, (0, 0, 0, 0)))
    assert len(nc.heights_to_locus(HeightVector(2, (0,) * 7)).primes) == 7
    vl = nc.heights_to_locus(HeightVector(5, (0, 0, 0, 0)), nc.cyclic_power_lattice(5, 3, 125))
    assert len(vl.primes) == 4
    # 2**14999 and 1000000007**500 have more digits than str() converts, and
    # the bound message raised ValueError for them instead of GroupTooLarge
    for v in (HeightVector(2, (0,) * 15000), HeightVector(1000000007, (0,) * 501)):
        with pytest.raises(nc.GroupTooLarge, match="exceeds bound 64"):
            nc.heights_to_locus(v)


def test_cyclic_power_lattice_stops_past_the_bound():
    for p in (2, 3, 5, 7, 61):
        for n in range(8):
            if p**n <= 64:
                assert chromatic.cyclic_power_lattice(p, n, 64).group.order == p**n
            else:
                with pytest.raises(nc.GroupTooLarge, match=rf"\|C{p}\^{n}\| exceeds bound 64"):
                    chromatic.cyclic_power_lattice(p, n, 64)
    # 2**(10**6) has 301,030 digits; the check stops at its tenth factor, and
    # without a bound the library's default one holds
    with pytest.raises(nc.GroupTooLarge, match="exceeds bound 1000"):
        chromatic.cyclic_power_lattice(2, 10**6, 1000)
    with pytest.raises(nc.GroupTooLarge, match=r"\|C2\^5000\| exceeds bound 64"):
        nc.cyclic_power_lattice(2, 5000)


def test_cyclic_power_lattices_share_the_bounded_memo():
    memo = groups._kept_lattice
    size = memo.cache_parameters()["maxsize"]
    pairs = [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19) for n in range(1, 7) if p**n <= 64]
    assert len({p**n for p, n in pairs}) > size
    for p, n in pairs:
        L = chromatic.cyclic_power_lattice(p, n)
        assert L is chromatic.cyclic_power_lattice(p, n) and L.group.order == p**n
    assert memo.cache_info().currsize == size


def test_raised_bound_lattices_are_not_kept():
    # the memo keeps a lattice by its group's order, whatever bound it was
    # read under: one above the default is built on every call and never
    # reaches the memo, so the memo's worst case does not grow with the
    # bound; at the default order the memo still hands out one object
    memo = groups._kept_lattice
    before = memo.cache_info()
    for build in (lambda: groups.lattice_of("cyclic:97", 100),
                  lambda: chromatic.cyclic_power_lattice(7, 3, 343)):
        first, second = build(), build()
        assert first is not second and first.names == second.names
    assert memo.cache_info() == before
    assert groups.lattice_of("cyclic:8") is groups.lattice_of("cyclic:8")


def test_support_of_pushforward_is_constant():
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        S = nc.support_of_pushforward(L, [(m, 2) for m in range(3)])
        assert all(S.at_class(c) == S.at_class(0) for c in range(len(L.classes)))
        for sid in range(len(L)):
            for g in range(L.group.order):
                assert S.at_subgroup(L.conj_id(sid, g)) == S.at_subgroup(sid)
    empty = nc.support_of_pushforward(lattice("cyclic:4"), [])
    assert all(not s for s in empty.assignments)


def test_underlying_determined_models():
    # E_R(n) and the wedge of Real Morava K-theories agree on C_2
    L = lattice("cyclic:2")
    for n in range(6):
        below = frozenset((m, 2) if m else (0, ANY_PRIME) for m in range(n + 1))
        johnson_wilson = nc.support_data(L, [below, frozenset()])
        wedge = nc.support_data(L, [frozenset((m, 2) if m else (0, ANY_PRIME) for m in range(n + 1)), frozenset()])
        assert nc.is_underlying_determined(johnson_wilson)
        assert nc.is_underlying_determined(wedge)
        assert nc.supports_equal(johnson_wilson, wedge)


def test_underlying_determined_counterexample():
    L = lattice("cyclic:2")
    uniform = nc.support_of_pushforward(L, [(1, 2)])
    assert not nc.is_underlying_determined(uniform)
    assert nc.supports_equal(nc.support_data(L, [frozenset(), frozenset()]),
                             nc.support_data(L, [frozenset(), frozenset()]))


def test_supports_equal_requires_shared_lattice():
    S1 = nc.support_of_pushforward(lattice("cyclic:4"), [])
    S2 = nc.support_of_pushforward(nc.subgroup_lattice(nc.cyclic(4)), [])
    with pytest.raises(nc.LatticeMismatch):
        nc.supports_equal(S1, S2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("cyclic:4", "symmetric:3", "dihedral:8")), st.data())
def test_supports_equal_is_an_equivalence(spec, data):
    L = lattice(spec)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = random_support_data(L, rng)
    b = random_support_data(L, rng)
    c = random_support_data(L, rng)
    assert nc.supports_equal(a, a)
    assert nc.supports_equal(a, b) == nc.supports_equal(b, a)
    if nc.supports_equal(a, b) and nc.supports_equal(b, c):
        assert nc.supports_equal(a, c)


def test_unknown_class_reported_and_engine_refuses():
    L = lattice("cyclic:4")
    for c in (9, -1):
        vl = nc.vanishing_locus(L, [nc.balmer_prime(c, 0, 2)])
        assert [v.axiom for v in nc.validate_vanishing_locus(vl)] == ["unknown-class"]
        with pytest.raises(nc.InvalidLocus):
            nc.norm_preserves_locus(vl, 0, 1)
        with pytest.raises(nc.InvalidLocus):
            nc.localization_preserves(vl, nc.complete_system(L))


def test_uniform_locus_validity_and_shape():
    rng = random.Random(1)
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        vl = nc.uniform_locus(L, {2: 2, 3: INFINITY})
        assert nc.validate_vanishing_locus(vl) == []
        for c in range(len(L.classes)):
            assert vl.segment_top(c, 2) == 2
            assert vl.segment_top(c, 3) == INFINITY


def test_cyclic_p_power_matches_element_orders():
    specs = CORPUS_SPECS + (
        "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:5", "cyclic:16", "cyclic:25",
        "cyclic:27", "cyclic:32", "cyclic:64", "cyclic:2*cyclic:2", "cyclic:2*cyclic:4",
        "dihedral:64", "dihedral:16*cyclic:2", "symmetric:4",
    )
    lattices = {spec: lattice(spec) for spec in specs}
    lattices["cyclic:343"] = nc.cyclic_power_lattice(7, 3, 343)  # above the default order bound
    for spec, L in lattices.items():
        assert cyclic_p_power(L) == element_order_cyclic_p_power(L), spec
    got = {spec: cyclic_p_power(lattices[spec]) for spec in (
        "cyclic:343", "cyclic:64", "cyclic:25", "cyclic:6", "symmetric:3", "cyclic:2*cyclic:2",
        "cyclic:1")}
    assert got == {"cyclic:343": (7, 3), "cyclic:64": (2, 6), "cyclic:25": (5, 2),
                   "cyclic:6": None, "symmetric:3": None, "cyclic:2*cyclic:2": None,
                   "cyclic:1": None}


def test_sorted_primes_follow_the_sort_key():
    # the fields sort as helpers.prime_sort_key does: INFINITY above every
    # height, and height 0 (the ANY marker) once per class, below its
    # concrete primes, also at a class beyond the eight of D8;
    # test_contains_matches_the_prime_set compares the two on random sets
    want = (
        BalmerPrime(0, 0, ANY_PRIME), BalmerPrime(0, 1, 2), BalmerPrime(0, 1, 3),
        BalmerPrime(0, 2, 2), BalmerPrime(1, 1, 2), BalmerPrime(1, INFINITY, 3),
        BalmerPrime(2, 0, ANY_PRIME), BalmerPrime(9, 0, ANY_PRIME), BalmerPrime(9, 4, 5),
    )
    assert tuple(sorted(want, key=prime_sort_key)) == want
    vl = nc.vanishing_locus(lattice("dihedral:8"), reversed(want))
    assert vl.sorted_primes() == want


def test_a_warm_prime_memo_changes_no_rejection():
    for p in (2, 3):
        nc.heights_to_locus(HeightVector(p, (2, 1, INFINITY)))
        nc.uniform_locus(lattice("symmetric:3"), {p: 3})
    for bad in ((0, 2.0, 2), (0, True, 2), (0, 1, 4), (0, 1, 2.0), (0, 1, True)):
        with pytest.raises(ValueError):
            nc.balmer_prime(*bad)


def _outcome(contains, *query):
    try:
        return contains(*query)
    except ValueError as exc:
        return ("ValueError", str(exc))
    except nc.PrimeTooLarge:
        return "PrimeTooLarge"


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(("cyclic:4", "cyclic:8", "symmetric:3", "dihedral:8")),
    st.lists(
        st.tuples(
            st.integers(0, 6), st.sampled_from((0, 1, 2, 3, INFINITY)), st.sampled_from((2, 3, 5))
        ),
        max_size=14,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 7),
            st.sampled_from((0, 1, 2, 3, 4, INFINITY, False, True, -1, 1.0, 2.5)),
            st.sampled_from((2, 3, 5, 7, ANY_PRIME, 4, 1, 0, True, 3.0, MAX_PRIME)),
        ),
        min_size=1,
        max_size=25,
    ),
)
@example(
    "dihedral:8",
    [(1, INFINITY, 2), (2, 0, 3), (3, 0, 5), (3, 1, 3), (0, 2, 2), (4, INFINITY, 3)],
    [(1, 0, ANY_PRIME)],
)
def test_contains_matches_the_prime_set(spec, raw, queries):
    # arbitrary prime sets: not downward closed, INFINITY primes mixed in,
    # classes beyond the lattice's; queries include bad heights and primes
    L = lattice(spec)
    vl = nc.vanishing_locus(L, [nc.balmer_prime(c, h, p) for c, h, p in raw])
    for query in queries:
        assert _outcome(vl.contains, *query) == _outcome(contains_by_definition, vl, *query)
        c, _, prime = query
        assert _outcome(vl.segment_top, c, prime) == _outcome(
            segment_top_by_definition, vl, c, prime
        )
    n = len(L.classes)
    for c in range(n):
        for p in (2, 3, 5):
            assert vl.segment_top(c, p) == segment_top_by_definition(vl, c, p)
    if all(q.subgroup_class < n for q in vl.primes):
        assert iomod.parse_locus(L, iomod.locus_doc(vl)) == vl
    assert vl.sorted_primes() == tuple(sorted(vl.primes, key=prime_sort_key))
    # each class lists its primes in sorted order, and the class mask of each
    # prime's (height, prime) is contains over the lattice
    for cls in {q.subgroup_class for q in vl.primes} | set(range(n)):
        listed = vl.primes_at_class(cls)
        assert tuple(q for q, _ in listed) == tuple(
            q for q in vl.sorted_primes() if q.subgroup_class == cls
        )
        for q, mask in listed:
            assert mask >> n == 0
            for c in range(n):
                assert bool(mask >> c & 1) == contains_by_definition(vl, c, q.height, q.prime)


def test_classes_share_one_mask_per_height_and_prime():
    # every class that lists (height, prime) lists the same mask object, so a
    # locus holds one int per (height, prime), not one per prime
    L = lattice("dihedral:16*cyclic:2")
    vl = nc.uniform_locus(L, {2: 3})
    masks = {}
    for c in range(len(L.classes)):
        for q, mask in vl.primes_at_class(c):
            assert masks.setdefault((q.height, q.prime), mask) is mask
    assert set(masks) == {(0, ANY_PRIME), (1, 2), (2, 2), (3, 2)}


@pytest.mark.parametrize("v, spec", [
    (HeightVector(2, (0,)), "cyclic:2"),  # a length-1 vector on a non-trivial group
    (HeightVector(2, (0, 0, 0)), "cyclic:2*cyclic:2"),  # order 4, but 5 subgroups
    (HeightVector(3, (0, 0)), "cyclic:4"),  # 3 subgroups, but order 4
    (HeightVector(2, (0, 0)), "cyclic:8"),
    (HeightVector(2, (0, 0, 0)), "symmetric:3"),
])
def test_heights_to_locus_rejects_other_lattices(v, spec):
    L = lattice(spec)
    message = f"^lattice of {L.group.name} does not match p={v.p}, n={v.n}$"
    with pytest.raises(nc.NotCyclicPGroupLattice, match=message):
        nc.heights_to_locus(v, L)


@pytest.mark.parametrize("v, spec", [
    (HeightVector(2, (1,)), "cyclic:1"),
    (HeightVector(5, (None,)), "cyclic:1"),
    (HeightVector(3, (0, None)), "cyclic:3"),
    (HeightVector(2, (2, 1, 0, None)), "cyclic:8"),
])
def test_heights_to_locus_takes_the_chain_it_names(v, spec):
    vl = nc.heights_to_locus(v, lattice(spec))
    assert nc.locus_to_heights(vl, v.p) == v


def test_locus_length_counts_its_kept_primes():
    L = lattice("cyclic:4")
    vl = nc.vanishing_locus(L, [nc.balmer_prime(0, m, 2) for m in (0, 1, 2)]
                            + [nc.balmer_prime(1, m, 2) for m in (0, 1, INFINITY)])
    # the INFINITY prime at class 1 stands for its finite heights there
    assert len(vl) == len(vl.primes) == 4
    assert len(nc.vanishing_locus(L, [])) == 0


def test_locus_to_heights_on_a_wrong_prime_or_the_trivial_group():
    with pytest.raises(nc.NotPLocal, match="^lattice prime is 2, requested 3$"):
        nc.locus_to_heights(nc.vanishing_locus(lattice("cyclic:4"), []), p=3)
    L1 = lattice("cyclic:1")
    at = [nc.balmer_prime(0, 0, ANY_PRIME), nc.balmer_prime(0, 1, 3), nc.balmer_prime(0, 2, 3)]
    assert nc.locus_to_heights(nc.vanishing_locus(L1, at)) == HeightVector(3, (2,))
    assert nc.locus_to_heights(nc.vanishing_locus(L1, at[:1]), 5) == HeightVector(5, (0,))
    for primes in (at[:1], at + [nc.balmer_prime(0, 1, 2)]):
        with pytest.raises(nc.NotPLocal, match="cannot infer the prime on the trivial group"):
            nc.locus_to_heights(nc.vanishing_locus(L1, primes))


def test_support_data_needs_one_set_per_class():
    L = lattice("symmetric:3")  # four classes
    with pytest.raises(ValueError, match="one support set per conjugacy class"):
        nc.support_data(L, [frozenset()] * 3)
    assert len(nc.support_data(L, [frozenset()] * 4).assignments) == 4
