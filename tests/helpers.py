"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: group
axioms are checked on every triple of a table, subgroup lattices come from
closing small generating sets element by element, lattice covers from their
definition, inclusion from scanning every pair of masks, transfer-system
validity is re-derived with element-by-element restriction, closure
restricts along double cosets instead of intersections, the enumeration is
compared with next-closure ranked by sorted pair lists, norm supports are
recomputed over every element of H, primes sort by an explicit key instead
of their fields, the norm criterion's witnesses are found by walking double
cosets or off a cut table per pair over every J <= H, the cross-validation
sweep decides every height vector in full, transfer systems are checked
against the finite H-sets they make admissible, text decision reports
are written one witness at a time, structured decision reports and
transfer enumerations are built as dicts by hand, each containment row read
off one scan of its binary digits, and the text and DOT listings of an
enumeration sort each system's pair set.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from functools import cache

import normcert as nc
from normcert import io as iomod
from normcert.groups import hasse_covers
from normcert.transfers import _OrbitTables, candidate_pairs

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import ladder  # noqa: E402
import workloads  # noqa: E402  (tools/ladder.py puts perfbench/ on the path)

CORPUS_SPECS = (
    "cyclic:4",
    "cyclic:6",
    "symmetric:3",
    "dihedral:8",
    "quaternion:8",
    "cyclic:8",
    "cyclic:9",
)

SMALL_PRIMES = (2, 3, 5)


@cache
def lattice(spec: str) -> nc.SubgroupLattice:
    return nc.subgroup_lattice(nc.build_group(spec))


@cache
def enumeration(spec: str) -> nc.TransferEnumeration:
    return nc.enumerate_transfer_systems(lattice(spec))


@cache
def unbounded_enumeration(spec: str) -> nc.TransferEnumeration:
    """The enumeration with the pair bound lifted to the lattice's pair count."""
    L = lattice(spec)
    return nc.enumerate_transfer_systems(L, max_pairs=len(candidate_pairs(L)))


def corpus_lattices():
    return [lattice(s) for s in CORPUS_SPECS]


def attributes(L: nc.SubgroupLattice) -> dict:
    """The lattice's attributes, with a copy of each dict so that a later
    write into one shows."""
    return {k: (v, dict(v) if isinstance(v, dict) else None) for k, v in vars(L).items()}


def assert_attributes_unchanged(L: nc.SubgroupLattice, before: dict) -> None:
    after = attributes(L)
    assert after.keys() == before.keys()
    for k, (v, copy) in before.items():
        assert after[k][0] is v and after[k][1] == copy, k


# -- independent oracles ---------------------------------------------------------


def associativity_failure(table) -> tuple[int, int, int] | None:
    """The first triple (a, b, c), in lexicographic order, with (ab)c != a(bc)."""
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


def group_axiom_failure(table) -> str | None:
    """Why a square table of entries in 0..n-1 is not a group, or None.

    Every axiom is checked on every element (associativity on all n^3
    triples), independently of ``groups._validated_group``.
    """
    n = len(table)
    idents = [
        e for e in range(n)
        if all(table[e][x] == x and table[x][e] == x for x in range(n))
    ]
    if len(idents) != 1:
        return "identity"
    if associativity_failure(table) is not None:
        return "associativity"
    e = idents[0]
    if not all(any(table[a][b] == e == table[b][a] for b in range(n)) for a in range(n)):
        return "inverse"
    return None


def relabeled_rows(G, perm):
    """The table of G with each element a renamed perm[a], as lists."""
    rows = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            rows[perm[a]][perm[b]] = perm[G.mul(a, b)]
    return rows


def relabeled(G, perm):
    """G with each element a renamed perm[a]."""
    return nc.from_table(relabeled_rows(G, perm), f"{G.name}-relabeled")


def _closure(G: nc.FiniteGroup, elems) -> int:
    """Bitmask of the subgroup generated by ``elems``: products until nothing is new."""
    members = {G.identity, *elems}
    while True:
        more = {G.mul(x, y) for x in members for y in elems} - members
        if not more:
            return sum(1 << x for x in members)
        members |= more


def brute_force_subgroup_masks(G: nc.FiniteGroup, max_gen: int = 3) -> set[int]:
    """Closures of all generating sets of size <= max_gen."""
    masks = {1 << G.identity}
    for r in range(1, max_gen + 1):
        masks.update(_closure(G, combo) for combo in itertools.combinations(range(G.order), r))
    return masks


def covers_by_definition(L: nc.SubgroupLattice) -> tuple:
    """Covering pairs of inclusion: K < H with no subgroup strictly between."""
    n = len(L)
    return tuple(
        (k, h)
        for k in range(n)
        for h in range(n)
        if k != h
        and L.leq(k, h)
        and not any(m != k and m != h and L.leq(k, m) and L.leq(m, h) for m in range(n))
    )


def up_sets_by_scan(L: nc.SubgroupLattice) -> list[int]:
    """``up[k]``, the ids of the subgroups containing K, by comparing every pair of masks."""
    masks = [s.mask for s in L.subgroups]
    return [sum(1 << h for h, big in enumerate(masks) if small & ~big == 0) for small in masks]


def covers_by_up_scan(L: nc.SubgroupLattice) -> tuple:
    """Covering pairs, from up-sets found by a scan over every pair of subgroups."""
    return tuple(hasse_covers(up_sets_by_scan(L)))


def candidate_pairs_by_scan(L: nc.SubgroupLattice) -> tuple:
    """Strictly nested pairs (kid, hid), sorted, by testing each larger id for each K."""
    outside = [~s.mask for s in L.subgroups]
    return tuple(
        (k, h)
        for k, s in enumerate(L.subgroups)
        for h, out in enumerate(outside[k + 1:], k + 1)
        if not s.mask & out
    )


def product_double_coset_blocks(L: nc.SubgroupLattice, kid: int, hid: int, aid: int) -> tuple:
    """K\\A/H as sorted blocks, each built from all |K|·|H| products k·a·h.

    The reference for the coset-mask walk of ``double_coset_blocks``: the
    least unassigned element of A opens each block.
    """
    K, H, A = L.subgroups[kid], L.subgroups[hid], L.subgroups[aid]
    if K.mask & ~A.mask or H.mask & ~A.mask:
        raise nc.NotSubgroupOfAmbient(f"ids {kid}, {hid} not inside {aid}")
    table = L.group.table
    rest = set(A.members)
    blocks = []
    while rest:
        a = min(rest)
        block = {table[table[k][a]][h] for k in K.members for h in H.members}
        rest -= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def product_mackey_cuts(L: nc.SubgroupLattice, kid: int, jid: int, hid: int) -> tuple:
    """``(least element r, id of K^r n J)`` per block of the product oracle."""
    return tuple(
        (b[0], L.intersect_ids(L.conj_id(kid, b[0]), jid))
        for b in product_double_coset_blocks(L, kid, jid, hid)
    )


def mackey_restrictions(L: nc.SubgroupLattice, kid: int, hid: int) -> tuple:
    """The restriction axiom in double-coset form, sorted.

    (K^h n J, J) for every J <= H and every double coset KhJ of K\\H/J.  The
    engine restricts by (K n J, J) alone, which is equivalent on
    conjugation-closed sets.
    """
    return tuple(sorted({
        (cut, jid)
        for jid in range(len(L))
        if L.leq(jid, hid)
        for _, cut in L.mackey_cuts(kid, jid, hid)
    }))


def independent_transfer_valid(L: nc.SubgroupLattice, pairs: frozenset) -> bool:
    """Axiom check written against the definitions, not the library's closure.

    Restriction is tested for every element of H separately rather than per
    double coset, which is the set-level formulation.
    """
    G = L.group
    for k, h in pairs:
        if not L.leq(k, h):
            return False
    for i in range(len(L)):
        if (i, i) not in pairs:
            return False
    for a, b in pairs:
        for c, d in pairs:
            if b == c and (a, d) not in pairs:
                return False
    for k, h in pairs:
        for g in range(G.order):
            if (L.conj_id(k, g), L.conj_id(h, g)) not in pairs:
                return False
    for k, h in pairs:
        for j in range(len(L)):
            if not L.leq(j, h):
                continue
            for x in L.subgroups[h].members:
                cut = L.intersect_ids(L.conj_id(k, x), j)
                if (cut, j) not in pairs:
                    return False
    return True


def reflexive_pairs(L: nc.SubgroupLattice) -> frozenset:
    """The pairs (H, H), the pair set of the trivial system."""
    return frozenset((i, i) for i in range(len(L)))


def reflexive_pair_sets(L: nc.SubgroupLattice):
    """Every pair set made of the reflexive pairs and some candidate pairs."""
    strict = sorted(candidate_pairs(L))
    refl = reflexive_pairs(L)
    for bits in range(2 ** len(strict)):
        yield frozenset(refl | {strict[i] for i in range(len(strict)) if bits >> i & 1})


def brute_force_transfer_systems(L: nc.SubgroupLattice) -> list[frozenset]:
    """All valid pair sets by filtering every subset of the candidate pairs."""
    out = [pairs for pairs in reflexive_pair_sets(L) if independent_transfer_valid(L, pairs)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def worklist_closure(L: nc.SubgroupLattice, seed) -> frozenset:
    """Smallest transfer system containing the seed, pair by pair.

    The reference for both closures, the three sweeps of
    ``close_transfer_system`` and the orbit tables of the enumeration: each
    new pair is pushed once and its conjugates, its restrictions
    (double-coset form) and its composites with the pairs seen so far are
    added until nothing new appears.
    """
    pairs: set = set()
    stack: list = []

    def add(p):
        if p not in pairs:
            pairs.add(p)
            stack.append(p)

    for p in reflexive_pairs(L):
        add(p)
    for kid, hid in seed:
        if not L.leq(kid, hid):
            raise ValueError(f"seed pair ({kid}, {hid}) is not nested")
        add((kid, hid))

    lower: dict = {}
    upper: dict = {}
    while stack:
        kid, hid = stack.pop()
        for g in range(L.group.order):
            add((L.conj_id(kid, g), L.conj_id(hid, g)))
        for q in mackey_restrictions(L, kid, hid):
            add(q)
        for lid in lower.get(kid, ()):
            add((lid, hid))
        for uid in upper.get(hid, ()):
            add((kid, uid))
        lower.setdefault(hid, set()).add(kid)
        upper.setdefault(kid, set()).add(hid)
    return frozenset(pairs)


def next_closure_masks(L: nc.SubgroupLattice) -> tuple[_OrbitTables, list[int]]:
    """Every closed orbit mask in lectic order, by Ganter's next-closure.

    The search the engine ran before Close-by-One: each step closes
    ``current n [0, i) u {i}`` from scratch with the engine's closure
    operator.  Returns the tables, whose orbits are numbered in candidate
    order, and the masks.
    """
    tables = _OrbitTables(L)
    found = []
    current = tables.close(0)
    while current is not None:
        found.append(current)
        nxt = None
        for i in range(len(tables.members) - 1, -1, -1):
            bit = 1 << i
            if current & bit:
                current ^= bit
                continue
            cand = tables.close(current | bit)
            if cand & ~current & (bit - 1) == 0:
                nxt = cand
                break
        current = nxt
    return tables, found


def next_closure_enumeration(L: nc.SubgroupLattice) -> nc.TransferEnumeration:
    """The enumeration from :func:`next_closure_masks`, ranked by pair lists.

    Systems sort by ``(len(pairs), sorted(pairs))``, and system i lies
    below system j when j holds every orbit of i.  Each system's pair mask
    sets the bit of each of its pairs' rank among all nested pairs, sorted.
    """
    tables, found = next_closure_masks(L)
    ranked = sorted(
        ((reflexive_pairs(L).union(*[tables.members[a] for a in set_bits_by_scan(mask)]), mask)
         for mask in found),
        key=lambda sm: (len(sm[0]), sorted(sm[0])),
    )
    holders = [0] * len(tables.members)
    for j, (_, mask) in enumerate(ranked):
        for a in range(len(holders)):
            if mask >> a & 1:
                holders[a] |= 1 << j
    up = []
    for _, mask in ranked:
        above = (1 << len(ranked)) - 1
        for a in range(len(holders)):
            if mask >> a & 1:
                above &= holders[a]
        up.append(above)
    rank = {p: r for r, p in enumerate(sorted(reflexive_pairs(L) | set(candidate_pairs(L))))}
    masks = tuple(sum(1 << rank[p] for p in pairs) for pairs, _ in ranked)
    return nc.TransferEnumeration(L, masks, tuple(up))


def brute_force_norm_support(S: nc.SupportData, kid: int, hid: int, jid: int):
    """Intersection over every h in H, not just double-coset representatives."""
    L = S.lattice
    parts = []
    for x in L.subgroups[hid].members:
        cut = L.intersect_ids(L.conj_id(kid, x), jid)
        parts.append(S.at_class(L.class_of[cut]))
    return frozenset(parts[0]).intersection(*parts[1:])


def brute_force_norm_preserves(vl: nc.VanishingLocus, kid: int, hid: int) -> bool:
    """The preservation criterion with the existential over every h in H."""
    L = vl.lattice
    for q in vl.sorted_primes():
        for jid in L.classes[q.subgroup_class]:
            if not L.leq(jid, hid):
                continue
            hits = [
                vl.contains(
                    L.class_of[L.intersect_ids(L.conj_id(kid, x), jid)],
                    q.height,
                    q.prime,
                )
                for x in L.subgroups[hid].members
            ]
            if not any(hits):
                return False
    return True


def double_coset_obstructions(vl: nc.VanishingLocus, kid: int, hid: int) -> tuple:
    """The norm criterion's witnesses for (K, H), read off double cosets.

    For each prime q of the locus and each J <= H in its class, in that
    order, the triple fails when no double coset KrJ of K\\H/J has a cut
    K^r n J whose class carries (height, prime) of q in the locus.
    """
    L = vl.lattice
    failures = []
    for q in vl.sorted_primes():
        for jid in L.classes[q.subgroup_class]:
            if not L.leq(jid, hid):
                continue
            cuts = L.mackey_cuts(kid, jid, hid)
            if not any(vl.contains(L.class_of[cut], q.height, q.prime) for _, cut in cuts):
                failures.append(nc.NormFailure(kid, hid, jid, q, cuts))
    return tuple(failures)


def classes_below_by_scan(L: nc.SubgroupLattice, hid: int) -> tuple:
    """``(class, members J <= H)`` for each class with such a member, by class."""
    hmask = L.subgroups[hid].mask
    below = []
    for c, members in enumerate(L.classes):
        inside = tuple(j for j in members if not L.subgroups[j].mask & ~hmask)
        if inside:
            below.append((c, inside))
    return tuple(below)


def pair_cut_table(L: nc.SubgroupLattice, kid: int, hid: int) -> tuple:
    """The cut table of the norm K -> H, one pair at a time.

    One ``(class, ((J, cut-class bitmask), ...))`` per class with a member
    J <= H, in class order; the bitmask has a bit for the class of each cut
    K^h n J, h in H, each cut found by intersecting member masks.
    """
    subgroups, class_of = L.subgroups, L.class_of
    kconj = L.conj[kid]
    conjugates = [subgroups[c].mask for c in {kconj[h] for h in subgroups[hid].members}]
    table = []
    for c, jids in classes_below_by_scan(L, hid):
        row = []
        for jid in jids:
            jmask = subgroups[jid].mask
            row.append((jid, sum({1 << class_of[L.id_of_mask(k & jmask)] for k in conjugates})))
        table.append((c, tuple(row)))
    return tuple(table)


def cut_table_failures(vl: nc.VanishingLocus, cuts) -> list:
    """``(J, prime)`` for each prime of the locus at J that no cut carries.

    By class, then prime, then J, over a :func:`pair_cut_table`.
    """
    return [
        (jid, q)
        for c, row in cuts
        for q, in_locus in vl.primes_at_class(c)
        for jid, cut in row
        if not cut & in_locus
    ]


def cut_table_obstructions(vl: nc.VanishingLocus, kid: int, hid: int) -> tuple:
    """The witnesses of the norm K -> H, read off its :func:`pair_cut_table`."""
    L = vl.lattice
    checked = {}
    out = []
    for jid, q in cut_table_failures(vl, pair_cut_table(L, kid, hid)):
        if jid not in checked:
            checked[jid] = L.mackey_cuts(kid, jid, hid)
        out.append(nc.NormFailure(kid, hid, jid, q, checked[jid]))
    return tuple(out)


def random_rep_norm_preserves(vl: nc.VanishingLocus, kid: int, hid: int, rng) -> bool:
    """The preservation criterion with a random element of each double coset.

    Same loop as the engine, but each block of K\\H/J is represented by
    ``rng.choice(block)`` instead of its least element, so agreement with
    the engine shows the verdict does not depend on the representative.
    """
    L = vl.lattice
    ok = True
    for q in vl.sorted_primes():
        for jid in L.classes[q.subgroup_class]:
            if not L.leq(jid, hid):
                continue
            for block in L.double_coset_blocks(kid, jid, hid):
                cut = L.intersect_ids(L.conj_id(kid, rng.choice(block)), jid)
                if vl.contains(L.class_of[cut], q.height, q.prime):
                    break
            else:
                ok = False
    return ok


def element_order(G: nc.FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != G.identity:
        x = G.mul(x, a)
        k += 1
    return k


def element_order_cyclic_p_power(L: nc.SubgroupLattice):
    """(p, n) when the group has order p**n, n >= 1, and an element of that order."""
    G = L.group
    if G.order == 1:
        return None
    p = min(d for d in range(2, G.order + 1) if G.order % d == 0)
    n = 0
    while p ** (n + 1) <= G.order and G.order % p ** (n + 1) == 0:
        n += 1
    if p**n != G.order or max(element_order(G, a) for a in range(G.order)) != G.order:
        return None
    return p, n


def contains_by_definition(vl: nc.VanishingLocus, c: int, height, prime) -> bool:
    """Locus membership read off the set of Balmer primes itself."""
    if height == nc.INFINITY:
        return nc.BalmerPrime(c, nc.INFINITY, prime) in vl.primes
    if nc.balmer_prime(c, height, prime) in vl.primes:
        return True
    if height == 0:
        return any(q.height == nc.INFINITY and q.subgroup_class == c for q in vl.primes)
    return nc.BalmerPrime(c, nc.INFINITY, prime) in vl.primes


def segment_top_by_definition(vl: nc.VanishingLocus, c: int, prime):
    """The maximal height at (class, prime) read off the set of Balmer primes itself."""
    if nc.BalmerPrime(c, nc.INFINITY, prime) in vl.primes:
        return nc.INFINITY
    finite = [
        q.height
        for q in vl.primes
        if q.subgroup_class == c and q.prime == prime and q.height != nc.INFINITY
    ]
    if finite:
        return max(finite)
    return 0 if contains_by_definition(vl, c, 0, nc.ANY_PRIME) else None


def _height_key(h) -> tuple:
    return (1, 0) if h == nc.INFINITY else (0, h)


def _prime_key(p) -> tuple:
    return (1, 0) if p == nc.ANY_PRIME else (0, p)


def prime_sort_key(q: nc.BalmerPrime) -> tuple:
    """The order of primes spelled out: class, then height with INFINITY
    last, then prime with the ANY marker last."""
    return (q.subgroup_class, _height_key(q.height), _prime_key(q.prime))


def subconjugate_witness(L: nc.SubgroupLattice, kid: int, hid: int) -> int | None:
    """The least g with K^g <= H, or None when K is not subconjugate to H."""
    return next((g for g, kg in enumerate(L.conj[kid]) if L.leq(kg, hid)), None)


# -- set-level oracle ----------------------------------------------------------------
#
# A transfer system R makes an H-set admissible when each of its orbits H/K
# carries an admissible transfer (K', H) with K' conjugate to K in H.  The
# admissible sets form an indexing system exactly when R is a transfer system
# (Rubin; Balchin-Barnes-Roitzheim); the oracle below checks that closure
# directly on every H-set of bounded cardinality.

DEFAULT_ORACLE_BOUND = 8


@dataclass(frozen=True)
class GSet:
    """A finite H-set, recorded as the multiset of its orbit stabilizers."""

    base: int
    orbits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(sorted(self.orbits)))


@dataclass(frozen=True)
class ClosureCounterexample:
    """A set-level closure failure: operation, inputs, inadmissible result."""

    operation: str
    inputs: tuple[GSet, ...]
    result: GSet


def g_set(L: nc.SubgroupLattice, base, orbits) -> GSet:
    bid = base if isinstance(base, int) else base.lattice_id
    orbs = tuple(sorted(orbits))
    for kid in orbs:
        if not L.leq(kid, bid):
            raise ValueError(f"orbit stabilizer {kid} is not contained in {bid}")
    return GSet(bid, orbs)


def gset_cardinality(L: nc.SubgroupLattice, T: GSet) -> int:
    b = L.subgroups[T.base].order
    return sum(b // L.subgroups[k].order for k in T.orbits)


def conjugate_gset(L: nc.SubgroupLattice, T: GSet, g: int) -> GSet:
    return GSet(L.conj_id(T.base, g), tuple(L.conj_id(k, g) for k in T.orbits))


def is_admissible(R: nc.TransferSystem, T: GSet) -> bool:
    """Whether every orbit of T carries an admissible transfer up to its base."""
    L = R.lattice
    base = T.base
    for kid in set(T.orbits):
        members = L.subgroups[base].members
        if not any((L.conj_id(kid, h), base) in R.pairs for h in members):
            return False
    return True


def _canonical_in(L: nc.SubgroupLattice, base: int, kid: int) -> int:
    """Least lattice id in the conjugacy class of kid under the base subgroup."""
    return min(L.conj_id(kid, h) for h in L.subgroups[base].members)


def _orbit_labels(L: nc.SubgroupLattice, base: int) -> tuple[int, ...]:
    return tuple(
        sorted(
            {
                _canonical_in(L, base, kid)
                for kid in range(len(L))
                if L.leq(kid, base)
            }
        )
    )


def _window(L: nc.SubgroupLattice, base: int, size_bound: int) -> list[GSet]:
    """All base-sets of total cardinality <= size_bound, up to isomorphism."""
    labels = _orbit_labels(L, base)
    border = L.subgroups[base].order
    out = []

    def rec(i: int, budget: int, acc: list[int]):
        out.append(GSet(base, tuple(acc)))
        for j in range(i, len(labels)):
            c = border // L.subgroups[labels[j]].order
            if c <= budget:
                acc.append(labels[j])
                rec(j, budget - c, acc)
                acc.pop()

    rec(0, size_bound, [])
    return out


def product_gset(L: nc.SubgroupLattice, S: GSet, T: GSet) -> GSet:
    if S.base != T.base:
        raise ValueError("product needs a common base subgroup")
    # base/U x base/V has one orbit per double coset U\base/V
    orbits = tuple(
        cut for u in S.orbits for v in T.orbits for _, cut in L.mackey_cuts(u, v, S.base)
    )
    return GSet(S.base, orbits)


def restrict_gset(L: nc.SubgroupLattice, T: GSet, jid: int) -> GSet:
    if not L.leq(jid, T.base):
        raise ValueError("can only restrict to a subgroup of the base")
    orbits = tuple(cut for kid in T.orbits for _, cut in L.mackey_cuts(kid, jid, T.base))
    return GSet(jid, orbits)


def induce_gset(L: nc.SubgroupLattice, T: GSet, hid: int) -> GSet:
    if not L.leq(T.base, hid):
        raise ValueError("can only induce to an oversubgroup of the base")
    return GSet(hid, T.orbits)


def indexing_closure_oracle(
    R: nc.TransferSystem, H, size_bound: int = 6
) -> ClosureCounterexample | None:
    """Brute-force check that the admissible-set family below H is closed.

    Enumerates all J-sets of cardinality <= size_bound for every J <= H and
    verifies closure under subobjects, binary products (decomposed orbit by
    orbit through double cosets), restriction to smaller subgroups, and
    self-induction along admissible orbits.  Returns the first failure, or
    None when the family is closed.
    """
    if size_bound > DEFAULT_ORACLE_BOUND:
        raise nc.BoundTooLarge(f"size bound {size_bound} exceeds {DEFAULT_ORACLE_BOUND}")
    L = R.lattice
    hid = H if isinstance(H, int) else H.lattice_id
    bases = [j for j in range(len(L)) if L.leq(j, hid)]
    windows = {b: _window(L, b, size_bound) for b in bases}
    admissible = {
        b: [T for T in windows[b] if is_admissible(R, T)] for b in bases
    }

    for b in bases:
        for T in admissible[b]:
            seen = set()
            for r in range(len(T.orbits)):
                for sub in itertools.combinations(T.orbits, r):
                    S = GSet(b, sub)
                    if S.orbits in seen:
                        continue
                    seen.add(S.orbits)
                    if not is_admissible(R, S):
                        return ClosureCounterexample("subobject", (T,), S)

    for b in bases:
        adm = admissible[b]
        for i, S in enumerate(adm):
            for T in adm[i:]:
                P = product_gset(L, S, T)
                if not is_admissible(R, P):
                    return ClosureCounterexample("product", (S, T), P)

    for b in bases:
        for T in admissible[b]:
            for j in bases:
                if j == b or not L.leq(j, b):
                    continue
                res = restrict_gset(L, T, j)
                if not is_admissible(R, res):
                    return ClosureCounterexample("restriction", (T,), res)

    for kid, hid2 in sorted(R.pairs):
        if kid == hid2 or not L.leq(hid2, hid):
            continue
        for T in admissible[kid]:
            ind = induce_gset(L, T, hid2)
            if not is_admissible(R, ind):
                return ClosureCounterexample("induction", (T,), ind)

    return None


# -- height-vector scans -------------------------------------------------------------


def _height_domain(height_bound: int, include_infinity: bool) -> list:
    return [None, *range(height_bound + 1)] + ([nc.INFINITY] if include_infinity else [])


def _rank(e):
    return -1 if e is None else e


def brute_force_commutative_heights(n: int, height_bound: int, include_infinity: bool) -> tuple:
    """Entry tuples of every vector passing both inequality forms, in product order.

    Scans every vector over None, 0..height_bound (and INFINITY) and keeps
    those with rank(r[i+1]) <= rank(r[i]) <= rank(r[i+1]) + 1.
    """
    domain = _height_domain(height_bound, include_infinity)
    return tuple(
        e
        for e in itertools.product(domain, repeat=n + 1)
        if all(_rank(e[i + 1]) <= _rank(e[i]) <= _rank(e[i + 1]) + 1 for i in range(n))
    )


def brute_force_valid_heights(n: int, height_bound: int) -> tuple:
    """Entry tuples of every valid vector a cross-validation sweep covers, in product order."""
    domain = _height_domain(height_bound, True)
    return tuple(
        e
        for e in itertools.product(domain, repeat=n + 1)
        if all(_rank(e[i]) <= _rank(e[i + 1]) + 1 for i in range(n))
    )


def commutative_count(n: int, height_bound: int, include_infinity: bool) -> int:
    """Closed form: a top entry t, then at most t + 1 down-steps among n.

    The top ranges over None (rank -1) and 0..height_bound, so the all-None
    vector counts even for a negative bound.
    """
    return sum(
        math.comb(n, k)
        for top in range(-1, max(height_bound, -1) + 1)
        for k in range(min(n, top + 1) + 1)
    ) + int(include_infinity)


def cross_validate_by_decisions(n: int, p: int, height_bound: int) -> nc.CrossValidationReport:
    """The cross-validation sweep with one complete-operad decision per vector.

    Each norm's verdict is read off that decision's witnesses, and the
    operad verdict is the decision's; bounds are not checked.
    """
    from normcert.certify import Disagreement, _walk
    from normcert.chromatic import _closed_step

    lattice = nc.cyclic_power_lattice(p, n, p**n)
    complete = nc.complete_system(lattice)
    domain = [None] + list(range(height_bound + 1)) + [nc.INFINITY]
    vectors = norms = operads = 0
    disagreements = []
    for entries in _walk(n + 1, domain, _closed_step):
        v = nc.HeightVector(p, entries)
        vectors += 1
        decision = nc.localization_preserves(nc.heights_to_locus(v, lattice), complete)
        failing = {(w.norm_source, w.norm_target) for w in decision.witnesses}
        for k in range(n + 1):
            for j in range(k, n + 1):
                norms += 1
                engine = (k, j) not in failing
                shortcut = nc.norm_condition_holds(v, k, j)
                if engine != shortcut:
                    disagreements.append(Disagreement(entries, f"norm[{k},{j}]", engine, shortcut))
        operads += 1
        shortcut = nc.commutative_condition_holds(v)
        if decision.certified != shortcut:
            disagreements.append(
                Disagreement(entries, "complete-operad", decision.certified, shortcut)
            )
    return nc.CrossValidationReport(
        n, p, height_bound, vectors, norms, operads, tuple(disagreements)
    )


# -- reports ---------------------------------------------------------------------


def set_bits_by_scan(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, found in one scan over its binary digits."""
    return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]


def enumeration_doc_by_hand(L: nc.SubgroupLattice, enum: nc.TransferEnumeration) -> dict:
    """The transfer-enumeration document, built as a dict."""
    return {
        "schema_version": iomod.SCHEMA_VERSION,
        "kind": "transfer-enumeration",
        "group": L.group.name,
        "count": len(enum.systems),
        "systems": [
            {
                "index": i,
                "pairs": [[L.names[k], L.names[h]] for k, h in sorted(s.pairs)],
            }
            for i, s in enumerate(enum.systems)
        ],
        "containment": [set_bits_by_scan(up) for up in enum.up],
    }


def enumeration_text_by_loop(L: nc.SubgroupLattice, enum: nc.TransferEnumeration) -> str:
    """The text listing of ``transfer-enumerate``, one system's sorted strict pairs at a time."""
    names = L.names
    lines = [f"transfer systems on {L.group.name}: {len(enum.systems)}"]
    for i, s in enumerate(enum.systems):
        pairs = " ".join(f"({names[k]}<{names[h]})" for k, h in sorted(s.pairs) if k != h)
        lines.append(f"T{i}: {len(s.pairs)} pairs {pairs}".rstrip())
    return "\n".join(lines) + "\n"


def transfer_poset_dot_by_loop(L: nc.SubgroupLattice, enum: nc.TransferEnumeration) -> str:
    """The DOT transfer poset, each node labelled with its system's pair count."""
    lines = ["digraph transfer_systems {", "  rankdir=BT;"]
    lines += [f'  "T{i}" [label="T{i} ({len(s.pairs)} pairs)"];'
              for i, s in enumerate(enum.systems)]
    edges = sorted((f'"T{i}"', f'"T{j}"') for i, j in hasse_covers(enum.up))
    lines += [f"  {a} -> {b};" for a, b in edges]
    return "\n".join(lines + ["}"]) + "\n"


def _prime_entry(L: nc.SubgroupLattice, q: nc.BalmerPrime) -> dict:
    return {
        "subgroup": L.names[L.classes[q.subgroup_class][0]],
        "height": "inf" if q.height == nc.INFINITY else q.height,
        "prime": q.prime,
    }


def decision_doc_by_hand(
    d: nc.Decision, L: nc.SubgroupLattice, R: nc.TransferSystem, vl: nc.VanishingLocus
) -> dict:
    """The decision report, built as a dict from a kept decision."""
    return {
        "schema_version": iomod.SCHEMA_VERSION,
        "kind": "decision-report",
        "group": L.group.name,
        "verdict": d.verdict.value,
        "inputs": {
            "group": {"name": L.group.name, "digest": iomod.digest(iomod.group_doc(L.group))},
            "operad": {"digest": iomod.digest(iomod.system_doc(R))},
            "locus": {"digest": iomod.digest(iomod.locus_doc(vl))},
        },
        "witnesses": [
            {
                "norm_source": L.names[w.norm_source],
                "norm_target": L.names[w.norm_target],
                "subgroup": L.names[w.subgroup],
                "prime": _prime_entry(L, w.prime),
                "checked": [[rep, L.names[cut]] for rep, cut in w.checked],
            }
            for w in d.witnesses
        ],
    }


def decision_text_by_loop(
    d: nc.Decision, L: nc.SubgroupLattice, R: nc.TransferSystem, vl: nc.VanishingLocus
) -> str:
    """The text decision report, one witness at a time with nothing shared."""
    lines = [
        f"group: {L.group.name}",
        f"operad: {len(R.pairs)} admissible pairs",
        f"locus: {len(vl.primes)} primes",
        f"verdict: {d.verdict.value}",
    ]
    for w in d.witnesses:
        q = w.prime
        rep = L.names[L.classes[q.subgroup_class][0]]
        height = "inf" if q.height == nc.INFINITY else q.height
        checked = " ".join(f"({r},{L.names[c]})" for r, c in w.checked)
        lines.append(
            f"witness: norm {L.names[w.norm_source]}->{L.names[w.norm_target]}"
            f" fails at P({rep},{height},{q.prime})"
            f" via {L.names[w.subgroup]}; checked {checked}"
        )
    return "\n".join(lines) + "\n"


# -- randomized generators ---------------------------------------------------------


def random_tops(rng, allow_infinity=True) -> dict:
    """Random prime -> top-height map describing a nonequivariant support."""
    tops = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(1, len(SMALL_PRIMES))):
        if allow_infinity and rng.random() < 0.15:
            tops[p] = nc.INFINITY
        else:
            tops[p] = rng.randint(0, 4)
    return tops


def _segment_primes(c: int, p: int, top) -> list:
    if top is None:
        return []
    if top == nc.INFINITY:
        return [nc.BalmerPrime(c, nc.INFINITY, p)]
    return [nc.balmer_prime(c, m, p) for m in range(top + 1)]


def _random_chain_tops(rng, n: int, domain) -> list:
    """Tops t_0..t_n with rank(t_i) <= rank(t_{i+1}) + 1, sampled back to front."""

    def rank(e):
        return -1 if e is None else e

    tops = [rng.choice(domain)]
    for _ in range(n):
        ceiling = rank(tops[0]) + 1
        tops.insert(0, rng.choice([d for d in domain if rank(d) <= ceiling]))
    return tops


def random_valid_locus(L: nc.SubgroupLattice, rng) -> nc.VanishingLocus:
    """A random locus passing validate_vanishing_locus on any corpus lattice."""
    from normcert.chromatic import cyclic_p_power

    domain = [None, 0, 1, 2, 3, nc.INFINITY]
    primes = []
    pn = cyclic_p_power(L)
    if pn is not None:
        p, n = pn
        tops = _random_chain_tops(rng, n, domain)
        for i, top in enumerate(tops):
            c = next(
                L.class_of[s.lattice_id] for s in L.subgroups if s.order == p**i
            )
            primes.extend(_segment_primes(c, p, top))
        if rng.random() < 0.3:
            q = rng.choice([q for q in SMALL_PRIMES if q != p])
            for c in range(len(L.classes)):
                primes.extend(_segment_primes(c, q, rng.choice(domain)))
    else:
        for c in range(len(L.classes)):
            for p in SMALL_PRIMES:
                if rng.random() < 0.4:
                    primes.extend(_segment_primes(c, p, rng.choice(domain)))
    vl = nc.vanishing_locus(L, primes)
    assert not nc.validate_vanishing_locus(vl)
    return vl


# the groups of the decide-mix benchmark workload, (short name, spec); the
# short name seeds that workload's random loci
DECIDE_MIX_GROUPS = workloads.DECIDE_GROUPS


def random_uniform_locus(L: nc.SubgroupLattice, rng) -> nc.VanishingLocus:
    vl = nc.uniform_locus(L, random_tops(rng))
    assert not nc.validate_vanishing_locus(vl)
    return vl


def random_support_data(L: nc.SubgroupLattice, rng) -> nc.SupportData:
    """Arbitrary per-class support profiles; no closure imposed."""
    universe = [(m, p) for p in SMALL_PRIMES for m in (1, 2, 3, nc.INFINITY)]
    universe += [(0, nc.ANY_PRIME)]
    per_class = []
    for _ in L.classes:
        k = rng.randint(0, len(universe))
        per_class.append(frozenset(rng.sample(universe, k)))
    return nc.support_data(L, per_class)


def random_pair(L: nc.SubgroupLattice, rng) -> tuple[int, int]:
    """A random nested pair (kid, hid)."""
    pairs = [(i, i) for i in range(len(L))] + list(candidate_pairs(L))
    return rng.choice(sorted(pairs))


# -- a small DOT grammar check ------------------------------------------------------

_DOT_NODE = re.compile(r'^"[^"]+"( \[label="[^"]*"\])?;$')
_DOT_EDGE = re.compile(r'^"[^"]+" -> "[^"]+";$')


def check_dot_syntax(text: str) -> None:
    lines = text.splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith(" {")
    assert lines[-1] == "}"
    assert text.endswith("}\n")
    for line in lines[1:-1]:
        stripped = line.strip()
        if stripped == "rankdir=BT;":
            continue
        assert _DOT_NODE.match(stripped) or _DOT_EDGE.match(stripped), stripped
