"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: subgroup
lattices come from closing small generating sets, lattice covers from their
definition, transfer-system validity is re-derived with element-by-element
restriction, closure restricts along double cosets instead of intersections,
norm supports are recomputed over every element of H, the norm criterion's
witnesses are found by walking double cosets, and transfer systems are
checked against the finite H-sets they make admissible.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cache

import normcert as nc
from normcert.transfers import candidate_pairs, reflexive_pairs

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


def corpus_lattices():
    return [lattice(s) for s in CORPUS_SPECS]


# -- independent oracles ---------------------------------------------------------


def brute_force_subgroup_masks(G: nc.FiniteGroup, max_gen: int = 3) -> set[int]:
    """Closures of all generating sets of size <= max_gen."""
    masks = {G.generated_mask(0)}
    for r in range(1, max_gen + 1):
        for combo in itertools.combinations(range(G.order), r):
            m = 0
            for g in combo:
                m |= 1 << g
            masks.add(G.generated_mask(m))
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

    The reference for the orbit-mask closure: each new pair is pushed once
    and its conjugates, its restrictions (double-coset form) and its
    composites with the pairs seen so far are added until nothing new
    appears.
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
