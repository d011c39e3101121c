"""Transfer systems: the relational shadow of N-infinity operads.

A transfer system on a subgroup lattice is a set of "admissible" pairs
(K, H) with K <= H, read as "the norm from K up to H is available".  The
closure axioms are:

* reflexivity: (H, H) for every H;
* transitivity: (L, K) and (K, H) give (L, H);
* conjugation: (K, H) gives (K^g, H^g) for every g;
* restriction: (K, H) and J <= H give (K^h n J, J) for every double coset
  KhJ in K\\H/J.

These four rules are exactly what closure of the corresponding family of
finite H-sets under subobjects, products, restriction and self-induction
amounts to; ``indexing_closure_oracle`` checks that equivalence concretely
on small H-sets and is kept independent of the relational code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groups import Subgroup, SubgroupLattice


class TransferError(Exception):
    pass


class LatticeTooLarge(TransferError):
    """Too many candidate pairs for exhaustive enumeration."""


class BoundTooLarge(TransferError):
    """Requested oracle window exceeds the supported size."""


DEFAULT_MAX_PAIRS = 30
DEFAULT_ORACLE_BOUND = 8

Pair = tuple[int, int]


@dataclass(frozen=True)
class TransferSystem:
    """A set of admissible (K_id, H_id) pairs over a fixed lattice.

    The pair set always includes the reflexive pairs.  No validity is
    enforced at construction; use :func:`validate_transfer_system`.
    """

    lattice: SubgroupLattice
    pairs: frozenset[Pair]

    def admits(self, kid: int, hid: int) -> bool:
        return (kid, hid) in self.pairs

    def strict_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(p for p in self.pairs if p[0] != p[1]))

    def sorted_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GSet:
    """A finite H-set, recorded as the multiset of its orbit stabilizers."""

    base: int
    orbits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(sorted(self.orbits)))


def g_set(L: SubgroupLattice, base: Subgroup | int, orbits) -> GSet:
    bid = base if isinstance(base, int) else base.lattice_id
    orbs = tuple(sorted(orbits))
    for kid in orbs:
        if not L.leq(kid, bid):
            raise ValueError(f"orbit stabilizer {kid} is not contained in {bid}")
    return GSet(bid, orbs)


def gset_cardinality(L: SubgroupLattice, T: GSet) -> int:
    b = L.subgroups[T.base].order
    return sum(b // L.subgroups[k].order for k in T.orbits)


def conjugate_gset(L: SubgroupLattice, T: GSet, g: int) -> GSet:
    return GSet(L.conj_id(T.base, g), tuple(L.conj_id(k, g) for k in T.orbits))


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, with the subgroups (and element) involved."""

    axiom: str
    witness: tuple


def reflexive_pairs(L: SubgroupLattice) -> frozenset[Pair]:
    return frozenset((i, i) for i in range(len(L)))


def candidate_pairs(L: SubgroupLattice) -> tuple[Pair, ...]:
    """All strictly nested pairs (kid, hid), the ground set for enumeration."""
    n = len(L)
    return tuple(
        (k, h) for k in range(n) for h in range(n) if k != h and L.leq(k, h)
    )


def trivial_system(L: SubgroupLattice) -> TransferSystem:
    return TransferSystem(L, reflexive_pairs(L))


def complete_system(L: SubgroupLattice) -> TransferSystem:
    return TransferSystem(L, reflexive_pairs(L) | set(candidate_pairs(L)))


def _restriction_consequences(L: SubgroupLattice, kid: int, hid: int) -> tuple[Pair, ...]:
    out = {
        (cut, jid)
        for jid in range(len(L))
        if L.leq(jid, hid)
        for _, cut in L.mackey_cuts(kid, jid, hid)
    }
    return tuple(sorted(out))


def _conjugation_orbit(L: SubgroupLattice, kid: int, hid: int) -> tuple[Pair, ...]:
    return tuple(
        sorted({(L.conj_id(kid, g), L.conj_id(hid, g)) for g in range(L.group.order)})
    )


def validate_transfer_system(R: TransferSystem) -> list[Violation]:
    """Every violated axiom instance; an empty list means the system is valid."""
    L = R.lattice
    out = []
    for kid, hid in sorted(R.pairs):
        if not L.leq(kid, hid):
            out.append(Violation("inclusion", (kid, hid)))
    for hid in range(len(L)):
        if (hid, hid) not in R.pairs:
            out.append(Violation("reflexivity", (hid,)))
    pairs = sorted(R.pairs)
    by_top: dict[int, list[int]] = {}
    for kid, hid in pairs:
        by_top.setdefault(kid, []).append(hid)
    for lid, kid in pairs:
        for hid in by_top.get(kid, ()):
            if (lid, hid) not in R.pairs:
                out.append(Violation("transitivity", (lid, kid, hid)))
    for kid, hid in pairs:
        for g in range(L.group.order):
            image = (L.conj_id(kid, g), L.conj_id(hid, g))
            if image not in R.pairs:
                out.append(Violation("conjugation", (kid, hid, g, image)))
    for kid, hid in pairs:
        for pair in _restriction_consequences(L, kid, hid):
            if pair not in R.pairs:
                out.append(Violation("restriction", (kid, hid, pair)))
    return out


def close_transfer_system(L: SubgroupLattice, seed) -> TransferSystem:
    """Smallest transfer system containing the seed pairs.

    Worklist fixed point: each new pair is pushed once and its conjugation,
    restriction and transitivity consequences are added until nothing new
    appears.  Uniqueness of the result follows from the axioms being closed
    under intersection.
    """
    pairs: set[Pair] = set()
    stack: list[Pair] = []

    def add(p: Pair):
        if p not in pairs:
            pairs.add(p)
            stack.append(p)

    for p in reflexive_pairs(L):
        add(p)
    for kid, hid in seed:
        if not L.leq(kid, hid):
            raise ValueError(f"seed pair ({kid}, {hid}) is not nested")
        add((kid, hid))

    lower: dict[int, set[int]] = {}
    upper: dict[int, set[int]] = {}
    while stack:
        kid, hid = stack.pop()
        for q in _conjugation_orbit(L, kid, hid):
            add(q)
        for q in _restriction_consequences(L, kid, hid):
            add(q)
        for lid in lower.get(kid, ()):
            add((lid, hid))
        for uid in upper.get(hid, ()):
            add((kid, uid))
        lower.setdefault(hid, set()).add(kid)
        upper.setdefault(kid, set()).add(hid)
    return TransferSystem(L, frozenset(pairs))


def is_admissible(R: TransferSystem, T: GSet) -> bool:
    """Whether every orbit of T carries an admissible transfer up to its base."""
    L = R.lattice
    base = T.base
    for kid in set(T.orbits):
        members = L.subgroups[base].members
        if not any((L.conj_id(kid, h), base) in R.pairs for h in members):
            return False
    return True


@dataclass(frozen=True)
class TransferEnumeration:
    """All transfer systems on a lattice plus their containment order."""

    systems: tuple[TransferSystem, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __len__(self) -> int:
        return len(self.systems)

    def bottom(self) -> TransferSystem:
        return self.systems[0]

    def top(self) -> TransferSystem:
        return self.systems[-1]


def enumerate_transfer_systems(
    L: SubgroupLattice, max_pairs: int = DEFAULT_MAX_PAIRS
) -> TransferEnumeration:
    """Every transfer system on L, sorted by size then pair list.

    The scan runs Ganter's next-closure over conjugation orbits of the
    strictly nested pairs, using :func:`close_transfer_system` as the
    closure operator, so each system is produced exactly once.
    """
    strict = candidate_pairs(L)
    if len(strict) > max_pairs:
        raise LatticeTooLarge(
            f"{len(strict)} candidate pairs exceed the enumeration bound {max_pairs}"
        )
    orbit_of: dict[Pair, int] = {}
    orbits: list[tuple[Pair, ...]] = []
    for p in sorted(strict):
        if p in orbit_of:
            continue
        orb = _conjugation_orbit(L, *p)
        for q in orb:
            orbit_of[q] = len(orbits)
        orbits.append(orb)
    m = len(orbits)
    refl = reflexive_pairs(L)

    def close_idx(idxs: frozenset[int]) -> frozenset[int]:
        seed = [p for i in idxs for p in orbits[i]]
        closed = close_transfer_system(L, seed)
        return frozenset(orbit_of[p] for p in closed.pairs if p[0] != p[1])

    found = []
    current = close_idx(frozenset())
    while current is not None:
        found.append(current)
        nxt = None
        for i in range(m - 1, -1, -1):
            if i in current:
                current = current - {i}
                continue
            cand = close_idx(current | {i})
            if all(j in current for j in cand if j < i):
                nxt = cand
                break
        current = nxt

    systems = []
    for idxs in found:
        pairs = set(refl)
        for i in idxs:
            pairs.update(orbits[i])
        systems.append(TransferSystem(L, frozenset(pairs)))
    systems.sort(key=lambda s: (len(s.pairs), s.sorted_pairs()))
    leq = tuple(
        tuple(a.pairs <= b.pairs for b in systems) for a in systems
    )
    return TransferEnumeration(tuple(systems), leq)


# -- set-level oracle ----------------------------------------------------------


@dataclass(frozen=True)
class ClosureCounterexample:
    """A set-level closure failure: operation, inputs, inadmissible result."""

    operation: str
    inputs: tuple[GSet, ...]
    result: GSet


def _canonical_in(L: SubgroupLattice, base: int, kid: int) -> int:
    """Least lattice id in the conjugacy class of kid under the base subgroup."""
    return min(L.conj_id(kid, h) for h in L.subgroups[base].members)


def _orbit_labels(L: SubgroupLattice, base: int) -> tuple[int, ...]:
    return tuple(
        sorted(
            {
                _canonical_in(L, base, kid)
                for kid in range(len(L))
                if L.leq(kid, base)
            }
        )
    )


def _window(L: SubgroupLattice, base: int, size_bound: int) -> list[GSet]:
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


def product_gset(L: SubgroupLattice, S: GSet, T: GSet) -> GSet:
    if S.base != T.base:
        raise ValueError("product needs a common base subgroup")
    # base/U x base/V has one orbit per double coset U\base/V
    orbits = tuple(
        cut for u in S.orbits for v in T.orbits for _, cut in L.mackey_cuts(u, v, S.base)
    )
    return GSet(S.base, orbits)


def restrict_gset(L: SubgroupLattice, T: GSet, jid: int) -> GSet:
    if not L.leq(jid, T.base):
        raise ValueError("can only restrict to a subgroup of the base")
    orbits = tuple(cut for kid in T.orbits for _, cut in L.mackey_cuts(kid, jid, T.base))
    return GSet(jid, orbits)


def induce_gset(L: SubgroupLattice, T: GSet, hid: int) -> GSet:
    if not L.leq(T.base, hid):
        raise ValueError("can only induce to an oversubgroup of the base")
    return GSet(hid, T.orbits)


def indexing_closure_oracle(
    R: TransferSystem, H: Subgroup | int, size_bound: int = 6
) -> ClosureCounterexample | None:
    """Brute-force check that the admissible-set family below H is closed.

    Enumerates all J-sets of cardinality <= size_bound for every J <= H and
    verifies closure under subobjects, binary products (decomposed orbit by
    orbit through double cosets), restriction to smaller subgroups, and
    self-induction along admissible orbits.  Returns the first failure, or
    None when the family is closed.
    """
    if size_bound > DEFAULT_ORACLE_BOUND:
        raise BoundTooLarge(f"size bound {size_bound} exceeds {DEFAULT_ORACLE_BOUND}")
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
