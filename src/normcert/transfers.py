"""Transfer systems: the relational shadow of N-infinity operads.

A transfer system on a subgroup lattice is a set of "admissible" pairs
(K, H) with K <= H, read as "the norm from K up to H is available".  The
closure axioms are:

* reflexivity: (H, H) for every H;
* transitivity: (L, K) and (K, H) give (L, H);
* conjugation: (K, H) gives (K^g, H^g) for every g;
* restriction: (K, H) and J <= H give (K n J, J).

On a conjugation-closed set this restriction rule is equivalent to the
Mackey form "(K^h n J, J) for every double coset KhJ in K\\H/J", since
(K, H) gives (K^h, H) for every h in H.  These four rules are exactly what
closure of the corresponding family of finite H-sets (an indexing system)
under subobjects, products, restriction and self-induction amounts to
(Rubin; Balchin-Barnes-Roitzheim), so the engine never builds H-sets.

Closure works on conjugation orbits of strict pairs, so conjugation never
has to be applied pair by pair: a system is the reflexive pairs plus a set
of orbits, held as an int bitmask.  One closure operator serves
:func:`close_transfer_system` and :func:`enumerate_transfer_systems`.  Its
tables (orbit ids, the restriction step of each orbit, the composites of
two orbits) are filled lazily, so a closure does only the work it needs.
Each call builds its own tables and drops them on return: within one
closure every orbit joins once, so only the many closures of one
enumeration reuse them, and the lattice holds nothing of transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import SubgroupLattice, _bits


class TransferError(Exception):
    pass


class LatticeTooLarge(TransferError):
    """Too many candidate pairs for exhaustive enumeration."""


class BoundTooLarge(TransferError):
    """A requested chain length, height bound or group order exceeds its bound."""


DEFAULT_MAX_PAIRS = 30

Pair = tuple[int, int]


@dataclass(frozen=True)
class TransferSystem:
    """A set of admissible (K_id, H_id) pairs over a fixed lattice.

    The pair set always includes the reflexive pairs.  No validity is
    enforced at construction; use :func:`validate_transfer_system`.
    """

    lattice: SubgroupLattice
    pairs: frozenset[Pair]

    def strict_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(p for p in self.pairs if p[0] != p[1]))

    def sorted_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, with the subgroups (and element) involved."""

    axiom: str
    witness: tuple


def reflexive_pairs(L: SubgroupLattice) -> frozenset[Pair]:
    return frozenset((i, i) for i in range(len(L)))


def candidate_pairs(L: SubgroupLattice) -> tuple[Pair, ...]:
    """All strictly nested pairs (kid, hid), the ground set for enumeration.

    Sorted.  Ids are sorted by order, so a strict superset of K has a
    larger id than K and only those ids are tested.
    """
    outside = [~s.mask for s in L.subgroups]
    return tuple(
        (k, h)
        for k, s in enumerate(L.subgroups)
        for h, out in enumerate(outside[k + 1:], k + 1)
        if not s.mask & out
    )


def trivial_system(L: SubgroupLattice) -> TransferSystem:
    return TransferSystem(L, reflexive_pairs(L))


def complete_system(L: SubgroupLattice) -> TransferSystem:
    return TransferSystem(L, reflexive_pairs(L) | set(candidate_pairs(L)))


def _restriction_consequences(L: SubgroupLattice, kid: int, hid: int) -> tuple[Pair, ...]:
    """(K n J, J) for every J <= H, in order of J."""
    return tuple((L.intersect_ids(kid, jid), jid) for jid in range(len(L)) if L.leq(jid, hid))


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
        for g, image in enumerate(zip(L.conj[kid], L.conj[hid])):
            if image not in R.pairs:
                out.append(Violation("conjugation", (kid, hid, g, image)))
    for kid, hid in pairs:
        for pair in _restriction_consequences(L, kid, hid):
            if pair not in R.pairs:
                out.append(Violation("restriction", (kid, hid, pair)))
    return out


class _OrbitTables:
    """Conjugation orbits of strict pairs and their one-step consequences.

    One instance per :func:`close_transfer_system` or
    :func:`enumerate_transfer_systems` call, filled on demand, so a closure
    pays only for the orbits it reaches and the closures of one enumeration
    share the work.
    Orbit ids count orbits in order of discovery; ``members[a]`` lists the
    pairs of orbit ``a`` in sorted order and ``members[a][0]`` is its
    representative.  A set of orbits is an int with bit ``a`` for orbit
    ``a``.  The tables are:

    * ``orbit_of``: strict pair -> orbit id;
    * ``step[a]``: the orbits of the restrictions (K n J, J), J <= H, of
      a's representative (K, H);
    * ``comp[a][b]``: the orbits of (l, h) for the representative (l, k)
      of ``a`` and every (k, h) in ``b``.

    Conjugation is free on orbit masks, and conjugating a composite or a
    restriction of one pair gives those of its conjugate, so representatives
    suffice.  For the same reason the intersection form of restriction is
    enough: the Mackey cut K^h n J of (K, H) is the restriction
    K n J^(h^-1) conjugated by h, and J^(h^-1) <= H.  ``starts[c]`` and
    ``ends[c]`` mask the orbits whose bottom, respectively top, subgroup lies
    in conjugacy class ``c``: only those can compose with an orbit ending,
    respectively starting, in ``c``.
    """

    def __init__(self, L: SubgroupLattice):
        self.lattice = L
        self.orbit_of: dict[Pair, int] = {}
        self.members: list[tuple[Pair, ...]] = []
        self.step: list[int | None] = []
        self.comp: list[dict[int, int]] = []
        self.bottom_class: list[int] = []
        self.top_class: list[int] = []
        self.starts = [0] * len(L.classes)
        self.ends = [0] * len(L.classes)

    def orbit_id(self, kid: int, hid: int) -> int:
        """Id of the orbit of the strict pair (kid, hid), registered on first sight."""
        a = self.orbit_of.get((kid, hid))
        if a is None:
            L = self.lattice
            orbit = tuple(sorted(set(zip(L.conj[kid], L.conj[hid]))))
            a = len(self.members)
            for p in orbit:
                self.orbit_of[p] = a
            self.members.append(orbit)
            self.step.append(None)
            self.comp.append({})
            bottom, top = L.class_of[kid], L.class_of[hid]
            self.bottom_class.append(bottom)
            self.top_class.append(top)
            self.starts[bottom] |= 1 << a
            self.ends[top] |= 1 << a
        return a

    def _step(self, a: int) -> int:
        out = self.step[a]
        if out is None:
            out = 0
            for cut, jid in _restriction_consequences(self.lattice, *self.members[a][0]):
                if cut != jid:
                    out |= 1 << self.orbit_id(cut, jid)
            self.step[a] = out
        return out

    def _compose(self, a: int, b: int) -> int:
        row = self.comp[a]
        out = row.get(b)
        if out is None:
            lid, kid = self.members[a][0]
            out = 0
            for k2, hid in self.members[b]:
                if k2 == kid:
                    out |= 1 << self.orbit_id(lid, hid)
            row[b] = out
        return out

    def close(self, seed: int) -> int:
        """The least closed orbit set containing ``seed``.

        Each orbit joins once; on joining it adds its restriction step and
        its composites with every orbit already present, on either side.
        """
        closed, todo = 0, seed
        starts, ends = self.starts, self.ends
        while todo:
            low = todo & -todo
            a = low.bit_length() - 1
            closed |= low
            new = self._step(a)
            right = closed & starts[self.top_class[a]]
            while right:
                bit = right & -right
                right ^= bit
                new |= self._compose(a, bit.bit_length() - 1)
            left = closed & ends[self.bottom_class[a]]
            while left:
                bit = left & -left
                left ^= bit
                new |= self._compose(bit.bit_length() - 1, a)
            todo = (todo | new) & ~closed
        return closed

    def pairs(self, mask: int) -> frozenset[Pair]:
        """The reflexive pairs plus every pair of the orbits in ``mask``."""
        out = set(reflexive_pairs(self.lattice))
        for a in _bits(mask):
            out.update(self.members[a])
        return frozenset(out)


def close_transfer_system(L: SubgroupLattice, seed) -> TransferSystem:
    """Smallest transfer system containing the seed pairs.

    The seed is mapped to a bitmask of conjugation orbits of strict pairs
    and closed under restriction and composition there (see
    :class:`_OrbitTables`), on tables built for this call alone.  Uniqueness
    of the result follows from the axioms being closed under intersection.
    """
    tables = _OrbitTables(L)
    mask = 0
    for kid, hid in seed:
        if not L.leq(kid, hid):
            raise ValueError(f"seed pair ({kid}, {hid}) is not nested")
        if kid != hid:
            mask |= 1 << tables.orbit_id(kid, hid)
    return TransferSystem(L, tables.pairs(tables.close(mask)))


@dataclass(frozen=True)
class TransferEnumeration:
    """All transfer systems on a lattice plus their containment order.

    ``up[i]`` has bit ``j`` set when ``systems[i]`` is contained in
    ``systems[j]`` (bit ``i`` included).
    """

    systems: tuple[TransferSystem, ...]
    up: tuple[int, ...]

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

    The scan runs Ganter's next-closure over int bitmasks of conjugation
    orbits of the strictly nested pairs, with the orbit closure of
    :func:`close_transfer_system` as the closure operator, memoized over
    this one scan, so each system is produced exactly once.  Containment is
    read off the masks: system i lies below system j exactly when j
    contains every orbit of i.
    """
    strict = candidate_pairs(L)
    if len(strict) > max_pairs:
        raise LatticeTooLarge(
            f"{len(strict)} candidate pairs exceed the enumeration bound {max_pairs}"
        )
    tables = _OrbitTables(L)
    for p in strict:
        tables.orbit_id(*p)
    m = len(tables.members)
    close = tables.close

    found = []
    current = close(0)
    while current is not None:
        found.append(current)
        nxt = None
        for i in range(m - 1, -1, -1):
            bit = 1 << i
            if current & bit:
                current ^= bit
                continue
            cand = close(current | bit)
            if cand & ~current & (bit - 1) == 0:
                nxt = cand
                break
        current = nxt

    ranked = sorted(
        ((TransferSystem(L, tables.pairs(mask)), mask) for mask in found),
        key=lambda sm: (len(sm[0].pairs), sm[0].sorted_pairs()),
    )
    # holders[a]: the systems that contain orbit a
    holders = [0] * m
    for j, (_, mask) in enumerate(ranked):
        for a in _bits(mask):
            holders[a] |= 1 << j
    up = []
    for _, mask in ranked:
        above = (1 << len(ranked)) - 1
        for a in _bits(mask):
            above &= holders[a]
        up.append(above)
    return TransferEnumeration(tuple(s for s, _ in ranked), tuple(up))
