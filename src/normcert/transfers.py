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

A system is one int, its pair mask, with bit r set for entry r of the
lattice's sorted nested pairs (``SubgroupLattice.nested_pairs``), reflexive
ones included; its size, sorted pairs and strict pairs are read off the
mask against that index, which the lattice builds once.

Closure works on conjugation orbits of strict pairs, held as an int
bitmask of orbits, so conjugation is never applied pair by pair.  One
closure operator (:class:`_OrbitTables`) serves both
:func:`close_transfer_system` and :func:`enumerate_transfer_systems`, which
read pair masks off its closed orbit sets.  It can start from a closed set,
which is how the enumeration runs Close-by-One from the closed parent.  Its
tables are filled lazily, per call, and dropped on return: within one
closure every orbit joins once, so only the closures of one enumeration
reuse them, and the lattice holds nothing of transfers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

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
    """A set of admissible (K_id, H_id) pairs over a fixed lattice, as a pair mask.

    Any set of nested pairs is a mask, so no validity is enforced at
    construction; use :func:`validate_transfer_system`.  ``pairs`` is
    derived from the mask on first read.
    """

    lattice: SubgroupLattice
    mask: int

    @classmethod
    def from_pairs(cls, L: SubgroupLattice, pairs) -> TransferSystem:
        """The system of exactly ``pairs``; ValueError on a pair that is not nested."""
        mask = 0
        for kid, hid in pairs:
            _require_nested(L, kid, hid)
            mask |= 1 << _pair_rank(L, kid, hid)
        return cls(L, mask)

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        return frozenset(self.sorted_pairs())

    def strict_pairs(self) -> tuple[Pair, ...]:
        L = self.lattice
        return _bits(self.mask & ~L.reflexive_mask, L.nested_pairs)

    def sorted_pairs(self) -> tuple[Pair, ...]:
        return _bits(self.mask, self.lattice.nested_pairs)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:  # hex: str() of an int over 4300 decimal digits raises
        return f"TransferSystem(lattice={self.lattice!r}, mask={self.mask:#x})"


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, with the subgroups (and element) involved."""

    axiom: str
    witness: tuple


def candidate_pairs(L: SubgroupLattice) -> tuple[Pair, ...]:
    """All strictly nested pairs (kid, hid), sorted: the ground set for enumeration."""
    return complete_system(L).strict_pairs()


def _require_nested(L: SubgroupLattice, kid: int, hid: int) -> None:
    """ValueError unless kid and hid are subgroup ids of L and K <= H."""
    if not (0 <= kid < len(L) and 0 <= hid < len(L) and L.up[kid] >> hid & 1):
        raise ValueError(f"pair ({kid}, {hid}) is not nested")


def _pair_rank(L: SubgroupLattice, kid: int, hid: int) -> int:
    """The rank of the nested pair (kid, hid) in ``L.nested_pairs``."""
    return L.pair_offsets[kid] + (L.up[kid] & ((1 << hid) - 1)).bit_count()


def trivial_system(L: SubgroupLattice) -> TransferSystem:
    return TransferSystem(L, L.reflexive_mask)


def complete_system(L: SubgroupLattice) -> TransferSystem:
    return TransferSystem(L, (1 << len(L.nested_pairs)) - 1)


def _restriction_consequences(L: SubgroupLattice, kid: int, hid: int) -> tuple[Pair, ...]:
    """(K n J, J) for every J <= H, in order of J."""
    return tuple((L.intersect_ids(kid, jid), jid) for jid in _bits(L.down[hid]))


def validate_transfer_system(R: TransferSystem) -> list[Violation]:
    """Every violated axiom instance; an empty list means the system is valid."""
    L = R.lattice
    out = [Violation("reflexivity", (hid,)) for hid in range(len(L)) if (hid, hid) not in R.pairs]
    pairs = R.sorted_pairs()
    by_bottom: dict[int, list[int]] = {}
    for kid, hid in pairs:
        by_bottom.setdefault(kid, []).append(hid)
    for lid, kid in pairs:
        for hid in by_bottom.get(kid, ()):
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

    Orbit ids count orbits in order of discovery; ``members[a]`` lists the
    pairs of orbit ``a`` and ``members[a][0]`` is its representative.  A
    set of orbits is an int with bit ``a`` for orbit ``a``.  The tables,
    filled on demand, are:

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
            a = len(self.members)
            orbit = dict.fromkeys(zip(L.conj[kid], L.conj[hid]), a)
            self.orbit_of.update(orbit)
            self.members.append(tuple(orbit))
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

    def close(self, seed: int, closed: int = 0, stop: int = 0) -> int | None:
        """The least closed orbit set containing ``seed`` and ``closed``.

        ``closed`` must itself be closed.  Each orbit not in it joins once;
        on joining it adds its restriction step and its composites with
        every orbit already present, on either side.  The consequences of
        ``closed`` alone are in it already, so none is recomputed.  Returns
        None as soon as an orbit of ``stop`` outside ``closed`` is due to
        join, since the result would then hold it.
        """
        todo = seed & ~closed
        starts, ends = self.starts, self.ends
        while todo:
            if todo & stop:
                return None
            low = todo & -todo
            a = low.bit_length() - 1
            closed |= low
            new = self._step(a)
            right = closed & starts[self.top_class[a]]
            while right:  # inline: via _bits, both and enumerate's cost enumerate-poset 15-19 %
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

    def pair_masks(self, orbits: int) -> Iterator[int]:
        """The pair mask of each orbit in ``orbits``, by id; yielded, never all held at once."""
        L, members = self.lattice, self.members
        for a in _bits(orbits):
            yield sum([1 << _pair_rank(L, kid, hid) for kid, hid in members[a]])


def close_transfer_system(L: SubgroupLattice, seed) -> TransferSystem:
    """Smallest transfer system containing the seed pairs.

    The seed is mapped to a bitmask of conjugation orbits of strict pairs
    and closed under restriction and composition there (see
    :class:`_OrbitTables`), on tables built for this call alone.  Uniqueness
    of the result follows from the axioms being closed under intersection.
    """
    tables, mask = _OrbitTables(L), 0
    for kid, hid in seed:
        _require_nested(L, kid, hid)
        if kid != hid:
            mask |= 1 << tables.orbit_id(kid, hid)
    # orbits are disjoint sets of strict pairs, so their masks add
    return TransferSystem(L, sum(tables.pair_masks(tables.close(mask)), L.reflexive_mask))


@dataclass(frozen=True)
class TransferEnumeration:
    """All transfer systems on a lattice plus their containment order.

    ``masks[i]`` is system ``i``'s pair mask, the ``mask`` of its
    :class:`TransferSystem`, so ``masks[i].bit_count()`` counts its pairs.
    ``up[i]`` has bit ``j`` set when system ``i`` is contained in system
    ``j`` (bit ``i`` included).  ``systems``, ``bottom()`` and ``top()``
    wrap the masks; the CLI writers read the masks and build none of them.
    """

    lattice: SubgroupLattice
    masks: tuple[int, ...]
    up: tuple[int, ...]

    @cached_property
    def systems(self) -> tuple[TransferSystem, ...]:
        return tuple([TransferSystem(self.lattice, mask) for mask in self.masks])

    def __len__(self) -> int:
        return len(self.masks)

    def bottom(self) -> TransferSystem:
        return TransferSystem(self.lattice, self.masks[0])

    def top(self) -> TransferSystem:
        return TransferSystem(self.lattice, self.masks[-1])


def enumerate_transfer_systems(
    L: SubgroupLattice, max_pairs: int = DEFAULT_MAX_PAIRS
) -> TransferEnumeration:
    """Every transfer system on L as a pair mask, sorted by size then pair list.

    The search runs Close-by-One from the closed parent (Kuznetsov, 1993)
    over int bitmasks of conjugation orbits of the strictly nested pairs.
    A closed set A has a child for each orbit i above the orbit that made A
    and outside A: the closure of A plus i, started from A, so only i's
    consequences are computed.  The child is kept when it adds no orbit
    below i, which makes each system the child of exactly one parent; its
    closure stops as soon as such an orbit is due to join.

    The systems are ranked on masks.  Two pair sets of one size compare as
    sorted lists by the least pair of their symmetric difference, so the
    key (size, -rank mask), with bit N - 1 - r of the rank mask set for
    the strict pair of rank r among all N, is the order of
    ``(len(pairs), sorted_pairs())``.  A system's pair mask is the reflexive
    bits plus its orbits' pair masks.  Containment is read off the orbit
    masks: system i lies below system j exactly when j contains every
    orbit of i.
    """
    strict = candidate_pairs(L)
    if len(strict) > max_pairs:
        raise LatticeTooLarge(
            f"{len(strict)} candidate pairs exceed the enumeration bound {max_pairs}"
        )
    tables = _OrbitTables(L)
    for p in strict:
        tables.orbit_id(*p)
    m, close = len(tables.members), tables.close

    found = []
    # (closed set, bit of the first orbit a child may add), depth first;
    # -start masks that bit and every bit above it
    stack = [(close(0), 1)]
    every_orbit = (1 << m) - 1
    while stack:
        parent, start = stack.pop()
        found.append(parent)
        free = every_orbit & ~parent & -start
        while free:  # inline, like close's walks: via _bits they cost enumerate-poset 15-19 %
            bit = free & -free
            free ^= bit
            child = close(bit, parent, bit - 1)
            if child is not None:
                stack.append((child, bit << 1))

    # per orbit: its pairs' bits in the rank mask, one bit per strict pair,
    # so a system's rank mask also counts its strict pairs, and its pair mask
    rank_bit = {p: 1 << (len(strict) - 1 - r) for r, p in enumerate(strict)}
    orbit_rank = [sum([rank_bit[p] for p in orbit]) for orbit in tables.members]
    orbit_mask = list(tables.pair_masks(every_orbit))
    keyed = []
    for closed in found:
        orbits = _bits(closed)
        rank, mask = 0, L.reflexive_mask
        for a in orbits:
            rank |= orbit_rank[a]
            mask |= orbit_mask[a]
        keyed.append((rank.bit_count(), -rank, mask, orbits))
    keyed.sort()

    # holders[a]: the systems that contain orbit a
    holders = [0] * m
    for j, (_, _, _, orbits) in enumerate(keyed):
        bit = 1 << j
        for a in orbits:
            holders[a] |= bit
    every = (1 << len(keyed)) - 1
    up = []
    for _, _, _, orbits in keyed:
        above = every
        for a in orbits:
            above &= holders[a]
        up.append(above)
    return TransferEnumeration(L, tuple([k[2] for k in keyed]), tuple(up))
