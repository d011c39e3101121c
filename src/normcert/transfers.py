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

Two closures serve two jobs, each the test oracle of the other.
:func:`close_transfer_system` closes a seed in three sweeps over the
lattice's own tables, so its cost follows the lattice, not the square of
what it reaches.  :func:`enumerate_transfer_systems` runs Close-by-One on
int bitmasks of conjugation orbits of strict pairs, so conjugation is never
applied pair by pair; its :class:`_OrbitTables` are built whole for one
enumeration and dropped on return, and the lattice holds nothing of
transfers.
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

    The tables of Close-by-One, built whole for one enumeration.  Orbit ids
    count orbits in the order of their least pair; ``members[a]`` lists the
    pairs of orbit ``a``, its representative first.  A set of orbits is an
    int with bit ``a`` for orbit ``a``.  The tables are:

    * ``orbit_of``: strict pair -> orbit id;
    * ``step[a]``: the orbits of the restrictions (K n J, J), J <= H, of
      a's representative (K, H);
    * ``comp[a][b]``, for each orbit ``b`` of ``starts`` at a's top class:
      the orbits of (l, h) for a's representative (l, k) and every (k, h)
      in ``b``.

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
        orbit_of, members = self.orbit_of, self.members
        for kid, hid in candidate_pairs(L):
            if (kid, hid) not in orbit_of:
                orbit = dict.fromkeys(zip(L.conj[kid], L.conj[hid]), len(members))
                orbit_of.update(orbit)
                members.append(tuple(orbit))
        self.bottom_class = [L.class_of[orbit[0][0]] for orbit in members]
        self.top_class = [L.class_of[orbit[0][1]] for orbit in members]
        self.starts, self.ends = [0] * len(L.classes), [0] * len(L.classes)
        for a in range(len(members)):
            self.starts[self.bottom_class[a]] |= 1 << a
            self.ends[self.top_class[a]] |= 1 << a
        self.step, self.comp = [], []
        for (lid, kid), *_ in members:
            cuts = _restriction_consequences(L, lid, kid)
            self.step.append(sum({1 << orbit_of[cut, jid] for cut, jid in cuts if cut != jid}))
            self.comp.append({
                b: sum({1 << orbit_of[lid, hid] for k2, hid in members[b] if k2 == kid})
                for b in _bits(self.starts[L.class_of[kid]])})

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
        starts, ends, step, comp = self.starts, self.ends, self.step, self.comp
        while todo:
            if todo & stop:
                return None
            low = todo & -todo
            a = low.bit_length() - 1
            closed |= low
            new, row = step[a], comp[a]
            right = closed & starts[self.top_class[a]]
            while right:  # inline: via _bits, both and enumerate's cost enumerate-poset 15-19 %
                bit = right & -right
                right ^= bit
                new |= row[bit.bit_length() - 1]
            left = closed & ends[self.bottom_class[a]]
            while left:
                bit = left & -left
                left ^= bit
                new |= comp[bit.bit_length() - 1][a]
            todo = (todo | new) & ~closed
        return closed

    def pair_masks(self, orbits: int) -> Iterator[int]:
        """The pair mask of each orbit in ``orbits``, by id; yielded, never all held at once."""
        L, members = self.lattice, self.members
        for a in _bits(orbits):
            yield sum([1 << _pair_rank(L, kid, hid) for kid, hid in members[a]])


def close_transfer_system(L: SubgroupLattice, seed) -> TransferSystem:
    """Smallest transfer system containing the seed pairs, in three sweeps.

    ``below[h]`` masks the ids of the bottoms K of the pairs (K, H) found,
    H's own included.  The conjugates of each seed pair join; then, for j
    from the top down, ``below[j]`` gains K n J for each K in ``below[h]``
    of each upper cover h of j; then, for h from the bottom up, ``below[h]``
    gains ``below[k]`` for each k in it.  Covers suffice for restriction,
    since (K n J) n J' = K n J', and ids extend inclusion, so each sweep
    reads finished rows only.  Composing last is sound: restricting
    K -> L -> H to J gives K n J -> L n J -> J, so the transitive closure of
    a conjugation- and restriction-closed set keeps both.  The result is
    unique, as the axioms are closed under intersection.
    """
    n, conj, down = len(L), L.conj, L.down
    below = [1 << h for h in range(n)]
    for kid, hid in seed:
        _require_nested(L, kid, hid)
        if not below[hid] >> kid & 1:  # a pair present came with its conjugates
            for k, h in set(zip(conj[kid], conj[hid])):
                below[h] |= 1 << k
    subgroups, id_of_mask = L.subgroups, L._id_of_mask
    for j in range(n - 1, -1, -1):
        reach = 0
        for h in _bits(L.cover_masks[j]):
            reach |= below[h]
        jmask = subgroups[j].mask
        cuts = below[j] | reach & down[j]  # K n J = K for K <= J
        for k in _bits(reach & ~down[j]):
            cuts |= 1 << id_of_mask[subgroups[k].mask & jmask]
        below[j] = cuts
    for h in range(n):
        closed = below[h]
        for k in _bits(closed ^ 1 << h):
            closed |= below[k]
        below[h] = closed
    # rows[k]: bit i for the pair (k, h) of the i-th subgroup h above k
    rows, up = [0] * n, L.up
    for h in range(n):
        under = (1 << h) - 1
        for k in _bits(below[h]):
            rows[k] |= 1 << (up[k] & under).bit_count()
    return TransferSystem(L, sum(row << offset for row, offset in zip(rows, L.pair_offsets)))


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
