"""Chromatic support data over a subgroup lattice.

The points tracked here are Balmer primes P(H, m, p): a conjugacy class of
subgroups H, a chromatic height m, and an arithmetic prime p.  Heights are
indexed so that height m means detection by the m-th Morava K-theory; at
height 0 the prime is irrelevant (torsion is torsion at every p), so those
points carry the shared marker ``ANY_PRIME``.  ``INFINITY`` is a formal top
height: a prime at height infinity stands for the whole tower of heights
above a subgroup, which keeps vanishing loci finite while letting maximal
heights be unbounded.

Two kinds of profiles live here:

* :class:`VanishingLocus` records the primes a thick subcategory kills
  (closed downward in height, per subgroup class and prime);
* :class:`SupportData` records, per subgroup class, the chromatic support
  of the geometric fixed points of a spectrum (no closure assumed).

For cyclic p-power groups a p-local locus compresses to the vector of
maximal heights per subgroup in the chain; :class:`HeightVector` is that
encoding, with ``None`` as the "nothing vanishes here" sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .groups import DEFAULT_MAX_ORDER, SubgroupLattice, cyclic_power_order, lattice_of
from .transfers import Violation  # one record shape for both validators


class ChromaticError(Exception):
    pass


class NotCyclicPGroupLattice(ChromaticError):
    """Height-vector codecs only apply to lattices of cyclic p-groups."""


class NotPLocal(ChromaticError):
    """The locus mentions primes other than the requested one."""


class LatticeMismatch(ChromaticError):
    """Operands live on different subgroup lattices."""


INFINITY = float("inf")
ANY_PRIME = "any"

Height = int | float  # a natural number, or INFINITY
Entry = int | float | None  # height-vector entry; None is the empty sentinel


def is_height(h) -> bool:
    if h == INFINITY:
        return True
    return isinstance(h, int) and not isinstance(h, bool) and h >= 0


class PrimeTooLarge(ChromaticError):
    """A prime candidate lies beyond the range of the exact primality test."""


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(p) -> bool:
    """Exact primality by deterministic Miller-Rabin; p >= MAX_PRIME raises."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p >= MAX_PRIME:
        raise PrimeTooLarge(f"{p} exceeds the largest supported prime bound {MAX_PRIME}")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class BalmerPrime:
    """The prime P(H, m, p), with H recorded as a conjugacy-class index."""

    subgroup_class: int
    height: Height
    prime: int | str

    def __post_init__(self):
        if not is_height(self.height):
            raise ValueError(f"bad height {self.height!r}")
        if self.height == 0:
            if self.prime != ANY_PRIME:
                raise ValueError("height-0 primes carry the shared ANY marker")
        elif not _is_prime(self.prime):
            raise ValueError(f"positive heights need a concrete prime, got {self.prime!r}")


def balmer_prime(subgroup_class: int, height: Height, prime) -> BalmerPrime:
    """Construct a prime, normalising the height-0 marker automatically."""
    if height == 0:
        return BalmerPrime(subgroup_class, 0, ANY_PRIME)
    return BalmerPrime(subgroup_class, height, prime)


# the order of primes: by class, then height with INFINITY last, then prime
# with ANY_PRIME last; on valid primes the fields give it directly, since
# INFINITY is a float above every int and height 0 carries only ANY_PRIME,
# so an int prime is never compared with the marker
_SORT_FIELDS = attrgetter("subgroup_class", "height", "prime")


@dataclass(frozen=True)
class VanishingLocus:
    """A set of Balmer primes, e.g. the vanishing locus of a thick subcategory.

    Conjugation closure is automatic (primes are stored per class).  A prime
    at height INFINITY denotes the full height tower at its (class, prime)
    slot, so finite primes implied by one are dropped at construction.
    """

    lattice: SubgroupLattice
    primes: frozenset[BalmerPrime]
    # the height table: class -> concrete prime -> sorted positive heights,
    # (INFINITY,) for a whole tower; the classes holding height 0, which an
    # INFINITY prime does; and per class, classes ascending, its sorted
    # primes, each with the bitmask of the lattice classes that carry its
    # (height, prime)
    _table: dict = field(init=False, repr=False, compare=False)
    _zero: frozenset = field(init=False, repr=False, compare=False)
    _by_class: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table: dict = {}
        zero = set()
        for q in self.primes:
            if q.height == 0:
                zero.add(q.subgroup_class)
            else:
                table.setdefault(q.subgroup_class, {}).setdefault(q.prime, []).append(q.height)
        n = len(self.lattice.classes)
        inf_classes = set()
        at: dict = {}  # (height, prime) -> bitmask of the lattice classes whose slot lists it
        for c, slots in table.items():
            for p, heights in slots.items():
                if INFINITY in heights:
                    inf_classes.add(c)
                    heights = slots[p] = (INFINITY,)
                else:
                    heights = slots[p] = tuple(sorted(heights))
                if 0 <= c < n:
                    for h in heights:
                        at[h, p] = at.get((h, p), 0) | 1 << c
        kept = self.primes
        if inf_classes:
            kept = frozenset(
                q
                for q in kept
                if (q.height in table[q.subgroup_class][q.prime] if q.height != 0
                    else q.subgroup_class not in inf_classes)
            )
            zero |= inf_classes
        # one mask object per (height, prime), shared by every class's row
        masks = {(h, p): mask | at.get((INFINITY, p), 0) for (h, p), mask in at.items()}
        zero_mask = sum(1 << c for c in zero if 0 <= c < n)
        by_class: dict = {}
        for q in sorted(kept, key=_SORT_FIELDS):
            mask = (
                zero_mask if q.height == 0
                else masks.get((q.height, q.prime)) or at.get((INFINITY, q.prime), 0)
            )
            by_class.setdefault(q.subgroup_class, []).append((q, mask))
        setattr_ = object.__setattr__
        setattr_(self, "primes", kept)
        setattr_(self, "_table", table)
        setattr_(self, "_zero", frozenset(zero))
        setattr_(self, "_by_class", {c: tuple(qs) for c, qs in by_class.items()})

    def _slot(self, subgroup_class: int, height: Height, prime) -> tuple:
        """The heights at (class, prime); a bad height or prime raises as BalmerPrime does."""
        slot = self._table.get(subgroup_class, {}).get(prime) if type(prime) is int else None
        if slot is None or not is_height(height):
            BalmerPrime(subgroup_class, height, prime)  # raises its ValueError if bad
            return ()
        return slot

    def contains(self, subgroup_class: int, height: Height, prime) -> bool:
        """Whether P(class, height, prime) lies in the locus.

        An INFINITY prime at (class, prime) contains every height there, and
        at height 0 the prime is ignored.  A bad height, or a bad prime at a
        positive height, raises the ValueError of :class:`BalmerPrime`.
        """
        if height == 0:
            return subgroup_class in self._zero
        slot = self._slot(subgroup_class, height, prime)
        return height in slot or INFINITY in slot

    def primes_at_class(self, subgroup_class: int) -> tuple[tuple[BalmerPrime, int], ...]:
        """The primes q at one class in sorted order, each with a class bitmask.

        The bitmask has bit c set when ``contains(c, q.height, q.prime)``;
        these are the only memberships the norm criterion asks about.
        """
        return self._by_class.get(subgroup_class, ())

    def segments(self, subgroup_class: int) -> list[tuple[int, tuple[Height, ...]]]:
        """The (prime, heights) slots at one class, primes ascending.

        ``heights`` are the positive heights there, ascending, and ``(INFINITY,)``
        for the whole tower.  Height 0 is ``contains(class, 0, ANY_PRIME)``.
        """
        return sorted(self._table.get(subgroup_class, {}).items())

    def concrete_primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for slots in self._table.values() for p in slots}))

    def sorted_primes(self) -> tuple[BalmerPrime, ...]:
        # _by_class was filled in sorted order, so its classes ascend
        return tuple(q for qs in self._by_class.values() for q, _ in qs)

    def segment_top(self, subgroup_class: int, prime: int) -> Entry:
        """Maximal height present at (class, prime); None when empty."""
        slot = self._slot(subgroup_class, INFINITY, prime)
        if slot:
            return slot[-1]
        return 0 if subgroup_class in self._zero else None

    def __len__(self) -> int:
        return len(self.primes)


def vanishing_locus(lattice: SubgroupLattice, primes) -> VanishingLocus:
    return VanishingLocus(lattice, frozenset(primes))


def uniform_locus(lattice: SubgroupLattice, tops: dict[int, Height]) -> VanishingLocus:
    """The locus with the same height segments at every subgroup class.

    ``tops`` maps each prime to the maximal vanishing height there; these are
    the loci cut out by localizing at a spectrum pushed forward from the
    trivial group.
    """
    primes = []
    for c in range(len(lattice.classes)):
        for p, top in tops.items():
            primes.extend(_segment(c, top, p))
    return vanishing_locus(lattice, primes)


def _segment(subgroup_class: int, top: Entry, prime: int) -> list[BalmerPrime]:
    """The primes P(class, m, prime) for m <= top: none for None, one for INFINITY."""
    if top is None:
        return []
    if top == INFINITY:
        return [balmer_prime(subgroup_class, INFINITY, prime)]
    return [balmer_prime(subgroup_class, m, prime) for m in range(top + 1)]


def cyclic_p_power(lattice: SubgroupLattice) -> tuple[int, int] | None:
    """(p, n) when the underlying group is cyclic of order p**n with n >= 1.

    A group of order p**n has a subgroup of every order p**i, and a finite
    group with at most one subgroup of each order is cyclic, so the group is
    cyclic exactly when its lattice has n + 1 subgroups.
    """
    order = lattice.group.order
    if order == 1:
        return None
    p = next(d for d in range(2, order + 1) if order % d == 0)
    n, rest = 0, order
    while rest % p == 0:
        rest //= p
        n += 1
    if rest != 1 or len(lattice) != n + 1:
        return None
    return p, n


def validate_vanishing_locus(VL: VanishingLocus) -> list:
    """All closure violations; an empty list means the locus is valid.

    Checks downward height-closure per (class, prime) and the height-0
    identification everywhere.  On the lattice of a cyclic p-group it also
    checks the adjacent-height inequalities that cut the p-local loci down
    to the ones realised by thick subcategories.
    """
    out = []
    n_classes = len(VL.lattice.classes)
    for q in VL.sorted_primes():
        if not 0 <= q.subgroup_class < n_classes:
            out.append(Violation("unknown-class", (q,)))
            continue
        if q.height == INFINITY or q.height == 0:
            continue
        below = q.height - 1
        want_prime = q.prime if below >= 1 else ANY_PRIME
        if not VL.contains(q.subgroup_class, below, want_prime):
            out.append(Violation("downward-closure", (q, below, want_prime)))

    pn = cyclic_p_power(VL.lattice)
    if pn is not None:
        # tops read only 0 or None when p is absent, and those never violate
        p, n = pn
        tops = _chain_tops(VL, p, n)
        for i in range(n):
            if not _closed_step(tops[i], tops[i + 1]):
                out.append(Violation("chain-inequality", (p, i, tops[i], tops[i + 1])))
    return out


# -- height vectors for cyclic p-power groups ----------------------------------


@dataclass(frozen=True)
class HeightVector:
    """Per-subgroup maximal vanishing heights along the chain of C_{p^n}.

    ``entries[i]`` is the top height at the subgroup of order p**i, or None
    when that subgroup sees no vanishing at all.
    """

    p: int
    entries: tuple[Entry, ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p!r} is not a prime")
        if not self.entries:
            raise ValueError("height vector needs at least one entry")
        for e in self.entries:
            if e is not None and not is_height(e):
                raise ValueError(f"bad height entry {e!r}")

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def has_sentinel(self) -> bool:
        return any(e is None for e in self.entries)


def _entry_rank(e: Entry) -> float:
    return -1 if e is None else e


def _closed_step(a: Entry, b: Entry) -> bool:
    """Adjacent entries of a valid vector: a is at most one above b."""
    return _entry_rank(a) <= _entry_rank(b) + 1


def _commutative_step(a: Entry, b: Entry) -> bool:
    """Adjacent entries of a commutativity-certifying vector: a is b or one above."""
    return _entry_rank(b) <= _entry_rank(a) <= _entry_rank(b) + 1


def validate_height_vector(v: HeightVector) -> bool:
    """The necessary closure condition: each entry at most one above the next."""
    return all(map(_closed_step, v.entries, v.entries[1:]))


def cyclic_power_lattice(p: int, n: int) -> SubgroupLattice:
    """The lattice of C_{p^n} from :func:`normcert.groups.lattice_of`, kept for
    p**n <= ``DEFAULT_MAX_ORDER``; a caller with a bound checks it first."""
    return lattice_of(f"cyclic:{p**n}", p**n)


def heights_to_locus(
    v: HeightVector, lattice: SubgroupLattice | None = None
) -> VanishingLocus:
    """The locus with primes P(C_{p^i}, j, p) for all j <= entries[i].

    Without a lattice, C_{p^n} comes from :func:`cyclic_power_lattice` once p**n
    is checked against ``DEFAULT_MAX_ORDER``; pass a lattice to go beyond it.
    """
    n = v.n
    if lattice is None:
        cyclic_power_order(v.p, n, DEFAULT_MAX_ORDER)
        lattice = cyclic_power_lattice(v.p, n)
    elif n == 0 and lattice.group.order != 1:
        raise NotCyclicPGroupLattice("length-1 vectors live on the trivial group")
    elif n and cyclic_p_power(lattice) != (v.p, n):
        raise NotCyclicPGroupLattice(
            f"lattice of {lattice.group.name} does not match p={v.p}, n={n}"
        )
    # on C_{p^n} lattice id i is the subgroup of order p**i
    primes = []
    for i, e in enumerate(v.entries):
        primes.extend(_segment(lattice.class_of[i], e, v.p))
    return vanishing_locus(lattice, primes)


def _chain_tops(VL: VanishingLocus, p: int, n: int) -> list[Entry]:
    """The tops at p along the chain of C_{p^n}, whose lattice id i has order p**i."""
    return [VL.segment_top(VL.lattice.class_of[i], p) for i in range(n + 1)]


def locus_to_heights(VL: VanishingLocus, p: int | None = None) -> HeightVector:
    """Read the maximal-height vector off a p-local locus on C_{p^n}."""
    pn = cyclic_p_power(VL.lattice)
    if pn is None and VL.lattice.group.order != 1:
        raise NotCyclicPGroupLattice(f"{VL.lattice.group.name} is not a cyclic p-group")
    n = 0
    if pn is not None:
        if p is not None and p != pn[0]:
            raise NotPLocal(f"lattice prime is {pn[0]}, requested {p}")
        p, n = pn
    elif p is None:
        concrete = VL.concrete_primes()
        if len(concrete) != 1:
            raise NotPLocal("cannot infer the prime on the trivial group")
        p = concrete[0]
    stray = [q for q in VL.concrete_primes() if q != p]
    if stray:
        raise NotPLocal(f"locus mentions primes {stray} besides {p}")
    return HeightVector(p, tuple(_chain_tops(VL, p, n)))


# -- support profiles of spectra ------------------------------------------------


@dataclass(frozen=True)
class SupportData:
    """Per conjugacy class, the chromatic support of geometric fixed points."""

    lattice: SubgroupLattice
    assignments: tuple[frozenset[tuple[Height, int | str]], ...]

    def __post_init__(self):
        if len(self.assignments) != len(self.lattice.classes):
            raise ValueError("one support set per conjugacy class required")

    def at_class(self, c: int) -> frozenset:
        return self.assignments[c]

    def at_subgroup(self, sid: int) -> frozenset:
        return self.assignments[self.lattice.class_of[sid]]


def support_data(lattice: SubgroupLattice, per_class) -> SupportData:
    return SupportData(lattice, tuple(frozenset(s) for s in per_class))


def support_of_pushforward(lattice: SubgroupLattice, pairs) -> SupportData:
    """Constant profile: pushforwards look the same at every subgroup."""
    s = frozenset(pairs)
    return SupportData(lattice, tuple(s for _ in lattice.classes))


def is_underlying_determined(S: SupportData) -> bool:
    """True when all support is concentrated at the trivial subgroup."""
    trivial_class = S.lattice.class_of[0]
    return all(
        not s for c, s in enumerate(S.assignments) if c != trivial_class
    )


def supports_equal(S1: SupportData, S2: SupportData) -> bool:
    if S1.lattice is not S2.lattice:
        raise LatticeMismatch("supports live on different lattices")
    return S1.assignments == S2.assignments
