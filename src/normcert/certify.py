"""Decision procedures for norm-compatibility of chromatic localizations.

The core criterion: killing a vanishing locus V is compatible with the norm
from K up to H when every prime P(J, m, p) in V with J <= H has some double
coset KhJ whose intersection subgroup K^h n J again carries (m, p) in V.
Geometric fixed points of a norm split along double cosets, and a smash
product is K(m, p)-acyclic exactly when one factor is, so the criterion is
a finite, exact computation on the lattice.

The existential runs over the distinct H-conjugates K^h of K rather than
over double cosets: cuts from one double coset are J-conjugate, so both give
the same classes of K^h n J.  When K is normal in H the cut K n J does not
depend on H, so the criterion is read off one cut table per subgroup K: per
class, the bitmask of the J <= G whose cut K n J lies in it, built by
Möbius inversion over sub(K) from the lattice's inclusion index.  A locus
turns each table into one failure mask, the J at which some prime has no
carrying cut, and a pair (K, H) fails exactly when that mask meets
``down[H]``; a K not normal in H takes the union of its H-conjugates'
tables instead.  Normality in H needs no walk over H: K is normal in H
exactly when H lies in N_G(K), one bit of ``down`` at the lattice's
``normalizer`` entry for K.  Only a failing triple computes its double
cosets, once, in one call per failing pair: the classes of their cuts pick
the primes that fail there, and they are the ``checked`` list of its
witnesses.  For K normal in H they are the cosets of KJ in H, all with the
cut K n J.  The tables do not depend on the locus, so the cross-validation
sweep builds them once and reads each verdict off the failure masks
without building a witness.  It builds no locus either: on C_{p^n} the
cuts at chain index i lie at or below i, so the sweep shares each prefix
of its depth-first walk, with one set of slots, one bit of each failure
mask and one round of norm checks per prefix.

Verdicts are one-sided by design: ``CERTIFIED_PRESERVES`` means the
sufficient criterion holds for every admissible norm of the operad;
``NO_GUARANTEE`` only reports that the certificate failed, never that the
localization actually destroys structure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .chromatic import (
    INFINITY,
    BalmerPrime,
    Entry,
    HeightVector,
    LatticeMismatch,
    VanishingLocus,
    _closed_step,
    _commutative_step,
    _entry_rank,
    _is_prime,
    cyclic_power_lattice,
    validate_height_vector,
    validate_vanishing_locus,
)
from .groups import Subgroup, _bits
from .transfers import BoundTooLarge, TransferSystem


class CertifyError(Exception):
    pass


class NotNested(CertifyError):
    """Norm arguments must satisfy K <= H (and J <= H)."""


class InvalidLocus(CertifyError):
    """The vanishing locus fails its closure conditions."""


class InvalidHeightVector(CertifyError):
    """The height vector fails the adjacent-height inequalities."""


class IndexOutOfRange(CertifyError):
    """Chain indices must satisfy 0 <= k <= j <= n."""


class NotAPrime(CertifyError):
    """The prime of C_{p^n}, or of a prime poset, is not a prime."""


class Verdict(Enum):
    CERTIFIED_PRESERVES = "CertifiedPreserves"
    NO_GUARANTEE = "NoGuarantee"

    @classmethod
    def of(cls, held: bool) -> Verdict:
        """The verdict of a decision: NO_GUARANTEE exactly when a witness held."""
        return cls.NO_GUARANTEE if held else cls.CERTIFIED_PRESERVES


class NormFailure(NamedTuple):
    """One failing instance of the double-coset criterion.

    The existential was tried over every H-conjugate of K, which covers
    every double coset.  ``checked`` is still the Mackey decomposition of
    the failing triple, one (representative, intersection subgroup id) per
    double coset: all of
    :meth:`~normcert.groups.SubgroupLattice.mackey_cuts` for the pair at
    ``subgroup``.  It comes from one
    :meth:`~normcert.groups.SubgroupLattice.pair_mackey_cuts` call per
    failing pair, so the witnesses of one (K, H, J), one per failing prime,
    share one ``checked`` tuple; triples of other pairs may carry equal
    ones, as distinct objects.  A named tuple, since a report streams one
    per witness.
    """

    norm_source: int
    norm_target: int
    subgroup: int
    prime: BalmerPrime
    checked: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Decision:
    """The witnesses of one decision, in order; the verdict is read off them.

    ``NO_GUARANTEE`` exactly when there is a witness.  The report writers of
    :mod:`normcert.io` take the witness stream of
    :func:`localization_witnesses` instead, so a report holds no
    :class:`Decision`.
    """

    witnesses: tuple[NormFailure, ...]

    @property
    def verdict(self) -> Verdict:
        return Verdict.of(bool(self.witnesses))

    @property
    def certified(self) -> bool:
        return not self.witnesses


def _sid(s: Subgroup | int) -> int:
    return s if isinstance(s, int) else s.lattice_id


def norm_support(
    S, K: Subgroup | int, H: Subgroup | int, J: Subgroup | int
) -> frozenset:
    """Support of the J-geometric fixed points of the K-to-H norm.

    The diagonal formula turns the norm into a smash over double cosets
    K\\H/J, and smashing intersects chromatic supports, so this is the
    intersection of the profile at the classes of K^h n J.
    """
    L = S.lattice
    kid, hid, jid = _sid(K), _sid(H), _sid(J)
    if not (L.leq(kid, hid) and L.leq(jid, hid)):
        raise NotNested("norm_support needs K <= H and J <= H")
    parts = [S.at_class(L.class_of[cut]) for _, cut in L.mackey_cuts(kid, jid, hid)]
    return frozenset(parts[0]).intersection(*parts[1:])


def _cut_table(L, kids: tuple[int, ...]) -> dict[int, int]:
    """The cut table of the conjugates ``kids`` of K; it does not depend on the locus.

    Per class, the bitmask of the J <= G with K' n J in that class for some
    K' in ``kids``.  By Möbius inversion over sub(K') (P. Hall, "The
    Eulerian functions of a group", 1936), K' n J = X exactly when J lies
    above X and above no cover of X inside K'.
    """
    up, covers, class_of = L.up, L.cover_masks, L.class_of
    table: dict[int, int] = {}
    for kid in kids:
        inside = L.down[kid]
        for x in _bits(inside):
            exact = up[x]
            rest = covers[x] & inside
            while rest:  # inline: via _bits, this walk alone costs decide-mix 1-2 %
                low = rest & -rest
                exact &= ~up[low.bit_length() - 1]
                rest ^= low
            c = class_of[x]
            table[c] = table.get(c, 0) | exact
    return table


def _slots(vl: VanishingLocus) -> dict[int, int]:
    """The locus's primes, grouped by their class bitmask of in-locus classes.

    Each distinct bitmask of :meth:`VanishingLocus.primes_at_class` maps to
    the mask of the subgroups J at which a prime with that bitmask sits.
    """
    class_masks = vl.lattice.class_masks
    slots: dict[int, int] = {}
    for c, at in enumerate(class_masks):
        for _, in_locus in vl.primes_at_class(c):
            slots[in_locus] = slots.get(in_locus, 0) | at
    return slots


def _chain_slots(prefix: tuple[Entry, ...]) -> dict[int, int]:
    """The slots of the primes at the last class of a prefix of a height vector.

    On C_{p^n} chain index i is both lattice id i and class i.  For every
    vector that extends ``prefix`` = entries 0..i, these are the slots that
    :func:`_slots` gives the primes at class i, with their in-locus masks cut
    to the classes <= i.  The rule is :class:`VanishingLocus`'s: height 0
    lies in the classes that have an entry, a finite height m >= 1 in those
    whose entry is >= m or INFINITY, and an INFINITY entry is one prime, in
    the classes whose entry is INFINITY.
    """
    top = prefix[-1]
    if top is None:
        return {}
    at = 1 << (len(prefix) - 1)
    if top == INFINITY:
        return {sum(1 << c for c, e in enumerate(prefix) if e == INFINITY): at}
    # at_least[m]: the classes whose entry is >= m, read from the top down
    at_least = [0] * (top + 1)
    for c, e in enumerate(prefix):
        if e is not None:
            at_least[min(e, top)] |= 1 << c
    for m in range(top - 1, -1, -1):
        at_least[m] |= at_least[m + 1]
    return dict.fromkeys(at_least, at)


def _failure(table: dict[int, int], slots: dict[int, int]) -> int:
    """The J at which some prime of the locus has no carrying cut in ``table``.

    A prime in a slot is carried at J when the cut at J lies in one of the
    slot's in-locus classes.
    """
    fail = 0
    cuts = table.items()
    for in_locus, at in slots.items():
        carried = 0
        for c, js in cuts:
            if in_locus >> c & 1:
                carried |= js
        fail |= at & ~carried
    return fail


def _witnesses(vl: VanishingLocus, pairs) -> Iterator[NormFailure]:
    """The witnesses of the norms in ``pairs``, pair by pair.

    The cuts K^h n J, h in H, are the cuts of the distinct H-conjugates of
    K: the cut K^r n J of a double coset KrJ is J-conjugate to K^h n J for
    every h in it.  So a J carries a prime when the cut table of one of
    those conjugates does, and (K, H) fails exactly when the failure mask
    of that conjugate set meets ``down[H]``.  A K normal in H (H lies in
    N_G(K), one bit of ``down``) is its own set, whose mask serves every
    such H, and needs no walk over H.  Each failing J fails for some prime,
    so it needs its Mackey decomposition, whose cut classes tell which
    primes fail there; one call of
    :meth:`~normcert.groups.SubgroupLattice.pair_mackey_cuts` per failing
    pair gives them for all of its failing J at once, and the witnesses of
    one triple share its decomposition.  Witnesses come by class, then
    prime, then J.
    """
    L = vl.lattice
    subgroups, conj, down, class_of = L.subgroups, L.conj, L.down, L.class_of
    normalizer = L.normalizer
    slots = _slots(vl)
    failures: dict[tuple[int, ...], int] = {}  # H-conjugates of K -> failure mask
    for kid, hid in pairs:
        if down[normalizer[kid]] >> hid & 1:
            key: tuple[int, ...] = (kid,)
        else:
            kconj = conj[kid]
            key = tuple(sorted({kconj[h] for h in _bits(subgroups[hid].mask)}))
        fail = failures.get(key)
        if fail is None:
            fail = failures[key] = _failure(_cut_table(L, key), slots)
        bad = fail & down[hid]
        if not bad:
            continue
        by_class: dict[int, list] = {}
        for jid, checked in zip(_bits(bad), L.pair_mackey_cuts(kid, hid, bad)):
            cut_classes = 0
            for _, cut in checked:
                cut_classes |= 1 << class_of[cut]
            by_class.setdefault(class_of[jid], []).append((jid, checked, cut_classes))
        for c in sorted(by_class):
            triples = by_class[c]
            for q, in_locus in vl.primes_at_class(c):
                for jid, checked, cut_classes in triples:
                    if not cut_classes & in_locus:
                        # the named tuple's own __new__ is a Python function, one call per witness
                        yield tuple.__new__(NormFailure, (kid, hid, jid, q, checked))


def _checked_witnesses(vl: VanishingLocus, pairs) -> Iterator[NormFailure]:
    """The witnesses of the norms in ``pairs``, once the locus validates.

    The locus is validated before this returns, so :class:`InvalidLocus`
    comes before the first witness.
    """
    bad = validate_vanishing_locus(vl)
    if bad:
        v = bad[0]
        raise InvalidLocus(f"locus fails validation, violation {v.axiom}: {v.witness!r}")
    return _witnesses(vl, pairs)


def norm_preserves_locus(VL: VanishingLocus, K: Subgroup | int, H: Subgroup | int) -> Decision:
    """Certify that the K-to-H norm maps the locus into itself."""
    kid, hid = _sid(K), _sid(H)
    if not VL.lattice.leq(kid, hid):
        raise NotNested(f"subgroup {kid} is not contained in {hid}")
    return Decision(tuple(_checked_witnesses(VL, [(kid, hid)])))


def localization_witnesses(VL: VanishingLocus, R: TransferSystem) -> Iterator[NormFailure]:
    """The witnesses of :func:`localization_preserves`, as a stream.

    The lattices are matched and the locus validated when this is called,
    before any witness; the witnesses then come one at a time, so a report
    written from them never holds them all.  Runs the norm criterion for
    every admissible pair of the transfer system except the reflexive ones,
    which never fail; the witnesses are those of
    :func:`norm_preserves_locus` over ``R.sorted_pairs()``, in that order.
    """
    if R.lattice is not VL.lattice:
        raise LatticeMismatch("locus and transfer system live on different lattices")
    # a reflexive pair (H, H) never fails: its one double coset is H, whose
    # cut H n J is J itself, the subgroup the prime sits at
    return _checked_witnesses(VL, R.strict_pairs())


def localization_preserves(VL: VanishingLocus, R: TransferSystem) -> Decision:
    """Certify that localizing away the locus preserves algebras over R.

    The witnesses are those of :func:`localization_witnesses`, kept.  Both
    the Bousfield and the finite localization of the same locus are covered
    by the same certificate.
    """
    return Decision(tuple(localization_witnesses(VL, R)))


# -- the cyclic p-power shortcut --------------------------------------------------


def norm_condition_holds(v: HeightVector, k: int, j: int) -> bool:
    """Inequality form of the norm criterion on C_{p^n}: v[k] >= v[k+1..j]."""
    if not 0 <= k <= j <= v.n:
        raise IndexOutOfRange(f"need 0 <= k <= j <= {v.n}, got ({k}, {j})")
    return _norm_inequality(v.entries, k, j)


def _norm_inequality(entries: tuple[Entry, ...], k: int, j: int) -> bool:
    """entries[k] >= entries[k+1..j], the sentinel None lowest of all."""
    rk = _entry_rank(entries[k])
    return all(rk >= _entry_rank(entries[i]) for i in range(k + 1, j + 1))


def commutative_condition_holds(v: HeightVector) -> bool:
    """Inequality form of the full commutative-ring certificate on C_{p^n}."""
    if not validate_height_vector(v):
        raise InvalidHeightVector(f"{v.entries} violates the closure inequalities")
    return _commutative_inequality(v.entries)


def _commutative_inequality(entries: tuple[Entry, ...]) -> bool:
    """Each adjacent pair of ``entries`` takes a commutative step."""
    return all(map(_commutative_step, entries, entries[1:]))


MAX_ENUM_LENGTH = 6
MAX_ENUM_HEIGHT = 10


def _check_chain(n: int, p: int) -> None:
    if n < 0:
        raise IndexOutOfRange(f"need n >= 0, got {n}")
    if not _is_prime(p):
        raise NotAPrime(f"{p!r} is not a prime")


def _prefixes(
    length: int, domain: list[Entry], follows: Callable[[Entry, Entry], bool]
) -> Iterator[tuple[Entry, ...]]:
    """Depth first, every prefix of at most ``length`` entries over ``domain``
    whose adjacent entries a, b satisfy ``follows(a, b)``, each prefix before
    its extensions, in the lexicographic order of ``domain``.
    """
    successors = {a: [b for b in domain if follows(a, b)] for a in domain}

    def extend(prefix):
        yield prefix
        if len(prefix) < length:
            for b in successors[prefix[-1]]:
                yield from extend(prefix + (b,))

    for a in domain:
        yield from extend((a,))


def _walk(
    length: int, domain: list[Entry], follows: Callable[[Entry, Entry], bool]
) -> Iterator[tuple[Entry, ...]]:
    """Depth first, every vector over ``domain`` whose adjacent entries a, b
    satisfy ``follows(a, b)``, in the lexicographic order of ``domain``.

    Each prefix that ``follows`` admits must extend to a full vector; then
    the walk does work proportional to its output.
    """
    return (prefix for prefix in _prefixes(length, domain, follows) if len(prefix) == length)


def enumerate_commutative_heights(
    n: int, height_bound: int, include_infinity: bool = False, p: int = 2
) -> tuple[HeightVector, ...]:
    """All valid height vectors whose localizations certify commutativity.

    Entries range over None, 0..height_bound and optionally INFINITY; the
    output is in lexicographic order with None < 0 < ... < INFINITY.  The
    certifying vectors are generated, not filtered: after an entry of rank
    r the next one has rank r - 1 or r (never below the None sentinel), so
    a vector is a top entry followed by a 0/1 step pattern down the chain.
    The all-None vector is always there, and with ``include_infinity`` the
    all-INFINITY vector comes last.
    """
    if n > MAX_ENUM_LENGTH or height_bound > MAX_ENUM_HEIGHT:
        raise BoundTooLarge(
            f"enumeration supports n <= {MAX_ENUM_LENGTH}, "
            f"height_bound <= {MAX_ENUM_HEIGHT}"
        )
    _check_chain(n, p)
    domain: list[Entry] = [None] + list(range(height_bound + 1))
    if include_infinity:
        domain.append(INFINITY)
    walk = _walk(n + 1, domain, _commutative_step)
    return tuple(HeightVector(p, entries) for entries in walk)


MAX_XVAL_LENGTH = 3
MAX_XVAL_HEIGHT = 5
# the C343 sweep takes about 0.03 s, with one slot set and one round of norm
# checks per prefix of the walk and no locus; C529 (n = 2) would sweep in 5 ms
MAX_XVAL_ORDER = 343


@dataclass(frozen=True)
class Disagreement:
    entries: tuple[Entry, ...]
    check: str
    engine_certified: bool
    inequality_holds: bool


@dataclass(frozen=True)
class CrossValidationReport:
    n: int
    p: int
    height_bound: int
    vectors_checked: int
    norm_comparisons: int
    operad_comparisons: int
    disagreements: tuple[Disagreement, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def cross_validate_cyclic(n: int, p: int, height_bound: int) -> CrossValidationReport:
    """Check the double-coset engine against the inequality shortcut.

    Sweeps every valid height vector on C_{p^n} with entries bounded by
    height_bound (sentinel and infinity included) and compares the engine
    verdict with the inequality form, for every nested norm and for the
    complete operad.  The lattice is fixed, so the cut table of each
    subgroup is built once; chain index i is lattice id i and class i, and
    every subgroup is normal.  The norm from chain[k] to chain[j] is
    certified exactly when chain[k]'s failure mask misses ``down[j]`` (for
    k = j it always does).  The complete operad is certified when every
    mask is empty: the top's down-set holds every subgroup, and the top's
    own mask is always empty.  No decision, witness, locus or
    :class:`HeightVector` is built: the walk yields only valid vectors.

    The valid vectors are walked depth first in lexicographic order: after
    an entry of rank r the next one has rank at least r - 1, so no vector
    outside the sweep is ever built.  Each prefix, entries 0..i, does its
    work once for every vector below it.  Every cut K n chain[i] lies at or
    below i, so bit i of each failure mask depends only on those entries:
    the prefix builds the slots of the primes at class i
    (:func:`_chain_slots`), folds their failures at J = chain[i] into the
    masks it inherits, and, since ``down[i]`` is the chain below i, settles
    the norms (k, i), k <= i, against the inequality on its own entries.  A vector takes the disagreements of its
    prefixes in (k, j) order, then its complete-operad comparison.  No
    locus is validated: a valid vector's locus is valid, which the tests
    check on every vector of every sweep the bounds allow for p <= 7.
    """
    if n > MAX_XVAL_LENGTH or height_bound > MAX_XVAL_HEIGHT:
        raise BoundTooLarge(
            f"cross-validation supports n <= {MAX_XVAL_LENGTH}, "
            f"height_bound <= {MAX_XVAL_HEIGHT}"
        )
    _check_chain(n, p)
    if p**n > MAX_XVAL_ORDER:
        raise BoundTooLarge(
            f"cross-validation supports p^n <= {MAX_XVAL_ORDER}, got {p}^{n} = {p**n}"
        )
    lattice = cyclic_power_lattice(p, n, MAX_XVAL_ORDER)
    assert all(s.order == p**i for i, s in enumerate(lattice.subgroups))
    assert lattice.class_of == tuple(range(n + 1))
    tables = [_cut_table(lattice, (k,)) for k in range(n + 1)]
    down = lattice.down
    domain: list[Entry] = [None] + list(range(height_bound + 1)) + [INFINITY]
    # per depth of the walk, shifted by one: the failure masks over the
    # J <= depth, and the norm disagreements (k, j, engine, shortcut), j <= depth;
    # a row is replaced, never changed in place
    fails_at: list[list[int]] = [[0] * (n + 1)] * (n + 2)
    pending_at: list[tuple] = [()] * (n + 2)
    vectors = 0
    disagreements = []
    for prefix in _prefixes(n + 1, domain, _closed_step):
        i = len(prefix) - 1
        slots = _chain_slots(prefix)
        fails = fails_at[i + 1] = [f | _failure(t, slots) for f, t in zip(fails_at[i], tables)]
        pending = pending_at[i]
        for k in range(i + 1):
            engine = not fails[k] & down[i]
            shortcut = _norm_inequality(prefix, k, i)
            if engine != shortcut:
                pending += ((k, i, engine, shortcut),)
        pending_at[i + 1] = pending
        if i < n:
            continue
        vectors += 1
        for k, j, engine, shortcut in sorted(pending):
            disagreements.append(Disagreement(prefix, f"norm[{k},{j}]", engine, shortcut))
        engine = not any(fails)
        shortcut = _commutative_inequality(prefix)
        if engine != shortcut:
            disagreements.append(Disagreement(prefix, "complete-operad", engine, shortcut))
    norms = vectors * (n + 1) * (n + 2) // 2
    return CrossValidationReport(
        n, p, height_bound, vectors, norms, vectors, tuple(disagreements)
    )
