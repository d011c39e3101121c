"""Decision procedures for norm-compatibility of chromatic localizations.

The core criterion: killing a vanishing locus V is compatible with the norm
from K up to H when every prime P(J, m, p) in V with J <= H has some double
coset KhJ whose intersection subgroup K^h n J again carries (m, p) in V.
Geometric fixed points of a norm split along double cosets, and a smash
product is K(m, p)-acyclic exactly when one factor is, so the criterion is
a finite, exact computation on the lattice.

The existential runs over the distinct H-conjugates K^h of K rather than
over double cosets: cuts from one double coset are J-conjugate, so both give
the same classes of K^h n J.  Each locus keeps a bitmask of classes per
(height, prime), each triple (K, H, J) one bitmask of cut classes, and a
triple fails when the two are disjoint.  Only a failing triple computes its
double cosets, once, for the witnesses it reports.  The cut bitmasks do not
depend on the locus, so the cross-validation sweep builds them once per pair
and reads each verdict off them without building a witness.

Verdicts are one-sided by design: ``CERTIFIED_PRESERVES`` means the
sufficient criterion holds for every admissible norm of the operad;
``NO_GUARANTEE`` only reports that the certificate failed, never that the
localization actually destroys structure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

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
    heights_to_locus,
    validate_height_vector,
    validate_vanishing_locus,
)
from .groups import Subgroup, _bits
from .transfers import BoundTooLarge, TransferSystem, complete_system


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


@dataclass(frozen=True)
class NormFailure:
    """One failing instance of the double-coset criterion.

    The existential was tried over every H-conjugate of K, which covers
    every double coset.  ``checked`` is still the Mackey decomposition of
    the failing triple, one (representative, intersection subgroup id) per
    double coset: all of
    :meth:`~normcert.groups.SubgroupLattice.mackey_cuts` for the pair at
    ``subgroup``.  It is computed once per triple, so the witnesses of one
    (K, H, J), one per failing prime, share one ``checked`` tuple.
    """

    norm_source: int
    norm_target: int
    subgroup: int
    prime: BalmerPrime
    checked: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    witnesses: tuple[NormFailure, ...]

    def __post_init__(self):
        if bool(self.witnesses) != (self.verdict is Verdict.NO_GUARANTEE):
            raise ValueError("witnesses exactly when the verdict is NO_GUARANTEE")

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED_PRESERVES


def _sid(s: Subgroup | int) -> int:
    return s if isinstance(s, int) else s.lattice_id


def _require_valid(vl: VanishingLocus):
    bad = validate_vanishing_locus(vl)
    if bad:
        raise InvalidLocus(f"locus fails validation: {bad[0]}")


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


def _conjugate_masks(L, kid: int, hid: int) -> list[int]:
    # the cut K^r n J of a double coset KrJ is J-conjugate to K^h n J for
    # every h in it, so the H-conjugates K^h of K give the same cut classes
    row = L.conj[kid]
    ids = {kid} if L.is_normal(kid) else {row[h] for h in _bits(L.subgroups[hid].mask)}
    return [L.subgroups[c].mask for c in ids]


def _class_cuts(L, conjugates: list[int], jids: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Each J of one class with the bitmask of the classes of its cuts K^h n J."""
    subgroups, id_of_mask, class_of = L.subgroups, L.id_of_mask, L.class_of
    out = []
    for jid in jids:
        jmask = subgroups[jid].mask
        out.append((jid, sum({1 << class_of[id_of_mask(k & jmask)] for k in conjugates})))
    return tuple(out)


def _pair_cuts(L, kid: int, hid: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The cut table of the norm K -> H, which does not depend on the locus.

    One ``(class, ((J, cut-class bitmask), ...))`` per class with a member
    J <= H, in the order of :meth:`~normcert.groups.SubgroupLattice.classes_below`.
    """
    conjugates = _conjugate_masks(L, kid, hid)
    return tuple((c, _class_cuts(L, conjugates, jids)) for c, jids in L.classes_below(hid))


def _failures(vl: VanishingLocus, cuts) -> Iterator[tuple[int, BalmerPrime]]:
    """``(J, prime)`` for each prime of the locus at J that no cut carries.

    Yields by class, then prime, then J: primes sort by class first, so
    walking the classes in order keeps the order of the witnesses.
    """
    for c, row in cuts:
        for q, in_locus in vl.primes_at_class(c):
            for jid, cut in row:
                if not cut & in_locus:
                    yield jid, q


def _pair_obstructions(vl: VanishingLocus, kid: int, hid: int) -> tuple[NormFailure, ...]:
    """The witnesses of the norm K -> H, read off its cut table."""
    L = vl.lattice
    checked: dict[int, tuple[tuple[int, int], ...]] = {}
    out = []
    for jid, q in _failures(vl, _pair_cuts(L, kid, hid)):
        cuts = checked.get(jid)
        if cuts is None:
            cuts = checked[jid] = L.mackey_cuts(kid, jid, hid)
        out.append(NormFailure(kid, hid, jid, q, cuts))
    return tuple(out)


def _decide(vl: VanishingLocus, pairs) -> Decision:
    """The decision over ``pairs``: their witnesses, in order, and the verdict."""
    _require_valid(vl)
    witnesses = tuple(w for kid, hid in pairs for w in _pair_obstructions(vl, kid, hid))
    verdict = Verdict.NO_GUARANTEE if witnesses else Verdict.CERTIFIED_PRESERVES
    return Decision(verdict, witnesses)


def norm_preserves_locus(VL: VanishingLocus, K: Subgroup | int, H: Subgroup | int) -> Decision:
    """Certify that the K-to-H norm maps the locus into itself."""
    kid, hid = _sid(K), _sid(H)
    if not VL.lattice.leq(kid, hid):
        raise NotNested(f"subgroup {kid} is not contained in {hid}")
    return _decide(VL, [(kid, hid)])


def localization_preserves(VL: VanishingLocus, R: TransferSystem) -> Decision:
    """Certify that localizing away the locus preserves algebras over R.

    Runs the norm criterion for every admissible pair of the transfer
    system except the reflexive ones, which never fail; the witnesses are
    those of :func:`norm_preserves_locus` over ``sorted(R.pairs)``, in that
    order.  Both the Bousfield and the finite localization of the same
    locus are covered by the same certificate.
    """
    if R.lattice is not VL.lattice:
        raise LatticeMismatch("locus and transfer system live on different lattices")
    # a reflexive pair (H, H) never fails: its one double coset is H, whose
    # cut H n J is J itself, the subgroup the prime sits at
    return _decide(VL, R.strict_pairs())


# -- the cyclic p-power shortcut --------------------------------------------------


def norm_condition_holds(v: HeightVector, k: int, j: int) -> bool:
    """Inequality form of the norm criterion on C_{p^n}: v[k] >= v[k+1..j]."""
    if not 0 <= k <= j <= v.n:
        raise IndexOutOfRange(f"need 0 <= k <= j <= {v.n}, got ({k}, {j})")
    rk = _entry_rank(v.entries[k])
    return all(rk >= _entry_rank(v.entries[i]) for i in range(k + 1, j + 1))


def commutative_condition_holds(v: HeightVector) -> bool:
    """Inequality form of the full commutative-ring certificate on C_{p^n}."""
    if not validate_height_vector(v):
        raise InvalidHeightVector(f"{v.entries} violates the closure inequalities")
    return all(map(_commutative_step, v.entries, v.entries[1:]))


MAX_ENUM_LENGTH = 6
MAX_ENUM_HEIGHT = 10


def _check_chain(n: int, p: int) -> None:
    if n < 0:
        raise IndexOutOfRange(f"need n >= 0, got {n}")
    if not _is_prime(p):
        raise NotAPrime(f"{p!r} is not a prime")


def _walk(
    length: int, domain: list[Entry], follows: Callable[[Entry, Entry], bool]
) -> Iterator[tuple[Entry, ...]]:
    """Depth first, every vector over ``domain`` whose adjacent entries a, b
    satisfy ``follows(a, b)``, in the lexicographic order of ``domain``.

    Each prefix that ``follows`` admits must extend to a full vector; then
    the walk does work proportional to its output.
    """
    successors = {a: [b for b in domain if follows(a, b)] for a in domain}

    def extend(prefix):
        if len(prefix) == length:
            yield prefix
            return
        for b in successors[prefix[-1]]:
            yield from extend(prefix + (b,))

    for a in domain:
        yield from extend((a,))


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
MAX_XVAL_ORDER = 343  # C343 sweeps in about 0.2 s, C529 (n = 2) in about 0.3 s, mostly its lattice


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
    complete operad.  The lattice is fixed, so the cut table of each strict
    pair of the complete operad is built once; chain index i is lattice id
    i.  Per vector, the norm from chain[k] to chain[j] is certified exactly
    when the criterion finds no failing prime in that table, a reflexive
    norm always is, and the complete operad is certified when no strict
    norm fails.  No decision or witness is built.  The valid vectors are
    walked depth first in lexicographic order: after an entry of rank r the
    next one has rank at least r - 1, so no vector outside the sweep is
    ever built.
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
    lattice = cyclic_power_lattice(p, n)
    assert all(s.order == p**i for i, s in enumerate(lattice.subgroups))
    tables = [(pair, _pair_cuts(lattice, *pair))
              for pair in complete_system(lattice).strict_pairs()]
    domain: list[Entry] = [None] + list(range(height_bound + 1)) + [INFINITY]
    vectors = norms = operads = 0
    disagreements = []
    for entries in _walk(n + 1, domain, _closed_step):
        v = HeightVector(p, entries)
        vectors += 1
        vl = heights_to_locus(v, lattice)
        _require_valid(vl)
        failing = {pair for pair, cuts in tables if next(_failures(vl, cuts), None) is not None}
        for k in range(n + 1):
            for j in range(k, n + 1):
                norms += 1
                engine = (k, j) not in failing
                shortcut = norm_condition_holds(v, k, j)
                if engine != shortcut:
                    disagreements.append(
                        Disagreement(entries, f"norm[{k},{j}]", engine, shortcut)
                    )
        operads += 1
        engine = not failing
        shortcut = commutative_condition_holds(v)
        if engine != shortcut:
            disagreements.append(
                Disagreement(entries, "complete-operad", engine, shortcut)
            )
    return CrossValidationReport(
        n, p, height_bound, vectors, norms, operads, tuple(disagreements)
    )
