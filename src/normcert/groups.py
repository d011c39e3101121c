"""Exact arithmetic for small finite groups.

Groups are stored as full multiplication tables over element indices
0..order-1, and subgroups as bitmasks over those indices.  Everything is
computed by exhaustive enumeration; the intended scale is |G| <= 64, which
is where all the downstream lattice and double-coset machinery lives.

Conventions, fixed once and used everywhere:

* products compose left to right, so for permutation groups ``mul(a, b)``
  means "apply a, then b";
* conjugation is ``h^g = g^-1 h g``, and ``K^g = {g^-1 k g : k in K}``;
* subgroups of a lattice are ordered by (order, member tuple) and named
  ``C{order}#{i}`` with ``i`` counting subgroups of that order.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, compress, count, permutations, repeat
from operator import itemgetter


class GroupError(Exception):
    """Base class for errors raised by this module."""


class InvalidTable(GroupError):
    """A multiplication table violates a group axiom."""


class UnsupportedSpec(GroupError):
    """A group specification string is not recognised."""


class GroupTooLarge(GroupError):
    """Group order exceeds the configured enumeration bound."""


class NotSubgroupOfAmbient(GroupError):
    """Double-coset factors must lie inside the ambient subgroup."""


DEFAULT_MAX_ORDER = 64


_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")  # for ``compress``: '1' selects, '0' not


def _bits(mask: int, labels: Sequence | None = None) -> tuple:
    """The indices i of the set bits of ``mask``, ascending, or ``labels[i]`` for each.

    A sparse mask is peeled one highest bit at a time, which shortens it at
    each step.  A dense one, with at least eight and more than about one in
    eight bits set, has its binary digits pick from the indices or ``labels``
    (``mask.bit_length()`` items at least) in one ``compress`` pass instead.
    """
    if (k := mask.bit_count()) > 7 and k * 8 > mask.bit_length() + 40:
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_SELECTORS)
        return tuple(compress(count() if labels is None else labels, digits))
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return tuple(out) if labels is None else tuple([labels[i] for i in out])


@dataclass(eq=False, frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        t = self.table
        return t[t[self.inverse[g]][a]][g]

    def conj_mask(self, mask: int, g: int) -> int:
        out = 0
        for x in _bits(mask):
            out |= 1 << self.conj(x, g)
        return out

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _greedy_generators(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    """Each element, in index order, that the ones taken before it do not span.

    ``identity`` must be a left identity of ``table``; then every element
    ends up in the span.  In a group each generator at least doubles the
    span, so there are at most log2 |G| of them.
    """
    gens: list[int] = []
    span = 1 << identity
    for g in range(len(table)):
        if not span >> g & 1:
            gens.append(g)
            span = _coset_union(table, (identity,), gens, identity)
    return tuple(gens)


def _validated_group(name: str, rows) -> FiniteGroup:
    """Check the group axioms on ``rows`` and wrap them as a FiniteGroup.

    Associativity uses Light's test: ``(xy)g = x(yg)`` is checked for all
    x, y but only for g in a greedy generating set.  The elements g that
    pass contain the identity and are closed under products, and the
    generators reach every element by right multiplication from the
    identity, so passing for the generators means passing for all of G.
    That costs O(n^2 log n) on a group rather than n^3.
    """
    n = len(rows)
    if n == 0:
        raise InvalidTable("empty multiplication table")
    table = tuple(tuple(map(int, row)) for row in rows)
    for i, row in enumerate(table):
        if len(row) != n:
            raise InvalidTable(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            raise InvalidTable(f"entry {x} in row {i} out of range 0..{n - 1}")
    identity_row = tuple(range(n))
    idents = [
        e
        for e in range(n)
        if table[e] == identity_row and tuple(row[e] for row in table) == identity_row
    ]
    if len(idents) != 1:
        raise InvalidTable("table has no unique two-sided identity")
    e = idents[0]
    for g in _greedy_generators(table, e):
        col = tuple(row[g] for row in table)
        times_g = itemgetter(*col)
        for a, ta in enumerate(table):
            # (ab)g against a(bg), for every b at once
            if itemgetter(*ta)(col) != times_g(ta):
                b = next(b for b in range(n) if col[ta[b]] != ta[col[b]])
                raise InvalidTable(f"associativity fails at ({a}, {b}, {g})")
    # in a finite monoid ab = e forces ba = e, so a's inverse is where e sits in its row
    inverse = []
    for a, row in enumerate(table):
        if e not in row:
            raise InvalidTable(f"element {a} has no two-sided inverse")
        inverse.append(row.index(e))
    return FiniteGroup(name, n, table, e, tuple(inverse))


# -- constructors ------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedSpec(f"cyclic order must be >= 1, got {n}")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _validated_group(f"C{n}", rows)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order 2m.

    Element i + m*j encodes the word r^i s^j with r the rotation of order m.
    """
    if order < 2 or order % 2:
        raise UnsupportedSpec(f"dihedral order must be even and >= 2, got {order}")
    m = order // 2

    def mul(a, b):
        i1, j1 = a % m, a // m
        i2, j2 = b % m, b // m
        i = (i1 + (-i2 if j1 else i2)) % m
        return i + m * ((j1 + j2) % 2)

    rows = [[mul(a, b) for b in range(order)] for a in range(order)]
    return _validated_group(f"D{order}", rows)


def symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnsupportedSpec(f"symmetric degree must be 1..5, got {n}")
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return index[tuple(pb[pa[x]] for x in range(n))]

    order = len(perms)
    rows = [[mul(a, b) for b in range(order)] for a in range(order)]
    return _validated_group(f"S{n}", rows)


# axis products for the unit quaternions: _QMUL[a][b] = (sign flip, axis)
_QMUL = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def quaternion() -> FiniteGroup:
    """The quaternion group Q8 as {+-1, +-i, +-j, +-k}."""

    def mul(a, b):
        s1, a1 = a // 4, a % 4
        s2, a2 = b // 4, b % 4
        flip, axis = _QMUL[a1][a2]
        return axis + 4 * ((s1 + s2 + flip) % 2)

    rows = [[mul(a, b) for b in range(8)] for a in range(8)]
    return _validated_group("Q8", rows)


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    if len(groups) < 2:
        raise UnsupportedSpec("direct product needs at least two factors")
    out = groups[0]
    for g in groups[1:]:
        out = _binary_product(out, g)
    return out


def _binary_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    n = a.order * b.order
    nb = b.order
    # element x encodes the pair (x // nb, x % nb)
    rows = [
        [p * nb + q for p in a.table[x // nb] for q in b.table[x % nb]] for x in range(n)
    ]
    return _validated_group(f"{a.name}x{b.name}", rows)


def from_table(rows, name: str = "G") -> FiniteGroup:
    """Build and fully validate a group from an explicit table."""
    return _validated_group(name, rows)


# the characters a CSV line may hold per cell under an order bound, padding included
_CELL_CHARS = 32


def _read_table_csv(path: str, max_order: int | None) -> tuple[list[list[int]], str]:
    """The rows of a CSV multiplication table and the name its file gives.

    The name is the file's base name without its last extension, or "G"
    when that is empty.  Only the platform's separators split the path
    (``os.path.basename``), so on POSIX a backslash stays in the name.

    Given ``max_order``, reading stops at the first row past that many rows
    (GroupTooLarge) or wider than that (InvalidTable), and no line is read
    past ``_CELL_CHARS * max_order`` characters: a longer one is cut there
    and raises InvalidTable, as too wide when the cut part already holds
    more than ``max_order`` cells.
    """
    rows: list[list[int]] = []
    cap = None if max_order is None else _CELL_CHARS * max_order
    cut = False  # the last line read was cut at the cap; no line is read after it

    def capped(fh):
        nonlocal cut
        while not cut and (line := fh.readline(cap + 1)):
            cut = len(line) > cap and line[-1] not in "\r\n"
            yield line

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh if cap is None else capped(fh)):
                if not row:
                    continue
                if max_order is not None:
                    if len(rows) == max_order:
                        raise GroupTooLarge(
                            f"{path} has more than {max_order} rows, exceeds bound {max_order}"
                        )
                    if len(row) > max_order:
                        raise InvalidTable(
                            f"row {len(rows)} of {path} has more than {max_order} entries"
                        )
                    if cut:
                        raise InvalidTable(
                            f"row {len(rows)} of {path} is longer than {cap} characters"
                        )
                try:
                    rows.append([int(x) for x in row])
                except ValueError:
                    raise InvalidTable(
                        f"row {len(rows)} of {path} has a non-integer entry"
                    ) from None
    except UnicodeDecodeError:
        raise InvalidTable(f"{path} is not UTF-8 text") from None
    return rows, os.path.basename(path).rsplit(".", 1)[0] or "G"


def build_group(spec: str, max_order: int | None = None) -> FiniteGroup:
    """Build a group from a spec string.

    Grammar: ``atom ('*' atom)*`` with atoms ``cyclic:N``, ``dihedral:N``
    (N the order), ``symmetric:N`` (N <= 5), ``quaternion:8`` and
    ``table:PATH`` (CSV of element indices, row i column j = i*j).  Given
    ``max_order``, a factor or product of larger order raises GroupTooLarge
    before any table is built; a ``table:`` factor counts its CSV rows, and
    its CSV is read no further than the first row past the bound, wider
    than it, or longer than 32 characters per cell of it.
    """
    return _group_of(_factors(spec, max_order)[1])


def _factors(spec: str, max_order: int | None) -> tuple[int, list[tuple]]:
    """The order of ``spec``'s group and the atom of each factor; no group is built.

    The atom is (kind, integer argument), ``("quaternion", 8)`` for both
    spellings of Q8, and ``("table", rows, name)`` for a ``table:`` factor.
    This is the one check of ``max_order``: every error that
    :func:`build_group` raises before it builds a table is raised here.
    """
    parts = [p.strip() for p in spec.split("*")]
    if any(not p for p in parts):
        raise UnsupportedSpec(f"malformed group spec {spec!r}")
    factors = [_atom(p, max_order) for p in parts]
    order = math.prod(n for n, _ in factors)
    if max_order is not None and (order > max_order or any(n > max_order for n, _ in factors)):
        raise GroupTooLarge(f"|{spec}| = {order} exceeds bound {max_order}")
    return order, [atom for _, atom in factors]


def _atom(s: str, max_order: int | None) -> tuple[int, tuple]:
    """One factor of a spec as (its order, its atom); no group is built.

    A ``table:`` factor is read here, and no further than ``max_order`` allows.
    """
    kind, sep, arg = s.partition(":")
    if kind in ("cyclic", "dihedral") and sep:
        n = _int_arg(s, arg)
        return n, (kind, n)
    if kind == "symmetric" and sep:
        n = _int_arg(s, arg)
        # symmetric() rejects a degree outside 1..5 itself
        return (math.factorial(n) if 1 <= n <= 5 else n), (kind, n)
    if kind == "quaternion":
        if arg not in ("", "8"):
            raise UnsupportedSpec(f"only quaternion:8 is supported, got {s!r}")
        return 8, (kind, 8)
    if kind == "table" and sep:
        rows, name = _read_table_csv(arg, max_order)
        return len(rows), (kind, rows, name)
    raise UnsupportedSpec(f"unrecognised group spec {s!r}")


def _group_of(atoms: Sequence[tuple]) -> FiniteGroup:
    """The group the atoms of a spec name: its one factor, or their direct product."""
    build = {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric,
             "quaternion": lambda _: quaternion(), "table": from_table}
    groups = [build[kind](*args) for kind, *args in atoms]
    return groups[0] if len(groups) == 1 else direct_product(*groups)


def _int_arg(spec: str, arg: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise UnsupportedSpec(f"bad numeric argument in {spec!r}") from None


# -- subgroup lattice ---------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """One member of a subgroup lattice, identified by a bitmask."""

    lattice_id: int
    mask: int
    order: int

    @property
    def members(self) -> tuple[int, ...]:
        return _bits(self.mask)

    def __repr__(self) -> str:
        return f"Subgroup(id={self.lattice_id}, order={self.order}, members={self.members})"


@dataclass(eq=False, frozen=True)
class SubgroupLattice:
    """The complete poset of subgroups of a finite group.

    Subgroups are sorted by (order, member tuple); the position in
    ``subgroups`` is the stable lattice id.  ``conj[sid][g]`` is the id of
    the conjugate of subgroup ``sid`` by element ``g``, so the conjugacy
    class of ``sid`` is the set of its row.  Conjugacy classes are sorted by
    their smallest member id, which is also the chosen class representative.

    The inclusion order is indexed once, as id bitmasks: ``up[k]`` has bit
    h set when K <= H and ``down[h]`` bit k (both with the subgroup's own
    bit), ``cover_masks[k]`` the subgroups that cover K, and
    ``class_masks[c]`` the members of class c.  Ids extend inclusion, so
    every walk over the bits of a mask visits subgroups in id order.
    ``normalizer[k]`` is the id of N_G(K), so K is normal in H exactly
    when ``down[normalizer[k]]`` has bit h.  ``coset_leads[j]`` is the
    element bitmask of the least member of each left coset xJ, so the
    least elements of the cosets of J inside any H >= J are the bits of
    ``coset_leads[j] & H``.

    The nested pairs are indexed once too, for the pair masks of transfer
    systems: ``nested_pairs`` lists every (k, h) with K <= H, sorted, and
    bit r of a pair mask is its entry r.  ``pair_offsets[k]`` is the rank of
    (k, k), the least pair with bottom k, and its last entry their count, so
    (k, h) has rank ``pair_offsets[k]`` plus the bits of ``up[k]`` below h.
    ``reflexive_mask`` has the bit of every (k, k).  Every table, coset and
    pair tables included, is built with the lattice.
    """

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    names: tuple[str, ...]
    class_of: tuple[int, ...]
    conj: tuple[tuple[int, ...], ...] = field(repr=False)
    classes: tuple[tuple[int, ...], ...]
    up: tuple[int, ...] = field(repr=False)
    down: tuple[int, ...] = field(repr=False)
    cover_masks: tuple[int, ...] = field(repr=False)
    class_masks: tuple[int, ...] = field(repr=False)
    normalizer: tuple[int, ...] = field(repr=False)
    coset_leads: tuple[int, ...] = field(repr=False)
    nested_pairs: tuple[tuple[int, int], ...] = field(repr=False)
    pair_offsets: tuple[int, ...] = field(repr=False)
    reflexive_mask: int = field(repr=False)
    _id_of_mask: dict[int, int] = field(repr=False)
    _id_of_name: dict[str, int] = field(repr=False)
    # per subgroup id J, x -> bitmask of the left coset xJ
    _coset_masks: tuple[tuple[int, ...], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.subgroups)

    @property
    def bottom(self) -> Subgroup:
        return self.subgroups[0]

    @property
    def top(self) -> Subgroup:
        return self.subgroups[-1]

    def by_name(self, name: str) -> Subgroup:
        try:
            return self.subgroups[self._id_of_name[name]]
        except KeyError:
            raise KeyError(f"no subgroup named {name!r}") from None

    def id_of_mask(self, mask: int) -> int:
        return self._id_of_mask[mask]

    def leq(self, kid: int, hid: int) -> bool:
        return self.subgroups[kid].mask & ~self.subgroups[hid].mask == 0

    def conj_id(self, sid: int, g: int) -> int:
        return self.conj[sid][g]

    def intersect_ids(self, aid: int, bid: int) -> int:
        return self._id_of_mask[self.subgroups[aid].mask & self.subgroups[bid].mask]

    def class_members(self, sid: int) -> tuple[int, ...]:
        return self.classes[self.class_of[sid]]

    def is_normal(self, sid: int) -> bool:
        return len(self.class_members(sid)) == 1

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Covering relations (kid, hid) of the inclusion order, sorted."""
        return tuple((k, h) for k, above in enumerate(self.cover_masks) for h in _bits(above))

    def coset_masks(self, sid: int) -> tuple[int, ...]:
        """``coset_masks(sid)[x]``, the bitmask of the left coset xJ of J = ``sid``."""
        return self._coset_masks[sid]

    def double_coset_blocks(
        self, kid: int, hid: int, aid: int
    ) -> tuple[tuple[int, ...], ...]:
        """Partition of A into K\\A/H double cosets, each block sorted.

        Blocks are ordered by their minimal element, which is the canonical
        representative.  Not cached; it walks the double cosets the way
        :meth:`pair_mackey_cuts` does when K is not normal.
        """
        subgroups = self.subgroups
        amask = subgroups[aid].mask
        if subgroups[kid].mask & ~amask or subgroups[hid].mask & ~amask:
            raise NotSubgroupOfAmbient(
                f"double cosets need K, H <= A; got ids {kid}, {hid} inside {aid}"
            )
        table = self.group.table
        krows = [table[k] for k in subgroups[kid].members]
        walk = _double_cosets(krows, self._coset_masks[hid], amask)
        return tuple(_bits(block) for _, block in walk)

    def mackey_cuts(self, kid: int, jid: int, hid: int) -> tuple[tuple[int, int], ...]:
        """The Mackey decomposition of H/K restricted to J.

        One ``(r, cut_id)`` per double coset KrJ of K\\H/J, in the block
        order of :meth:`double_coset_blocks`: ``r`` is the least element of
        the block and ``cut_id`` the lattice id of K^r n J.  Not cached; it
        is :meth:`pair_mackey_cuts` at the one J.
        """
        return self.pair_mackey_cuts(kid, hid, 1 << jid)[0]

    def pair_mackey_cuts(
        self, kid: int, hid: int, jmask: int
    ) -> list[tuple[tuple[int, int], ...]]:
        """:meth:`mackey_cuts` of K in H at each J of the id mask ``jmask``, in id order.

        Every J must lie in H.  Not cached: a decision calls it once per
        failing pair, with the J at which the pair fails.  Whether K is
        normal in H (H <= N_G(K), one bit of ``down``), the members of K and
        its conjugates are read once for all the J.

        When K is normal in H, KrJ is the left coset r(KJ) and every cut is
        K n J.  KJ is then the least subgroup above K and J, the lowest bit
        of ``up[K] & up[J]`` since ids sort by order, and the least elements
        of its cosets inside H are the bits of ``coset_leads[KJ] & H``.
        Otherwise each block is walked over the elements of K, one
        coset-mask lookup each.
        """
        up, subgroups, id_of_mask = self.up, self.subgroups, self._id_of_mask
        if not up[kid] >> hid & 1 or jmask & ~self.down[hid]:
            raise NotSubgroupOfAmbient(
                f"double cosets need K, J <= H; got id {kid} and id mask {jmask:#x} inside {hid}"
            )
        kmask, hmask = subgroups[kid].mask, subgroups[hid].mask
        out = []
        if self.down[self.normalizer[kid]] >> hid & 1:
            kup, leads = up[kid], self.coset_leads
            for jid in _bits(jmask):
                above = kup & up[jid]
                cut = id_of_mask[kmask & subgroups[jid].mask]
                reps = leads[(above & -above).bit_length() - 1] & hmask
                cuts = []
                while reps:  # inline: via _bits, this walk alone costs decide-mix about 3 %
                    low = reps & -reps
                    cuts.append((low.bit_length() - 1, cut))
                    reps ^= low
                out.append(tuple(cuts))
            return out
        table, kconj = self.group.table, self.conj[kid]
        krows = [table[k] for k in _bits(kmask)]
        for jid in _bits(jmask):
            jm = subgroups[jid].mask
            out.append(tuple([
                (r, id_of_mask[subgroups[kconj[r]].mask & jm])
                for r, _ in _double_cosets(krows, self._coset_masks[jid], hmask)
            ]))
        return out


def subgroup_lattice(
    G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER
) -> SubgroupLattice:
    """Enumerate every subgroup of G.

    Starts from the cyclic subgroups and closes under joins with them;
    every subgroup arises by adjoining cyclic generators one at a time, so
    the sweep is complete.  Each subgroup u keeps the generators it was
    found with, and a join ``<u, g>`` is built from whole right cosets of u
    (Dimino's algorithm), so it costs about one table lookup per element.
    Since ``<u, g> = <u, agb>`` for a, b in u, a cyclic whose generator
    lies in a u-double coset already joined is skipped.
    """
    if G.order > max_order:
        raise GroupTooLarge(f"|{G.name}| = {G.order} exceeds bound {max_order}")
    table, e = G.table, G.identity
    # each nontrivial cyclic subgroup with its least generator: the powers
    # g^k with k prime to the order of g generate <g> too, so they are
    # marked when <g> is found and never generate it again
    cyclic_gen: dict[int, int] = {}
    marked = 1 << e
    for g in range(G.order):
        if marked >> g & 1:
            continue
        powers, x = [e], g
        while x != e:
            powers.append(x)
            x = table[x][g]
        n = len(powers)
        cyclic_gen[sum(1 << x for x in powers)] = g
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                marked |= 1 << powers[k]
    cyclics = sorted(cyclic_gen.items())
    gens: dict[int, tuple[int, ...]] = {1 << e: ()}
    gens.update((c, (g,)) for c, g in cyclics)
    frontier = sorted(gens)
    while frontier:
        fresh = set()
        for u in frontier:
            ugens, umem = gens[u], _bits(u)
            joined = u
            for _, g in cyclics:
                if joined >> g & 1:
                    continue
                both = ugens + (g,)
                v = _coset_union(table, umem, both, e)
                joined |= _coset_union(table, umem, ugens, g)
                if v not in gens:
                    gens[v] = both
                    fresh.add(v)
        frontier = sorted(fresh)

    ordered = sorted(gens, key=lambda m: (m.bit_count(), _bits(m)))
    subgroups = tuple(
        Subgroup(i, m, m.bit_count()) for i, m in enumerate(ordered)
    )
    id_of_mask = {s.mask: s.lattice_id for s in subgroups}
    up, down, cover_masks = _inclusion_index(subgroups, [gens[m] for m in ordered])

    per_order: dict[int, int] = {}
    names = []
    for s in subgroups:
        idx = per_order.get(s.order, 0)
        per_order[s.order] = idx + 1
        names.append(f"C{s.order}#{idx}")

    conj = _conjugation_table(G, subgroups, id_of_mask)
    # a row is its subgroup's orbit; the orbit's least member opens its class
    classes = tuple(tuple(sorted(set(row))) for sid, row in enumerate(conj) if min(row) == sid)
    class_of = [0] * len(subgroups)
    for c, members in enumerate(classes):
        for sid in members:
            class_of[sid] = c

    cosets = [_left_cosets(table, s.mask) for s in subgroups]
    nested, offsets, reflexive = _pair_index(up)
    return SubgroupLattice(
        group=G,
        subgroups=subgroups,
        names=tuple(names),
        class_of=tuple(class_of),
        conj=conj,
        classes=classes,
        up=up,
        down=down,
        cover_masks=cover_masks,
        class_masks=tuple(sum(1 << sid for sid in members) for members in classes),
        normalizer=_normalizers(conj, classes, id_of_mask),
        coset_leads=tuple(leads for _, leads in cosets),
        nested_pairs=nested,
        pair_offsets=offsets,
        reflexive_mask=reflexive,
        _id_of_mask=id_of_mask,
        _id_of_name={n: i for i, n in enumerate(names)},
        _coset_masks=tuple(masks for masks, _ in cosets),
    )


def lattice_of(spec: str, max_order: int = DEFAULT_MAX_ORDER) -> SubgroupLattice:
    """The lattice of ``build_group(spec, max_order)`` from the one lattice memo.

    The bound is checked by :func:`_factors` alone, not kept in the key of the
    last 16 parsed atom lists, so ``cyclic:02``, ``cyclic: 2`` and ``cyclic:2``
    share a lattice, as callers do while it is kept.  Errors are not kept, and a
    group of order above ``DEFAULT_MAX_ORDER`` or with a ``table:`` factor is
    built on each call: 16 kept lattices hold under 250 MB (C2^6: 15.3 MB).
    """
    order, atoms = _factors(spec, max_order)
    if order > DEFAULT_MAX_ORDER or any(kind == "table" for kind, *_ in atoms):
        return subgroup_lattice(_group_of(atoms), max_order=max_order)
    return _kept_lattice(tuple(atoms))


@lru_cache(maxsize=16)
def _kept_lattice(atoms: tuple[tuple, ...]) -> SubgroupLattice:
    return subgroup_lattice(_group_of(atoms))


def _left_cosets(table: Sequence[Sequence[int]], mask: int) -> tuple[tuple[int, ...], int]:
    """Per element x, the bitmask of xJ for J = ``mask``, and the mask of the
    least element of each coset; O(|G|), one coset at a time.

    Elements are visited in index order, so the one that opens a coset is
    its least element.
    """
    jmem = _bits(mask)
    masks = [0] * len(table)
    leads = 0
    for x, row in enumerate(table):
        if not masks[x]:
            leads |= 1 << x
            coset = 0
            for j in jmem:
                coset |= 1 << row[j]
            for j in jmem:
                masks[row[j]] = coset
    return tuple(masks), leads


def _double_cosets(
    krows: Sequence[Sequence[int]], coset: Sequence[int], rest: int
) -> list[tuple[int, int]]:
    """``(least element, bitmask)`` of each double coset KaH in the mask ``rest``, in that order.

    ``krows`` holds the multiplication-table row of each element of K,
    ``coset`` is H's left-coset table, and ``rest`` is a union of double
    cosets.  A block KaH is the union of the left cosets kaH, k in K, so it
    costs one coset-mask lookup per element of K, not |K|·|H| products.
    """
    blocks = []
    # the least unassigned element is the least element of its block
    while rest:
        a = (rest & -rest).bit_length() - 1
        block = 0
        for row in krows:
            block |= coset[row[a]]
        rest &= ~block
        blocks.append((a, block))
    return blocks


def _normalizers(
    conj: Sequence[Sequence[int]], classes: Sequence[Sequence[int]], id_of_mask: dict[int, int]
) -> tuple[int, ...]:
    """``normalizer[k]``, the id of N_G(K) = {g : K^g = K}.

    A class of one member is normal, so it gets the top without a scan.
    Otherwise the class representative K's normalizer is read off its
    conjugation row, and N_G(K^g) = N_G(K)^g gives each other member from
    the first g that conjugates K onto it.
    """
    normalizer = [len(conj) - 1] * len(conj)
    for members in classes:
        if len(members) > 1:
            rep = members[0]
            row = conj[rep]
            nconj = conj[id_of_mask[sum(1 << g for g, x in enumerate(row) if x == rep)]]
            for sid in members:
                normalizer[sid] = nconj[row.index(sid)]
    return tuple(normalizer)


def _inclusion_index(
    subgroups: Sequence[Subgroup], generators: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(up, down, cover_masks)`` of the inclusion order, as id bitmasks.

    ``generators[k]`` generates subgroup k, and H contains K exactly when
    it holds each of them, so ``up[k]`` is the AND, over those generators,
    of the masks of subgroups holding them.  Covers come from the up-sets,
    and ``down`` gathers along them in id order, which extends inclusion.
    """
    n = len(subgroups)
    holding = [0] * subgroups[-1].order  # per element, the subgroups holding it
    for s in subgroups:
        bit = 1 << s.lattice_id
        for x in _bits(s.mask):
            holding[x] |= bit
    everything = (1 << n) - 1
    up = []
    for gs in generators:
        above = everything
        for g in gs:
            above &= holding[g]
        up.append(above)
    cover_masks = hasse_cover_masks(up)
    down = [1 << k for k in range(n)]
    for k, above in enumerate(cover_masks):
        for h in _bits(above):
            down[h] |= down[k]
    return tuple(up), tuple(down), tuple(cover_masks)


def _pair_index(
    up: Sequence[int],
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]:
    """``(nested_pairs, pair_offsets, reflexive_mask)`` of the inclusion order.

    The pairs with bottom k are k with each bit of ``up[k]``, in id order,
    and (k, k) comes first, since ids extend inclusion.  Each id is one int
    object, shared by every pair that names it.  The reflexive bits are set
    in a little-endian byte string read as one int, not summed as one big
    int per subgroup.
    """
    ids = list(range(len(up)))
    nested: list[tuple[int, int]] = []
    for k, above in enumerate(up):
        nested.extend(zip(repeat(ids[k]), _bits(above, ids)))
    offsets = tuple(accumulate([above.bit_count() for above in up], initial=0))
    reflexive = bytearray((offsets[-1] + 7) // 8)
    for r in offsets[:-1]:
        reflexive[r >> 3] |= 1 << (r & 7)
    return tuple(nested), offsets, int.from_bytes(reflexive, "little")


def _coset_union(
    table: Sequence[Sequence[int]], umem: Sequence[int], gens: Sequence[int], start: int
) -> int:
    """The least union of right cosets ``u·x`` that holds ``start`` and is
    closed under right multiplication by ``gens``; ``umem`` lists u.

    Coset representatives are visited breadth first, and each one reached
    outside the union adds its whole coset.  With ``start`` the identity and
    ``gens`` holding generators of u this is the subgroup they generate (for
    u trivial, ``umem == (start,)``, the subgroup ``gens`` generate); with
    ``gens`` generating u it is the double coset ``u·start·u``.
    """
    members = 0
    for a in umem:
        members |= 1 << table[a][start]
    reps = [start]
    for x in reps:  # appended to while iterated: breadth first
        row = table[x]
        for g in gens:
            y = row[g]
            if not members >> y & 1:
                for a in umem:
                    members |= 1 << table[a][y]
                reps.append(y)
    return members


def _conjugation_table(
    G: FiniteGroup, subgroups: Sequence[Subgroup], id_of_mask: dict[int, int]
) -> tuple[tuple[int, ...], ...]:
    """``conj[sid][g]``, the id of the conjugate of subgroup ``sid`` by ``g``.

    Conjugates by a greedy generating set of G are computed from masks; every
    other column follows along a breadth-first sweep of G, since
    K^(xg) = (K^x)^g.  A central generator, whose row of the table equals
    its column, fixes every subgroup: it needs no masks, and its step of the
    sweep copies the column.
    """
    table = G.table
    gens = _greedy_generators(table, G.identity)
    by_gen = [
        None if table[g] == tuple(row[g] for row in table)
        else tuple(id_of_mask[G.conj_mask(s.mask, g)] for s in subgroups)
        for g in gens
    ]
    cols: list = [None] * G.order
    cols[G.identity] = tuple(range(len(subgroups)))
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            col, row = cols[x], table[x]
            for g, step in zip(gens, by_gen):
                y = row[g]
                if cols[y] is None:
                    cols[y] = col if step is None else tuple(map(step.__getitem__, col))
                    nxt.append(y)
        frontier = nxt
    return tuple(zip(*cols))


# -- lattice operations -------------------------------------------------------


def hasse_cover_masks(up: Sequence[int]) -> list[int]:
    """Per element i of a finite order given by up-sets, the mask of its covers.

    ``up[i]`` has bit ``j`` set when i <= j, bit ``i`` included.  Indices
    must extend the order (i < j whenever i lies strictly below j): then the
    lowest index left above i, once everything above the covers found so
    far is struck out, is the next cover.
    """
    out = []
    for i, above in enumerate(up):
        rest = above & ~(1 << i)
        covers = 0
        while rest:
            low = rest & -rest
            covers |= low
            rest &= ~up[low.bit_length() - 1]
        out.append(covers)
    return out


def hasse_covers(up: Sequence[int]) -> list[tuple[int, int]]:
    """The covering pairs (i, j), sorted, of a finite order given by up-sets.

    Same input as :func:`hasse_cover_masks`.
    """
    return [(i, j) for i, covers in enumerate(hasse_cover_masks(up)) for j in _bits(covers)]
