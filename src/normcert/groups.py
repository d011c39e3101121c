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
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
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


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(eq=False)
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

    def generated_mask(self, mask: int) -> int:
        """Bitmask of the subgroup generated by the elements of ``mask``."""
        e = self.identity
        return _coset_union(self.table, (e,), _bits(mask), e)

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
    perms = list(itertools.permutations(range(n)))
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


def _read_table_csv(path: str, max_order: int | None) -> tuple[list[list[int]], str]:
    """The rows of a CSV multiplication table and the name its file gives.

    Given ``max_order``, reading stops at the first row past that many rows
    (GroupTooLarge) or wider than that (InvalidTable); each row is still
    parsed whole before its width is known.
    """
    rows: list[list[int]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
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
                try:
                    rows.append([int(x) for x in row])
                except ValueError:
                    raise InvalidTable(
                        f"row {len(rows)} of {path} has a non-integer entry"
                    ) from None
    except UnicodeDecodeError:
        raise InvalidTable(f"{path} is not UTF-8 text") from None
    base = path.replace("\\", "/").rsplit("/", 1)[-1]
    return rows, base.rsplit(".", 1)[0] or "G"


def build_group(spec: str, max_order: int | None = None) -> FiniteGroup:
    """Build a group from a spec string.

    Grammar: ``atom ('*' atom)*`` with atoms ``cyclic:N``, ``dihedral:N``
    (N the order), ``symmetric:N`` (N <= 5), ``quaternion:8`` and
    ``table:PATH`` (CSV of element indices, row i column j = i*j).  Given
    ``max_order``, a factor or product of larger order raises GroupTooLarge
    before any table is built; a ``table:`` factor counts its CSV rows, and
    its CSV is read no further than the first row past the bound or wider
    than it.
    """
    parts = [p.strip() for p in spec.split("*")]
    if any(not p for p in parts):
        raise UnsupportedSpec(f"malformed group spec {spec!r}")
    atoms = [_atom(p, max_order) for p in parts]
    if max_order is not None:
        order = math.prod(n for n, _ in atoms)
        if order > max_order or any(n > max_order for n, _ in atoms):
            raise GroupTooLarge(f"|{spec}| = {order} exceeds bound {max_order}")
    groups = [build() for _, build in atoms]
    return groups[0] if len(groups) == 1 else direct_product(*groups)


def _atom(s: str, max_order: int | None) -> tuple[int, Callable[[], FiniteGroup]]:
    """One factor of a spec as (its order, its constructor); nothing is built.

    A ``table:`` factor is read here, and no further than ``max_order`` allows.
    """
    kind, sep, arg = s.partition(":")
    if kind in ("cyclic", "dihedral") and sep:
        n = _int_arg(s, arg)
        return n, partial(cyclic if kind == "cyclic" else dihedral, n)
    if kind == "symmetric" and sep:
        n = _int_arg(s, arg)
        # symmetric() rejects a degree outside 1..5 itself
        return (math.factorial(n) if 1 <= n <= 5 else n), partial(symmetric, n)
    if kind == "quaternion":
        if arg not in ("", "8"):
            raise UnsupportedSpec(f"only quaternion:8 is supported, got {s!r}")
        return 8, quaternion
    if kind == "table" and sep:
        rows, name = _read_table_csv(arg, max_order)
        return len(rows), partial(from_table, rows, name)
    raise UnsupportedSpec(f"unrecognised group spec {s!r}")


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


@dataclass(eq=False)
class SubgroupLattice:
    """The complete poset of subgroups of a finite group.

    Subgroups are sorted by (order, member tuple); the position in
    ``subgroups`` is the stable lattice id.  ``conj[sid][g]`` is the id of
    the conjugate of subgroup ``sid`` by element ``g``, so the conjugacy
    class of ``sid`` is the set of its row.  Conjugacy classes are sorted by
    their smallest member id, which is also the chosen class representative.
    """

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    names: tuple[str, ...]
    class_of: tuple[int, ...]
    conj: tuple[tuple[int, ...], ...] = field(repr=False)
    classes: tuple[tuple[int, ...], ...]
    _id_of_mask: dict[int, int] = field(repr=False)
    _id_of_name: dict[str, int] = field(repr=False)
    # per subgroup id J, x -> bitmask of the left coset xJ, built on first use
    _coset_masks: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    # per subgroup id H, the classes with a member J <= H and those members
    _classes_below: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = field(
        default_factory=dict, repr=False
    )

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
        """Covering relations (kid, hid) of the inclusion order, sorted.

        Ids are sorted by order, so they extend inclusion.
        """
        masks = [s.mask for s in self.subgroups]
        up = [sum(1 << h for h, big in enumerate(masks) if small & ~big == 0) for small in masks]
        return tuple(hasse_covers(up))

    def coset_masks(self, sid: int) -> tuple[int, ...]:
        """``coset_masks(sid)[x]``, the bitmask of the left coset xJ of J = ``sid``.

        Built in O(|G|) on first use, one coset at a time, and kept on the
        lattice.
        """
        out = self._coset_masks.get(sid)
        if out is None:
            table = self.group.table
            jmem = _bits(self.subgroups[sid].mask)
            masks = [0] * self.group.order
            for x, row in enumerate(table):
                if not masks[x]:
                    coset = 0
                    for j in jmem:
                        coset |= 1 << row[j]
                    for j in jmem:
                        masks[row[j]] = coset
            out = self._coset_masks[sid] = tuple(masks)
        return out

    def _double_cosets(self, kid: int, hid: int, aid: int) -> list[tuple[int, int]]:
        """``(least element, bitmask)`` of each double coset of K\\A/H, in that order.

        A block KaH is the union of the left cosets kaH, k in K, so it costs
        one coset-mask lookup per element of K, not |K|·|H| products.
        """
        K, H, A = self.subgroups[kid], self.subgroups[hid], self.subgroups[aid]
        if K.mask & ~A.mask or H.mask & ~A.mask:
            raise NotSubgroupOfAmbient(
                f"double cosets need K, H <= A; got ids {kid}, {hid} inside {aid}"
            )
        table, coset = self.group.table, self.coset_masks(hid)
        kmem = _bits(K.mask)
        rest = A.mask
        out = []
        # the least unassigned element is the least element of its block
        while rest:
            a = (rest & -rest).bit_length() - 1
            block = 0
            for k in kmem:
                ka = table[k][a]
                if not block >> ka & 1:
                    block |= coset[ka]
            rest &= ~block
            out.append((a, block))
        return out

    def double_coset_blocks(
        self, kid: int, hid: int, aid: int
    ) -> tuple[tuple[int, ...], ...]:
        """Partition of A into K\\A/H double cosets, each block sorted.

        Blocks are ordered by their minimal element, which is the canonical
        representative.  Not cached; it walks the double cosets the way
        :meth:`mackey_cuts` does.
        """
        return tuple(_bits(block) for _, block in self._double_cosets(kid, hid, aid))

    def mackey_cuts(self, kid: int, jid: int, hid: int) -> tuple[tuple[int, int], ...]:
        """The Mackey decomposition of H/K restricted to J.

        One ``(r, cut_id)`` per double coset KrJ of K\\H/J, in the block
        order of :meth:`double_coset_blocks`: ``r`` is the least element of
        the block and ``cut_id`` the lattice id of K^r n J.  Not cached: a
        decision computes it once per failing triple.
        """
        return tuple(
            (r, self.intersect_ids(self.conj_id(kid, r), jid))
            for r, _ in self._double_cosets(kid, jid, hid)
        )

    def classes_below(self, hid: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(class, members J <= H)`` for each class with such a member, by class.

        Built on first use and kept on the lattice.
        """
        out = self._classes_below.get(hid)
        if out is None:
            hmask = self.subgroups[hid].mask
            below = []
            for c, members in enumerate(self.classes):
                inside = tuple(j for j in members if not self.subgroups[j].mask & ~hmask)
                if inside:
                    below.append((c, inside))
            out = self._classes_below[hid] = tuple(below)
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
    # each cyclic subgroup with its least generator
    cyclic_gen: dict[int, int] = {}
    for g in range(G.order):
        cyclic_gen.setdefault(G.generated_mask(1 << g), g)
    del cyclic_gen[1 << e]
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

    return SubgroupLattice(
        group=G,
        subgroups=subgroups,
        names=tuple(names),
        class_of=tuple(class_of),
        conj=conj,
        classes=classes,
        _id_of_mask=id_of_mask,
        _id_of_name={n: i for i, n in enumerate(names)},
    )


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
    K^(xg) = (K^x)^g.
    """
    gens = _greedy_generators(G.table, G.identity)
    by_gen = [tuple(id_of_mask[G.conj_mask(s.mask, g)] for s in subgroups) for g in gens]
    cols: list = [None] * G.order
    cols[G.identity] = tuple(range(len(subgroups)))
    frontier = [G.identity]
    table = G.table
    while frontier:
        nxt = []
        for x in frontier:
            col, row = cols[x], table[x]
            for g, step in zip(gens, by_gen):
                y = row[g]
                if cols[y] is None:
                    cols[y] = tuple(map(step.__getitem__, col))
                    nxt.append(y)
        frontier = nxt
    return tuple(zip(*cols))


# -- lattice operations -------------------------------------------------------


def hasse_covers(up: Sequence[int]) -> list[tuple[int, int]]:
    """The covering pairs (i, j), sorted, of a finite order given by up-sets.

    ``up[i]`` has bit ``j`` set when i <= j, bit ``i`` included.  Indices
    must extend the order (i < j whenever i lies strictly below j): then the
    lowest index left above i, once everything above the covers found so
    far is struck out, is the next cover.
    """
    out = []
    for i, above in enumerate(up):
        rest = above & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            out.append((i, j))
            rest &= ~up[j]
    return out
