"""DOT digraphs for the posets the library computes.

Edges always point up the order (covering relations only) and nodes carry
canonical names, so output is deterministic byte for byte.
"""

from __future__ import annotations

from .certify import MAX_ENUM_HEIGHT, _check_chain
from .chromatic import ANY_PRIME
from .groups import SubgroupLattice, hasse_covers
from .transfers import BoundTooLarge, TransferEnumeration


def _graph(name: str, nodes, edges) -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines.extend(f"  {n};" for n in nodes)
    lines.extend(f"  {a} -> {b};" for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_dot(L: SubgroupLattice) -> str:
    nodes = [f'"{n}"' for n in L.names]
    edges = [(f'"{L.names[k]}"', f'"{L.names[h]}"') for k, h in L.covers()]
    return _graph("subgroup_lattice", nodes, edges)


def transfer_poset_dot(L: SubgroupLattice, enum: TransferEnumeration) -> str:
    nodes = [
        f'"T{i}" [label="T{i} ({mask.bit_count()} pairs)"]' for i, mask in enumerate(enum.masks)
    ]
    # systems are sorted by size, so their indices extend containment
    edges = [(f'"T{i}"', f'"T{j}"') for i, j in hasse_covers(enum.up)]
    return _graph("transfer_systems", nodes, sorted(edges))


def prime_poset_dot(L: SubgroupLattice, p: int, height_bound: int) -> str:
    """Primes P(H, m, p) for m <= height_bound, with height-inclusion edges."""
    _check_chain(0, p)
    if not 0 <= height_bound <= MAX_ENUM_HEIGHT:
        raise BoundTooLarge(
            f"prime posets support 0 <= height_bound <= {MAX_ENUM_HEIGHT}, got {height_bound}"
        )

    def node(c: int, m: int) -> str:
        rep = L.names[L.classes[c][0]]
        marker = ANY_PRIME if m == 0 else p
        return f'"P({rep},{m},{marker})"'

    nodes = []
    edges = []
    for c in range(len(L.classes)):
        for m in range(height_bound + 1):
            nodes.append(node(c, m))
            if m:
                edges.append((node(c, m - 1), node(c, m)))
    return _graph("balmer_primes", nodes, edges)
