import math
import re

import pytest

import normcert as nc
from normcert import dot as dotmod
from helpers import check_dot_syntax, enumeration, enumeration_doc_by_hand, lattice


def test_c4_lattice_is_a_chain():
    out = dotmod.lattice_dot(lattice("cyclic:4"))
    check_dot_syntax(out)
    assert out.count(";") == 6  # rankdir, 3 nodes, 2 edges
    assert '"C1#0" -> "C2#0";' in out
    assert '"C2#0" -> "C4#0";' in out
    assert out.count("->") == 2


def test_s3_lattice_nodes():
    out = dotmod.lattice_dot(lattice("symmetric:3"))
    check_dot_syntax(out)
    for name in lattice("symmetric:3").names:
        assert f'"{name}";' in out


def test_transfer_poset_cp2():
    out = dotmod.transfer_poset_dot(lattice("cyclic:9"), enumeration("cyclic:9"))
    check_dot_syntax(out)
    assert sum(1 for line in out.splitlines() if "label=" in line) == 5
    # covering edges only: bottom covers two systems, not the top directly
    assert '"T0" -> "T1";' in out
    assert '"T0" -> "T4";' not in out


@pytest.mark.parametrize(
    "spec,n,edges",
    [("cyclic:2", 1, 1), ("cyclic:4", 2, 5), ("cyclic:8", 3, 21), ("cyclic:16", 4, 84),
     ("cyclic:32", 5, 330), ("cyclic:9", 2, 5), ("cyclic:27", 3, 21), ("cyclic:25", 2, 5)],
)
def test_transfer_poset_on_chains_has_tamari_cover_count(spec, n, edges):
    # the transfer systems of C_{p^n} form the Tamari lattice on m = n + 1
    # (Balchin-Barnes-Roitzheim), whose Hasse diagram has (m-1) Cat(m) / 2 edges
    m = n + 1
    assert (m - 1) * math.comb(2 * m, m) // (m + 1) // 2 == edges
    out = dotmod.transfer_poset_dot(lattice(spec), enumeration(spec))
    check_dot_syntax(out)
    assert out.count(" -> ") == edges


@pytest.mark.parametrize("spec", ["dihedral:8", "cyclic:2*cyclic:4", "quaternion:8"])
def test_transfer_poset_edges_are_covers(spec):
    # covers by definition: S < T with no system strictly between them
    L = lattice(spec)
    enum = enumeration(spec)
    sets = [s.pairs for s in enum.systems]
    n = len(sets)
    above = [{j for j in range(n) if sets[i] <= sets[j]} for i in range(n)]
    below = [{i for i in range(n) if sets[i] <= sets[j]} for j in range(n)]
    covers = {
        (i, j)
        for i in range(n)
        for j in above[i]
        if i != j and not (above[i] & below[j]) - {i, j}
    }
    out = dotmod.transfer_poset_dot(L, enum)
    check_dot_syntax(out)
    edges = {tuple(map(int, e)) for e in re.findall(r'"T(\d+)" -> "T(\d+)"', out)}
    assert edges == covers
    doc = enumeration_doc_by_hand(L, enum)
    assert doc["containment"] == [sorted(a) for a in above]


def test_prime_poset_c2():
    L = lattice("cyclic:2")
    out = dotmod.prime_poset_dot(L, 2, 2)
    check_dot_syntax(out)
    assert '"P(C1#0,0,any)";' in out
    assert '"P(C2#0,2,2)";' in out
    assert '"P(C1#0,0,any)" -> "P(C1#0,1,2)";' in out
    assert out.count("->") == 4


def test_determinism_within_process():
    for spec in ("symmetric:3", "dihedral:8"):
        L = lattice(spec)
        assert dotmod.lattice_dot(L) == dotmod.lattice_dot(L)
