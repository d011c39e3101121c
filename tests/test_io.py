import json
import random

import pytest

import normcert as nc
from normcert import io as iomod
from normcert import INFINITY, HeightVector
from helpers import CORPUS_SPECS, enumeration, lattice, random_valid_locus


def test_canonical_json_is_stable_and_strict():
    doc = {"b": 1, "a": [2, {"z": 0, "y": 1}]}
    assert iomod.canonical_json(doc) == '{"a":[2,{"y":1,"z":0}],"b":1}'
    with pytest.raises(ValueError):
        iomod.canonical_json({"h": INFINITY})


def test_digest_changes_with_content():
    a = iomod.digest({"x": 1})
    b = iomod.digest({"x": 2})
    assert a != b and len(a) == 64


def test_locus_document_round_trip_randomized():
    rng = random.Random(31)
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        for _ in range(40):
            vl = random_valid_locus(L, rng)
            doc = iomod.locus_doc(vl)
            json.loads(iomod.canonical_json(doc))
            assert iomod.parse_locus(L, doc) == vl


def test_locus_document_round_trip_non_closed():
    # raw, invalid loci still serialize faithfully (validation is separate)
    L = lattice("cyclic:4")
    vl = nc.vanishing_locus(L, [nc.balmer_prime(0, 2, 3), nc.balmer_prime(1, 5, 2)])
    doc = iomod.locus_doc(vl)
    assert iomod.parse_locus(L, doc) == vl


def test_locus_parse_errors():
    L = lattice("cyclic:4")
    with pytest.raises(iomod.ParseError):
        iomod.parse_locus(L, {"entries": [{"subgroup": "C5#0", "prime": 2, "heights": [1]}]})
    with pytest.raises(iomod.ParseError):
        iomod.parse_locus(L, {"entries": [{"subgroup": "C1#0", "prime": "any", "heights": "all"}]})
    with pytest.raises(iomod.ParseError):
        iomod.parse_locus(L, {"entries": [{"subgroup": "C1#0", "prime": 4, "heights": [1]}]})
    with pytest.raises(iomod.ParseError):
        iomod.parse_locus(L, {"entries": [{"subgroup": "C1#0", "prime": 2, "heights": "3..1"}]})
    with pytest.raises(iomod.ParseError):
        iomod.parse_locus(L, {})


def test_system_document_round_trip():
    for spec in ("cyclic:9", "symmetric:3", "quaternion:8"):
        L = lattice(spec)
        for R in enumeration(spec).systems:
            doc = iomod.system_doc(R)
            assert iomod.parse_system(L, doc) == R


def test_system_parse_closes_seeds():
    L = lattice("cyclic:4")
    doc = {"pairs": [["C1#0", "C4#0"]]}
    R = iomod.parse_system(L, doc)
    assert R == nc.close_transfer_system(L, [(0, 2)])
    assert iomod.parse_system(L, "complete") == nc.complete_system(L)
    assert iomod.parse_system(L, "trivial") == nc.trivial_system(L)
    with pytest.raises(iomod.ParseError):
        iomod.parse_system(L, {"pairs": [["C4#0", "C1#0"]]})
    with pytest.raises(iomod.ParseError):
        iomod.parse_system(L, {"pairs": "complete"})


def test_heights_document_round_trip():
    for entries in [(1, 0), (None, None), (INFINITY, 3, None)]:
        v = HeightVector(2, entries)
        doc = iomod.heights_doc(v)
        json.loads(iomod.canonical_json(doc))
        assert iomod.parse_heights(doc) == v


def test_heights_inline_parse():
    assert iomod.parse_heights_inline("2,(1,0)") == HeightVector(2, (1, 0))
    assert iomod.parse_heights_inline("3,(inf,none,-1)") == HeightVector(
        3, (INFINITY, None, None)
    )
    for bad in ("2", "2,(1,", "x,(1)", "2,(1,q)", "4,(1)"):
        with pytest.raises(iomod.ParseError):
            iomod.parse_heights_inline(bad)


def test_input_heights_are_bounded():
    # every finite height read from input is at most MAX_ENUM_HEIGHT (10),
    # checked before a range is expanded; inf stays allowed
    L = lattice("cyclic:2")

    def entry(heights):
        return {"entries": [{"subgroup": "C1#0", "prime": 2, "heights": heights}]}

    for heights in ("0..11", "0..99999999", 11, [0, 11]):
        with pytest.raises(iomod.ParseError, match="exceeds the input bound 10"):
            iomod.parse_locus(L, entry(heights))
    for heights in ("0..10", 10, [0, 10], "all"):
        iomod.parse_locus(L, entry(heights))
    with pytest.raises(iomod.ParseError, match="exceeds the input bound 10"):
        iomod.parse_heights({"p": 2, "ell": [11, 0]})
    assert iomod.parse_heights({"p": 2, "ell": [10, "inf"]}) == HeightVector(2, (10, INFINITY))
    for bad in ("2,(11,0)", "2,(99999999999999999999,0)"):
        with pytest.raises(iomod.ParseError, match="exceeds the input bound 10"):
            iomod.parse_heights_inline(bad)
    assert iomod.parse_heights_inline("2,(10,inf)") == HeightVector(2, (10, INFINITY))


def test_decision_document_shape():
    L = lattice("cyclic:2")
    vl = nc.heights_to_locus(HeightVector(2, (0, 1)), L)
    R = nc.complete_system(L)
    d = nc.localization_preserves(vl, R)
    doc = iomod.decision_doc(d, L, R, vl)
    assert doc["verdict"] == "NoGuarantee"
    assert doc["witnesses"][0]["prime"] == {"subgroup": "C2#0", "height": 1, "prime": 2}
    assert set(doc["inputs"]) == {"group", "operad", "locus"}
    json.loads(iomod.canonical_json(doc))


def test_group_and_lattice_docs():
    L = lattice("symmetric:3")
    gdoc = iomod.group_doc(L.group)
    assert gdoc["order"] == 6 and len(gdoc["table"]) == 6
    ldoc = iomod.lattice_doc(L)
    assert [s["name"] for s in ldoc["subgroups"]] == list(L.names)
    assert ldoc["covers"][0] == ["C1#0", "C2#0"]
