import json
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normcert as nc
from normcert import io as iomod
from normcert.certify import NormFailure
from normcert.cli import _INPUT_ERRORS
from normcert.groups import _bits
from normcert.transfers import candidate_pairs
from normcert import INFINITY, HeightVector
from helpers import (
    CORPUS_SPECS,
    decision_doc_by_hand,
    decision_text_by_loop,
    enumeration,
    enumeration_doc_by_hand,
    lattice,
    random_valid_locus,
    set_bits_by_scan,
    unbounded_enumeration,
)


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


@pytest.mark.parametrize("heights, message", [
    ("a..3", "bad height range 'a..3'"),
    ("most", "bad heights field 'most'"),
])
def test_locus_heights_strings_outside_the_grammar(heights, message):
    entry = {"subgroup": "C1#0", "prime": 2, "heights": heights}
    with pytest.raises(iomod.ParseError, match=f"^{message}$"):
        iomod.parse_locus(lattice("cyclic:4"), {"entries": [entry]})


def test_system_document_round_trip():
    for spec in ("cyclic:9", "symmetric:3", "quaternion:8"):
        L = lattice(spec)
        for R in enumeration(spec).systems:
            doc = iomod.system_doc(R)
            assert iomod.parse_system(L, doc) == R


def test_operad_digest_is_the_digest_of_the_system_document():
    # the decision head hashes the operad from a template over its pairs, a
    # chunk at a time; on the corpus, on S3 under a name that needs JSON
    # escapes, and on the C2^6 complete operad (95,706 pairs, 24 chunks)
    def check(R):
        assert iomod._system_digest(R) == iomod.digest(iomod.system_doc(R))

    rng = random.Random(31)
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        for R in (nc.complete_system(L), nc.trivial_system(L),
                  nc.close_transfer_system(L, rng.sample(candidate_pairs(L), 1))):
            check(R)
    G = nc.from_table(nc.symmetric(3).table, name='S3 "hostile" \\ [x] {y} \u00e9')
    L = nc.subgroup_lattice(G)
    for R in (nc.complete_system(L), nc.trivial_system(L)):
        check(R)
    R = nc.complete_system(lattice("*".join(["cyclic:2"] * 6)))
    assert len(R) > 20 * iomod._DIGEST_PAIRS
    check(R)


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
    for bad in ("2", "2,(1,", "x,(1)", "2,(1,q)", "4,(1)", "2,()", "2,(1,-2)", "2,(-1.0,0)"):
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
    doc = decision_doc_by_hand(d, L, R, vl)
    assert doc["verdict"] == "NoGuarantee"
    assert doc["witnesses"][0]["prime"] == {"subgroup": "C2#0", "height": 1, "prime": 2}
    assert set(doc["inputs"]) == {"group", "operad", "locus"}
    json.loads(iomod.canonical_json(doc))


def _check_decision_writers(L, R, vl, seen):
    # each writer consumes a live stream of runs, each freed once written;
    # the oracles read the kept decision
    d = nc.localization_preserves(vl, R)
    held = not d.certified
    expected = iomod.indented_json(decision_doc_by_hand(d, L, R, vl))
    blocks, witnessed = iomod.decision_json_blocks(nc.localization_runs(vl, R), L, R, vl)
    assert ("".join(blocks), witnessed) == (expected, held)
    expected = decision_text_by_loop(d, L, R, vl)
    blocks, witnessed = iomod.decision_text_blocks(nc.localization_runs(vl, R), L, R, vl)
    assert ("".join(blocks), witnessed) == (expected, held)
    seen["certified"] |= d.certified
    for w in d.witnesses:
        seen["any"] |= w.prime.prime == nc.ANY_PRIME
        seen["inf"] |= w.prime.height == INFINITY
        seen["cosets"] |= not L.is_normal(w.norm_source) and len(w.checked) > 1


def test_decision_writers_match_their_oracles():
    # the structured writer against the generic one over the hand-built dict,
    # and the text writer against the one-witness-at-a-time loop, on random
    # valid loci
    rng = random.Random(12)
    seen = dict.fromkeys(("certified", "any", "inf", "cosets"), False)
    for spec in ("symmetric:4", "dihedral:32", "cyclic:2*cyclic:2*cyclic:2*cyclic:2",
                 "dihedral:16*cyclic:2"):
        L = lattice(spec)
        strict = candidate_pairs(L)
        operads = [nc.complete_system(L), nc.trivial_system(L),
                   nc.close_transfer_system(L, rng.sample(strict, 2))]
        for _ in range(3):
            vl = random_valid_locus(L, rng)
            for R in operads:
                _check_decision_writers(L, R, vl, seen)
    # S3 under a name that needs JSON escapes; its height-0 locus fails with
    # "any" primes at non-normal K of several double cosets
    G = nc.from_table(nc.symmetric(3).table, name='S3 "hostile", [x] {y} \u00e9')
    L = nc.subgroup_lattice(G)
    vl = iomod.parse_locus(L, {"entries": [{"subgroup": "C2#0", "prime": "any", "heights": [0]}]})
    for R in (nc.complete_system(L), nc.trivial_system(L)):
        _check_decision_writers(L, R, vl, seen)
    assert all(seen.values()), seen


def test_decision_writers_key_checked_texts_by_value():
    # the writers build the text of each distinct ``checked`` list once per
    # report.  This stream of runs builds each list afresh and drops it once
    # its run is written, so later lists take the ids of earlier ones; a
    # text cached by id() would be printed for the wrong list
    L = lattice("symmetric:4")
    R = nc.complete_system(L)
    vl = random_valid_locus(L, random.Random(3))
    d = nc.localization_preserves(vl, R)
    # different triples carry equal lists, with other lists between them
    triples = dict.fromkeys((w[:3], w.checked) for w in d.witnesses)
    last, recurs = {}, False
    for i, (_, checked) in enumerate(triples):
        recurs |= last.get(checked, i - 1) < i - 1
        last[checked] = i
    assert recurs
    ids: dict[int, set] = {}

    def fresh():
        for kid, hid, triples, primes in nc.localization_runs(vl, R):
            run = []
            for jid, checked, cut_classes in triples:
                copy = tuple([(r, c) for r, c in checked])
                ids.setdefault(id(copy), set()).add(checked)
                run.append((jid, copy, cut_classes))
            del copy
            yield kid, hid, run, primes
            del run

    expected = iomod.indented_json(decision_doc_by_hand(d, L, R, vl))
    blocks, witnessed = iomod.decision_json_blocks(fresh(), L, R, vl)
    assert ("".join(blocks), witnessed) == (expected, True)
    assert any(len(values) > 1 for values in ids.values())  # ids were reused
    ids.clear()
    blocks, witnessed = iomod.decision_text_blocks(fresh(), L, R, vl)
    assert ("".join(blocks), witnessed) == (decision_text_by_loop(d, L, R, vl), True)
    assert any(len(values) > 1 for values in ids.values())


def _check_hand_built_stream(L, witnesses):
    # the writers read a stream that does not come from localization_runs,
    # built afresh, each witness a run of its own, against the oracles over
    # the same witnesses kept
    R, vl = nc.complete_system(L), nc.uniform_locus(L, {2: 3})
    d = nc.Decision(tuple(w() for w in witnesses))

    def fresh():
        return iomod._one_witness_runs(w() for w in witnesses)

    assert iomod.decision_doc(d, L, R, vl) == decision_doc_by_hand(d, L, R, vl)
    expected = iomod.indented_json(decision_doc_by_hand(d, L, R, vl))
    blocks, witnessed = iomod.decision_json_blocks(fresh(), L, R, vl)
    assert ("".join(blocks), witnessed) == (expected, True)
    blocks, witnessed = iomod.decision_text_blocks(fresh(), L, R, vl)
    assert ("".join(blocks), witnessed) == (decision_text_by_loop(d, L, R, vl), True)


def test_decision_writers_key_primes_by_the_prime_kept():
    # each prime, and the primes tuple of its one-witness run, is built
    # afresh and dropped once written, so a later tuple takes the id() of an
    # earlier one (the first run is held by the writers' peek, so the fourth
    # takes the second's); prime texts cached by id() alone, with the tuple
    # not kept, printed P(C1#0,2,2) for the fourth
    L = lattice("cyclic:4")
    checked = L.mackey_cuts(0, 0, 2)
    _check_hand_built_stream(L, [
        lambda h=h: NormFailure(0, 2, 0, nc.balmer_prime(0, h, 2), checked)
        for h in (1, 2, 3, 4, 5)
    ])


def test_decision_writers_key_triples_by_their_checked_list():
    # two witnesses of one (K, H, J) with different checked lists; a text
    # cached by J alone printed the first list for both
    L = lattice("dihedral:8")
    top = len(L) - 1
    cuts = L.mackey_cuts(0, 0, top)
    _check_hand_built_stream(L, [
        lambda: NormFailure(0, top, 0, nc.balmer_prime(0, 1, 2), ((0, 0),)),
        lambda: NormFailure(0, top, 0, nc.balmer_prime(0, 2, 2), cuts),
    ])


def _check_enumeration_writer(L, e):
    # the direct writer against the generic one over the hand-built dict and
    # against json.dumps
    doc = enumeration_doc_by_hand(L, e)
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert "".join(iomod.enumeration_json_blocks(L, e)) == iomod.indented_json(doc) == expected
    return expected


@pytest.mark.parametrize("spec", [
    "cyclic:1", "symmetric:3", "quaternion:8", "cyclic:8", "cyclic:32", "cyclic:3*cyclic:3",
    "dihedral:8", "cyclic:2*cyclic:4",
])
def test_enumeration_writer_matches_its_oracles(spec):
    # C1 has one system and no strict pair
    _check_enumeration_writer(lattice(spec), enumeration(spec))


def test_enumeration_writer_on_a_name_that_needs_escapes():
    G = nc.from_table(nc.symmetric(3).table, name='S3 "hostile" \\ [x] {y} \u00e9')
    L = nc.subgroup_lattice(G)
    expected = _check_enumeration_writer(L, nc.enumerate_transfer_systems(L))
    assert '\\"hostile\\" \\\\' in expected and "\\u00e9" in expected


def test_enumeration_writer_above_the_pair_bound():
    # S4 at all 120 strict pairs: 8691 systems, a 140 MB document.  Each
    # comparison is made before its assert, so a failure names a range,
    # not a diff of the document.  json.dumps, and so indented_json, joins
    # the chunks of this same iterencode; comparing them a block at a time
    # keeps their list, near 1 GB, out of memory
    L, e = lattice("symmetric:4"), unbounded_enumeration("symmetric:4")
    doc = enumeration_doc_by_hand(L, e)
    direct = "".join(iomod.enumeration_json_blocks(L, e))
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    pos = 0
    while block := "".join(islice(chunks, 1 << 16)):
        same = direct[pos:pos + len(block)] == block
        assert same, f"the joined blocks differ from json.dumps in [{pos}, {pos + len(block)})"
        pos += len(block)
    same = direct[pos:] == "\n"
    assert same, f"the joined blocks differ from json.dumps after {pos}"


def test_dict_forms_are_the_hand_built_documents(tmp_path):
    # io.decision_doc and io.enumeration_doc parse their writers' output back
    def check(L, R, vl):
        d = nc.localization_preserves(vl, R)
        assert iomod.decision_doc(d, L, R, vl) == decision_doc_by_hand(d, L, R, vl)
        return d

    def check_enumeration(L, e):
        assert iomod.enumeration_doc(L, e) == enumeration_doc_by_hand(L, e)

    rng = random.Random(27)
    for spec in CORPUS_SPECS:
        L = lattice(spec)
        check_enumeration(L, enumeration(spec))
        vl = random_valid_locus(L, rng)
        for R in (nc.complete_system(L), nc.trivial_system(L),
                  nc.close_transfer_system(L, rng.sample(candidate_pairs(L), 1))):
            check(L, R, vl)
    # a decision with no witness
    L = lattice("dihedral:8")
    assert check(L, nc.trivial_system(L), random_valid_locus(L, rng)).certified
    # the whole 2-local tower at D64: every norm K -> G fails at height "inf"
    L = lattice("dihedral:64")
    top = L.names[L.top.lattice_id]
    vl = iomod.parse_locus(L, {"entries": [{"subgroup": top, "prime": 2, "heights": "all"}]})
    d = check(L, nc.complete_system(L), vl)
    assert len(d.witnesses) == 68 and all(w.prime.height == INFINITY for w in d.witnesses)
    # a table: group whose name, the file's base name, needs JSON escapes;
    # its height-0 locus fails with "any" primes
    table = tmp_path / '\\S3 "hostile", [x] {y} \u00e9.csv'
    table.write_text("\n".join(",".join(map(str, row)) for row in nc.symmetric(3).table))
    L = nc.subgroup_lattice(nc.build_group(f"table:{table}"))
    assert L.group.name == '\\S3 "hostile", [x] {y} \u00e9'
    vl = iomod.parse_locus(L, {"entries": [{"subgroup": "C2#0", "prime": "any", "heights": [0]}]})
    assert not check(L, nc.complete_system(L), vl).certified
    check_enumeration(L, nc.enumerate_transfer_systems(L))
    # D12 with the pair bound lifted
    L, e = lattice("dihedral:12"), unbounded_enumeration("dihedral:12")
    assert len(e.systems) == 3133
    check_enumeration(L, e)


def test_bit_labels_equal_bits():
    # _bits with labels picks labels[i] at each set bit, on either side of the
    # switch between its peel and its digit pass, near one bit in eight set;
    # the enumeration oracle's scan of the binary digits agrees
    rng = random.Random(24)
    masks = [0, 1, 1 << 1, 1 << 63, 1 << 64, 1 << 8690]
    masks += [rng.getrandbits(rng.randrange(1, 9000)) for _ in range(300)]
    masks += [rng.getrandbits(4000) & rng.getrandbits(4000) & rng.getrandbits(4000)
              for _ in range(50)]
    for length in (*range(1, 130), 400, 3000, 8691):
        middle = (length + 40) // 8
        for k in range(max(1, middle - 3), min(length, middle + 4) + 1):
            rest = rng.sample(range(length - 1), k - 1)
            masks.append(1 << (length - 1) | sum(1 << i for i in rest))
    for mask in masks:
        scan = tuple(set_bits_by_scan(mask))
        assert _bits(mask) == scan
        assert _bits(mask, range(mask.bit_length())) == scan
        names = [f"s{i}" for i in range(mask.bit_length() + 5)]
        assert _bits(mask, names) == tuple(names[i] for i in scan)


def test_group_and_lattice_docs():
    L = lattice("symmetric:3")
    gdoc = iomod.group_doc(L.group)
    assert gdoc["order"] == 6 and len(gdoc["table"]) == 6
    ldoc = iomod.lattice_doc(L)
    assert [s["name"] for s in ldoc["subgroups"]] == list(L.names)
    assert ldoc["covers"][0] == ["C1#0", "C2#0"]


# -- fuzzed parsers: a bad document is an input error, never a crash --------------

_S3 = lattice("symmetric:3")
_WORDS = st.sampled_from(
    list(_S3.names) + ["all", "any", "inf", "none", "complete", "trivial", "C9#0", ""]
)
_NUMERAL = st.text("0123456789-+ .e_", max_size=4)
_RANGES = st.builds(
    "{}..{}".format,
    st.integers(-3, 12) | _NUMERAL,
    st.integers(-3, 12) | st.sampled_from([10**30]) | _NUMERAL,
)
# near-miss heights and primes: bools, floats, negatives, just above the bound
_SMALL = st.sampled_from(
    [0, 1, 2, 3, 4, 10, 11, -1, -2, True, False, 2.0, float("nan"), float("inf"),
     "inf", "none", "all", "any", None, 2**64, 1000000000000000003]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | _SMALL | _WORDS | _RANGES
)
_KEYS = st.sampled_from(["entries", "subgroup", "prime", "heights", "pairs", "p", "ell"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# each document strategy also draws well-formed values, so parsing gets past
# its first check often enough to reach the later ones
_PRIME = st.sampled_from([2, 3, "any"]) | _SMALL | _JSON
_HEIGHT = st.sampled_from([0, 1, 2, "inf", "none", None, -1]) | _SMALL | _JSON
_LOCUS = st.fixed_dictionaries({"entries": st.lists(
    st.fixed_dictionaries({
        "subgroup": st.sampled_from(_S3.names) | _WORDS | _JSON,
        "prime": _PRIME,
        "heights": st.sampled_from(["0..2", "all", [0, 1], 1]) | _RANGES
        | st.lists(_HEIGHT, max_size=4) | _JSON,
    }) | _JSON,
    max_size=3,
)})
_OPERAD = st.fixed_dictionaries(
    {"pairs": st.lists(st.lists(_WORDS | _JSON, min_size=2, max_size=2) | _JSON, max_size=4)}
)
_HEIGHTS = st.fixed_dictionaries({"p": _PRIME, "ell": st.lists(_HEIGHT, max_size=5)})
_INLINE_CHARS = "0123456789,()-infoe ."
_INLINE = st.builds(
    "{},({})".format,
    st.sampled_from(["2", "3", "4", " 5", "-2", "1e3", ""]) | st.text(_INLINE_CHARS, max_size=4),
    st.lists(
        st.sampled_from(["0", "1", "10", "11", "inf", "none", "-1", "-2", "", " 3 ", "1e1"])
        | st.text(_INLINE_CHARS, max_size=4),
        max_size=5,
    ).map(",".join),
) | st.text(_INLINE_CHARS, max_size=30)


_INLINE_TOKEN = (
    st.integers(-3, 12).map(lambda n: (n, str(n)))
    | st.integers(0, 12).map(lambda n: (n, f"+{n}"))
    | st.integers(0, 12).map(lambda n: (n, f"0{n}"))
    | st.sampled_from(["none", "inf", "None", "-inf", "1.0", "1e1"]).map(lambda t: (t, t))
    | st.text("abinfoe_. x", max_size=4).map(lambda t: (t.strip(), t))
)


def _parsed(parse, arg):
    try:
        return parse(arg)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-3, 40),
    st.lists(st.tuples(st.sampled_from(["", " ", "  "]), _INLINE_TOKEN,
                       st.sampled_from(["", " "])), min_size=1, max_size=6),
)
def test_inline_heights_read_as_the_height_document(p, tokens):
    # parse_heights_inline is parse_heights on P and the entry tokens, each
    # token read as an int where it reads as one: the same vector or the same
    # error, entries checked before P
    text = f"{p},(" + ",".join(f"{a}{raw}{b}" for a, (_, raw), b in tokens) + ")"
    doc = {"p": p, "ell": [value for _, (value, _), _ in tokens]}
    assert _parsed(iomod.parse_heights_inline, text) == _parsed(iomod.parse_heights, doc)


def _only_input_errors(parse, *args):
    try:
        parse(*args)
    except _INPUT_ERRORS:
        pass


@settings(max_examples=200, deadline=None)
@given(_LOCUS | _JSON)
def test_fuzzed_locus_documents_raise_only_input_errors(doc):
    _only_input_errors(iomod.parse_locus, _S3, doc)


@settings(max_examples=200, deadline=None)
@given(_OPERAD | _JSON)
def test_fuzzed_operad_documents_raise_only_input_errors(doc):
    _only_input_errors(iomod.parse_system, _S3, doc)


@settings(max_examples=200, deadline=None)
@given(_HEIGHTS | _JSON)
def test_fuzzed_height_documents_raise_only_input_errors(doc):
    _only_input_errors(iomod.parse_heights, doc)


@settings(max_examples=200, deadline=None)
@given(_INLINE)
def test_fuzzed_inline_heights_raise_only_input_errors(text):
    _only_input_errors(iomod.parse_heights_inline, text)


# -- the indented writer against json.dumps ----------------------------------------
#
# indented_json's contract is the stdlib form on any JSON value, hostile
# strings and big integers included; the property holds whatever writes it.

_HOSTILE = st.sampled_from(
    ['"', "\\", "\\\\\"", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "  ", "😀", "\ud800",
     "/", "</script>", ",[{", "", " "]
)
_WRITER_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**200), 10**40])
    | st.floats() | st.text() | _HOSTILE
)
_WRITER_TREES = st.recursive(
    _WRITER_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5) | _HOSTILE, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_WRITER_TREES)
def test_indented_writer_equals_json_dumps(doc):
    assert iomod.indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- the indented writer on every document kind ----------------------------------


def test_indented_writer_on_every_document_kind():
    L = lattice("symmetric:3")
    rng = random.Random(5)
    vl = random_valid_locus(L, rng)
    R = nc.complete_system(L)
    docs = [
        iomod.group_doc(L.group),
        iomod.lattice_doc(L),
        iomod.system_doc(R),
        enumeration_doc_by_hand(L, enumeration("symmetric:3")),
        iomod.locus_doc(vl),
        iomod.locus_validation_doc(vl, nc.validate_vanishing_locus(vl)),
        iomod.heights_doc(HeightVector(2, (INFINITY, 1, None))),
        decision_doc_by_hand(nc.localization_preserves(vl, R), L, R, vl),
        iomod.cross_validation_doc(nc.cross_validate_cyclic(1, 2, 1)),
        iomod.heights_enumeration_doc(nc.enumerate_commutative_heights(2, 1), 2, 1, False, 2),
    ]
    for doc in docs:
        assert iomod.indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
