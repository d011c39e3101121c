"""CLI output pinned byte for byte.

Each request below runs ``normcert.cli.main`` in process and is compared
with a recorded ``(exit code, sha256 of stdout)``.  The digests were taken
once from the engine before the lattice primitives were consolidated
(conjugation table, restriction by intersection, one cover sweep), so a
refactor that keeps the engine's behaviour keeps every one of them.  Input
documents are written literally here; ``@name`` in an argv names one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from normcert import cli

S4_LOCUS = {
    "schema_version": 1, "kind": "vanishing-locus", "group": "S4",
    "entries": [
        {"subgroup": "C1#0", "prime": 2, "heights": "0..2"},
        {"subgroup": "C2#0", "prime": 2, "heights": "0..1"},
        {"subgroup": "C4#3", "prime": 3, "heights": "0..1"},
        {"subgroup": "C24#0", "prime": "any", "heights": [0]},
    ],
}
S4_OPERAD = {
    "schema_version": 1, "kind": "transfer-system", "group": "S4",
    "pairs": [["C1#0", "C2#4"], ["C3#0", "C12#0"]],
}
D16C2_LOCUS = {
    "schema_version": 1, "kind": "vanishing-locus", "group": "D16xC2",
    "entries": [
        {"subgroup": "C1#0", "prime": 2, "heights": "0..3"},
        {"subgroup": "C2#0", "prime": 2, "heights": "0..1"},
        {"subgroup": "C8#0", "prime": 3, "heights": "all"},
        {"subgroup": "C32#0", "prime": 2, "heights": [0, 1]},
    ],
}
D16C2_OPERAD = {
    "schema_version": 1, "kind": "transfer-system", "group": "D16xC2",
    "pairs": [["C2#0", "C8#0"], ["C1#0", "C4#9"]],
}
DOCUMENTS = {
    "s4-locus.json": S4_LOCUS,
    "s4-operad.json": S4_OPERAD,
    "d16c2-locus.json": D16C2_LOCUS,
    "d16c2-operad.json": D16C2_OPERAD,
}

D64, S4, C2_4 = "dihedral:64", "symmetric:4", "cyclic:2*cyclic:2*cyclic:2*cyclic:2"
D16C2 = "dihedral:16*cyclic:2"
BOTH = ("text", "structured")


def _requests() -> list[tuple[str, ...]]:
    out = []
    for g in (D64, S4, C2_4):
        out += [("lattice", "--group", g, "--format", f) for f in BOTH]
        out.append(("dot", "--group", g))
    for g in ("dihedral:8", "quaternion:8", "symmetric:3"):
        out += [("transfer-enumerate", "--group", g, "--format", f) for f in BOTH]
        out.append(("dot", "--group", g, "--what", "transfer-poset"))
    for g, tag in ((S4, "s4"), (D16C2, "d16c2")):
        for op in ("complete", "trivial", f"@{tag}-operad.json"):
            out += [("decide", "--group", g, "--operad", op, "--locus", f"@{tag}-locus.json",
                     "--strict", "--format", f) for f in BOTH]
        out.append(("spectrum-validate", "--group", g, "--locus", f"@{tag}-locus.json"))
    for ell in ("2,(1,0,0,0)", "3,(2,1,1,0)"):
        out += [("decide", "--operad", "complete", "--ell", ell, "--strict", "--format", f)
                for f in BOTH]
    out.append(("spectrum-validate", "--ell", "2,(3,0,none,none)", "--strict"))
    out.append(("spectrum-validate", "--group", "cyclic:27", "--locus", "ell:3,(1,1,0,0)"))
    for p in ("2", "3"):
        out += [("ell-enumerate", "--n", "3", "--height-bound", "3", "--prime", p,
                 "--include-infinity", "--format", f) for f in BOTH]
    for p, hb in (("2", "2"), ("3", "1")):
        out += [("cross-validate", "--n", "3", "--prime", p, "--height-bound", hb,
                 "--strict", "--format", f) for f in BOTH]
    return out


REQUESTS = _requests()

# " ".join(argv) -> (exit code, sha256 of stdout)
EXPECTED: dict[str, tuple[int, str]] = {
    'lattice --group dihedral:64 --format text': (0, '132350a99542ebea5c99131e3008ebb4f692d7732d2727aab139862ab71413a1'),
    'lattice --group dihedral:64 --format structured': (0, '5190a0c2018bd77912f4fc27baa83e7a159bc11e8619fef32648caf16526c816'),
    'dot --group dihedral:64': (0, '29f7d3002835d5719a5610177a1df2fab648b90657965b1c326bad423efbe0f1'),
    'lattice --group symmetric:4 --format text': (0, '0c84f7220a8a30288207fab9f13bf99e450d62dca44e5c1d24d2c9ac6a7e6094'),
    'lattice --group symmetric:4 --format structured': (0, '9ee414ec4c4bf80dcccd1a92bd94ff38bc78733d9d0ad1e1da410648b06c9fdb'),
    'dot --group symmetric:4': (0, '0d522ed434abea9c3653f0609ac7c9b744149d9f0bef664379c0cc93b7d19569'),
    'lattice --group cyclic:2*cyclic:2*cyclic:2*cyclic:2 --format text': (0, 'e235801f179285633fc734088a58d35c46e9e91c630aaabb631285d3315ace5d'),
    'lattice --group cyclic:2*cyclic:2*cyclic:2*cyclic:2 --format structured': (0, '946f27e096fc0b9381b6f9af3388c1b9ad93d9e7122310631e97a015c217a82b'),
    'dot --group cyclic:2*cyclic:2*cyclic:2*cyclic:2': (0, '7494cab27e0ddd7fa7e8507a1d7ac5a6789532c547a2a8b66c700ba07e0f114e'),
    'transfer-enumerate --group dihedral:8 --format text': (0, '9811243f31b580ebcf3a44c9a5354356ca70d66b298ed2620cb5451ee9fd663c'),
    'transfer-enumerate --group dihedral:8 --format structured': (0, '08cc8bb4fe57a90e58479e93bcf405b04e1ff2ff9ca8bff7937bca6f4e035aa3'),
    'dot --group dihedral:8 --what transfer-poset': (0, '0ea6802a477e980cac2100f3f9085e70046d2ffa72aa79d25bd663ce2463e6ae'),
    'transfer-enumerate --group quaternion:8 --format text': (0, 'e7b2ce8b0be693ea9b43a58555d3b60bc2229295faa6bf6e9290d2263b0011b2'),
    'transfer-enumerate --group quaternion:8 --format structured': (0, '424dd76f7622ad9bf0c38fea7db9013fa05fdc7f7a41ae9b3d266326a849828c'),
    'dot --group quaternion:8 --what transfer-poset': (0, '8c41d2b1630f1fd337586c1492c05ac0ed8c8b38e7dd7a75114e5cfb1da65481'),
    'transfer-enumerate --group symmetric:3 --format text': (0, '91341845bdb0c37ba988ac4629b8fb9dae1d87fa2873e0899d6adb90ebcd19be'),
    'transfer-enumerate --group symmetric:3 --format structured': (0, '985c90916d6d7b404a7f415c13bb9ddaf8d85c2e5556147220a874a4b1448e78'),
    'dot --group symmetric:3 --what transfer-poset': (0, '397e2e6aa0fea06250234a58eac1a61c0be48eba0c65dcfe49eb239d696d056e'),
    'decide --group symmetric:4 --operad complete --locus @s4-locus.json --strict --format text': (1, 'f35b5a6917cbc89fe77a593077f709b9d7b1cd24f4f94c616109ac5c803a1d58'),
    'decide --group symmetric:4 --operad complete --locus @s4-locus.json --strict --format structured': (1, '6e623ae9d32ea00802549d37600c7d9763c5692e7b3e215cb2864a09711c781a'),
    'decide --group symmetric:4 --operad trivial --locus @s4-locus.json --strict --format text': (0, '1777ec9e7f8c157aedaabd415a28db4bef78b26210e62622ff47e7475d82a3e7'),
    'decide --group symmetric:4 --operad trivial --locus @s4-locus.json --strict --format structured': (0, 'd8771570b55549a68b77714ffefa999d9c276b071254fc3210f610f669720557'),
    'decide --group symmetric:4 --operad @s4-operad.json --locus @s4-locus.json --strict --format text': (1, 'fcbe62898df6ac7ff991fafaf65dc8fea685d86c872451e61a37a8e695f28408'),
    'decide --group symmetric:4 --operad @s4-operad.json --locus @s4-locus.json --strict --format structured': (1, '5fa11c84358314f3ba75cd375e864863b871cab13bca643d866e5713f90d27e2'),
    'spectrum-validate --group symmetric:4 --locus @s4-locus.json': (0, '06e582e0763d8fa697cc5c6fb3687de786880fd36cd71b88df319c81453d0321'),
    'decide --group dihedral:16*cyclic:2 --operad complete --locus @d16c2-locus.json --strict --format text': (1, '84ab8f14b547a2c9fb1775ed70201379e5e794d853c62f909709ccbb082cbe5e'),
    'decide --group dihedral:16*cyclic:2 --operad complete --locus @d16c2-locus.json --strict --format structured': (1, '742c482bfc37fe9b6b7424725eaf4905b4169355abb718989ec752540bbef5a3'),
    'decide --group dihedral:16*cyclic:2 --operad trivial --locus @d16c2-locus.json --strict --format text': (0, 'c8240e703ae233428a6041dae16942de75b9a53dd7a690e56cfcd32cee45917b'),
    'decide --group dihedral:16*cyclic:2 --operad trivial --locus @d16c2-locus.json --strict --format structured': (0, 'bb6ac753cc03b01fdb5fe36666e07184e96da51ed9d5c6426934d2347b3e4ea5'),
    'decide --group dihedral:16*cyclic:2 --operad @d16c2-operad.json --locus @d16c2-locus.json --strict --format text': (1, '0823fdca52740fc4df8f69851df1750c2b6c144780a3a59987d5851de4cf7360'),
    'decide --group dihedral:16*cyclic:2 --operad @d16c2-operad.json --locus @d16c2-locus.json --strict --format structured': (1, 'd213be7a8ec076cc0d2e1f8162d25190ec483bab6d1308bb7f7d3b9b48a5d903'),
    'spectrum-validate --group dihedral:16*cyclic:2 --locus @d16c2-locus.json': (0, '365b2102c5cf40ccf4307e1c6204678e717b49f07691d3b860fdbd8570efc108'),
    'decide --operad complete --ell 2,(1,0,0,0) --strict --format text': (0, '1ff81827b116bfc1497c7263d60f41e95bcc7de413cb6baed4bf430430e93b51'),
    'decide --operad complete --ell 2,(1,0,0,0) --strict --format structured': (0, '9ce86b9c64317850946c9b0a44104964ac02502089320aa0841e8194571b369c'),
    'decide --operad complete --ell 3,(2,1,1,0) --strict --format text': (0, '7bceb1226c7cbb5290352054f6aa45232d761c88a17eeea0bf2574b023574144'),
    'decide --operad complete --ell 3,(2,1,1,0) --strict --format structured': (0, 'ace0d45b44da1679b146ee1d2d29e74f6a799c4a6f654091a1cc1d0d995676b9'),
    'spectrum-validate --ell 2,(3,0,none,none) --strict': (1, 'ca78b4d3c3cf52481e7b3fe4e8e08db86883955e308fa77d2f814af71259f417'),
    'spectrum-validate --group cyclic:27 --locus ell:3,(1,1,0,0)': (0, '431423e413bb495e449444ff063dfe9379e462909128338ae1886ea3df754311'),
    'ell-enumerate --n 3 --height-bound 3 --prime 2 --include-infinity --format text': (0, '58f534f8459359580e73352d5ac157e7317da65f2f20152b68a3ea2f109b8a4f'),
    'ell-enumerate --n 3 --height-bound 3 --prime 2 --include-infinity --format structured': (0, 'bfdfab6f85b08e5cd53f67a08d224a9f7964b23e16a0dce07df36f01813c3809'),
    'ell-enumerate --n 3 --height-bound 3 --prime 3 --include-infinity --format text': (0, '72292ac172b1b616488ae5f2c29e5d1d28a32358c44dba82e3146e9c67b991cb'),
    'ell-enumerate --n 3 --height-bound 3 --prime 3 --include-infinity --format structured': (0, 'dd427162646524445cbb06f88dd098f86a57aba7b3a0a4f99465be4b1bed6e8c'),
    'cross-validate --n 3 --prime 2 --height-bound 2 --strict --format text': (0, '339120c9f2300828ab95e2dcf4870ec05c3b27c0f7908203d4495ecb1a6cb3f4'),
    'cross-validate --n 3 --prime 2 --height-bound 2 --strict --format structured': (0, '655f3547e19b432d03e34316baf6616cf9b7ae4f6eff59e3ef782acd461708c1'),
    'cross-validate --n 3 --prime 3 --height-bound 1 --strict --format text': (0, 'cbe3575815d9cf062b6bdf30651ba356554657c1d6bf53c16ad29858e3554710'),
    'cross-validate --n 3 --prime 3 --height-bound 1 --strict --format structured': (0, 'd9df773c3515e52d696af9edd3886bed7a28fe7ddf19bd8bac9b34a2a0450957'),
}


def run(argv, docdir) -> tuple[int, str]:
    """Exit code and stdout digest of one request, ``@name`` read from docdir."""
    args = [f"{docdir}/{a[1:]}" if a.startswith("@") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def write_documents(docdir) -> None:
    for name, doc in DOCUMENTS.items():
        (docdir / name).write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def docdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_documents(path)
    return path


def test_request_list_is_pinned():
    assert sorted(EXPECTED) == sorted(" ".join(a) for a in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_cli_output_is_byte_identical(argv, docdir, monkeypatch):
    for key in ("NORMCERT_MAX_GROUP_ORDER", "NORMCERT_MAX_PAIRS"):
        monkeypatch.delenv(key, raising=False)
    assert run(argv, docdir) == EXPECTED[" ".join(argv)]
