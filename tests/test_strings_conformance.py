"""Conformance: our scalar string primitives vs the reference emitter.

Loads the read-only reference module (``/root/reference/mhdb/write_ttl.py``)
and checks bit-exact agreement on a corpus of adversarial strings covering
every branch: casings, URL mangling, CURIE pass-through, trailing-colon
recursion, quote/newline escaping, digit-led tokens, unicode.
"""

from __future__ import annotations

import importlib.util
import sys

import pytest

from mhdb_tables2turtles_ray.functions import strings as ours
from tests.conftest import requires_reference


@pytest.fixture(scope="module")
def ref():
    spec = importlib.util.spec_from_file_location(
        "ref_write_ttl", "/root/reference/mhdb/write_ttl.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["ref_write_ttl"] = mod
    spec.loader.exec_module(mod)
    return mod


CORPUS = [
    "Canada goose",
    "WRITE this in pascalcase",
    "WRITE this-in delimited",
    "8waJ7W3QcJc",
    "  leading and trailing  ",
    'has "double quotes" inside',
    "multi\nline\nvalue",
    "tabs\tand\tmore",
    "ICD9CM:295.4",
    "ICD10:F20.81",
    "mhdb:Thing",
    "trailing:colon:",
    "http://example.org/path/to#frag",
    "https://w3id.org/mhdb/resource-1",
    "<http://already.wrapped/iri>",
    "scheme:with space: inside",
    "semi;colon & symbols!@#",
    "under_scores  double  spaces",
    "hyphen - separated - words",
    "a_-_b", "a--b", "a__b",
    "Émile Zola's café",
    "日本語 テスト",
    "123 456 789",
    "x" * 80,
    "mixed:URL http://x.y/z",
    "UPPER lower MiXeD",
    "dots.in.name",
    "trailing space in label ",
    "-_-",
    "None",
    "nan",
    42,
    3.14,
    "word",
]

CASINGS = ["PascalCase", "camelCase", "delimited"]


@requires_reference("mhdb/write_ttl.py")
def test_clean_string_matches(ref):
    for s in CORPUS:
        assert ours.clean_string(s) == ref.return_string(s), repr(s)
        assert ours.clean_string(s, ('"',), ("'",)) == ref.return_string(
            s, ['"'], ["'"]
        ), repr(s)


@requires_reference("mhdb/write_ttl.py")
def test_language_string_matches(ref):
    for s in CORPUS:
        assert ours.language_string(s) == ref.language_string(s), repr(s)
    assert ours.language_string("bonjour", "fr") == ref.language_string("bonjour", "fr")


@requires_reference("mhdb/write_ttl.py")
def test_convert_string_to_label_matches(ref):
    for s in CORPUS:
        if not isinstance(s, str):
            continue
        for casing in CASINGS:
            assert ours.convert_string_to_label(s, casing) == ref.convert_string_to_label(
                s, casing
            ), (repr(s), casing)


@requires_reference("mhdb/write_ttl.py")
def test_convert_label_raises_on_empty(ref):
    with pytest.raises(Exception):
        ref.convert_string_to_label("")
    with pytest.raises(Exception):
        ours.convert_string_to_label("")


@requires_reference("mhdb/write_ttl.py")
def test_check_iri_matches(ref):
    for s in CORPUS:
        for casing in CASINGS:
            assert ours.check_iri(s, casing) == ref.check_iri(s, casing), (
                repr(s),
                casing,
            )


@requires_reference("mhdb/write_ttl.py")
def test_create_label_matches(ref):
    # Reference create_label (write_ttl.py:104-137) imports return_string /
    # convert_string_to_label from mhdb.spreadsheet_io, which does not export
    # them — the reference function is dead (always ImportError). We keep the
    # documented semantics: clean display string + delimited label.
    for s in CORPUS:
        if not isinstance(s, str) or not s:
            continue
        try:
            expected = ref.create_label(s)
        except ImportError:
            display, label = ours.create_label(s)
            assert display == ref.return_string(s, ['"'], [""]).replace("\n", "")
            if display:
                assert label == ref.convert_string_to_label(display)
            continue
        assert ours.create_label(s) == expected, repr(s)


def test_known_golden_values():
    # Anchors observed in the reference golden output / doctests.
    assert ours.language_string("Canada goose") == '"""Canada goose"""@en'
    # exact value also checked against the loaded reference module in
    # test_convert_string_to_label_matches
    assert ours.convert_string_to_label("8waJ7W3QcJc", "PascalCase") == "8Waj7W3Qcjc"
    assert ours.check_iri("ICD9CM:295.4") == "ICD9CM:295.4"
    assert ours.check_iri("goose") == ":goose"
    assert ours.check_iri("a goose", "PascalCase") == ":AGoose"


def test_typed_literals():
    assert ours.anyuri_literal("http://x.y/z") == '"http://x.y/z"^^xsd:anyURI'
    assert ours.gyear_literal("2019") == '"2019"^^xsd:gyear'
    assert ours.int_literal(7) == '"7"^^xsd:int'
    assert ours.nonneg_literal("12") == '"12"^^xsd:nonNegativeInteger'
