"""Conformance: scheme selection + question generation vs the reference
module (write_rdf.py / unused_functions.py are importable)."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from mhdb_tables2turtles_ray.functions.schemes import (
    gen_questions,
    scheme_for,
    scheme_predicate,
)
from tests.conftest import requires_reference


def _load(name, path):
    # unused_functions imports from the mhdb package — make the read-only
    # checkout importable
    if "/root/reference" not in sys.path:
        sys.path.insert(0, "/root/reference")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def ref_rdf():
    return _load("ref_write_rdf", "/root/reference/mhdb/write_rdf.py")


@pytest.fixture(scope="module")
def ref_unused():
    return _load("ref_unused_fns", "/root/reference/mhdb/unused_functions.py")


SCHEMES = {"mesh": "SKOS", "snomed": "SKOS", "dcterms": "OWL", "schema": "OWL"}
CURIES = [
    "mesh:D001008",
    "snomed:48694002",
    "schema:Thing",
    "dcterms:title",
    ":localThing",
    "http://a.b/c",
    "noprefix",
    "unknownpfx:x",
]


@requires_reference("mhdb/write_rdf.py")
def test_scheme_for_matches(ref_rdf):
    for c in CURIES:
        assert scheme_for(c, SCHEMES) == ref_rdf.owl_or_skos(c, SCHEMES), c


@requires_reference("mhdb/write_rdf.py")
def test_scheme_predicate_matches(ref_rdf):
    for left in ("OWL", "SKOS"):
        for c in CURIES:
            for rel in ("equivalence", "subtype"):
                assert scheme_predicate(left, c, SCHEMES, rel) == ref_rdf.owl_or_skos_prop(
                    left, c, SCHEMES, rel
                ), (left, c, rel)


@requires_reference("mhdb/write_rdf.py")
def test_legacy_header_prefixes_matches(ref_rdf):
    from mhdb_tables2turtles_ray.stages.materialize import (
        write_legacy_header_prefixes,
    )

    prefixes = [
        ("mhdb", "http://w3id.org/mhdb#"),
        ("owl", "http://www.w3.org/2002/07/owl#"),
    ]
    assert write_legacy_header_prefixes(prefixes) == ref_rdf.build_header_prefixes(
        prefixes
    )


@requires_reference("mhdb/unused_functions.py")
def test_gen_questions_matches(ref_unused):
    cases = [
        ("feels anxious", "Do you", "often?", "On a scale of 1-5,"),
        ("feels anxious", "Do you", None, None),
        ("feels anxious", None, "often?", "How much:"),
        ("feels anxious", None, None, None),
        (" padded ", " p ", " s? ", " d "),
    ]
    for nb, p1, s1, dim in cases:
        assert gen_questions(nb, p1, s1, dim) == ref_unused.gen_questions(
            nb, p1=p1, s1=s1, dim_p1=dim
        ), (nb, p1, s1, dim)
