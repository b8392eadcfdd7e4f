"""Conformance: the remaining legacy write_rdf surface (SURVEY §2.1 S6)
vs the reference module — build_import, print_header, print_subheader,
print_general_axioms byte-identical; doi_statements vs the reconstructed
doi_iri semantics (the reference fn itself is dead code — calls an
undefined ``add_if``)."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from mhdb_tables2turtles_ray.functions.compose import doi_statements
from mhdb_tables2turtles_ray.stages.materialize import (
    legacy_build_import,
    legacy_general_axioms,
    legacy_print_header,
    legacy_print_subheader,
)
from tests.conftest import requires_reference


def _load(name, path):
    if "/root/reference" not in sys.path:
        sys.path.insert(0, "/root/reference")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def ref_write_rdf():
    return _load("ref_write_rdf_legacy", "/root/reference/mhdb/write_rdf.py")


@pytest.fixture(scope="module")
def ref_write_ttl():
    return _load("ref_write_ttl_legacy", "/root/reference/mhdb/write_ttl.py")


@requires_reference("mhdb/write_rdf.py")
def test_build_import_conformance(ref_write_rdf):
    for uri in ("http://example.org/onto", "", None, "x y"):
        assert legacy_build_import(uri) == ref_write_rdf.build_import(uri)


@requires_reference("mhdb/write_rdf.py")
def test_print_header_default_prefixes_conformance(ref_write_rdf):
    args = ("http://example.org/kg", "1.2.0", "KG", "A test\ncomment")
    assert legacy_print_header(*args) == ref_write_rdf.print_header(*args)


@requires_reference("mhdb/write_rdf.py")
def test_print_header_explicit_prefixes_conformance(ref_write_rdf):
    args = ("http://example.org/kg", "0.1", "L", "C")
    prefixes = [("foo", "http://foo#"), ("bar", "http://bar/")]
    assert legacy_print_header(*args, prefixes) == ref_write_rdf.print_header(
        *args, prefixes
    )


@requires_reference("mhdb/write_rdf.py")
def test_print_subheader_conformance(ref_write_rdf):
    for ot in ("Classes", "Object Properties", "äöü"):
        assert legacy_print_subheader(ot) == ref_write_rdf.print_subheader(ot)


@requires_reference("mhdb/write_rdf.py")
def test_general_axioms_conformance(ref_write_rdf):
    for classes in ([], ["A"], ["A", "B", "C_1"]):
        assert legacy_general_axioms(classes) == ref_write_rdf.print_general_axioms(
            classes
        )


@requires_reference("mhdb/write_ttl.py")
def test_doi_statements_iri_matches_reference_check_iri(ref_write_ttl):
    """The minted DOI subject must equal what the reference's check_iri
    actually produces for the dx.doi.org URL (URL-destruction quirk)."""
    doi = "10.1109/IEEESTD.2015.7084073"
    stmts = doi_statements(doi, title="Robotics Ontologies")
    (subject,) = stmts.keys()
    assert subject == ref_write_ttl.check_iri(f"https://dx.doi.org/{doi}")
    bucket = stmts[subject]
    assert bucket["datacite:usesIdentifierScheme"] == {"datacite:doi"}
    assert bucket["datacite:hasIdentifier"] == {f'"""{doi}"""^^rdfs:Literal'}
    assert bucket["rdfs:label"] == {'"""Robotics Ontologies"""@en'}


def test_doi_statements_accumulates():
    s = doi_statements("10.1/a")
    s = doi_statements("10.1/b", statements=s)
    assert len(s) == 2
    s2 = doi_statements("10.1/a", statements=s)  # idempotent re-add
    assert s2[next(iter(s2))]["datacite:usesIdentifierScheme"] == {"datacite:doi"}


@requires_reference("mhdb/write_ttl.py", "mhdb/unused_functions.py")
def test_reference_doi_iri_is_dead_code(ref_write_ttl):
    """Documented claim check: the reference doi_iri raises NameError
    (undefined add_if) — our reconstruction is the running surface."""
    ref_unused = _load(
        "ref_unused_fns_legacy", "/root/reference/mhdb/unused_functions.py"
    )
    with pytest.raises(NameError):
        ref_unused.doi_iri("10.1/x")
