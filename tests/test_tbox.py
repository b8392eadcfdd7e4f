"""TBox emitters vs a straight-line reference-semantics oracle built on
the reference's own scalar functions (mhdb/ingest.py:3084-3148 loop
semantics, minus the missing-label EmptyValue quirk documented in
pipelines/tbox.py)."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from tests.conftest import requires_reference

_EXCLUDE = {"EmptyValue", "", "NaN", "NAN", "nan", None}


@pytest.fixture(scope="module")
def ref():
    spec = importlib.util.spec_from_file_location(
        "ref_write_ttl_tbox", "/root/reference/mhdb/write_ttl.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["ref_write_ttl_tbox"] = mod
    spec.loader.exec_module(mod)
    return mod


def _oracle_tbox(classes_df, properties_df, ref):
    check_iri, language_string = ref.check_iri, ref.language_string
    triples = set()

    def add(s, p, o):
        if s in _EXCLUDE or p in _EXCLUDE or o in _EXCLUDE:
            return
        triples.add((s, p, o))

    for row in classes_df.to_dict("records"):
        s = check_iri(row["ClassName"])
        add(s, "a", "rdf:Class")
        if row["label"] not in _EXCLUDE:
            add(s, "rdfs:label", language_string(row["label"]))
        if row["definition"] not in _EXCLUDE:
            add(s, "rdfs:comment", language_string(row["definition"]))
        if row["sameAs"] not in _EXCLUDE:
            add(s, "owl:sameAs", row["sameAs"])
        if row["equivalentClasses"] not in _EXCLUDE:
            for ec in [
                x.strip()
                for x in row["equivalentClasses"].strip().split(",")
                if len(x) > 0
            ]:
                if ec not in _EXCLUDE:
                    add(s, "rdfs:equivalentClass", ec)
        if row["subClassOf"] not in _EXCLUDE:
            add(s, "rdfs:subClassOf", check_iri(row["subClassOf"]))

    for row in properties_df.to_dict("records"):
        s = check_iri(row["property"])
        add(s, "a", "rdf:Property")
        if row["label"] not in _EXCLUDE:
            add(s, "rdfs:label", language_string(row["label"]))
        if row["propertyDomain"] not in _EXCLUDE:
            add(s, "rdfs:domain", check_iri(row["propertyDomain"]))
        if row["propertyRange"] not in _EXCLUDE:
            add(s, "rdfs:range", check_iri(row["propertyRange"]))
        if row["definition"] not in _EXCLUDE:
            add(s, "rdfs:comment", language_string(row["definition"]))
        if row["sameAs"] not in _EXCLUDE:
            add(s, "owl:sameAs", row["sameAs"])
        if row["equivalentProperty"] not in _EXCLUDE:
            add(s, "rdfs:equivalentProperty", row["equivalentProperty"])
        if row["subPropertyOf"] not in _EXCLUDE:
            add(s, "rdfs:subPropertyOf", check_iri(row["subPropertyOf"]))

    return triples


@requires_reference("mhdb/write_ttl.py")
def test_tbox_matches_reference_semantics(ray_session, ref):
    from mhdb_tables2turtles_ray.pipelines.tbox import (
        fixture_classes_table,
        fixture_properties_table,
        tbox_triples_from_tables,
    )

    ours = {
        (r["subj"], r["pred"], r["obj"])
        for r in tbox_triples_from_tables().take_all()
    }
    expected = _oracle_tbox(
        fixture_classes_table().to_pandas(),
        fixture_properties_table().to_pandas(),
        ref,
    )
    assert ours == expected
    # spot anchors
    assert (":Source_File", "a", "rdf:Class") in ours
    assert (":Source_File", "rdfs:equivalentClass", "schema:File") in ours
    assert (":has_language", "rdfs:domain", ":SourceFile") in ours
    assert (":at_commit", "owl:sameAs", None) not in ours
