"""Lookup-worksheet (languages-sheet) emission vs a reference-semantics
oracle using the reference's own scalar functions."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from tests.conftest import requires_reference

_EXCLUDE = {"EmptyValue", "", "NaN", "NAN", "nan", None}


@pytest.fixture(scope="module")
def ref():
    spec = importlib.util.spec_from_file_location(
        "ref_write_ttl_vocab", "/root/reference/mhdb/write_ttl.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["ref_write_ttl_vocab"] = mod
    spec.loader.exec_module(mod)
    return mod


def _oracle(sheet_df, ref):
    # straight-line port of the reference languages loop
    # (mhdb/ingest.py:1699-1739) incl. the :Language default fallback
    check_iri, language_string = ref.check_iri, ref.language_string
    by_index = dict(zip(sheet_df["index"], sheet_df["language"]))
    triples = set()

    def add(s, p, o):
        if s in _EXCLUDE or p in _EXCLUDE or o in _EXCLUDE:
            return
        triples.add((s, p, o))

    for row in sheet_df.to_dict("records"):
        language = row["language"]
        if language in _EXCLUDE or language is None:
            continue
        iri = check_iri(language, "PascalCase")
        add(iri, "rdfs:label", language_string(language))
        if row["indices_language"] not in _EXCLUDE and row["indices_language"]:
            for idx in [
                int(x) for x in row["indices_language"].strip().split(",") if len(x) > 0
            ]:
                parent = by_index.get(idx)
                if parent not in _EXCLUDE:
                    add(iri, "rdfs:subClassOf", check_iri(parent, "PascalCase"))
        else:
            add(iri, "rdfs:subClassOf", ":Language")
        ec = row["equivalentClasses"]
        if ec not in _EXCLUDE and ec:
            for item in [x.strip() for x in ec.strip().split(",") if len(x) > 0]:
                if item not in _EXCLUDE:
                    add(iri, "rdfs:equivalentClass", item)
    return triples


@requires_reference("mhdb/write_ttl.py")
def test_language_sheet_matches_reference_semantics(ray_session, ref):
    from mhdb_tables2turtles_ray.pipelines.vocab_sheets import (
        fixture_languages_sheet,
        language_sheet_triples,
    )

    ours = {
        (r["subj"], r["pred"], r["obj"])
        for r in language_sheet_triples().take_all()
    }
    expected = _oracle(fixture_languages_sheet().to_pandas(), ref)
    assert ours == expected
    # anchors: multi-parent, default fallback, raw CURIE pass-through
    assert (":English", "rdfs:subClassOf", ":Germanic") in ours
    assert (":English", "rdfs:subClassOf", ":Indo-European") in ours
    assert (":Indo-European", "rdfs:subClassOf", ":Language") in ours
    assert (":Romance", "rdfs:equivalentClass", "wikidata:Q19814") in ours


def test_language_sheet_dangling_parent_quarantined(ray_session):
    import pyarrow as pa

    from mhdb_tables2turtles_ray.pipelines.vocab_sheets import language_sheet_triples

    sheet = pa.table(
        {
            "index": [0, 1],
            "language": ["Root", "Child"],
            "indices_language": [None, "0, 99"],  # 99 dangles
            "equivalentClasses": [None, None],
        }
    )
    got = {
        (r["subj"], r["pred"], r["obj"]) for r in language_sheet_triples(sheet).take_all()
    }
    assert (":Child", "rdfs:subClassOf", ":Root") in got
    # reference would IndexError here; we quarantine + count
    assert (":Child", ":hasDanglingFK", '"indices_language=99"^^xsd:string') in got