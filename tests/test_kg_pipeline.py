"""End-to-end KG pipeline: triple-set P/R vs the reference-semantics
oracle, parallelism invariance, Turtle materialization + resume."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from tests.conftest import requires_reference
from tests.oracle_ref import oracle_corpus_triples, precision_recall


def _triple_set(ds):
    return {(r["subj"], r["pred"], r["obj"]) for r in ds.take_all()}


@pytest.fixture(scope="module")
def corpus_and_ours(ray_session):
    """Corpus rows and our triple set; needs no reference checkout."""
    from mhdb_tables2turtles_ray.pipelines.kg import kg_triples
    from mhdb_tables2turtles_ray.sources.corpus import corpus_from_documents
    from mhdb_tables2turtles_ray.sources.vocab import build_vocab_bundle

    vocab = build_vocab_bundle()
    corpus = corpus_from_documents("/root/testdata/sf0.001")
    corpus_df = corpus.to_pandas()
    ours = _triple_set(kg_triples(corpus_from_documents("/root/testdata/sf0.001"), vocab))
    return corpus_df, vocab, ours


@pytest.fixture(scope="module")
def corpus_and_oracle(corpus_and_ours):
    """Adds the reference-semantics oracle's triple set (loads the
    reference's write_ttl.py)."""
    corpus_df, vocab, ours = corpus_and_ours
    expected = oracle_corpus_triples(corpus_df, vocab)
    return corpus_df, expected, ours


@requires_reference("mhdb/write_ttl.py")
def test_triple_set_precision_recall(corpus_and_oracle):
    _, expected, ours = corpus_and_oracle
    precision, recall = precision_recall(ours, expected)
    assert precision >= 0.95, f"precision {precision}"
    assert recall >= 0.95, f"recall {recall}"
    # we expect EXACT agreement at this scale; the 0.95 slack is for
    # documented quirk deviations only
    assert precision == 1.0 and recall == 1.0, (
        sorted(ours - expected)[:5],
        sorted(expected - ours)[:5],
    )


@requires_reference("mhdb/write_ttl.py")
def test_flagship_summary_pin_matches_reference_oracle(corpus_and_oracle):
    """The pinned sf0.001 constants in the registry's
    kg_flagship_summary oracle SQL must equal the digest of the
    REFERENCE-SEMANTICS oracle's triple set — anchoring the pin to the
    reference checkout, not to the engine under test (which the
    driver's value-hash gate then compares against the pin)."""
    import re

    from mhdb_tables2turtles_ray.functions.numeric import (
        triple_multiset_digest,
    )
    from mhdb_tables2turtles_ray.pipelines.registry import oracle_sql

    _, expected, _ = corpus_and_oracle
    s, p, o = zip(*sorted(expected))
    digest = format(triple_multiset_digest(list(s), list(p), list(o)), "016x")

    sql = oracle_sql()["kg_flagship_summary"]
    pin_n = re.search(r"WHEN 1000 THEN CAST\((\d+) AS BIGINT\)", sql).group(1)
    pin_h = re.search(r"WHEN 1000 THEN '([0-9a-f]{16})'", sql).group(1)
    assert int(pin_n) == len(expected)
    assert pin_h == digest


def test_sha256_invariant(corpus_and_ours):
    # every corpus row's content sha256 appears as a triple object
    import hashlib

    corpus_df, _, ours = corpus_and_ours
    shas = {
        f'"{hashlib.sha256(c.encode()).hexdigest()}"^^xsd:string'
        for c in corpus_df["content"]
    }
    emitted = {o for (_, p, o) in ours if p == ":hasContentSha256"}
    assert shas == emitted


def test_parallelism_invariance(ray_session):
    """Identical triple set regardless of block structure (SURVEY §5)."""
    from mhdb_tables2turtles_ray.pipelines.kg import kg_triples
    from mhdb_tables2turtles_ray.sources.corpus import corpus_from_documents

    base = _triple_set(kg_triples(corpus_from_documents("/root/testdata/sf0.001")))
    many_blocks = _triple_set(
        kg_triples(
            corpus_from_documents(
                "/root/testdata/sf0.001", override_num_blocks=13
            ),
            dedup_buckets=7,
        )
    )
    assert base == many_blocks


def test_dedup_idempotent(ray_session):
    import ray.data

    from mhdb_tables2turtles_ray.stages.dedup import dedup_triples

    rows = [{"subj": ":a", "pred": ":p", "obj": ":x"}] * 500 + [
        {"subj": ":b", "pred": ":p", "obj": ":y"},
        {"subj": ":a", "pred": ":p", "obj": ":z"},
    ]
    ds = ray.data.from_items(rows).repartition(8)
    out = _triple_set(dedup_triples(ds, num_buckets=4))
    assert out == {(":a", ":p", ":x"), (":b", ":p", ":y"), (":a", ":p", ":z")}
    # run the dedup over its own output: same set
    again = _triple_set(
        dedup_triples(ray.data.from_items([dict(zip(("subj", "pred", "obj"), t)) for t in out]))
    )
    assert again == out


def test_materialize_and_resume(ray_session, tmp_path):
    """Shards + manifests + header; resume skips completed partitions and
    reproduces the identical merged triple set."""
    from mhdb_tables2turtles_ray.pipelines.kg import kg_build
    from mhdb_tables2turtles_ray.sources.corpus import corpus_from_documents

    out_dir = str(tmp_path / "ttl")
    summary = kg_build(
        corpus_from_documents("/root/testdata/sf0.001"), out_dir, num_partitions=8
    )
    assert summary["skipped"] == []
    assert set(summary["written"]) <= set(range(8))
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".ttl"))
    assert "header.ttl" in files

    def merged_triples():
        triples = set()
        for f in files:
            if f == "header.ttl":
                continue
            text = open(os.path.join(out_dir, f)).read()
            for block in text.split("\n\n"):
                if not block.strip():
                    continue
                assert block.endswith(" .")
                subj, rest = block[:-2].split(" ", 1)
                for pair in rest.split(" ;\n\t"):
                    p, o = pair.split(" ", 1)
                    triples.add((subj, p, o))
        return triples

    first = merged_triples()
    assert len(first) == summary["n_triples"]
    # round-trip: the serialized shards parse back to EXACTLY the
    # pipeline's deduplicated triple set
    from mhdb_tables2turtles_ray.pipelines.kg import kg_triples

    assert first == _triple_set(
        kg_triples(corpus_from_documents("/root/testdata/sf0.001"))
    )

    # kill-and-resume: invalidate two partitions, rerun
    for pid in summary["written"][:2]:
        os.remove(os.path.join(out_dir, f"part-{pid:05d}.ttl"))
    resumed = kg_build(
        corpus_from_documents("/root/testdata/sf0.001"), out_dir, num_partitions=8
    )
    assert sorted(resumed["written"]) == sorted(summary["written"][:2])
    assert set(resumed["skipped"]) == set(summary["written"][2:])
    assert merged_triples() == first

    # header carries the fixed preamble + used prefixes
    header = open(os.path.join(out_dir, "header.ttl")).read()
    assert header.startswith("PREFIX owl: <http://www.w3.org/2002/07/owl#> \n")
    assert "PREFIX iso639-1:" in header
    assert "unusedpfx" not in header

    # manifests validate
    mdir = os.path.join(out_dir, "_manifests")
    for f in os.listdir(mdir):
        meta = json.load(open(os.path.join(mdir, f)))
        assert meta["n_triples"] > 0 and meta["sha256"]


def test_multi_module_build(ray_session, tmp_path):
    """Per-module outputs with independent resume (reference driver loop
    semantics, mhdb/create_mhdb:175-218)."""
    from mhdb_tables2turtles_ray.pipelines.kg import corpus_specs, kg_build_modules
    from mhdb_tables2turtles_ray.sources.corpus import corpus_from_documents
    from mhdb_tables2turtles_ray.stages.emit import EmissionSpec

    corpus = corpus_from_documents("/root/testdata/sf0.001")
    repos_only = EmissionSpec(
        name="repository",
        subject_template="{repo}",
        subject_casing="delimited",
        rdf_type=":Repository",
        label_template="{repo}",
    )
    out_root = str(tmp_path / "modules")
    summaries = kg_build_modules(
        corpus,
        out_root,
        {"files": corpus_specs(), "repos": (repos_only,)},
        num_partitions=4,
    )
    assert set(summaries) == {"files", "repos"}
    assert summaries["files"]["n_triples"] > summaries["repos"]["n_triples"] > 0
    assert os.path.exists(os.path.join(out_root, "repos", "header.ttl"))
    # modules resume independently
    again = kg_build_modules(
        corpus_from_documents("/root/testdata/sf0.001"),
        out_root,
        {"repos": (repos_only,)},
        num_partitions=4,
    )
    assert again["repos"]["written"] == []


@requires_reference("mhdb/write_ttl.py")
def test_turtle_render_matches_reference_format(ray_session):
    """Our renderer's block format == reference turtle_from_dict."""
    import importlib.util
    import sys

    import pyarrow as pa

    from mhdb_tables2turtles_ray.stages.materialize import render_turtle_blocks

    spec = importlib.util.spec_from_file_location(
        "ref_ttl_fmt", "/root/reference/mhdb/write_ttl.py"
    )
    ref = importlib.util.module_from_spec(spec)
    sys.modules["ref_ttl_fmt"] = ref
    spec.loader.exec_module(ref)

    t = pa.table(
        {
            "subj": ["duck", "duck", "goose"],
            "pred": ["continues", "begins", "begins"],
            "obj": ["sitting", "flapping", "chasing"],
        }
    )
    ours = render_turtle_blocks(t)
    expected = ref.turtle_from_dict(
        {
            "duck": {"begins": {"flapping"}, "continues": {"sitting"}},
            "goose": {"begins": {"chasing"}},
        }
    )
    assert ours == expected


def test_flagship_oracle_unpinned_scale_is_loud():
    """At a scale whose count(events) has no pin, the flagship oracle
    must yield the explicit (-1, 'UNPINNED_SCALE:<n>') sentinel — a
    diagnosable gate failure, not a NULL-vs-NULL comparison."""
    import duckdb

    from mhdb_tables2turtles_ray.pipelines.registry import oracle_sql

    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM range(777) t(i)")
    n, h = con.execute(oracle_sql()["kg_flagship_summary"]).fetchone()
    assert n == -1
    assert h == "UNPINNED_SCALE:777"
