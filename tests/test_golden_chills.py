"""Golden-artifact gate (VERDICT r4 item 1, the north-star metric
measured against ground truth).

Three layers, all anchored on the COMMITTED reference artifact
``/root/reference/output/chills.ttl`` (parsed by ``golden_ttl.py``):

1. fixture validity — replaying the reference's OWN ``ingest_chills``
   (loaded live from the read-only checkout) over the
   reverse-engineered workbook reproduces the golden statement set
   EXACTLY (1758/1758, zero diff);
2. engine parity — our Ray chills module over the same workbook,
   through the real .xlsx → stdlib OOXML reader path, matches the
   golden set exactly (P = R = 1.0; the north rule demands ≥ 0.95);
3. end-to-end build — CLI ``build --workbook`` writes Turtle shards +
   header whose PARSED union equals the full golden file including
   the ontology-header block (i.e. header bytes are equivalent too).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from tests.conftest import requires_reference
from tests.golden_chills import EMPTY, build_fixture, golden_statements
from tests.golden_ttl import load_golden, parse_triples
from tests.xlsx_write import write_xlsx

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def fixture_sheets():
    return build_fixture()


@pytest.fixture(scope="module")
def workbook_path(fixture_sheets, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("chills") / "chills_fixture.xlsx")
    # EmptyValue sentinel → true blanks: the original workbook holds
    # empty cells; ingest applies fillna('EmptyValue') itself
    clean = {
        name: df.replace({EMPTY: None}) for name, df in fixture_sheets.items()
    }
    write_xlsx(clean, path)
    return path


def _load_reference_ingest():
    """Load the reference's ingest module from the read-only checkout
    (np.int monkeypatch: the module predates numpy 1.24's removal)."""
    import numpy as np

    if not hasattr(np, "int"):
        np.int = int
    if "/root/reference" not in sys.path:
        sys.path.insert(0, "/root/reference")
    import mhdb.ingest as ing

    return ing


class _FakeXls:
    """Duck-typed pd.ExcelFile: ingest_chills only calls .parse()."""

    def __init__(self, sheets):
        self.sheets = sheets

    def parse(self, name):
        return self.sheets[name]


@requires_reference("output/chills.ttl", "mhdb/ingest.py")
def test_fixture_replays_reference_exactly(fixture_sheets):
    ing = _load_reference_ingest()
    stmts = ing.ingest_chills(_FakeXls(fixture_sheets), statements={})
    replay = {
        (s, p, o)
        for s, preds in stmts.items()
        for p, objs in preds.items()
        for o in objs
    }
    golden = golden_statements()
    assert replay == golden
    assert len(golden) == 1758


@requires_reference("output/chills.ttl")
def test_engine_matches_golden_exactly(ray_session, workbook_path):
    from mhdb_tables2turtles_ray.pipelines.chills import chills_triples
    from mhdb_tables2turtles_ray.sources.excel import read_excel_workbook

    tables = read_excel_workbook(workbook_path)
    rows = chills_triples(tables).take_all()
    ours = {(r["subj"], r["pred"], r["obj"]) for r in rows}
    golden = golden_statements()
    inter = len(ours & golden)
    precision = inter / len(ours)
    recall = inter / len(golden)
    # north rule: P/R >= 0.95 vs the reference emitter — we hold exact
    assert precision == 1.0, sorted(ours - golden)[:10]
    assert recall == 1.0, sorted(golden - ours)[:10]


@requires_reference("output/chills.ttl")
def test_cli_workbook_build_parses_back_to_golden(workbook_path, tmp_path):
    out_dir = str(tmp_path / "chills_kg")
    proc = subprocess.run(
        [
            sys.executable, "-m", "mhdb_tables2turtles_ray", "build",
            "--workbook", workbook_path,
            "--out", out_dir,
            "--partitions", "4",
            "--validate",
            "--num-cpus", "4",
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["validation"]["triples"] == summary["n_triples"]

    # parse header + all shards with the same parser as the golden file
    text = open(os.path.join(out_dir, "header.ttl")).read()
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".ttl") and fname != "header.ttl":
            text += "\n\n" + open(os.path.join(out_dir, fname)).read()
    ours = parse_triples(text)
    golden = load_golden()  # FULL file, ontology-header block included
    assert ours == golden

    # header bytes are the reference's exact dialect: the golden file
    # must START with our header text
    golden_text = open("/root/reference/output/chills.ttl").read()
    header = open(os.path.join(out_dir, "header.ttl")).read()
    assert golden_text.startswith(header)


@requires_reference("output/chills.ttl")
def test_generic_workbook_config_reproduces_golden(workbook_path, tmp_path):
    """The GENERIC workbook surface (build --workbook X --specs cfg.json,
    pipelines/workbook.py) expresses the whole chills module as pure
    config — specs rows + sheet bindings + lookup defs + header — and
    its output must parse back to the full golden file exactly, same as
    the coded module. Closes the loop: a user can run a NEW workbook
    with zero engine code."""
    from mhdb_tables2turtles_ray.pipelines import chills as C
    from mhdb_tables2turtles_ray.stages.spec_config import specs_to_rows

    specs_by_sheet = C.chills_specs()
    all_specs, sheets = [], {}
    for sheet, specs in specs_by_sheet.items():
        for s in specs:
            all_specs.append(s)
            sheets[s.name] = sheet
    cfg = {
        "specs": specs_to_rows(all_specs),
        "sheets": sheets,
        "lookups": [
            {
                "name": name,
                "sheet": sheet,
                "key": "index",
                "value": col,
                **({"truncate": trunc} if trunc else {}),
            }
            for name, sheet, col, trunc in C._LOOKUPS
        ],
        "header": {
            "base_uri": C.CHILLS_BASE_URI,
            "version": C.CHILLS_VERSION,
            "label": C.CHILLS_LABEL,
            "comment": C.CHILLS_COMMENT,
            "prefixes": C.CHILLS_PREFIXES,
        },
    }
    cfg_path = str(tmp_path / "chills_cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)

    out_dir = str(tmp_path / "generic_kg")
    proc = subprocess.run(
        [
            sys.executable, "-m", "mhdb_tables2turtles_ray", "build",
            "--workbook", workbook_path,
            "--specs", cfg_path,
            "--out", out_dir,
            "--partitions", "4",
            "--num-cpus", "4",
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

    text = open(os.path.join(out_dir, "header.ttl")).read()
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".ttl") and fname != "header.ttl":
            text += "\n\n" + open(os.path.join(out_dir, fname)).read()
    assert parse_triples(text) == load_golden()
