"""Shared pytest fixtures. Ray is initialised ONCE per session."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

SF_SMALL = "/root/testdata/sf0.001"
SF_MED = "/root/testdata/sf0.01"

# Read-only checkout of the reference implementation; it may be absent.
REFERENCE_ROOT = "/root/reference"


def requires_reference(*relpaths):
    """Skip the test unless every ``relpath`` exists under the reference
    checkout; also tags it so the terminal summary can count the gates."""
    paths = [os.path.join(REFERENCE_ROOT, p) for p in relpaths]
    missing = [p for p in paths if not os.path.exists(p)]
    skip = pytest.mark.skipif(
        bool(missing), reason="reference file missing: " + ", ".join(missing)
    )
    tag = pytest.mark.requires_reference(*relpaths)
    return lambda fn: tag(skip(fn))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_reference(*relpaths): needs these files of the reference checkout",
    )


def pytest_terminal_summary(terminalreporter):
    """One line: how many reference gates ran and how many were skipped."""
    ran, skipped = set(), set()
    for category, reports in terminalreporter.stats.items():
        for rep in reports:
            if "requires_reference" not in getattr(rep, "keywords", {}):
                continue
            if category == "skipped":
                skipped.add(rep.nodeid)
            elif category in ("passed", "failed", "error"):
                ran.add(rep.nodeid)
    if ran or skipped:
        terminalreporter.write_line(
            f"reference gates ({REFERENCE_ROOT}): {len(ran)} ran, "
            f"{len(skipped)} skipped"
        )


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_small(ray_session):
    return SF_SMALL


@pytest.fixture(scope="session")
def sf_med(ray_session):
    return SF_MED
