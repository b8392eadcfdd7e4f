"""Property-based conformance fuzzing: our scalar string primitives must
agree with the reference module on arbitrary text, including unicode,
whitespace varieties, and CURIE-looking shapes."""

from __future__ import annotations

import importlib.util
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdb_tables2turtles_ray.functions import strings as ours
from tests.conftest import requires_reference


@pytest.fixture(scope="module")
def ref():
    spec = importlib.util.spec_from_file_location(
        "ref_write_ttl_fuzz", "/root/reference/mhdb/write_ttl.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["ref_write_ttl_fuzz"] = mod
    spec.loader.exec_module(mod)
    return mod


# free unicode text + targeted alphabets that hit the branchy paths
TEXT = st.one_of(
    st.text(max_size=60),
    st.text(alphabet=" :/<>\"'\n\t-_.0aA騎é", max_size=30),
    st.from_regex(r"[a-z]+://[a-z0-9./#-]{0,20}", fullmatch=True),
    st.from_regex(r"[A-Za-z0-9]{1,8}:[A-Za-z0-9.]{0,8}:?", fullmatch=True),
)


@requires_reference("mhdb/write_ttl.py")
@settings(max_examples=400, deadline=None)
@given(TEXT)
def test_clean_and_language_string_fuzz(ref_mod_holder, s):
    ref = ref_mod_holder
    assert ours.clean_string(s) == ref.return_string(s)
    assert ours.language_string(s) == ref.language_string(s)


@requires_reference("mhdb/write_ttl.py")
@settings(max_examples=400, deadline=None)
@given(TEXT, st.sampled_from(["PascalCase", "camelCase", "delimited"]))
def test_check_iri_fuzz(ref_mod_holder, s, casing):
    ref = ref_mod_holder
    try:
        expected = ref.check_iri(s, casing)
        raised = None
    except Exception as e:  # empty-label branch raises in the reference
        expected, raised = None, type(e)
    if raised is not None:
        with pytest.raises(Exception):
            ours.check_iri(s, casing)
    else:
        assert ours.check_iri(s, casing) == expected, repr(s)


@requires_reference("mhdb/write_ttl.py")
@settings(max_examples=400, deadline=None)
@given(TEXT, st.sampled_from(["PascalCase", "camelCase", "delimited"]))
def test_convert_label_fuzz(ref_mod_holder, s, casing):
    ref = ref_mod_holder
    try:
        expected = ref.convert_string_to_label(s, casing)
        raised = None
    except Exception as e:
        expected, raised = None, type(e)
    if raised is not None:
        with pytest.raises(Exception):
            ours.convert_string_to_label(s, casing)
    else:
        assert ours.convert_string_to_label(s, casing) == expected, repr(s)


@pytest.fixture(scope="module")
def ref_mod_holder(ref):
    return ref
