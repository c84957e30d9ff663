"""Property tests: the response parser fails only with ParseError and
returns only finite profiles."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formukit.errors import ParseError  # noqa: E402
from formukit.prompts import parse_profile_response  # noqa: E402

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_TABLES = st.fixed_dictionaries({"columns": _JSON_VALUES, "data": _JSON_VALUES}).map(json.dumps)
_TEXTS = (
    st.tuples(st.text(max_size=20), _TABLES, st.text(max_size=20)).map("".join)
    | st.text(alphabet='{}[]":,.-0123456789 eEtimTdaclusn\\\n', max_size=300)
    | st.text(max_size=300)
)


@settings(max_examples=200, deadline=None)
@given(_TEXTS)
def test_any_text_parses_or_raises_parse_error(text):
    try:
        profile = parse_profile_response(text)
    except ParseError:
        return
    assert np.all(np.isfinite(profile.times_hr))
    assert np.all(np.isfinite(profile.released_pct))
