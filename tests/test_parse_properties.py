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


def _decodable_blocks(text):
    """Reference for the scanner: decode every balanced {...} block outside
    the objects already found, outermost first."""
    pairs, open_at, in_string, escape = [], [], False, False
    for i, ch in enumerate(text):
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            open_at.append(i)
        elif ch == "}" and open_at:
            pairs.append((open_at.pop(), i))
    found, covered = [], -1
    for start, stop in sorted(pairs):
        if start < covered:
            continue
        try:
            obj = json.loads(text[start:stop + 1])
        except (ValueError, RecursionError):
            continue
        found.append(obj)
        covered = stop
    return found


_FRAGMENTS = st.lists(st.sampled_from(
    ['{', '}', '[', ']', '"a":', '"b"', '1', ',', ' ', 'x', '"', '\\', '{}',
     '{"columns": [], "data": [[0, 0]]}']), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(_TEXTS | _FRAGMENTS)
def test_scanner_finds_every_decodable_block(text):
    from formukit.prompts import _candidate_json_objects

    assert list(_candidate_json_objects(text)) == _decodable_blocks(text)


@pytest.mark.parametrize("depth", [600, 990, 1000, 1100])
@pytest.mark.parametrize("opener", ['{"a":', '{"a":['])
def test_scanner_matches_reference_near_the_recursion_limit(depth, opener):
    # Blocks nested deeper than the recursion limit are skipped without a
    # decode; the blocks found must still be those the decoder accepts.
    from formukit.prompts import _candidate_json_objects

    closer = "]}" if opener.endswith("[") else "}"
    text = opener * depth + "1" + closer * depth
    assert list(_candidate_json_objects(text)) == _decodable_blocks(text)
