"""Property test: whatever JSON a file-taking flag is given, the command exits
0, 2, 3 or 4, raises nothing, and on failure writes exactly one error line."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formukit.cli import main  # noqa: E402
from formukit.llm import prompt_sha256  # noqa: E402
from formukit.prompts import VERBATIM_KEYS, PromptStrategy, build_prompt  # noqa: E402
from formukit.types import FEATURE_NAMES, FormulationInput  # noqa: E402
from test_cli import _run_dir_flags  # noqa: E402

# Keys the readers look for, so that generated objects get past the first check.
_KNOWN_KEYS = [*FEATURE_NAMES, *(verbatim for verbatim, _ in VERBATIM_KEYS),
               "Input", "input", "Output", "output", "id", "profile", "provenance", "source",
               "records", "columns", "data", "Time (hr)", "Time (min)", "llm", "conditions",
               "seed", "store_path", "output_dir", "dose_mg", "sink_override", "model",
               "max_inflight", "temperature", "prompt_sha256", "response"]
_KEYS = st.sampled_from(_KNOWN_KEYS) | st.text(max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(["experimental", "simulated"]) | st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=6),
    max_leaves=24,
)


def _mutated(objects):
    """``objects``, each either as drawn or with one key set to any JSON value."""
    return st.tuples(objects, st.booleans(), _KEYS, _JSON).map(
        lambda t: {**t[0], t[2]: t[3]} if t[1] else t[0])


# Well-formed inputs, so that the checks past the first are reached too.
_FEATURES = st.fixed_dictionaries({
    "d50_um": st.floats(1, 1000), "aspect_ratio": st.floats(1, 5),
    "roundness": st.floats(0.01, 1), "solubility_mg_ml": st.floats(0.01, 100),
    "diffusivity_m2_s": st.floats(1e-11, 1e-8), "true_density_g_ml": st.floats(0.5, 5),
    "ssa_m2_g": st.floats(0.01, 100), "vol_eq_um": st.floats(0.1, 1000)})
_VERBATIM_FEATURES = _FEATURES.map(
    lambda f: {verbatim: f[name] for verbatim, name in VERBATIM_KEYS})
_POINTS = st.lists(st.tuples(st.floats(0, 24), st.floats(0, 100)).map(list),
                   min_size=1, max_size=6)
_TABLES = st.fixed_dictionaries({
    "columns": st.sampled_from([["Time (hr)", "Drug Released (%)"],
                                ["Drug Released (%)", "Time (min)"]]),
    "data": _POINTS})
# Ids and sources, with the lone surrogates and C0 controls that no record may hold.
_RECORD_TEXT = st.text(st.characters() | st.characters(categories=["Cs"])
                       | st.characters(max_codepoint=0x1F), max_size=4)
_RECORDS = st.lists(_mutated(
    st.builds(lambda rid, source, f, p: {"id": rid, "source": source, **f, "profile": p},
              _RECORD_TEXT, _RECORD_TEXT, _FEATURES, _POINTS)
    | st.builds(lambda f, table: {"Input": f, "Output": table}, _VERBATIM_FEATURES,
                _TABLES | _POINTS)), min_size=1, max_size=3)
# Endpoints the config must refuse, and two it takes; the command opens none of them.
_BASE_URLS = st.sampled_from([
    "file:///dev/null", "ftp://127.0.0.1/v1", "127.0.0.1/v1", "http://127.0.0.1:abc/v1",
    "http://127.0.0.1:99999/v1", "http://127.0.0.1:0/v1", "http:///v1", "http://[::1/v1",
    "http://127.0.0.1/v 1", "http://127.0.0.1/v1\x7f", "http://127.0.0.1/v1\n",
    "http://127.0.0.1:8000/v1", "HTTPS://example.invalid/v1", "http://127.0.0.1/caf\u00e9"]) | st.text(max_size=6)
_CONFIGS = st.fixed_dictionaries({}, optional={
    "conditions": st.fixed_dictionaries({}, optional={
        "dose_mg": st.floats(), "paddle_rpm": st.floats(), "sink_override": _SCALARS}),
    "llm": st.fixed_dictionaries({}, optional={
        "max_inflight": st.integers(-1, 8), "temperature": st.floats(), "model": _SCALARS,
        "base_url": _BASE_URLS}),
    "seed": _SCALARS})
# The digest of the --replay command's prompt, so that a drawn response reaches the parser.
_DIGEST = prompt_sha256(build_prompt(PromptStrategy.ZS, FormulationInput(d50_um=50.0)))
_TRANSCRIPTS = st.lists(st.fixed_dictionaries({
    "prompt_sha256": st.text(max_size=4) | st.just(_DIGEST), "response": _JSON}), max_size=3)
_INPUTS = (_JSON | _mutated(_FEATURES | _VERBATIM_FEATURES) | _RECORDS
           | _RECORDS.map(lambda records: {"records": records}) | _mutated(_TABLES)
           | _mutated(_CONFIGS) | _TRANSCRIPTS)

# Each file-taking flag, the command that reads it and the file names it may get.
_COMMANDS = {
    "--config": (["simulate", "--d50", "50", "--n-bins", "4"], ["c.json"]),
    "--input": (["simulate", "--n-bins", "4"], ["i.json"]),
    "--file": (["store", "ingest", "--store", "{dir}/s.jsonl"], ["r.json", "r.jsonl"]),
    "--dataset": (["bench", "--backend", "mock"], ["d.json", "d.jsonl"]),
    "--target": (["design", "--n-starts", "1", "--n-bins", "4"], ["t.json", "t.csv"]),
    "--examples": (["predict", "--strategy", "fs", "--d50", "50"], ["e.json", "e.jsonl"]),
    "--replay": (["predict", "--strategy", "zs", "--d50", "50", "--backend", "replay"],
                 ["r.jsonl"]),
    "--store": (["store", "list"], ["s.jsonl"]),
}


def _file_text(name, value):
    """``value`` as JSON; a .jsonl file holds a list one element to a line."""
    rows = value if name.endswith(".jsonl") and isinstance(value, list) else [value]
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.mark.parametrize("flag", list(_COMMANDS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(value=_INPUTS, pick=st.integers(0, 1))
def test_any_json_ends_in_an_exit_code(flag, value, pick):
    argv, names = _COMMANDS[flag]
    name = names[pick % len(names)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(_file_text(name, value), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*(a.format(dir=tmp) for a in argv), flag, str(path),
                         *_run_dir_flags(argv, f"{tmp}/out")])
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error: ", "parse error: ", "transport error: ")), lines


@pytest.mark.parametrize("kind", ["directory", "device"])
@pytest.mark.parametrize("flag", list(_COMMANDS))
def test_a_path_that_is_not_a_regular_file_exit_2(flag, kind, tmp_path, capsys):
    # /dev/null reads as empty, so its read ends, unlike an endless device or a FIFO
    path = str(tmp_path) if kind == "directory" else "/dev/null"
    argv, _ = _COMMANDS[flag]
    code = main([*(a.format(dir=tmp_path) for a in argv), flag, path,
                 *_run_dir_flags(argv, f"{tmp_path}/out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: not a regular file\n"
