import time
from pathlib import Path

import numpy as np
import pytest

from formukit.errors import DuplicateTimeError, ParseError, ValidationError
from formukit.prompts import (
    COT_INSTRUCTION,
    PromptStrategy,
    build_prompt,
    extract_section,
    format_number,
    parse_input_block,
    parse_number,
    parse_profile_response,
    render_example_blocks,
    render_input_block,
    render_profile_json,
    validate_profile,
)
from formukit.types import DissolutionProfile

from conftest import EXAMPLE_PROFILES

GOLDENS = Path(__file__).parent / "goldens"

REFERENCE_OUTPUT_JSON = """\
{
  "columns": ["Time (hr)", "Drug Released (%)"],
  "data": [
    [0, 0],
    [0.25, 85],
    [0.5, 87],
    [0.75, 88],
    [1, 89],
    [2, 89],
    [3, 89],
    [4, 88],
    [5, 87],
    [6, 87]
  ]
}"""

REFERENCE_POINTS = EXAMPLE_PROFILES[45.0]


class TestNumberFormat:
    @pytest.mark.parametrize("value,expected", [
        (45.0, "45"), (1.0, "1"), (97.5, "97.5"), (0.45, "0.45"),
        (1.512, "1.512"), (7.5e-10, "7.5x 10^(-10)"), (0, "0"), (1.07, "1.07"),
    ])
    def test_render(self, value, expected):
        assert format_number(value) == expected

    def test_scientific_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = float(rng.uniform(1, 10) * 10.0 ** rng.integers(-12, -3))
            assert parse_number(format_number(v)) == v

    def test_plain_round_trip_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = float(rng.uniform(1e-3, 1e4))
            assert parse_number(format_number(v)) == v


class TestBuildPrompt:
    def test_zs_matches_golden(self, reference_input):
        golden = (GOLDENS / "zs_reference.txt").read_text(encoding="utf-8")
        bundle = build_prompt(PromptStrategy.ZS, reference_input)
        assert bundle.rendered == golden
        assert "Final dissolution ≥85% within 60 min" in bundle.rendered
        assert "no examples provided" in bundle.rendered

    def test_all_section_headers_present(self, reference_input):
        bundle = build_prompt(PromptStrategy.ZS, reference_input)
        for header in ("Role", "Background", "Reqeust", "Input Format",
                       "Outout Format", "Examples", "Constrains"):
            assert f"### {header}: ###" in bundle.rendered

    def test_fs_matches_golden(self, reference_input, example_records):
        golden = (GOLDENS / "fs_reference.txt").read_text(encoding="utf-8")
        bundle = build_prompt(PromptStrategy.FS, reference_input, examples=example_records)
        assert bundle.rendered == golden

    def test_fs_embeds_each_example_block(self, reference_input, example_records):
        bundle = build_prompt(PromptStrategy.FS, reference_input, examples=example_records)
        fragment = (GOLDENS / "example_block_45.txt").read_text(encoding="utf-8")
        # The first block appears verbatim; the others keep their input blocks.
        assert fragment.replace("### Example1: ###\n", "") in bundle.rendered
        for rec in example_records:
            assert render_input_block(rec.features) in bundle.rendered
            assert render_profile_json(rec.profile) in bundle.rendered

    def test_cot_appends_exactly_one_line(self, reference_input, example_records):
        zs = build_prompt(PromptStrategy.ZS, reference_input)
        zs_cot = build_prompt(PromptStrategy.ZS_CoT, reference_input)
        assert zs_cot.rendered == zs.rendered + "\n" + COT_INSTRUCTION
        assert zs_cot.rendered.splitlines() == zs.rendered.splitlines() + [COT_INSTRUCTION]
        fs = build_prompt(PromptStrategy.FS, reference_input, examples=example_records)
        fs_cot = build_prompt(PromptStrategy.FS_CoT, reference_input, examples=example_records)
        assert fs_cot.rendered == fs.rendered + "\n" + COT_INSTRUCTION

    def test_byte_determinism(self, reference_input, example_records):
        a = build_prompt(PromptStrategy.RAG, reference_input, examples=example_records)
        b = build_prompt(PromptStrategy.RAG, reference_input, examples=example_records)
        assert a.rendered == b.rendered

    @pytest.mark.parametrize("strategy", [PromptStrategy.FS, PromptStrategy.RAG])
    def test_extract_section_keeps_example_markers(self, strategy, reference_input,
                                                   example_records):
        bundle = build_prompt(strategy, reference_input, examples=example_records)
        assert extract_section(bundle.rendered, "Examples") == \
            render_example_blocks(example_records)
        assert extract_section(bundle.rendered, "Input Format") == \
            render_input_block(reference_input)

    def test_fs_without_examples_raises(self, reference_input):
        with pytest.raises(ValidationError, match="example record"):
            build_prompt(PromptStrategy.FS, reference_input)
        with pytest.raises(ValidationError, match="example record"):
            build_prompt(PromptStrategy.RAG, reference_input, examples=[])
        with pytest.raises(ValidationError, match="example record"):
            build_prompt(PromptStrategy.FS, reference_input, examples=iter(()))

    def test_examples_from_an_iterator(self, reference_input, example_records):
        # A generator is read once, so it gives the same bytes as a list.
        shown = example_records[1:]
        for strategy in (PromptStrategy.FS, PromptStrategy.RAG):
            assert build_prompt(strategy, reference_input,
                                examples=(r for r in shown)).rendered == \
                build_prompt(strategy, reference_input, examples=shown).rendered

    def test_strategy_enumeration_is_closed(self):
        assert {s.value for s in PromptStrategy} == {"ZS", "ZS_CoT", "FS", "FS_CoT", "RAG"}


class TestParseInputBlock:
    def test_round_trip(self, reference_input):
        parsed = parse_input_block(render_input_block(reference_input))
        assert parsed == reference_input

    def test_missing_field(self, reference_input):
        block = render_input_block(reference_input)
        broken = block.replace('    "Mean Particle Size, D50" : 97.5,\n', "")
        with pytest.raises(ParseError, match="d50_um"):
            parse_input_block(broken)


class TestParseProfileResponse:
    def test_reference_block(self):
        profile = parse_profile_response(REFERENCE_OUTPUT_JSON)
        assert profile.points() == [(float(t), float(v)) for t, v in REFERENCE_POINTS]

    def test_fenced_with_prose(self):
        text = ("Here is the requested dissolution table.\n\n"
                "```json\n" + REFERENCE_OUTPUT_JSON + "\n```\n"
                "Let me know if you need more detail.")
        assert parse_profile_response(text).points() == \
            parse_profile_response(REFERENCE_OUTPUT_JSON).points()

    def test_minutes_converted(self):
        text = ('{"columns": ["Time (min)", "Drug Released (%)"], '
                '"data": [[0, 0], [15, 85], [30, 87]]}')
        profile, report = parse_profile_response(text, full_output=True)
        assert profile.times_hr.tolist() == [0.0, 0.25, 0.5]
        assert report.converted_from_minutes

    def test_clamping_reported(self):
        text = ('{"columns": ["Time (hr)", "Drug Released (%)"], '
                '"data": [[0, -2], [1, 50], [2, 104]]}')
        profile, report = parse_profile_response(text, full_output=True)
        assert profile.released_pct.tolist() == [0.0, 50.0, 100.0]
        assert len(report.clamped_points) == 2

    def test_unsorted_points_sorted(self):
        text = ('{"columns": ["Time (hr)", "Drug Released (%)"], '
                '"data": [[2, 90], [0, 0], [1, 70]]}')
        profile = parse_profile_response(text)
        assert profile.times_hr.tolist() == [0.0, 1.0, 2.0]
        assert profile.released_pct.tolist() == [0.0, 70.0, 90.0]

    def test_empty_data(self):
        with pytest.raises(ParseError, match="empty data array"):
            parse_profile_response('{"columns": ["Time (hr)", "Drug Released (%)"], "data": []}')

    def test_duplicate_times(self):
        with pytest.raises(DuplicateTimeError):
            parse_profile_response(
                '{"columns": ["Time (hr)", "Drug Released (%)"], '
                '"data": [[0, 0], [1, 50], [1, 60]]}')

    def test_no_table(self):
        with pytest.raises(ParseError):
            parse_profile_response("I would estimate complete release within the hour.")
        with pytest.raises(ParseError):
            parse_profile_response('{"other": 1}')

    def test_table_nested_in_non_json_wrapper(self):
        text = ('{\n  Result = {\n    "commentary" : unquoted,\n    "table" :\n'
                '    {\n      "columns": ["Time (hr)", "Drug Released (%)"],\n'
                '      "data": [[0, 0], [0.5, 40], [1, 80]]\n    }\n  }\n}')
        profile = parse_profile_response(text)
        assert profile.points() == [(0.0, 0.0), (0.5, 40.0), (1.0, 80.0)]

    @pytest.mark.parametrize("depth", [1000, 100_000])
    def test_deep_nesting_is_a_parse_error(self, depth):
        with pytest.raises(ParseError):
            parse_profile_response("{" * depth + "}" * depth)

    @pytest.mark.parametrize("text", [
        pytest.param('{"a":' * 20000 + '}' * 20000, id="deep"),
        pytest.param('{"a":[' * 20000 + ']}' * 20000, id="deep-bracketed"),
        pytest.param('{"a":' * 400 + '[' + '1,' * 100_000 + 'x]' + '}' * 400, id="late-failure"),
    ])
    def test_key_opened_nesting_is_linear(self, text):
        # Every level opens like an object, so each one is a decode candidate;
        # decoding them all would cost time quadratic in the depth.
        started = time.perf_counter()
        with pytest.raises(ParseError):
            parse_profile_response(text)
        assert time.perf_counter() - started < 1.0

    def test_table_where_the_enclosing_decode_fails(self):
        # The outer block fails exactly where the table opens.
        assert parse_profile_response('{"table" ' + REFERENCE_OUTPUT_JSON + '}').n_points == 10

    def test_table_found_after_deep_nesting(self):
        text = "{" * 5000 + "}" * 5000 + "\n" + REFERENCE_OUTPUT_JSON
        assert parse_profile_response(text).n_points == 10

    @pytest.mark.parametrize("body", [
        '"columns": 5, "data": [[0, 0]]',
        '"columns": {"time": 1}, "data": [[0, 0], [1, 1]]',
        '"columns": ["t", "r"], "data": [[1' + "0" * 400 + ', 5]]',
        pytest.param('"columns": ["t", "r"], "data": [[0, 0], [1, "nan"]]', id="nan-value"),
        pytest.param('"columns": ["t", "r"], "data": [[0, 0], [Infinity, 5]]',
                     id="infinite-time"),
    ])
    def test_odd_tables_are_parse_errors(self, body):
        with pytest.raises(ParseError):
            parse_profile_response("{" + body + "}")

    def test_render_parse_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            times = np.sort(rng.uniform(0, 6, n))
            times[0] = 0.0
            while np.any(np.diff(times) == 0):
                times = np.sort(rng.uniform(0, 6, n))
                times[0] = 0.0
            values = np.round(rng.uniform(0, 100, n), 6)
            profile = DissolutionProfile(times, values)
            again = parse_profile_response(render_profile_json(profile))
            assert np.array_equal(again.times_hr, profile.times_hr)
            assert np.array_equal(again.released_pct, profile.released_pct)


class TestValidateProfile:
    def test_reference_profile_compliant(self):
        profile = DissolutionProfile(*np.transpose(REFERENCE_POINTS))
        findings = validate_profile(profile)
        assert findings == []

    def test_slow_profile_gets_dissolution_advisory(self):
        slow = DissolutionProfile(*np.transpose(EXAMPLE_PROFILES[200.0]))
        findings = validate_profile(slow)
        assert [f.rule for f in findings] == ["usp-dissolution-rule"]
        assert findings[0].severity == "advisory"

    def test_initial_condition_violation(self):
        profile = DissolutionProfile(np.array([0.0, 1.0]), np.array([10.0, 90.0]))
        rules = [f.rule for f in validate_profile(profile)]
        assert "initial-condition" in rules

    def test_large_drop_flagged(self):
        profile = DissolutionProfile(
            np.array([0.0, 0.5, 1.0, 2.0]), np.array([0.0, 90.0, 80.0, 85.0]))
        findings = validate_profile(profile)
        assert any(f.rule == "non-monotonic" for f in findings)
        # the 89 -> 87 style shallow decline is fine
        gentle = DissolutionProfile(*np.transpose(REFERENCE_POINTS))
        assert all(f.rule != "non-monotonic" for f in validate_profile(gentle))

    def test_findings_name_their_points(self):
        profile = DissolutionProfile([0.25, 0.5, 1.0, 2.0, 3.0], [5.0, 90.0, 80.25, 70.0, 64.0])
        assert [(f.rule, f.severity, f.message) for f in validate_profile(profile)] == [
            ("initial-condition", "error", "first point is (0.25, 5), expected (0, 0)"),
            ("non-monotonic", "advisory", "released drops 9.8 pp between t=0.5 and t=1 hr"),
            ("non-monotonic", "advisory", "released drops 10.2 pp between t=1 and t=2 hr"),
            ("non-monotonic", "advisory", "released drops 6.0 pp between t=2 and t=3 hr")]
