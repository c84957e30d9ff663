"""Deterministic prompt construction and response parsing.

Five strategies are supported: zero-shot (ZS), zero-shot chain-of-thought
(ZS_CoT), few-shot (FS), few-shot chain-of-thought (FS_CoT) and
retrieval-augmented (RAG). All render the same seven-section structured
prompt (Role, Background, Request, Input Format, Output Format, Examples,
Constraints); few-shot/RAG fill the Examples section with worked
input/output blocks, and CoT variants append exactly one step-by-step
instruction line. Rendering is byte-deterministic: identical inputs give
identical text.

Section header spellings and the constraint block reproduce the structured
template this toolkit standardizes on, verbatim.
"""

from __future__ import annotations

import enum
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .types import DEFAULT_OUTPUT_GRID_HR, FEATURE_NAMES, DissolutionProfile, FormulationInput


class PromptStrategy(enum.Enum):
    ZS = "ZS"
    ZS_CoT = "ZS_CoT"
    FS = "FS"
    FS_CoT = "FS_CoT"
    RAG = "RAG"

    @property
    def is_cot(self) -> bool:
        return self in (PromptStrategy.ZS_CoT, PromptStrategy.FS_CoT)

    @property
    def needs_examples(self) -> bool:
        return self in (PromptStrategy.FS, PromptStrategy.FS_CoT, PromptStrategy.RAG)


#: CLI-facing spellings: each value in lower case, with "-" or "_".
STRATEGY_ALIASES = {alias: s for s in PromptStrategy
                    for alias in (s.value.lower().replace("_", "-"), s.value.lower())}

COT_INSTRUCTION = "Do the step-by-step analysis"

SECTION_HEADERS = ("Role", "Background", "Reqeust", "Input Format", "Outout Format", "Examples",
                   "Constrains")

_ROLE_BODY = """\
Hi, You are an expert on the Drug development.
You can design the particle size distribution for customized dissolution profiles,
or predict the Drug Released (%) based on given physical proerties such as particle size distribution."""

_BACKGROUND_BODY = """\
You have a bunch of experience on that and
have studied those commonly used emperical diffusion models
such as Nernst-Brunner translation dissolution and radial diffusion dynamics from
(1) Salish, K., So, C., Jeong, S. H., Hou, H. H. & Mao, C. A Refined Thin-Film Model for Drug Dissolution
Considering Radial Diffusion - Simulating Powder Dissolution. Pharm Res 41, 947-958 (2024).
https://doi.org/10.1007/s11095-024-03696-0
(2) Djukaj, S., Kolar, J., Lehocky, R., Zadrazil, A. & Stepanek, F. Design of particle size distribution for
custom dissolution profiles by solving the inverse problem. Powder Technology: An International Journal
on the Science and Technology of Wet and Dry Particulate Systems, 395 (2022)."""

_FORWARD_REQUEST_BODY = """\
1. Your customer will give you several fundamental parameters and based on the given parameters,
2. you need to either predict the Drug Released (%) for the customer or
3. you need to design the physical properties of the drugs and optimize the conditions based on given
dissolution profile (dissolution rate)"""

_FORWARD_OUTPUT_REQUEST = """\
please generate a table with columns: [Time(min), Drug Released (%)].
Include key metrics: {t_0}, {t_0.25}, {t_0.5}, {t_0.75}, {t_1}, {t_2}, {t_3}, {t_4}, {t_5},
{t_6}
where t refers to the abbreviation of "Time (hrs)"

"""

_CONSTRAINTS_BODY = """\
1. Nernst-Brunner equation = {

$$\\frac{dx}{dt} = -\\frac{k \\psi_A}{\\rho_s \\psi_v} (C_{\\text{sat}} - C_b)$$

Where  $k = \\frac{Sh}{D} \\cdot x$ ,
 $Sh = 2 + 0.52 Re^{0.52} Sc^{1/3}$
}
2. Final dissolution ≥85% within 60 min (USP compliance).
3. Please Do not make up recommendations without scientific basis.
4. Only provide optimizations that have clear scientific reasoning.
5. Do not make up the answer randomly if you may not be able to provide the correct answer."""

NO_EXAMPLES_TEXT = "no examples provided"

#: Verbatim record keys used inside prompt blocks, in render order, paired
#: with the feature each one labels.
VERBATIM_KEYS = tuple(zip((
    "Mean Particle Size, D50",
    "Aspect ratio",
    "Roundness",
    "solubility of drug (mg/mL)",
    "Diffusion coefficient of drug (m^2/s)",
    "True Density of drug (g/mL)",
    "Specific surface area (m^2/g)",
    "volume-based equivalent particle size (micrometer)",
), FEATURE_NAMES, strict=True))


def format_number(value: float) -> str:
    """Canonical numeric rendering for prompt blocks.

    Integral values drop the decimal point; values whose shortest repr is
    scientific render in the "7.5x 10^(-10)" style. Both forms parse back to
    the identical float (repr is the shortest round-tripping string).
    """
    f = float(value)
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    s = repr(f)
    if "e" in s:
        mantissa_s, exp_s = s.split("e")
        return f"{mantissa_s}x 10^({int(exp_s)})"
    return s


_SCI_NOTATION_RE = re.compile(r"^([-+]?\d+(?:\.\d+)?)\s*x\s*10\^\((-?\d+)\)$")


def parse_number(text: str) -> float:
    """Inverse of :func:`format_number`; also accepts plain float syntax."""
    text = text.strip().rstrip(",")
    m = _SCI_NOTATION_RE.match(text)
    if m:
        return float(f"{m.group(1)}e{m.group(2)}")
    return float(text)


def render_input_block(features: FormulationInput) -> str:
    """The Input Format block with verbatim keys and canonical numbers."""
    lines = ["{", "  Input = {"]
    for verbatim, attr in VERBATIM_KEYS:
        sep = ": " if verbatim == "Roundness" else " : "
        lines.append(f'    "{verbatim}"{sep}{format_number(getattr(features, attr))},')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def render_profile_json(profile: DissolutionProfile) -> str:
    """Profile as the columns/data JSON block used in prompts and responses."""
    rows = ",\n".join(
        f"    [{format_number(t)}, {format_number(v)}]"
        for t, v in profile.points()
    )
    return ('{\n  "columns": ["Time (hr)", "Drug Released (%)"],\n'
            f'  "data": [\n{rows}\n  ]\n}}')


#: The Output Format section: the request, then a sample of the block to answer in.
_FORWARD_OUTPUT_BODY = _FORWARD_OUTPUT_REQUEST + render_profile_json(
    DissolutionProfile(DEFAULT_OUTPUT_GRID_HR, (0, 85, 87, 88, 89, 89, 89, 88, 87, 87)))


def render_example_blocks(records) -> str:
    """Worked input/output example blocks, one per record, in given order."""
    records = list(records)
    if not records:
        raise ValidationError("at least one example record is required")
    blocks = []
    for i, rec in enumerate(records, start=1):
        blocks.append(
            f"### Example{i}: ###\n"
            f"### Input : ###\n"
            f"{render_input_block(rec.features)}\n"
            f"### Outout: ###\n"
            f"{render_profile_json(rec.profile)}"
        )
    return "\n".join(blocks)


@dataclass(frozen=True)
class PromptBundle:
    """An assembled prompt: the rendered text and the strategy behind it.
    :func:`extract_section` reads one section back."""

    rendered: str
    strategy: PromptStrategy


def build_prompt(strategy: PromptStrategy, features: FormulationInput,
                 examples=None) -> PromptBundle:
    """Assemble the forward (release-prediction) prompt: the seven sections
    in :data:`SECTION_HEADERS` order, rendered.

    Parameters
    ----------
    examples : list of FormulationRecord, or None
        Required for FS/FS_CoT/RAG; rendered into the Examples section.
        ZS variants get the literal "no examples provided".
    """
    examples_body = (render_example_blocks(examples or ()) if strategy.needs_examples
                     else NO_EXAMPLES_TEXT)
    bodies = (_ROLE_BODY, _BACKGROUND_BODY, _FORWARD_REQUEST_BODY, render_input_block(features),
              _FORWARD_OUTPUT_BODY, examples_body, _CONSTRAINTS_BODY)
    rendered = "\n\n".join(f"### {header}: ###\n{body}"
                           for header, body in zip(SECTION_HEADERS, bodies))
    if strategy.is_cot:
        rendered += "\n" + COT_INSTRUCTION
    return PromptBundle(rendered=rendered, strategy=strategy)


def extract_section(rendered: str, header: str) -> str:
    """Body of one "### Header: ###" section of a rendered prompt.

    The body runs to the next section header of :data:`SECTION_HEADERS` (or
    the end), so "### ..." lines inside it, such as the example markers,
    stay part of it.
    """
    marker = f"### {header}: ###\n"
    start = rendered.find(marker)
    if start < 0:
        raise ParseError(f"prompt has no section {header!r}")
    body_start = start + len(marker)
    ends = (rendered.find(f"\n\n### {name}: ###\n", body_start) for name in SECTION_HEADERS)
    return rendered[body_start:min((e for e in ends if e >= 0), default=len(rendered))]


def parse_input_block(text: str) -> FormulationInput:
    """Recover a FormulationInput from an Input Format block.

    Tolerates the "Input = {" wrapper, trailing commas and the
    "7.5x 10^(-10)" number style. Raises ParseError listing any missing keys.
    """
    values = {}
    for verbatim, attr in VERBATIM_KEYS:
        pattern = re.compile(
            re.escape(f'"{verbatim}"') + r"\s*:\s*([^,\n]+)")
        m = pattern.search(text)
        if m:
            try:
                values[attr] = parse_number(m.group(1))
            except ValueError as exc:
                raise ParseError(f"unreadable value for {verbatim!r}: {m.group(1)!r}") from exc
    missing = [name for name in FEATURE_NAMES if name not in values]
    if missing:
        raise ParseError(f"input block is missing fields: {', '.join(missing)}")
    return FormulationInput(**values)


@dataclass
class ParseReport:
    """Log of every leniency the response parser applied."""

    unit: str = "hr"
    converted_from_minutes: bool = False
    clamped_points: list[tuple[float, float]] = field(default_factory=list)  # (time, original)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "converted_from_minutes": self.converted_from_minutes,
            "clamped_points": [[t, v] for t, v in self.clamped_points],
            "notes": list(self.notes),
        }


_OBJECT_OPENING_RE = re.compile(r'\{\s*["}]')


def _candidate_json_objects(text: str):
    """Balanced {...} blocks of ``text`` that decode to JSON objects, in order.

    A block that is not valid JSON is searched inside, since a nested object
    may be valid even when the outer block is not. Braces are paired in one
    pass without recursion. A block that spans the point where an enclosing
    decode failed, or holds braces nested deeper than the recursion limit,
    is skipped, as its decode would fail too; so the decoding stays linear
    in the length of the text at any nesting depth.
    """
    pairs = []
    open_at = []                      # [start, depth of the braces inside] per open brace
    in_string = False
    escape = False
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
            open_at.append([i, 0])
        elif ch == "}" and open_at:
            start, depth = open_at.pop()
            pairs.append((start, i, depth))
            if open_at:
                open_at[-1][1] = max(open_at[-1][1], depth + 1)
    covered = failed_at = -1          # end of the last object yielded; last failure point
    for start, stop, depth in sorted(pairs):
        # A JSON object opens with a key or closes at once; checking that
        # first keeps runs of bare braces from costing a decode each.
        if (start < covered or start < failed_at <= stop or depth > sys.getrecursionlimit()
                or not _OBJECT_OPENING_RE.match(text, start)):
            continue
        try:
            obj = json.loads(text[start:stop + 1])
        except json.JSONDecodeError as exc:
            failed_at = start + exc.pos
            continue
        except (ValueError, RecursionError):
            continue
        covered = stop
        yield obj


def read_profile_table(table: dict) -> tuple[list[float], list[float], bool]:
    """Times [hr] and released values of a columns/data table, and whether
    its times were given in minutes (then converted to hours).

    The time column is the first column whose name contains "time" (else
    the first), and the value column the first other one; a time column
    whose name contains "min" is in minutes. Values are not range-checked.
    """
    columns = table.get("columns") or []
    if not isinstance(columns, list):
        raise ParseError(f"'columns' is not a list: {columns!r}")
    time_idx = next((i for i, name in enumerate(columns)
                     if isinstance(name, str) and "time" in name.lower()), 0)
    value_idx = 0 if time_idx else 1
    time_name = columns[time_idx] if len(columns) > time_idx else ""
    minutes = isinstance(time_name, str) and "min" in time_name.lower()

    rows = table.get("data")
    if not isinstance(rows, list) or len(rows) == 0:
        raise ParseError("profile table has an empty data array")
    times, released, last_idx = [], [], max(time_idx, value_idx)
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) <= last_idx:
            raise ParseError(f"malformed data row: {row!r}")
        try:
            times.append(float(row[time_idx]))
            released.append(float(row[value_idx]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"non-numeric data row: {row!r}") from exc
    return [t / 60.0 for t in times] if minutes else times, released, minutes


def profile_from_table(table: dict, where: str) -> DissolutionProfile:
    """The profile of a columns/data table read by :func:`read_profile_table`;
    a malformed table or a repeated time raises ValidationError naming ``where``."""
    try:
        return DissolutionProfile(*read_profile_table(table)[:2])
    except ParseError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def parse_profile_response(text: str, full_output: bool = False):
    """Extract the first columns/data profile table from response text.

    Tolerates surrounding prose and code fences, accepts "Time (min)" with
    conversion to hours, clamps out-of-range released values to [0, 100]
    (logged in the parse report) and returns points sorted by time.

    Parameters
    ----------
    full_output : bool
        When true, returns ``(profile, ParseReport)``.
    """
    table = next((obj for obj in _candidate_json_objects(text)
                  if "columns" in obj and "data" in obj), None)
    if table is None:
        raise ParseError("no JSON object with 'columns' and 'data' keys found")
    times, released, minutes = read_profile_table(table)
    report = ParseReport()
    if minutes:
        report.unit = "min"
        report.converted_from_minutes = True
        report.notes.append("time column given in minutes; converted to hours")
    for i, (t, v) in enumerate(zip(times, released)):
        if v < 0.0 or v > 100.0:
            report.clamped_points.append((t, v))
            released[i] = min(max(v, 0.0), 100.0)
    if report.clamped_points:
        report.notes.append(
            f"{len(report.clamped_points)} value(s) clamped into [0, 100]")

    try:
        profile = DissolutionProfile(np.asarray(times), np.asarray(released))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
    return (profile, report) if full_output else profile


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    severity: str        # "error" or "advisory"
    message: str


def validate_profile(profile: DissolutionProfile) -> list[RuleViolation]:
    """Rule findings for a parsed profile; empty list means fully compliant.

    Checks the (0, 0) start, the dissolution-rule target
    (>= 85% released at some point within 1 hr; advisory when missed) and
    flags drops of more than 5 percentage points between consecutive points.
    """
    findings: list[RuleViolation] = []
    if not profile.starts_at_zero:
        findings.append(RuleViolation(
            "initial-condition", "error",
            f"first point is ({profile.times_hr[0]:g}, {profile.released_pct[0]:g}), expected (0, 0)"))
    within_hour = profile.times_hr <= 1.0
    if not np.any(profile.released_pct[within_hour] >= 85.0):
        findings.append(RuleViolation(
            "usp-dissolution-rule", "advisory",
            "no point with released >= 85% within 60 min"))
    drops = np.diff(profile.released_pct)
    for i in np.nonzero(drops < -5.0)[0]:
        findings.append(RuleViolation(
            "non-monotonic", "advisory",
            f"released drops {-drops[i]:.1f} pp between t={profile.times_hr[i]:g} "
            f"and t={profile.times_hr[i + 1]:g} hr"))
    return findings
