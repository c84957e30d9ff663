"""
Prompt strategies and response parsing
======================================

Build the five prompt variants (zero-shot, zero-shot-CoT, few-shot,
few-shot-CoT, retrieval-augmented) for one formulation, run them against the
offline mock backend, and parse the responses back into release curves.
"""

from importlib.resources import files

from formukit import (
    FormulationInput,
    LLMClient,
    MockBackend,
    PromptStrategy,
    build_prompt,
    load_records,
    parse_profile_response,
    validate_profile,
)
from formukit.prompts import SECTION_HEADERS

powder = FormulationInput(
    d50_um=97.5, aspect_ratio=1.0, roundness=1.0,
    solubility_mg_ml=0.45, diffusivity_m2_s=7.5e-10, true_density_g_ml=1.512,
    ssa_m2_g=1.07, vol_eq_um=1.85,
)

# the bundled worked examples double as few-shot exemplars
examples = load_records(files("formukit") / "data" / "seed_records.json")

# --- zero-shot: structured sections, no worked examples ---------------------
zs = build_prompt(PromptStrategy.ZS, powder)
print("zero-shot prompt sections:")
for header in SECTION_HEADERS:
    print(f"  - {header}")

# --- chain-of-thought differs by exactly one appended line ------------------
zs_cot = build_prompt(PromptStrategy.ZS_CoT, powder)
extra = zs_cot.rendered.splitlines()[-1]
print(f"\nCoT adds one line: {extra!r}")

# --- few-shot embeds worked input/output blocks ------------------------------
fs = build_prompt(PromptStrategy.FS, powder, examples=examples)
n_blocks = fs.rendered.count("### Input : ###")
print(f"few-shot prompt embeds {n_blocks} worked examples")

# --- complete offline through the physics mock ------------------------------
client = LLMClient(backend=MockBackend())
response = client.complete(zs).response
profile = parse_profile_response(response)
print(f"\nmock backend answered with {profile.n_points} points; "
      f"released at 1 hr = {profile.released_at(1.0):.1f} %")

findings = validate_profile(profile)
if findings:
    for f in findings:
        print(f"[{f.severity}] {f.rule}: {f.message}")
else:
    print("profile passes all release-rule checks")

# --- the parser is lenient about prose and fences ----------------------------
noisy = "Here is my analysis.\n```json\n" + response + "\n```\nDone."
assert parse_profile_response(noisy).points() == profile.points()
print("prose-wrapped response parses identically")
