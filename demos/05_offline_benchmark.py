"""
Five-strategy benchmark, fully offline
======================================

Benchmark the prompt strategies (ZS, ZS_CoT, FS, FS_CoT, RAG) against a
dataset of measured records. Here the "measured" records are generated by
the simulator and the predictions come from the mock backend, which shares
the same physics, so every strategy should score a perfect fit; with a live
backend the same harness produces the real comparison table.
"""

import tempfile
from pathlib import Path

from formukit import (
    HYDROCHLOROTHIAZIDE,
    DissolutionConditions,
    FormulationInput,
    FormulationRecord,
    LLMClient,
    MockBackend,
    ParticleMorphology,
    ReplayBackend,
    TranscriptRecorder,
    psd_from_lognormal,
    run_benchmark,
    simulate_dissolution,
)
from formukit.svgplot import profile_overlay_svg

drug = HYDROCHLOROTHIAZIDE
sphere = ParticleMorphology()
vessel = DissolutionConditions()

# --- synthesize a dataset of "measured" records ------------------------------
dataset = []
for d50 in (45.0, 97.5, 200.0):
    profile = simulate_dissolution(drug, sphere, psd_from_lognormal(d50, 1.5, 50), vessel)
    dataset.append(FormulationRecord(
        id=f"demo-{d50:g}", features=FormulationInput(d50_um=d50),
        profile=profile, provenance="simulated", source="demo sweep"))

with tempfile.TemporaryDirectory(prefix="formukit_demo_") as tmp:
    workdir = Path(tmp)

    # --- run all five strategies through the mock backend --------------------
    recorder = TranscriptRecorder(workdir / "transcripts.jsonl")
    client = LLMClient(backend=MockBackend(), recorder=recorder)
    result = run_benchmark(dataset, client=client)

    print(result.report.to_text())
    print(f"transcripts recorded to {recorder.path} "
          f"({len(recorder.records)} completions)")

    # --- overlay plot for one record -----------------------------------------
    rec = dataset[1]
    curves = {s: result.predictions[s][rec.id] for s in result.predictions}
    svg_path = workdir / f"overlay_{rec.id}.svg"
    svg_path.write_text(profile_overlay_svg(rec.profile, curves, title=rec.id))
    print(f"overlay plot written to {svg_path}")

    # --- the stored transcripts replay to an identical report ----------------
    replay_client = LLMClient(backend=ReplayBackend.from_jsonl(recorder.path))
    again = run_benchmark(dataset, client=replay_client)
    assert again.report == result.report
    print("replayed benchmark reproduces the report bit-for-bit")
