"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines as they
complete. Criterion 9 (live benchmark reference) is informational and runs
only when an API key is configured.
"""

import json
import os
import time
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from formukit.cli import main
from formukit.dissolution import psd_from_lognormal, simulate, simulate_dissolution
from formukit.errors import ParseError, ValidationError
from formukit.evaluate import align_profiles, mse, profile_metrics, r_squared
from formukit.inverse import DesignSpec, LognormalParameterization, design_psd
from formukit.prompts import (
    COT_INSTRUCTION,
    PromptStrategy,
    build_prompt,
    parse_profile_response,
    render_input_block,
    render_profile_json,
)
from formukit.types import DissolutionProfile, FormulationInput, SizeDistribution

from conftest import EXAMPLE_PROFILES, analytic_release_pct
from test_store import _store_with, _synthetic_records

GOLDENS = Path(__file__).parent / "goldens"


def _report(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_analytic_ode_oracle(drug, sphere, quiescent_sink):
    started = time.perf_counter()
    psd = SizeDistribution([50.0], [1.0])
    dense_s = np.arange(0.0, 601.0, 30.0)
    result = simulate(drug, sphere, psd, quiescent_sink, dense_s / 3600.0)
    elapsed = time.perf_counter() - started

    expected, t_d = analytic_release_pct(dense_s, 50e-6, drug)
    assert t_d == pytest.approx(466.6667, abs=0.05)
    t_num = result.complete_dissolution_time_s
    assert abs(t_num - t_d) <= 0.01 * t_d, f"dissolution time {t_num} vs {t_d}"
    worst = float(np.max(np.abs(result.profile.released_pct - expected)))
    assert worst <= 0.5, f"released deviates {worst} pp from the closed form"
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"
    _report(1, f"dissolution time {t_num:.2f} s vs closed form {t_d:.2f} s "
               f"(worst release error {worst:.2e} pp, {elapsed * 1000:.0f} ms)")


def test_criterion_2_metric_exactness():
    grid = np.array([0.0, 1.0, 2.0])
    pair = align_profiles(DissolutionProfile(grid, np.array([0.0, 50.0, 100.0])),
                          DissolutionProfile(grid, np.array([0.0, 40.0, 100.0])))
    assert mse(pair) == 100.0 / 3.0
    assert r_squared(pair) == 1.0 - 100.0 / 5000.0
    identity = align_profiles(DissolutionProfile(grid, np.array([0.0, 50.0, 100.0])),
                              DissolutionProfile(grid, np.array([0.0, 50.0, 100.0])))
    assert mse(identity) == 0.0
    assert r_squared(identity) == 1.0
    degenerate = align_profiles(DissolutionProfile(grid, np.array([50.0, 50.0, 50.0])),
                                DissolutionProfile(grid, np.array([0.0, 40.0, 100.0])))
    with pytest.raises(ValidationError, match="zero variance"):
        r_squared(degenerate)
    _report(2, "MSE 33.33.., R^2 0.98 reproduced exactly; identity exact; "
               "degenerate reference raises")


def test_criterion_3_size_ordering(drug, sphere, conditions):
    started = time.perf_counter()
    curves = {}
    for d50 in (45.0, 97.5, 200.0):
        psd = psd_from_lognormal(d50, 1.5, 50)
        curves[d50] = simulate_dissolution(drug, sphere, psd, conditions).released_pct
    elapsed = time.perf_counter() - started

    # Pointwise ordering (ties only where both curves sit at 0 or the cap),
    # with strictly ordered curve means establishing the overall rank.
    assert np.all(curves[45.0] >= curves[97.5] - 1e-9)
    assert np.all(curves[97.5] >= curves[200.0] - 1e-9)
    assert curves[45.0].mean() > curves[97.5].mean() > curves[200.0].mean()
    assert elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"
    _report(3, f"release rank 45 > 97.5 > 200 um holds at every grid time "
               f"({elapsed:.2f} s)")


def test_criterion_4_prompt_goldens(reference_input, example_records):
    zs = build_prompt(PromptStrategy.ZS, reference_input)
    golden = (GOLDENS / "zs_reference.txt").read_text(encoding="utf-8")
    assert zs.rendered == golden
    assert "Final dissolution ≥85% within 60 min" in zs.rendered
    assert "no examples provided" in zs.rendered

    fs = build_prompt(PromptStrategy.FS, reference_input, examples=example_records)
    assert fs.rendered == (GOLDENS / "fs_reference.txt").read_text(encoding="utf-8")
    for record in example_records:
        assert render_input_block(record.features) in fs.rendered
        assert render_profile_json(record.profile) in fs.rendered

    zs_cot = build_prompt(PromptStrategy.ZS_CoT, reference_input)
    fs_cot = build_prompt(PromptStrategy.FS_CoT, reference_input, examples=example_records)
    assert zs_cot.rendered.splitlines() == zs.rendered.splitlines() + [COT_INSTRUCTION]
    assert fs_cot.rendered.splitlines() == fs.rendered.splitlines() + [COT_INSTRUCTION]
    _report(4, "ZS golden byte-match; FS embeds all three example blocks; "
               "CoT delta is exactly one line")


def test_criterion_5_parser_fidelity(example_records):
    block = render_profile_json(example_records[0].profile)
    points = parse_profile_response(block).points()
    assert points == [(float(t), float(v)) for t, v in EXAMPLE_PROFILES[45.0]]
    assert len(points) == 10

    wrapped = ("The dissolution profile is summarized below:\n\n```json\n"
               + block + "\n```\nAll values are percents.")
    assert parse_profile_response(wrapped).points() == points

    with pytest.raises(ParseError, match="empty data array"):
        parse_profile_response(
            '{"columns": ["Time (hr)", "Drug Released (%)"], "data": []}')
    _report(5, "reference table parses to its 10 printed points, fenced/prose "
               "variants identical, empty data raises")


def test_criterion_6_inverse_round_trip(drug, sphere, conditions):
    target = simulate_dissolution(drug, sphere, psd_from_lognormal(120.0, 1.6, 50),
                                  conditions)
    spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                      parameterization=LognormalParameterization(300.0, 1.2))
    started = time.perf_counter()
    result = design_psd(spec, seed=0)
    elapsed = time.perf_counter() - started

    assert result.residual_mse < 1.0, f"residual {result.residual_mse}"
    d50 = result.parameters["d50_um"]
    assert abs(d50 - 120.0) <= 0.15 * 120.0, f"recovered d50 {d50}"
    history = np.array(result.objective_history)
    assert np.all(np.diff(history) <= 0.0)
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"
    _report(6, f"recovered d50 {d50:.1f} um (target 120), residual "
               f"{result.residual_mse:.2e} %^2 in {elapsed:.1f} s")


def test_criterion_7_retrieval_determinism(example_records):
    store = _store_with(example_records)
    hits = store.retrieve(FormulationInput(d50_um=50.0), k=3, feature_subset=("d50_um",))
    assert [h[0].features.d50_um for h in hits] == [45.0, 97.5, 200.0]

    synthetic = _synthetic_records(n=100)
    big_store = _store_with(synthetic)
    for record in synthetic:
        top = big_store.retrieve(record.features, k=1)
        assert top[0][0].id == record.id

    query = FormulationInput(d50_um=123.0)
    first = [(r.id, s) for r, s in big_store.retrieve(query, k=10)]
    second = [(r.id, s) for r, s in big_store.retrieve(query, k=10)]
    assert first == second
    _report(7, "3-record query order [45, 97.5, 200]; self-retrieval rank-1 on "
               "100 synthetic records; rankings identical across runs")


def test_criterion_8_offline_closure(tmp_path):
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps({"Mean Particle Size, D50": 97.5,
                                      "Aspect ratio": 1.0, "Roundness": 1.0,
                                      "solubility of drug (mg/mL)": 0.45,
                                      "Diffusion coefficient of drug (m^2/s)": 7.5e-10,
                                      "True Density of drug (g/mL)": 1.512,
                                      "Specific surface area (m^2/g)": 1.07,
                                      "volume-based equivalent particle size (micrometer)": 1.85}))
    out = str(tmp_path / "out")
    assert main(["simulate", "--input", str(input_file),
                 "--output-dir", out, "--run-id", "sim"]) == 0
    assert main(["predict", "--strategy", "zs", "--backend", "mock",
                 "--input", str(input_file), "--output-dir", out, "--run-id", "pred"]) == 0
    sim_profile = parse_profile_response(
        (tmp_path / "out" / "sim" / "profile.json").read_text())
    pred_profile = parse_profile_response(
        (tmp_path / "out" / "pred" / "profile.json").read_text())
    m, r2 = profile_metrics(sim_profile, pred_profile)
    assert m == 0.0
    assert r2 == 1.0

    # benchmark closure over a simulator-generated dataset
    from test_cli import _make_sim_dataset

    dataset = _make_sim_dataset(tmp_path)
    assert main(["bench", "--dataset", dataset, "--backend", "mock",
                 "--output-dir", out, "--run-id", "bench"]) == 0
    report = json.loads((tmp_path / "out" / "bench" / "report.json").read_text())
    assert [row["strategy"] for row in report["rows"]] == \
        ["ZS", "ZS_CoT", "FS", "FS_CoT", "RAG"]
    for row in report["rows"]:
        assert row["mse_pct2"] <= 1e-6, row
        assert row["r_squared"] >= 0.999999, row
    _report(8, "mock predict == simulate (MSE 0, R^2 1); mock benchmark MSE <= 1e-6 "
               "and R^2 >= 0.999999 for all five strategies")


#: Reference outcome recorded from the original live evaluation of this
#: workflow (not reproducible offline; retained for comparison only).
LIVE_REFERENCE_OUTCOME = {
    "ZS": (23.61, 0.97),
    "ZS_CoT": (114.89, 0.90),
    "FS": (57.0, 0.92),
    "FS_CoT": (22.56, 0.97),
    "RAG": (10.55, 0.99),
}


@pytest.mark.skipif(not os.environ.get("FORMU_API_KEY"),
                    reason="criterion 9 is an optional live reference; set "
                           "FORMU_API_KEY to run it")
def test_criterion_9_optional_live_reference(tmp_path):
    seed_file = str(files("formukit") / "data" / "seed_records.json")
    store_path = str(tmp_path / "store.jsonl")
    out = str(tmp_path / "out")
    assert main(["store", "ingest", "--file", seed_file, "--store", store_path]) == 0
    code = main(["bench", "--dataset", store_path, "--backend", "live",
                 "--output-dir", out, "--run-id", "live"])
    assert code in (0, 4)          # informational: live output may not parse
    report = json.loads((tmp_path / "out" / "live" / "report.json").read_text())
    assert len(report["rows"]) == 5
    _report(9, f"live five-row report emitted; reference outcome on record: "
               f"{LIVE_REFERENCE_OUTCOME}")
