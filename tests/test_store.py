import dataclasses
import json
import logging
import os
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from formukit.errors import ValidationError
from formukit.store import (
    FormulationRecord,
    RecordStore,
    _spearman,
    load_records,
    record_from_verbatim,
)
from formukit.prompts import render_example_blocks
from formukit.types import FEATURE_NAMES, DissolutionProfile, FormulationInput

GOLDENS = Path(__file__).parent / "goldens"
SEED_FILE = files("formukit") / "data" / "seed_records.json"
REFERENCE_VERBATIM_INPUT = {
    "Mean Particle Size, D50": 45,
    "Aspect ratio": 1.0,
    "Roundness": 1.0,
    "solubility of drug (mg/mL)": 0.45,
    "Diffusion coefficient of drug (m^2/s)": 7.5e-10,
    "True Density of drug (g/mL)": 1.512,
    "Specific surface area (m^2/g)": 1.7,
    "volume-based equivalent particle size (micrometer)": 1.17,
}


def _store_with(records):
    store = RecordStore()
    for rec in records:
        store.ingest(rec)
    return store


def _synthetic_records(n=100, seed=5):
    # released at 1 hr strictly decreasing in d50, independent of roundness
    rng = np.random.default_rng(seed)
    d50s = np.sort(rng.uniform(20, 300, n))
    records = []
    for i, d50 in enumerate(d50s):
        released_1hr = 95.0 - 70.0 * (d50 - 20.0) / 280.0
        profile = DissolutionProfile(
            np.array([0.0, 1.0, 6.0]),
            np.array([0.0, released_1hr, min(100.0, released_1hr + 5.0)]))
        features = FormulationInput(
            d50_um=float(d50),
            roundness=float(rng.uniform(0.5, 1.0)),
            ssa_m2_g=float(rng.uniform(0.1, 2.0)),
            vol_eq_um=float(rng.uniform(1.0, 12.0)),
        )
        records.append(FormulationRecord(
            id=f"syn-{i:03d}", features=features, profile=profile,
            provenance="simulated", source="synthetic sweep"))
    return records


class TestIngest:
    def test_ingest_grows_store(self, example_records):
        store = RecordStore()
        store.ingest(example_records[0])
        assert len(store) == 1

    def test_three_reference_records_retrievable_by_id(self, example_records):
        store = _store_with(example_records)
        assert len(store) == 3
        for rec in example_records:
            assert {r.id: r for r in store.records}[rec.id].features == rec.features

    def test_duplicate_id_conflicts(self, example_records):
        store = _store_with(example_records)
        with pytest.raises(ValidationError, match="already in store"):
            store.ingest(example_records[0])
        store.ingest(example_records[0], overwrite=True)   # explicit overwrite ok
        assert len(store) == 3
        assert [r.id for r in store.records] == [r.id for r in example_records]   # kept in place

    def test_invalid_provenance_rejected(self, example_records):
        with pytest.raises(ValidationError):
            FormulationRecord(
                id="x", features=example_records[0].features,
                profile=example_records[0].profile, provenance="guessed")


class TestPersistence:
    def test_round_trip(self, tmp_path, example_records):
        path = tmp_path / "store.jsonl"
        store = RecordStore(path)
        for rec in example_records:
            store.ingest(rec)
        again = {r.id: r for r in RecordStore(path).records}
        assert len(again) == 3
        for rec in example_records:
            loaded = again[rec.id]
            assert loaded.features == rec.features
            assert loaded.profile.points() == rec.profile.points()
            assert loaded.provenance == rec.provenance
            assert loaded.source == rec.source

    def test_append_only_keeps_last_version(self, tmp_path, example_records):
        path = tmp_path / "store.jsonl"
        store = RecordStore(path)
        store.ingest(example_records[0])
        updated = FormulationRecord(
            id=example_records[0].id, features=example_records[0].features,
            profile=example_records[0].profile, provenance="simulated", source="rerun")
        store.ingest(updated, overwrite=True)
        assert len(path.read_text().strip().splitlines()) == 2
        again = RecordStore(path)
        assert len(again) == 1
        assert again.records[0].id == updated.id
        assert again.records[0].provenance == "simulated"

    def test_canonical_keys_on_disk(self, tmp_path, example_records):
        path = tmp_path / "store.jsonl"
        RecordStore(path).ingest(example_records[0])
        row = json.loads(path.read_text().splitlines()[0])
        for name in FEATURE_NAMES + ("profile", "provenance", "source", "id"):
            assert name in row

    def test_ingest_writes_this_exact_line(self, tmp_path):
        record = FormulationRecord(
            id="pin", features=FormulationInput(d50_um=45.0, aspect_ratio=1.5, ssa_m2_g=1.7,
                                                vol_eq_um=1.17),
            profile=DissolutionProfile([2.0, 0.0, 0.25, 6.0], [80.5, 0.0, 1e-3, 100.0]),
            source="bench")
        path = tmp_path / "store.jsonl"
        RecordStore(path).ingest(record)
        assert path.read_text(encoding="utf-8") == (
            '{"id": "pin", "d50_um": 45.0, "aspect_ratio": 1.5, "roundness": 1.0, '
            '"solubility_mg_ml": 0.45, "diffusivity_m2_s": 7.5e-10, "true_density_g_ml": 1.512, '
            '"ssa_m2_g": 1.7, "vol_eq_um": 1.17, '
            '"profile": [[0.0, 0.0], [0.25, 0.001], [2.0, 80.5], [6.0, 100.0]], '
            '"provenance": "experimental", "source": "bench"}\n')
        assert [r.to_dict() for r in RecordStore(path).records] == [record.to_dict()]

    def test_ingest_creates_missing_directories(self, tmp_path, example_records):
        path = tmp_path / "a" / "b" / "store.jsonl"
        store = RecordStore(path)
        for rec in example_records:
            store.ingest(rec)
        assert [r.id for r in RecordStore(path).records] == [r.id for r in example_records]


    def test_torn_final_line_skipped_then_dropped_on_ingest(self, tmp_path, example_records,
                                                            caplog):
        path = tmp_path / "store.jsonl"
        store = RecordStore(path)
        for rec in example_records[:2]:
            store.ingest(rec)
        path.write_text(path.read_text()[:-40])
        with caplog.at_level("WARNING", logger="formukit.store"):
            torn = RecordStore(path)
        assert [r.id for r in torn.records] == [example_records[0].id]
        assert f"{path}:2: skipped a truncated final line" in caplog.text
        torn.ingest(example_records[2])
        again = RecordStore(path)
        assert [r.id for r in again.records] == [example_records[0].id, example_records[2].id]

    def test_an_ingest_after_a_cut_at_any_byte_keeps_what_the_load_read(self, tmp_path,
                                                                         caplog):
        # A crash may stop an append at any byte. The store the next load reads,
        # plus the next ingest, is what every later load must read.
        path = tmp_path / "store.jsonl"
        records = load_records(SEED_FILE)
        for rec in records:
            RecordStore(path).ingest(rec)
        whole = path.read_bytes()
        new = dataclasses.replace(records[0], id="new")
        broken = []
        with caplog.at_level(logging.ERROR, logger="formukit.store"):
            for cut in range(len(whole) + 1):
                path.write_bytes(whole[:cut])
                store = RecordStore(path)
                loaded = [r.id for r in store.records]
                store.ingest(new)
                try:
                    if [r.id for r in RecordStore(path).records] != loaded + ["new"]:
                        broken.append(cut)
                except ValidationError:
                    broken.append(cut)
        assert broken == []

    def test_two_stores_on_one_torn_file_keep_both_ingests(self, tmp_path, example_records):
        path = tmp_path / "store.jsonl"
        for rec in example_records[:2]:
            RecordStore(path).ingest(rec)
        path.write_bytes(path.read_bytes()[:-40])
        first, second = RecordStore(path), RecordStore(path)
        first.ingest(example_records[2])
        second.ingest(dataclasses.replace(example_records[2], id="other"))
        assert [r.id for r in RecordStore(path).records] == [
            example_records[0].id, example_records[2].id, "other"]

    def test_short_writes_append_the_same_bytes(self, tmp_path, example_records, monkeypatch):
        # The newline that ends a bare last line and the record go out in one write,
        # retried from where each short write stops.
        def ingest_onto_a_bare_last_line(path):
            RecordStore(path).ingest(example_records[0])
            path.write_bytes(path.read_bytes().rstrip(b"\n"))
            for rec in example_records[1:]:
                RecordStore(path).ingest(rec)
            return path.read_bytes()

        whole = ingest_onto_a_bare_last_line(tmp_path / "whole.jsonl")
        write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(write(fd, bytes(data[:7])))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short_write)
        short = ingest_onto_a_bare_last_line(tmp_path / "short.jsonl")
        monkeypatch.undo()
        assert short == whole and max(sizes) == 7
        assert [r.id for r in RecordStore(tmp_path / "short.jsonl").records] == \
            [r.id for r in example_records]

    def test_invalid_line_before_the_last_raises(self, tmp_path, example_records):
        path = tmp_path / "store.jsonl"
        store = RecordStore(path)
        for rec in example_records[:2]:
            store.ingest(rec)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:-40] + "\n" + lines[1])
        with pytest.raises(ValidationError, match=":1: invalid JSON line"):
            RecordStore(path)


class TestVerbatimImport:
    def test_seed_file(self):
        records = load_records(SEED_FILE)
        assert [r.id for r in records] == ["salish-d50-45", "salish-d50-200", "salish-d50-97p5"]
        assert [r.features.d50_um for r in records] == [45.0, 200.0, 97.5]
        assert records[0].features.ssa_m2_g == 1.70
        assert records[2].features.vol_eq_um == 11.94
        assert all(r.provenance == "experimental" for r in records)

    def test_verbatim_keys_map_to_canonical(self):
        entry = {
            "Input": REFERENCE_VERBATIM_INPUT,
            "Output": {"columns": ["Time (hr)", "Drug Released (%)"],
                       "data": [[0, 0], [1, 89]]},
        }
        rec = record_from_verbatim(entry, "r1")
        assert rec.features.d50_um == 45.0
        assert rec.features.diffusivity_m2_s == 7.5e-10

    @pytest.mark.parametrize("columns, data", [
        (["Time (min)", "Drug Released (%)"], [[0, 0], [15, 50], [60, 90]]),
        (["Drug Released (%)", "Time (hr)"], [[0, 0], [50, 0.25], [90, 1]]),
        (["Drug Released (%)", "Time (min)"], [[90, 60], [0, 0], [50, 15]]),
    ], ids=["minutes", "swapped", "swapped-minutes"])
    def test_output_table_read_by_its_columns(self, columns, data, example_records):
        # The time column is found by name and minutes become hours, as in
        # parse_profile_response.
        entry = {"Input": REFERENCE_VERBATIM_INPUT, "Output": {"columns": columns, "data": data}}
        rec = record_from_verbatim(entry, "r1")
        assert rec.profile.points() == [(0.0, 0.0), (0.25, 50.0), (1.0, 90.0)]

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="d50_um"):
            record_from_verbatim({"Input": {"Roundness": 1.0},
                                  "Output": [[0, 0], [1, 50]]}, "bad")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "-inf", 10 ** 400, True, "60"])
    def test_non_finite_feature_rejected(self, value, example_records):
        row = {**example_records[0].to_dict(), "ssa_m2_g": value}
        with pytest.raises(ValidationError, match="ssa_m2_g must be a finite number"):
            FormulationRecord.from_dict(row)
        block = {name: row[name] for name in FEATURE_NAMES if name != "ssa_m2_g"}
        with pytest.raises(ValidationError, match="ssa_m2_g must be a finite number"):
            record_from_verbatim({"Input": {**block, "Specific surface area (m^2/g)": value},
                                  "Output": [[0, 0], [1, 50]]}, "bad")


class TestAdaptWeights:
    def test_small_store_uniform_over_varying(self, example_records):
        store = _store_with(example_records)
        weights, _ = store.adapt_weights()
        assert abs(weights.sum() - 1.0) <= 1e-9
        # d50, ssa and vol-eq vary across the three records; the rest do not.
        weight = dict(zip(FEATURE_NAMES, weights))
        assert weight["d50_um"] == pytest.approx(1 / 3)
        assert weight["ssa_m2_g"] == pytest.approx(1 / 3)
        assert weight["vol_eq_um"] == pytest.approx(1 / 3)
        assert weight["aspect_ratio"] == 0.0
        assert weight["solubility_mg_ml"] == 0.0

    def test_constant_feature_gets_zero_weight_large_store(self):
        store = _store_with(_synthetic_records())
        weights, _ = store.adapt_weights()
        assert weights[FEATURE_NAMES.index("aspect_ratio")] == 0.0    # constant across store
        assert abs(weights.sum() - 1.0) <= 1e-9

    def test_informative_feature_outweighs_noise(self):
        store = _store_with(_synthetic_records())
        weight = dict(zip(FEATURE_NAMES, store.adapt_weights()[0]))
        assert weight["d50_um"] > weight["roundness"]

    def test_scales_are_mad(self, example_records):
        store = _store_with(example_records)
        _, scales = store.adapt_weights()
        d50s = np.array([45.0, 200.0, 97.5])
        mad = np.median(np.abs(d50s - np.median(d50s)))
        assert scales[FEATURE_NAMES.index("d50_um")] == pytest.approx(mad)

    def test_empty_store(self):
        with pytest.raises(ValidationError, match="empty store"):
            RecordStore().adapt_weights()

    def test_spearman_matches_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            x = rng.integers(0, 5, n).astype(float)
            y = np.round(rng.normal(size=n), 1)
            for a, b in ((x, y), (y, x), (rng.normal(size=n), y)):
                assert _spearman(a, b) == pytest.approx(stats.spearmanr(a, b).statistic,
                                                        rel=0.0, abs=1e-12)

    def test_spearman_of_a_constant_column_is_nan(self):
        x, y = np.full(7, 3.0), np.arange(7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")                 # scipy warns on constant input
            assert np.isnan(stats.spearmanr(x, y).statistic)
        assert np.isnan(_spearman(x, y)) and np.isnan(_spearman(y, x))

    def test_weights_are_normalized_abs_spearman(self):
        store = _store_with(_synthetic_records())
        matrix = store.feature_matrix()
        release = [r.profile.released_at(1.0) for r in store.records]
        raw = np.array([abs(stats.spearmanr(col, release).statistic) if np.ptp(col) else 0.0
                        for col in matrix.T])
        np.testing.assert_allclose(store.adapt_weights()[0], raw / raw.sum(),
                                   rtol=0.0, atol=1e-12)


class TestRetrieve:
    def test_self_retrieval_rank_one(self, example_records):
        store = _store_with(example_records)
        for rec in example_records:
            hits = store.retrieve(rec.features, k=1)
            assert hits[0][0].id == rec.id
            assert hits[0][1] == pytest.approx(1.0)

    def test_hand_computed_order_d50_only(self, example_records):
        # d50 alone carries the weight, scaled by its MAD: the d50s 45, 97.5 and 200
        # have median 97.5 and deviations 52.5, 0 and 102.5, so the MAD is 52.5.
        store = _store_with(example_records)
        query = FormulationInput(d50_um=50.0)
        hits = store.retrieve(query, k=3, feature_subset=("d50_um",))
        assert [h[0].features.d50_um for h in hits] == [45.0, 97.5, 200.0]
        # hand check: exp(-|50-45|/52.5) > exp(-|50-97.5|/52.5) > exp(-|50-200|/52.5)
        assert [h[1] for h in hits] == pytest.approx(
            np.exp(-np.array([5.0, 47.5, 150.0]) / 52.5), rel=1e-15)

    def test_d50_subset_reference_query(self, example_records):
        # A query that only specifies d50 scores on d50 alone.
        store = _store_with(example_records)
        hits = store.retrieve(FormulationInput(d50_um=50.0), k=3,
                              feature_subset=("d50_um",))
        assert [h[0].features.d50_um for h in hits] == [45.0, 97.5, 200.0]

    def test_k_beyond_store_size(self, example_records):
        store = _store_with(example_records)
        assert len(store.retrieve(FormulationInput(d50_um=50.0), k=10)) == 3

    def test_deterministic_rankings(self):
        store = _store_with(_synthetic_records())
        query = FormulationInput(d50_um=120.0)
        first = [(r.id, s) for r, s in store.retrieve(query, k=10)]
        second = [(r.id, s) for r, s in store.retrieve(query, k=10)]
        assert first == second

    def test_self_retrieval_synthetic_sweep(self):
        records = _synthetic_records()
        store = _store_with(records)
        for rec in records:
            hits = store.retrieve(rec.features, k=1)
            assert hits[0][0].id == rec.id

    def test_score_bounds(self):
        store = _store_with(_synthetic_records(n=40))
        hits = store.retrieve(FormulationInput(d50_um=77.0), k=40)
        for _, score in hits:
            assert 0.0 < score <= 1.0

    def test_empty_store(self):
        with pytest.raises(ValidationError, match="empty store"):
            RecordStore().retrieve(FormulationInput(d50_um=50.0), k=1)

    def test_matches_per_record_loop(self):
        # Reference: score each record on its own and sort on (-score, id).
        # Three copies of one record tie exactly and must come back by id.
        records = _synthetic_records(n=60)
        twin = records[17]
        records += [FormulationRecord(f"{twin.id}-{c}", twin.features, twin.profile)
                    for c in ("b", "a")]
        store = _store_with(records)
        weights, scales = store.adapt_weights()
        for query in [twin.features] + [r.features for r in records[::7]]:
            scored = []
            for rec in records:
                distance = np.sum(weights
                                  * np.abs(query.feature_vector() - rec.features.feature_vector())
                                  / scales)
                scored.append((rec.id, float(np.exp(-distance))))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            got = [(r.id, s) for r, s in store.retrieve(query, k=8)]
            assert got == scored[:8]

    def test_ingest_resets_cached_state(self):
        records = _synthetic_records(n=20)
        store = _store_with(records[:-1])
        query = records[-1].features
        before = store.adapt_weights()
        assert store.adapt_weights() is before
        assert not store.feature_matrix().flags.writeable
        assert not any(array.flags.writeable for array in before)
        assert store.retrieve(query, k=1)[0][0].id != records[-1].id
        store.ingest(records[-1])
        assert store.feature_matrix().shape == (20, len(FEATURE_NAMES))
        assert store.adapt_weights() is not before
        assert store.retrieve(query, k=1)[0][0].id == records[-1].id


class TestToExamples:
    # The example blocks a store's records render to, via render_example_blocks.
    def test_single_record_matches_golden_fragment(self, example_records):
        fragment = (GOLDENS / "example_block_45.txt").read_text(encoding="utf-8")
        assert render_example_blocks(example_records[:1]) == fragment

    def test_order_preserved(self, example_records):
        text = render_example_blocks(example_records)
        i45 = text.find('"Mean Particle Size, D50" : 45,')
        i200 = text.find('"Mean Particle Size, D50" : 200,')
        i975 = text.find('"Mean Particle Size, D50" : 97.5,')
        assert 0 < i45 < i200 < i975
        reordered = render_example_blocks(example_records[::-1])
        assert reordered != text

    def test_zero_records(self):
        with pytest.raises(Exception):
            render_example_blocks([])


def test_missing_store_is_empty(tmp_path):
    store = RecordStore(tmp_path / "absent.jsonl")
    assert len(store) == 0


@pytest.mark.parametrize("name", ["absent.jsonl", "absent.json"])
def test_load_records_missing_file_raises(tmp_path, name):
    with pytest.raises(FileNotFoundError, match=name):
        load_records(tmp_path / name)


def test_load_records_reads_jsonl_as_the_store_does(tmp_path, example_records):
    # the last version of each id, in the order ids were first seen
    path = tmp_path / "store.jsonl"
    store = RecordStore(path)
    for rec in example_records[:2]:
        store.ingest(rec)
    store.ingest(FormulationRecord(id=example_records[0].id, features=example_records[0].features,
                                   profile=example_records[0].profile, provenance="simulated"),
                 overwrite=True)
    loaded = load_records(path)
    assert [(r.id, r.provenance) for r in loaded] == [
        (r.id, r.provenance) for r in RecordStore(path).records] == [
        (example_records[0].id, "simulated"), (example_records[1].id, "experimental")]


def test_single_record_store_still_retrieves(example_records):
    store = RecordStore()
    store.ingest(example_records[0])
    weights, _ = store.adapt_weights()
    assert abs(weights.sum() - 1.0) <= 1e-9
    hits = store.retrieve(example_records[0].features, k=1)
    assert hits[0][0].id == example_records[0].id
    assert hits[0][1] == pytest.approx(1.0)
