import json
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from formukit.dissolution import psd_from_lognormal, simulate_dissolution
from formukit.errors import TransportError, ValidationError
from formukit.evaluate import (
    STRATEGY_ORDER,
    align_profiles,
    mse,
    profile_metrics,
    r_squared,
    run_benchmark,
)
from formukit.llm import (
    LiveBackend,
    LLMClient,
    LLMConfig,
    MockBackend,
    ReplayBackend,
    TranscriptRecorder,
)
from formukit.store import FormulationRecord
from formukit.types import DissolutionProfile, FormulationInput


def _profile(times, values):
    return DissolutionProfile(np.asarray(times, float), np.asarray(values, float))


class TestAlign:
    def test_identical_grids_pass_through(self):
        ref = _profile([0, 1, 2], [0, 50, 100])
        pred = _profile([0, 1, 2], [0, 40, 90])
        pair = align_profiles(ref, pred)
        assert pair.times_hr.tolist() == [0, 1, 2]
        assert pair.predicted.tolist() == [0, 40, 90]

    def test_interpolation_hand_value(self):
        # predicted at {0, 0.5, 1}; reference asks for 0.25 -> midpoint
        ref = _profile([0, 0.25, 0.5, 1], [0, 10, 20, 40])
        pred = _profile([0, 0.5, 1], [0, 30, 60])
        pair = align_profiles(ref, pred)
        assert pair.predicted.tolist() == [0, 15, 30, 60]

    def test_no_overlap(self):
        ref = _profile([5, 6], [80, 90])
        pred = _profile([0, 1], [0, 50])
        with pytest.raises(ValidationError, match="overlap"):
            align_profiles(ref, pred)

    def test_no_extrapolation(self):
        # reference extends beyond prediction; grid is restricted
        ref = _profile([0, 1, 2, 6], [0, 40, 70, 100])
        pred = _profile([0, 2], [0, 66])
        pair = align_profiles(ref, pred)
        assert pair.times_hr.tolist() == [0, 1, 2]

    def test_alignment_idempotent(self):
        ref = _profile([0, 0.5, 1, 2], [0, 30, 55, 80])
        pred = _profile([0, 0.4, 1.5, 2], [0, 20, 70, 85])
        once = align_profiles(ref, pred)
        again = align_profiles(_profile(once.times_hr, once.reference),
                               _profile(once.times_hr, once.predicted))
        assert np.array_equal(once.predicted, again.predicted)
        assert np.array_equal(once.times_hr, again.times_hr)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        times = np.array([0, 0.25, 0.5, 1, 2, 4])
        ref_vals = np.array([0, 20, 35, 55, 80, 95.0])
        pred_vals = ref_vals * 0.9
        order = rng.permutation(times.size)
        ref_shuffled = DissolutionProfile(times[order], ref_vals[order])
        pred_shuffled = DissolutionProfile(times[order], pred_vals[order])
        straight = profile_metrics(_profile(times, ref_vals), _profile(times, pred_vals))
        shuffled = profile_metrics(ref_shuffled, pred_shuffled)
        assert straight == shuffled


class TestMetrics:
    def test_mse_identity(self):
        pair = align_profiles(_profile([0, 1, 2], [0, 50, 100]),
                              _profile([0, 1, 2], [0, 50, 100]))
        assert mse(pair) == 0.0
        assert r_squared(pair) == 1.0

    def test_hand_computed_values(self):
        # y = [0, 50, 100], yhat = [0, 40, 100]: MSE = 100/3, R^2 = 0.98
        pair = align_profiles(_profile([0, 1, 2], [0, 50, 100]),
                              _profile([0, 1, 2], [0, 40, 100]))
        assert mse(pair) == pytest.approx(100.0 / 3.0, rel=1e-15)
        assert r_squared(pair) == pytest.approx(0.98, rel=1e-15)

    def test_r2_can_be_negative(self):
        pair = align_profiles(_profile([0, 1, 2], [0, 50, 100]),
                              _profile([0, 1, 2], [100, 0, 50]))
        assert r_squared(pair) < 0.0

    def test_degenerate_reference(self):
        pair = align_profiles(_profile([0, 1, 2], [50, 50, 50]),
                              _profile([0, 1, 2], [0, 40, 100]))
        with pytest.raises(ValidationError, match="zero variance"):
            r_squared(pair)

    def test_mse_nonnegative_r2_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            times = np.sort(rng.choice(np.arange(0, 100), size=n, replace=False)) / 10.0
            ref = rng.uniform(0, 100, n)
            if np.allclose(ref, ref[0]):
                continue
            pred = rng.uniform(0, 100, n)
            pair = align_profiles(DissolutionProfile(times, ref),
                                  DissolutionProfile(times, pred))
            assert mse(pair) >= 0.0
            assert r_squared(pair) <= 1.0

    def test_r2_is_one_iff_mse_zero(self):
        pair = align_profiles(_profile([0, 1, 2], [0, 50, 100]),
                              _profile([0, 1, 2], [0, 50, 100]))
        assert mse(pair) == 0.0 and r_squared(pair) == 1.0
        pair2 = align_profiles(_profile([0, 1, 2], [0, 50, 100]),
                               _profile([0, 1, 2], [0, 50.001, 100]))
        assert mse(pair2) > 0.0 and r_squared(pair2) < 1.0


def simulated_dataset(drug, sphere, conditions, d50s=(45.0, 97.5, 200.0)):
    """Records whose measured profiles are the simulator's own output."""
    records = []
    for d50 in d50s:
        psd = psd_from_lognormal(d50, 1.5, 50)
        profile = simulate_dissolution(drug, sphere, psd, conditions)
        records.append(FormulationRecord(
            id=f"sim-d50-{d50:g}",
            features=FormulationInput(d50_um=d50),
            profile=profile,
            provenance="simulated",
            source="forward simulation",
        ))
    return records


class TestBenchmark:
    def test_mock_closure(self, drug, sphere, conditions):
        # Reference data and the mock backend share the simulator, so every
        # strategy must score an essentially perfect fit.
        dataset = simulated_dataset(drug, sphere, conditions)
        client = LLMClient(backend=MockBackend(), sleep=lambda s: None)
        result = run_benchmark(dataset, client=client)
        assert [row.strategy for row in result.report.rows] == list(STRATEGY_ORDER)
        for row in result.report.rows:
            assert row.evaluable
            assert row.mse <= 1e-6
            assert row.r2 >= 0.999999
            assert row.n_parse_failures == 0

    def test_replay_determinism(self, drug, sphere, conditions, tmp_path):
        dataset = simulated_dataset(drug, sphere, conditions, d50s=(45.0, 97.5))
        recorder = TranscriptRecorder(tmp_path / "t.jsonl")
        live = LLMClient(backend=MockBackend(), recorder=recorder, sleep=lambda s: None)
        first = run_benchmark(dataset, client=live)

        replay = ReplayBackend.from_jsonl(tmp_path / "t.jsonl")
        second = run_benchmark(dataset, client=LLMClient(backend=replay, sleep=lambda s: None))
        third = run_benchmark(dataset, client=LLMClient(backend=replay, sleep=lambda s: None))
        assert second.report == third.report
        assert second.report.to_json() == third.report.to_json()
        assert first.report.rows == second.report.rows

    def test_unevaluable_strategy_not_fatal(self, drug, sphere, conditions):
        dataset = simulated_dataset(drug, sphere, conditions, d50s=(45.0,))

        class GarbageBackend:
            tag = "mock"

            def respond(self, prompt):
                return "no table here at all", None

        result = run_benchmark(dataset, client=LLMClient(backend=GarbageBackend(),
                                                         sleep=lambda s: None),
                               strategies=("ZS",))
        row, = result.report.rows
        assert not row.evaluable
        assert row.n_parse_failures == 1
        assert "unevaluable" in row.notes

    def test_report_formats(self, drug, sphere, conditions):
        dataset = simulated_dataset(drug, sphere, conditions, d50s=(45.0, 97.5))
        client = LLMClient(backend=MockBackend(), sleep=lambda s: None)
        result = run_benchmark(dataset, client=client, strategies=("ZS", "RAG"))
        text = result.report.to_text()
        assert "strategy" in text and "ZS" in text and "RAG" in text
        csv_text = result.report.to_csv()
        assert csv_text.splitlines()[0].startswith("strategy,mse_pct2")
        json_text = result.report.to_json()
        assert '"strategy": "ZS"' in json_text
        residuals = result.residuals_csv()
        assert residuals.splitlines()[0] == \
            "strategy,record_id,time_hr,reference_pct,predicted_pct,residual_pct"
        assert len(residuals.splitlines()) > 1

    def test_single_record_dataset_marks_example_strategies_unevaluable(
            self, drug, sphere, conditions):
        # Leave-one-out on one record leaves nothing to show as an example.
        dataset = simulated_dataset(drug, sphere, conditions, d50s=(45.0,))
        client = LLMClient(backend=MockBackend(), sleep=lambda s: None)
        result = run_benchmark(dataset, client=client, strategies=("ZS", "FS", "RAG"))
        rows = {row.strategy: row for row in result.report.rows}
        assert rows["ZS"].evaluable
        assert not rows["FS"].evaluable
        assert not rows["RAG"].evaluable
        assert "no disjoint examples" in rows["FS"].notes

    @pytest.mark.parametrize("points", [[(3.5, 20.0)], [(0.0, 40.0), (1.0, 40.0)]])
    def test_unscorable_reference_raises_before_any_call(self, drug, sphere, conditions,
                                                         tmp_path, points):
        bad = FormulationRecord("bad", FormulationInput(d50_um=60.0),
                                DissolutionProfile(*np.transpose(points)))
        dataset = simulated_dataset(drug, sphere, conditions, d50s=(45.0,)) + [bad]
        recorder = TranscriptRecorder(tmp_path / "t.jsonl")
        client = LLMClient(backend=MockBackend(), recorder=recorder, sleep=lambda s: None)
        with pytest.raises(ValidationError, match="record 'bad'"):
            run_benchmark(dataset, client=client)
        assert recorder.records == [] and not (tmp_path / "t.jsonl").exists()


class FakeTransport:
    """In-process chat-completions endpoint: answers with the mock oracle's
    response after a fixed latency and counts concurrent calls."""

    def __init__(self, status=200, latency_s=0.02):
        self.status = status
        self.latency_s = latency_s
        self.calls = 0
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._oracle = MockBackend()

    def __call__(self, url, headers, payload, timeout):
        with self._lock:
            self.calls += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.latency_s)
            if self.status != 200:
                return self.status, "bad request"
            prompt = SimpleNamespace(rendered=payload["messages"][0]["content"])
            text, _ = self._oracle.respond(prompt)
            return 200, json.dumps({"choices": [{"message": {"content": text}}]})
        finally:
            with self._lock:
                self.active -= 1


class TestConcurrentBenchmark:
    API_KEY_ENV = "FORMUKIT_TEST_KEY"

    def _run(self, dataset, transport, max_inflight, recorder=None):
        config = LLMConfig(max_inflight=max_inflight, api_key_env=self.API_KEY_ENV,
                           max_retries=0)
        client = LLMClient(config=config, backend=LiveBackend(config, transport=transport),
                           recorder=recorder, sleep=lambda s: None)
        return run_benchmark(dataset, client=client)

    def test_reports_identical_across_max_inflight(self, drug, sphere, conditions,
                                                   monkeypatch):
        monkeypatch.setenv(self.API_KEY_ENV, "offline")
        dataset = simulated_dataset(drug, sphere, conditions)
        closure = run_benchmark(dataset, client=LLMClient(backend=MockBackend(),
                                                          sleep=lambda s: None))
        results = {}
        for max_inflight in (1, 4):
            transport = FakeTransport()
            recorder = TranscriptRecorder()
            results[max_inflight] = self._run(dataset, transport, max_inflight, recorder)
            assert transport.calls == len(recorder.records) == len(STRATEGY_ORDER) * len(dataset)
            if max_inflight == 1:
                assert transport.peak == 1
            else:
                assert 1 < transport.peak <= 4
        for result in results.values():
            assert result.report.to_json() == closure.report.to_json()
            assert result.report.to_csv() == closure.report.to_csv()
            assert result.residuals_csv() == closure.residuals_csv()

    def test_transport_error_propagates_and_stops_calls(self, drug, sphere, conditions,
                                                        monkeypatch):
        monkeypatch.setenv(self.API_KEY_ENV, "offline")
        dataset = simulated_dataset(drug, sphere, conditions)
        transport = FakeTransport(status=400)
        with pytest.raises(TransportError, match="HTTP 400"):
            self._run(dataset, transport, 4)
        calls = transport.calls
        # Every call fails, so none starts after the first round of four.
        assert calls <= 4
        assert transport.active == 0
        time.sleep(0.1)
        assert transport.calls == calls

    def test_a_failed_call_is_raised_whichever_call_fails_first(self, drug, sphere, conditions):
        # A later call may fail before the first one starts; reading the first
        # future must still raise that failure, not CancelledError, which the
        # CLI does not catch. A short switch interval makes that order likely.
        class Failing:
            tag = "live"

            def respond(self, prompt):
                raise TransportError("HTTP 400: bad request")

        dataset = simulated_dataset(drug, sphere, conditions)
        config = LLMConfig(max_inflight=8, max_retries=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5.0
            for _ in range(1000):
                client = LLMClient(config=config, backend=Failing(), sleep=lambda s: None)
                with pytest.raises(TransportError, match="HTTP 400"):
                    run_benchmark(dataset, client=client)
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)
