import json
from dataclasses import replace

import numpy as np
import pytest

from formukit.dissolution import psd_from_lognormal, simulate_dissolution
from formukit.errors import ParseError, TransportError, ValidationError
from formukit.llm import (
    LiveBackend,
    LLMClient,
    LLMConfig,
    MockBackend,
    ReplayBackend,
    RetryableTransportFailure,
    TranscriptRecorder,
    make_backend,
    prompt_sha256,
)
from formukit.prompts import PromptStrategy, build_prompt, parse_profile_response
from formukit.types import DissolutionConditions


def _client(backend, config=None, recorder=None, sleeps=None):
    return LLMClient(
        config=config or LLMConfig(),
        backend=backend,
        recorder=recorder or TranscriptRecorder(),
        sleep=(sleeps.append if sleeps is not None else (lambda s: None)),
    )


class TestMockBackend:
    def test_reference_input_matches_simulator(self, reference_input, drug, sphere):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        client = _client(MockBackend())
        result = client.complete(prompt)
        predicted = parse_profile_response(result.response)

        psd = psd_from_lognormal(reference_input.d50_um, 1.5, 50)
        expected = simulate_dissolution(drug, sphere, psd, DissolutionConditions())
        assert np.array_equal(predicted.times_hr, expected.times_hr)
        assert np.array_equal(predicted.released_pct, expected.released_pct)

    def test_ten_row_table_on_default_grid(self, reference_input):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        profile = parse_profile_response(_client(MockBackend()).complete(prompt).response)
        assert profile.n_points == 10
        assert profile.times_hr.tolist() == [0, 0.25, 0.5, 0.75, 1, 2, 3, 4, 5, 6]

    def test_deterministic(self, reference_input):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        client = _client(MockBackend())
        assert client.complete(prompt).response == client.complete(prompt).response

    def test_unparseable_prompt(self, reference_input):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        bundle = replace(
            prompt, rendered=prompt.rendered.replace('"Mean Particle Size, D50" : 97.5,', ""))
        with pytest.raises(ParseError, match="mock backend cannot read"):
            _client(MockBackend()).complete(bundle)


class TestRetries:
    def test_two_failures_then_success(self, reference_input, monkeypatch):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        calls = {"n": 0}

        def flaky(url, headers, payload, timeout):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RetryableTransportFailure("connection reset")
            return 200, json.dumps(
                {"choices": [{"message": {"content": "ok"}}], "usage": {"total_tokens": 5}})

        sleeps = []
        config = LLMConfig(max_retries=3)
        monkeypatch.setenv(config.api_key_env, "test-key")
        client = _client(LiveBackend(config, transport=flaky), config=config, sleeps=sleeps)
        result = client.complete(prompt)
        assert result.response == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]          # exponential growth dominates jitter

    def test_retries_exhausted(self, reference_input, monkeypatch):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)

        def always_down(url, headers, payload, timeout):
            raise RetryableTransportFailure("down")

        config = LLMConfig(max_retries=2)
        monkeypatch.setenv(config.api_key_env, "k")
        recorder = TranscriptRecorder()
        client = _client(LiveBackend(config, transport=always_down),
                         config=config, recorder=recorder)
        with pytest.raises(TransportError):
            client.complete(prompt)
        assert recorder.records[-1].error is not None

    def test_client_error_not_retried(self, reference_input, monkeypatch):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        calls = {"n": 0}

        def rejecting(url, headers, payload, timeout):
            calls["n"] += 1
            return 401, "unauthorized"

        config = LLMConfig(max_retries=3)
        monkeypatch.setenv(config.api_key_env, "k")
        client = _client(LiveBackend(config, transport=rejecting), config=config)
        with pytest.raises(TransportError, match="HTTP 4"):
            client.complete(prompt)
        assert calls["n"] == 1

    def test_429_is_retryable(self, reference_input, monkeypatch):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        calls = {"n": 0}

        def throttled(url, headers, payload, timeout):
            calls["n"] += 1
            if calls["n"] == 1:
                return 429, "slow down"
            return 200, json.dumps({"choices": [{"message": {"content": "later"}}]})

        config = LLMConfig()
        monkeypatch.setenv(config.api_key_env, "k")
        client = _client(LiveBackend(config, transport=throttled), config=config)
        assert client.complete(prompt).response == "later"

    def test_429_then_answer_over_http(self, reference_input, monkeypatch, endpoint):
        # the default transport, against a loopback endpoint
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        config = LLMConfig(base_url=endpoint.url, max_retries=1)
        monkeypatch.setenv(config.api_key_env, "k")
        endpoint.replies.extend([(429, "slow down"), (200, json.dumps(
            {"choices": [{"message": {"content": "later"}}], "usage": {"total_tokens": 7}}))])
        sleeps, recorder = [], TranscriptRecorder()
        client = _client(LiveBackend(config), config=config, recorder=recorder, sleeps=sleeps)
        assert client.complete(prompt).response == "later"
        assert len(sleeps) == 1 and len(endpoint.requests) == 2
        assert [(r.response, r.usage, r.error) for r in recorder.records] == [
            ("later", {"total_tokens": 7}, None)]

    def test_missing_key_is_validation_error(self, monkeypatch):
        # the key is read when the backend is built, so no call is made or recorded
        config = LLMConfig()
        monkeypatch.delenv(config.api_key_env, raising=False)
        with pytest.raises(ValidationError, match="environment variable"):
            LiveBackend(config)
        with pytest.raises(ValidationError, match="environment variable"):
            LLMClient(config)


class TestReplay:
    def test_byte_identical_replay(self, tmp_path, reference_input):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        recorder = TranscriptRecorder(tmp_path / "transcripts.jsonl")
        live_result = _client(MockBackend(), recorder=recorder).complete(prompt)

        replay = ReplayBackend.from_jsonl(tmp_path / "transcripts.jsonl")
        replay_result = _client(replay).complete(prompt)
        assert replay_result.response == live_result.response
        assert replay_result.backend == "replay"

    def test_torn_final_line_is_skipped(self, tmp_path, reference_input, caplog):
        path = tmp_path / "transcripts.jsonl"
        client = _client(MockBackend(), recorder=TranscriptRecorder(path))
        strategies = (PromptStrategy.ZS, PromptStrategy.ZS_CoT)
        prompts = [build_prompt(s, reference_input) for s in strategies]
        texts = [client.complete(p).response for p in prompts]
        path.write_bytes(path.read_bytes()[:-40])       # the last append cut short
        replay = ReplayBackend.from_jsonl(path)
        assert "truncated final line" in caplog.text
        assert _client(replay).complete(prompts[0]).response == texts[0]
        with pytest.raises(ValidationError):
            _client(replay).complete(prompts[1])

    @pytest.mark.parametrize("line", ['[1]', '{"response": "x"}', '{"prompt_sha256": 5}'])
    def test_non_transcript_line_is_a_validation_error(self, tmp_path, line):
        path = tmp_path / "transcripts.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            ReplayBackend.from_jsonl(path)

    def test_missing_transcript(self, reference_input):
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        with pytest.raises(ValidationError):
            _client(ReplayBackend({})).complete(prompt)


class TestTranscripts:
    def test_every_call_recorded(self, tmp_path, reference_input):
        path = tmp_path / "t.jsonl"
        recorder = TranscriptRecorder(path)
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        client = _client(MockBackend(), recorder=recorder)
        client.complete(prompt)
        client.complete(prompt)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert all(r["backend"] == "mock" for r in rows)
        assert all(r["prompt_sha256"] == prompt_sha256(prompt) for r in rows)
        assert rows[0]["response"] == rows[1]["response"]

    def test_failure_recorded(self, tmp_path, reference_input):
        path = tmp_path / "t.jsonl"
        recorder = TranscriptRecorder(path)
        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        broken = replace(prompt, rendered="### Role: ###\nnothing else")
        client = _client(MockBackend(), recorder=recorder)
        with pytest.raises(ParseError, match="mock backend cannot read"):
            client.complete(broken)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["response"] is None
        assert rows[0]["error"]


class TestOfflinePurity:
    def test_mock_and_replay_never_touch_transport(self, reference_input):
        hits = []

        def spy_transport(url, headers, payload, timeout):
            hits.append(url)
            return 200, "{}"

        prompt = build_prompt(PromptStrategy.ZS, reference_input)
        mock_client = LLMClient(backend=MockBackend(), sleep=lambda s: None)
        mock_client.complete(prompt)

        replay = ReplayBackend({prompt_sha256(prompt): "stored"})
        replay_client = LLMClient(backend=replay, sleep=lambda s: None)
        replay_client.complete(prompt)
        assert hits == []


class TestFactory:
    def test_make_backend(self, tmp_path, monkeypatch):
        config = LLMConfig()
        monkeypatch.setenv(config.api_key_env, "k")
        assert isinstance(make_backend("mock", config), MockBackend)
        assert isinstance(make_backend("live", config), LiveBackend)
        transcript = {"prompt_sha256": "ab", "response": "x"}
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(transcript) + "\n")
        assert isinstance(make_backend("replay", config, replay_path=path), ReplayBackend)
        with pytest.raises(ValidationError):
            make_backend("replay", config)
        with pytest.raises(ValidationError):
            make_backend("imaginary", config)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LLMConfig(temperature=-0.1)
        with pytest.raises(ValidationError):
            LLMConfig(max_inflight=0)
