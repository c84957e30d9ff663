"""Chat-completions client with retries, transcripts and offline backends.

Three interchangeable backends sit behind one client:

* live    -- HTTP POST of {model, messages, temperature, max_tokens} to the
             configured endpoint, bearer token from the environment;
* mock    -- a deterministic physics oracle: parses the prompt's Input
             Format section, simulates the release curve with default
             conditions and a log-normal distribution around the given D50,
             and answers in the standard output JSON;
* replay  -- byte-identical responses looked up from stored transcripts,
             keyed by a content hash of the rendered prompt.

Every complete() call, including failures, appends a transcript record.
Mock and replay never touch the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .errors import ParseError, TransportError, ValidationError
from .prompts import PromptBundle, extract_section, parse_input_block, render_profile_json
from .store import append_jsonl, read_jsonl
from .types import DEFAULT_GEO_SIGMA, DEFAULT_N_BINS, DissolutionConditions, LLMConfig

#: First retry delay [s] and its growth per retry, before jitter.
BACKOFF_BASE_S = 1.0
BACKOFF_FACTOR = 2.0


def prompt_sha256(prompt: PromptBundle) -> str:
    return hashlib.sha256(prompt.rendered.encode("utf-8")).hexdigest()


@dataclass
class Transcript:
    """Verbatim record of one completion attempt."""

    prompt_sha256: str
    prompt: str
    response: str | None
    model: str
    backend: str                  # live | mock | replay
    started_at: float
    elapsed_s: float
    usage: dict | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class TranscriptRecorder:
    """Append-only JSONL sink for transcripts; safe for concurrent writers."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.records: list[Transcript] = []
        self._lock = threading.Lock()

    def record(self, transcript: Transcript) -> None:
        with self._lock:
            self.records.append(transcript)
            if self.path is not None:
                append_jsonl(self.path, transcript.to_dict())


class RetryableTransportFailure(TransportError):
    """Transient failure (connection error, timeout, 429 or 5xx)."""


def _urllib_transport(url: str, headers: dict, payload: dict,
                      timeout: float) -> tuple[int, str]:
    from http.client import HTTPException
    from urllib import request

    opener = request.OpenerDirector()     # http(s) only; no redirect, no raising on a status
    for handler in (request.ProxyHandler(), request.HTTPHandler(), request.HTTPSHandler()):
        opener.add_handler(handler)
    req = request.Request(url, json.dumps(payload).encode("utf-8"), method="POST",
                          headers={**headers, "User-Agent": f"formukit/{__version__}"})
    try:
        with opener.open(req, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8", "replace")
    except (OSError, HTTPException) as exc:     # URLError and timeouts included
        raise RetryableTransportFailure(f"transport failure: {exc}") from exc


class LiveBackend:
    """HTTP chat-completions backend; built only with an API key, so ``respond`` only posts."""

    tag = "live"

    def __init__(self, config: LLMConfig, transport=None):
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ValidationError(f"live backend requires the {config.api_key_env} environment variable")
        self.config = config
        self.headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        self.transport = transport if transport is not None else _urllib_transport

    def respond(self, prompt: PromptBundle) -> tuple[str, dict | None]:
        """The answer's text and usage; TransportError unless the body holds a string answer."""
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt.rendered}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        status, text = self.transport(self.config.base_url, self.headers, payload,
                                      self.config.timeout_s)
        if status == 429 or status >= 500:
            raise RetryableTransportFailure(f"HTTP {status}: {text[:200]}")
        if status >= 400:
            raise TransportError(f"HTTP {status}: {text[:200]}")
        try:
            body = json.loads(text)
            content = body["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError, RecursionError):     # not JSON, or no answer
            content = None
        if not isinstance(content, str):
            raise TransportError(f"unexpected response body: {text[:200]}")
        return content, body.get("usage")


class MockBackend:
    """Physics-oracle backend for offline runs.

    Parses the prompt's Input Format block, builds the default powder's
    log-normal distribution around the given D50, simulates release under
    default conditions on the standard grid and renders the output JSON.
    Responses are byte-deterministic for identical prompts.
    """

    tag = "mock"

    def __init__(self, conditions=None):
        self.conditions = conditions if conditions is not None else DissolutionConditions()

    def respond(self, prompt: PromptBundle) -> tuple[str, None]:
        from .dissolution import psd_from_lognormal, simulate_dissolution

        try:
            block = extract_section(prompt.rendered, "Input Format")
            features = parse_input_block(block)
        except ParseError as exc:
            raise ParseError(f"mock backend cannot read the prompt input: {exc}") from exc
        psd = psd_from_lognormal(features.d50_um, DEFAULT_GEO_SIGMA, DEFAULT_N_BINS)
        profile = simulate_dissolution(
            features.drug(), features.morphology(), psd, self.conditions)
        return render_profile_json(profile), None


class ReplayBackend:
    """Replays stored responses keyed by prompt content hash."""

    tag = "replay"

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ReplayBackend":
        """Responses from a transcript file; a torn final line is skipped."""
        responses = {}
        for row in read_jsonl(path):
            if not isinstance(row, dict) or not isinstance(row.get("prompt_sha256"), str):
                raise ValidationError(f"{path}: a line is not a transcript record")
            response = row.get("response")
            if not isinstance(response, (str, type(None))):
                raise ValidationError(f"{path}: a transcript response is not a string or null")
            if response is not None:
                responses[row["prompt_sha256"]] = response
        return cls(responses)

    def respond(self, prompt: PromptBundle) -> tuple[str, None]:
        digest = prompt_sha256(prompt)
        if digest not in self.responses:
            raise ValidationError(
                f"replay store has no transcript for prompt {digest[:12]}...")
        return self.responses[digest], None


class LLMClient:
    """Backend-agnostic completion client with retry and recording.

    Retries only transient transport failures, with exponential backoff
    (base 1 s, factor 2, multiplicative jitter). The client does not bound
    concurrent calls: ``run_benchmark``'s pool of ``max_inflight`` workers does.
    With no backend given it builds a ``LiveBackend``, which raises
    ValidationError unless the API key is set. The sleep function and jitter
    seed are injectable for tests.
    """

    def __init__(self, config: LLMConfig | None = None, backend=None,
                 recorder: TranscriptRecorder | None = None,
                 sleep=time.sleep, seed: int = 0):
        self.config = config if config is not None else LLMConfig()
        self.backend = backend if backend is not None else LiveBackend(self.config)
        self.recorder = recorder if recorder is not None else TranscriptRecorder()
        self._sleep = sleep
        self._rng = random.Random(seed)

    def complete(self, prompt: PromptBundle) -> Transcript:
        """Send one prompt; returns the transcript it records, the raw answer in ``response``."""
        digest = prompt_sha256(prompt)
        started = time.time()
        t0 = time.monotonic()
        attempt = 0
        while True:
            try:
                text, usage = self.backend.respond(prompt)
                break
            except RetryableTransportFailure as exc:
                if attempt >= self.config.max_retries:
                    self._record(digest, prompt, None, started, t0, error=str(exc))
                    raise TransportError(
                        f"retries exhausted after {attempt} retries: {exc}") from exc
                delay = BACKOFF_BASE_S * BACKOFF_FACTOR ** attempt * (0.5 + self._rng.random())
                self._sleep(delay)
                attempt += 1
            except Exception as exc:
                self._record(digest, prompt, None, started, t0, error=str(exc))
                raise
        return self._record(digest, prompt, text, started, t0, usage=usage)

    def _record(self, digest: str, prompt: PromptBundle, response: str | None,
                started: float, t0: float, usage: dict | None = None,
                error: str | None = None) -> Transcript:
        transcript = Transcript(
            prompt_sha256=digest,
            prompt=prompt.rendered,
            response=response,
            model=self.config.model,
            backend=getattr(self.backend, "tag", "live"),
            started_at=started,
            elapsed_s=time.monotonic() - t0,
            usage=usage,
            error=error,
        )
        self.recorder.record(transcript)
        return transcript


def make_backend(name: str, config: LLMConfig, *, replay_path=None, conditions=None):
    """Backend factory for the CLI: name is live, mock or replay."""
    if name == "live":
        return LiveBackend(config)
    if name == "mock":
        return MockBackend(conditions=conditions)
    if name == "replay":
        if replay_path is None:
            raise ValidationError("replay backend needs a transcript file")
        return ReplayBackend.from_jsonl(replay_path)
    raise ValidationError(f"unknown backend {name!r}")
