import collections
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np
import pytest

from formukit.types import (
    DEFAULT_OUTPUT_GRID_HR,
    HYDROCHLOROTHIAZIDE,
    DissolutionConditions,
    DissolutionProfile,
    FormulationInput,
    ParticleMorphology,
)


@pytest.fixture
def drug():
    return HYDROCHLOROTHIAZIDE


@pytest.fixture
def sphere():
    return ParticleMorphology()


@pytest.fixture
def conditions():
    return DissolutionConditions()


@pytest.fixture
def quiescent_sink():
    # No agitation (Sh = 2 exactly) and forced sink: the regime with a
    # closed-form solution.
    return DissolutionConditions(paddle_rpm=0.0, sink_override=True)


@pytest.fixture
def grid():
    return DEFAULT_OUTPUT_GRID_HR


@pytest.fixture
def reference_input():
    # The worked example input used across the bundled templates and docs.
    return FormulationInput(
        d50_um=97.5,
        aspect_ratio=1.0,
        roundness=1.0,
        solubility_mg_ml=0.45,
        diffusivity_m2_s=7.5e-10,
        true_density_g_ml=1.512,
        ssa_m2_g=1.07,
        vol_eq_um=1.85,
    )


#: The three worked example records bundled with the package (features plus
#: measured release curves), keyed by D50.
EXAMPLE_FEATURES = {
    45.0: dict(d50_um=45.0, aspect_ratio=1.0, roundness=1.0, solubility_mg_ml=0.45,
               diffusivity_m2_s=7.5e-10, true_density_g_ml=1.512,
               ssa_m2_g=1.70, vol_eq_um=1.17),
    200.0: dict(d50_um=200.0, aspect_ratio=1.0, roundness=1.0, solubility_mg_ml=0.45,
                diffusivity_m2_s=7.5e-10, true_density_g_ml=1.512,
                ssa_m2_g=0.24, vol_eq_um=8.14),
    97.5: dict(d50_um=97.5, aspect_ratio=1.0, roundness=1.0, solubility_mg_ml=0.45,
               diffusivity_m2_s=7.5e-10, true_density_g_ml=1.512,
               ssa_m2_g=0.16, vol_eq_um=11.94),
}

EXAMPLE_PROFILES = {
    45.0: [(0, 0), (0.25, 85), (0.5, 87), (0.75, 88), (1, 89),
           (2, 89), (3, 89), (4, 88), (5, 87), (6, 87)],
    200.0: [(0, 0), (0.25, 12), (0.5, 20), (0.75, 28), (1, 35),
            (2, 52), (3, 63), (4, 71), (5, 75), (6, 82)],
    97.5: [(0, 0), (0.25, 32), (0.5, 40), (0.75, 56), (1, 60),
           (2, 72), (3, 76), (4, 80), (5, 82), (6, 87)],
}


@pytest.fixture
def example_records():
    from formukit.store import FormulationRecord

    records = []
    for d50 in (45.0, 200.0, 97.5):
        records.append(FormulationRecord(
            id=f"salish-d50-{str(d50).replace('.', 'p').removesuffix('p0')}",
            features=FormulationInput(**EXAMPLE_FEATURES[d50]),
            profile=DissolutionProfile(*np.transpose(EXAMPLE_PROFILES[d50])),
            provenance="experimental",
            source="Salish, K., So, C., Jeong, S. H., Hou, H. H. & Mao, C. "
                   "Pharm Res 41, 947-958 (2024)",
        ))
    return records


def analytic_release_pct(t_s, x0_m, drug):
    """Closed form for a monodisperse sphere under sink conditions with Sh = 2.

    x^2 decays linearly: x(t)^2 = x0^2 - 24*D*C_sat/rho_s * t, so released
    fraction is 1 - (1 - t/t_d)^(3/2) with t_d = x0^2*rho_s/(24*D*C_sat).
    Derived independently of the solver (separable ODE, checked by hand).
    """
    rho_s = drug.true_density_g_ml * 1000.0
    t_d = x0_m ** 2 * rho_s / (24.0 * drug.diffusivity_m2_s * drug.c_sat_mg_ml)
    t_s = np.asarray(t_s, dtype=float)
    frac = np.where(t_s >= t_d, 1.0, 1.0 - (1.0 - np.minimum(t_s, t_d) / t_d) ** 1.5)
    return 100.0 * frac, t_d


class _EndpointHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        from formukit.llm import MockBackend

        endpoint = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        endpoint.requests.append((self.path, self.headers, payload))
        try:
            status, body, *extra = endpoint.replies.popleft()
        except IndexError:
            answer, _ = MockBackend().respond(
                SimpleNamespace(rendered=payload["messages"][0]["content"]))
            status, body, extra = 200, json.dumps({"choices": [{"message": {"content": answer}}]}), ()
        endpoint.released.wait(endpoint.delay_s)
        data = body.encode("utf-8")
        self.send_response(status)
        for name, value in {"Content-Type": "application/json", **(extra[0] if extra else {})}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class LoopbackEndpoint(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1, to be served from a thread.

    Each POST takes the next of ``replies``, a ``(status, body)`` or
    ``(status, body, headers)``; with none queued it answers 200 with the
    mock backend's answer to the prompt, as a live model would. Each reply
    waits ``delay_s`` first, cut short once ``released`` is set. ``requests``
    holds each request's ``(path, headers, payload)``.
    """

    daemon_threads = False              # so that server_close() joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _EndpointHandler)
        host, port = self.server_address
        self.url = f"http://{host}:{port}/v1/chat/completions"
        self.replies = collections.deque()
        self.requests = []
        self.delay_s = 0.0
        self.released = threading.Event()

    def handle_error(self, request, client_address):
        pass                            # a client that timed out and left


@pytest.fixture
def endpoint(monkeypatch):
    """A running :class:`LoopbackEndpoint`, shut down with every thread and socket at teardown."""
    for name in ("http_proxy", "https_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)       # a proxy must not take loopback traffic
    server = LoopbackEndpoint()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.released.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
