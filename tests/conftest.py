"""Shared fixtures: question factories, scripted backend builders, a local
OpenAI-compatible HTTP server (plain or TLS) and a raw-reply server."""

from __future__ import annotations

import datetime
import ipaddress
import json
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from tokenbudget.backend import ScriptedBackend, ScriptedBehavior, ScriptedEntry, ScriptedScenario
from tokenbudget.core import AnswerKind, Question


# Any JSON document the standard encoder writes, non-ASCII and lone
# surrogates, NaN and the infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


def make_question(
    qid: str = "q1",
    text: str = "A robe takes 2 bolts of blue fiber and half that much white fiber. How many bolts in total?",
    gold: str = "3",
    kind: AnswerKind = AnswerKind.NUMERIC,
    source: str = "fixture",
) -> Question:
    return Question(id=qid, text=text, gold_answer=gold, answer_kind=kind, source=source)


def behavior_from_curve(
    vanilla_tokens: int,
    curve: dict[int, tuple[int, bool]],
    vanilla_correct: bool = True,
    estimate: str | None = None,
    default: tuple[int, bool] | None = None,
) -> ScriptedBehavior:
    """Curve maps budget -> (observed output tokens, correct flag)."""
    return ScriptedBehavior(
        vanilla=ScriptedEntry(output_tokens=vanilla_tokens, correct=vanilla_correct),
        cost_curve={
            budget: ScriptedEntry(output_tokens=tokens, correct=ok)
            for budget, (tokens, ok) in curve.items()
        },
        estimate=ScriptedEntry(output_tokens=1, correct=True, text=estimate)
        if estimate is not None
        else None,
        default=ScriptedEntry(output_tokens=default[0], correct=default[1])
        if default is not None
        else None,
    )


def scripted_backend(
    question_behaviors: dict[Question, ScriptedBehavior],
    default_entry: ScriptedEntry | None = None,
    **kwargs,
) -> ScriptedBackend:
    scenario = ScriptedScenario(
        name="fixture",
        questions=list(question_behaviors),
        behaviors={q.id: b for q, b in question_behaviors.items()},
        default_entry=default_entry,
    )
    return ScriptedBackend(scenario, **kwargs)


@pytest.fixture
def rebound_question() -> Question:
    """Vanilla costs 256 tokens; halving probes show the cost rebound at 32."""
    return make_question(qid="rebound", text="What is 12 + 6 halved three times?", gold="18")


@pytest.fixture
def rebound_backend(rebound_question) -> ScriptedBackend:
    behavior = behavior_from_curve(
        vanilla_tokens=256,
        curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
        default=(300, False),
    )
    return scripted_backend({rebound_question: behavior})


@pytest.fixture
def fig_like_question() -> Question:
    return make_question(qid="fig1", text="How many eggs does Janet have left to sell?", gold="18")


@pytest.fixture
def fig_like_backend(fig_like_question) -> ScriptedBackend:
    """Vanilla 258 tokens; budget 50 costs 86, budget 10 rebounds to 157."""
    behavior = behavior_from_curve(
        vanilla_tokens=258,
        curve={50: (86, True), 10: (157, True)},
        estimate="50",
        default=(200, True),
    )
    return scripted_backend({fig_like_question: behavior})


# ---------------------------------------------------------------------------
# End-to-end fixture files for the CLI
# ---------------------------------------------------------------------------

DEMO_SCENARIO = {
    "name": "demo",
    "default_behavior": {"output_tokens": 40, "correct": False},
    "questions": [
        {
            "id": "rebound",
            "text": "A pot holds 12 liters and loses half overnight. How many liters remain after filling twice?",
            "gold_answer": "18",
            "answer_kind": "numeric",
            "behavior": {
                "vanilla": {"output_tokens": 256, "correct": True},
                "estimate": {"output_tokens": 1, "text": "50"},
                "budgets": {
                    "256": {"output_tokens": 130, "correct": True},
                    "128": {"output_tokens": 120, "correct": True},
                    "64": {"output_tokens": 70, "correct": True},
                    "50": {"output_tokens": 86, "correct": True},
                    "32": {"output_tokens": 90, "correct": True},
                },
            },
        },
        {
            "id": "mono",
            "text": "A train covers 36 km in 20 minutes. What is its speed in km per hour?",
            "gold_answer": "108",
            "answer_kind": "numeric",
            "behavior": {
                "vanilla": {"output_tokens": 256, "correct": True},
                "estimate": {"output_tokens": 1, "text": "64"},
                "budgets": {
                    "256": {"output_tokens": 130, "correct": True},
                    "128": {"output_tokens": 120, "correct": True},
                    "64": {"output_tokens": 70, "correct": True},
                    "32": {"output_tokens": 90, "correct": False},
                    "16": {"output_tokens": 95, "correct": False},
                },
            },
        },
        {
            "id": "wrong",
            "text": "How many prime numbers are even and greater than two?",
            "gold_answer": "0",
            "answer_kind": "numeric",
            "behavior": {
                "vanilla": {"output_tokens": 80, "correct": False},
            },
        },
    ],
}

DEMO_CONFIG = {
    "backend": {"kind": "scripted", "model_id": "scripted-v1"},
    "pricing": [{"model_id": "scripted-v1", "input_price": 0.15, "output_price": 0.60}],
    "sampling": {"temperature": 0.1, "seed": 1024, "max_candidates": 1},
    "concurrency": 2,
    "seed": 1024,
}


def write_demo_files(directory) -> tuple[str, str]:
    """Write the demo scenario and config under directory; returns their paths."""
    dataset_path = directory / "demo_dataset.json"
    dataset_path.write_text(json.dumps(DEMO_SCENARIO, indent=2))
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(DEMO_CONFIG, indent=2))
    return str(config_path), str(dataset_path)


# ---------------------------------------------------------------------------
# A local OpenAI-compatible endpoint
# ---------------------------------------------------------------------------


class _CountingServer(ThreadingHTTPServer):
    """Counts accepted connections and releases ``closed`` as each one ends."""

    def __init__(self, *args):
        super().__init__(*args)
        self.accepts = 0
        self.closed = threading.Semaphore(0)

    def get_request(self):
        request = super().get_request()
        self.accepts += 1
        return request

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


class _LocalServer:
    """A threaded server for ``handler`` on a free localhost port, over TLS
    when given a server-side ``tls`` context."""

    def __init__(self, handler, tls=None):
        self.server = _CountingServer(("127.0.0.1", 0), handler)
        self.scheme = "http"
        if tls is not None:
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
            self.scheme = "https"
        # A short poll interval lets shutdown() return in milliseconds, not 0.5 s.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address
        return f"{self.scheme}://{host}:{port}/v1/chat/completions"

    def shutdown(self):
        self.server.shutdown()
        self.server.server_close()


class ScriptedHTTPServer(_LocalServer):
    """An HTTP/1.1 keep-alive server replaying fixed responses; records requests.

    A response is (status, body) or (status, body, after): after ``"close"``
    the reply says ``Connection: close`` and the server closes the connection,
    after ``"drop"`` it closes the connection without saying so.
    """

    def __init__(self, responses, tls=None):
        self.responses = list(responses)
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                outer.requests.append(
                    {
                        "body": json.loads(self.rfile.read(length)),
                        "authorization": self.headers.get("Authorization"),
                        "path": self.path,
                        "host": self.headers.get("Host"),
                    }
                )
                status, body, *after = outer.responses.pop(0) if outer.responses else (200, "{}")
                payload = body if isinstance(body, str) else json.dumps(body)
                data = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                if after == ["close"]:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(data)
                if after == ["drop"]:
                    self.close_connection = True

            def log_message(self, *args):
                pass

        super().__init__(Handler, tls)


class RawReplyServer(_LocalServer):
    """Answers each request it reads with the next raw reply, byte for byte.

    A reply is bytes, or (bytes, "close") to close the connection after
    writing it; ``posts`` counts the requests read.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.posts = 0
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                try:
                    while self._read_request():
                        outer.posts += 1
                        reply = outer.replies.pop(0)
                        data, *after = (reply,) if isinstance(reply, bytes) else reply
                        self.wfile.write(data)
                        if after == ["close"]:
                            return
                except OSError:
                    # The client closed the connection with a reply unread.
                    return

            def _read_request(self) -> bool:
                length = 0
                while (line := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                self.rfile.read(length)
                return bool(line)

        super().__init__(Handler)


def _server_fixture(factory):
    servers = []

    def start(*args, **kwargs):
        server = factory(*args, **kwargs)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()


@pytest.fixture
def http_server():
    yield from _server_fixture(ScriptedHTTPServer)


@pytest.fixture
def raw_server():
    yield from _server_fixture(RawReplyServer)


@pytest.fixture(scope="session")
def tls_certificate(tmp_path_factory) -> tuple[str, str]:
    """A self-signed certificate for 127.0.0.1: (certificate path, key path)."""
    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    certificate = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName(
            [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    directory = tmp_path_factory.mktemp("tls")
    cert_path, key_path = directory / "cert.pem", directory / "key.pem"
    cert_path.write_bytes(certificate.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return str(cert_path), str(key_path)


def completion_payload(content="The answer is 18.", usage=True):
    """A chat-completions reply body with one choice and, optionally, its usage."""
    payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    if usage:
        payload["usage"] = {"prompt_tokens": 21, "completion_tokens": 86, "total_tokens": 107}
    return payload
