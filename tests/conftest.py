"""Shared test backends and builders, and the one scripted loopback service.

``serve_http(answer)``, or the ``service`` fixture, serves every socket test:
HTTP/1.1 keep-alive on a loopback port, Nagle off, over TLS when given a
server context. ``answer`` maps each logged ``Request`` to a reply: a JSON
object, a (status, body) pair, ``Raw`` bytes, ``DRIP`` or ``NO_REPLY``.
"""

from __future__ import annotations

import itertools
import json
import re
import ssl
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import pytest

from ragvet import runtime
from ragvet.backends import ModelRequest, ModelResponse, ReplayEntry, ReplayModelBackend
from ragvet.core import MAX_TURN_BUDGET_MS, ChunkRef, RetrievedItem, ScoredChunk, Source
from ragvet.evaluation import MetricsReport, MockJudge, ground_truths, score_answers
from ragvet.pipeline import run_conversation
from ragvet.runtime import Deadline
from ragvet.templates import load_all

FIXTURES = Path(__file__).parent / "fixtures"

# A leaked socket or file fails the test that leaked it, not only a run under
# ``python -X dev``. So does a DeprecationWarning that ragvet code triggers: an
# API deprecated in one Python version is gone a few later. The filters are
# set here rather than in pyproject.toml so that they cover this suite only.
WARNING_CHECKS = (
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
    r"error::DeprecationWarning:ragvet(\.|$)",
)


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    suite = Path(__file__).parent
    for item in items:
        if suite in item.path.parents:
            for check in WARNING_CHECKS:
                item.add_marker(pytest.mark.filterwarnings(check))


class Raw:
    """A reply written as it is: its byte parts sent 50 ms apart, then a
    hang-up if ``close``."""

    def __init__(self, *parts: bytes, close: bool = False) -> None:
        self.parts = parts
        self.close = close


# A reply body, a whole reply that carries it, and raw replies that each break
# one rule of a reply, by name. The wrong shape has neither a completion's
# "text", nor rerank "scores", nor search "results".
BODY = b'{"text": "hi"}'
OK = b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n" + BODY
BAD_REPLIES = {
    "closed-mid-body": Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n" + BODY, close=True),
    "status-500": Raw(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\nboom"),
    "not-an-object": Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]"),
    "wrong-shape": Raw(b'HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{"wrong": 1}'),
    "status-line": Raw(b"ICY 200 OK\r\nContent-Length: 14\r\n\r\n" + BODY),
    "header-line": Raw(b"HTTP/1.1 200 OK\r\nContent-Length 14\r\n\r\n" + BODY),
    "5000-digit-length": Raw(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000
                             + b"\r\n\r\n" + BODY),
}
# One byte of a 40-byte body every 250 ms, until the caller hangs up.
DRIP = "drip"
# Nothing, until the caller hangs up.
NO_REPLY = "no reply"


@dataclass(frozen=True)
class Request:
    """One request as the service read it: ``raw`` holds its exact bytes, head
    then body, and ``connection`` numbers the connection it came on."""

    path: str
    headers: Message
    body: Any
    raw: bytes
    connection: int


class _Recording:
    """A request stream that keeps the bytes read from it until ``take``."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.kept = bytearray()

    def readline(self, limit: int = -1) -> bytes:
        line = self.stream.readline(limit)
        self.kept += line
        return line

    def read(self, size: int = -1) -> bytes:
        data = self.stream.read(size)
        self.kept += data
        return data

    def take(self) -> bytes:
        data = bytes(self.kept)
        self.kept.clear()
        return data

    def close(self) -> None:
        self.stream.close()


class _Service(BaseHTTPRequestHandler):
    """Logs each request and sends the reply its server's ``answer`` maps it to."""

    protocol_version = "HTTP/1.1"
    # Without this each reply's body waits on the caller's delayed ACK.
    disable_nagle_algorithm = True
    # How long an idle connection, a drip or a request left with no reply
    # waits on a caller that does not hang up.
    timeout = 5

    def setup(self) -> None:
        super().setup()
        self.rfile = _Recording(self.rfile)
        self.number = next(self.server.connection_numbers)

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        request = Request(self.path, self.headers, body, self.rfile.take(), self.number)
        self.server.requests.append(request)
        reply = self.server.answer(request)
        if isinstance(reply, dict):
            reply = (200, json.dumps(reply).encode("utf-8"))
        if isinstance(reply, tuple):
            status, data = reply
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        self.close_connection = True
        if isinstance(reply, Raw):
            for i, part in enumerate(reply.parts):
                if i:
                    time.sleep(0.05)
                self.wfile.write(part)
            self.close_connection = reply.close
        elif reply == DRIP:
            self.send_response(200)
            self.send_header("Content-Length", "40")
            self.end_headers()
            try:
                for _ in range(40):
                    self.wfile.write(b" ")
                    time.sleep(0.25)
            except OSError:  # the caller gave up and hung up
                pass
        else:
            assert reply == NO_REPLY, reply
            try:
                self.connection.recv(1)  # b"" once the caller hangs up
            except OSError:
                pass

    def log_message(self, *args) -> None:  # keep test output quiet
        pass


class LoopbackServer(ThreadingHTTPServer):
    """The scripted service on a loopback port: each request is logged in
    ``requests`` and answered with ``answer(request)``."""

    request_queue_size = 64  # room for many callers connecting at once

    def __init__(self, answer: Callable[[Request], Any],
                 tls: Optional[ssl.SSLContext] = None) -> None:
        super().__init__(("127.0.0.1", 0), _Service)
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        scheme = "http" if tls is None else "https"
        self.url = f"{scheme}://127.0.0.1:{self.server_address[1]}"
        self.answer = answer
        self.requests: list[Request] = []
        self.connection_numbers = itertools.count()

    @property
    def connections(self) -> int:
        """How many connections carried a request."""
        return len({request.connection for request in self.requests})


@contextmanager
def serve_http(answer: Callable[[Request], Any],
               tls: Optional[ssl.SSLContext] = None) -> Iterator[LoopbackServer]:
    """Serve ``answer`` on a loopback port until the block ends, over TLS
    when ``tls`` is a server context."""
    server = LoopbackServer(answer, tls)
    # Shutting down waits for the next poll; most tests start a service of their own.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture
def service() -> Iterator[Callable[..., LoopbackServer]]:
    """``service(answer, tls=None)`` serves ``answer`` until the test ends."""
    with ExitStack() as stack:
        yield lambda answer, tls=None: stack.enter_context(serve_http(answer, tls))


def scripted_model(*entries: dict) -> ReplayModelBackend:
    """Build a replay backend from entry dicts in the replay-file format."""
    return ReplayModelBackend([ReplayEntry.from_dict(entry, f"scripted[{i}]")
                               for i, entry in enumerate(entries)])


class CountingModel:
    """Wraps a model backend and keeps every request, and its role, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[str] = []
        self.requests: list[ModelRequest] = []

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        self.calls.append(request.role.value)
        self.requests.append(request)
        return self.inner.complete(request, deadline)


class HonestConsistencyJudge:
    """Answers yes iff the two proposed answers in the prompt are equal.

    Parses the judge prompt itself, so it holds the contract that identical
    answers always come back consistent.
    """

    _ANSWER_1 = re.compile(r"## Proposed Answer 1:\n\n(.*?)\n\n## Proposed Answer 2:", re.DOTALL)
    _ANSWER_2 = re.compile(r"## Proposed Answer 2:\n\n(.*?)\n\n## Your Task:", re.DOTALL)

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        first = self._ANSWER_1.search(request.user)
        second = self._ANSWER_2.search(request.user)
        assert first and second, "consistency prompt shape changed"
        verdict = "yes" if first.group(1) == second.group(1) else "no"
        return ModelResponse(text=verdict)


def score_variant(mode: str, dataset, cfg, backends) -> MetricsReport:
    """The metrics ``eval --judge mock`` reports for a ``run --variant <mode>``
    trace: every conversation run under the variant, its answers scored by
    ``score_answers``."""
    templates = load_all(cfg.prompt_paths)
    answers = [(outcome.conversation_id, outcome.turn_index, outcome.final.answer)
               for conversation in dataset
               for outcome in run_conversation(conversation, cfg, backends, templates, mode)]
    return score_answers(answers, ground_truths(dataset), MockJudge(), cfg.abstain_text)[0]


def web_item(snippet: str, rank: int = 1, title: str = "t", url: str = "https://x.test/") -> RetrievedItem:
    return RetrievedItem(
        source=Source.WEB,
        fields={"title": title, "url": url, "snippet": snippet, "last_updated": "2025-01-01"},
        recall_rank=rank,
    )


def kg_item(description: str, rank: int = 1, **extra: str) -> RetrievedItem:
    return RetrievedItem(
        source=Source.KG_IMAGE, fields={"description": description, **extra}, recall_rank=rank
    )


def chunk(text: str, score: float, rank: int = 1) -> ScoredChunk:
    parent = ChunkRef(item=web_item(text, rank=rank), field="snippet")
    return ScoredChunk(text=text, parent=parent, score=score)


def day_deadline() -> Deadline:
    """A deadline a day away, the longest turn budget: a test's stand-in for
    no deadline, which a ``Deadline`` cannot be."""
    return Deadline.after_ms(MAX_TURN_BUDGET_MS)


@pytest.fixture
def no_deadline() -> Deadline:
    return day_deadline()


class VirtualClock:
    """Stands in for ``runtime.clock``: time starts at 0 and moves only when
    a thread waits, straight to the moment it waits for, and ``wait_until``
    returns at once.

    Each thread keeps its own time. ``runtime.Worker`` hands time over with
    every hand-off: a worker call starts at its submitter's time, and a
    thread that waits for the call moves on to the time it finished. So a
    thread's time is the time its own work and the calls it waited for took,
    and every stage timing is exact however many threads wait.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def now(self) -> float:
        return getattr(self._local, "now", 0.0)

    def wait_until(self, moment: float) -> None:
        self._local.now = max(self.now(), moment)


@pytest.fixture
def virtual_clock(monkeypatch) -> VirtualClock:
    """Runs the test on a ``VirtualClock``: deadlines, stage timings, the turn
    wall clock, scripted waits and waits on the per-turn worker all read it."""
    clock = VirtualClock()
    monkeypatch.setattr(runtime, "clock", clock)
    return clock


@pytest.fixture
def tls_context_calls(monkeypatch, tmp_path) -> list[tuple]:
    """The calls made to ``ssl.create_default_context`` from here on.

    ``SSL_CERT_DIR`` is set to this test's own directory first, so the trust
    settings are ones no earlier test built a context under.
    """
    monkeypatch.setenv("SSL_CERT_DIR", str(tmp_path))
    calls: list[tuple] = []
    create = ssl.create_default_context

    def counting(*args, **kwargs):
        calls.append(args)
        return create(*args, **kwargs)

    monkeypatch.setattr(ssl, "create_default_context", counting)
    return calls
