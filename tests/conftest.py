"""Shared test backends and builders: the one scripted loopback service, the
one in-process backend tap, and the turn-call vocabulary that both share.

``serve_http(answer)``, or the ``service`` fixture, serves every socket test:
HTTP/1.1 keep-alive on a loopback port, Nagle off, over TLS when given a
server context. ``answer`` maps each logged ``Request`` to a reply: a JSON
object, a (status, body) pair, ``Raw`` bytes, ``DRIP`` or ``NO_REPLY``.

``tap(inner, answer)`` is its in-process twin: it wraps a model, reranker,
search backend or judge, logs each ``Call`` and answers it with
``answer(call)``: None passes it on to ``inner``, ``STALL`` waits out its
deadline, an exception is raised, and any other value is the reply.

A ``Request`` and a ``Call`` are named alike, by ``call_name``: one of
``TURN_CALLS``, so one fault schedule reads the same over sockets and in
process.
"""

from __future__ import annotations

import itertools
import json
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
from ragvet.backends import (
    BackendTimeout,
    Backends,
    EmptyCompletionError,
    MockRerankerBackend,
    ModelRequest,
    ModelResponse,
    ReplayEntry,
    ReplayModelBackend,
    Role,
    SearchFixture,
)
from ragvet.core import (
    MAX_TURN_BUDGET_MS,
    ChunkRef,
    QueryTurn,
    RetrievedItem,
    ScoredChunk,
    Source,
)
from ragvet.evaluation import MetricsReport, MockJudge, ground_truths, score_answers
from ragvet.pipeline import ConversationState, run_conversation
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


# A test on the virtual clock waits no real time, so one that spends more
# than this many seconds of it waits somewhere that bypasses runtime.clock.
VIRTUAL_CLOCK_REAL_S = 1.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item) -> Iterator[None]:
    """Fail a test that takes the ``virtual_clock`` fixture and spends more
    than ``VIRTUAL_CLOCK_REAL_S`` of real time, naming it."""
    if "virtual_clock" not in getattr(item, "fixturenames", ()):
        return (yield)
    started = time.monotonic()
    result = yield
    spent = time.monotonic() - started
    if spent > VIRTUAL_CLOCK_REAL_S:
        pytest.fail(f"{item.nodeid} spent {spent:.2f} s of real time on the virtual clock")
    return result


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

    @property
    def name(self) -> str:
        """Its ``TURN_CALLS`` name: the path is ``/model``, ``/rerank`` or
        ``/web_search``."""
        role = self.body.get("role")
        return call_name(self.path.strip("/"), role and Role(role), self.body.get("user", ""))


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


# The turn-call vocabulary. Each call a turn makes is named after its stage,
# but the generator's two, the RAG answer and the direct answer, and the two
# searches, which are named after their methods.
TURN_CALLS = ("route", "summarize", "image_search", "web_search", "rerank", "rag", "direct",
              "consistency", "verify")
# The stage of each model call but the generator's, by its role.
ROLE_STAGES = {Role.ROUTER: "route", Role.SUMMARIZER: "summarize",
               Role.CONSISTENCY_JUDGE: "consistency", Role.VERIFIER: "verify"}
# The stage of each call that is not named after its stage.
DRAWN_STAGES = {"web_search": "recall", "image_search": "recall", "rag": "generate",
                "direct": "generate"}
# Each stage whose backend call may fail: the flag a timeout sets, then the
# flag any other backend error sets (the README's "Degradation flags").
FAILURE_FLAGS = {
    "route": ("router_backend_timeout", "router_backend_error"),
    "summarize": ("summary_backend_timeout", "summary_backend_error"),
    "recall": ("recall_backend_error", "recall_backend_error"),
    "rerank": ("rerank_backend_error", "rerank_backend_error"),
    "generate": ("generation_timeout", "generation_backend_error"),
    "consistency": ("consistency_backend_timeout", "consistency_backend_error"),
    "verify": ("cov_backend_timeout", "cov_backend_error"),
}


def call_name(kind: str, role: Optional[Role], user: str) -> str:
    """The ``TURN_CALLS`` name of a call: ``kind`` is the backend method a
    tapped call took, or the service a loopback ``Request`` came to;
    ``role`` and ``user`` are a model request's. A judge's call is ``judge``."""
    if kind not in ("complete", "model"):
        return "rerank" if kind == "score_batch" else kind
    if role is Role.GENERATOR:
        return "rag" if "Context:" in user else "direct"
    return ROLE_STAGES.get(role, role.value)


# A tap's answer that waits out the call's deadline on ``runtime.clock`` and
# then raises BackendTimeout, as a backend that never replies does.
STALL = object()


@dataclass
class Call:
    """One call a ``tap`` took. ``user`` is a model request's user text, else
    the call's first argument: a query, an image key or a judged answer.
    ``left_ms`` is what its deadline had left, None for a call without one;
    ``returned`` is how many calls the tap had taken when it returned."""

    method: str
    args: tuple
    name: str
    role: Optional[Role]
    user: str
    left_ms: Optional[float]
    thread: str
    returned: Optional[int] = None


class tap:
    """Wraps a model, reranker, search backend or judge ``inner``: each call
    of a backend method is logged in ``calls``, then answered with
    ``answer(call)``. None passes the call on to ``inner``; ``STALL`` waits
    out its deadline; an exception is raised; a string a model call gets is
    a completion, and ``""`` fails as a remote model's empty one does; any
    other value is the reply. Every other attribute is ``inner``'s."""

    METHODS = ("complete", "score_batch", "web_search", "image_search", "judge")

    def __init__(self, inner: Any, answer: Callable[[Call], Any] = lambda call: None) -> None:
        self.inner, self.answer = inner, answer
        self.calls: list[Call] = []

    @property
    def requests(self) -> list[ModelRequest]:
        """The request of each model call, in order."""
        return [call.args[0] for call in self.calls if call.method == "complete"]

    def __getattr__(self, name: str) -> Any:
        if name not in self.METHODS:
            return getattr(self.inner, name)
        return lambda *args: self._take(name, args)

    def _take(self, method: str, args: tuple) -> Any:
        role = args[0].role if method == "complete" else None
        user = args[0].user if method == "complete" else args[0]
        deadline = args[-1] if isinstance(args[-1], Deadline) else None
        call = Call(method, args, call_name(method, role, user), role, user,
                    None if deadline is None else deadline.remaining_ms(),
                    threading.current_thread().name)
        self.calls.append(call)
        try:
            reply = self.answer(call)
            if reply is None:
                return getattr(self.inner, method)(*args)
            if reply is STALL:
                runtime.clock.wait_until(runtime.clock.now() + deadline.remaining_ms() / 1000.0)
                raise BackendTimeout(f"{call.name} outlasted its deadline")
            if isinstance(reply, BaseException):
                raise reply
            if method != "complete" or not isinstance(reply, str):
                return reply
            if not reply:
                raise EmptyCompletionError(f"empty completion for {call.name}")
            return ModelResponse(text=reply)
        finally:
            call.returned = len(self.calls)


ROUTE_PLAIN = "1. Needs External Info: yes\n2. Is Real-Time: no"
ROUTE_NONE = "1. Needs External Info: no\n2. Is Real-Time: no"
ROUTE_REAL_TIME = "1. Needs External Info: yes\n2. Is Real-Time: yes"
COV_FULL = "CONFIDENCE: 1.0\nREASONING: grounded in [Info 1]."
# The packaged templates, which every PipelineConfig() of a test uses.
TEMPLATES = load_all({})


def turn_script(query, *, routing=ROUTE_PLAIN, summary="summary tokens", rag="rag answer",
                direct=None, consistent="yes", cov=COV_FULL, rag_sleep_ms=0):
    """The replay script of one turn for ``query``: each role answers as given."""
    return [
        {"role": Role.ROUTER, "match": query, "response": routing},
        {"role": Role.SUMMARIZER, "match": query, "response": summary},
        {"role": Role.GENERATOR, "match": ["Context:", query], "response": rag,
         "sleep_ms": rag_sleep_ms},
        {"role": Role.GENERATOR, "match": query, "response": direct or rag},
        {"role": Role.CONSISTENCY_JUDGE, "match": query, "response": consistent},
        {"role": Role.VERIFIER, "match": query, "response": cov},
    ]


def image_fixture(image_key, query, summary="summary tokens"):
    """One KG record whose description matches the expanded query exactly."""
    description = f"{query} {summary}"
    return SearchFixture(image_index={image_key: ({"description": description},)}, web_index=())


def make_backends(entries, fixture=None, answer=lambda call: None) -> Backends:
    """The backends of a replay script and a search fixture (an empty one if
    none), each tapped with ``answer``; the router and the VLM share one tap."""
    model = tap(scripted_model(*entries), answer)
    search = tap(fixture or SearchFixture(image_index={}, web_index=()), answer)
    return Backends(router_model=model, vlm=model, reranker=tap(MockRerankerBackend(), answer),
                    search=search)


def one_turn(query):
    return QueryTurn(conversation_id="c1", turn_index=0, query=query)


def fresh_state(image_ref="img-1"):
    return ConversationState(conversation_id="c1", image_ref=image_ref)


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
