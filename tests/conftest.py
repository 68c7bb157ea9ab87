"""Shared test backends and builders."""

from __future__ import annotations

import re
import ssl
import threading
from contextlib import contextmanager
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Iterator, Optional

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


class LoopbackServer(ThreadingHTTPServer):
    """A threaded loopback HTTP server that logs every connection it accepts."""

    request_queue_size = 64  # room for many callers connecting at once

    def __init__(self, handler_class: type, tls: Optional[ssl.SSLContext] = None) -> None:
        super().__init__(("127.0.0.1", 0), handler_class)
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        scheme = "http" if tls is None else "https"
        self.url = f"{scheme}://127.0.0.1:{self.server_address[1]}"
        self.opened: list[tuple[str, int]] = []

    def process_request(self, request, client_address) -> None:
        self.opened.append(client_address)
        super().process_request(request, client_address)


@contextmanager
def serve_http(handler_class: type,
               tls: Optional[ssl.SSLContext] = None) -> Iterator[LoopbackServer]:
    """Serve ``handler_class`` on a loopback port until the block ends, over TLS
    when ``tls`` is a server context."""
    server = LoopbackServer(handler_class, tls)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


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
