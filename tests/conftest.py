"""Shared test backends and builders."""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Iterator

import pytest

from ragvet.backends import ModelRequest, ModelResponse, ReplayEntry, ReplayModelBackend
from ragvet.core import ChunkRef, RetrievedItem, ScoredChunk, Source
from ragvet.runtime import Deadline

FIXTURES = Path(__file__).parent / "fixtures"

# A leaked socket or file fails the test that leaked it, not only a run under
# ``python -X dev``. The filters are set here rather than in pyproject.toml so
# that they cover this suite only.
LEAK_CHECKS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    suite = Path(__file__).parent
    for item in items:
        if suite in item.path.parents:
            for check in LEAK_CHECKS:
                item.add_marker(pytest.mark.filterwarnings(check))


class LoopbackServer(ThreadingHTTPServer):
    """A threaded loopback HTTP server that logs every connection it accepts."""

    request_queue_size = 64  # room for many callers connecting at once

    def __init__(self, handler_class: type) -> None:
        super().__init__(("127.0.0.1", 0), handler_class)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.opened: list[tuple[str, int]] = []

    def process_request(self, request, client_address) -> None:
        self.opened.append(client_address)
        super().process_request(request, client_address)


@contextmanager
def serve_http(handler_class: type) -> Iterator[LoopbackServer]:
    """Serve ``handler_class`` on a loopback port until the block ends."""
    server = LoopbackServer(handler_class)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def scripted_model(*entries: dict) -> ReplayModelBackend:
    """Build a replay backend from loose entry dicts."""
    built = []
    for entry in entries:
        raw_match = entry.get("match", [])
        match = (raw_match,) if isinstance(raw_match, str) else tuple(raw_match)
        built.append(
            ReplayEntry(
                role=entry["role"],
                response=entry["response"],
                match=match,
                sleep_ms=entry.get("sleep_ms", 0),
            )
        )
    return ReplayModelBackend(built)


class CountingModel:
    """Wraps a model backend and counts completions per role."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[str] = []

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        self.calls.append(request.role.value)
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


@pytest.fixture
def no_deadline() -> Deadline:
    return Deadline.never()
