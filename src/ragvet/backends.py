"""Backend contracts plus deterministic mock and remote-service clients.

One model contract covers all five inference roles; which physical endpoint
serves a role is wiring, not interface. Mocks are pure functions of their
fixture/script files, so identical inputs replay identically across runs
and processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional, Protocol, Sequence

import requests

from .core import RetrievedItem, Source
from .runtime import Deadline

__all__ = [
    "Role",
    "ModelRequest",
    "ModelResponse",
    "BackendError",
    "BackendTimeout",
    "BackendTransportError",
    "EmptyCompletionError",
    "NoScriptEntryError",
    "FixtureError",
    "ModelBackend",
    "RerankerBackend",
    "SearchBackend",
    "ReplayEntry",
    "ReplayModelBackend",
    "RecordingModelBackend",
    "RemoteModelBackend",
    "SearchFixture",
    "MockSearchBackend",
    "RemoteSearchBackend",
    "MockRerankerBackend",
    "RemoteRerankerBackend",
    "Backends",
    "jaccard_score",
    "load_fixture",
    "load_replay",
]


class Role(str, Enum):
    ROUTER = "router"
    SUMMARIZER = "summarizer"
    GENERATOR = "generator"
    CONSISTENCY_JUDGE = "consistency_judge"
    VERIFIER = "verifier"


@dataclass(frozen=True)
class ModelRequest:
    role: Role
    system: str
    user: str
    image_ref: Optional[str] = None
    max_tokens: int = 256
    deterministic: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "role", Role(self.role))
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {
            "role": self.role.value,
            "system": self.system,
            "user": self.user,
            "image_ref": self.image_ref,
            "max_tokens": self.max_tokens,
            "deterministic": self.deterministic,
        }


@dataclass(frozen=True)
class ModelResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")


class BackendError(Exception):
    """Base class for every backend failure."""


class BackendTimeout(BackendError):
    """The deadline expired before the backend produced a result."""


class BackendTransportError(BackendError):
    """The remote service could not be reached or answered abnormally."""


class EmptyCompletionError(BackendError):
    """The backend returned an empty completion."""


class NoScriptEntryError(BackendError):
    """No replay-script entry matches the request."""


class FixtureError(ValueError):
    """A fixture or replay file is malformed."""


class ModelBackend(Protocol):
    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse: ...


class RerankerBackend(Protocol):
    def score_batch(self, query: str, chunks: Sequence[str], deadline: Deadline) -> list[float]:
        """One relevance score in [0, 1] per chunk, in chunk order."""
        ...


class SearchBackend(Protocol):
    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]: ...

    def web_search(self, query_text: str, k: int) -> list[RetrievedItem]: ...


def _http_timeout(deadline: Deadline) -> Optional[float]:
    """Socket timeout for a deadline; None when the deadline is unbounded."""
    seconds = deadline.remaining_seconds()
    return None if math.isinf(seconds) else seconds


def _user_digest(user: str) -> str:
    return hashlib.sha256(user.encode("utf-8")).hexdigest()


def jaccard_score(a: str, b: str) -> float:
    """Token-set Jaccard overlap, lowercased and whitespace-tokenized."""
    tokens_a = set(a.lower().split())
    tokens_b = set(b.lower().split())
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)


# ---------------------------------------------------------------------------
# Replay (mock) model backend


@dataclass(frozen=True)
class ReplayEntry:
    """One scripted completion.

    A request matches when its role equals ``role`` and either every string
    in ``match`` occurs in the user text, or ``user_sha256`` equals the hash
    of the user text. The first matching entry in file order wins.
    """

    role: Role
    response: str
    match: tuple[str, ...] = ()
    user_sha256: Optional[str] = None
    sleep_ms: int = 0

    def matches(self, request: ModelRequest, user_digest: Optional[str] = None) -> bool:
        """``user_digest``, when given, is the caller's hash of the user text."""
        if self.role != request.role:
            return False
        if self.user_sha256 is not None:
            if (user_digest or _user_digest(request.user)) != self.user_sha256:
                return False
        return all(needle in request.user for needle in self.match)


def _entry_from_dict(data: Mapping[str, Any], where: str) -> ReplayEntry:
    try:
        role = Role(data["role"])
        response = data["response"]
    except (KeyError, ValueError) as exc:
        raise FixtureError(f"{where}: bad replay entry: {exc}") from exc
    raw_match = data.get("match", [])
    match = (raw_match,) if isinstance(raw_match, str) else tuple(raw_match)
    return ReplayEntry(
        role=role,
        response=response,
        match=match,
        user_sha256=data.get("user_sha256"),
        sleep_ms=int(data.get("sleep_ms", 0)),
    )


def load_replay(path: str | Path) -> list[ReplayEntry]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise FixtureError(f"{path}: replay file must hold a list of entries")
    return [_entry_from_dict(entry, f"{path}[{i}]") for i, entry in enumerate(raw)]


class ReplayModelBackend:
    """Serves completions from a replay script. Immutable after load.

    Entries are indexed by role, file order kept within each role, so a
    lookup scans only its own role's entries and hashes the user text at
    most once.
    """

    def __init__(self, entries: Sequence[ReplayEntry]):
        by_role: dict[Role, list[ReplayEntry]] = {}
        for entry in entries:
            by_role.setdefault(entry.role, []).append(entry)
        self._by_role = {role: tuple(group) for role, group in by_role.items()}
        self._hashed_roles = frozenset(
            role for role, group in self._by_role.items()
            if any(entry.user_sha256 is not None for entry in group)
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayModelBackend":
        return cls(load_replay(path))

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        if deadline.expired():
            raise BackendTimeout(f"deadline already expired for role {request.role.value}")
        digest = _user_digest(request.user) if request.role in self._hashed_roles else None
        entry = next(
            (e for e in self._by_role.get(request.role, ()) if e.matches(request, digest)), None
        )
        if entry is None:
            excerpt = request.user[:80].replace("\n", " ")
            raise NoScriptEntryError(
                f"no script entry for role={request.role.value} user={excerpt!r}..."
            )
        if entry.sleep_ms > 0:
            remaining = deadline.remaining_ms()
            if entry.sleep_ms > remaining:
                time.sleep(remaining / 1000.0)
                raise BackendTimeout(
                    f"scripted {entry.sleep_ms} ms sleep exceeds deadline for role "
                    f"{request.role.value}"
                )
            time.sleep(entry.sleep_ms / 1000.0)
        if not entry.response:
            raise EmptyCompletionError(f"scripted empty completion for role {request.role.value}")
        return ModelResponse(
            text=entry.response,
            prompt_tokens=len(request.user.split()),
            completion_tokens=len(entry.response.split()),
            latency_ms=entry.sleep_ms,
        )


class RecordingModelBackend:
    """Wraps a live backend and records (role, user hash) -> completion.

    ``dump`` writes a replay script usable with :class:`ReplayModelBackend`.
    """

    def __init__(self, inner: ModelBackend):
        self._inner = inner
        self._recorded: list[dict[str, Any]] = []

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        response = self._inner.complete(request, deadline)
        self._recorded.append(
            {
                "role": request.role.value,
                "user_sha256": _user_digest(request.user),
                "response": response.text,
            }
        )
        return response

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self._recorded, indent=2, ensure_ascii=False), encoding="utf-8"
        )


# ---------------------------------------------------------------------------
# Remote model backend


class RemoteModelBackend:
    """One HTTP round-trip per completion against a configured endpoint."""

    def __init__(self, endpoint: str, bearer_token: Optional[str] = None,
                 session: Optional[requests.Session] = None):
        self._endpoint = endpoint
        self._token = bearer_token
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        timeout_s = _http_timeout(deadline)
        if timeout_s is not None and timeout_s <= 0:
            raise BackendTimeout(f"deadline already expired for role {request.role.value}")
        try:
            http = self._session.post(
                self._endpoint,
                json=request.to_dict(),
                headers=self._headers(),
                timeout=timeout_s,
            )
        except requests.Timeout as exc:
            raise BackendTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise BackendTransportError(str(exc)) from exc
        if http.status_code != 200:
            raise BackendTransportError(
                f"{self._endpoint} answered {http.status_code}: {http.text[:200]}"
            )
        try:
            body = http.json()
            text = body["text"]
        except (ValueError, KeyError) as exc:
            raise BackendTransportError(f"malformed completion body: {exc}") from exc
        if not text:
            raise EmptyCompletionError(f"empty completion from {self._endpoint}")
        return ModelResponse(
            text=text,
            prompt_tokens=int(body.get("prompt_tokens", 0)),
            completion_tokens=int(body.get("completion_tokens", 0)),
            latency_ms=int(body.get("latency_ms", 0)),
        )


# ---------------------------------------------------------------------------
# Search fixture and backends


def _item_from_record(record: Mapping[str, Any], source: Source, rank: int,
                      where: str) -> tuple[RetrievedItem, float]:
    if "score" not in record:
        raise FixtureError(f"{where}: record is missing 'score'")
    score = record["score"]
    if not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
        raise FixtureError(f"{where}: score must be within [0, 1], got {score!r}")
    fields = {k: v for k, v in record.items() if k != "score"}
    for name, value in fields.items():
        if not isinstance(value, str):
            raise FixtureError(f"{where}: field {name!r} must be a string")
    try:
        item = RetrievedItem(source=source, fields=fields, recall_rank=rank)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}") from exc
    return item, float(score)


@dataclass(frozen=True)
class SearchFixture:
    """The mock knowledge-graph and web corpus, hard negatives included.

    ``image_index`` maps an image key to its visually-similar records;
    ``web_index`` is one flat list of page records. Records keep their
    fixture score for ordering but the score never leaves the backend.
    """

    image_index: Mapping[str, tuple[tuple[RetrievedItem, float], ...]]
    web_index: tuple[tuple[RetrievedItem, float], ...]

    def __post_init__(self) -> None:
        for key, records in self.image_index.items():
            _require_sorted(records, f"image_index[{key!r}]")
        _require_sorted(self.web_index, "web_index")


def _require_sorted(records: Sequence[tuple[RetrievedItem, float]], where: str) -> None:
    scores = [score for _, score in records]
    if scores != sorted(scores, reverse=True):
        raise FixtureError(f"{where}: records must be sorted descending by score")


def load_fixture(path: str | Path) -> SearchFixture:
    """Parse a search fixture file, reporting the offending entry on failure."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise FixtureError(f"{path}: fixture must be an object")
    image_index: dict[str, tuple[tuple[RetrievedItem, float], ...]] = {}
    for key, records in raw.get("image_index", {}).items():
        image_index[key] = tuple(
            _item_from_record(rec, Source.KG_IMAGE, i + 1, f"{path}:image_index[{key!r}][{i}]")
            for i, rec in enumerate(records)
        )
    web_index = tuple(
        _item_from_record(rec, Source.WEB, i + 1, f"{path}:web_index[{i}]")
        for i, rec in enumerate(raw.get("web_index", []))
    )
    return SearchFixture(image_index=image_index, web_index=web_index)


def _with_rank(item: RetrievedItem, rank: int) -> RetrievedItem:
    return RetrievedItem(source=item.source, fields=item.fields, recall_rank=rank)


class MockSearchBackend:
    """Fixture-backed search. Pure function of (fixture, query)."""

    def __init__(self, fixture: SearchFixture):
        self._fixture = fixture

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]:
        records = self._fixture.image_index.get(image_key, ())
        return [_with_rank(item, rank) for rank, (item, _) in enumerate(records[:k], start=1)]

    def web_search(self, query_text: str, k: int) -> list[RetrievedItem]:
        ranked = sorted(
            self._fixture.web_index,
            key=lambda pair: -jaccard_score(
                query_text,
                f"{pair[0].fields.get('title', '')} {pair[0].fields.get('snippet', '')}",
            ),
        )
        return [_with_rank(item, rank) for rank, (item, _) in enumerate(ranked[:k], start=1)]


class RemoteSearchBackend:
    """Forwards web search to a configured endpoint.

    Knowledge-graph image search has no remote endpoint to configure, so
    image lookups are served from an optional local fixture.
    """

    def __init__(self, web_endpoint: str, bearer_token: Optional[str] = None,
                 image_fixture: Optional[SearchFixture] = None,
                 session: Optional[requests.Session] = None):
        self._endpoint = web_endpoint
        self._token = bearer_token
        self._session = session or requests.Session()
        self._image_mock = MockSearchBackend(image_fixture) if image_fixture else None

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]:
        if self._image_mock is None:
            raise BackendTransportError(
                "image search has no remote endpoint; configure fixture_path"
            )
        return self._image_mock.image_search(image_key, k)

    def web_search(self, query_text: str, k: int) -> list[RetrievedItem]:
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        try:
            http = self._session.post(
                self._endpoint, json={"query": query_text, "k": k}, headers=headers, timeout=30
            )
        except requests.RequestException as exc:
            raise BackendTransportError(str(exc)) from exc
        if http.status_code != 200:
            raise BackendTransportError(f"web search answered {http.status_code}")
        try:
            results = http.json().get("results", [])
        except (ValueError, AttributeError) as exc:
            raise BackendTransportError(f"malformed web search body: {exc}") from exc
        if not isinstance(results, list):
            raise BackendTransportError("web search 'results' must be a list")
        return [_web_item(record, rank) for rank, record in enumerate(results[:k], start=1)]


def _web_item(record: Any, rank: int) -> RetrievedItem:
    """One web search result record as an item; any bad shape is a transport error."""
    if not isinstance(record, dict) or not all(isinstance(v, str) for v in record.values()):
        raise BackendTransportError(f"web search result {rank} must map names to strings")
    try:
        return RetrievedItem(source=Source.WEB, fields=record, recall_rank=rank)
    except ValueError as exc:
        raise BackendTransportError(f"web search result {rank}: {exc}") from exc


# ---------------------------------------------------------------------------
# Rerankers


class MockRerankerBackend:
    """Deterministic relevance stand-in: token-set Jaccard overlap."""

    def score_batch(self, query: str, chunks: Sequence[str], deadline: Deadline) -> list[float]:
        if deadline.expired():
            raise BackendTimeout("deadline expired before rerank scoring")
        return [jaccard_score(query, chunk) for chunk in chunks]


def _rerank_score(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise BackendTransportError(f"rerank score must be a number, got {value!r}")
    return min(1.0, max(0.0, float(value)))


class RemoteRerankerBackend:
    """Scores all of a turn's chunks in one round trip.

    Wire contract: ``POST {"query": str, "chunks": [str, ...]}`` answers
    ``{"scores": [number, ...]}``, one score per chunk in chunk order; each
    score is clamped to [0, 1].
    """

    def __init__(self, endpoint: str, bearer_token: Optional[str] = None,
                 session: Optional[requests.Session] = None):
        self._endpoint = endpoint
        self._token = bearer_token
        self._session = session or requests.Session()

    def score_batch(self, query: str, chunks: Sequence[str], deadline: Deadline) -> list[float]:
        timeout_s = _http_timeout(deadline)
        if timeout_s is not None and timeout_s <= 0:
            raise BackendTimeout("deadline already expired for rerank scoring")
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        try:
            http = self._session.post(
                self._endpoint,
                json={"query": query, "chunks": list(chunks)},
                headers=headers,
                timeout=timeout_s,
            )
        except requests.Timeout as exc:
            raise BackendTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise BackendTransportError(str(exc)) from exc
        if http.status_code != 200:
            raise BackendTransportError(f"reranker answered {http.status_code}")
        try:
            scores = http.json()["scores"]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendTransportError(f"malformed rerank body: {exc}") from exc
        if not isinstance(scores, list) or len(scores) != len(chunks):
            raise BackendTransportError(
                f"rerank 'scores' must be a list of {len(chunks)} numbers, got {scores!r:.200}"
            )
        return [_rerank_score(value) for value in scores]


# ---------------------------------------------------------------------------
# Bundle


@dataclass
class Backends:
    """Every service handle one pipeline run needs, mock or remote."""

    router_model: ModelBackend
    vlm: ModelBackend
    reranker: RerankerBackend
    search: SearchBackend

    def model_for(self, role: Role) -> ModelBackend:
        return self.router_model if role is Role.ROUTER else self.vlm
