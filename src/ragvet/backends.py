"""Backend contracts plus deterministic mock and remote-service clients.

One model contract covers the five inference roles of a turn and ``eval``'s
judge; which physical endpoint serves a role is wiring, not interface. Mocks
are pure functions of their fixture/script files, so identical inputs replay
identically across runs and processes. The remote clients send their calls
through ``transport.JsonEndpoint``.

Each search class serves the data it owns: ``SearchFixture`` answers image
lookups and web searches from its file, ``RemoteSearchBackend`` web searches
from its endpoint. A run's search backend serves the lookup its mode makes,
so a task1 run, remote or mock, looks images up in a ``SearchFixture``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Any, Mapping, Optional, Protocol, Sequence

from .core import RetrievedItem, Source, missing_content, read_json
from .runtime import Deadline
from .templates import PromptTemplate
from .transport import BackendError, BackendTimeout, BackendTransportError, JsonEndpoint

__all__ = [
    "Role",
    "MAX_TOKENS",
    "ModelRequest",
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
    "RemoteModelBackend",
    "SearchFixture",
    "RemoteSearchBackend",
    "MockRerankerBackend",
    "RemoteRerankerBackend",
    "Backends",
    "ask",
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
    JUDGE = "judge"  # eval's endpoint judge; never on the turn path


# The most tokens each role's reply may decode.
MAX_TOKENS = {
    Role.ROUTER: 64,
    Role.SUMMARIZER: 128,
    Role.GENERATOR: 256,
    Role.CONSISTENCY_JUDGE: 8,
    Role.VERIFIER: 256,
    Role.JUDGE: 16,
}


@dataclass(frozen=True)
class ModelRequest:
    role: Role
    system: str
    user: str
    image_ref: Optional[str] = None
    max_tokens: int = 256

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
            "deterministic": True,
        }


class EmptyCompletionError(BackendError):
    """A model returned a completion that is empty or whitespace only."""


class NoScriptEntryError(BackendError):
    """No replay-script entry matches the request."""


class FixtureError(ValueError):
    """A fixture or replay file is malformed."""


class ModelBackend(Protocol):
    def complete(self, request: ModelRequest, deadline: Deadline) -> str: ...


class RerankerBackend(Protocol):
    def score_batch(self, query: str, chunks: Sequence[str], deadline: Deadline) -> list[float]:
        """One relevance score in [0, 1] per chunk, in chunk order."""
        ...


class SearchBackend(Protocol):
    """A run's search backend serves the lookup its mode makes: a task1 run
    calls ``image_search`` alone, a task2plus run ``web_search`` alone."""

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]: ...

    def web_search(self, query_text: str, k: int, deadline: Deadline) -> list[RetrievedItem]: ...


def ask(model: ModelBackend, role: Role, template: PromptTemplate, deadline: Deadline,
        image_ref: Optional[str] = None, **values: str) -> str:
    """Render ``template`` with ``values``, send it as one ``role`` request
    capped at ``MAX_TOKENS[role]``, and return the reply text as sent. Backend
    failures propagate, and a reply of any role that is empty or whitespace
    only is EmptyCompletionError."""
    system, user = template.build(**values)
    request = ModelRequest(role=role, system=system, user=user, image_ref=image_ref,
                           max_tokens=MAX_TOKENS[role])
    text = model.complete(request, deadline)
    if not text.strip():
        raise EmptyCompletionError(f"empty completion for role {role.value}")
    return text


def jaccard_score(a: str, b: str) -> float:
    """Token-set Jaccard overlap, lowercased and whitespace-tokenized."""
    tokens_a, tokens_b = set(a.lower().split()), set(b.lower().split())
    union = len(tokens_a | tokens_b)
    return len(tokens_a & tokens_b) / union if union else 0.0


# ---------------------------------------------------------------------------
# Replay (mock) model backend


@dataclass(frozen=True)
class ReplayEntry:
    """One scripted completion.

    A request matches when its role equals ``role`` and every string in
    ``match`` occurs in the user text. The first matching entry in file order
    wins.
    """

    role: Role
    response: str
    match: tuple[str, ...] = ()
    KEYS = frozenset(("role", "match", "response"))  # the replay-file keys

    def matches(self, request: ModelRequest) -> bool:
        return self.role == request.role and all(needle in request.user for needle in self.match)

    @classmethod
    def from_dict(cls, data: Any, where: str) -> "ReplayEntry":
        """Parse one replay-script entry; ``where`` names it in a FixtureError.

        ``match`` may be one string or a list of strings; a key outside
        ``KEYS`` is rejected.
        """
        if not isinstance(data, dict):
            raise FixtureError(f"{where}: replay entry must be an object")
        unknown = sorted(data.keys() - cls.KEYS)
        if unknown:
            raise FixtureError(f"{where}: unknown replay entry key {unknown[0]!r}")
        try:
            role = Role(data["role"])
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}: bad replay entry role: {exc}") from exc
        match = data.get("match", [])
        match = [match] if isinstance(match, str) else match
        for ok, rule in (
            (isinstance(data.get("response"), str), "response must be a string"),
            (isinstance(match, list) and all(isinstance(m, str) for m in match),
             "match must be a string or a list of strings"),
        ):
            if not ok:
                raise FixtureError(f"{where}: {rule}")
        return cls(role=role, response=data["response"], match=tuple(match))


def load_replay(path: str | Path) -> list[ReplayEntry]:
    raw = read_json(path, FixtureError)
    if not isinstance(raw, list):
        raise FixtureError(f"{path}: replay file must hold a list of entries")
    return [ReplayEntry.from_dict(entry, f"{path}[{i}]") for i, entry in enumerate(raw)]


class ReplayModelBackend:
    """Serves completions from a replay script: the first entry, in file
    order, that matches a request answers it. Immutable after load."""

    def __init__(self, entries: Sequence[ReplayEntry]):
        self._entries = tuple(entries)

    def complete(self, request: ModelRequest, deadline: Deadline) -> str:
        if deadline.expired():
            raise BackendTimeout(f"deadline already expired for role {request.role.value}")
        entry = next((e for e in self._entries if e.matches(request)), None)
        if entry is None:
            excerpt = request.user[:80].replace("\n", " ")
            raise NoScriptEntryError(
                f"no script entry for role={request.role.value} user={excerpt!r}..."
            )
        return entry.response


# ---------------------------------------------------------------------------
# Remote model backend


class RemoteModelBackend:
    """One HTTP round-trip per completion against a configured endpoint.

    Wire contract: ``POST`` the request's ``to_dict()``, answered by
    ``{"text": str}``. Every other key of the reply is ignored, and an empty
    text is returned for ``ask`` to reject.
    """

    def __init__(self, endpoint: str, bearer_token: Optional[str] = None):
        self._http = JsonEndpoint(endpoint, bearer_token)

    def close(self) -> None:
        self._http.close()

    def complete(self, request: ModelRequest, deadline: Deadline) -> str:
        body = self._http.post_json(request.to_dict(), deadline)
        text = body.get("text")
        if not isinstance(text, str):
            raise BackendTransportError(f"completion from {self._http.url} has no 'text' string")
        return text


# ---------------------------------------------------------------------------
# Search fixture and backends


@dataclass(frozen=True)
class SearchFixture:
    """The mock knowledge-graph and web corpus, hard negatives included, and
    the search backend that serves it. Pure function of (fixture, query).

    ``image_index`` maps an image key to its visually-similar records;
    ``web_index`` is one flat list of page records. A record is its text
    fields, in the order ``load_fixture`` checked; each lookup builds the
    items it returns, ranked from 1. Web search ranks the pages by the
    Jaccard overlap of the query with each page's title and snippet, best
    first, ties in fixture order.
    """

    image_index: Mapping[str, Sequence[Mapping[str, str]]]
    web_index: Sequence[Mapping[str, str]]

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]:
        """The first ``k`` records under ``image_key``; none for an unknown key."""
        return _items(self.image_index.get(image_key, ())[:k], Source.KG_IMAGE)

    def web_search(self, query_text: str, k: int, deadline: Deadline) -> list[RetrievedItem]:
        if deadline.expired():
            raise BackendTimeout("deadline expired before web search")
        ranked = sorted(self.web_index, key=lambda page: -jaccard_score(
            query_text, f"{page.get('title', '')} {page.get('snippet', '')}"))
        return _items(ranked[:k], Source.WEB)


def _items(records: Sequence[Mapping[str, str]], source: Source) -> list[RetrievedItem]:
    """``records`` as items in their order; each item copies its fields."""
    return [RetrievedItem(source=source, fields=fields, recall_rank=rank)
            for rank, fields in enumerate(records, start=1)]


def _bad(path: str | Path, key: Optional[str], problem: str) -> FixtureError:
    """A FixtureError naming the record list under image key ``key`` or, when
    None, ``web_index``, then ``problem``, which starts with ``[index]`` when
    one record is bad."""
    where = "web_index" if key is None else f"image_index[{key!r}]"
    return FixtureError(f"{path}:{where}{problem}")


def load_fixture(path: str | Path) -> SearchFixture:
    """Parse and check a search fixture file; a FixtureError names the first
    bad record.

    One pass checks every record list, the image lists in file order and then
    ``web_index``, and keeps each record as its JSON object once its score is
    checked and popped. Any other top-level key is rejected.
    """
    raw = read_json(path, FixtureError)
    if not isinstance(raw, dict):
        raise FixtureError(f"{path}: fixture must be an object")
    unknown = sorted(raw.keys() - {"image_index", "web_index"})
    if unknown:
        raise FixtureError(f"{path}: unknown fixture key {unknown[0]!r}")
    image_index = raw.get("image_index", {})
    if not isinstance(image_index, dict):
        raise FixtureError(f"{path}:image_index must be an object of record lists")
    web_index = raw.get("web_index", [])
    kg_image, web = Source.KG_IMAGE, Source.WEB  # an enum member lookup is slow
    for key, records in chain(image_index.items(), [(None, web_index)]):
        if not isinstance(records, list):
            raise _bad(path, key, " must be a list of records")
        source = web if key is None else kg_image
        previous = 1.0
        for index, record in enumerate(records):
            if not isinstance(record, dict):
                raise _bad(path, key, f"[{index}]: record must be an object")
            if "score" not in record:
                raise _bad(path, key, f"[{index}]: record is missing 'score'")
            score = record.pop("score")
            if type(score) not in (int, float) or not 0.0 <= score <= 1.0:  # a bool is no score
                raise _bad(path, key, f"[{index}]: score must be within [0, 1], got {score!r}")
            for name, value in record.items():
                if not isinstance(value, str):
                    raise _bad(path, key, f"[{index}]: field {name!r} must be a string")
            if problem := missing_content(source, record):
                raise _bad(path, key, f"[{index}]: {problem}")
            if score > previous:
                raise _bad(path, key, f"[{index}]: records must be sorted descending by score")
            previous = score
    return SearchFixture({key: tuple(records) for key, records in image_index.items()},
                         tuple(web_index))


class RemoteSearchBackend:
    """Forwards web search to a configured endpoint; image lookups are the
    fixture's (``SearchFixture.image_search``)."""

    def __init__(self, web_endpoint: str, bearer_token: Optional[str] = None):
        self._http = JsonEndpoint(web_endpoint, bearer_token)

    def close(self) -> None:
        self._http.close()

    def web_search(self, query_text: str, k: int, deadline: Deadline) -> list[RetrievedItem]:
        body = self._http.post_json({"query": query_text, "k": k}, deadline)
        results = body.get("results")
        if not isinstance(results, list):
            raise BackendTransportError("web search reply needs a 'results' list")
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
    # A score is clamped before it becomes a float, which an integer too
    # large for a float would not.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BackendTransportError(f"rerank score must be a number, got {value!r}")
    return float(min(1.0, max(0.0, value)))


class RemoteRerankerBackend:
    """Scores all of a turn's chunks in one round trip.

    Wire contract: ``POST {"query": str, "chunks": [str, ...]}`` answers
    ``{"scores": [number, ...]}``, one score per chunk in chunk order; each
    score is clamped to [0, 1].
    """

    def __init__(self, endpoint: str, bearer_token: Optional[str] = None):
        self._http = JsonEndpoint(endpoint, bearer_token)

    def close(self) -> None:
        self._http.close()

    def score_batch(self, query: str, chunks: Sequence[str], deadline: Deadline) -> list[float]:
        body = self._http.post_json({"query": query, "chunks": list(chunks)}, deadline)
        scores = body.get("scores")
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

    def close(self) -> None:
        """Close the idle connections of every member that pools them."""
        for backend in (self.router_model, self.vlm, self.reranker, self.search):
            close = getattr(backend, "close", None)
            if close is not None:
                close()
