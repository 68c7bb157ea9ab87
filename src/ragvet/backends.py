"""Backend contracts plus deterministic mock and remote-service clients.

One model contract covers all five inference roles; which physical endpoint
serves a role is wiring, not interface. Mocks are pure functions of their
fixture/script files, so identical inputs replay identically across runs
and processes.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import os
import re
import socket
import ssl
import threading
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional, Protocol, Sequence
from urllib.parse import urlsplit

from .core import RetrievedItem, Source, missing_content
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

    def web_search(self, query_text: str, k: int, deadline: Deadline) -> list[RetrievedItem]: ...


# Idle keep-alive connections one remote backend keeps for later calls.
_MAX_IDLE = 8
# The most bytes a reply's head (status line and headers) or a chunk line may take.
_MAX_HEAD = 64 * 1024
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([0-9]{3})(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_BEARER_TOKEN = re.compile(r"[\x21-\x7e]+")
# The environment variables ``ssl.create_default_context`` reads.
_TLS_ENVIRON = ("SSL_CERT_FILE", "SSL_CERT_DIR", "SSLKEYLOGFILE")


def _time_left(deadline: Deadline) -> Optional[float]:
    """Seconds until ``deadline``, as a socket timeout; None when it is unbounded.

    A deadline that has passed raises TimeoutError.
    """
    seconds = deadline.remaining_seconds()
    if seconds <= 0:
        raise TimeoutError("deadline passed")
    return None if math.isinf(seconds) else seconds


@functools.lru_cache(maxsize=8)
def _tls_context_for(environ: tuple[Optional[str], ...]) -> ssl.SSLContext:
    """``environ``, the values of ``_TLS_ENVIRON``, only keys the cache."""
    return ssl.create_default_context()


def _tls_context() -> ssl.SSLContext:
    """The default TLS context for the trust settings now in the environment.

    Loading the trust store takes tens of milliseconds and most of a megabyte,
    so every endpoint built under the same settings shares one context;
    nothing changes it once it is made.
    """
    return _tls_context_for(tuple(os.environ.get(name) for name in _TLS_ENVIRON))


class _BadReply(Exception):
    """The reply breaks HTTP/1.1 framing."""


class _Reply:
    """Reads one HTTP/1.1 reply from a socket.

    Before each recv the socket's timeout becomes the time left until the
    deadline, so however slowly the bytes arrive, the reply is read by then
    or TimeoutError is raised. ConnectionError is raised only while no byte
    of the reply has arrived; later, a lost connection is a ``_BadReply``.
    """

    def __init__(self, sock: socket.socket, deadline: Deadline) -> None:
        self._sock = sock
        self._deadline = deadline
        self._buffer = bytearray()
        self._started = False

    def _receive(self) -> bool:
        """Append the next bytes to the buffer; False at the end of the stream."""
        self._sock.settimeout(_time_left(self._deadline))
        try:
            data = self._sock.recv(65536)
        except ConnectionError as exc:
            if self._started:
                raise _BadReply(f"connection lost mid-reply: {exc!r}") from exc
            raise
        if not data:
            return False
        self._started = True
        self._buffer += data
        return True

    def _require_more(self) -> None:
        if not self._receive():
            if not self._started:
                raise ConnectionResetError("connection closed before the reply")
            raise _BadReply("connection closed mid-reply")

    def _take(self, size: int, skip: int = 0) -> bytes:
        data = bytes(self._buffer[:size])
        del self._buffer[:size + skip]
        return data

    def _until(self, separator: bytes) -> bytes:
        """Bytes up to ``separator``, which is consumed; at most ``_MAX_HEAD`` of them."""
        while (end := self._buffer.find(separator)) < 0 and len(self._buffer) <= _MAX_HEAD:
            self._require_more()
        if not 0 <= end <= _MAX_HEAD:
            raise _BadReply("reply head or chunk line over 64 KiB")
        return self._take(end, len(separator))

    def _exactly(self, size: int) -> bytes:
        while len(self._buffer) < size:
            self._require_more()
        return self._take(size)

    def _head(self) -> tuple[int, bool, dict[bytes, bytes]]:
        """The status, whether the reply is HTTP/1.1, and the headers by lowercased name."""
        status_line, *lines = self._until(b"\r\n\r\n").split(b"\r\n")
        match = _STATUS_LINE.fullmatch(status_line)
        if match is None:
            raise _BadReply(f"malformed status line {status_line[:80]!r}")
        headers = {}
        for line in lines:
            name, colon, value = line.partition(b":")
            if not colon:
                raise _BadReply(f"malformed header line {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        return int(match[2]), match[1] == b"1", headers

    def _chunked(self) -> bytes:
        parts = []
        while True:
            digits = self._until(b"\r\n").partition(b";")[0].strip()  # drops chunk extensions
            if not _CHUNK_SIZE.fullmatch(digits):
                raise _BadReply(f"bad chunk size {digits[:40]!r}")
            size = int(digits, 16)
            if size == 0:
                break
            parts.append(self._exactly(size))
            if self._until(b"\r\n"):
                raise _BadReply("chunk data longer than its size")
        while self._until(b"\r\n"):  # trailer fields, discarded
            pass
        return b"".join(parts)

    def read(self) -> tuple[int, bytes, bool]:
        """The status, the body, and whether the socket may carry another call."""
        status, http11, headers = self._head()
        while 100 <= status < 200:  # interim replies, e.g. 100 Continue
            status, http11, headers = self._head()
        keep = http11 and b"close" not in headers.get(b"connection", b"").lower()
        coding = headers.get(b"transfer-encoding")
        length = headers.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None:
            if coding.lower() != b"chunked":
                raise _BadReply(f"unsupported Transfer-Encoding {coding[:40]!r}")
            body = self._chunked()
        elif length is not None:
            if not length.isdigit():
                raise _BadReply(f"bad Content-Length {length[:40]!r}")
            body = self._exactly(int(length))
        else:  # the body ends with the connection
            while self._receive():
                pass
            return status, bytes(self._buffer), False
        return status, body, keep and not self._buffer


def _close_all(socks: list[socket.socket]) -> None:
    for sock in socks:
        sock.close()
    socks.clear()


class _JsonEndpoint:
    """POSTs JSON to one endpoint over a pool of keep-alive sockets, speaking
    HTTP/1.1 directly.

    The pool is shared by every calling thread. A call takes an idle socket,
    or opens one, and gives it back only after reading a whole reply that
    leaves it open. A socket that failed, or whose reply closes it (HTTP/1.0,
    ``Connection: close``, a body framed by the end of the connection), is
    closed instead. Idle sockets are closed by ``close`` or when the endpoint
    is collected. A malformed URL or bearer token raises ValueError here,
    before any call.
    """

    def __init__(self, url: str, bearer_token: Optional[str]) -> None:
        parts = urlsplit(url)
        if (parts.scheme not in ("http", "https") or not parts.hostname
                or not url.isascii() or re.search(r"[\x00-\x20\x7f]", url)):
            raise ValueError(f"{url!r} is not an http:// or https:// URL with a host, "
                             "in ASCII without spaces")
        if bearer_token and not _BEARER_TOKEN.fullmatch(bearer_token):
            raise ValueError("bearer_token must be visible ASCII (0x21-0x7E)")
        https = parts.scheme == "https"
        self.url = url
        self._tls = _tls_context() if https else None
        self._address = (parts.hostname, parts.port or (443 if https else 80))
        host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
        if parts.port is not None:
            host += f":{parts.port}"
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        authorization = f"Authorization: Bearer {bearer_token}\r\n" if bearer_token else ""
        # Every request's head but the value of its final Content-Length line.
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                      "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
                      f"{authorization}Content-Length: ").encode("ascii")
        self._lock = threading.Lock()
        self._idle: list[socket.socket] = []
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle sockets; later calls open new ones."""
        with self._lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)

    def _connect(self, deadline: Deadline) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=_time_left(deadline))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock.settimeout(_time_left(deadline))
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except OSError:
            sock.close()
            raise
        return sock

    @staticmethod
    def _exchange(sock: socket.socket, request: bytes,
                  deadline: Deadline) -> tuple[int, bytes, bool]:
        sock.settimeout(_time_left(deadline))
        sock.sendall(request)
        return _Reply(sock, deadline).read()

    def _release(self, sock: Optional[socket.socket], reusable: bool) -> None:
        """Give ``sock`` back to the pool, or close it."""
        if reusable:
            with self._lock:
                if len(self._idle) < _MAX_IDLE:
                    self._idle.append(sock)
                    return
        if sock is not None:
            sock.close()

    def post_json(self, payload: Mapping[str, Any], deadline: Deadline) -> dict[str, Any]:
        """POST ``payload`` as JSON and return the reply's JSON object.

        BackendTimeout is raised once ``deadline`` passes, at whatever point
        of the call. An unreachable host, a TLS failure, a reply that breaks
        HTTP/1.1 framing, a status other than 200, or a body that is not a
        JSON object raises BackendTransportError.
        """
        # Checked before taking a socket, so that a late call does not close
        # a pooled one.
        if deadline.expired():
            raise BackendTimeout(f"deadline passed before calling {self.url}")
        body = json.dumps(payload).encode("utf-8")
        request = b"%b%d\r\n\r\n%b" % (self._head, len(body), body)
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        reused = sock is not None
        keep = False
        try:
            try:
                if sock is None:
                    sock = self._connect(deadline)
                status, data, keep = self._exchange(sock, request, deadline)
            except ConnectionError:
                if not reused:
                    raise
                # The server closed this socket while it sat idle: no byte of
                # the reply arrived, so the request is sent once more.
                sock.close()
                sock = self._connect(deadline)
                status, data, keep = self._exchange(sock, request, deadline)
        except TimeoutError as exc:
            raise BackendTimeout(f"{self.url}: {exc}") from exc
        except (OSError, _BadReply) as exc:
            raise BackendTransportError(f"{self.url}: {exc!r}") from exc
        finally:
            self._release(sock, keep)
        if status != 200:
            text = data[:200].decode("utf-8", "replace")
            raise BackendTransportError(f"{self.url} answered {status}: {text}")
        try:
            parsed = json.loads(data)
        except ValueError as exc:
            raise BackendTransportError(f"malformed body from {self.url}: {exc}") from exc
        if not isinstance(parsed, dict):
            raise BackendTransportError(f"body from {self.url} must be a JSON object")
        return parsed


def _user_digest(user: str) -> str:
    return hashlib.sha256(user.encode("utf-8")).hexdigest()


def _tokens(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def _token_overlap(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    shared = len(tokens_a & tokens_b)
    union = len(tokens_a) + len(tokens_b) - shared
    return shared / union if union else 0.0


def jaccard_score(a: str, b: str) -> float:
    """Token-set Jaccard overlap, lowercased and whitespace-tokenized."""
    return _token_overlap(_tokens(a), _tokens(b))


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

    @classmethod
    def from_dict(cls, data: Any, where: str) -> "ReplayEntry":
        """Parse one replay-script entry; ``where`` names it in a FixtureError.

        ``match`` may be one string or a list of strings.
        """
        if not isinstance(data, dict):
            raise FixtureError(f"{where}: replay entry must be an object")
        try:
            role = Role(data["role"])
        except (KeyError, ValueError) as exc:
            raise FixtureError(f"{where}: bad replay entry role: {exc}") from exc
        match = data.get("match", [])
        match = [match] if isinstance(match, str) else match
        sleep_ms = data.get("sleep_ms", 0)
        for ok, rule in (
            (isinstance(data.get("response"), str), "response must be a string"),
            (isinstance(match, list) and all(isinstance(m, str) for m in match),
             "match must be a string or a list of strings"),
            (isinstance(data.get("user_sha256"), (str, type(None))),
             "user_sha256 must be a string"),
            (isinstance(sleep_ms, int) and not isinstance(sleep_ms, bool) and sleep_ms >= 0,
             "sleep_ms must be an integer >= 0"),
        ):
            if not ok:
                raise FixtureError(f"{where}: {rule}")
        return cls(role=role, response=data["response"], match=tuple(match),
                   user_sha256=data.get("user_sha256"), sleep_ms=sleep_ms)


def _read_json(path: str | Path) -> Any:
    """The JSON document in a fixture or replay file; FixtureError if there is none."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FixtureError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_replay(path: str | Path) -> list[ReplayEntry]:
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise FixtureError(f"{path}: replay file must hold a list of entries")
    return [ReplayEntry.from_dict(entry, f"{path}[{i}]") for i, entry in enumerate(raw)]


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


# ---------------------------------------------------------------------------
# Remote model backend


class RemoteModelBackend:
    """One HTTP round-trip per completion against a configured endpoint."""

    def __init__(self, endpoint: str, bearer_token: Optional[str] = None):
        self._http = _JsonEndpoint(endpoint, bearer_token)

    def close(self) -> None:
        self._http.close()

    def complete(self, request: ModelRequest, deadline: Deadline) -> ModelResponse:
        body = self._http.post_json(request.to_dict(), deadline)
        text = body.get("text")
        if not isinstance(text, str):
            raise BackendTransportError(f"completion from {self._http.url} has no 'text' string")
        if not text:
            raise EmptyCompletionError(f"empty completion from {self._http.url}")
        try:
            return ModelResponse(
                text=text,
                prompt_tokens=int(body.get("prompt_tokens", 0)),
                completion_tokens=int(body.get("completion_tokens", 0)),
                latency_ms=int(body.get("latency_ms", 0)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise BackendTransportError(
                f"bad usage fields from {self._http.url}: {exc}"
            ) from exc


# ---------------------------------------------------------------------------
# Search fixture and backends


# One search fixture record: its text fields and its fixture score.
FixtureRecord = tuple[Mapping[str, str], float]


@dataclass(frozen=True)
class SearchFixture:
    """The mock knowledge-graph and web corpus, hard negatives included.

    ``image_index`` maps an image key to its visually-similar records;
    ``web_index`` is one flat list of page records. A record is a (fields,
    score) pair, held as ``load_fixture`` parsed and checked it; each lookup
    builds the items it returns, ranked from 1. The score orders records but
    never leaves the backend.
    """

    image_index: Mapping[str, tuple[FixtureRecord, ...]]
    web_index: tuple[FixtureRecord, ...]

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]:
        """The first ``k`` records under ``image_key``; none for an unknown key."""
        return _items(self.image_index.get(image_key, ())[:k], Source.KG_IMAGE)


def _items(records: Sequence[FixtureRecord], source: Source) -> list[RetrievedItem]:
    """``records`` as items in their order; each item copies its fields."""
    return [RetrievedItem(source=source, fields=fields, recall_rank=rank)
            for rank, (fields, _) in enumerate(records, start=1)]


class _BadRecord(Exception):
    """A record list that fails a check; the message follows the list's location."""


def _checked_records(records: Any, source: Source) -> tuple[FixtureRecord, ...]:
    """Check one parsed record list and return its records: each JSON object
    becomes the fields of its record once its score is popped."""
    if not isinstance(records, list):
        raise _BadRecord(" must be a list of records")
    checked = []
    previous = 1.0
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise _BadRecord(f"[{index}]: record must be an object")
        if "score" not in record:
            raise _BadRecord(f"[{index}]: record is missing 'score'")
        score = record.pop("score")
        if type(score) not in (int, float) or not 0.0 <= score <= 1.0:  # a bool is no score
            raise _BadRecord(f"[{index}]: score must be within [0, 1], got {score!r}")
        for name, value in record.items():
            if not isinstance(value, str):
                raise _BadRecord(f"[{index}]: field {name!r} must be a string")
        problem = missing_content(source, record)
        if problem:
            raise _BadRecord(f"[{index}]: {problem}")
        if score > previous:
            raise _BadRecord(f"[{index}]: records must be sorted descending by score")
        previous = score
        checked.append((record, float(score)))
    return tuple(checked)


def load_fixture(path: str | Path) -> SearchFixture:
    """Parse and check a search fixture file; a FixtureError names the first
    bad record."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise FixtureError(f"{path}: fixture must be an object")
    raw_images = raw.get("image_index", {})
    if not isinstance(raw_images, dict):
        raise FixtureError(f"{path}:image_index must be an object of record lists")
    image_index: dict[str, tuple[FixtureRecord, ...]] = {}
    try:
        for key, records in raw_images.items():
            image_index[key] = _checked_records(records, Source.KG_IMAGE)
    except _BadRecord as bad:
        raise FixtureError(f"{path}:image_index[{key!r}]{bad}") from None
    try:
        web_index = _checked_records(raw.get("web_index", []), Source.WEB)
    except _BadRecord as bad:
        raise FixtureError(f"{path}:web_index{bad}") from None
    return SearchFixture(image_index=image_index, web_index=web_index)


class MockSearchBackend:
    """Fixture-backed search. Pure function of (fixture, query).

    Web search ranks the pages by the Jaccard overlap of the query with each
    page's title and snippet, best first, ties in fixture order. Each page's
    token set is computed once, here.
    """

    def __init__(self, fixture: SearchFixture):
        self._fixture = fixture
        self._web_tokens = [_tokens(f"{fields.get('title', '')} {fields.get('snippet', '')}")
                            for fields, _ in fixture.web_index]

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]:
        return self._fixture.image_search(image_key, k)

    def web_search(self, query_text: str, k: int, deadline: Deadline) -> list[RetrievedItem]:
        if deadline.expired():
            raise BackendTimeout("deadline expired before web search")
        query = _tokens(query_text)
        scores = [_token_overlap(query, tokens) for tokens in self._web_tokens]
        best = heapq.nsmallest(k, range(len(scores)), key=lambda i: -scores[i])
        return _items([self._fixture.web_index[i] for i in best], Source.WEB)


class RemoteSearchBackend:
    """Forwards web search to a configured endpoint.

    Knowledge-graph image search has no remote endpoint to configure, so
    image lookups are served from an optional local fixture. Only task1 runs
    look images up, so ``build_backends`` loads that fixture for them alone;
    without one, an image lookup is a BackendTransportError.
    """

    def __init__(self, web_endpoint: str, bearer_token: Optional[str] = None,
                 image_fixture: Optional[SearchFixture] = None):
        self._http = _JsonEndpoint(web_endpoint, bearer_token)
        self._image_fixture = image_fixture

    def close(self) -> None:
        self._http.close()

    def image_search(self, image_key: str, k: int) -> list[RetrievedItem]:
        if self._image_fixture is None:
            raise BackendTransportError(
                "image search has no remote endpoint; configure fixture_path"
            )
        return self._image_fixture.image_search(image_key, k)

    def web_search(self, query_text: str, k: int, deadline: Deadline) -> list[RetrievedItem]:
        body = self._http.post_json({"query": query_text, "k": k}, deadline)
        results = body.get("results", [])
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

    def __init__(self, endpoint: str, bearer_token: Optional[str] = None):
        self._http = _JsonEndpoint(endpoint, bearer_token)

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

    def model_for(self, role: Role) -> ModelBackend:
        return self.router_model if role is Role.ROUTER else self.vlm

    def close(self) -> None:
        """Close the idle connections of every member that pools them."""
        for backend in (self.router_model, self.vlm, self.reranker, self.search):
            close = getattr(backend, "close", None)
            if close is not None:
                close()
