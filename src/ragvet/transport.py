"""The remote backends' HTTP/1.1 JSON transport, and the errors it raises.

``JsonEndpoint`` is the one place that touches ``socket`` and ``ssl``;
``backends`` re-exports the error classes. This module carries HTTP and
nothing else: a reply's body is decoded by ``core.decode_json``, the decoder
of every input file too.
"""

from __future__ import annotations

import functools
import json
import os
import re
import socket
import ssl
import threading
import weakref
from typing import Any, Mapping, Optional
from urllib.parse import urlsplit

from .core import BEARER_TOKEN, MAX_TURN_BUDGET_MS, check_endpoint_url, decode_json
from .runtime import Deadline

__all__ = ["BackendError", "BackendTimeout", "BackendTransportError", "JsonEndpoint"]


class BackendError(Exception):
    """Base class for every backend failure."""


class BackendTimeout(BackendError):
    """The deadline expired before the backend produced a result."""


class BackendTransportError(BackendError):
    """The remote service could not be reached or answered abnormally."""


# The most bytes a reply's head (status line and headers) or a chunk line may take.
_MAX_HEAD = 64 * 1024
# The most bytes a reply's body may take, so that a huge or endless body is a
# transport error, not a MemoryError. The largest body either benchmark
# workload receives is 2,646 bytes (web_rag_remote; kg_multiturn_remote's is
# 191), so the cap leaves room for any real reply.
_MAX_BODY = 64 * 1024 * 1024
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([1-5][0-9]{2})(?: .*)?")
# A header line is token ":" OWS value OWS (RFC 9112 §5.1). So no whitespace
# before the colon, no obs-fold line starting with SP or HTAB (§5.2), and no
# bare CR (§2.2), LF or NUL (RFC 9110 §5.5) in the value.
_HEADER_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n\0]*)")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
# A Content-Length of at most 16 digits: int() refuses a decimal of thousands.
_CONTENT_LENGTH = re.compile(rb"[0-9]{1,16}")
# The environment variables ``ssl.create_default_context`` reads.
_TLS_ENVIRON = ("SSL_CERT_FILE", "SSL_CERT_DIR", "SSLKEYLOGFILE")


def _time_left(deadline: Deadline) -> float:
    """Seconds until ``deadline``, as a socket timeout, at most the longest
    turn budget: a timeout of 1e12 s or more overflows the platform's time_t.
    Every socket operation re-arms the timeout, so a far deadline still bounds
    the call. A deadline that has passed raises TimeoutError."""
    seconds = min(deadline.remaining_ms(), MAX_TURN_BUDGET_MS) / 1000.0
    if seconds <= 0:
        raise TimeoutError("deadline passed")
    return seconds


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


def _body_size(size: int) -> int:
    """``size``, the bytes of a body so far or in all, unless it is over ``_MAX_BODY``."""
    if size > _MAX_BODY:
        raise _BadReply(f"reply body over {_MAX_BODY} bytes")
    return size


class _Reply:
    """Reads one HTTP/1.1 reply from a socket.

    Before each recv the socket's timeout becomes the time left until the
    deadline, so however slowly the bytes arrive, the reply is read by then
    or TimeoutError is raised. ConnectionError is raised only while no byte
    of the reply has arrived; later, a lost connection is a ``_BadReply``, as
    is a body over ``_MAX_BODY`` bytes.
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
        """The status, whether the reply is HTTP/1.1, and the headers by
        lowercased name; the values of a repeated header are joined by ", "."""
        status_line, *lines = self._until(b"\r\n\r\n").split(b"\r\n")
        match = _STATUS_LINE.fullmatch(status_line)
        if match is None:
            raise _BadReply(f"malformed status line {status_line[:80]!r}")
        headers = {}
        for line in lines:
            field = _HEADER_LINE.fullmatch(line)
            if field is None:
                raise _BadReply(f"malformed header line {line[:80]!r}")
            name, value = field[1].lower(), field[2].strip(b" \t")
            headers[name] = headers[name] + b", " + value if name in headers else value
        return int(match[2]), match[1] == b"1", headers

    def _chunked(self) -> bytes:
        parts, total = [], 0
        while True:
            digits = self._until(b"\r\n").partition(b";")[0].strip()  # drops chunk extensions
            if not _CHUNK_SIZE.fullmatch(digits):
                raise _BadReply(f"bad chunk size {digits[:40]!r}")
            size = int(digits, 16)
            if size == 0:
                break
            total = _body_size(total + size)
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
        if coding is not None and length is not None:
            raise _BadReply("both Transfer-Encoding and Content-Length")
        if status in (204, 304):
            body = b""
        elif coding is not None:
            if coding.lower() != b"chunked":
                raise _BadReply(f"unsupported Transfer-Encoding {coding[:40]!r}")
            body = self._chunked()
        elif length is not None:
            lengths = {value.strip() for value in length.split(b",")}
            if len(lengths) != 1 or not _CONTENT_LENGTH.fullmatch(size := lengths.pop()):
                raise _BadReply(f"bad Content-Length {length[:40]!r}")
            body = self._exactly(_body_size(int(size)))
        else:  # the body ends with the connection
            _body_size(len(self._buffer))
            while self._receive():
                _body_size(len(self._buffer))
            return status, bytes(self._buffer), False
        return status, body, keep and not self._buffer


def _close_all(socks: list[socket.socket]) -> None:
    for sock in socks:
        sock.close()
    socks.clear()


class JsonEndpoint:
    """POSTs JSON to one endpoint over a pool of keep-alive sockets, speaking
    HTTP/1.1 directly.

    The pool is shared by every calling thread. A call takes an idle socket,
    or opens one, and gives it back only after reading a whole reply that
    leaves it open, so the pool never holds more sockets than calls were ever
    in flight at once. A socket that failed, or whose reply closes it
    (HTTP/1.0, ``Connection: close``, a body framed by the end of the
    connection), is closed instead. Idle sockets are closed by ``close`` or
    when the endpoint is collected. The host is resolved once, here: no
    timeout bounds name resolution, so no call waits on it. A malformed URL or
    bearer token, or a host that does not resolve, raises ValueError here,
    before any call.
    """

    def __init__(self, url: str, bearer_token: Optional[str]) -> None:
        check_endpoint_url(url, "an endpoint URL", ValueError)
        parts = urlsplit(url)
        if bearer_token and not BEARER_TOKEN.fullmatch(bearer_token):
            raise ValueError("bearer_token must be visible ASCII (0x21-0x7E)")
        https = parts.scheme == "https"
        self.url = url
        self._tls = _tls_context() if https else None
        self._hostname = parts.hostname
        port = parts.port or (443 if https else 80)
        try:
            self._addresses = socket.getaddrinfo(parts.hostname, port, type=socket.SOCK_STREAM)
        except OSError as exc:
            raise ValueError(f"cannot resolve host {parts.hostname!r}: {exc}") from exc
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
        """A socket to the first resolved address that connects by ``deadline``. A
        timeout ends the search at once; else the last address's error is raised."""
        error: Optional[OSError] = None
        for family, kind, proto, _, address in self._addresses:
            sock = None
            try:
                sock = socket.socket(family, kind, proto)
                sock.settimeout(_time_left(deadline))
                sock.connect(address)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._tls is not None:
                    sock.settimeout(_time_left(deadline))
                    sock = self._tls.wrap_socket(sock, server_hostname=self._hostname)
                return sock
            except OSError as exc:
                if sock is not None:
                    sock.close()
                if isinstance(exc, TimeoutError):
                    raise
                error = exc
        raise error

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
                self._idle.append(sock)
        elif sock is not None:
            sock.close()

    def post_json(self, payload: Mapping[str, Any], deadline: Deadline) -> dict[str, Any]:
        """POST ``payload`` as JSON and return the reply's JSON object.

        BackendTimeout is raised once ``deadline`` passes, at whatever point
        of the call. An unreachable host, a TLS failure, a reply that breaks
        HTTP/1.1 framing, a status other than 200, or a body that is not a
        JSON object in UTF-8 (one nested too deeply to decode, or holding the
        escape of a lone surrogate, included) raises BackendTransportError.
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
            parsed = decode_json(data.decode("utf-8-sig"))
        except ValueError as exc:  # UnicodeDecodeError included
            raise BackendTransportError(f"malformed body from {self.url}: {exc}") from exc
        if not isinstance(parsed, dict):
            raise BackendTransportError(f"body from {self.url} must be a JSON object")
        return parsed
