"""The remote backends' HTTP/1.1 JSON transport, and the errors it raises.

``JsonEndpoint`` is the one place that touches ``socket`` and ``ssl``;
``backends`` re-exports the error classes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import socket
import ssl
import threading
import weakref
from typing import Any, Mapping, Optional
from urllib.parse import urlsplit

from .runtime import Deadline

__all__ = ["BackendError", "BackendTimeout", "BackendTransportError", "BEARER_TOKEN",
           "JsonEndpoint"]


class BackendError(Exception):
    """Base class for every backend failure."""


class BackendTimeout(BackendError):
    """The deadline expired before the backend produced a result."""


class BackendTransportError(BackendError):
    """The remote service could not be reached or answered abnormally."""


# A bearer token: visible ASCII (0x21-0x7E), sent in the Authorization header as it is.
BEARER_TOKEN = re.compile(r"[\x21-\x7e]*")

# Idle keep-alive connections one endpoint keeps for later calls.
_MAX_IDLE = 8
# The most bytes a reply's head (status line and headers) or a chunk line may take.
_MAX_HEAD = 64 * 1024
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([0-9]{3})(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
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


class JsonEndpoint:
    """POSTs JSON to one endpoint over a pool of keep-alive sockets, speaking
    HTTP/1.1 directly.

    The pool is shared by every calling thread. A call takes an idle socket,
    or opens one, and gives it back only after reading a whole reply that
    leaves it open. A socket that failed, or whose reply closes it (HTTP/1.0,
    ``Connection: close``, a body framed by the end of the connection), is
    closed instead. Idle sockets are closed by ``close`` or when the endpoint
    is collected. The host is resolved once, here: no timeout bounds name
    resolution, so no call waits on it. A malformed URL or bearer token, or a
    host that does not resolve, raises ValueError here, before any call.
    """

    def __init__(self, url: str, bearer_token: Optional[str]) -> None:
        parts = urlsplit(url)
        if (parts.scheme not in ("http", "https") or not parts.hostname
                or not url.isascii() or re.search(r"[\x00-\x20\x7f]", url)):
            raise ValueError(f"{url!r} is not an http:// or https:// URL with a host, "
                             "in ASCII without spaces")
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
