"""Backend contracts: replay matching, deadlines, search, remote wire format."""

import dataclasses
import json
import math
import re
import socket
import ssl
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from http.server import BaseHTTPRequestHandler

import pytest

from ragvet.backends import (
    MAX_TOKENS,
    BackendTimeout,
    BackendTransportError,
    EmptyCompletionError,
    FixtureError,
    MockRerankerBackend,
    MockSearchBackend,
    ModelRequest,
    NoScriptEntryError,
    RemoteModelBackend,
    RemoteRerankerBackend,
    RemoteSearchBackend,
    ReplayModelBackend,
    Role,
    ask,
    jaccard_score,
    load_fixture,
    load_replay,
)
from ragvet.core import PipelineConfig, RetrievedItem, Source
from ragvet.pipeline import run_turn
from ragvet.runtime import Deadline
from ragvet.templates import PromptTemplate

from conftest import FIXTURES, CountingModel, scripted_model, serve_http
from test_pipeline import (
    TEMPLATES, fresh_state, image_fixture, make_backends, one_turn, turn_script,
)


def _request(role=Role.ROUTER, user="hello", **kw):
    return ModelRequest(role=role, system="s", user=user, **kw)


class TestReplayModelBackend:
    def test_scripted_lookup(self, no_deadline):
        backend = scripted_model({"role": Role.ROUTER, "match": "hello", "response": "yes no"})
        assert backend.complete(_request(), no_deadline).text == "yes no"

    def test_role_mismatch_is_no_entry(self, no_deadline):
        backend = scripted_model({"role": Role.GENERATOR, "match": "hello", "response": "x"})
        with pytest.raises(NoScriptEntryError):
            backend.complete(_request(role=Role.ROUTER), no_deadline)

    def test_first_matching_entry_wins(self, no_deadline):
        backend = scripted_model(
            {"role": Role.ROUTER, "match": ["hello", "world"], "response": "specific"},
            {"role": Role.ROUTER, "match": "hello", "response": "generic"},
        )
        assert backend.complete(_request(user="hello world"), no_deadline).text == "specific"
        assert backend.complete(_request(user="hello there"), no_deadline).text == "generic"

    def test_slow_script_times_out_within_deadline(self):
        backend = scripted_model(
            {"role": Role.ROUTER, "match": "", "response": "late", "sleep_ms": 5000}
        )
        started = time.monotonic()
        with pytest.raises(BackendTimeout):
            backend.complete(_request(), Deadline.after_ms(50))
        assert time.monotonic() - started < 1.0

    def test_scripted_sleep_waits_on_the_runtime_clock(self, virtual_clock, no_deadline):
        backend = scripted_model(
            {"role": Role.ROUTER, "match": "", "response": "late", "sleep_ms": 5000},
            {"role": Role.SUMMARIZER, "match": "", "response": "quick", "sleep_ms": 30},
        )
        with pytest.raises(BackendTimeout):
            backend.complete(_request(), Deadline.after_ms(50))
        assert virtual_clock.now() == pytest.approx(0.050)
        assert backend.complete(_request(role=Role.SUMMARIZER), no_deadline).text == "quick"
        assert virtual_clock.now() == pytest.approx(0.080)

    def test_empty_scripted_completion_is_distinct_error(self, no_deadline):
        backend = scripted_model({"role": Role.ROUTER, "match": "", "response": ""})
        with pytest.raises(EmptyCompletionError):
            backend.complete(_request(), no_deadline)

    def test_unknown_entry_key_rejected_at_load(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps([
            {"role": "router", "match": "q", "response": "ok"},
            {"role": "router", "user_sha256": "0" * 64, "response": "by hash"},
        ]), encoding="utf-8")
        with pytest.raises(FixtureError, match=r"replay\.json\[1\]: .*'user_sha256'"):
            load_replay(path)

    def test_deterministic_across_instances(self, no_deadline, tmp_path):
        entries = [{"role": "router", "match": "q", "response": "stable"}]
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        first = ReplayModelBackend.from_file(path).complete(_request(user="q"), no_deadline)
        second = ReplayModelBackend.from_file(path).complete(_request(user="q"), no_deadline)
        assert first.text == second.text


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_score("red shoe", "red shoe") == 1.0

    def test_disjoint(self):
        assert jaccard_score("red shoe", "blue kettle") == 0.0

    def test_partial_overlap(self):
        assert jaccard_score("red shoe", "red kettle") == pytest.approx(1 / 3)

    def test_case_and_order_free(self):
        assert jaccard_score("Shoe RED", "red shoe") == 1.0

    def test_both_empty(self):
        assert jaccard_score("", "  ") == 0.0


FIXTURE_DOC = {
    "image_index": {
        "img-1": [
            {"description": "a red shoe", "caption": "shoe", "score": 0.95},
            {"description": "a sandal", "score": 0.60},
            {"description": "a boot", "score": 0.30},
        ]
    },
    "web_index": [
        {"title": "Shoes", "url": "https://a.test", "snippet": "red shoe facts",
         "last_updated": "2025-01-01", "score": 0.9},
        {"title": "Kettles", "url": "https://b.test", "snippet": "blue kettle lore",
         "last_updated": "2025-01-02", "score": 0.8},
        {"title": "Noise", "url": "https://c.test", "snippet": "unrelated page",
         "last_updated": "2025-01-03", "score": 0.7},
    ],
}


@pytest.fixture
def search_backend(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(FIXTURE_DOC), encoding="utf-8")
    return MockSearchBackend(load_fixture(path))


class TestSearch:
    def test_image_search_top_k_in_score_order(self, search_backend):
        items = search_backend.image_search("img-1", 2)
        assert [i.fields["description"] for i in items] == ["a red shoe", "a sandal"]
        assert [i.recall_rank for i in items] == [1, 2]
        assert all(i.source is Source.KG_IMAGE for i in items)

    def test_unknown_key_is_empty(self, search_backend):
        assert search_backend.image_search("nope", 5) == []

    def test_fewer_records_than_k(self, search_backend):
        assert len(search_backend.image_search("img-1", 10)) == 3

    def test_web_search_ranks_by_overlap(self, search_backend, no_deadline):
        items = search_backend.web_search("red shoe", 2, no_deadline)
        assert items[0].fields["title"] == "Shoes"
        assert items[0].recall_rank == 1
        assert len(items) == 2

    def test_web_search_respects_k(self, search_backend, no_deadline):
        assert len(search_backend.web_search("anything", 1, no_deadline)) == 1

    def test_web_search_respects_deadline(self, search_backend):
        with pytest.raises(BackendTimeout):
            search_backend.web_search("red shoe", 2, Deadline.after_ms(0))

    def test_searches_never_mutate_the_fixture(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(FIXTURE_DOC), encoding="utf-8")
        fixture = load_fixture(path)
        backend = MockSearchBackend(fixture)
        backend.image_search("img-1", 2)
        backend.web_search("red shoe", 3, Deadline(math.inf))
        assert fixture == load_fixture(path)


class TestLoadFixture:
    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"web_index": [\n  {"oops"\n]}', encoding="utf-8")
        with pytest.raises(FixtureError, match="line"):
            load_fixture(path)

    def test_out_of_range_score_names_entry(self, tmp_path):
        doc = {"web_index": [{"snippet": "x", "score": 1.4}]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FixtureError, match=r"web_index\[0\]"):
            load_fixture(path)

    def test_unsorted_scores_rejected(self, tmp_path):
        doc = {"web_index": [
            {"snippet": "x", "score": 0.2},
            {"snippet": "y", "score": 0.9},
        ]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FixtureError, match="sorted descending"):
            load_fixture(path)

    def test_missing_snippet_rejected(self, tmp_path):
        doc = {"web_index": [{"title": "t", "score": 0.5}]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FixtureError, match="snippet"):
            load_fixture(path)


def _items_from_records(records, source, k):
    """The first ``k`` JSON records as items, built straight from the JSON."""
    return [RetrievedItem(source=source,
                          fields={name: value for name, value in record.items() if name != "score"},
                          recall_rank=rank)
            for rank, record in enumerate(records[:k], start=1)]


class TestFixtureLookups:
    """Every lookup returns exactly the items its fixture's JSON records make."""

    @pytest.fixture(params=["e2e", "ablation", "inline"])
    def fixture_case(self, request, tmp_path):
        """(the fixture document, its file, the queries asked of it)."""
        if request.param == "inline":
            path = tmp_path / "fixture.json"
            path.write_text(json.dumps(FIXTURE_DOC), encoding="utf-8")
            return FIXTURE_DOC, path, ["red shoe", "blue kettle lore", "nothing matches"]
        path = FIXTURES / f"{request.param}_search.json"
        dataset = (FIXTURES / f"{request.param}_dataset.jsonl").read_text(encoding="utf-8")
        queries = [turn["query"] for line in dataset.splitlines() if line.strip()
                   for turn in json.loads(line)["turns"]]
        return json.loads(path.read_text(encoding="utf-8")), path, queries

    def test_image_search_returns_the_records_in_file_order(self, fixture_case):
        doc, path, _ = fixture_case
        fixture = load_fixture(path)
        backends = (MockSearchBackend(fixture),
                    RemoteSearchBackend("http://127.0.0.1:1/search", image_fixture=fixture))
        for key, records in doc["image_index"].items():
            for k in range(1, len(records) + 2):
                want = _items_from_records(records, Source.KG_IMAGE, k)
                for backend in backends:
                    assert backend.image_search(key, k) == want, (key, k)

    def test_web_search_returns_the_records_ranked_by_overlap(self, fixture_case, no_deadline):
        doc, path, queries = fixture_case
        backend = MockSearchBackend(load_fixture(path))
        records = doc["web_index"]
        for query in queries:
            ranked = sorted(records, key=lambda record: -jaccard_score(
                query, f"{record.get('title', '')} {record['snippet']}"))
            for k in (1, PipelineConfig().recall_k, len(records) + 1):
                want = _items_from_records(ranked, Source.WEB, k)
                assert backend.web_search(query, k, no_deadline) == want, (query, k)

    def test_items_are_built_per_lookup_only(self, tmp_path, monkeypatch, no_deadline):
        built = []
        check = RetrievedItem.__post_init__

        def counted_check(item):
            built.append(item)
            check(item)

        monkeypatch.setattr(RetrievedItem, "__post_init__", counted_check)
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(FIXTURE_DOC), encoding="utf-8")
        backend = MockSearchBackend(load_fixture(path))
        assert built == []
        items = backend.image_search("img-1", 2) + backend.web_search("red shoe", 2, no_deadline)
        assert built == items


# Canned reply bodies served verbatim under /reply/<name>.
CANNED_REPLIES = {
    "not-json": b"<html>busy</html>",
    "out-of-range-scores": b'{"scores": [1.7, -0.2]}',
    "rerank-scores-missing": b"{}",
    "rerank-scores-not-list": b'{"scores": 0.5}',
    "rerank-score-not-numeric": b'{"scores": [0.5, "high"]}',
    "rerank-score-bool": b'{"scores": [0.5, true]}',
    "rerank-score-nan": b'{"scores": [0.5, NaN]}',
    "rerank-too-few-scores": b'{"scores": [0.5]}',
    "rerank-too-many-scores": b'{"scores": [0.5, 0.5, 0.5]}',
    "search-body-not-object": b"[]",
    "search-results-missing": b"{}",
    "search-results-not-list": b'{"results": {"snippet": "x"}}',
    "search-record-missing-snippet": b'{"results": [{"title": "t", "url": "https://a.test"}]}',
    "search-record-not-object": b'{"results": ["page"]}',
    "search-field-not-string": b'{"results": [{"snippet": 5}]}',
    "completion-body-not-object": b'["echo"]',
    "completion-text-missing": b'{"prompt_tokens": 3}',
    "completion-text-not-string": b'{"text": 5}',
    "completion-prompt-tokens-not-numeric": b'{"text": "hi", "prompt_tokens": "many"}',
    "completion-completion-tokens-not-numeric": b'{"text": "hi", "completion_tokens": [2]}',
    "completion-latency-not-numeric": b'{"text": "hi", "latency_ms": null}',
    "completion-latency-negative": b'{"text": "hi", "latency_ms": -5}',
}


class _Handler(BaseHTTPRequestHandler):
    """Tiny inference endpoint: echoes a completion derived from the request."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path.startswith("/reply/"):
            data = CANNED_REPLIES[self.path.removeprefix("/reply/")]
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if self.path == "/slow":  # outlasts every caller's deadline, then hangs up
            time.sleep(1.0)
            return
        if self.path == "/broken":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        if self.path == "/rerank":
            payload = {"scores": [jaccard_score(body["query"], c) for c in body["chunks"]]}
        else:
            payload = {
                "text": f"echo:{body['role']}",
                "prompt_tokens": 3,
                "completion_tokens": 2,
                "latency_ms": 1,
            }
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture(scope="module")
def http_server():
    with serve_http(_Handler) as server:
        yield server.url


class TestRemoteBackends:
    def test_round_trip_wire_format(self, http_server, no_deadline):
        backend = RemoteModelBackend(f"{http_server}/complete", bearer_token="tok")
        response = backend.complete(_request(role=Role.GENERATOR), no_deadline)
        assert response.text == "echo:generator"
        assert response.prompt_tokens == 3

    def test_timeout_maps_to_backend_timeout(self, http_server):
        backend = RemoteModelBackend(f"{http_server}/slow")
        with pytest.raises(BackendTimeout):
            backend.complete(_request(), Deadline.after_ms(100))

    def test_http_error_maps_to_transport_error(self, http_server, no_deadline):
        backend = RemoteModelBackend(f"{http_server}/broken")
        with pytest.raises(BackendTransportError):
            backend.complete(_request(), no_deadline)

    def test_unreachable_host_is_transport_error(self, no_deadline):
        backend = RemoteModelBackend("http://127.0.0.1:1/never")
        with pytest.raises(BackendTransportError):
            backend.complete(_request(), no_deadline)

    def test_remote_reranker_scores(self, http_server, no_deadline):
        backend = RemoteRerankerBackend(f"{http_server}/rerank")
        scores = backend.score_batch("red shoe", ["red shoe", "blue kettle", "red kettle"],
                                     no_deadline)
        assert scores == [1.0, 0.0, pytest.approx(1 / 3)]

    def test_remote_reranker_clamps_scores(self, http_server, no_deadline):
        backend = RemoteRerankerBackend(f"{http_server}/reply/out-of-range-scores")
        assert backend.score_batch("q", ["a", "b"], no_deadline) == [1.0, 0.0]

    def test_remote_search_times_out_at_the_deadline(self, http_server):
        backend = RemoteSearchBackend(f"{http_server}/slow")
        started = time.monotonic()
        with pytest.raises(BackendTimeout):
            backend.web_search("q", 5, Deadline.after_ms(100))
        assert time.monotonic() - started < 0.5

    def test_slow_search_ends_the_turn_within_budget(self, http_server):
        query = "who makes the kettle brand zylo"
        backends = dataclasses.replace(
            make_backends(turn_script(query)),
            search=RemoteSearchBackend(f"{http_server}/slow"),
        )
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400, abstain_margin_ms=20)
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert "recall_backend_error" in outcome.flags
        assert outcome.context.empty
        assert elapsed_ms <= cfg.turn_budget_ms + 200


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 endpoint that keeps its connections open unless a path says otherwise."""

    protocol_version = "HTTP/1.1"
    # Without this each reply's body waits on the caller's delayed ACK.
    disable_nagle_algorithm = True

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/drip":  # one byte of a 40-byte body every 250 ms
            self.send_response(200)
            self.send_header("Content-Length", "40")
            self.end_headers()
            try:
                for _ in range(40):
                    self.wfile.write(b" ")
                    time.sleep(0.25)
            except OSError:  # the caller gave up and hung up
                pass
            return
        if self.path == "/http10":  # an HTTP/1.0 reply, which ends its connection
            self.protocol_version = "HTTP/1.0"
        # "/http10" hangs up as HTTP/1.0 says; "/drop" hangs up after a reply
        # that says nothing of closing, as a server does with an idle connection.
        self.close_connection = self.path in ("/http10", "/drop")
        if self.path == "/broken":
            self._reply(500, b"boom")
        elif self.path == "/list":
            self._reply(200, b"[]")
        else:
            if self.path == "/overlap":  # long enough for concurrent calls to overlap
                time.sleep(0.02)
            self._reply(200, json.dumps({"text": f"echo:{body['user']}"}).encode("utf-8"))

    def _reply(self, status, data):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def keep_alive_server():
    with serve_http(_KeepAliveHandler) as server:
        yield server


@pytest.fixture
def remote_model(keep_alive_server):
    """A factory of model backends on the keep-alive server; each is closed after the test."""
    made = []

    def make(path):
        made.append(RemoteModelBackend(f"{keep_alive_server.url}{path}"))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


class TestKeepAliveTransport:
    def test_dripped_reply_times_out_at_the_deadline(self, remote_model):
        backend = remote_model("/drip")
        started = time.monotonic()
        with pytest.raises(BackendTimeout):
            backend.complete(_request(), Deadline.after_ms(1000))
        assert time.monotonic() - started <= 1.0 + 0.2

    def test_concurrent_calls_each_get_their_own_reply(self, remote_model):
        """Two callers handed one connection would read each other's replies."""
        backend = remote_model("/overlap")
        users = [f"caller {i}" for i in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                for _ in range(3):
                    futures = [pool.submit(backend.complete, _request(user=user),
                                           Deadline.after_ms(10_000)) for user in users]
                    texts = [future.result(timeout=15).text for future in futures]
                    assert texts == [f"echo:{user}" for user in users]
        finally:
            sys.setswitchinterval(interval)

    def test_sequential_calls_share_one_connection(self, keep_alive_server, remote_model):
        backend = remote_model("/echo")
        for i in range(200):
            assert backend.complete(_request(user=f"u{i}"), Deadline(math.inf)).text == f"echo:u{i}"
        assert len(keep_alive_server.opened) == 1

    def test_connection_dropped_while_idle_is_replaced(self, keep_alive_server, remote_model):
        backend = remote_model("/drop")
        for _ in range(2):
            assert backend.complete(_request(), Deadline(math.inf)).text == "echo:hello"
        assert len(keep_alive_server.opened) == 2

    def test_http10_reply_connection_is_not_reused(self, keep_alive_server, remote_model):
        backend = remote_model("/http10")
        for _ in range(3):
            backend.complete(_request(), Deadline(math.inf))
        assert len(keep_alive_server.opened) == 3

    @pytest.mark.parametrize("path", ["/broken", "/list"])
    def test_bad_reply_is_transport_error_and_keeps_the_connection(
            self, keep_alive_server, remote_model, path):
        backend = remote_model(path)
        for _ in range(2):
            with pytest.raises(BackendTransportError):
                backend.complete(_request(), Deadline(math.inf))
        assert len(keep_alive_server.opened) == 1

    def test_name_resolution_never_holds_a_call_past_its_deadline(self, remote_model,
                                                                  monkeypatch):
        """The host is resolved when the backend is built, so a resolver that
        stalls afterwards cannot delay a call, which no timeout would bound."""
        backend = remote_model("/drip")
        released = threading.Event()
        resolve = socket.getaddrinfo

        def stalled(*args, **kwargs):
            released.wait(2.0)
            return resolve(*args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", stalled)
        started = time.monotonic()
        try:
            with pytest.raises(BackendTimeout):
                backend.complete(_request(), Deadline.after_ms(200))
        finally:
            released.set()
        assert time.monotonic() - started <= 0.2 + 0.2

    def test_unresolvable_host_rejected_before_any_call(self, monkeypatch):
        def unknown(host, *args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", unknown)
        with pytest.raises(ValueError, match="no-such-host.test"):
            RemoteModelBackend("http://no-such-host.test/complete")

    @pytest.mark.parametrize("token", ["tok\u2713", "a\r\nX-Evil: 1", "two words"])
    def test_bearer_token_outside_visible_ascii_rejected_unechoed(self, token):
        with pytest.raises(ValueError) as caught:
            RemoteModelBackend("http://127.0.0.1:1/complete", bearer_token=token)
        assert token not in str(caught.value)

    @pytest.mark.parametrize("endpoint", ["localhost:8000/complete", "http:///complete",
                                          "ftp://host/complete", "http://host:port/",
                                          "http://host/two words", "http://host/caf\u00e9"])
    def test_malformed_endpoint_rejected_before_any_call(self, endpoint):
        with pytest.raises(ValueError):
            RemoteModelBackend(endpoint)


def _scripted_handler(replies):
    """An HTTP/1.1 handler that answers its n-th request with ``replies[n]``:
    the raw reply (bytes, or a tuple of parts sent 50 ms apart), and whether to
    hang up after it. ``requests`` logs each request's path and headers."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        requests = []

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.requests.append((self.path, dict(self.headers)))
            data, self.close_connection = replies[len(self.requests) - 1]
            for i, part in enumerate((data,) if isinstance(data, bytes) else data):
                if i:
                    time.sleep(0.05)
                self.wfile.write(part)

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture
def scripted_server():
    """``scripted_server(*replies)`` serves ``replies`` in order; it returns the
    server, its handler class and a model backend on it, closed after the test."""
    with ExitStack() as stack:
        def serve(*replies):
            handler = _scripted_handler(replies)
            server = stack.enter_context(serve_http(handler))
            backend = RemoteModelBackend(f"{server.url}/v1/complete?stream=0", bearer_token="tok")
            stack.callback(backend.close)
            return server, handler, backend

        yield serve


BODY = b'{"text": "hi"}'
OK = b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n" + BODY


def _call(backend):
    return backend.complete(_request(), Deadline.after_ms(2000)).text


class TestHttpWire:
    def test_request_head(self, scripted_server):
        server, handler, backend = scripted_server((OK, False))
        assert _call(backend) == "hi"
        path, headers = handler.requests[0]
        assert path == "/v1/complete?stream=0"
        assert headers["Host"] == server.url.removeprefix("http://")
        assert headers["Authorization"] == "Bearer tok"
        assert headers["Content-Type"] == "application/json"

    def test_chunked_reply_with_extension_and_trailer(self, scripted_server):
        chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6;note=fi",
                   b'rst\r\n{"text\r\n8\r\n": "hi"}\r\n0\r\nX-Check',
                   b"sum: 1\r\n\r\n")
        server, _, backend = scripted_server((chunked, False), (OK, False))
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert len(server.opened) == 1

    def test_http10_body_ends_with_the_connection(self, scripted_server):
        reply = (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n", BODY)
        server, _, backend = scripted_server((reply, True), (reply, True))
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert len(server.opened) == 2

    def test_100_continue_is_skipped(self, scripted_server):
        server, _, backend = scripted_server(((b"HTTP/1.1 100 Continue\r\n\r\n", OK), False),
                                             (OK, False))
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert len(server.opened) == 1

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 204 No Content\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\nContent-Length: 14\r\n\r\n" + BODY,
        b"ICY 200 OK\r\nContent-Length: 14\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: -14\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: +14\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: fourteen\r\n\r\n" + BODY,
    ], ids=["204", "head-over-64KiB", "status-line", "negative-length", "signed-length",
            "word-length"])
    def test_bad_reply_is_transport_error_before_the_deadline(self, scripted_server, reply):
        """The server keeps the connection open, so a caller that waited for
        more of the reply would end in BackendTimeout at the deadline."""
        _, _, backend = scripted_server((reply, False))
        started = time.monotonic()
        with pytest.raises(BackendTransportError):
            _call(backend)
        assert time.monotonic() - started < 1.0

    def test_connection_closed_mid_body_is_transport_error(self, scripted_server):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n" + BODY
        _, _, backend = scripted_server((reply, True))
        with pytest.raises(BackendTransportError):
            _call(backend)

    def test_reused_connection_lost_mid_reply_is_not_retried(self, scripted_server):
        _, handler, backend = scripted_server((OK, False), (OK[:20], True))
        assert _call(backend) == "hi"
        with pytest.raises(BackendTransportError):
            _call(backend)
        assert len(handler.requests) == 2


class _RawListener:
    """A loopback socket that accepts one connection, keeps the bytes of the
    one request it reads there in ``request``, and answers ``reply``."""

    def __init__(self, reply):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self.request = None
        self._thread = threading.Thread(target=self._serve, args=(reply,), daemon=True)
        self._thread.start()

    def _serve(self, reply):
        try:
            conn, _ = self._listener.accept()
        except TimeoutError:  # no call came
            return
        conn.settimeout(5)
        with conn, conn.makefile("rb") as stream:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = stream.readline()
                if not line:  # the caller hung up
                    return
                head += line
            length = int(re.search(rb"(?i)\r\ncontent-length: *([0-9]+)", head)[1])
            self.request = head + stream.read(length)
            conn.sendall(reply)

    def close(self):
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive()


def _json_reply(body):
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%b" % (
        len(body), body)


@pytest.fixture
def raw_listener():
    """``raw_listener(reply)`` starts a ``_RawListener``, closed after the test."""
    with ExitStack() as stack:
        def listen(reply):
            listener = _RawListener(reply)
            stack.callback(listener.close)
            return listener

        yield listen


class TestRequestBytes:
    """The exact bytes each remote call sends: head, then JSON body."""

    @staticmethod
    def _head(listener, path, length):
        return (f"POST {path} HTTP/1.1\r\nHost: {listener.url.removeprefix('http://')}\r\n"
                "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
                f"Authorization: Bearer tok\r\nContent-Length: {length}\r\n\r\n").encode("ascii")

    def test_model_call(self, raw_listener):
        listener = raw_listener(_json_reply(b'{"text": "hi"}'))
        backend = RemoteModelBackend(f"{listener.url}/v1/complete?stream=0", bearer_token="tok")
        request = ModelRequest(role=Role.VERIFIER, system="sys \u00e9", user='say "hi"\n',
                               image_ref="img-1", max_tokens=64)
        assert backend.complete(request, Deadline.after_ms(2000)).text == "hi"
        backend.close()
        body = (b'{"role": "verifier", "system": "sys \\u00e9", "user": "say \\"hi\\"\\n", '
                b'"image_ref": "img-1", "max_tokens": 64, "deterministic": true}')
        assert listener.request == self._head(listener, "/v1/complete?stream=0", len(body)) + body

    def test_rerank_call(self, raw_listener):
        listener = raw_listener(_json_reply(b'{"scores": [0.5, 1]}'))
        backend = RemoteRerankerBackend(f"{listener.url}/rerank", bearer_token="tok")
        assert backend.score_batch("red shoe", ["a red shoe", "kettle"],
                                   Deadline.after_ms(2000)) == [0.5, 1.0]
        backend.close()
        body = b'{"query": "red shoe", "chunks": ["a red shoe", "kettle"]}'
        assert listener.request == self._head(listener, "/rerank", len(body)) + body

    def test_web_search_call(self, raw_listener):
        listener = raw_listener(_json_reply(b'{"results": [{"snippet": "s"}]}'))
        backend = RemoteSearchBackend(f"{listener.url}/", bearer_token="tok")
        items = backend.web_search("zylo kettle", 4, Deadline.after_ms(2000))
        assert [item.fields for item in items] == [{"snippet": "s"}]
        backend.close()
        body = b'{"query": "zylo kettle", "k": 4}'
        assert listener.request == self._head(listener, "/", len(body)) + body


# A test-only self-signed certificate and its key, valid 2024-2124, made with
#   openssl req -x509 -newkey rsa:2048 -nodes -sha256 -subj "/CN=localhost" \
#     -not_before 20240101000000Z -not_after 21240101000000Z \
#     -addext "subjectAltName=DNS:localhost,IP:127.0.0.1" \
#     -keyout tls_localhost.key -out tls_localhost.pem
TLS_CERT = FIXTURES / "tls_localhost.pem"
TLS_KEY = FIXTURES / "tls_localhost.key"


@pytest.fixture
def tls_server():
    """The keep-alive handler over TLS, with the self-signed certificate for 127.0.0.1."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_CERT, TLS_KEY)
    with serve_http(_KeepAliveHandler, tls=context) as server:
        yield server


class TestHttps:
    def test_untrusted_certificate_is_transport_error(self, tls_server, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        backend = RemoteModelBackend(f"{tls_server.url}/echo")
        with pytest.raises(BackendTransportError, match="CERTIFICATE_VERIFY_FAILED"):
            backend.complete(_request(), Deadline.after_ms(2000))
        backend.close()

    def test_stalled_handshake_times_out_at_the_deadline(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
            backend = RemoteModelBackend(f"https://127.0.0.1:{listener.getsockname()[1]}/")
            started = time.monotonic()
            with pytest.raises(BackendTimeout):
                backend.complete(_request(), Deadline.after_ms(300))
            assert time.monotonic() - started <= 0.3 + 0.2

    def test_trusted_calls_share_one_connection(self, tls_server, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        backend = RemoteModelBackend(f"{tls_server.url}/echo")
        try:
            for i in range(3):
                reply = backend.complete(_request(user=f"u{i}"), Deadline.after_ms(2000))
                assert reply.text == f"echo:u{i}"
        finally:
            backend.close()
        assert len(tls_server.opened) == 1

    @pytest.mark.parametrize("trusted_first", [False, True],
                             ids=["untrusted-first", "trusted-first"])
    def test_trust_follows_the_environment_in_either_order(self, tls_server, monkeypatch,
                                                           trusted_first):
        for trusted in (trusted_first, not trusted_first):
            if trusted:
                monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
            else:
                monkeypatch.delenv("SSL_CERT_FILE", raising=False)
            backend = RemoteModelBackend(f"{tls_server.url}/echo")
            try:
                if trusted:
                    assert backend.complete(_request(), Deadline.after_ms(2000)).text == "echo:hello"
                else:
                    with pytest.raises(BackendTransportError, match="CERTIFICATE_VERIFY_FAILED"):
                        backend.complete(_request(), Deadline.after_ms(2000))
            finally:
                backend.close()

    def test_endpoints_share_one_context_per_trust_settings(self, tls_context_calls,
                                                            monkeypatch):
        backends = [RemoteModelBackend(f"https://127.0.0.1:1/{i}") for i in range(3)]
        assert len(tls_context_calls) == 1
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        backends += [RemoteModelBackend("https://127.0.0.1:1/a"),
                     RemoteModelBackend("https://127.0.0.1:1/b")]
        assert len(tls_context_calls) == 2
        backends.append(RemoteModelBackend("http://127.0.0.1:1/plain"))
        assert len(tls_context_calls) == 2
        for backend in backends:
            backend.close()


RERANK_BAD_REPLIES = ["not-json"] + [name for name in CANNED_REPLIES if name.startswith("rerank-")]
SEARCH_BAD_REPLIES = ["not-json"] + [name for name in CANNED_REPLIES if name.startswith("search-")]
COMPLETION_BAD_REPLIES = ["not-json"] + [
    name for name in CANNED_REPLIES if name.startswith("completion-")
]


class TestMalformedReplies:
    @pytest.mark.parametrize("reply", COMPLETION_BAD_REPLIES)
    def test_bad_completion_reply_is_transport_error(self, http_server, no_deadline, reply):
        backend = RemoteModelBackend(f"{http_server}/reply/{reply}")
        with pytest.raises(BackendTransportError):
            backend.complete(_request(), no_deadline)

    @pytest.mark.parametrize("reply", RERANK_BAD_REPLIES)
    def test_bad_rerank_reply_is_transport_error(self, http_server, no_deadline, reply):
        backend = RemoteRerankerBackend(f"{http_server}/reply/{reply}")
        with pytest.raises(BackendTransportError):
            backend.score_batch("q", ["a", "b"], no_deadline)

    def test_bad_rerank_reply_degrades_turn_to_empty_context(self, http_server):
        query = "what brand is this shoe"
        backends = dataclasses.replace(
            make_backends(turn_script(query), image_fixture("img-1", query)),
            reranker=RemoteRerankerBackend(f"{http_server}/reply/rerank-scores-missing"),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert "rerank_backend_error" in outcome.flags
        assert outcome.context.empty

    @pytest.mark.parametrize("reply", SEARCH_BAD_REPLIES)
    def test_bad_search_reply_is_transport_error(self, http_server, reply):
        backend = RemoteSearchBackend(f"{http_server}/reply/{reply}")
        with pytest.raises(BackendTransportError):
            backend.web_search("q", 5, Deadline(math.inf))
        query = "what brand is this shoe"
        backends = dataclasses.replace(make_backends(turn_script(query)), search=backend)
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"),
                           backends, TEMPLATES)
        assert "recall_backend_error" in outcome.flags
        assert "recall" in outcome.stages and "rerank" in outcome.stages
        assert outcome.context.empty


class TestRequestValidation:
    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            _request(max_tokens=0)

    def test_reranker_deadline_respected(self):
        with pytest.raises(BackendTimeout):
            MockRerankerBackend().score_batch("a", ["b"], Deadline.after_ms(0))


class TestAsk:
    def test_each_role_has_its_reply_cap(self):
        assert {role.value: cap for role, cap in MAX_TOKENS.items()} == {
            "router": 64, "summarizer": 128, "generator": 256,
            "consistency_judge": 8, "verifier": 256, "judge": 16,
        }

    def test_sends_the_rendered_template_with_the_role_cap(self, no_deadline):
        model = CountingModel(scripted_model({"role": Role.SUMMARIZER, "response": " a shoe "}))
        template = PromptTemplate(system="sys {query}", user="user {query}")
        reply = ask(model, Role.SUMMARIZER, template, no_deadline, "img-1", query="q?")
        assert reply == " a shoe "
        assert model.requests == [ModelRequest(role=Role.SUMMARIZER, system="sys q?",
                                               user="user q?", image_ref="img-1",
                                               max_tokens=128)]

    def test_backend_failure_propagates(self):
        model = scripted_model({"role": Role.ROUTER, "response": "late", "sleep_ms": 50})
        template = PromptTemplate(system="s", user="u")
        with pytest.raises(BackendTimeout):
            ask(model, Role.ROUTER, template, Deadline.after_ms(1))
