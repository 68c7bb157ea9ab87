"""Backend contracts: replay matching, deadlines, search, remote wire format."""

import dataclasses
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

import pytest

from ragvet.backends import (
    BackendTimeout,
    BackendTransportError,
    EmptyCompletionError,
    FixtureError,
    MockRerankerBackend,
    MockSearchBackend,
    ModelRequest,
    NoScriptEntryError,
    RecordingModelBackend,
    RemoteModelBackend,
    RemoteRerankerBackend,
    RemoteSearchBackend,
    ReplayEntry,
    ReplayModelBackend,
    Role,
    jaccard_score,
    load_fixture,
    load_replay,
)
from ragvet.core import PipelineConfig, RoutingDecision, Source
from ragvet.pipeline import run_turn
from ragvet.retrieval import expand_query, recall
from ragvet.runtime import Deadline, Trace

from conftest import scripted_model, serve_http
from test_pipeline import fresh_state, image_fixture, make_backends, one_turn, turn_script


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

    def test_empty_scripted_completion_is_distinct_error(self, no_deadline):
        backend = scripted_model({"role": Role.ROUTER, "match": "", "response": ""})
        with pytest.raises(EmptyCompletionError):
            backend.complete(_request(), no_deadline)

    def test_hash_keyed_entry(self, no_deadline, tmp_path):
        digest = hashlib.sha256(b"exact user text").hexdigest()
        path = tmp_path / "replay.json"
        path.write_text(
            json.dumps([{"role": "router", "user_sha256": digest, "response": "matched"}]),
            encoding="utf-8",
        )
        backend = ReplayModelBackend(load_replay(path))
        assert backend.complete(_request(user="exact user text"), no_deadline).text == "matched"
        with pytest.raises(NoScriptEntryError):
            backend.complete(_request(user="other text"), no_deadline)

    @pytest.mark.parametrize("sha_first", [False, True])
    def test_first_match_wins_across_match_and_hash_entries(self, no_deadline, sha_first):
        user = "exact user text"
        by_match = ReplayEntry(role=Role.ROUTER, response="by match", match=("exact",))
        by_hash = ReplayEntry(role=Role.ROUTER, response="by hash",
                              user_sha256=hashlib.sha256(user.encode("utf-8")).hexdigest())
        entries = [by_hash, by_match] if sha_first else [by_match, by_hash]
        backend = ReplayModelBackend(entries)
        expected = "by hash" if sha_first else "by match"
        assert backend.complete(_request(user=user), no_deadline).text == expected

    def test_user_text_hashed_at_most_once_per_request(self, no_deadline, monkeypatch):
        user = "exact user text"
        entries = [
            ReplayEntry(role=Role.GENERATOR, response="other role", user_sha256="0" * 64),
            ReplayEntry(role=Role.ROUTER, response="miss", user_sha256="1" * 64),
            ReplayEntry(role=Role.ROUTER, response="miss", user_sha256="2" * 64),
            ReplayEntry(role=Role.ROUTER, response="hit",
                        user_sha256=hashlib.sha256(user.encode("utf-8")).hexdigest()),
        ]
        backend = ReplayModelBackend(entries)
        real_sha256 = hashlib.sha256
        hashed = []
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or real_sha256(data))
        assert backend.complete(_request(user=user), no_deadline).text == "hit"
        assert len(hashed) == 1

    def test_deterministic_across_instances(self, no_deadline, tmp_path):
        entries = [{"role": "router", "match": "q", "response": "stable"}]
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        first = ReplayModelBackend.from_file(path).complete(_request(user="q"), no_deadline)
        second = ReplayModelBackend.from_file(path).complete(_request(user="q"), no_deadline)
        assert first.text == second.text


class TestRecordingBackend:
    def test_records_and_replays(self, no_deadline, tmp_path):
        inner = scripted_model({"role": Role.ROUTER, "match": "", "response": "answer"})
        recorder = RecordingModelBackend(inner)
        recorder.complete(_request(user="the exact prompt"), no_deadline)
        path = tmp_path / "recorded.json"
        recorder.dump(path)
        replay = ReplayModelBackend.from_file(path)
        assert replay.complete(_request(user="the exact prompt"), no_deadline).text == "answer"
        with pytest.raises(NoScriptEntryError):
            replay.complete(_request(user="different prompt"), no_deadline)


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
        backend.web_search("red shoe", 3, Deadline.never())
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
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends)
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
            assert backend.complete(_request(user=f"u{i}"), Deadline.never()).text == f"echo:u{i}"
        assert len(keep_alive_server.opened) == 1

    def test_connection_dropped_while_idle_is_replaced(self, keep_alive_server, remote_model):
        backend = remote_model("/drop")
        for _ in range(2):
            assert backend.complete(_request(), Deadline.never()).text == "echo:hello"
        assert len(keep_alive_server.opened) == 2

    def test_http10_reply_connection_is_not_reused(self, keep_alive_server, remote_model):
        backend = remote_model("/http10")
        for _ in range(3):
            backend.complete(_request(), Deadline.never())
        assert len(keep_alive_server.opened) == 3

    @pytest.mark.parametrize("path", ["/broken", "/list"])
    def test_bad_reply_is_transport_error_and_keeps_the_connection(
            self, keep_alive_server, remote_model, path):
        backend = remote_model(path)
        for _ in range(2):
            with pytest.raises(BackendTransportError):
                backend.complete(_request(), Deadline.never())
        assert len(keep_alive_server.opened) == 1

    @pytest.mark.parametrize("endpoint", ["localhost:8000/complete", "http:///complete",
                                          "ftp://host/complete", "http://host:port/",
                                          "http://host/two words", "http://host/caf\u00e9"])
    def test_malformed_endpoint_rejected_before_any_call(self, endpoint):
        with pytest.raises(ValueError):
            RemoteModelBackend(endpoint)


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
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert "rerank_backend_error" in outcome.flags
        assert outcome.context.empty

    @pytest.mark.parametrize("reply", SEARCH_BAD_REPLIES)
    def test_bad_search_reply_is_transport_error(self, http_server, reply):
        backend = RemoteSearchBackend(f"{http_server}/reply/{reply}")
        with pytest.raises(BackendTransportError):
            backend.web_search("q", 5, Deadline.never())
        trace = Trace()
        items = recall(expand_query("q", ""), None,
                       RoutingDecision(needs_external=True, is_real_time=False),
                       backend, 5, mode="task2plus", trace=trace)
        assert items == []
        assert "recall_backend_error" in trace.flags


class TestRequestValidation:
    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            _request(max_tokens=0)

    def test_reranker_deadline_respected(self):
        with pytest.raises(BackendTimeout):
            MockRerankerBackend().score_batch("a", ["b"], Deadline.after_ms(0))
