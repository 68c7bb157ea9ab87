"""Backend contracts: replay matching, deadlines, search, remote wire format."""

import dataclasses
import json
import math
import re
import socket
import ssl
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from ragvet import transport
from ragvet.backends import (
    MAX_TOKENS,
    BackendTimeout,
    BackendTransportError,
    Backends,
    EmptyCompletionError,
    FixtureError,
    MockRerankerBackend,
    ModelRequest,
    NoScriptEntryError,
    RemoteModelBackend,
    RemoteRerankerBackend,
    RemoteSearchBackend,
    ReplayModelBackend,
    Role,
    SearchFixture,
    ask,
    jaccard_score,
    load_fixture,
    load_replay,
)
from ragvet.core import PipelineConfig, RetrievedItem, Source, check_surrogates
from ragvet.pipeline import run_turn
from ragvet.runtime import Deadline
from ragvet.templates import PromptTemplate
from ragvet.transport import JsonEndpoint

from conftest import (
    BAD_REPLIES, BODY, COV_FULL, DRAWN_STAGES, DRIP, FAILURE_FLAGS, FIXTURES, NO_REPLY, OK,
    ROUTE_PLAIN, TEMPLATES, TURN_CALLS, Raw, day_deadline, fresh_state, image_fixture,
    make_backends, one_turn, scripted_model, serve_http, tap, turn_script,
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
    return load_fixture(path)


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
        fixture.image_search("img-1", 2)
        fixture.web_search("red shoe", 3, day_deadline())
        assert fixture == load_fixture(path)


GOOD_RECORDS = {"image_index": {"description": "a red shoe"}, "web_index": {"snippet": "facts"}}
# The record list each fault case breaks, by the name its messages give it.
FAULTY_LISTS = {"image_index": "image_index['k1']", "web_index": "web_index"}
CONTENT_PROBLEMS = {
    "image_index": "kg_image item needs at least one of description/caption/summary",
    "web_index": "web item must carry a snippet",
}


def _list_faults(where: str) -> list[tuple[str, Any, str]]:
    """Each fault of one record list under ``where``, as (case, the list, the
    message after the list's name); a bad record follows one good record."""
    good = GOOD_RECORDS[where]

    def second(record):
        return [dict(good, score=0.9), record]

    def scored(score):
        return second(dict(good, score=score))

    return [
        ("not_a_list", dict(good, score=0.9), " must be a list of records"),
        ("record_not_an_object", second(["x"]), "[1]: record must be an object"),
        ("no_score", second(dict(good)), "[1]: record is missing 'score'"),
        ("score_bool", scored(True), "[1]: score must be within [0, 1], got True"),
        ("score_string", scored("0.5"), "[1]: score must be within [0, 1], got '0.5'"),
        ("score_null", scored(None), "[1]: score must be within [0, 1], got None"),
        ("score_infinity", scored(math.inf), "[1]: score must be within [0, 1], got inf"),
        ("score_below_0", scored(-0.1), "[1]: score must be within [0, 1], got -0.1"),
        ("score_above_1", scored(1.4), "[1]: score must be within [0, 1], got 1.4"),
        ("field_not_a_string", second(dict(good, score=0.5, extra=3)),
         "[1]: field 'extra' must be a string"),
        ("no_content_field", second({"title": "t", "score": 0.5}),
         f"[1]: {CONTENT_PROBLEMS[where]}"),
        ("empty_content", second({"caption": "", "snippet": "", "score": 0.5}),
         f"[1]: {CONTENT_PROBLEMS[where]}"),
        ("unsorted", [dict(good, score=0.2), dict(good, score=0.9)],
         "[1]: records must be sorted descending by score"),
    ]


def _with_list(where: str, records: Any) -> dict[str, Any]:
    """A fixture whose lists are good but the one under image key 'k1' or
    ``web_index``, which is ``records``."""
    doc = {"image_index": {"ok": [dict(GOOD_RECORDS["image_index"], score=1)]},
           "web_index": [dict(GOOD_RECORDS["web_index"], score=1)]}
    if where == "web_index":
        doc["web_index"] = records
    else:
        doc["image_index"]["k1"] = records
    return doc


# Every FixtureError a parsed fixture can raise, as (case, document, message
# after the path), the messages verbatim.
FIXTURE_FAULTS = [
    ("fixture_not_an_object", [], ": fixture must be an object"),
    ("image_index_not_an_object", {"image_index": []},
     ":image_index must be an object of record lists"),
    *((f"{where}-{case}", _with_list(where, records),
       f":{FAULTY_LISTS[where]}{message}")
      for where in FAULTY_LISTS for case, records, message in _list_faults(where)),
]


class TestLoadFixture:
    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"web_index": [\n  {"oops"\n]}', encoding="utf-8")
        with pytest.raises(FixtureError, match="line"):
            load_fixture(path)

    @pytest.mark.parametrize("doc, message", [case[1:] for case in FIXTURE_FAULTS],
                             ids=[case[0] for case in FIXTURE_FAULTS])
    def test_fault_message(self, tmp_path, doc, message):
        path = tmp_path / "f.json"
        # json.dumps writes inf as Infinity, which is not JSON; 1e400 is, and decodes to inf.
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"), encoding="utf-8")
        with pytest.raises(FixtureError) as caught:
            load_fixture(path)
        assert str(caught.value) == f"{path}{message}"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_score_that_is_no_json_number_is_not_json(self, tmp_path, constant):
        path = tmp_path / "f.json"
        path.write_text(f'{{"image_index": {{}}, "web_index": [{{"snippet": "s", '
                        f'"score": {constant}}}]}}', encoding="utf-8")
        with pytest.raises(FixtureError) as caught:
            load_fixture(path)
        assert str(caught.value) == f"{path}: invalid JSON: {constant} is not a JSON value"

    def test_a_misspelled_top_level_key_is_named(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"image_indx": {"k": [{"caption": "c", "score": 1}]},
                                    "web_index": [], "notes": ""}), encoding="utf-8")
        with pytest.raises(FixtureError) as caught:
            load_fixture(path)
        assert str(caught.value) == f"{path}: unknown fixture key 'image_indx'"


# Faults a drawn index plants in one record; "unsorted" needs a record before it.
RECORD_FAULTS = ("not_an_object", "no_score", "bad_score", "field_not_a_string", "no_content",
                 "unsorted")
# The text fields a drawn good record holds.
KG_FIELD_SETS = [{"description": "d"}, {"caption": "c", "summary": ""},
                 {"description": "", "summary": "s", "title": "t"}]
WEB_FIELD_SETS = [{"snippet": "s"}, {"title": "", "snippet": "s", "url": "u"}]


def _plant(records: list, index: int, fault: str) -> Any:
    """``records`` with ``fault`` planted at ``index``, or, when ``index`` is
    -1, the list replaced by a non-list."""
    if index == -1:
        return {"records": records}
    record = records[index]
    if fault == "not_an_object":
        records[index] = [record]
    elif fault == "no_score":
        del record["score"]
    elif fault == "bad_score":
        record["score"] = 1.5
    elif fault == "field_not_a_string":
        record["extra"] = 7
    elif fault == "no_content":
        records[index] = {"title": "t", "score": record["score"]}
    else:  # every drawn score is at most 0.9, so 1.0 outranks the record before
        record["score"] = 1.0
    return records


@st.composite
def drawn_indexes(draw, max_faults: int):
    """(a fixture document with one to ``max_faults`` faults planted, or none
    when it is 0; the start of the first fault's message after the path)."""
    keys = draw(st.lists(st.sampled_from(["a", "b'", 'c"', "d e"]), unique=True, max_size=4))

    def records(field_sets):
        scores = sorted(draw(st.lists(st.floats(0, 0.9), max_size=4)), reverse=True)
        fields = draw(st.lists(st.sampled_from(field_sets), min_size=len(scores),
                               max_size=len(scores)))
        return [dict(found, score=score) for found, score in zip(fields, scores)]

    lists = [(f"image_index[{key!r}]", records(KG_FIELD_SETS)) for key in keys]
    lists.append(("web_index", records(WEB_FIELD_SETS)))
    # A position is (list, record index), -1 standing for the whole list, so
    # positions sort in the order the loader checks them.
    positions = [(at, index) for at, (_, found) in enumerate(lists)
                 for index in range(-1, len(found))]
    planted = sorted(draw(st.lists(st.sampled_from(positions), unique=True,
                                   min_size=min(max_faults, 1), max_size=max_faults)))
    for at, index in planted:
        name, found = lists[at]
        if isinstance(found, list):  # else a list fault already replaced it
            usable = RECORD_FAULTS if index > 0 else RECORD_FAULTS[:-1]
            fault = "" if index == -1 else draw(st.sampled_from(usable))
            lists[at] = (name, _plant(found, index, fault))
    doc = {"image_index": {key: found for key, (_, found) in zip(keys, lists)},
           "web_index": lists[-1][1]}
    if not planted:
        return doc, None
    at, index = planted[0]
    return doc, lists[at][0] + (" must be" if index == -1 else f"[{index}]: ")


def _load_drawn(doc: dict[str, Any]):
    """(the file ``doc`` was written to, what loading it returned or raised)."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            return path, load_fixture(path)
        except FixtureError as error:
            return path, error


@settings(max_examples=50, deadline=None)
@given(drawn=drawn_indexes(max_faults=2))
def test_a_fixture_error_names_the_first_bad_record(drawn):
    doc, first = drawn
    path, loaded = _load_drawn(doc)
    assert isinstance(loaded, FixtureError)
    assert str(loaded).startswith(f"{path}:{first}"), (str(loaded), first)


@settings(max_examples=25, deadline=None)
@given(drawn=drawn_indexes(max_faults=0))
def test_a_fault_free_fixture_loads_its_records_without_scores(drawn):
    doc, _ = drawn
    _, loaded = _load_drawn(doc)
    assert isinstance(loaded, SearchFixture)

    def unscored(records):
        return tuple({name: value for name, value in record.items() if name != "score"}
                     for record in records)

    assert list(loaded.image_index) == list(doc["image_index"])
    assert loaded.image_index == {key: unscored(records)
                                  for key, records in doc["image_index"].items()}
    assert loaded.web_index == unscored(doc["web_index"])


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
        for key, records in doc["image_index"].items():
            for k in range(1, len(records) + 2):
                want = _items_from_records(records, Source.KG_IMAGE, k)
                assert fixture.image_search(key, k) == want, (key, k)

    def test_web_search_returns_the_records_ranked_by_overlap(self, fixture_case, no_deadline):
        doc, path, queries = fixture_case
        backend = load_fixture(path)
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
        backend = load_fixture(path)
        assert built == []
        items = backend.image_search("img-1", 2) + backend.web_search("red shoe", 2, no_deadline)
        assert built == items


# Canned reply bodies, each sent with status 200.
CANNED_REPLIES = {
    "not-json": b"<html>busy</html>",
    "nested": b"[" * 100_000 + b"]" * 100_000,
    # Well formed for every role but for the escape of a lone surrogate, which
    # decodes to a string no UTF-8 trace can hold.
    "lone-surrogate": b'{"text": "\\ud800", "scores": [0.5, 0.5],'
                      b' "results": [{"snippet": "\\ud800"}]}',
    "surrogate-pair": b'{"text": "\\ud83d\\ude00"}',
    "out-of-range-scores": b'{"scores": [1.7, -0.2]}',
    "out-of-range-integer-scores": b'{"scores": [1%s, -1%s]}' % (b"0" * 400, b"0" * 400),
    "out-of-range-integer-score": b'{"scores": [1%s]}' % (b"0" * 400),
    "rerank-scores-missing": b"{}",
    "rerank-scores-not-list": b'{"scores": 0.5}',
    "rerank-score-not-numeric": b'{"scores": [0.5, "high"]}',
    "rerank-score-bool": b'{"scores": [0.5, true]}',
    "rerank-score-nan": b'{"scores": [0.5, NaN]}',
    "rerank-score-infinity": b'{"scores": [Infinity, -Infinity]}',
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
    "completion-prompt-tokens-numeric-string": b'{"text": "hi", "prompt_tokens": "12"}',
    "completion-prompt-tokens-fraction": b'{"text": "hi", "prompt_tokens": 3.7}',
    "completion-prompt-tokens-bool": b'{"text": "hi", "prompt_tokens": true}',
    "completion-prompt-tokens-negative": b'{"text": "hi", "prompt_tokens": -5}',
    "completion-completion-tokens-whole-float": b'{"text": "hi", "completion_tokens": 2.0}',
    "completion-completion-tokens-negative": b'{"text": "hi", "completion_tokens": -1}',
    "completion-latency-bool": b'{"text": "hi", "latency_ms": false}',
}


def _canned(service, name):
    """The URL of a service that answers every request with canned reply ``name``."""
    return service(lambda request: (200, CANNED_REPLIES[name])).url


def _echo_user(request):
    return {"text": f"echo:{request.body['user']}"}


class TestRemoteBackends:
    def test_round_trip_wire_format(self, service, no_deadline):
        server = service(lambda request: {"text": f"echo:{request.body['role']}",
                                          "prompt_tokens": 3, "completion_tokens": 2,
                                          "latency_ms": 1})
        backend = RemoteModelBackend(f"{server.url}/complete", bearer_token="tok")
        response = backend.complete(_request(role=Role.GENERATOR), no_deadline)
        assert response.text == "echo:generator"
        assert response.prompt_tokens == 3

    def test_an_escaped_surrogate_pair_is_one_character(self, service, no_deadline):
        backend = RemoteModelBackend(_canned(service, "surrogate-pair"))
        assert backend.complete(_request(), no_deadline).text == "\U0001f600"

    def test_a_far_deadline_bounds_the_call_without_overflow(self, service):
        # A socket timeout of 1e12 s or more overflows time_t; each socket
        # operation waits at most the longest turn budget instead.
        endpoint = JsonEndpoint(service(lambda request: {"text": "echo:generator"}).url, None)
        try:
            reply = endpoint.post_json({"role": "generator"}, Deadline.after_ms(1e15))
        finally:
            endpoint.close()
        assert reply["text"] == "echo:generator"

    def test_timeout_maps_to_backend_timeout(self, service):
        backend = RemoteModelBackend(service(lambda request: NO_REPLY).url)
        with pytest.raises(BackendTimeout):
            backend.complete(_request(), Deadline.after_ms(100))

    def test_http_error_maps_to_transport_error(self, service, no_deadline):
        backend = RemoteModelBackend(service(lambda request: (500, b"boom")).url)
        with pytest.raises(BackendTransportError):
            backend.complete(_request(), no_deadline)

    def test_unreachable_host_is_transport_error(self, no_deadline):
        backend = RemoteModelBackend("http://127.0.0.1:1/never")
        with pytest.raises(BackendTransportError):
            backend.complete(_request(), no_deadline)

    def test_remote_reranker_scores(self, service, no_deadline):
        server = service(lambda request: {"scores": [jaccard_score(request.body["query"], chunk)
                                                     for chunk in request.body["chunks"]]})
        backend = RemoteRerankerBackend(f"{server.url}/rerank")
        scores = backend.score_batch("red shoe", ["red shoe", "blue kettle", "red kettle"],
                                     no_deadline)
        assert scores == [1.0, 0.0, pytest.approx(1 / 3)]

    def test_remote_reranker_clamps_scores(self, service, no_deadline):
        backend = RemoteRerankerBackend(_canned(service, "out-of-range-scores"))
        assert backend.score_batch("q", ["a", "b"], no_deadline) == [1.0, 0.0]

    def test_remote_reranker_clamps_integer_scores_beyond_a_float(self, service, no_deadline):
        backend = RemoteRerankerBackend(_canned(service, "out-of-range-integer-scores"))
        assert backend.score_batch("q", ["a", "b"], no_deadline) == [1.0, 0.0]

    def test_integer_score_beyond_a_float_keeps_the_turn(self, service):
        query = "what brand is this shoe"
        backends = dataclasses.replace(
            make_backends(turn_script(query), image_fixture("img-1", query)),
            reranker=RemoteRerankerBackend(_canned(service, "out-of-range-integer-score")),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.flags == frozenset()
        assert outcome.context.retrieval_score == 1.0
        assert outcome.final.answer == "rag answer"

    def test_remote_search_times_out_at_the_deadline(self, service):
        backend = RemoteSearchBackend(service(lambda request: NO_REPLY).url)
        started = time.monotonic()
        with pytest.raises(BackendTimeout):
            backend.web_search("q", 5, Deadline.after_ms(100))
        assert time.monotonic() - started < 0.5

    def test_slow_search_ends_the_turn_within_budget(self, service):
        query = "who makes the kettle brand zylo"
        backends = dataclasses.replace(
            make_backends(turn_script(query)),
            search=RemoteSearchBackend(service(lambda request: NO_REPLY).url),
        )
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400, abstain_margin_ms=20)
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert "recall_backend_error" in outcome.flags
        assert outcome.context.empty
        assert elapsed_ms <= cfg.turn_budget_ms + 200


class TestKeepAliveTransport:
    def test_dripped_reply_times_out_at_the_deadline(self, service):
        backend = RemoteModelBackend(service(lambda request: DRIP).url)
        started = time.monotonic()
        with pytest.raises(BackendTimeout):
            backend.complete(_request(), Deadline.after_ms(1000))
        assert time.monotonic() - started <= 1.0 + 0.2

    def test_concurrent_calls_each_get_their_own_reply(self, service):
        """Two callers handed one connection would read each other's replies."""

        def overlapping(request):  # long enough for concurrent calls to overlap
            time.sleep(0.02)
            return _echo_user(request)

        backend = RemoteModelBackend(service(overlapping).url)
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

    def test_sequential_calls_share_one_connection(self, service):
        server = service(_echo_user)
        backend = RemoteModelBackend(server.url)
        for i in range(200):
            assert backend.complete(_request(user=f"u{i}"), day_deadline()).text == f"echo:u{i}"
        assert server.connections == 1

    def test_connection_dropped_while_idle_is_replaced(self, service):
        # The server hangs up after a reply that says nothing of closing, as
        # a server does with an idle connection.
        server = service(lambda request: Raw(OK, close=True))
        backend = RemoteModelBackend(server.url)
        for _ in range(2):
            assert backend.complete(_request(), day_deadline()).text == "hi"
        assert server.connections == 2

    def test_http10_reply_connection_is_not_reused(self, service):
        # The server keeps the connection open: only the caller can end it.
        server = service(lambda request: Raw(b"HTTP/1.0 200 OK\r\nContent-Length: 14\r\n\r\n"
                                             + BODY))
        backend = RemoteModelBackend(server.url)
        for _ in range(3):
            backend.complete(_request(), day_deadline())
        assert server.connections == 3

    @pytest.mark.parametrize("reply", [(500, b"boom"), (200, b"[]")], ids=["500", "list"])
    def test_bad_reply_is_transport_error_and_keeps_the_connection(self, service, reply):
        server = service(lambda request: reply)
        backend = RemoteModelBackend(server.url)
        for _ in range(2):
            with pytest.raises(BackendTransportError):
                backend.complete(_request(), day_deadline())
        assert server.connections == 1

    def test_connections_follow_the_calls_in_flight(self, service):
        """16 callers, 5 times over, each call held at the server until all 16
        have arrived: every socket goes back to the pool, so 16 are opened."""
        barrier = threading.Barrier(16)

        def held(request):
            barrier.wait(timeout=10)
            return {}

        server = service(held)
        endpoint = JsonEndpoint(server.url, None)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                for _ in range(5):
                    futures = [pool.submit(endpoint.post_json, {"caller": i},
                                           Deadline.after_ms(10_000)) for i in range(16)]
                    assert [future.result(timeout=15) for future in futures] == [{}] * 16
        finally:
            endpoint.close()
        assert server.connections == 16

    def test_name_resolution_never_holds_a_call_past_its_deadline(self, service, monkeypatch):
        """The host is resolved when the backend is built, so a resolver that
        stalls afterwards cannot delay a call, which no timeout would bound."""
        backend = RemoteModelBackend(service(lambda request: DRIP).url)
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
                                          "http://host/two words", "http://host/caf\u00e9",
                                          "http://:80/", "http://host:0/", "http://host:65536/",
                                          "http://[::1/", "http://user:pw@host/"])
    def test_malformed_endpoint_rejected_before_any_call(self, endpoint):
        with pytest.raises(ValueError) as caught:
            RemoteModelBackend(endpoint)
        assert endpoint not in str(caught.value)


def _scripted(service, *replies):
    """A service that answers its n-th request with ``replies[n]``, and a
    model backend on it."""
    answers = iter(replies)
    server = service(lambda request: next(answers))
    return server, RemoteModelBackend(f"{server.url}/v1/complete?stream=0", bearer_token="tok")


def _call(backend):
    return backend.complete(_request(), Deadline.after_ms(2000)).text


class TestHttpWire:
    def test_request_head(self, service):
        server, backend = _scripted(service, Raw(OK))
        assert _call(backend) == "hi"
        request = server.requests[0]
        assert request.path == "/v1/complete?stream=0"
        assert request.headers["Host"] == server.url.removeprefix("http://")
        assert request.headers["Authorization"] == "Bearer tok"
        assert request.headers["Content-Type"] == "application/json"

    def test_chunked_reply_with_extension_and_trailer(self, service):
        chunked = Raw(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6;note=fi",
                      b'rst\r\n{"text\r\n8\r\n": "hi"}\r\n0\r\nX-Check',
                      b"sum: 1\r\n\r\n")
        server, backend = _scripted(service, chunked, Raw(OK))
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert server.connections == 1

    def test_http10_body_ends_with_the_connection(self, service):
        reply = Raw(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n", BODY,
                    close=True)
        server, backend = _scripted(service, reply, reply)
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert server.connections == 2

    def test_body_after_a_byte_order_mark_is_read(self, service):
        reply = Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n\xef\xbb\xbf" + BODY)
        _, backend = _scripted(service, reply)
        assert _call(backend) == "hi"

    def test_repeated_equal_content_length_is_one_length(self, service):
        reply = Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\nContent-Length: 14\r\n\r\n"
                    + BODY)
        server, backend = _scripted(service, reply, Raw(OK))
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert server.connections == 1

    def test_100_continue_is_skipped(self, service):
        server, backend = _scripted(service, Raw(b"HTTP/1.1 100 Continue\r\n\r\n", OK), Raw(OK))
        assert [_call(backend), _call(backend)] == ["hi", "hi"]
        assert server.connections == 1

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 204 No Content\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\nContent-Length: 14\r\n\r\n" + BODY,
        *BAD_REPLIES["status-line"].parts,
        *BAD_REPLIES["header-line"].parts,
        b"HTTP/1.1 200 OK\r\nContent-Length: -14\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: +14\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: fourteen\r\n\r\n" + BODY,
        *BAD_REPLIES["5000-digit-length"].parts,
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 14\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: 14, 2\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 14\r\n\r\n"
        b"e\r\n" + BODY + b"\r\n0\r\n\r\n",
    ], ids=["204", "head-over-64KiB", "status-line", "header-line", "negative-length",
            "signed-length", "word-length", "5000-digit-length", "conflicting-lengths",
            "listed-lengths", "chunked-and-length"])
    def test_bad_reply_is_transport_error_before_the_deadline(self, service, reply):
        """The server keeps the connection open, so a caller that waited for
        more of the reply would end in BackendTimeout at the deadline."""
        _, backend = _scripted(service, Raw(reply))
        started = time.monotonic()
        with pytest.raises(BackendTransportError):
            _call(backend)
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"8\r\n12345678\r\n" * 2,
        b"HTTP/1.0 200 OK\r\n\r\n" + b" " * 15,
    ], ids=["content-length", "chunked", "read-to-close"])
    def test_body_over_the_cap_is_transport_error_before_the_deadline(
            self, service, monkeypatch, reply):
        """Every body below is endless: the server sends no more of it and
        keeps the connection open. A Content-Length over the cap fails before
        any body byte arrives; the others, once the bytes pass it."""
        monkeypatch.setattr(transport, "_MAX_BODY", 14)
        _, backend = _scripted(service, Raw(reply))
        started = time.monotonic()
        with pytest.raises(BackendTransportError, match="reply body over 14 bytes"):
            _call(backend)
        assert time.monotonic() - started < 1.0

    def test_body_at_the_cap_is_read(self, service, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_BODY", len(BODY))
        _, backend = _scripted(service, Raw(OK))
        assert _call(backend) == "hi"

    def test_connection_closed_mid_body_is_transport_error(self, service):
        _, backend = _scripted(service, BAD_REPLIES["closed-mid-body"])
        with pytest.raises(BackendTransportError):
            _call(backend)

    def test_reused_connection_lost_mid_reply_is_not_retried(self, service):
        server, backend = _scripted(service, Raw(OK), Raw(OK[:20], close=True))
        assert _call(backend) == "hi"
        with pytest.raises(BackendTransportError):
            _call(backend)
        assert len(server.requests) == 2


class TestRequestBytes:
    """The exact bytes each remote call sends: head, then JSON body."""

    @staticmethod
    def _head(server, path, length):
        return (f"POST {path} HTTP/1.1\r\nHost: {server.url.removeprefix('http://')}\r\n"
                "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
                f"Authorization: Bearer tok\r\nContent-Length: {length}\r\n\r\n").encode("ascii")

    def test_model_call(self, service):
        server = service(lambda request: {"text": "hi"})
        backend = RemoteModelBackend(f"{server.url}/v1/complete?stream=0", bearer_token="tok")
        request = ModelRequest(role=Role.VERIFIER, system="sys \u00e9", user='say "hi"\n',
                               image_ref="img-1", max_tokens=64)
        assert backend.complete(request, Deadline.after_ms(2000)).text == "hi"
        backend.close()
        body = (b'{"role": "verifier", "system": "sys \\u00e9", "user": "say \\"hi\\"\\n", '
                b'"image_ref": "img-1", "max_tokens": 64, "deterministic": true}')
        assert [request.raw for request in server.requests] == [
            self._head(server, "/v1/complete?stream=0", len(body)) + body]

    def test_rerank_call(self, service):
        server = service(lambda request: {"scores": [0.5, 1]})
        backend = RemoteRerankerBackend(f"{server.url}/rerank", bearer_token="tok")
        assert backend.score_batch("red shoe", ["a red shoe", "kettle"],
                                   Deadline.after_ms(2000)) == [0.5, 1.0]
        backend.close()
        body = b'{"query": "red shoe", "chunks": ["a red shoe", "kettle"]}'
        assert [request.raw for request in server.requests] == [
            self._head(server, "/rerank", len(body)) + body]

    def test_web_search_call(self, service):
        server = service(lambda request: {"results": [{"snippet": "s"}]})
        backend = RemoteSearchBackend(f"{server.url}/", bearer_token="tok")
        items = backend.web_search("zylo kettle", 4, Deadline.after_ms(2000))
        assert [item.fields for item in items] == [{"snippet": "s"}]
        backend.close()
        body = b'{"query": "zylo kettle", "k": 4}'
        assert [request.raw for request in server.requests] == [
            self._head(server, "/", len(body)) + body]


# A test-only self-signed certificate and its key, valid 2024-2124, made with
#   openssl req -x509 -newkey rsa:2048 -nodes -sha256 -subj "/CN=localhost" \
#     -not_before 20240101000000Z -not_after 21240101000000Z \
#     -addext "subjectAltName=DNS:localhost,IP:127.0.0.1" \
#     -keyout tls_localhost.key -out tls_localhost.pem
TLS_CERT = FIXTURES / "tls_localhost.pem"
TLS_KEY = FIXTURES / "tls_localhost.key"


@pytest.fixture
def tls_server(service):
    """A service over TLS, with the self-signed certificate for 127.0.0.1,
    that echoes each request's user text."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_CERT, TLS_KEY)
    return service(_echo_user, context)


class TestHttps:
    def test_untrusted_certificate_is_transport_error(self, tls_server, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        backend = RemoteModelBackend(tls_server.url)
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
        backend = RemoteModelBackend(tls_server.url)
        try:
            for i in range(3):
                reply = backend.complete(_request(user=f"u{i}"), Deadline.after_ms(2000))
                assert reply.text == f"echo:u{i}"
        finally:
            backend.close()
        assert tls_server.connections == 1

    @pytest.mark.parametrize("trusted_first", [False, True],
                             ids=["untrusted-first", "trusted-first"])
    def test_trust_follows_the_environment_in_either_order(self, tls_server, monkeypatch,
                                                           trusted_first):
        for trusted in (trusted_first, not trusted_first):
            if trusted:
                monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
            else:
                monkeypatch.delenv("SSL_CERT_FILE", raising=False)
            backend = RemoteModelBackend(tls_server.url)
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


RERANK_BAD_REPLIES = ["not-json", "nested", "lone-surrogate"] + [
    name for name in CANNED_REPLIES if name.startswith("rerank-")
]
SEARCH_BAD_REPLIES = ["not-json", "nested", "lone-surrogate"] + [
    name for name in CANNED_REPLIES if name.startswith("search-")
]
COMPLETION_BAD_REPLIES = ["not-json", "nested", "lone-surrogate"] + [
    name for name in CANNED_REPLIES if name.startswith("completion-")
]


class TestMalformedReplies:
    @pytest.mark.parametrize("reply", COMPLETION_BAD_REPLIES)
    def test_bad_completion_reply_is_transport_error(self, service, no_deadline, reply):
        backend = RemoteModelBackend(_canned(service, reply))
        with pytest.raises(BackendTransportError):
            backend.complete(_request(), no_deadline)

    @pytest.mark.parametrize("reply", RERANK_BAD_REPLIES)
    def test_bad_rerank_reply_is_transport_error(self, service, no_deadline, reply):
        backend = RemoteRerankerBackend(_canned(service, reply))
        with pytest.raises(BackendTransportError):
            backend.score_batch("q", ["a", "b"], no_deadline)

    def test_bad_rerank_reply_degrades_turn_to_empty_context(self, service):
        query = "what brand is this shoe"
        backends = dataclasses.replace(
            make_backends(turn_script(query), image_fixture("img-1", query)),
            reranker=RemoteRerankerBackend(_canned(service, "rerank-scores-missing")),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert "rerank_backend_error" in outcome.flags
        assert outcome.context.empty

    def test_nested_reply_is_a_transport_error_naming_the_endpoint(self, service, no_deadline):
        endpoint = JsonEndpoint(_canned(service, "nested"), None)
        with pytest.raises(BackendTransportError,
                           match=re.escape(f"malformed body from {endpoint.url}: ")):
            endpoint.post_json({}, no_deadline)
        endpoint.close()

    def test_nested_router_reply_degrades_turn_with_a_flag(self, service):
        query = "what brand is this shoe"
        router = RemoteModelBackend(_canned(service, "nested"))
        backends = dataclasses.replace(
            make_backends(turn_script(query), image_fixture("img-1", query)), router_model=router)
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        router.close()
        assert "router_backend_error" in outcome.flags
        assert "route" in outcome.stages

    @pytest.mark.parametrize("reply", SEARCH_BAD_REPLIES)
    def test_bad_search_reply_is_transport_error(self, service, reply):
        backend = RemoteSearchBackend(_canned(service, reply))
        with pytest.raises(BackendTransportError):
            backend.web_search("q", 5, day_deadline())
        query = "what brand is this shoe"
        backends = dataclasses.replace(make_backends(turn_script(query)), search=backend)
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"),
                           backends, TEMPLATES)
        assert "recall_backend_error" in outcome.flags
        assert "recall" in outcome.stages and "rerank" in outcome.stages
        assert outcome.context.empty


@pytest.mark.parametrize("build", [
    lambda: Deadline(math.inf), lambda: Deadline(-math.inf), lambda: Deadline(math.nan),
    lambda: Deadline.after_ms(math.inf), lambda: Deadline.after_ms(math.nan),
], ids=["inf", "-inf", "nan", "after-inf-ms", "after-nan-ms"])
def test_a_deadline_is_finite(build):
    """So no wait a deadline bounds can be endless, and no socket blocks."""
    with pytest.raises(ValueError, match="must be finite"):
        build()


# The query of every whole turn, and the name of each remote call a turn
# makes: every turn call but the image lookup, which is the fixture's.
FAULT_QUERY = "what brand is this shoe"
REMOTE_CALLS = tuple(call for call in TURN_CALLS if call != "image_search")
# Each fault a whole turn's call may get, by name; all but the whole replies
# among them leave their connection unusable.
FAULTS = {DRIP: DRIP, **BAD_REPLIES}
WHOLE_REPLIES = ("status-500", "not-an-object", "wrong-shape")


def _good_answer(request):
    """The good reply to a turn's request under ``/model``, ``/rerank`` or
    ``/web_search``."""
    body = request.body
    if request.path == "/web_search":  # one page that the expanded query matches exactly
        return {"results": [{"snippet": body["query"]}]}
    if request.path == "/rerank":
        return {"scores": [jaccard_score(body["query"], chunk) for chunk in body["chunks"]]}
    text = {Role.ROUTER: ROUTE_PLAIN, Role.SUMMARIZER: "summary tokens",
            Role.CONSISTENCY_JUDGE: "yes", Role.VERIFIER: COV_FULL}
    return {"text": text.get(Role(body["role"]), "rag answer")}


def _turn_backends(url):
    """The real remote backends of a turn, on the service at ``url``."""
    model = RemoteModelBackend(f"{url}/model")
    return Backends(router_model=model, vlm=model,
                    reranker=RemoteRerankerBackend(f"{url}/rerank"),
                    search=RemoteSearchBackend(f"{url}/web_search"))


class _Pool:
    """The remote backends of every turn of a test class, pooled on one
    service. A turn faults at most one call; ``done`` keeps each turn's
    ``fault``, (call, fault name) or None, and ``cut`` each request answered
    by a fault that leaves its connection unusable."""

    def __init__(self):
        self.fault = None
        self.done = set()
        self.cut = []

    def answer(self, request):
        if self.fault is None or request.name != self.fault[0]:
            return _good_answer(request)
        if self.fault[1] not in WHOLE_REPLIES:
            self.cut.append(request)
        return FAULTS[self.fault[1]]

    def turn(self, cfg, call=None, fault=None):
        """(the outcome of one ``FAULT_QUERY`` turn, the milliseconds it took)."""
        self.fault = None if call is None else (call, fault)
        self.done.add(self.fault)
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(FAULT_QUERY), cfg, self.backends, TEMPLATES)
        return outcome, (time.monotonic() - started) * 1000


@pytest.fixture(scope="class")
def pool():
    shared = _Pool()
    with serve_http(shared.answer) as server:
        shared.server = server
        shared.backends = _turn_backends(server.url)
        yield shared
        shared.backends.close()


class TestWholeTurnFaults:
    """Whole turns through real sockets: a fault in any one remote call ends
    the turn with that stage's flag, never an exception, within the budget.
    The faulted turns share one pooled ``Backends``."""

    CFG = PipelineConfig(mode="task2plus", turn_budget_ms=400, abstain_margin_ms=20)

    @staticmethod
    def _assert_answered(outcome):
        assert outcome.flags == frozenset()
        assert outcome.final.answer == "rag answer"
        assert outcome.context.retrieval_score == 1.0

    def _assert_flagged_within_budget(self, pool, call, fault):
        outcome, elapsed_ms = pool.turn(self.CFG, call, fault)
        flag = FAILURE_FLAGS[DRAWN_STAGES.get(call, call)][fault != DRIP]
        assert flag in outcome.flags
        assert elapsed_ms <= self.CFG.turn_budget_ms + 200

    def test_a_turn_with_no_fault_is_answered(self, pool):
        self._assert_answered(pool.turn(self.CFG)[0])

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("call", REMOTE_CALLS)
    def test_one_faulted_call_flags_its_stage_within_budget(self, pool, call, fault):
        self._assert_flagged_within_budget(pool, call, fault)

    def test_no_faulted_socket_stays_in_the_pool(self, pool):
        """After the faulted turns, on their pool (any of them not run yet
        runs first), a turn with no fault is answered, and no connection that
        a fault left unusable carried a later request."""
        for call in REMOTE_CALLS:
            for fault in FAULTS:
                if (call, fault) not in pool.done:
                    self._assert_flagged_within_budget(pool, call, fault)
        self._assert_answered(pool.turn(self.CFG)[0])
        last = {request.connection: request for request in pool.server.requests}
        assert [request.path for request in pool.cut
                if last[request.connection] is not request] == []

    def test_every_socket_timeout_is_finite(self, service, tls_server, monkeypatch):
        """Connecting, the TLS handshake, sending and every read of a whole
        turn and of an https call each wait at most the time left."""
        timeouts = []
        settimeout = socket.socket.settimeout

        def recording(sock, value):
            # The servers' own threads are not the caller's.
            if threading.current_thread().name.startswith(("MainThread", "ragvet-turn")):
                timeouts.append(value)
            settimeout(sock, value)

        backends = _turn_backends(service(_good_answer).url)
        monkeypatch.setattr(socket.socket, "settimeout", recording)
        try:
            outcome = run_turn(fresh_state(), one_turn(FAULT_QUERY), self.CFG, backends, TEMPLATES)
            assert outcome.flags == frozenset()
        finally:
            backends.close()
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        backend = RemoteModelBackend(tls_server.url)
        try:
            assert backend.complete(_request(), Deadline.after_ms(2000)).text == "echo:hello"
        finally:
            backend.close()
        # At least a send and a read for each of the turn's 7 calls and the https call.
        assert len(timeouts) >= 2 * 8
        assert all(isinstance(value, float) and 0 < value <= 2.0 for value in timeouts), timeouts


# Pieces of strings whose JSON escapes hold lone and paired surrogates, and
# escaped backslashes before "ud800" text that is no escape.
SURROGATE_STRINGS = st.lists(st.sampled_from(
    ["a", "ud800", "\\", '"', "\ud83d", "\ude00", "\ud800", "\udfff", "\U0001f600"]),
    max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(SURROGATE_STRINGS, max_size=4))
def test_check_surrogates_rejects_what_the_decoder_would_keep(strings):
    """The JSON text of ``strings`` is rejected exactly when ``json.loads``
    decodes it to a string holding a surrogate, at a surrogate's escape."""
    text = json.dumps(strings)
    kept = any(re.search("[\ud800-\udfff]", string) for string in json.loads(text))
    try:
        check_surrogates(text)
    except json.JSONDecodeError as error:
        assert kept, text
        assert re.fullmatch(r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}", text[error.pos:error.pos + 6])
    else:
        assert not kept, text


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
        model = tap(scripted_model({"role": Role.SUMMARIZER, "response": " a shoe "}))
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
