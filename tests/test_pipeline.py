"""End-to-end turn orchestration: stage flow, deadlines, degradation, state."""

import dataclasses
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ragvet.backends import (
    Backends,
    MockRerankerBackend,
    MockSearchBackend,
    ModelRequest,
    Role,
    SearchFixture,
)
from ragvet.core import Conversation, PipelineConfig, QueryTurn, Source, RetrievedItem
from ragvet.finalizer import Branch
from ragvet.pipeline import ConversationState, run_conversation, run_turn

from conftest import scripted_model

ROUTE_PLAIN = "1. Needs External Info: yes\n2. Is Real-Time: no"
ROUTE_NONE = "1. Needs External Info: no\n2. Is Real-Time: no"
ROUTE_REAL_TIME = "1. Needs External Info: yes\n2. Is Real-Time: yes"
COV_FULL = "CONFIDENCE: 1.0\nREASONING: grounded in [Info 1]."
COV_MID = "CONFIDENCE: 0.95\nREASONING: mostly grounded."


def turn_script(query, *, routing=ROUTE_PLAIN, summary="summary tokens", rag="rag answer",
                direct=None, consistent="yes", cov=COV_FULL, rag_sleep_ms=0):
    return [
        {"role": Role.ROUTER, "match": query, "response": routing},
        {"role": Role.SUMMARIZER, "match": query, "response": summary},
        {"role": Role.GENERATOR, "match": ["Context:", query], "response": rag,
         "sleep_ms": rag_sleep_ms},
        {"role": Role.GENERATOR, "match": query, "response": direct or rag},
        {"role": Role.CONSISTENCY_JUDGE, "match": query, "response": consistent},
        {"role": Role.VERIFIER, "match": query, "response": cov},
    ]


def image_fixture(image_key, query, summary="summary tokens"):
    """One KG record whose description matches the expanded query exactly."""
    description = f"{query} {summary}"
    item = RetrievedItem(
        source=Source.KG_IMAGE, fields={"description": description}, recall_rank=1
    )
    return SearchFixture(image_index={image_key: ((item, 0.9),)}, web_index=())


def make_backends(entries, fixture=None):
    model = scripted_model(*entries)
    search = MockSearchBackend(fixture or SearchFixture(image_index={}, web_index=()))
    return Backends(router_model=model, vlm=model, reranker=MockRerankerBackend(), search=search)


class _DirectSignal:
    """Sets ``direct_seen`` once the context-free generator request arrives."""

    def __init__(self, inner):
        self.inner = inner
        self.direct_seen = threading.Event()

    def complete(self, request, deadline):
        if request.role is Role.GENERATOR and "Context:" not in request.user:
            self.direct_seen.set()
        return self.inner.complete(request, deadline)


class _WaitForDirect:
    """A reranker that scores only after the direct answer was requested (up to 2 s)."""

    def __init__(self, direct_seen):
        self.direct_seen = direct_seen
        self.saw_direct = False

    def score_batch(self, query, chunks, deadline):
        self.saw_direct = self.direct_seen.wait(timeout=2.0)
        return MockRerankerBackend().score_batch(query, chunks, deadline)


def one_turn(query, image_ref="img-1"):
    return QueryTurn(conversation_id="c1", turn_index=0, query=query, image_ref=image_ref)


def fresh_state(image_ref="img-1"):
    return ConversationState(conversation_id="c1", image_ref=image_ref)


class TestHappyPath:
    def test_scripted_accept_with_context(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.answer == "rag answer"
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert not outcome.final.abstained
        assert outcome.flags == frozenset()
        assert outcome.context.retrieval_score == 1.0
        assert list(outcome.stages) == [
            "route", "summarize", "recall", "rerank", "generate", "consistency", "verify",
        ]

    def test_timings_bounded_by_wall_clock(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert sum(outcome.timings_ms.values()) <= outcome.wall_clock_ms

    def test_outcome_type_rejects_timing_overrun(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        with pytest.raises(ValueError, match="wall-clock"):
            dataclasses.replace(outcome, timings_ms={"route": outcome.wall_clock_ms + 1})

    def test_direct_answer_overlaps_retrieval(self):
        query = "what brand is this shoe"
        model = _DirectSignal(scripted_model(*turn_script(query)))
        reranker = _WaitForDirect(model.direct_seen)
        backends = Backends(
            router_model=model, vlm=model, reranker=reranker,
            search=MockSearchBackend(image_fixture("img-1", query)),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert reranker.saw_direct, "the direct answer was not requested during rerank"
        plain = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(),
            make_backends(turn_script(query), image_fixture("img-1", query)),
        )
        assert outcome.to_record() == plain.to_record()

    def test_no_thread_outlives_the_turn(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        before = threading.active_count()
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert threading.active_count() == before


class TestRoutingPolicies:
    def test_task2plus_skips_retrieval_when_no_external_needed(self):
        query = "is the mug in the picture red"
        backends = make_backends(turn_script(query, routing=ROUTE_NONE))
        cfg = PipelineConfig(mode="task2plus")
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends)
        assert "retrieval_skipped" in outcome.flags
        assert outcome.context.empty
        for stage in ("summarize", "recall", "rerank"):
            assert stage not in outcome.stages
            assert stage not in outcome.timings_ms
        # no context + consistent + full confidence -> accepted without context
        assert outcome.final.branch is Branch.CONSISTENT_NO_CONTEXT

    def test_task2plus_web_retrieval_when_external_needed(self):
        query = "who makes the kettle brand zylo"
        summary = "zylo logo"
        snippet = f"{query} {summary}"
        item = RetrievedItem(
            source=Source.WEB,
            fields={"title": "zylo", "url": "https://z.test", "snippet": snippet,
                    "last_updated": "2025-01-01"},
            recall_rank=1,
        )
        fixture = SearchFixture(image_index={}, web_index=((item, 0.9),))
        backends = make_backends(turn_script(query, summary=summary), fixture)
        outcome = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"), backends
        )
        assert not outcome.context.empty
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT

    def test_real_time_weak_retrieval_abstains(self):
        query = "what is the latest price of this"
        backends = make_backends(turn_script(query, routing=ROUTE_REAL_TIME))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.branch is Branch.REAL_TIME_LOW_RETRIEVAL
        assert outcome.final.abstained


class TestDegradation:
    def test_generator_timeout_abstains_within_budget(self):
        query = "slow one"
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        backends = make_backends(turn_script(query, rag_sleep_ms=2000))
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        assert elapsed_ms <= cfg.turn_budget_ms + 200
        assert outcome.answers is None

    def test_missing_generator_script_degrades(self):
        query = "no generator here"
        entries = [e for e in turn_script(query) if e["role"] is not Role.GENERATOR]
        outcome = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(), make_backends(entries)
        )
        assert outcome.final.abstained
        assert "generation_backend_error" in outcome.flags

    def test_direct_call_failure_degrades(self):
        query = "no direct answer here"
        entries = [e for e in turn_script(query)
                   if e["role"] is not Role.GENERATOR or "Context:" in e["match"]]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.abstained
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert "generation_backend_error" in outcome.flags
        assert outcome.answers is None

    def test_direct_call_timeout_abstains_within_budget(self):
        query = "slow direct one"
        entries = turn_script(query)
        for entry in entries:
            if entry["role"] is Role.GENERATOR and "Context:" not in entry["match"]:
                entry["sleep_ms"] = 2000
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        backends = make_backends(entries, image_fixture("img-1", query))
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        assert elapsed_ms <= cfg.turn_budget_ms + 200
        assert outcome.answers is None

    def test_budget_exhaustion_short_circuits_before_generation(self):
        query = "expensive retrieval"
        entries = turn_script(query)
        for entry in entries:
            if entry["role"] is Role.SUMMARIZER:
                entry["sleep_ms"] = 1000
        cfg = PipelineConfig(turn_budget_ms=100, abstain_margin_ms=90)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, make_backends(entries))
        assert outcome.final.abstained
        assert "budget_exhausted" in outcome.flags
        assert "generate" not in outcome.stages

    def test_consistency_failure_treated_as_inconsistent(self):
        query = "judge is broken"
        entries = [e for e in turn_script(query) if e["role"] is not Role.CONSISTENCY_JUDGE]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert "consistency_backend_error" in outcome.flags

    def test_verifier_failure_scores_zero(self):
        query = "verifier is broken"
        entries = [e for e in turn_script(query) if e["role"] is not Role.VERIFIER]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.verification.confidence == 0.0
        assert "cov_backend_error" in outcome.flags
        assert outcome.final.abstained


class _RequestLog:
    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ModelRequest] = []

    def complete(self, request, deadline):
        self.requests.append(request)
        return self.inner.complete(request, deadline)


def logged_backends(entries, fixture=None):
    model = _RequestLog(scripted_model(*entries))
    search = MockSearchBackend(fixture or SearchFixture(image_index={}, web_index=()))
    backends = Backends(router_model=model, vlm=model, reranker=MockRerankerBackend(),
                        search=search)
    return model, backends


def roles_sent(model):
    return {request.role for request in model.requests}


class TestEarlyExit:
    def test_real_time_low_retrieval_skips_generation_and_verification(self):
        query = "what is the latest price of this"
        model, backends = logged_backends(turn_script(query, routing=ROUTE_REAL_TIME))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.branch is Branch.REAL_TIME_LOW_RETRIEVAL
        assert roles_sent(model) == {Role.ROUTER, Role.SUMMARIZER}
        record = outcome.to_record()
        assert record["answers"] is None
        assert record["verification"] is None
        assert record["stages"] == ["route", "summarize", "recall", "rerank"]

    def test_inconsistent_with_context_skips_verification(self):
        query = "the answers disagree"
        model, backends = logged_backends(
            turn_script(query, direct="another answer", consistent="no"),
            image_fixture("img-1", query),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert Role.VERIFIER not in roles_sent(model)
        assert Role.CONSISTENCY_JUDGE in roles_sent(model)
        assert outcome.verification is None
        assert outcome.answers.consistent is False
        assert outcome.stages[-1] == "consistency"

    def test_failed_judge_with_context_skips_verification(self):
        query = "judge is down"
        entries = [e for e in turn_script(query) if e["role"] is not Role.CONSISTENCY_JUDGE]
        model, backends = logged_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends)
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert "consistency_backend_error" in outcome.flags
        assert Role.VERIFIER not in roles_sent(model)
        assert outcome.verification is None

    def test_inconsistent_without_context_abstains_without_verification(self):
        query = "is the mug in the picture red"
        model, backends = logged_backends(
            turn_script(query, routing=ROUTE_NONE, direct="blue", consistent="no")
        )
        cfg = PipelineConfig(mode="task2plus")
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends)
        assert outcome.context.empty
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert Role.VERIFIER not in roles_sent(model)
        assert outcome.verification is None


class TestConversations:
    def _conversation(self, queries):
        turns = tuple(
            QueryTurn(conversation_id="conv", turn_index=i, query=q, image_ref=None)
            for i, q in enumerate(queries)
        )
        return Conversation(conversation_id="conv", image_ref=None, turns=turns)

    def test_single_turn_conversation(self):
        query = "only turn"
        backends = make_backends(turn_script(query, routing=ROUTE_NONE))
        outcomes = run_conversation(
            self._conversation([query]), PipelineConfig(mode="task2plus"), backends
        )
        assert len(outcomes) == 1

    def test_history_rendered_into_generation_prompts(self):
        first, second, third = "turn one", "turn two", "turn three"
        entries = (
            turn_script(first, routing=ROUTE_NONE)
            + turn_script(second, routing=ROUTE_NONE)
            + turn_script(third, routing=ROUTE_NONE)
        )
        model = _RequestLog(scripted_model(*entries))
        backends = Backends(
            router_model=model, vlm=model, reranker=MockRerankerBackend(),
            search=MockSearchBackend(SearchFixture(image_index={}, web_index=())),
        )
        outcomes = run_conversation(
            self._conversation([first, second, third]),
            PipelineConfig(mode="task2plus"), backends,
        )
        assert len(outcomes) == 3
        third_gen = [
            r.user for r in model.requests
            if r.role is Role.GENERATOR and third in r.user
        ]
        assert third_gen, "third turn generated nothing"
        for user in third_gen:
            assert "Previous Q: turn one" in user
            assert "Previous Q: turn two" in user
            assert user.index("Previous Q: turn one") < user.index("Previous Q: turn two")
        first_gen = [
            r.user for r in model.requests
            if r.role is Role.GENERATOR and first in r.user and "Previous" not in r.user
        ]
        assert first_gen, "first turn must carry no history"

    def test_abstention_recorded_in_history(self):
        first, second = "will abstain", "follow up"
        entries = (
            turn_script(first, routing=ROUTE_NONE, cov="CONFIDENCE: 0.9\nREASONING: shaky.")
            + turn_script(second, routing=ROUTE_NONE)
        )
        model = _RequestLog(scripted_model(*entries))
        backends = Backends(
            router_model=model, vlm=model, reranker=MockRerankerBackend(),
            search=MockSearchBackend(SearchFixture(image_index={}, web_index=())),
        )
        outcomes = run_conversation(
            self._conversation([first, second]), PipelineConfig(mode="task2plus"), backends
        )
        assert outcomes[0].final.abstained  # 0.9 < high bar without context
        second_gen = [
            r.user for r in model.requests if r.role is Role.GENERATOR and second in r.user
        ]
        assert all("Previous A: I don't know" in user for user in second_gen)

    def test_mock_determinism_byte_for_byte(self):
        query = "determinism probe"
        def build():
            return make_backends(turn_script(query), image_fixture("img-1", query))
        conversation = Conversation(
            conversation_id="conv", image_ref="img-1",
            turns=(QueryTurn(conversation_id="conv", turn_index=0, query=query,
                             image_ref="img-1"),),
        )
        first = run_conversation(conversation, PipelineConfig(), build())
        second = run_conversation(conversation, PipelineConfig(), build())
        as_bytes = lambda outcomes: json.dumps([o.to_record() for o in outcomes])
        assert as_bytes(first) == as_bytes(second)

    def test_concurrent_turns_match_sequential(self):
        """More turn threads than cores, each with its direct-answer worker,
        switching often: every record matches its one-at-a-time twin."""
        queries = [f"stress query {i}" for i in range(16)]
        index = {}
        for i, query in enumerate(queries):
            if i % 4 != 1:  # real-time turns without evidence end after retrieval
                index.update(image_fixture(f"img-{i}", query).image_index)
        routes = (ROUTE_PLAIN, ROUTE_REAL_TIME)
        backends = make_backends(
            [e for i, q in enumerate(queries)
             for e in turn_script(q, routing=routes[i % 2], consistent=("yes", "no")[i % 3 == 0])],
            SearchFixture(image_index=index, web_index=()),
        )

        def record(i):
            image_ref = f"img-{i}"
            outcome = run_turn(fresh_state(image_ref), one_turn(queries[i], image_ref),
                               PipelineConfig(), backends)
            return outcome.to_record()

        sequential = [record(i) for i in range(len(queries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(record, i) for i in range(len(queries))]
                concurrent = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential
        assert {r["final"]["branch"] for r in sequential} >= {
            "ConsistentWithContext", "InconsistentWithContext", "RealTimeLowRetrieval"}
