"""End-to-end turn orchestration: stage flow, deadlines, degradation, state."""

import dataclasses
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from ragvet import runtime
from ragvet.backends import (
    BackendTimeout,
    BackendTransportError,
    Backends,
    FixtureError,
    MockRerankerBackend,
    MockSearchBackend,
    ModelRequest,
    ReplayModelBackend,
    Role,
    SearchFixture,
)
from ragvet.core import Conversation, PipelineConfig, QueryTurn, VerificationResult
from ragvet.finalizer import Branch
from ragvet.pipeline import VARIANTS, ConversationState, run_conversation, run_turn
from ragvet.router import FALLBACK_DECISION
from ragvet.templates import load_all

from conftest import CountingModel, VirtualClock, scripted_model

ROUTE_PLAIN = "1. Needs External Info: yes\n2. Is Real-Time: no"
ROUTE_NONE = "1. Needs External Info: no\n2. Is Real-Time: no"
ROUTE_REAL_TIME = "1. Needs External Info: yes\n2. Is Real-Time: yes"
COV_FULL = "CONFIDENCE: 1.0\nREASONING: grounded in [Info 1]."
COV_MID = "CONFIDENCE: 0.95\nREASONING: mostly grounded."
# The packaged templates, which every PipelineConfig() here uses.
TEMPLATES = load_all({})


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
    return SearchFixture(image_index={image_key: (({"description": description}, 0.9),)},
                         web_index=())


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


class _RoleSignal:
    """Sets ``seen`` once a request for ``role`` arrives."""

    def __init__(self, inner, role):
        self.inner = inner
        self.role = role
        self.seen = threading.Event()

    def complete(self, request, deadline):
        if request.role is self.role:
            self.seen.set()
        return self.inner.complete(request, deadline)


class _WaitBeforeReply:
    """A model that answers only after ``event`` is set (up to 2 s)."""

    def __init__(self, inner, event):
        self.inner = inner
        self.event = event
        self.saw_event = False

    def complete(self, request, deadline):
        self.saw_event = self.event.wait(timeout=2.0)
        return self.inner.complete(request, deadline)


def one_turn(query):
    return QueryTurn(conversation_id="c1", turn_index=0, query=query)


def fresh_state(image_ref="img-1"):
    return ConversationState(conversation_id="c1", image_ref=image_ref)


class TestHappyPath:
    def test_scripted_accept_with_context(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.answer == "rag answer"
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert not outcome.final.abstained
        assert outcome.flags == frozenset()
        assert outcome.context.retrieval_score == 1.0
        assert list(outcome.stages) == [
            "route", "summarize", "recall", "rerank", "generate", "consistency", "verify",
        ]

    def test_every_model_call_sees_the_conversations_image(self):
        query = "what brand is this shoe"
        model = CountingModel(scripted_model(*turn_script(query)))
        backends = Backends(router_model=model, vlm=model, reranker=MockRerankerBackend(),
                            search=MockSearchBackend(image_fixture("img-7", query)))
        outcome = run_turn(fresh_state("img-7"), one_turn(query), PipelineConfig(), backends,
                           TEMPLATES)
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT  # img-7's KG record
        images = {request.role: request.image_ref for request in model.requests}
        assert images == {Role.ROUTER: None, Role.SUMMARIZER: "img-7", Role.GENERATOR: "img-7",
                          Role.CONSISTENCY_JUDGE: "img-7", Role.VERIFIER: "img-7"}

    def test_timings_bounded_by_wall_clock(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert sum(outcome.timings_ms.values()) <= outcome.wall_clock_ms

    def test_outcome_type_rejects_timing_overrun(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
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
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert reranker.saw_direct, "the direct answer was not requested during rerank"
        plain = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(),
            make_backends(turn_script(query), image_fixture("img-1", query)), TEMPLATES,
        )
        assert outcome.to_record() == plain.to_record()

    def test_task1_summary_overlaps_routing(self):
        query = "what brand is this shoe"
        model = scripted_model(*turn_script(query))
        vlm = _RoleSignal(model, Role.SUMMARIZER)
        router = _WaitBeforeReply(model, vlm.seen)
        backends = Backends(
            router_model=router, vlm=vlm, reranker=MockRerankerBackend(),
            search=MockSearchBackend(image_fixture("img-1", query)),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert router.saw_event, "the summary was not requested during routing"
        plain = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(),
            make_backends(turn_script(query), image_fixture("img-1", query)), TEMPLATES,
        )
        assert outcome.to_record() == plain.to_record()

    def test_no_thread_outlives_the_turn(self):
        query = "what brand is this shoe"
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        before = threading.active_count()
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert threading.active_count() == before


class TestRoutingPolicies:
    def test_task2plus_skips_retrieval_when_no_external_needed(self):
        query = "is the mug in the picture red"
        backends = make_backends(turn_script(query, routing=ROUTE_NONE))
        cfg = PipelineConfig(mode="task2plus")
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
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
        fields = {"title": "zylo", "url": "https://z.test", "snippet": snippet,
                  "last_updated": "2025-01-01"}
        fixture = SearchFixture(image_index={}, web_index=((fields, 0.9),))
        backends = make_backends(turn_script(query, summary=summary), fixture)
        outcome = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"), backends, TEMPLATES
        )
        assert not outcome.context.empty
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT

    def test_task1_retrieves_whatever_the_router_says(self):
        query = "what brand is this kettle"
        backends = make_backends(turn_script(query, routing=ROUTE_NONE),
                                 image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task1"),
                           backends, TEMPLATES)
        assert "retrieval_skipped" not in outcome.flags
        assert outcome.stages[:4] == ("route", "summarize", "recall", "rerank")
        assert len(outcome.context.entries) == 1

    def test_real_time_weak_retrieval_abstains(self):
        query = "what is the latest price of this"
        backends = make_backends(turn_script(query, routing=ROUTE_REAL_TIME))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.branch is Branch.REAL_TIME_LOW_RETRIEVAL
        assert outcome.final.abstained


class TestDegradation:
    def test_generator_timeout_abstains_within_budget(self, virtual_clock):
        query = "slow one"
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        backends = make_backends(turn_script(query, rag_sleep_ms=2000))
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        # The RAG call waits out generation's cutoff, 75 % of the budget.
        assert outcome.timings_ms["generate"] == outcome.wall_clock_ms == 300
        assert outcome.answers is None

    def test_non_string_match_rejected_at_load_not_mid_turn(self, tmp_path):
        query = "what brand is this shoe"
        script = turn_script(query)
        script[2] = {**script[2], "match": ["Context:", 5]}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        with pytest.raises(FixtureError, match=r"replay\.json\[2\]: match"):
            model = ReplayModelBackend.from_file(path)
            backends = Backends(router_model=model, vlm=model, reranker=MockRerankerBackend(),
                                search=MockSearchBackend(image_fixture("img-1", query)))
            run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)

    def test_missing_generator_script_degrades(self):
        query = "no generator here"
        entries = [e for e in turn_script(query) if e["role"] is not Role.GENERATOR]
        outcome = run_turn(
            fresh_state(), one_turn(query), PipelineConfig(), make_backends(entries), TEMPLATES
        )
        assert outcome.final.abstained
        assert "generation_backend_error" in outcome.flags

    def test_direct_call_failure_degrades(self):
        query = "no direct answer here"
        entries = [e for e in turn_script(query)
                   if e["role"] is not Role.GENERATOR or "Context:" in e["match"]]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.abstained
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert "generation_backend_error" in outcome.flags
        assert outcome.answers is None

    def test_direct_call_timeout_abstains_within_budget(self):
        # Real time: the direct answer waits on the worker while this thread retrieves.
        query = "slow direct one"
        entries = turn_script(query)
        for entry in entries:
            if entry["role"] is Role.GENERATOR and "Context:" not in entry["match"]:
                entry["sleep_ms"] = 2000
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        backends = make_backends(entries, image_fixture("img-1", query))
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        assert elapsed_ms <= cfg.turn_budget_ms + 200
        assert outcome.answers is None

    def test_failed_rag_call_leaves_the_direct_answer_unread(self):
        # The RAG call fails at once while the direct one is still out; its
        # later timeout is never read, so it adds no flag.
        # Real time: the direct answer waits on the worker while this thread retrieves.
        query = "rag fails first"
        entries = turn_script(query)
        entries[3]["sleep_ms"] = 2000  # the direct answer
        backends = make_backends(entries, image_fixture("img-1", query))
        backends.vlm = _Faulty(backends.vlm, "complete", Role.GENERATOR, "error",
                               lambda request: "Context:" in request.user)
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert outcome.flags == {"generation_backend_error"}
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN

    def test_budget_exhaustion_short_circuits_before_generation(self):
        # Real time: in task1 the summary waits on the worker while this thread routes.
        query = "expensive retrieval"
        entries = turn_script(query)
        for entry in entries:
            if entry["role"] is Role.SUMMARIZER:
                entry["sleep_ms"] = 1000
        cfg = PipelineConfig(turn_budget_ms=100, abstain_margin_ms=90)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, make_backends(entries), TEMPLATES)
        assert outcome.final.abstained
        assert "budget_exhausted" in outcome.flags
        assert "generate" not in outcome.stages

    def test_consistency_failure_treated_as_inconsistent(self):
        query = "judge is broken"
        entries = [e for e in turn_script(query) if e["role"] is not Role.CONSISTENCY_JUDGE]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert "consistency_backend_error" in outcome.flags

    def test_verifier_failure_scores_zero(self):
        query = "verifier is broken"
        entries = [e for e in turn_script(query) if e["role"] is not Role.VERIFIER]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.verification.confidence == 0.0
        assert "cov_backend_error" in outcome.flags
        assert outcome.final.abstained


# Each stage whose backend call may fail: the flag a timeout sets, then the
# flag any other backend error sets (the README's "Degradation flags").
FAILURE_FLAGS = {
    "route": ("router_backend_timeout", "router_backend_error"),
    "summarize": ("summary_backend_timeout", "summary_backend_error"),
    "recall": ("recall_backend_error", "recall_backend_error"),
    "rerank": ("rerank_backend_error", "rerank_backend_error"),
    "generate": ("generation_timeout", "generation_backend_error"),
    "consistency": ("consistency_backend_timeout", "consistency_backend_error"),
    "verify": ("cov_backend_timeout", "cov_backend_error"),
}
# The call each stage makes: its ``Backends`` field, method and model role.
STAGE_CALLS = {
    "route": ("router_model", "complete", Role.ROUTER),
    "summarize": ("vlm", "complete", Role.SUMMARIZER),
    "recall": ("search", "web_search", None),
    "rerank": ("reranker", "score_batch", None),
    "generate": ("vlm", "complete", Role.GENERATOR),
    "consistency": ("vlm", "complete", Role.CONSISTENCY_JUDGE),
    "verify": ("vlm", "complete", Role.VERIFIER),
}
SEAM_QUERY = "who makes the kettle brand zylo"
SEAM_SUMMARY = "zylo logo"
RETRIEVAL_FLAGS = {"recall_backend_error", "rerank_backend_error"}
# How each stage's fallback shows: in the outcome, or in the queries searched.
# A failed summary still leaves search and rerank their share of the budget,
# so the bare query finds the page.
FALLBACK_SHOWN = {
    "route": lambda outcome, searched: outcome.routing == FALLBACK_DECISION,
    "summarize": lambda outcome, searched: searched == [SEAM_QUERY]
    and not outcome.context.empty and not outcome.flags & RETRIEVAL_FLAGS,
    "recall": lambda outcome, searched: outcome.context.empty,
    "rerank": lambda outcome, searched: outcome.context.empty,
    "generate": lambda outcome, searched: outcome.answers is None
    and outcome.final.branch is Branch.DEFAULT_ABSTAIN,
    "consistency": lambda outcome, searched: outcome.answers.consistent is False,
    "verify": lambda outcome, searched: outcome.verification == VerificationResult(0.0),
}


class _Faulty:
    """Forwards every call to ``inner``, except that each call of ``method``
    (for a model, each request of ``role`` that ``picks``) fails: a timeout
    waits out the call's deadline first, any other error is raised at once."""

    def __init__(self, inner, method, role, kind, picks=lambda request: True):
        self.inner, self.method, self.role, self.kind = inner, method, role, kind
        self.picks = picks

    def __getattr__(self, name):
        forward = getattr(self.inner, name)
        if name != self.method:
            return forward

        def call(*args):
            if self.role is not None and not (args[0].role is self.role and self.picks(args[0])):
                return forward(*args)
            if self.kind == "timeout":
                runtime.clock.sleep(args[-1].remaining_seconds())
                raise BackendTimeout(f"{name} outlasted its deadline")
            raise BackendTransportError(f"{name} failed")

        return call


class _TimeLeft:
    """Forwards every call to ``inner`` and keeps, for each call of
    ``method``, the ms its deadline had left."""

    def __init__(self, inner, method):
        self.inner, self.method = inner, method
        self.left_ms: list[float] = []

    def __getattr__(self, name):
        forward = getattr(self.inner, name)
        if name != self.method:
            return forward

        def call(*args):
            self.left_ms.append(args[-1].remaining_ms())
            return forward(*args)

        return call


class _QueryLog(MockSearchBackend):
    """Mock search that keeps each web query it is sent."""

    def __init__(self, fixture):
        super().__init__(fixture)
        self.queries: list[str] = []

    def web_search(self, query_text, k, deadline):
        self.queries.append(query_text)
        return super().web_search(query_text, k, deadline)


# When each stage's timeout fires in a 400 ms turn: its cumulative cutoff.
# Nothing else in a seam turn takes virtual time, so the turn ends then too.
TIMEOUT_AT_MS = {"route": 20, "summarize": 80, "recall": 140, "rerank": 140,
                 "generate": 300, "consistency": 340, "verify": 400}
SEAM_PAGE = {"title": "zylo", "url": "https://z.test", "last_updated": "2025-01-01",
             "snippet": f"{SEAM_QUERY} {SEAM_SUMMARY}"}


def seam_backends(routing=ROUTE_PLAIN):
    """``task2plus`` backends for ``SEAM_QUERY``, whose search finds ``SEAM_PAGE``."""
    search = _QueryLog(SearchFixture(image_index={}, web_index=((SEAM_PAGE, 0.9),)))
    return dataclasses.replace(
        make_backends(turn_script(SEAM_QUERY, routing=routing, summary=SEAM_SUMMARY)),
        search=search,
    )


class TestFailureSeam:
    @pytest.mark.parametrize("kind", ["timeout", "error"])
    @pytest.mark.parametrize("stage", list(FAILURE_FLAGS))
    def test_backend_failure_flags_and_falls_back_within_budget(self, stage, kind,
                                                                virtual_clock):
        # A router that answered would skip retrieval; only its fallback retrieves.
        backends = seam_backends(ROUTE_NONE if stage == "route" else ROUTE_PLAIN)
        field, method, role = STAGE_CALLS[stage]
        faulty = _Faulty(getattr(backends, field), method, role, kind)
        if stage == "generate":
            # Only the RAG request fails, so the direct answer's worker never waits.
            faulty.picks = lambda request: "Context:" in request.user
        backends = dataclasses.replace(backends, **{field: faulty})
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400, abstain_margin_ms=20)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        if kind == "timeout":
            assert outcome.timings_ms[stage] == outcome.wall_clock_ms == TIMEOUT_AT_MS[stage]
        else:
            assert outcome.wall_clock_ms == 0
        flag = FAILURE_FLAGS[stage][kind == "error"]
        assert flag in outcome.flags
        if kind == "error":  # nothing else degrades
            assert outcome.flags == {flag}
        assert stage in outcome.stages
        assert FALLBACK_SHOWN[stage](outcome, backends.search.queries)

    def test_summary_timeout_leaves_search_and_rerank_their_slice(self, virtual_clock):
        backends = seam_backends()
        backends = dataclasses.replace(
            backends, vlm=_Faulty(backends.vlm, "complete", Role.SUMMARIZER, "timeout"),
            search=_TimeLeft(backends.search, "web_search"),
            reranker=_TimeLeft(backends.reranker, "score_batch"))
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400, abstain_margin_ms=20)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        assert outcome.flags == {"summary_backend_timeout"}
        # The summary ends at its 20 % cutoff; search and rerank still have
        # until the 35 % retrieval cutoff.
        assert outcome.timings_ms["summarize"] == 80
        assert backends.search.left_ms == [pytest.approx(60)]
        assert backends.reranker.left_ms == [pytest.approx(60)]
        assert outcome.timings_ms["recall"] == outcome.timings_ms["rerank"] == 0
        assert len(outcome.context.entries) == 1

    @pytest.mark.parametrize("kind", ["timeout", "error"])
    def test_failed_task1_summary_keeps_the_kg_record(self, kind):
        # task1 looks the image up whatever the summary says; a summary that
        # times out must not spend the budget of the rerank after it.
        # Real time: in task1 the summary waits on the worker while this thread routes.
        fixture = image_fixture("img-1", SEAM_QUERY, SEAM_SUMMARY)
        backends = make_backends(turn_script(SEAM_QUERY, summary=SEAM_SUMMARY), fixture)
        backends = dataclasses.replace(
            backends, vlm=_Faulty(backends.vlm, "complete", Role.SUMMARIZER, kind))
        cfg = PipelineConfig(mode="task1", turn_budget_ms=400, abstain_margin_ms=20)
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert elapsed_ms <= cfg.turn_budget_ms + 200
        assert outcome.flags == {FAILURE_FLAGS["summarize"][kind == "error"]}
        assert len(outcome.context.entries) == 1


# What each call on the calling thread may do in a drawn turn: answer ("ok"),
# stall until its deadline, fail in transport, reply empty, or, where a parser
# reads the reply, send text that does not parse. An empty search reply is no
# results, which is no failure. A rerank reply must score every chunk, so the
# reranker has no empty reply.
DRAWS = {
    "route": ("ok", "stall", "error", "empty", "garbage"),
    "summarize": ("ok", "stall", "error", "empty"),
    "recall": ("ok", "stall", "error", "empty"),
    "rerank": ("ok", "stall", "error"),
    "generate": ("ok", "stall", "error", "empty"),
    "consistency": ("ok", "stall", "error", "empty", "garbage"),
    "verify": ("ok", "stall", "error", "empty", "garbage"),
}
# In task1 the summary runs on the per-turn worker while the calling thread
# routes, so it draws only faults that do not wait; the image lookup that
# recalls there takes no deadline to stall past.
TASK1_DRAWS = {**DRAWS, "summarize": ("ok", "error", "empty"), "recall": ("ok", "error", "empty")}
PARSE_FLAGS = {"route": "router_parse_failure", "consistency": "consistency_parse_failure",
               "verify": "cov_parse_failure"}
# The stage of each call: a model call's by its role, any other call's by its method.
CALL_STAGES = {role or method: stage for stage, (_, method, role) in STAGE_CALLS.items()}
CALL_STAGES["image_search"] = "recall"


def drawn_faults(mode):
    kinds = TASK1_DRAWS if mode == "task1" else DRAWS
    return st.fixed_dictionaries({stage: st.sampled_from(k) for stage, k in kinds.items()})


def drawn_flag(stage, draw):
    """The flag a ``draw`` of ``stage``'s call must leave; None for none."""
    if draw == "ok" or (draw == "empty" and stage == "recall"):
        return None
    if draw == "garbage":
        return PARSE_FLAGS[stage]
    return FAILURE_FLAGS[stage][draw != "stall"]


def drawn_script(routing, draws):
    """The replay script of a drawn ``SEAM_QUERY`` turn: each reply as drawn,
    and a direct answer that is always there."""
    replies = {"route": routing, "summarize": SEAM_SUMMARY, "generate": "rag answer",
               "consistency": "yes", "verify": COV_FULL}
    text = {stage: {"empty": "", "garbage": "garbage"}.get(draws[stage], reply)
            for stage, reply in replies.items()}
    return [
        {"role": Role.ROUTER, "response": text["route"]},
        {"role": Role.SUMMARIZER, "response": text["summarize"]},
        {"role": Role.GENERATOR, "match": "Context:", "response": text["generate"]},
        {"role": Role.GENERATOR, "response": "direct answer"},
        {"role": Role.CONSISTENCY_JUDGE, "response": text["consistency"]},
        {"role": Role.VERIFIER, "response": text["verify"]},
    ]


class _Drawn:
    """Forwards every call to ``inner``, failing each call as ``draws`` says
    for its stage, and keeps the stage of each such call. The direct answer
    always passes, and a task1 summary never stalls (``TASK1_DRAWS``), so
    only the calling thread waits on the virtual clock."""

    def __init__(self, inner, draws):
        self.inner, self.draws = inner, draws
        self.made: list[str] = []

    def __getattr__(self, name):
        forward = getattr(self.inner, name)

        def call(*args):
            request = args[0] if name == "complete" else None
            if request and request.role is Role.GENERATOR and "Context:" not in request.user:
                return forward(*args)
            stage = CALL_STAGES[request.role if request else name]
            self.made.append(stage)
            draw = self.draws[stage]
            if draw == "stall":
                runtime.clock.sleep(args[-1].remaining_seconds())
                raise BackendTimeout(f"{stage} outlasted its deadline")
            if draw == "error":
                raise BackendTransportError(f"{stage} failed")
            if draw == "empty" and stage == "recall":
                return []
            return forward(*args)

        return call


def check_drawn_turn(mode, variant, routing, draws):
    """Run a drawn ``SEAM_QUERY`` turn: it returns the scripted answer or the
    abstention, every failure drawn for a call it made leaves a flag, and it
    ends within its budget."""
    # A fresh virtual clock per example: each turn starts at 0, so every
    # stage cutoff of the 10 s budget is exact.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "clock", VirtualClock())
        model = _Drawn(scripted_model(*drawn_script(routing, draws)), draws)
        search = _Drawn(MockSearchBackend(SearchFixture(
            image_index=image_fixture("img-1", SEAM_QUERY, SEAM_SUMMARY).image_index,
            web_index=((SEAM_PAGE, 0.9),))), draws)
        reranker = _Drawn(MockRerankerBackend(), draws)
        backends = Backends(router_model=model, vlm=model, reranker=reranker, search=search)
        cfg = PipelineConfig(mode=mode)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES,
                           variant)
    scripted = "rag answer" if "rag" in VARIANTS[variant] else "direct answer"
    assert outcome.final.answer in (scripted, cfg.abstain_text)
    made = model.made + search.made + reranker.made
    expected = {drawn_flag(stage, draws[stage]) for stage in made} - {None}
    assert expected <= outcome.flags
    assert outcome.wall_clock_ms <= cfg.turn_budget_ms


ROUTINGS = st.sampled_from([ROUTE_PLAIN, ROUTE_NONE, ROUTE_REAL_TIME])


class TestDrawnFaults:
    @settings(max_examples=200, deadline=None)
    @given(routing=ROUTINGS, draws=drawn_faults("task2plus"))
    def test_any_drawn_fault_degrades_with_a_flag_within_budget(self, routing, draws):
        check_drawn_turn("task2plus", "full", routing, draws)

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(["task1", "task2plus"]),
           variant=st.sampled_from(sorted(VARIANTS)), routing=ROUTINGS, data=st.data())
    def test_each_mode_and_variant_degrades_with_a_flag_within_budget(self, mode, variant,
                                                                      routing, data):
        check_drawn_turn(mode, variant, routing, data.draw(drawn_faults(mode)))


class _RequestLog:
    """Logs every request, and in ``events`` each request and reply in order."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ModelRequest] = []
        self.events: list[tuple[str, Role]] = []

    def complete(self, request, deadline):
        self.requests.append(request)
        self.events.append(("request", request.role))
        try:
            return self.inner.complete(request, deadline)
        finally:
            self.events.append(("reply", request.role))


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
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
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
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
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
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
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
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert outcome.context.empty
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert Role.VERIFIER not in roles_sent(model)
        assert outcome.verification is None


RETRIEVED = ["route", "summarize", "recall", "rerank"]


class TestVariants:
    @pytest.mark.parametrize("variant, stages, two_answers, branch", [
        ("vision_only", ["generate"], False, Branch.CONSISTENT_NO_CONTEXT),
        ("rag_naive", RETRIEVED + ["generate"], False, Branch.CONSISTENT_WITH_CONTEXT),
        ("no_cov_no_sc", RETRIEVED + ["generate"], True, Branch.CONSISTENT_WITH_CONTEXT),
        ("no_cov", RETRIEVED + ["generate", "consistency"], True,
         Branch.CONSISTENT_WITH_CONTEXT),
        ("full", RETRIEVED + ["generate", "consistency", "verify"], True,
         Branch.CONSISTENT_WITH_CONTEXT),
    ])
    def test_stages_of_each_variant(self, variant, stages, two_answers, branch):
        query = "what brand is this shoe"
        model, backends = logged_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant=variant)
        record = outcome.to_record()
        assert record["stages"] == stages
        assert (record["answers"] is not None) == two_answers
        assert (record["verification"] is not None) == ("verify" in VARIANTS[variant])
        assert (record["routing"] is not None) == ("route" in VARIANTS[variant])
        assert outcome.final.branch is branch
        assert outcome.final.answer == "rag answer"
        assert outcome.flags == frozenset()
        generator_calls = sum(r.role is Role.GENERATOR for r in model.requests)
        assert generator_calls == (2 if two_answers else 1)

    def test_exact_match_stands_in_for_the_judge(self):
        query = "the answers disagree"
        model, backends = logged_backends(
            turn_script(query, direct="another answer"), image_fixture("img-1", query)
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant="no_cov_no_sc")
        assert outcome.answers.consistent is False
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert Role.CONSISTENCY_JUDGE not in roles_sent(model)

    @pytest.mark.parametrize("variant", ["rag_naive", "no_cov_no_sc", "no_cov"])
    def test_only_full_applies_the_real_time_guard(self, variant):
        query = "what is the latest price of this"
        backends = make_backends(turn_script(query, routing=ROUTE_REAL_TIME))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant=variant)
        assert outcome.routing.is_real_time
        assert outcome.final.branch is Branch.CONSISTENT_NO_CONTEXT
        assert outcome.final.answer == "rag answer"

    def test_direct_timeout_under_vision_only_abstains_within_budget(self, virtual_clock):
        # Only the worker waits: vision_only neither routes nor retrieves.
        query = "slow direct one"
        entries = turn_script(query)
        for entry in entries:
            if entry["role"] is Role.GENERATOR and "Context:" not in entry["match"]:
                entry["sleep_ms"] = 2000
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, make_backends(entries), TEMPLATES,
                           variant="vision_only")
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        # The worker's wait may end before the generate stage opens, so only
        # the turn's wall clock is exact: generation's 75 % cutoff.
        assert outcome.wall_clock_ms == 300

    def test_failed_judge_under_no_cov_flags_and_abstains(self):
        query = "judge is down"
        entries = [e for e in turn_script(query) if e["role"] is not Role.CONSISTENCY_JUDGE]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant="no_cov")
        assert "consistency_backend_error" in outcome.flags
        assert outcome.final.abstained
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline variant"):
            run_turn(fresh_state(), one_turn("q"), PipelineConfig(), make_backends([]), TEMPLATES,
                     variant="bogus")


class TestSummaryOverlap:
    def test_task2plus_routed_past_retrieval_sends_no_summary_request(self):
        query = "is the mug in the picture red"
        model, backends = logged_backends(turn_script(query, routing=ROUTE_NONE))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"),
                           backends, TEMPLATES)
        assert "retrieval_skipped" in outcome.flags
        assert Role.SUMMARIZER not in roles_sent(model)

    def test_task2plus_summary_waits_for_the_router_reply(self):
        query = "who makes the kettle brand zylo"
        model, backends = logged_backends(turn_script(query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"),
                           backends, TEMPLATES)
        assert "summarize" in outcome.stages
        assert model.events.index(("reply", Role.ROUTER)) < model.events.index(
            ("request", Role.SUMMARIZER))

    def test_early_summary_timeout_is_flagged(self):
        # Real time: in task1 the summary waits on the worker while this thread routes.
        query = "slow summary"
        entries = turn_script(query)
        for entry in entries:
            if entry["role"] is Role.SUMMARIZER:
                entry["sleep_ms"] = 2000
        cfg = PipelineConfig(turn_budget_ms=400, abstain_margin_ms=20)
        backends = make_backends(entries, image_fixture("img-1", query))
        started = time.monotonic()
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        elapsed_ms = (time.monotonic() - started) * 1000
        assert "summary_backend_timeout" in outcome.flags
        assert "summarize" in outcome.stages
        assert elapsed_ms <= cfg.turn_budget_ms + 200

    def test_early_summary_error_is_flagged(self):
        query = "no summary here"
        entries = [e for e in turn_script(query) if e["role"] is not Role.SUMMARIZER]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.flags == frozenset({"summary_backend_error"})
        assert list(outcome.stages) == RETRIEVED + ["generate", "consistency", "verify"]
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT


    def test_empty_summary_reply_is_flagged(self):
        query = "blank summary"
        backends = make_backends(turn_script(query, summary=""), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.flags == frozenset({"summary_backend_error"})
        assert "summarize" in outcome.stages


class TestWhitespaceAnswer:
    @pytest.mark.parametrize("variant, blank", [
        (variant, blank) for variant, runs in VARIANTS.items()
        for blank in ("rag", "direct") if blank in runs
    ])
    def test_whitespace_only_answer_abstains(self, variant, blank):
        query = "what brand is this shoe"
        answers = {"rag": "rag answer", "direct": "rag answer", blank: "  \n "}
        backends = make_backends(
            turn_script(query, rag=answers["rag"], direct=answers["direct"]),
            image_fixture("img-1", query),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant=variant)
        assert outcome.final.abstained
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert "generation_backend_error" in outcome.flags
        assert outcome.answers is None


class TestConversations:
    def _conversation(self, queries):
        turns = tuple(
            QueryTurn(conversation_id="conv", turn_index=i, query=q)
            for i, q in enumerate(queries)
        )
        return Conversation(conversation_id="conv", image_ref=None, turns=turns)

    def test_single_turn_conversation(self):
        query = "only turn"
        backends = make_backends(turn_script(query, routing=ROUTE_NONE))
        outcomes = run_conversation(
            self._conversation([query]), PipelineConfig(mode="task2plus"), backends, TEMPLATES
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
            PipelineConfig(mode="task2plus"), backends, TEMPLATES,
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
            self._conversation([first, second]), PipelineConfig(mode="task2plus"), backends,
            TEMPLATES,
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
            turns=(QueryTurn(conversation_id="conv", turn_index=0, query=query),),
        )
        first = run_conversation(conversation, PipelineConfig(), build(), TEMPLATES)
        second = run_conversation(conversation, PipelineConfig(), build(), TEMPLATES)
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
            outcome = run_turn(fresh_state(image_ref), one_turn(queries[i]),
                               PipelineConfig(), backends, TEMPLATES)
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
