"""End-to-end turn orchestration: stage flow, deadlines, degradation, state."""

import ast
import dataclasses
import inspect
import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ragvet import pipeline, runtime
from ragvet.backends import (
    BackendTransportError,
    Backends,
    FixtureError,
    MockRerankerBackend,
    ReplayModelBackend,
    Role,
    SearchFixture,
    load_replay,
)
from ragvet.core import (
    MODES,
    Conversation,
    InvalidConfigError,
    PipelineConfig,
    QueryTurn,
    VerificationResult,
)
from ragvet.finalizer import Branch
from ragvet.pipeline import VARIANTS, run_conversation, run_turn
from ragvet.router import FALLBACK_DECISION

from conftest import (
    COV_FULL, DRAWN_STAGES, FAILURE_FLAGS, ROUTE_NONE, ROUTE_PLAIN, ROUTE_REAL_TIME, STALL,
    TEMPLATES, fresh_state, image_fixture, make_backends, one_turn, turn_script, virtual_time,
)


def reply_at(ms, reply):
    """``reply``, once the virtual clock reads ``ms`` into the turn: the
    answer of a backend that ignores its deadline."""
    runtime.clock.wait_until(ms / 1000.0)
    return reply


# Replies that are no failure but change the decision: a judge that finds the
# answers inconsistent, and a verifier under the low_confidence threshold.
REPLIES = {"no": "no", "unsure": "CONFIDENCE: 0.5\nREASONING: partly grounded."}


def fault(kind, call):
    """The tap reply to a ``call`` that ``kind`` faults: a stall until its
    deadline, a transport error, a reply no parser accepts, an empty one (no
    results, for a search), a whitespace-only one (``blank``, for a model
    call), one of ``REPLIES``, or, for ``ok``, the scripted reply."""
    if kind in ("stall", "timeout"):
        return STALL
    if kind == "error":
        return BackendTransportError(f"{call.name} failed")
    if kind == "empty":
        return [] if DRAWN_STAGES.get(call.name) == "recall" else ""
    return {"garbage": "garbage", "blank": " \n\t ", "ok": None, **REPLIES}[kind]


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
        backends = make_backends(turn_script(query), image_fixture("img-7", query))
        outcome = run_turn(fresh_state("img-7"), one_turn(query), PipelineConfig(), backends,
                           TEMPLATES)
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT  # img-7's KG record
        images = {request.role: request.image_ref for request in backends.vlm.requests}
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

    def test_task1_summary_overlaps_routing(self):
        query = "what brand is this shoe"
        summary_seen, saw_summary = threading.Event(), []

        def answer(call):  # the router replies only once the summary was requested
            if call.name == "summarize":
                summary_seen.set()
            elif call.name == "route":
                saw_summary.append(summary_seen.wait(timeout=2.0))

        backends = make_backends(turn_script(query), image_fixture("img-1", query), answer)
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert saw_summary == [True], "the summary was not requested during routing"
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
        fixture = SearchFixture(image_index={}, web_index=(fields,))
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
        cfg = PipelineConfig(turn_budget_ms=400)
        backends = make_backends(turn_script(query),
                                 answer=lambda call: STALL if call.name == "rag" else None)
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
            model = ReplayModelBackend(load_replay(path))
            backends = Backends(router_model=model, vlm=model, reranker=MockRerankerBackend(),
                                search=image_fixture("img-1", query))
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

    def test_direct_call_timeout_abstains_within_budget(self, virtual_clock):
        query = "slow direct one"
        cfg = PipelineConfig(turn_budget_ms=400)
        backends = make_backends(turn_script(query), image_fixture("img-1", query),
                                 lambda call: STALL if call.name == "direct" else None)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        # The RAG answer comes at once; the stage then waits for the direct
        # answer, which times out at generation's 75 % cutoff.
        assert outcome.timings_ms["generate"] == outcome.wall_clock_ms == 300
        assert outcome.answers is None

    def test_failed_rag_call_leaves_the_direct_answer_unread(self, virtual_clock):
        # The RAG call fails at once while the direct one is still out; its
        # later timeout is never read, so it adds no flag.
        query = "rag fails first"
        faults = {"rag": "error", "direct": "stall"}
        backends = make_backends(turn_script(query), image_fixture("img-1", query),
                                 lambda call: fault(faults.get(call.name, "ok"), call))
        cfg = PipelineConfig(turn_budget_ms=400)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert outcome.flags == {"generation_backend_error"}
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert outcome.timings_ms["generate"] == 0
        # The turn still joins the worker, whose unread direct answer stalls
        # until generation's 75 % cutoff.
        assert outcome.wall_clock_ms == 300

    def test_a_summary_past_its_cutoff_leaves_each_later_stage_its_own(self, virtual_clock):
        # The task1 summary ignores its 20 ms cutoff and answers at 90 ms.
        # Rerank and generation then fail at once on their expired cutoffs.
        query = "expensive retrieval"
        backends = make_backends(turn_script(query), image_fixture("img-1", query),
                                 lambda call: reply_at(90, "summary tokens")
                                 if call.name == "summarize" else None)
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(turn_budget_ms=100),
                           backends, TEMPLATES)
        assert outcome.flags == {"rerank_backend_error", "generation_timeout"}
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert outcome.timings_ms["generate"] == 0
        assert outcome.wall_clock_ms == 90

    def test_a_judge_past_its_cutoff_leaves_verify_its_own(self, virtual_clock):
        # The judge ignores its 85 ms cutoff and answers at 95 ms; verify
        # still runs under its 100 ms cutoff, and the turn answers.
        query = "slow judge"
        backends = make_backends(turn_script(query), image_fixture("img-1", query),
                                 lambda call: reply_at(95, "yes") if call.name == "consistency"
                                 else None)
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(turn_budget_ms=100),
                           backends, TEMPLATES)
        assert outcome.flags == frozenset()
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert outcome.final.answer == "rag answer"
        assert outcome.wall_clock_ms == 95

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


# Each stage whose reply a parser reads: the flag a reply that does not parse sets.
PARSE_FLAGS = {"route": "router_parse_failure", "consistency": "consistency_parse_failure",
               "verify": "cov_parse_failure"}
# The call of each stage that a seam turn faults, where it is not named after
# its stage: a task2plus turn recalls by web search, and only the RAG answer
# of the two generator calls fails, so the direct answer answers.
SEAM_CALLS = {"recall": "web_search", "generate": "rag"}
# The stages whose call is a model call, so that its reply may be blank.
MODEL_STAGES = ("route", "summarize", "generate", "consistency", "verify")
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


# When each stage's timeout fires in a 400 ms turn: its cumulative cutoff.
# Nothing else in a seam turn takes virtual time, so the turn ends then too.
TIMEOUT_AT_MS = {"route": 20, "summarize": 80, "recall": 140, "rerank": 140,
                 "generate": 300, "consistency": 340, "verify": 400}
SEAM_PAGE = {"title": "zylo", "url": "https://z.test", "last_updated": "2025-01-01",
             "snippet": f"{SEAM_QUERY} {SEAM_SUMMARY}"}


def seam_fixture():
    """A search fixture that serves ``SEAM_QUERY`` in both modes: ``SEAM_PAGE``
    to a web search, and a KG record of ``img-1`` to an image lookup."""
    return SearchFixture(image_index=image_fixture("img-1", SEAM_QUERY, SEAM_SUMMARY).image_index,
                         web_index=(SEAM_PAGE,))


def seam_backends(routing=ROUTE_PLAIN, stage=None, kind="ok"):
    """``task2plus`` backends for ``SEAM_QUERY``, whose web search finds
    ``SEAM_PAGE``, with the call of ``stage`` faulted as ``kind`` says."""
    faulted = SEAM_CALLS.get(stage, stage)
    return make_backends(turn_script(SEAM_QUERY, routing=routing, summary=SEAM_SUMMARY),
                         seam_fixture(),
                         lambda call: fault(kind if call.name == faulted else "ok", call))


README = Path(__file__).resolve().parents[1] / "README.md"


def degradation_section():
    """README's "Degradation flags" section, up to the next heading."""
    readme = README.read_text(encoding="utf-8")
    return readme.split("\n## Degradation flags\n")[1].split("\n## ")[0]


def degradation_table():
    """The rows of README's "Degradation flags" table, each a dict from
    column heading to cell text, code quotes stripped."""
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in degradation_section().split("\n") if line.startswith("|")]
    header, _, *body = rows
    return [dict(zip(header, row)) for row in body]


def flag_literals():
    """The string literals ``pipeline`` passes to a ``.flag(`` call."""
    return {arg.value for node in ast.walk(ast.parse(inspect.getsource(pipeline)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "flag"
            for arg in node.args if isinstance(arg, ast.Constant)}


def test_readme_degradation_table_matches_the_seam():
    table = {row["stage"]: (row["budget cutoff"], row["flag on timeout"],
                            row["flag on any other backend error"],
                            row["flag when the reply does not parse"])
             for row in degradation_table()}
    assert table == {stage: (f"{TIMEOUT_AT_MS[stage] * 100 // 400} %", *FAILURE_FLAGS[stage],
                             PARSE_FLAGS.get(stage, "—"))
                     for stage in FAILURE_FLAGS}
    # The section names flags in the table and in its "Other flags:" text:
    # every snake_case name quoted there.
    other = degradation_section().split("Other flags:")[1].split("\n\n")[0]
    named = {row[column] for row in degradation_table() for column in list(row)[2:5]} - {"—"}
    named |= set(re.findall(r"`([a-z]+(?:_[a-z0-9]+)+)`", other))
    assert named == ({flag for flags in FAILURE_FLAGS.values() for flag in flags}
                     | set(PARSE_FLAGS.values()) | flag_literals())


class TestFailureSeam:
    # A blank reply is a backend error, whatever the stage would parse.
    @pytest.mark.parametrize("stage, kind", [
        (stage, kind) for stage in FAILURE_FLAGS
        for kind in ("timeout", "error", "garbage", "blank")
        if (kind != "garbage" or stage in PARSE_FLAGS)
        and (kind != "blank" or stage in MODEL_STAGES)])
    def test_backend_failure_flags_and_falls_back_within_budget(self, stage, kind,
                                                                virtual_clock):
        # A router that answered would skip retrieval; only its fallback retrieves.
        backends = seam_backends(ROUTE_NONE if stage == "route" else ROUTE_PLAIN, stage, kind)
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        if kind == "timeout":
            assert outcome.timings_ms[stage] == outcome.wall_clock_ms == TIMEOUT_AT_MS[stage]
        else:
            assert outcome.wall_clock_ms == 0
        flag = PARSE_FLAGS[stage] if kind == "garbage" else FAILURE_FLAGS[stage][kind != "timeout"]
        assert flag in outcome.flags
        if kind != "timeout":  # nothing else degrades
            assert outcome.flags == {flag}
        assert stage in outcome.stages
        assert FALLBACK_SHOWN[stage](outcome, [call.user for call in backends.search.calls])

    def test_summary_timeout_leaves_search_and_rerank_their_slice(self, virtual_clock):
        backends = seam_backends(stage="summarize", kind="timeout")
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        assert outcome.flags == {"summary_backend_timeout"}
        # The summary ends at its 20 % cutoff; search and rerank still have
        # until the 35 % retrieval cutoff.
        assert outcome.timings_ms["summarize"] == 80
        assert [call.left_ms for call in backends.search.calls] == [pytest.approx(60)]
        assert [call.left_ms for call in backends.reranker.calls] == [pytest.approx(60)]
        assert outcome.timings_ms["recall"] == outcome.timings_ms["rerank"] == 0
        assert len(outcome.context.entries) == 1

    def test_a_worker_call_starts_at_its_submitters_time(self, virtual_clock):
        backends = seam_backends(stage="route", kind="timeout")
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=400)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        assert outcome.flags == {"router_backend_timeout"}
        # Routing times out at 20 ms and nothing after it takes time, so every
        # call starts then, the direct answer on the worker too, with its
        # cutoff less 20 ms left: summary 80, answers 300, judge 340, verifier 400.
        assert sorted(call.left_ms for call in backends.vlm.calls
                      if call.name != "route") == pytest.approx([60, 280, 280, 320, 380])

    @pytest.mark.parametrize("kind", ["timeout", "error"])
    def test_failed_task1_summary_keeps_the_kg_record(self, kind, virtual_clock):
        # task1 looks the image up whatever the summary says; a summary that
        # times out must not spend the budget of the rerank after it.
        fixture = image_fixture("img-1", SEAM_QUERY, SEAM_SUMMARY)
        backends = make_backends(
            turn_script(SEAM_QUERY, summary=SEAM_SUMMARY), fixture,
            lambda call: fault(kind if call.name == "summarize" else "ok", call))
        cfg = PipelineConfig(mode="task1", turn_budget_ms=400)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), cfg, backends, TEMPLATES)
        # A timeout ends at the summary's 20 % cutoff; nothing after it waits.
        waited_ms = TIMEOUT_AT_MS["summarize"] if kind == "timeout" else 0
        assert outcome.timings_ms["summarize"] == outcome.wall_clock_ms == waited_ms
        assert outcome.flags == {FAILURE_FLAGS["summarize"][kind == "error"]}
        assert len(outcome.context.entries) == 1


# How long each call takes on the virtual clock before its scripted reply.
SERVICE_MS = {"route": 5, "summarize": 10, "web_search": 10, "image_search": 0, "rerank": 10,
              "rag": 20, "direct": 20, "consistency": 10, "verify": 15}


def after_service(call):
    """The tap answer of a backend that takes ``SERVICE_MS`` to reply as scripted."""
    runtime.clock.wait_until(runtime.clock.now() + SERVICE_MS[call.name] / 1000.0)


# The stage timings of a task2plus turn whose calls take ``SERVICE_MS``.
CRITICAL_TIMINGS_MS = {"route": 5, "summarize": 10, "recall": 10, "rerank": 10, "generate": 20,
                       "consistency": 10, "verify": 15}


class TestCriticalPath:
    @pytest.mark.parametrize("mode, turn_ms, timings_ms", [
        ("task2plus", 80, CRITICAL_TIMINGS_MS),
        ("task1", 65, {**CRITICAL_TIMINGS_MS, "summarize": 5, "recall": 0}),
    ], ids=["task2plus-80", "task1-65"])
    def test_a_turn_takes_only_its_critical_path(self, mode, turn_ms, timings_ms, virtual_clock):
        # task2plus: route, summary, search, rerank, one answer, judge, verify.
        # task1 starts the summary with routing, so routing is hidden; its
        # summary stage waits out the 5 ms left, and the image lookup takes none.
        backends = make_backends(turn_script(SEAM_QUERY, summary=SEAM_SUMMARY), seam_fixture(),
                                 after_service)
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), PipelineConfig(mode=mode),
                           backends, TEMPLATES)
        assert outcome.flags == frozenset()
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert runtime.clock.now() * 1000.0 == pytest.approx(turn_ms)
        # The two answers run side by side: serial ones would take 40 ms.
        assert outcome.timings_ms == timings_ms


# What each call in a drawn turn may do: answer ("ok"), stall until its
# deadline, fail in transport, reply empty, or, where a parser reads the
# reply, send text that does not parse. The judge may also say "no" and the
# verifier be unsure (``REPLIES``). The generator's two calls, the RAG answer
# and the direct answer, draw apart. An empty search reply is no results,
# which is no failure. A rerank reply must score every chunk, so the
# reranker has no empty reply, and the image lookup takes no deadline, so it
# cannot stall.
DRAWS = {
    "route": ("ok", "stall", "error", "empty", "garbage"),
    "summarize": ("ok", "stall", "error", "empty"),
    "web_search": ("ok", "stall", "error", "empty"),
    "image_search": ("ok", "error", "empty"),
    "rerank": ("ok", "stall", "error"),
    "rag": ("ok", "stall", "error", "empty"),
    "direct": ("ok", "stall", "error", "empty"),
    "consistency": ("ok", "no", "stall", "error", "empty", "garbage"),
    "verify": ("ok", "unsure", "stall", "error", "empty", "garbage"),
}
DRAWN_FAULTS = st.fixed_dictionaries({call: st.sampled_from(k) for call, k in DRAWS.items()})
# Each stage's own share of the turn budget: its cutoff less the one before it.
SLICES = {"route": 0.05, "summarize": 0.15, "recall": 0.15, "rerank": 0.15,
          "generate": 0.40, "consistency": 0.10, "verify": 0.15}


def drawn_flag(call, draw):
    """The flag a ``draw`` of ``call`` must leave; None for none."""
    stage = DRAWN_STAGES.get(call, call)
    if draw == "ok" or draw in REPLIES or (draw == "empty" and stage == "recall"):
        return None
    if draw == "garbage":
        return PARSE_FLAGS[stage]
    return FAILURE_FLAGS[stage][draw != "stall"]


def drawn_script(routing):
    """The replay script of a drawn ``SEAM_QUERY`` turn: the tap faults its replies."""
    return [
        {"role": Role.ROUTER, "response": routing},
        {"role": Role.SUMMARIZER, "response": SEAM_SUMMARY},
        {"role": Role.GENERATOR, "match": "Context:", "response": "rag answer"},
        {"role": Role.GENERATOR, "response": "direct answer"},
        {"role": Role.CONSISTENCY_JUDGE, "response": "yes"},
        {"role": Role.VERIFIER, "response": COV_FULL},
    ]


def drawn_turn(mode, variant, routing, draws):
    """A drawn ``SEAM_QUERY`` turn under ``variant``: its outcome, and the
    backends whose taps logged its calls."""
    # A fresh virtual clock per example: each turn starts at 0, so every
    # stage cutoff of the 10 s budget is exact. A call on the per-turn worker
    # (the direct answer, a task1 summary) stalls on its own thread's time.
    with virtual_time():
        backends = make_backends(drawn_script(routing), seam_fixture(),
                                 lambda call: fault(draws[call.name], call))
        outcome = run_turn(fresh_state(), one_turn(SEAM_QUERY), PipelineConfig(mode=mode),
                           backends, TEMPLATES, variant)
    return outcome, backends


def check_drawn_turn(mode, variant, routing, draws):
    """Run a drawn ``SEAM_QUERY`` turn: it returns the scripted answer or the
    abstention, it requests the direct answer only when it generates one,
    every drawn failure of a call whose reply it read leaves a flag, each
    call starts with at least its stage's share of the budget left
    (``SLICES``), the two answers start together on two threads, and the
    turn ends within its budget."""
    outcome, backends = drawn_turn(mode, variant, routing, draws)
    cfg = PipelineConfig(mode=mode)
    scripted = "rag answer" if "rag" in VARIANTS[variant] else "direct answer"
    assert outcome.final.answer in (scripted, cfg.abstain_text)
    calls = backends.vlm.calls + backends.search.calls + backends.reranker.calls
    made = {call.name for call in calls}
    # The direct answer is never requested for nothing: exactly when the turn
    # reaches generation and its variant answers directly.
    assert ("direct" in made) == ("generate" in outcome.stages and "direct" in VARIANTS[variant])
    answers = {call.name: call for call in backends.vlm.calls if call.name in ("rag", "direct")}
    if len(answers) == 2:
        assert answers["direct"].left_ms == answers["rag"].left_ms
        assert answers["direct"].thread != answers["rag"].thread
    if "rag" in made and draws["rag"] != "ok":
        made.discard("direct")  # a failed RAG answer leaves the direct one unread
    expected = {drawn_flag(call, draws[call]) for call in made} - {None}
    assert expected <= outcome.flags
    for call in calls:
        if call.left_ms is not None:
            share_ms = SLICES[DRAWN_STAGES.get(call.name, call.name)] * cfg.turn_budget_ms
            assert call.left_ms >= share_ms - 1e-6, (call.name, call.left_ms)  # less rounding
    assert outcome.wall_clock_ms <= cfg.turn_budget_ms


ROUTINGS = st.sampled_from([ROUTE_PLAIN, ROUTE_NONE, ROUTE_REAL_TIME])


class TestDrawnFaults:
    @settings(max_examples=200, deadline=None)
    @given(routing=ROUTINGS, draws=DRAWN_FAULTS)
    def test_any_drawn_fault_degrades_with_a_flag_within_budget(self, routing, draws):
        check_drawn_turn("task2plus", "full", routing, draws)

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(["task1", "task2plus"]),
           variant=st.sampled_from(sorted(VARIANTS)), routing=ROUTINGS, draws=DRAWN_FAULTS)
    def test_each_mode_and_variant_degrades_with_a_flag_within_budget(self, mode, variant,
                                                                      routing, draws):
        check_drawn_turn(mode, variant, routing, draws)


# Draws that leave no flag: every call answers, and a search may find nothing.
CLEAN_DRAWS = st.fixed_dictionaries({
    call: st.sampled_from([kind for kind in kinds if drawn_flag(call, kind) is None])
    for call, kinds in DRAWS.items()})


class TestDrawnEarlyExit:
    @settings(max_examples=400, deadline=None)
    @given(mode=st.sampled_from(MODES), variant=st.sampled_from(sorted(VARIANTS)),
           routing=ROUTINGS, draws=st.one_of(CLEAN_DRAWS, DRAWN_FAULTS))
    def test_an_early_exit_never_changes_the_decision(self, mode, variant, routing, draws):
        """A turn that exits early (``finalizer.settled``) ends as it would
        have had it run every stage: with the same answer, and, when no draw
        failed, the same decision."""
        outcome, _ = drawn_turn(mode, variant, routing, draws)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "settled", lambda *args, **kwargs: None)
            unsettled, _ = drawn_turn(mode, variant, routing, draws)
        assert outcome.final.answer == unsettled.final.answer
        if all(drawn_flag(call, draw) is None for call, draw in draws.items()):
            assert outcome.final == unsettled.final


CONFIG_QUERY = "which kettle brand is zylo"


def config_turn(values):
    """Build a config from ``values`` and run one ``CONFIG_QUERY`` turn on it,
    whose search finds six pages and whose image six KG records, all of them
    matching: the turn returns the scripted answer or the abstention, within
    its budget. Building the config may raise InvalidConfigError instead."""
    cfg = PipelineConfig(**values)
    records = tuple({"description": f"{CONFIG_QUERY} summary tokens record {i}"}
                    for i in range(6))
    pages = tuple({**SEAM_PAGE, "snippet": f"{CONFIG_QUERY} summary tokens page {i}"}
                  for i in range(6))
    backends = make_backends(turn_script(CONFIG_QUERY), SearchFixture(
        image_index={"img-1": records}, web_index=pages))
    with virtual_time():  # a fresh virtual clock per example
        outcome = run_turn(fresh_state(), one_turn(CONFIG_QUERY), cfg, backends, TEMPLATES)
    assert outcome.final.answer in ("rag answer", cfg.abstain_text)
    assert outcome.wall_clock_ms <= cfg.turn_budget_ms


# Values that hold every bound, together: rerank_k <= recall_k and
# low_confidence <= high_confidence hold for any draw.
WITHIN_BOUNDS = {
    "recall_k": st.integers(3, 12),
    "rerank_k": st.integers(0, 3),
    "score_floor": st.floats(0.0, 1.0),
    "mad_scale": st.floats(0.0, 5.0),
    "min_retrieval_score": st.floats(0.0, 1.0),
    "low_confidence": st.floats(0.0, 0.9),
    "high_confidence": st.floats(0.9, 1.0),
    "turn_budget_ms": st.integers(1, 20_000),
    "mode": st.sampled_from(MODES),
}
# Values on both sides of every bound.
ACROSS_BOUNDS = {
    "recall_k": st.integers(-1, 12),
    "rerank_k": st.integers(-1, 5),
    "score_floor": st.floats(-0.1, 1.1),
    "mad_scale": st.floats(-0.5, 5.0),
    "min_retrieval_score": st.floats(-0.1, 1.1),
    "low_confidence": st.floats(-0.1, 1.1),
    "high_confidence": st.floats(-0.1, 1.1),
    "turn_budget_ms": st.integers(-1, 20_000),
    "mode": st.sampled_from(MODES + ("task9",)),
}
# One or two fields drawn across their bounds, the rest within them, so that
# both rejected configs and turns run on odd but valid ones are common.
DRAWN_CONFIGS = st.sets(st.sampled_from(sorted(WITHIN_BOUNDS)), min_size=1, max_size=2).flatmap(
    lambda across: st.fixed_dictionaries({
        name: (ACROSS_BOUNDS if name in across else WITHIN_BOUNDS)[name]
        for name in WITHIN_BOUNDS
    }))


class TestDrawnConfigs:
    @settings(max_examples=100, deadline=None)
    @given(values=DRAWN_CONFIGS)
    def test_a_config_is_rejected_when_built_or_runs_a_turn(self, values):
        try:
            config_turn(values)
        except InvalidConfigError:
            pass

    @pytest.mark.parametrize("values, violated", [
        ({"rerank_k": 5}, "rerank_k <= 3"),
        ({"recall_k": 0}, "recall_k >= 1"),
    ])
    def test_a_config_that_would_crash_a_turn_is_never_built(self, values, violated):
        with pytest.raises(InvalidConfigError, match=violated):
            config_turn({"mode": "task2plus", **values})


class TestEarlyExit:
    def test_real_time_low_retrieval_skips_generation_and_verification(self):
        query = "what is the latest price of this"
        backends = make_backends(turn_script(query, routing=ROUTE_REAL_TIME))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.branch is Branch.REAL_TIME_LOW_RETRIEVAL
        assert {call.role for call in backends.vlm.calls} == {Role.ROUTER, Role.SUMMARIZER}
        record = outcome.to_record()
        assert record["answers"] is None
        assert record["verification"] is None
        assert record["stages"] == ["route", "summarize", "recall", "rerank"]

    def test_inconsistent_with_context_skips_verification(self):
        query = "the answers disagree"
        backends = make_backends(
            turn_script(query, direct="another answer", consistent="no"),
            image_fixture("img-1", query),
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert Role.VERIFIER not in {call.role for call in backends.vlm.calls}
        assert Role.CONSISTENCY_JUDGE in {call.role for call in backends.vlm.calls}
        assert outcome.verification is None
        assert outcome.answers.consistent is False
        assert outcome.stages[-1] == "consistency"

    def test_failed_judge_with_context_skips_verification(self):
        query = "judge is down"
        entries = [e for e in turn_script(query) if e["role"] is not Role.CONSISTENCY_JUDGE]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert "consistency_backend_error" in outcome.flags
        assert Role.VERIFIER not in {call.role for call in backends.vlm.calls}
        assert outcome.verification is None

    def test_inconsistent_without_context_abstains_without_verification(self):
        query = "is the mug in the picture red"
        backends = make_backends(
            turn_script(query, routing=ROUTE_NONE, direct="blue", consistent="no")
        )
        cfg = PipelineConfig(mode="task2plus")
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert outcome.context.empty
        assert outcome.final.branch is Branch.DEFAULT_ABSTAIN
        assert Role.VERIFIER not in {call.role for call in backends.vlm.calls}
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
        backends = make_backends(turn_script(query), image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant=variant)
        record = outcome.to_record()
        assert record["stages"] == stages
        assert (record["answers"] is not None) == two_answers
        assert (record["verification"] is not None) == ("verify" in VARIANTS[variant])
        assert (record["routing"] is not None) == ("rag" in VARIANTS[variant])
        assert outcome.final.branch is branch
        assert outcome.final.answer == "rag answer"
        assert outcome.flags == frozenset()
        generator_calls = sum(call.role is Role.GENERATOR for call in backends.vlm.calls)
        assert generator_calls == (2 if two_answers else 1)

    def test_exact_match_stands_in_for_the_judge(self):
        query = "the answers disagree"
        backends = make_backends(
            turn_script(query, direct="another answer"), image_fixture("img-1", query)
        )
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES,
                           variant="no_cov_no_sc")
        assert outcome.answers.consistent is False
        assert outcome.final.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert Role.CONSISTENCY_JUDGE not in {call.role for call in backends.vlm.calls}

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
        query = "slow direct one"
        backends = make_backends(turn_script(query),
                                 answer=lambda call: STALL if call.name == "direct" else None)
        cfg = PipelineConfig(turn_budget_ms=400)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES,
                           variant="vision_only")
        assert outcome.final.abstained
        assert "generation_timeout" in outcome.flags
        # The stage waits for the direct answer until generation's 75 % cutoff.
        assert outcome.timings_ms["generate"] == outcome.wall_clock_ms == 300

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
        backends = make_backends(turn_script(query, routing=ROUTE_NONE))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"),
                           backends, TEMPLATES)
        assert "retrieval_skipped" in outcome.flags
        assert Role.SUMMARIZER not in {call.role for call in backends.vlm.calls}

    def test_task2plus_summary_waits_for_the_router_reply(self):
        query = "who makes the kettle brand zylo"
        backends = make_backends(turn_script(query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(mode="task2plus"),
                           backends, TEMPLATES)
        assert "summarize" in outcome.stages
        calls = backends.vlm.calls
        [route] = [call for call in calls if call.name == "route"]
        assert route.returned <= [call.name for call in calls].index("summarize")

    def test_early_summary_timeout_is_flagged(self, virtual_clock):
        query = "slow summary"
        cfg = PipelineConfig(turn_budget_ms=400)
        backends = make_backends(turn_script(query), image_fixture("img-1", query),
                                 lambda call: STALL if call.name == "summarize" else None)
        outcome = run_turn(fresh_state(), one_turn(query), cfg, backends, TEMPLATES)
        assert "summary_backend_timeout" in outcome.flags
        assert "summarize" in outcome.stages
        # Routing runs meanwhile; the stage waits out the summary's 20 % cutoff.
        assert outcome.timings_ms["summarize"] == outcome.wall_clock_ms == 80

    def test_early_summary_error_is_flagged(self):
        query = "no summary here"
        entries = [e for e in turn_script(query) if e["role"] is not Role.SUMMARIZER]
        backends = make_backends(entries, image_fixture("img-1", query))
        outcome = run_turn(fresh_state(), one_turn(query), PipelineConfig(), backends, TEMPLATES)
        assert outcome.flags == frozenset({"summary_backend_error"})
        assert list(outcome.stages) == RETRIEVED + ["generate", "consistency", "verify"]
        assert outcome.final.branch is Branch.CONSISTENT_WITH_CONTEXT


    @pytest.mark.parametrize("summary", ["", "  \n "], ids=["empty", "whitespace"])
    def test_empty_summary_reply_is_flagged(self, summary):
        query = "blank summary"
        backends = make_backends(turn_script(query, summary=summary),
                                 image_fixture("img-1", query))
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
        backends = make_backends(entries)
        outcomes = run_conversation(
            self._conversation([first, second, third]),
            PipelineConfig(mode="task2plus"), backends, TEMPLATES,
        )
        assert len(outcomes) == 3
        third_gen = [
            r.user for r in backends.vlm.requests
            if r.role is Role.GENERATOR and third in r.user
        ]
        assert third_gen, "third turn generated nothing"
        for user in third_gen:
            assert "Previous Q: turn one" in user
            assert "Previous Q: turn two" in user
            assert user.index("Previous Q: turn one") < user.index("Previous Q: turn two")
        first_gen = [
            r.user for r in backends.vlm.requests
            if r.role is Role.GENERATOR and first in r.user and "Previous" not in r.user
        ]
        assert first_gen, "first turn must carry no history"

    def test_abstention_recorded_in_history(self):
        first, second = "will abstain", "follow up"
        entries = (
            turn_script(first, routing=ROUTE_NONE, cov="CONFIDENCE: 0.9\nREASONING: shaky.")
            + turn_script(second, routing=ROUTE_NONE)
        )
        backends = make_backends(entries)
        outcomes = run_conversation(
            self._conversation([first, second]), PipelineConfig(mode="task2plus"), backends,
            TEMPLATES,
        )
        assert outcomes[0].final.abstained  # 0.9 < high bar without context
        second_gen = [
            r.user for r in backends.vlm.requests if r.role is Role.GENERATOR and second in r.user
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
