"""Dual-path generation prompts, yes/no parsing, and the consistency check."""


import re

import pytest
from hypothesis import given, strategies as st

from ragvet.backends import MAX_TOKENS, BackendTimeout, Role
from ragvet.core import AnswerPair, ReplyParseError
from ragvet.generation import (
    NO_CONTEXT_MARKER,
    check_consistency,
    generate_direct,
    generate_rag,
    parse_yes_no,
)
from ragvet.retrieval import build_context
from ragvet.runtime import Deadline
from ragvet.templates import default_template

from conftest import STALL, chunk, day_deadline, scripted_model, tap

GENERATION = default_template("generation")
CONSISTENCY = default_template("consistency")
NO_DEADLINE = day_deadline()


def _context(*texts_scores):
    kept = [chunk(text, score) for text, score in texts_scores]
    return build_context(kept, 0.1)


def _model(role, response):
    return tap(scripted_model({"role": role, "response": response}))


ANSWER_1 = re.compile(r"## Proposed Answer 1:\n\n(.*?)\n\n## Proposed Answer 2:", re.DOTALL)
ANSWER_2 = re.compile(r"## Proposed Answer 2:\n\n(.*?)\n\n## Your Task:", re.DOTALL)


def honest_verdict(call):
    """A consistency judge's reply: yes iff the two proposed answers in its
    prompt are equal, so identical answers always come back consistent."""
    first, second = ANSWER_1.search(call.user), ANSWER_2.search(call.user)
    assert first and second, "consistency prompt shape changed"
    return "yes" if first.group(1) == second.group(1) else "no"


def rag_request(query, context, history=()):
    """The request ``generate_rag`` sends."""
    model = _model(Role.GENERATOR, "an answer")
    generate_rag(query, "img-1", context, model, NO_DEADLINE, history, GENERATION)
    [request] = model.requests
    return request


def direct_request(query, history=()):
    """The request ``generate_direct`` sends."""
    model = _model(Role.GENERATOR, "an answer")
    generate_direct(query, "img-1", model, NO_DEADLINE, history, GENERATION)
    [request] = model.requests
    return request


def consistency_request(context, query, direct_answer, rag_answer):
    """The request ``check_consistency`` sends."""
    model = _model(Role.CONSISTENCY_JUDGE, "yes")
    pair = AnswerPair(rag_answer=rag_answer, direct_answer=direct_answer)
    check_consistency(query, "img-1", context, pair, model, NO_DEADLINE, CONSISTENCY)
    [request] = model.requests
    return request


class TestGenerationPrompt:
    def test_rag_prompt_carries_rendered_context(self):
        request = rag_request("what is it?", _context(("a lamp", 0.9)))
        assert "Context:\n[Info 1] a lamp" in request.user
        assert request.user.endswith("Question: what is it?")
        assert (request.role, request.image_ref) == (Role.GENERATOR, "img-1")
        assert request.max_tokens == MAX_TOKENS[Role.GENERATOR]

    def test_empty_context_gets_marker(self):
        assert NO_CONTEXT_MARKER in rag_request("what is it?", _context()).user

    def test_direct_prompt_has_no_context_block(self):
        user = direct_request("what is it?").user
        assert "Context:" not in user
        assert NO_CONTEXT_MARKER not in user

    def test_history_lines_oldest_first(self):
        history = [("what is it?", "a kettle"), ("color?", "blue")]
        user = direct_request("and the price?", history).user
        assert user.index("Previous Q: what is it?") < user.index("Previous Q: color?")
        assert "Previous A: a kettle" in user
        assert "Previous A: blue" in user


class TestGenerate:
    def test_scripted_rag_answer(self, no_deadline):
        backend = scripted_model(
            {"role": Role.GENERATOR, "match": ["Context:", "capital"], "response": "Paris."}
        )
        answer = generate_rag("capital of France?", None, _context(("fact", 0.9)), backend,
                              no_deadline, (), GENERATION)
        assert answer == "Paris."

    def test_empty_context_still_answers(self, no_deadline):
        backend = scripted_model(
            {"role": Role.GENERATOR, "match": NO_CONTEXT_MARKER, "response": "Paris."}
        )
        answer = generate_rag("capital?", None, _context(), backend, no_deadline, (), GENERATION)
        assert answer == "Paris."

    def test_direct_and_rag_prompts_distinguishable(self, no_deadline):
        backend = scripted_model(
            {"role": Role.GENERATOR, "match": "Context:", "response": "grounded"},
            {"role": Role.GENERATOR, "match": "", "response": "prior"},
        )
        assert generate_rag("q?", None, _context(("e", 0.9)), backend, no_deadline,
                            (), GENERATION) == "grounded"
        assert generate_direct("q?", None, backend, no_deadline, (), GENERATION) == "prior"

    def test_backend_timeout_propagates(self):
        backend = tap(scripted_model(), lambda call: STALL)
        with pytest.raises(BackendTimeout):
            generate_direct("q?", None, backend, Deadline.after_ms(1), (), GENERATION)

    def test_exactly_one_backend_call_each(self, no_deadline):
        backend = tap(scripted_model({"role": Role.GENERATOR, "match": "", "response": "a"}))
        generate_rag("q?", None, _context(), backend, no_deadline, (), GENERATION)
        generate_direct("q?", None, backend, no_deadline, (), GENERATION)
        assert [call.role.value for call in backend.calls] == ["generator", "generator"]


class TestConsistencyPrompt:
    def test_empty_context_fallback_string(self):
        request = consistency_request(_context(), "q?", "a", "a2")
        assert "No text context." in request.user
        assert (request.role, request.image_ref) == (Role.CONSISTENCY_JUDGE, "img-1")
        assert request.max_tokens == MAX_TOKENS[Role.CONSISTENCY_JUDGE]

    def test_rendered_context_embedded(self):
        request = consistency_request(_context(("evidence", 0.9)), "q?", "a", "a2")
        assert "[Info 1] evidence" in request.user

    def test_multiline_answers_embedded_verbatim(self):
        request = consistency_request(_context(), "q?", "line1\nline2", "other")
        assert "line1\nline2" in request.user


class TestParseYesNo:
    def test_yes(self):
        assert parse_yes_no("yes") is True

    def test_no_with_punctuation(self):
        assert parse_yes_no("No.") is False

    def test_prose_raises(self):
        with pytest.raises(ReplyParseError):
            parse_yes_no("The answers are consistent")

    def test_leading_whitespace_tolerated(self):
        assert parse_yes_no("  Yes, they are.") is True

    @given(st.text(max_size=200))
    def test_bool_or_reply_parse_error(self, text):
        try:
            verdict = parse_yes_no(text)
        except ReplyParseError:
            return
        assert verdict in (True, False)


class TestCheckConsistency:
    def test_identical_answers_consistent_under_honest_judge(self, no_deadline):
        pair = AnswerPair(rag_answer="a kettle", direct_answer="a kettle")
        checked = check_consistency("q?", None, _context(), pair,
                                    tap(None, honest_verdict), no_deadline, CONSISTENCY)
        assert checked.consistent is True

    def test_different_answers_inconsistent_under_honest_judge(self, no_deadline):
        pair = AnswerPair(rag_answer="a kettle", direct_answer="a toaster")
        checked = check_consistency("q?", None, _context(), pair,
                                    tap(None, honest_verdict), no_deadline, CONSISTENCY)
        assert checked.consistent is False

    def test_verdict_stored_without_mutating_answers(self, no_deadline):
        pair = AnswerPair(rag_answer="x", direct_answer="x")
        checked = check_consistency("q?", None, _context(), pair,
                                    tap(None, honest_verdict), no_deadline, CONSISTENCY)
        assert (checked.rag_answer, checked.direct_answer) == ("x", "x")
        assert pair.consistent is None
