"""Verification prompt contents and response parsing."""

import pytest
from hypothesis import given, strategies as st

from ragvet.backends import MAX_TOKENS, Role
from ragvet.core import Finding, ReplyParseError
from ragvet.retrieval import build_context
from ragvet.templates import default_template
from ragvet.verification import parse_cov_response, verify

from conftest import CountingModel, chunk, day_deadline, scripted_model

COV = default_template("cov")
COV_REPLY = "CONFIDENCE: 1.0\nREASONING: supported by [Info 1]."


def _context(*texts_scores):
    kept = [chunk(text, score) for text, score in texts_scores]
    return build_context(kept, 0.1)


def cov_request(context, query, answer):
    """The request ``verify`` sends."""
    model = CountingModel(scripted_model({"role": Role.VERIFIER, "response": COV_REPLY}))
    verify(query, "img-1", context, answer, model, day_deadline(), COV)
    [request] = model.requests
    return request


class TestBuildCovPrompt:
    def test_empty_context_fallback_string(self):
        request = cov_request(_context(), "q?", "answer")
        assert "No text context provided." in request.user
        assert (request.role, request.image_ref) == (Role.VERIFIER, "img-1")
        assert request.max_tokens == MAX_TOKENS[Role.VERIFIER]

    def test_both_phase_headings_present(self):
        user = cov_request(_context(("e", 0.9)), "q?", "answer").user
        assert "Phase 1: Holistic Check" in user
        assert "Phase 2: Decompositional Check" in user

    def test_answer_containing_confidence_word_embeds_verbatim(self):
        user = cov_request(_context(), "q?", "my CONFIDENCE: is high").user
        assert "my CONFIDENCE: is high" in user


class TestParseCovResponse:
    def test_well_formed_response(self):
        text = (
            "CONFIDENCE: 0.9\n"
            "REASONING: Matches the label.\n"
            "SUB-QUESTIONS: Q1: Is the brand visible?, Finding: Supported"
        )
        result = parse_cov_response(text)
        assert result.confidence == 0.9
        assert result.reasoning == "Matches the label."
        assert len(result.sub_questions) == 1
        assert result.sub_questions[0].question == "Is the brand visible?"
        assert result.sub_questions[0].finding is Finding.SUPPORTED

    def test_multiple_sub_questions(self):
        text = (
            "CONFIDENCE: 1.0\nREASONING: ok\n"
            "SUB-QUESTIONS: Q1: one?, Finding: Supported, Q2: two?, Finding: Unsupported"
        )
        result = parse_cov_response(text)
        assert [sq.finding for sq in result.sub_questions] == [
            Finding.SUPPORTED, Finding.UNSUPPORTED,
        ]

    def test_out_of_range_clamped(self):
        result = parse_cov_response("CONFIDENCE: 1.7\nREASONING: overshoot")
        assert result.confidence == 1.0
        result = parse_cov_response("CONFIDENCE: -0.3\nREASONING: undershoot")
        assert result.confidence == 0.0

    def test_prose_raises(self):
        with pytest.raises(ReplyParseError):
            parse_cov_response("I think it's fine.")

    def test_confidence_word_mid_line_ignored(self):
        text = "the answer says CONFIDENCE: 0.2 somewhere\nCONFIDENCE: 0.8\nREASONING: anchored"
        assert parse_cov_response(text).confidence == 0.8

    def test_bracketed_confidence_parses(self):
        text = "CONFIDENCE: [0.75]\nREASONING: bracketed"
        assert parse_cov_response(text).confidence == 0.75

    def test_bare_confidence_without_body_raises(self):
        with pytest.raises(ReplyParseError):
            parse_cov_response("CONFIDENCE: 0.9")

    def test_unparsable_number_raises(self):
        with pytest.raises(ReplyParseError):
            parse_cov_response("CONFIDENCE: high\nREASONING: words")

    def test_reasoning_stops_at_sub_questions(self):
        text = "CONFIDENCE: 0.9\nREASONING: first part\nSUB-QUESTIONS: Q1: q?, Finding: Supported"
        assert parse_cov_response(text).reasoning == "first part"

    @given(st.text(max_size=300))
    def test_bounded_or_reply_parse_error(self, text):
        try:
            result = parse_cov_response(text)
        except ReplyParseError:
            return
        assert 0.0 <= result.confidence <= 1.0


@given(
    confidence=st.floats(min_value=0.01, max_value=1.0),
    reasoning=st.text(
        alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
        min_size=1, max_size=60,
    ).filter(lambda s: s.strip()),
    n_subs=st.integers(min_value=0, max_value=4),
)
def test_round_trip_recovers_confidence_and_findings(confidence, reasoning, n_subs):
    subs = ", ".join(
        f"Q{i + 1}: sub question {i + 1}?, Finding: {'Supported' if i % 2 == 0 else 'Unsupported'}"
        for i in range(n_subs)
    )
    text = f"CONFIDENCE: {confidence!r}\nREASONING: {reasoning}\nSUB-QUESTIONS: {subs}"
    result = parse_cov_response(text)
    assert result.confidence == confidence
    assert len(result.sub_questions) == n_subs


class TestVerify:
    def test_composition_with_scripted_backend(self, no_deadline):
        backend = scripted_model(
            {"role": Role.VERIFIER, "match": "Proposed Answer", "response": COV_REPLY}
        )
        result = verify("q?", None, _context(("e", 0.9)), "answer", backend, no_deadline, COV)
        assert result.confidence == 1.0

