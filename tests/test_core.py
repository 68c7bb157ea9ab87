"""Domain type invariants, config validation, and the config round-trip."""

import json

import pytest

from ragvet.core import (
    AnswerPair,
    Conversation,
    InvalidConfigError,
    MAX_CONTEXT_ENTRIES,
    PipelineConfig,
    QueryTurn,
    RagContext,
    RetrievedItem,
    RoutingDecision,
    Source,
    VerificationResult,
    parse_context_tags,
    validate_config,
)

from conftest import chunk


class TestConstructionRejection:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            QueryTurn(conversation_id="c", turn_index=0, query="   ")

    def test_negative_turn_index_rejected(self):
        with pytest.raises(ValueError):
            QueryTurn(conversation_id="c", turn_index=-1, query="q")

    def test_routing_flags_must_be_binary(self):
        with pytest.raises(ValueError):
            RoutingDecision(needs_external=2, is_real_time=0)

    def test_kg_item_needs_a_content_field(self):
        with pytest.raises(ValueError):
            RetrievedItem(source=Source.KG_IMAGE, fields={"caption": ""}, recall_rank=1)

    def test_web_item_needs_snippet(self):
        with pytest.raises(ValueError):
            RetrievedItem(source=Source.WEB, fields={"title": "t"}, recall_rank=1)

    def test_recall_rank_positive(self):
        with pytest.raises(ValueError):
            RetrievedItem(source=Source.WEB, fields={"snippet": "s"}, recall_rank=0)

    def test_chunk_rejects_newline(self):
        with pytest.raises(ValueError):
            chunk("a\nb", 0.5)

    def test_chunk_rejects_out_of_range_score(self):
        with pytest.raises(ValueError):
            chunk("a", 1.5)

    def test_answer_pair_rejects_empty(self):
        with pytest.raises(ValueError):
            AnswerPair(rag_answer="", direct_answer="x")

    def test_verification_rejects_bare_positive_confidence(self):
        with pytest.raises(ValueError):
            VerificationResult(confidence=0.5, reasoning="", sub_questions=())

    def test_verification_zero_confidence_may_be_bare(self):
        result = VerificationResult(confidence=0.0)
        assert result.reasoning == ""

    def test_turn_indices_must_be_contiguous(self):
        turns = (
            QueryTurn(conversation_id="c", turn_index=0, query="a"),
            QueryTurn(conversation_id="c", turn_index=2, query="b"),
        )
        with pytest.raises(ValueError):
            Conversation(conversation_id="c", image_ref=None, turns=turns)


class TestConversationFromDict:
    def test_image_belongs_to_the_conversation_and_extra_keys_are_ignored(self):
        conversation = Conversation.from_dict({
            "conversation_id": "c", "image_ref": "img-1", "domain": "food",
            "query_type": "simple", "turns": [{"query": "a"}, {"query": "b"}],
        })
        assert conversation.image_ref == "img-1"
        assert [turn.query for turn in conversation.turns] == ["a", "b"]
        assert not hasattr(conversation, "domain")
        assert not hasattr(conversation.turns[0], "image_ref")


class TestRagContext:
    def test_entries_capped_at_three(self):
        chunks = [chunk(f"t{i}", 0.9) for i in range(4)]
        with pytest.raises(ValueError):
            RagContext(entries=tuple(chunks), threshold_used=0.1)

    def test_entry_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            RagContext(entries=(chunk("t", 0.3),), threshold_used=0.5)

    def test_tags_parse_back(self):
        parsed = parse_context_tags("[Info 1] a\n[Info 2] b")
        assert parsed == [(1, "a"), (2, "b")]

    def test_untagged_line_rejected(self):
        with pytest.raises(ValueError):
            parse_context_tags("[Info 1] a\nstray line")


class TestValidateConfig:
    def test_defaults_accepted(self):
        cfg = PipelineConfig()
        assert validate_config(cfg) is cfg

    def test_confidence_ordering_violation(self):
        cfg = PipelineConfig(low_confidence=1.0, high_confidence=0.9)
        with pytest.raises(InvalidConfigError, match="low_confidence <= high_confidence"):
            validate_config(cfg)

    def test_rerank_k_bounded_by_recall_k(self):
        cfg = PipelineConfig(rerank_k=11, recall_k=10)
        with pytest.raises(InvalidConfigError, match="rerank_k <= recall_k"):
            validate_config(cfg)

    def test_rerank_k_bounded_by_context_size(self):
        cfg = PipelineConfig(rerank_k=MAX_CONTEXT_ENTRIES)
        assert validate_config(cfg) is cfg
        cfg = PipelineConfig(rerank_k=MAX_CONTEXT_ENTRIES + 1)
        with pytest.raises(InvalidConfigError, match=f"rerank_k <= {MAX_CONTEXT_ENTRIES}"):
            validate_config(cfg)

    def test_abstain_margin_bounded_by_budget(self):
        cfg = PipelineConfig(abstain_margin_ms=10_000, turn_budget_ms=10_000)
        with pytest.raises(InvalidConfigError, match="abstain_margin_ms < turn_budget_ms"):
            validate_config(cfg)

    @pytest.mark.parametrize("token", ["tok\u2713", "a\r\nX-Evil: 1", "two words"])
    def test_bearer_token_outside_visible_ascii_rejected_unechoed(self, token):
        with pytest.raises(InvalidConfigError, match="bearer_token") as caught:
            validate_config(PipelineConfig(bearer_token=token))
        assert token not in str(caught.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"rerank_top_k": 3})

    def test_non_mapping_rejected(self):
        with pytest.raises(InvalidConfigError, match="JSON object"):
            PipelineConfig.from_dict([1, 2])


@pytest.mark.parametrize(
    "instance", [PipelineConfig(mode="task2plus", prompt_paths={"routing": "x.txt"})],
    ids=lambda x: type(x).__name__,
)
def test_round_trip_identity(instance):
    data = json.loads(json.dumps(instance.to_dict()))
    assert type(instance).from_dict(data) == instance
