"""A task1 run end to end over a knowledge graph that has records.

Image summary -> KG recall -> chunking -> rerank -> MAD cutoff -> ``[Info m]``
context -> dual-path generation -> consistency -> verification, pinned per
turn by ``kg_expected.json``. The set holds a grounded accept, a real-time
turn with weak KG retrieval, an inconsistent turn, an image with no records,
a two-turn conversation whose first turn reaches the second's prompt, and an
image whose records all score below ``score_floor``. The replay script
answers the grounded and the follow-up turns only for prompts that carry
their context and history, and the below-floor turn only for a prompt that
carries the empty-context marker; its verifier's 0.95 would accept with
context but not without, so that turn abstains.
"""

import json

from ragvet.backends import load_fixture
from ragvet.cli import load_dataset
from ragvet.core import PipelineConfig, read_jsonl

from conftest import FIXTURES, run_cli

KG_EXPECTED = json.loads((FIXTURES / "kg_expected.json").read_text(encoding="utf-8"))
# Conversations whose image has records that all score below the floor.
BELOW_FLOOR = {"k06"}


def test_expected_file_holds_every_case():
    branches = {expected["branch"] for expected in KG_EXPECTED.values()}
    assert branches == {"ConsistentWithContext", "RealTimeLowRetrieval",
                        "InconsistentWithContext", "ConsistentNoContext",
                        "DefaultAbstain"}
    assert "k05:1" in KG_EXPECTED  # the follow-up turn
    assert {key.split(":")[0] for key in KG_EXPECTED} >= BELOW_FLOOR


def test_task1_run_over_kg_matches_expected(tmp_path):
    records = [record for _, record in read_jsonl(run_cli(tmp_path, "kg", "task1"), ValueError)]
    got = {
        f"{record['conversation_id']}:{record['turn_index']}": {
            "branch": record["final"]["branch"],
            "flags": record["flags"],
            "answer": record["final"]["answer"],
        }
        for record in records
    }
    assert got == KG_EXPECTED

    image_index = load_fixture(FIXTURES / "kg_search.json").image_index
    images = {conversation.conversation_id: conversation.image_ref
              for conversation in load_dataset(FIXTURES / "kg_dataset.jsonl")}
    for record in records:
        conversation_id = record["conversation_id"]
        has_records = bool(image_index.get(images[conversation_id]))
        kept_any = has_records and conversation_id not in BELOW_FLOOR
        assert bool(record["context"]["entries"]) == kept_any, conversation_id
        assert "recall" in record["stages"]
        if conversation_id in BELOW_FLOOR:
            assert has_records and "rerank" in record["stages"]
            assert record["context"]["threshold_used"] == PipelineConfig().score_floor
