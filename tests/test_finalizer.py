"""Finalization rules: worked examples, the committed decision table,
and the never-return-the-direct-answer guarantee."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from ragvet.core import PipelineConfig
from ragvet.finalizer import Branch, FinalDecision, finalize, settled

from conftest import FIXTURES

CFG = PipelineConfig()

RAG = "the grounded answer"


def run(is_real_time, s_ret, context_empty, consistent, s_cov, cfg=CFG):
    return finalize(
        is_real_time=is_real_time,
        s_ret=s_ret,
        context_empty=context_empty,
        consistent=consistent,
        s_cov=s_cov,
        rag_answer=RAG,
        cfg=cfg,
    )


class TestWorkedExamples:
    def test_real_time_weak_retrieval_abstains_first(self):
        decision = run(True, 0.2, False, True, 1.0)
        assert decision.branch is Branch.REAL_TIME_LOW_RETRIEVAL
        assert decision.answer == "I don't know"
        assert decision.abstained

    def test_context_consistent_confident_accepts(self):
        decision = run(False, 0.9, False, True, 0.95)
        assert decision.branch is Branch.CONSISTENT_WITH_CONTEXT
        assert decision.answer == RAG

    def test_no_context_below_high_bar_abstains_via_else(self):
        decision = run(False, 0.0, True, True, 0.95)
        assert decision.branch is Branch.DEFAULT_ABSTAIN
        assert decision.answer == "I don't know"

    def test_no_context_full_confidence_accepts(self):
        decision = run(False, 0.0, True, True, 1.0)
        assert decision.branch is Branch.CONSISTENT_NO_CONTEXT
        assert decision.answer == RAG

    def test_inconsistent_with_context_abstains_regardless_of_confidence(self):
        decision = run(False, 0.9, False, False, 1.0)
        assert decision.branch is Branch.INCONSISTENT_WITH_CONTEXT
        assert decision.abstained


def test_matches_committed_decision_table():
    table = json.loads((FIXTURES / "finalize_table.json").read_text(encoding="utf-8"))
    assert len(table) >= 64
    for row in table:
        decision = run(
            bool(row["is_real_time"]),
            row["s_ret"],
            bool(row["context_empty"]),
            bool(row["consistent"]),
            row["s_cov"],
        )
        assert decision.branch.value == row["branch"], row
        assert decision.abstained == bool(row["abstained"]), row


def test_output_is_only_rag_answer_or_abstention():
    rng = random.Random(11)
    for _ in range(2000):
        decision = run(
            rng.random() < 0.5, rng.random(), rng.random() < 0.5,
            rng.random() < 0.5, rng.random(),
        )
        assert decision.answer in (RAG, CFG.abstain_text)


def test_monotone_in_verifier_confidence():
    rng = random.Random(13)
    for _ in range(10_000):
        fixed = (rng.random() < 0.5, rng.random(), rng.random() < 0.5, rng.random() < 0.5)
        low_cov, high_cov = sorted((rng.random(), rng.random()))
        lower = run(*fixed, low_cov)
        higher = run(*fixed, high_cov)
        assert not (not lower.abstained and higher.abstained)


def test_abstention_string_is_configurable():
    cfg = PipelineConfig(abstain_text="No comment.")
    decision = run(False, 0.0, True, False, 0.0, cfg=cfg)
    assert decision.answer == "No comment."


@pytest.mark.parametrize("branch", list(Branch))
def test_abstained_is_derived_from_the_branch(branch):
    decision = FinalDecision(answer="x", branch=branch)
    accepts = branch in (Branch.CONSISTENT_WITH_CONTEXT, Branch.CONSISTENT_NO_CONTEXT)
    assert decision.abstained is not accepts
    assert decision.to_dict() == {"answer": "x", "branch": branch.value, "abstained": not accepts}


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def valid_configs(draw):
    low, high = sorted((draw(unit), draw(unit)))
    return PipelineConfig(
        min_retrieval_score=draw(unit), low_confidence=low, high_confidence=high
    )


@given(
    cfg=valid_configs(),
    is_real_time=st.booleans(),
    s_ret=unit,
    context_empty=st.booleans(),
    consistent=st.none() | st.booleans(),
    s_covs=st.lists(unit, min_size=1, max_size=8),
)
def test_settled_branch_holds_for_every_pending_value(
    cfg, is_real_time, s_ret, context_empty, consistent, s_covs
):
    rag_answer = None if consistent is None else RAG
    decision = settled(cfg, is_real_time, s_ret, context_empty, consistent, rag_answer)
    if decision is None:
        return
    thresholds = [0.0, 1.0, cfg.low_confidence, cfg.high_confidence]
    for agree in (False, True) if consistent is None else (consistent,):
        for s_cov in s_covs + thresholds:
            full = finalize(is_real_time, s_ret, context_empty, agree, s_cov, RAG, cfg)
            assert full.branch is decision.branch
            assert full.abstained == decision.abstained


class TestSettled:
    def test_real_time_weak_retrieval_is_settled_before_generation(self):
        decision = settled(CFG, True, s_ret=0.2, context_empty=False)
        assert decision == run(True, 0.2, False, True, 1.0)

    def test_strong_retrieval_is_not_settled_before_generation(self):
        assert settled(CFG, True, s_ret=0.9, context_empty=False) is None
        assert settled(CFG, False, s_ret=0.0, context_empty=True) is None

    def test_inconsistent_turns_are_settled_before_verification(self):
        with_context = settled(CFG, False, 0.9, False, consistent=False, rag_answer=RAG)
        assert with_context.branch is Branch.INCONSISTENT_WITH_CONTEXT
        without = settled(CFG, False, 0.0, True, consistent=False, rag_answer=RAG)
        assert without.branch is Branch.DEFAULT_ABSTAIN

    def test_consistent_turns_wait_for_verification(self):
        assert settled(CFG, False, 0.9, False, consistent=True, rag_answer=RAG) is None
        assert settled(CFG, False, 0.0, True, consistent=True, rag_answer=RAG) is None

    def test_an_answer_is_never_settled_before_it_exists(self):
        cfg = PipelineConfig(low_confidence=0.0)
        assert settled(cfg, False, 0.9, False, consistent=True, rag_answer=None) is None
        accepted = settled(cfg, False, 0.9, False, consistent=True, rag_answer=RAG)
        assert accepted == run(False, 0.9, False, True, 0.0, cfg=cfg)
