"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import random
import re
import statistics
import time
from contextlib import contextmanager

import pytest

from ragvet.cli import load_dataset
from ragvet.core import (
    Conversation,
    PipelineConfig,
    QueryTurn,
    ReplyParseError,
    read_jsonl,
)
from ragvet.evaluation import Label, aggregate
from ragvet.finalizer import finalize
from ragvet.generation import parse_yes_no
from ragvet.pipeline import run_conversation
from ragvet.retrieval import dynamic_threshold
from ragvet.router import parse_routing_response
from ragvet.templates import load_all
from ragvet.verification import parse_cov_response

from conftest import FIXTURES, STALL, make_backends, mock_report, run_cli


@contextmanager
def criterion(number, name, limit_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= limit_s:
        print(f"\nACCEPTANCE {number} {name}: FAIL (runtime {elapsed:.2f}s >= {limit_s}s)")
        pytest.fail(f"criterion {number} runtime {elapsed:.2f}s exceeds {limit_s}s")
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 1. Metric identities over the frozen reference table

TABLE_ROWS = [
    # (perfect, missing, incorrect, accuracy%, missing%, hallucination%, truthfulness%)
    (26, 16, 62, 25.00, 15.38, 59.62, -34.62),
    (29, 10, 65, 27.88, 9.62, 62.50, -34.62),
    (4, 99, 1, 3.85, 95.19, 0.96, 2.88),
    (5, 99, 0, 4.81, 95.19, 0.00, 4.81),
    (15, 86, 3, 14.42, 82.69, 2.88, 11.54),
]


def _population_sizes_fitting_table(max_n=1000, tol=0.005 + 1e-9):
    """Brute-force search: which n admit integer counts reproducing every
    percentage of the table within display rounding."""

    def row_fits(n, acc, miss, hall, truth):
        perfect = round(acc * n / 100)
        missing = round(miss * n / 100)
        incorrect = round(hall * n / 100)
        if min(perfect, missing, incorrect) < 0 or perfect + missing + incorrect != n:
            return False
        pairs = ((perfect, acc), (missing, miss), (incorrect, hall), (perfect - incorrect, truth))
        return all(abs(100 * k / n - v) <= tol for k, v in pairs)

    return [
        n for n in range(1, max_n + 1)
        if all(row_fits(n, *row[3:]) for row in TABLE_ROWS)
    ]


def test_criterion_1_metric_identities():
    with criterion(1, "table metric identities", 1.0):
        fitting = _population_sizes_fitting_table()
        assert fitting, "no population size fits the reference table"
        assert min(fitting) == 104
        for perfect, missing, incorrect, acc, miss, hall, truth in TABLE_ROWS:
            labels = (
                [Label.PERFECT] * perfect
                + [Label.MISSING] * missing
                + [Label.INCORRECT] * incorrect
            )
            report = aggregate(labels)
            assert report.n == 104
            assert abs(report.accuracy * 100 - acc) <= 0.02
            assert abs(report.missing_rate * 100 - miss) <= 0.02
            assert abs(report.hallucination_rate * 100 - hall) <= 0.02
            assert abs(report.truthfulness * 100 - truth) <= 0.02
            identity_gap = report.truthfulness - (report.accuracy - report.hallucination_rate)
            assert abs(identity_gap * 100) <= 0.02


# --------------------------------------------------------------------------
# 2. Dynamic threshold vs a definitional brute-force oracle


def _oracle_threshold(scores, tau, lam):
    if not scores:
        return tau
    top = sorted(scores)[-10:]
    center = statistics.median(top)
    spread = statistics.median(sorted(abs(v - center) for v in top))
    return max(tau, center - lam * spread)


def test_criterion_2_mad_threshold_oracle():
    with criterion(2, "MAD threshold oracle", 5.0):
        rng = random.Random(20250807)
        for _ in range(1000):
            scores = [rng.random() for _ in range(rng.randint(1, 25))]
            ours = dynamic_threshold(scores, 0.1, 1.5)
            assert abs(ours - _oracle_threshold(scores, 0.1, 1.5)) <= 1e-12
            assert ours >= 0.1
        assert dynamic_threshold([0.9] * 10, 0.1, 1.5) == 0.9
        assert dynamic_threshold([0.05] * 10, 0.1, 1.5) == 0.1
        spread_case = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1]
        assert dynamic_threshold(spread_case, 0.1, 1.5) == 0.1


# --------------------------------------------------------------------------
# 3. Finalization decision table, output range, monotonicity


def test_criterion_3_finalize_exhaustive_table():
    with criterion(3, "finalize decision table", 1.0):
        cfg = PipelineConfig()
        table = json.loads((FIXTURES / "finalize_table.json").read_text(encoding="utf-8"))
        assert len(table) >= 64
        for row in table:
            decision = finalize(
                is_real_time=bool(row["is_real_time"]),
                s_ret=row["s_ret"],
                context_empty=bool(row["context_empty"]),
                consistent=bool(row["consistent"]),
                s_cov=row["s_cov"],
                rag_answer="grounded",
                cfg=cfg,
            )
            assert decision.branch.value == row["branch"], row
            assert decision.abstained == bool(row["abstained"]), row
            assert decision.answer in ("grounded", cfg.abstain_text)

        rng = random.Random(3)
        for _ in range(10_000):
            fixed = (rng.random() < 0.5, rng.random(), rng.random() < 0.5, rng.random() < 0.5)
            low, high = sorted((rng.random(), rng.random()))
            at_low = finalize(*fixed, low, "grounded", cfg)
            at_high = finalize(*fixed, high, "grounded", cfg)
            assert not (not at_low.abstained and at_high.abstained)
            assert at_low.answer in ("grounded", cfg.abstain_text)


# --------------------------------------------------------------------------
# 4. Parser totality and round-trip

_CONFIDENCE_OK = re.compile(r"^CONFIDENCE:.*?[-+]?\d*\.?\d+", re.MULTILINE)


def _well_formed_cov(rng):
    confidence = round(rng.random(), 2)
    n_subs = rng.randint(1, 3)
    subs = ", ".join(
        f"Q{i + 1}: sub question {i + 1}?, Finding: "
        f"{'Supported' if rng.random() < 0.5 else 'Unsupported'}"
        for i in range(n_subs)
    )
    text = (
        f"CONFIDENCE: {confidence!r}\n"
        f"REASONING: generated reasoning {rng.randint(0, 999)}.\n"
        f"SUB-QUESTIONS: {subs}"
    )
    return text, confidence, n_subs


def _fuzz(rng, text):
    mutation = rng.randint(0, 5)
    if mutation == 0:
        return text[: rng.randint(0, len(text))]  # truncation
    if mutation == 1:
        return text.replace("CONFIDENCE", "confidence", 1)
    if mutation == 2:
        position = rng.randint(0, len(text))
        return text[:position] + rng.choice(["@@", "\n\n", "yes", "CONFIDENCE"]) + text[position:]
    if mutation == 3:
        return "".join(c for c in text if rng.random() > 0.1)
    if mutation == 4:
        return rng.choice(["", "null", "I think it's fine.", "yes no maybe", "\n\n\n"])
    lines = text.split("\n")
    rng.shuffle(lines)
    return "\n".join(lines)


def test_criterion_4_parser_totality_and_round_trip():
    with criterion(4, "parser totality and round-trip", 5.0):
        rng = random.Random(41)
        for _ in range(100):
            text, confidence, n_subs = _well_formed_cov(rng)
            result = parse_cov_response(text)
            assert result.confidence == confidence
            assert len(result.sub_questions) == n_subs

        corpus = []
        for _ in range(100):
            base, _, _ = _well_formed_cov(rng)
            corpus.append(_fuzz(rng, base))
        for text in corpus:
            # Each parser yields an in-range value or raises ReplyParseError,
            # and a reply without a numeric CONFIDENCE: line must raise.
            if not _CONFIDENCE_OK.search(text):
                with pytest.raises(ReplyParseError):
                    parse_cov_response(text)
            for parse, admits in (
                (parse_cov_response, lambda result: 0.0 <= result.confidence <= 1.0),
                (parse_routing_response, lambda routing: routing.needs_external in (True, False)
                 and routing.is_real_time in (True, False)),
                (parse_yes_no, lambda verdict: verdict in (True, False)),
            ):
                try:
                    result = parse(text)
                except ReplyParseError:
                    continue
                assert admits(result), (parse.__name__, text)


# --------------------------------------------------------------------------
# 5 & 7. End-to-end determinism and context construction invariants

E2E_EXPECTED = json.loads((FIXTURES / "e2e_expected.json").read_text(encoding="utf-8"))

ALL_BRANCHES = {
    "RealTimeLowRetrieval", "ConsistentWithContext", "ConsistentNoContext",
    "InconsistentWithContext", "DefaultAbstain",
}


def test_criterion_5_end_to_end_determinism(tmp_path):
    with criterion(5, "end-to-end determinism", 30.0):
        dataset = load_dataset(FIXTURES / "e2e_dataset.jsonl")
        assert len(dataset) >= 20
        assert any(len(c.turns) > 1 for c in dataset)
        assert any(len(c.turns) == 1 for c in dataset)

        first = run_cli(tmp_path, out="first.jsonl")
        second = run_cli(tmp_path, out="second.jsonl")
        third = run_cli(tmp_path, workers=4, out="third.jsonl")
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == third.read_bytes()

        records = [record for _, record in read_jsonl(first, ValueError)]
        assert len(records) == sum(len(c.turns) for c in dataset)
        seen_branches = {record["final"]["branch"] for record in records}
        assert seen_branches == ALL_BRANCHES
        for record in records:
            key = f"{record['conversation_id']}:{record['turn_index']}"
            assert record["final"]["branch"] == E2E_EXPECTED[key]["branch"], key


def test_criterion_7_context_construction_invariants(tmp_path):
    with criterion(7, "context construction invariants", 30.0):
        records = [record for _, record in read_jsonl(run_cli(tmp_path), ValueError)]
        skipped_seen = 0
        for record in records:
            context = record["context"]
            entries = context["entries"]
            assert len(entries) <= 3
            for entry in entries:
                assert entry["score"] >= context["threshold_used"]
            assert context["rendered"] == "\n".join(
                f"[Info {number}] {entry['text']}" for number, entry in enumerate(entries, 1))
            if record["routing"] and record["routing"]["needs_external"] == 0:
                skipped_seen += 1
                assert "retrieval_skipped" in record["flags"]
                assert entries == []
                for stage in ("summarize", "recall", "rerank"):
                    assert stage not in record["stages"]
        assert skipped_seen > 0


# --------------------------------------------------------------------------
# 6. Deadline behavior with a pathologically slow generator


def test_criterion_6_deadline_behavior():
    with criterion(6, "turn deadline enforcement", 60.0):
        entries = [{"role": "router", "match": "slowq",
                    "response": "1. Needs External Info: no\n2. Is Real-Time: no"}]
        # Every generator call outlasts its deadline on the real clock.
        backends = make_backends(
            entries, answer=lambda call: STALL if call.name in ("rag", "direct") else None)
        cfg = PipelineConfig(mode="task2plus", turn_budget_ms=10_000)
        templates = load_all(cfg.prompt_paths)
        for i in range(4):
            conversation = Conversation(
                conversation_id=f"slow{i}", image_ref=None,
                turns=(QueryTurn(conversation_id=f"slow{i}", turn_index=0,
                                 query=f"slowq{i} question"),),
            )
            started = time.perf_counter()
            outcome = run_conversation(conversation, cfg, backends, templates)[0]
            elapsed = time.perf_counter() - started
            assert outcome.final.abstained
            assert outcome.final.answer == cfg.abstain_text
            assert "generation_timeout" in outcome.flags
            assert elapsed <= 10.5, f"turn {i} took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# 8. Ablation direction check


def test_criterion_8_ablation_directions(tmp_path):
    with criterion(8, "ablation direction check", 30.0):
        full, no_cov, rag_naive = (mock_report(tmp_path, "ablation", "task2plus", variant)
                                   for variant in ("full", "no_cov", "rag_naive"))
        assert full["truthfulness"] > no_cov["truthfulness"]
        assert rag_naive["hallucination_rate"] > full["hallucination_rate"]

        # Task 1 over the image KG: each component the paper adds raises
        # truthfulness, from the vision-only answer up to the full pipeline.
        order = ("full", "rag_naive", "no_cov", "no_cov_no_sc", "vision_only")
        truthfulness = [mock_report(tmp_path, "kg", "task1", variant)["truthfulness"]
                        for variant in order]
        assert truthfulness == pytest.approx([5 / 14, 3 / 14, 1 / 14, -1 / 7, -4 / 7])
        assert all(higher > lower for higher, lower in zip(truthfulness, truthfulness[1:]))
