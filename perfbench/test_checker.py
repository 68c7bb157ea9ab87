"""Tests of the output checker (right outcomes pass, deliberately wrong ones are
rejected) and of the tracer's handling of a layer name that no longer exists.

    python3 -m pytest perfbench/test_checker.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

import workloads
from checker import (
    BAD_FLAG, Expected, check_plan, check_record, cutoff, expected_turn, index_plan,
    plan_truthfulness,
)
from workloads import ABSTAIN_TEXT, CWC, IWC, RTLR, WORKLOADS, build_plan

ROOT = Path(__file__).resolve().parent.parent


def record_for(plan: dict, uid: str, exp: Expected) -> dict:
    """A trace record exactly as a correct pipeline would write it."""
    turn = plan["turns"][uid]
    entries = [{"text": text, "parent": {}, "score": score} for text, score in exp.entries]
    stages = ["route"] + ([] if exp.skipped else ["summarize", "recall", "rerank"])
    return {
        "conversation_id": turn["cid"],
        "turn_index": turn["index"],
        "query": turn["query"],
        "routing": {"needs_external": int(turn["needs_external"]),
                    "is_real_time": int(turn["is_real_time"])},
        "stages": stages + ["generate", "consistency", "verify"],
        "flags": ["retrieval_skipped"] if exp.skipped else [],
        "context": {"entries": entries, "rendered": exp.rendered,
                    "threshold_used": exp.threshold, "retrieval_score": exp.s_ret},
        "final": {"answer": exp.answer, "branch": exp.branch,
                  "abstained": exp.answer == ABSTAIN_TEXT},
    }


@pytest.fixture(scope="module")
def web_plan() -> dict:
    return index_plan(build_plan("web_rag_remote", 7))


def first_turn(plan: dict, branch: str) -> str:
    return next(uid for uid in plan["turns"] if expected_turn(plan, uid).branch == branch)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generated_plans_keep_their_promises(name):
    assert check_plan(index_plan(build_plan(name, 3))) == []


def test_right_records_pass(web_plan):
    for uid in web_plan["turns"]:
        record = record_for(web_plan, uid, expected_turn(web_plan, uid))
        assert check_record(web_plan, record, 50.0, 10_000) == []


def test_swapped_branch_is_rejected(web_plan):
    uid = first_turn(web_plan, CWC)
    record = record_for(web_plan, uid, expected_turn(web_plan, uid))
    record["final"]["branch"] = IWC
    assert any("branch" in p for p in check_record(web_plan, record, 50.0, 10_000))


def test_entry_below_cutoff_is_rejected(web_plan):
    uid = first_turn(web_plan, CWC)
    exp = expected_turn(web_plan, uid)
    assert len(exp.entries) == 3
    weak = ("w0001 w0002 w0003", exp.threshold / 2)
    padded = dataclasses.replace(exp, entries=exp.entries[:2] + (weak,))
    problems = check_record(web_plan, record_for(web_plan, uid, padded), 50.0, 10_000)
    assert any("context" in p for p in problems)


def test_direct_answer_leaked_as_final_is_rejected(web_plan):
    uid = first_turn(web_plan, CWC)
    record = record_for(web_plan, uid, expected_turn(web_plan, uid))
    record["final"]["answer"] = web_plan["turns"][uid]["direct"]
    assert any("final answer" in p for p in check_record(web_plan, record, 50.0, 10_000))


def test_abstention_where_an_answer_is_due_is_rejected(web_plan):
    uid = first_turn(web_plan, CWC)
    record = record_for(web_plan, uid, expected_turn(web_plan, uid))
    record["final"] = {"answer": ABSTAIN_TEXT, "branch": RTLR, "abstained": True}
    assert len(check_record(web_plan, record, 50.0, 10_000)) >= 2


def test_degradation_flags_late_turns_and_stray_stages_are_rejected(web_plan):
    uid = first_turn(web_plan, CWC)
    good = record_for(web_plan, uid, expected_turn(web_plan, uid))
    flagged = copy.deepcopy(good)
    flagged["flags"] = ["rerank_backend_error"]
    assert check_record(web_plan, flagged, 50.0, 10_000)
    assert check_record(web_plan, good, 10_400.0, 10_000)
    skipped = next(u for u in web_plan["turns"] if expected_turn(web_plan, u).skipped)
    stray = record_for(web_plan, skipped, expected_turn(web_plan, skipped))
    stray["stages"].insert(1, "recall")
    assert check_record(web_plan, stray, 50.0, 10_000)


def test_stage_list_changes_alone_still_pass(web_plan):
    """A change that skips stages whose result cannot alter the branch stays correct."""
    uid = first_turn(web_plan, RTLR)
    record = record_for(web_plan, uid, expected_turn(web_plan, uid))
    record["stages"] = [s for s in record["stages"] if s not in ("generate", "consistency", "verify")]
    record["answers"] = record["verification"] = None
    assert check_record(web_plan, record, 50.0, 10_000) == []


def test_bad_flag_pattern():
    assert all(BAD_FLAG.search(f) for f in ("generation_timeout", "cov_backend_error",
                                            "router_parse_failure", "budget_exhausted"))
    assert not BAD_FLAG.search("retrieval_skipped")


def test_cutoff_formula():
    assert cutoff([]) == 0.1
    # top10 of these: median 0.5, MAD 0.1 -> 0.35
    scores = [0.9, 0.6, 0.6, 0.5, 0.5, 0.5, 0.5, 0.4, 0.4, 0.3, 0.0]
    assert cutoff(scores) == pytest.approx(0.35)
    assert cutoff([0.05, 0.02]) == 0.1


def test_plan_truthfulness_counts_accepted_answers_by_truth_kind(web_plan):
    uids = list(web_plan["turns"])
    accepted = [u for u in uids if expected_turn(web_plan, u).answer != ABSTAIN_TEXT]
    values = {"perfect": 1.0, "acceptable": 0.5, "incorrect": -1.0}
    want = sum(values[web_plan["turns"][u]["truth_kind"]] for u in accepted) / len(uids)
    assert plan_truthfulness(web_plan, uids) == pytest.approx(want)


def test_checker_agrees_with_the_program_on_a_stub_run(tmp_path, monkeypatch):
    """Every record the program writes against the stub, for one small web pass, passes."""
    sys.path.insert(0, str(ROOT / "src"))
    from ragvet.cli import build_backends, load_config, load_dataset
    from ragvet.pipeline import run_conversation

    import run

    small = dataclasses.replace(workloads.SHAPES["web_rag_remote"], units=1)
    monkeypatch.setitem(workloads.SHAPES, "web_rag_remote", small)
    plan, stub, _ = run.prepare("web_rag_remote", 5, tmp_path)
    try:
        cfg = load_config(str(tmp_path / "config.json"))
        backends, _ = build_backends(cfg, mock=False)
        records = [outcome.to_record()
                   for conv in load_dataset(tmp_path / "dataset.jsonl")
                   for outcome in run_conversation(conv, cfg, backends)]
    finally:
        run.stop(stub)
    assert len(records) == len(plan["turns"]) == 20
    for record in records:
        assert check_record(plan, record, 50.0, 10_000) == []


def test_tracer_lists_a_removed_layer_as_not_traced(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import ragvet.pipeline

    from tracing import Tracer

    original_route = ragvet.pipeline.route
    monkeypatch.delattr(ragvet.pipeline, "verify")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.not_traced == ["verification.verify"]
        assert ragvet.pipeline.route is not original_route
    finally:
        tracer.uninstall()
    assert ragvet.pipeline.route is original_route


def test_metrics_of_an_untraced_layer_are_left_out():
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.not_traced = ["verification.verify", "backends.vlm"]
    out = layer_metrics(tracer, {0: {"branch": CWC, "entries": 1}}, {}, 0.0)
    assert "verification.verify.ms_per_turn" not in out
    assert "backends.generator.calls_per_turn" not in out
    assert "pipeline.serial_wait_ms_per_turn" not in out
    assert out["router.route.ms_per_turn"] == 0.0
