"""Scoring protocol: four-level judge labels, rate aggregation, truncation,
and the ablation harness.

The abstention string maps straight to Missing without consulting any judge.
Accuracy counts Perfect plus Acceptable; the truthfulness score weighs
Perfect 1.0, Acceptable 0.5, and Incorrect -1.0, so it equals accuracy minus
hallucination rate exactly when no Acceptable labels occur.

An ablation runs each conversation through ``run_conversation`` with the
pipeline variant of the same name (``pipeline.VARIANTS``), so ablated turns
share the full pipeline's flags, deadlines and early exits, then judges the
final answers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Protocol, Sequence

from .backends import Backends, BackendError, ModelBackend, ModelRequest, Role
from .core import Conversation, PipelineConfig
from .pipeline import VARIANTS, run_conversation
from .runtime import Deadline
from .templates import PromptTemplate

__all__ = [
    "Label",
    "JudgeLabel",
    "MetricsReport",
    "truncate_tokens",
    "MockJudge",
    "PromptedJudge",
    "judge_response",
    "aggregate",
    "ABLATION_MODES",
    "run_ablation",
    "EvalError",
]

DEFAULT_TOKEN_LIMIT = 75

JUDGE_MAX_TOKENS = 16

# The time one PromptedJudge call may take.
_JUDGE_TIMEOUT_MS = 30_000


class EvalError(RuntimeError):
    """Evaluation cannot proceed with integrity."""


class Label(str, Enum):
    PERFECT = "Perfect"
    ACCEPTABLE = "Acceptable"
    MISSING = "Missing"
    INCORRECT = "Incorrect"


_LABEL_VALUES = {
    Label.PERFECT: 1.0,
    Label.ACCEPTABLE: 0.5,
    Label.MISSING: 0.0,
    Label.INCORRECT: -1.0,
}


@dataclass(frozen=True)
class JudgeLabel:
    label: Label
    value: float

    def __post_init__(self) -> None:
        if self.value != _LABEL_VALUES[self.label]:
            raise ValueError(f"{self.label.value} must carry value {_LABEL_VALUES[self.label]}")

    @classmethod
    def of(cls, label: Label) -> "JudgeLabel":
        return cls(label=label, value=_LABEL_VALUES[label])


@dataclass(frozen=True)
class MetricsReport:
    n: int
    counts: dict[Label, int]
    accuracy: float
    missing_rate: float
    hallucination_rate: float
    truthfulness: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "counts": {label.value: self.counts.get(label, 0) for label in Label},
            "accuracy": self.accuracy,
            "missing_rate": self.missing_rate,
            "hallucination_rate": self.hallucination_rate,
            "truthfulness": self.truthfulness,
        }


def truncate_tokens(text: str, n: int) -> str:
    """The first n whitespace-separated tokens of text, joined by single spaces."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return " ".join(text.split()[:n])


class JudgeBackend(Protocol):
    def judge(self, answer: str, ground_truth: str) -> JudgeLabel: ...


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


class MockJudge:
    """Deterministic string judge: exact match is Perfect, containment in
    either direction is Acceptable, anything else is Incorrect."""

    def judge(self, answer: str, ground_truth: str) -> JudgeLabel:
        answer_n = _normalize(answer)
        truth_n = _normalize(ground_truth)
        if not answer_n or not truth_n:
            return JudgeLabel.of(Label.INCORRECT)
        if answer_n == truth_n:
            return JudgeLabel.of(Label.PERFECT)
        if truth_n in answer_n or answer_n in truth_n:
            return JudgeLabel.of(Label.ACCEPTABLE)
        return JudgeLabel.of(Label.INCORRECT)


class PromptedJudge:
    """LLM-backed judge over the ``judge`` template (``prompts/judge.txt``
    unless ``prompt_paths.judge`` overrides it)."""

    def __init__(self, backend: ModelBackend, template: PromptTemplate):
        self._backend = backend
        self._template = template

    def judge(self, answer: str, ground_truth: str) -> JudgeLabel:
        system, user = self._template.build(answer=answer, ground_truth=ground_truth)
        request = ModelRequest(
            role=Role.VERIFIER, system=system, user=user, max_tokens=JUDGE_MAX_TOKENS
        )
        try:
            text = self._backend.complete(request, Deadline.after_ms(_JUDGE_TIMEOUT_MS)).text
        except BackendError as exc:
            raise EvalError(f"judge backend failed: {exc}") from exc
        # Whole words only: "Unacceptable" names no label, "Not perfect: Incorrect" two.
        words = set(re.findall(r"[a-z]+", text.lower()))
        found = [label for label in Label if label.value.lower() in words]
        if len(found) != 1:
            raise EvalError(f"judge reply must name exactly one label: {text!r}")
        return JudgeLabel.of(found[0])


def judge_response(
    final_answer: str,
    ground_truth: str,
    judge_backend: JudgeBackend,
    token_limit: int = DEFAULT_TOKEN_LIMIT,
    abstain_text: str = PipelineConfig.abstain_text,
) -> JudgeLabel:
    """Label one response; an answer equal to ``abstain_text``, both trimmed,
    is Missing without any judge call. ``abstain_text`` defaults to the
    config's default, for callers that score a default-config run."""
    if final_answer.strip() == abstain_text.strip():
        return JudgeLabel.of(Label.MISSING)
    return judge_backend.judge(truncate_tokens(final_answer, token_limit), ground_truth)


def aggregate(labels: Sequence[JudgeLabel]) -> MetricsReport:
    """Fold a completed label list into counts, rates, and truthfulness."""
    if not labels:
        raise ValueError("cannot aggregate an empty label list")
    counts = Counter(item.label for item in labels)
    n = len(labels)
    perfect = counts.get(Label.PERFECT, 0)
    acceptable = counts.get(Label.ACCEPTABLE, 0)
    missing = counts.get(Label.MISSING, 0)
    incorrect = counts.get(Label.INCORRECT, 0)
    return MetricsReport(
        n=n,
        counts=dict(counts),
        accuracy=(perfect + acceptable) / n,
        missing_rate=missing / n,
        hallucination_rate=incorrect / n,
        truthfulness=(perfect * 1.0 + acceptable * 0.5 + incorrect * -1.0) / n,
    )


# ---------------------------------------------------------------------------
# Ablation harness

ABLATION_MODES = tuple(VARIANTS)


def run_ablation(
    mode: str,
    dataset: Sequence[Conversation],
    cfg: PipelineConfig,
    backends: Backends,
    templates: dict[str, PromptTemplate],
    judge: JudgeBackend,
) -> MetricsReport:
    """Score one pipeline variant over the dataset with the given judge."""
    if mode not in ABLATION_MODES:
        raise EvalError(f"unknown ablation mode: {mode!r} (choose from {', '.join(ABLATION_MODES)})")
    labels: list[JudgeLabel] = []
    for conversation in dataset:
        outcomes = run_conversation(conversation, cfg, backends, templates, variant=mode)
        for turn, outcome in zip(conversation.turns, outcomes):
            if turn.ground_truth is None:
                raise EvalError(
                    f"{conversation.conversation_id}/{turn.turn_index}: no ground truth"
                )
            labels.append(
                judge_response(
                    outcome.final.answer, turn.ground_truth, judge,
                    abstain_text=cfg.abstain_text,
                )
            )
    return aggregate(labels)
