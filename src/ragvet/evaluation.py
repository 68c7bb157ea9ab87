"""Scoring protocol: four-level judge labels, rate aggregation, truncation,
one scoring path for ``eval`` and ``ablate``, and the ablation harness.

The abstention string maps straight to Missing without consulting any judge.
Accuracy counts Perfect plus Acceptable; the truthfulness score weighs
Perfect 1.0, Acceptable 0.5, and Incorrect -1.0 (``_LABEL_VALUES``), so it
equals accuracy minus hallucination rate exactly when no Acceptable labels
occur. ``eval`` scores a trace's answers and ``ablate`` a fresh run's, both
against ``ground_truths`` and through ``score_answers``.

An ablation runs each conversation through ``run_conversation`` with the
pipeline variant of the same name (``pipeline.VARIANTS``), so ablated turns
share the full pipeline's flags, deadlines and early exits.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Protocol, Sequence

from .backends import Backends, BackendError, ModelBackend, Role, ask
from .core import Conversation, PipelineConfig
from .pipeline import VARIANTS, run_conversation
from .runtime import Deadline
from .templates import PromptTemplate

__all__ = [
    "Label",
    "MetricsReport",
    "truncate_tokens",
    "MockJudge",
    "PromptedJudge",
    "judge_response",
    "aggregate",
    "ground_truths",
    "score_answers",
    "ABLATION_MODES",
    "run_ablation",
    "EvalError",
]

DEFAULT_TOKEN_LIMIT = 75

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

    def summary(self) -> str:
        """The four rates on one line, as ``eval`` and ``ablate`` print them."""
        return (f"accuracy {self.accuracy:.4f}, missing {self.missing_rate:.4f}, "
                f"hallucination {self.hallucination_rate:.4f}, "
                f"truthfulness {self.truthfulness:.4f}")


def truncate_tokens(text: str, n: int) -> str:
    """The first n whitespace-separated tokens of text, joined by single spaces."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return " ".join(text.split()[:n])


class JudgeBackend(Protocol):
    def judge(self, answer: str, ground_truth: str) -> Label: ...


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


class MockJudge:
    """Deterministic string judge: exact match is Perfect, containment in
    either direction is Acceptable, anything else is Incorrect."""

    def judge(self, answer: str, ground_truth: str) -> Label:
        answer_n = _normalize(answer)
        truth_n = _normalize(ground_truth)
        if not answer_n or not truth_n:
            return Label.INCORRECT
        if answer_n == truth_n:
            return Label.PERFECT
        if truth_n in answer_n or answer_n in truth_n:
            return Label.ACCEPTABLE
        return Label.INCORRECT


class PromptedJudge:
    """LLM-backed judge over the ``judge`` template (``prompts/judge.txt``
    unless ``prompt_paths.judge`` overrides it), asked as ``Role.JUDGE``."""

    def __init__(self, backend: ModelBackend, template: PromptTemplate):
        self._backend = backend
        self._template = template

    def judge(self, answer: str, ground_truth: str) -> Label:
        try:
            text = ask(self._backend, Role.JUDGE, self._template,
                       Deadline.after_ms(_JUDGE_TIMEOUT_MS), answer=answer,
                       ground_truth=ground_truth)
        except BackendError as exc:
            raise EvalError(f"judge backend failed: {exc}") from exc
        # Whole words only: "Unacceptable" names no label, "Not perfect: Incorrect" two.
        words = set(re.findall(r"[a-z]+", text.lower()))
        found = [label for label in Label if label.value.lower() in words]
        if len(found) != 1:
            raise EvalError(f"judge reply must name exactly one label: {text!r}")
        return found[0]


def judge_response(
    final_answer: str,
    ground_truth: str,
    judge_backend: JudgeBackend,
    abstain_text: str = PipelineConfig.abstain_text,
) -> Label:
    """Label one response by its first ``DEFAULT_TOKEN_LIMIT`` tokens; one equal
    to ``abstain_text``, both trimmed, is Missing without any judge call.
    ``abstain_text`` defaults to the config's, for a default-config run."""
    if final_answer.strip() == abstain_text.strip():
        return Label.MISSING
    return judge_backend.judge(truncate_tokens(final_answer, DEFAULT_TOKEN_LIMIT), ground_truth)


def aggregate(labels: Sequence[Label]) -> MetricsReport:
    """Fold a completed label list into counts, rates, and truthfulness.
    Every weight is a multiple of one half, so the weighted sum is exact."""
    if not labels:
        raise ValueError("cannot aggregate an empty label list")
    counts = Counter(labels)
    n = len(labels)
    return MetricsReport(
        n=n,
        counts=dict(counts),
        accuracy=(counts[Label.PERFECT] + counts[Label.ACCEPTABLE]) / n,
        missing_rate=counts[Label.MISSING] / n,
        hallucination_rate=counts[Label.INCORRECT] / n,
        truthfulness=sum(_LABEL_VALUES[label] * count for label, count in counts.items()) / n,
    )


def ground_truths(dataset: Sequence[Conversation]) -> dict[tuple[str, int], str]:
    """Every dataset turn's ground truth, keyed by (conversation_id,
    turn_index); a turn without one is an ``EvalError``."""
    truths = {(conversation.conversation_id, turn.turn_index): turn.ground_truth
              for conversation in dataset for turn in conversation.turns}
    missing = [key for key, truth in truths.items() if truth is None]
    if missing:
        raise EvalError(f"turn {missing[0]} has no ground truth; cannot evaluate")
    return truths


def score_answers(
    answers: Sequence[tuple[str, int, str]],
    truths: Mapping[tuple[str, int], str],
    judge: JudgeBackend,
    abstain_text: str,
) -> tuple[MetricsReport, list[dict[str, Any]]]:
    """Judge each (conversation_id, turn_index, answer) against its truth;
    returns the metrics and one label row per answer, in order. The answers
    must hold each turn of ``truths`` exactly once, or none is judged."""
    counts = Counter((conversation_id, turn_index) for conversation_id, turn_index, _ in answers)
    unknown = [key for key in counts if key not in truths]
    if unknown:
        raise EvalError(f"trace turn {unknown[0]} not present in dataset")
    repeated = [key for key, count in counts.items() if count > 1]
    if repeated:
        raise EvalError(f"trace repeats turn {repeated[0]} "
                        f"({len(answers) - len(counts)} repeated record(s) in all)")
    missing = [key for key in truths if key not in counts]
    if missing:
        raise EvalError(f"trace lacks turn {missing[0]} "
                        f"({len(missing)} of the dataset's {len(truths)} turns missing)")
    labels = [judge_response(answer, truths[(conversation_id, turn_index)], judge,
                             abstain_text=abstain_text)
              for conversation_id, turn_index, answer in answers]
    rows = [{"conversation_id": conversation_id, "turn_index": turn_index, "label": label.value}
            for (conversation_id, turn_index, _), label in zip(answers, labels)]
    return aggregate(labels), rows


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
    """Score one pipeline variant over the dataset with the given judge;
    a turn without a ground truth stops it before any turn runs."""
    if mode not in ABLATION_MODES:
        raise EvalError(f"unknown ablation mode: {mode!r} (choose from {', '.join(ABLATION_MODES)})")
    truths = ground_truths(dataset)
    answers = [(outcome.conversation_id, outcome.turn_index, outcome.final.answer)
               for conversation in dataset
               for outcome in run_conversation(conversation, cfg, backends, templates,
                                               variant=mode)]
    return score_answers(answers, truths, judge, cfg.abstain_text)[0]
