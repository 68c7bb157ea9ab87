"""Structured two-phase verification of a candidate answer.

Both phases (holistic, then decompositional) live in one prompt; the model
reports them as a confidence-first block so that even a truncated reply
still carries a usable score. An unusable reply raises ``ReplyParseError``;
``pipeline._Turn.stage`` then scores the answer at confidence 0.0.
"""

from __future__ import annotations

import re
from typing import Optional

from .backends import ModelBackend, Role, ask
from .core import Finding, RagContext, ReplyParseError, SubQuestion, VerificationResult
from .runtime import Deadline
from .templates import PromptTemplate

__all__ = ["parse_cov_response", "verify"]

_CONFIDENCE_LINE = re.compile(r"^CONFIDENCE:(.*)$", re.MULTILINE)
_REASONING_SPLIT = re.compile(r"^REASONING:", re.MULTILINE)
_SUBQ_SPLIT = re.compile(r"^SUB-QUESTIONS:", re.MULTILINE)
_FLOAT = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")
_SUB_QUESTION = re.compile(r"Q\d+:\s*(.+?),\s*Finding:\s*(Supported|Unsupported)", re.IGNORECASE)

def _parse_sub_questions(fragment: str) -> tuple[SubQuestion, ...]:
    subs = []
    for match in _SUB_QUESTION.finditer(fragment):
        finding = Finding.SUPPORTED if match.group(2).lower() == "supported" else Finding.UNSUPPORTED
        subs.append(SubQuestion(question=match.group(1).strip(), finding=finding))
    return tuple(subs)


def parse_cov_response(text: str) -> VerificationResult:
    """Extract confidence, reasoning, and sub-question findings.

    The confidence comes from the first line starting with ``CONFIDENCE:``
    (anchored at line start, so the word appearing inside an answer is
    ignored) and is clamped into [0, 1]. A reply without a number on that
    line, or with a positive confidence but neither reasoning nor
    sub-questions, is malformed: ``ReplyParseError``.
    """
    confidence_match = _CONFIDENCE_LINE.search(text)
    number = _FLOAT.search(confidence_match.group(1)) if confidence_match else None
    if number is None:
        raise ReplyParseError(f"verification reply has no confidence: {text!r}")
    confidence = min(1.0, max(0.0, float(number.group(0))))

    reasoning = ""
    reasoning_split = _REASONING_SPLIT.split(text, maxsplit=1)
    if len(reasoning_split) == 2:
        reasoning = _SUBQ_SPLIT.split(reasoning_split[1], maxsplit=1)[0].strip()

    sub_questions: tuple[SubQuestion, ...] = ()
    subq_split = _SUBQ_SPLIT.split(text, maxsplit=1)
    if len(subq_split) == 2:
        sub_questions = _parse_sub_questions(subq_split[1])

    if confidence > 0.0 and not reasoning and not sub_questions:
        raise ReplyParseError(f"verification reply has no reasoning: {text!r}")
    return VerificationResult(
        confidence=confidence, reasoning=reasoning, sub_questions=sub_questions
    )


def verify(
    query: str,
    image_ref: Optional[str],
    context: RagContext,
    answer: str,
    vlm_backend: ModelBackend,
    deadline: Deadline,
    template: PromptTemplate,
) -> VerificationResult:
    """Run the verification prompt over the candidate answer. Backend
    failures and ``ReplyParseError`` propagate."""
    reply = ask(vlm_backend, Role.VERIFIER, template, deadline, image_ref,
                contexts=context.rendered, queries=query, answers=answer)
    return parse_cov_response(reply)

