"""Dual-path answer generation and the binary self-consistency check.

The grounded answer sees the tagged context block; the direct answer sees no
context block at all. An impartial-judge prompt then compares the two, and
anything other than a clear yes maps to "inconsistent" so that downstream
finalization leans toward abstention.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .backends import EmptyCompletionError, ModelBackend, ModelRequest, Role
from .core import AnswerPair, RagContext
from .runtime import Deadline, Trace
from .templates import PromptTemplate

__all__ = [
    "build_generation_prompt",
    "generate_rag",
    "generate_direct",
    "build_consistency_prompt",
    "parse_yes_no",
    "check_consistency",
    "NO_CONTEXT_MARKER",
]

GENERATION_MAX_TOKENS = 256
CONSISTENCY_MAX_TOKENS = 8

NO_CONTEXT_MARKER = "No context available."

_LEADING_YES_NO = re.compile(r"^\s*(yes|no)\b", re.IGNORECASE)

def _history_block(history: Sequence[tuple[str, str]]) -> str:
    if not history:
        return ""
    lines = "".join(f"Previous Q: {q}\nPrevious A: {a}\n" for q, a in history)
    return lines + "\n"


def build_generation_prompt(
    query: str,
    context_rendered: Optional[str],
    history: Sequence[tuple[str, str]],
    template: PromptTemplate,
) -> tuple[str, str]:
    """Render the answer prompt.

    ``context_rendered`` of None means the direct path (no context block);
    an empty string renders the block with an explicit no-context marker.
    """
    if context_rendered is None:
        context_block = ""
    else:
        context_block = f"Context:\n{context_rendered or NO_CONTEXT_MARKER}\n\n"
    return template.build(
        history_block=_history_block(history),
        context_block=context_block,
        query=query,
    )


def _generate(
    query: str,
    image_ref: Optional[str],
    context_rendered: Optional[str],
    vlm_backend: ModelBackend,
    deadline: Deadline,
    history: Sequence[tuple[str, str]],
    template: PromptTemplate,
) -> str:
    system, user = build_generation_prompt(query, context_rendered, history, template)
    request = ModelRequest(
        role=Role.GENERATOR,
        system=system,
        user=user,
        image_ref=image_ref,
        max_tokens=GENERATION_MAX_TOKENS,
    )
    # Backend failures propagate: without an answer the turn must abstain.
    answer = vlm_backend.complete(request, deadline).text.strip()
    if not answer:
        raise EmptyCompletionError("generator completion is whitespace only")
    return answer


def generate_rag(
    query: str,
    image_ref: Optional[str],
    context: RagContext,
    vlm_backend: ModelBackend,
    deadline: Deadline,
    history: Sequence[tuple[str, str]],
    template: PromptTemplate,
) -> str:
    """The context-conditioned answer."""
    return _generate(query, image_ref, context.rendered, vlm_backend, deadline, history, template)


def generate_direct(
    query: str,
    image_ref: Optional[str],
    vlm_backend: ModelBackend,
    deadline: Deadline,
    history: Sequence[tuple[str, str]],
    template: PromptTemplate,
) -> str:
    """The prior-knowledge answer, generated without any context block."""
    return _generate(query, image_ref, None, vlm_backend, deadline, history, template)


def build_consistency_prompt(
    context: RagContext,
    query: str,
    direct_answer: str,
    rag_answer: str,
    template: PromptTemplate,
) -> tuple[str, str]:
    return template.build(
        contexts=context.rendered,
        queries=query,
        answer=direct_answer,
        ragged_answer=rag_answer,
    )


def parse_yes_no(text: str, trace: Trace) -> bool:
    """Leading yes -> True, leading no -> False, anything else -> False."""
    match = _LEADING_YES_NO.match(text)
    if match is None:
        trace.flag("consistency_parse_failure")
        return False
    return match.group(1).lower() == "yes"


def check_consistency(
    query: str,
    image_ref: Optional[str],
    context: RagContext,
    pair: AnswerPair,
    vlm_backend: ModelBackend,
    deadline: Deadline,
    trace: Trace,
    template: PromptTemplate,
) -> AnswerPair:
    """Ask the judge whether the two answers agree; store the verdict."""
    system, user = build_consistency_prompt(
        context, query, pair.direct_answer, pair.rag_answer, template
    )
    request = ModelRequest(
        role=Role.CONSISTENCY_JUDGE,
        system=system,
        user=user,
        image_ref=image_ref,
        max_tokens=CONSISTENCY_MAX_TOKENS,
    )
    response = vlm_backend.complete(request, deadline)
    return pair.with_consistency(parse_yes_no(response.text, trace))
