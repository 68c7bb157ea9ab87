"""Dual-path answer generation and the binary self-consistency check.

The grounded answer sees the tagged context block; the direct answer sees no
context block at all. An impartial-judge prompt then compares the two, and
anything other than a clear yes maps to "inconsistent" so that downstream
finalization leans toward abstention.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .backends import ModelBackend, Role, ask
from .core import AnswerPair, RagContext, ReplyParseError
from .runtime import Deadline
from .templates import PromptTemplate

__all__ = [
    "generate_rag",
    "generate_direct",
    "parse_yes_no",
    "check_consistency",
    "NO_CONTEXT_MARKER",
]

NO_CONTEXT_MARKER = "No context available."

_LEADING_YES_NO = re.compile(r"^\s*(yes|no)\b", re.IGNORECASE)

def _history_block(history: Sequence[tuple[str, str]]) -> str:
    if not history:
        return ""
    lines = "".join(f"Previous Q: {q}\nPrevious A: {a}\n" for q, a in history)
    return lines + "\n"


def _generate(
    query: str,
    image_ref: Optional[str],
    context_rendered: Optional[str],
    vlm_backend: ModelBackend,
    deadline: Deadline,
    history: Sequence[tuple[str, str]],
    template: PromptTemplate,
) -> str:
    """One answer. ``context_rendered`` of None means the direct path (no
    context block); an empty string renders the block with an explicit
    no-context marker. The answer comes back trimmed. Backend failures
    propagate, a blank answer as ``ask``'s EmptyCompletionError: without an
    answer the turn must abstain."""
    if context_rendered is None:
        context_block = ""
    else:
        context_block = f"Context:\n{context_rendered or NO_CONTEXT_MARKER}\n\n"
    return ask(vlm_backend, Role.GENERATOR, template, deadline, image_ref,
               history_block=_history_block(history), context_block=context_block,
               query=query).strip()


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


def parse_yes_no(text: str) -> bool:
    """Leading yes -> True, leading no -> False; anything else raises
    ``ReplyParseError``, and ``pipeline._Turn.stage`` reads the pair as inconsistent."""
    match = _LEADING_YES_NO.match(text)
    if match is None:
        raise ReplyParseError(f"consistency reply does not parse: {text!r}")
    return match.group(1).lower() == "yes"


def check_consistency(
    query: str,
    image_ref: Optional[str],
    context: RagContext,
    pair: AnswerPair,
    vlm_backend: ModelBackend,
    deadline: Deadline,
    template: PromptTemplate,
) -> AnswerPair:
    """Ask the judge whether the two answers agree; store the verdict."""
    reply = ask(vlm_backend, Role.CONSISTENCY_JUDGE, template, deadline, image_ref,
                contexts=context.rendered, queries=query,
                answer=pair.direct_answer, ragged_answer=pair.rag_answer)
    return pair.with_consistency(parse_yes_no(reply))
