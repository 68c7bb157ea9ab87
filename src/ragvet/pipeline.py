"""Orchestrates one conversational turn end-to-end under the turn budget.

The per-turn budget is divided by a static schedule (routing 5%, retrieval
30%, generation 40%, consistency 10%, verification 15%) expressed as
cumulative deadlines, so time a stage leaves unused rolls forward to the
stages after it. No failure escapes a turn: everything degrades to an
abstention with a flag explaining why.

A turn is a small dependency graph, not a straight line:

- The direct answer needs nothing but the query and the history, so it runs
  on one background worker alongside summarize, recall, rerank and the RAG
  answer. It starts right after routing, unless some retrieval result could
  settle the turn before generation (a real-time query); then it starts at
  the beginning of generation, so an early exit never wastes it. The worker
  is joined before the turn returns, and only the calling thread opens trace
  stages.
- A stage is skipped once ``finalize``'s decision cannot depend on it
  (``finalizer.settled``). A real-time turn with weak retrieval ends before
  generation (no answers, no verification); an inconsistent turn ends before
  verification, with context (InconsistentWithContext) or without
  (DefaultAbstain).
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from .backends import BackendError, BackendTimeout, Backends, Role
from .core import (
    AnswerPair,
    Conversation,
    PipelineConfig,
    QueryTurn,
    RagContext,
    RoutingDecision,
    VerificationResult,
)
from .finalizer import Branch, FinalDecision, finalize, retrieval_may_settle, settled
from .generation import check_consistency, generate_direct, generate_rag
from .retrieval import (
    build_context,
    chunk_items,
    dynamic_threshold,
    expand_query,
    filter_chunks,
    recall,
    rerank,
    retrieval_score,
    summarize_image,
)
from .router import route
from .runtime import Deadline, Trace
from .templates import PromptTemplate, resolve_template
from .verification import verify

logger = logging.getLogger(__name__)

__all__ = ["TurnOutcome", "ConversationState", "run_turn", "run_conversation"]

# Cumulative fractions of the turn budget each stage may consume.
_STAGE_CUTOFFS = {
    "route": 0.05,
    "retrieval": 0.35,
    "generate": 0.75,
    "consistency": 0.85,
    "verify": 1.00,
}


@dataclass(frozen=True)
class TurnOutcome:
    """Everything one turn produced, including its full decision trace."""

    conversation_id: str
    turn_index: int
    query: str
    final: FinalDecision
    routing: Optional[RoutingDecision]
    context: RagContext
    answers: Optional[AnswerPair]
    verification: Optional[VerificationResult]
    stages: tuple[str, ...]
    flags: frozenset[str]
    timings_ms: dict[str, int] = field(default_factory=dict, compare=False)
    wall_clock_ms: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if sum(self.timings_ms.values()) > self.wall_clock_ms:
            raise ValueError("stage timings exceed turn wall-clock")
        if "generation_timeout" in self.flags and not self.final.abstained:
            raise ValueError("a generation timeout must end in abstention")

    def to_record(self) -> dict[str, Any]:
        """Canonical trace record: stable field order, no wall-clock values."""
        return {
            "conversation_id": self.conversation_id,
            "turn_index": self.turn_index,
            "query": self.query,
            "routing": self.routing.to_dict() if self.routing else None,
            "stages": list(self.stages),
            "flags": sorted(self.flags),
            "context": self.context.to_dict(),
            "answers": self.answers.to_dict() if self.answers else None,
            "verification": self.verification.to_dict() if self.verification else None,
            "final": self.final.to_dict(),
        }


@dataclass
class ConversationState:
    """Sequential multi-turn memory: the (query, final answer) history."""

    conversation_id: str
    image_ref: Optional[str]
    history: list[tuple[str, str]] = field(default_factory=list)


class _TurnClock:
    """Cumulative stage deadlines over one turn budget."""

    def __init__(self, budget_ms: int):
        self._origin = time.monotonic()
        self._budget_ms = budget_ms
        self.turn_deadline = Deadline(self._origin + budget_ms / 1000.0)

    def stage_deadline(self, stage: str) -> Deadline:
        cutoff = self._origin + _STAGE_CUTOFFS[stage] * self._budget_ms / 1000.0
        return Deadline(min(cutoff, self.turn_deadline.expires_at))

    def elapsed_ms(self) -> int:
        return math.ceil((time.monotonic() - self._origin) * 1000.0)


def _templates_for(cfg: PipelineConfig) -> dict[str, PromptTemplate]:
    return {name: resolve_template(name, cfg.prompt_paths)
            for name in ("routing", "summarize", "generation", "consistency", "cov")}


def _empty_context(cfg: PipelineConfig) -> RagContext:
    return build_context([], cfg.score_floor, 0.0)


def _run_retrieval(
    turn: QueryTurn,
    routing: RoutingDecision,
    cfg: PipelineConfig,
    backends: Backends,
    clock: _TurnClock,
    trace: Trace,
    templates: dict[str, PromptTemplate],
) -> RagContext:
    deadline = clock.stage_deadline("retrieval")
    summary = ""
    if turn.image_ref:
        with trace.stage("summarize"):
            summary = summarize_image(
                turn.query, turn.image_ref, backends.vlm, deadline,
                trace=trace, template=templates["summarize"],
            )
    expanded = expand_query(turn.query, summary)
    with trace.stage("recall"):
        items = recall(
            expanded, turn.image_ref, routing, backends.search,
            cfg.recall_k, mode=cfg.mode, trace=trace,
        )
    chunks = chunk_items(items)
    with trace.stage("rerank"):
        scored = rerank(expanded, chunks, backends.reranker, deadline, trace=trace)
    threshold = dynamic_threshold([c.score for c in scored], cfg.score_floor, cfg.mad_scale)
    kept = filter_chunks(scored, threshold, cfg.rerank_k)
    return build_context(kept, threshold, retrieval_score(kept))


def run_turn(
    state: ConversationState,
    turn: QueryTurn,
    cfg: PipelineConfig,
    backends: Backends,
    templates: Optional[dict[str, PromptTemplate]] = None,
) -> TurnOutcome:
    """Route, retrieve, generate, check, verify, and finalize one turn."""
    if templates is None:
        templates = _templates_for(cfg)
    clock = _TurnClock(cfg.turn_budget_ms)
    trace = Trace()
    history = tuple(state.history)

    routing: Optional[RoutingDecision] = None
    context = _empty_context(cfg)
    answers: Optional[AnswerPair] = None
    verification: Optional[VerificationResult] = None

    def degraded() -> FinalDecision:
        return FinalDecision(
            answer=cfg.abstain_text, branch=Branch.DEFAULT_ABSTAIN, abstained=True
        )

    def out_of_budget() -> bool:
        if clock.turn_deadline.remaining_ms() < cfg.abstain_margin_ms:
            trace.flag("budget_exhausted")
            return True
        return False

    def start_direct(pool: ThreadPoolExecutor) -> Future[str]:
        return pool.submit(
            generate_direct, turn.query, turn.image_ref, backends.vlm,
            clock.stage_deadline("generate"), history, templates["generation"],
        )

    def decide(pool: ThreadPoolExecutor) -> FinalDecision:
        nonlocal routing, context, answers, verification
        with trace.stage("route"):
            routing = route(
                turn.query,
                backends.model_for(Role.ROUTER),
                clock.stage_deadline("route"),
                trace=trace,
                template=templates["routing"],
            )
        direct = None
        if not retrieval_may_settle(cfg, routing.is_real_time):
            direct = start_direct(pool)

        if cfg.mode == "task2plus" and not routing.needs_external:
            trace.flag("retrieval_skipped")
        else:
            context = _run_retrieval(turn, routing, cfg, backends, clock, trace, templates)

        if out_of_budget():
            return degraded()
        early = settled(cfg, routing.is_real_time, context.retrieval_score, context.empty)
        if early is not None:
            return early
        try:
            with trace.stage("generate"):
                if direct is None:
                    direct = start_direct(pool)
                rag_answer = generate_rag(
                    turn.query, turn.image_ref, context, backends.vlm,
                    clock.stage_deadline("generate"), history, templates["generation"],
                )
                answers = AnswerPair(rag_answer=rag_answer, direct_answer=direct.result())
        except BackendTimeout:
            trace.flag("generation_timeout")
            return degraded()
        except BackendError as exc:
            logger.debug("generation failed for %s/%d: %s",
                         turn.conversation_id, turn.turn_index, exc)
            trace.flag("generation_backend_error")
            return degraded()

        if out_of_budget():
            return degraded()
        try:
            with trace.stage("consistency"):
                answers = check_consistency(
                    turn.query, turn.image_ref, context, answers, backends.vlm,
                    clock.stage_deadline("consistency"),
                    trace=trace, template=templates["consistency"],
                )
        except BackendTimeout:
            trace.flag("consistency_backend_timeout")
            answers = answers.with_consistency(False)
        except BackendError:
            trace.flag("consistency_backend_error")
            answers = answers.with_consistency(False)

        if out_of_budget():
            return degraded()
        early = settled(
            cfg, routing.is_real_time, context.retrieval_score, context.empty,
            consistent=bool(answers.consistent), rag_answer=answers.rag_answer,
        )
        if early is not None:
            return early
        try:
            with trace.stage("verify"):
                verification = verify(
                    turn.query, turn.image_ref, context, answers.rag_answer, backends.vlm,
                    clock.stage_deadline("verify"),
                    trace=trace, template=templates["cov"],
                )
        except BackendTimeout:
            trace.flag("cov_backend_timeout")
            verification = VerificationResult(confidence=0.0)
        except BackendError:
            trace.flag("cov_backend_error")
            verification = VerificationResult(confidence=0.0)

        return finalize(
            is_real_time=routing.is_real_time,
            s_ret=context.retrieval_score,
            context_empty=context.empty,
            consistent=bool(answers.consistent),
            s_cov=verification.confidence,
            rag_answer=answers.rag_answer,
            cfg=cfg,
        )

    # Leaving the block joins the worker, so no thread outlives the turn and
    # the wall clock below covers the wait for it.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ragvet-direct") as pool:
        final = decide(pool)
    return TurnOutcome(
        conversation_id=turn.conversation_id,
        turn_index=turn.turn_index,
        query=turn.query,
        final=final,
        routing=routing,
        context=context,
        answers=answers,
        verification=verification,
        stages=tuple(trace.stages),
        flags=frozenset(trace.flags),
        timings_ms=dict(trace.timings_ms),
        wall_clock_ms=clock.elapsed_ms(),
    )


def run_conversation(
    conversation: Conversation,
    cfg: PipelineConfig,
    backends: Backends,
    templates: Optional[dict[str, PromptTemplate]] = None,
) -> list[TurnOutcome]:
    """Run every turn strictly in order, threading the answer history."""
    if templates is None:
        templates = _templates_for(cfg)
    state = ConversationState(
        conversation_id=conversation.conversation_id,
        image_ref=conversation.image_ref,
    )
    outcomes = []
    for turn in conversation.turns:
        result = run_turn(state, turn, cfg, backends, templates)
        state.history.append((turn.query, result.final.answer))
        outcomes.append(result)
    return outcomes
