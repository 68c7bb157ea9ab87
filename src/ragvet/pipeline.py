"""Orchestrates one conversational turn end-to-end under the turn budget.

The per-turn budget is divided by a static schedule of cumulative
deadlines on ``runtime.clock``, which also times the stages and the turn:
routing by 5%, the image summary by 20%, search and rerank by 35%,
generation by 75%, consistency by 85% and verification by 100%, so time a
stage leaves unused rolls forward to the stages after it. A summary that
times out thus still leaves search and rerank their share. No failure
escapes a turn: everything degrades to an abstention with a flag explaining
why. ``_stage`` alone opens, times and flags a stage (``_FAILURE_FLAGS``).

A turn is asked about its conversation's image, ``ConversationState.image_ref``;
the retrieval score ``finalize`` weighs is derived from the context's entries.

A turn is a small dependency graph, not a straight line:

- The direct answer needs nothing but the query and the history, so it runs
  on one background worker alongside summarize, recall, rerank and the RAG
  answer. It starts right after routing, unless some retrieval result could
  settle the turn before generation (a real-time query); then it starts at
  the beginning of generation, so an early exit never wastes it. The worker
  is joined before the turn returns, and only the calling thread opens trace
  stages.
- Only the pipeline decides whether to retrieve: a mode that looks images
  up (``retrieval.looks_up_images``, task1) always does, so a task1 turn
  with an image starts the summary on the same worker at the start of the
  turn, routes meanwhile, and waits for it inside the ``summarize`` stage.
  The direct answer queues behind it, which costs nothing, since the RAG
  answer needs the summary too. In task2plus routing can skip retrieval, so
  the summary waits for routing there, and a turn routed past retrieval
  never asks for one.
- A stage is skipped once ``finalize``'s decision cannot depend on it
  (``finalizer.settled``). A real-time turn with weak retrieval ends before
  generation (no answers, no verification); an inconsistent turn ends before
  verification, with context (InconsistentWithContext) or without
  (DefaultAbstain).

The paper's ablations are variants of this one turn (``VARIANTS``): each
runs a subset of the components and otherwise shares every flag, deadline
and early exit. A check a variant does not run reads as passed: without the
verifier the confidence is 1.0; without the judge two answers agree only
when they match exactly; a variant with one answer is consistent and that
answer is the one ``finalize`` returns. Only the full pipeline applies the
real-time guard.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import runtime
from .backends import BackendError, BackendTimeout, Backends
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
    looks_up_images,
    recall,
    rerank,
    summarize_image,
)
from .router import FALLBACK_DECISION, route
from .runtime import Deadline, Trace
from .templates import PromptTemplate, load_all
from .verification import verify

logger = logging.getLogger(__name__)

__all__ = ["TurnOutcome", "ConversationState", "VARIANTS", "run_turn", "run_conversation"]

# Cumulative fractions of the turn budget each stage may consume.
_STAGE_CUTOFFS = {
    "route": 0.05,
    "summarize": 0.20,
    "retrieval": 0.35,
    "generate": 0.75,
    "consistency": 0.85,
    "verify": 1.00,
}

# Each stage whose backend call may fail: the flag ``_stage`` sets on a
# timeout, then the flag it sets on any other backend failure.
_FAILURE_FLAGS = {
    "route": ("router_backend_timeout", "router_backend_error"),
    "summarize": ("summary_backend_timeout", "summary_backend_error"),
    "recall": ("recall_backend_error", "recall_backend_error"),
    "rerank": ("rerank_backend_error", "rerank_backend_error"),
    "generate": ("generation_timeout", "generation_backend_error"),
    "consistency": ("consistency_backend_timeout", "consistency_backend_error"),
    "verify": ("cov_backend_timeout", "cov_backend_error"),
}

# The components each pipeline variant runs: the paper's ablations, then the
# full pipeline.
VARIANTS: dict[str, frozenset[str]] = {
    "vision_only": frozenset({"direct"}),
    "rag_naive": frozenset({"route", "retrieval", "rag"}),
    "no_cov_no_sc": frozenset({"route", "retrieval", "rag", "direct"}),
    "no_cov": frozenset({"route", "retrieval", "rag", "direct", "consistency"}),
    "full": frozenset({"route", "retrieval", "rag", "direct", "consistency", "verify"}),
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
    """Sequential multi-turn memory: the conversation's image and the (query,
    final answer) history."""

    conversation_id: str
    image_ref: Optional[str]
    history: list[tuple[str, str]] = field(default_factory=list)


class _TurnBudget:
    """Cumulative stage deadlines over one turn budget."""

    def __init__(self, budget_ms: int):
        self._origin = runtime.clock.now()
        self._budget_ms = budget_ms
        self.turn_deadline = Deadline(self._origin + budget_ms / 1000.0)

    def stage_deadline(self, stage: str) -> Deadline:
        return Deadline(self._origin + _STAGE_CUTOFFS[stage] * self._budget_ms / 1000.0)

    def elapsed_ms(self) -> int:
        return math.ceil((runtime.clock.now() - self._origin) * 1000.0)


def _stage(trace: Trace, name: str, fallback: Any, call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)`` as stage ``name``, timed on ``runtime.clock``; a backend
    failure sets the stage's flag (``_FAILURE_FLAGS``) and yields ``fallback``."""
    trace.stages.append(name)
    started = runtime.clock.now()
    try:
        return call(*args)
    except BackendError as exc:
        logger.debug("%s failed: %s", name, exc)
        on_timeout, on_error = _FAILURE_FLAGS[name]
        trace.flag(on_timeout if isinstance(exc, BackendTimeout) else on_error)
        return fallback
    finally:
        elapsed = int((runtime.clock.now() - started) * 1000.0)
        trace.timings_ms[name] = trace.timings_ms.get(name, 0) + elapsed


def _run_retrieval(
    query: str,
    image_ref: Optional[str],
    cfg: PipelineConfig,
    backends: Backends,
    budget: _TurnBudget,
    trace: Trace,
    get_summary: Callable[[], str],
) -> RagContext:
    """``get_summary`` returns the image summary: it makes the call, or waits
    for one already started."""
    deadline = budget.stage_deadline("retrieval")
    summary = _stage(trace, "summarize", "", get_summary) if image_ref else ""
    expanded = expand_query(query, summary)
    items = _stage(trace, "recall", [], recall, expanded, image_ref, backends.search,
                   cfg.recall_k, cfg.mode, deadline)
    scored = _stage(trace, "rerank", [], rerank, expanded, chunk_items(items),
                    backends.reranker, deadline)
    threshold = dynamic_threshold([c.score for c in scored], cfg.score_floor, cfg.mad_scale)
    kept = filter_chunks(scored, threshold, cfg.rerank_k)
    return build_context(kept, threshold)


def run_turn(
    state: ConversationState,
    turn: QueryTurn,
    cfg: PipelineConfig,
    backends: Backends,
    templates: dict[str, PromptTemplate],
    variant: str = "full",
) -> TurnOutcome:
    """Route, retrieve, generate, check, verify, and finalize one turn.

    The turn is asked about ``state.image_ref``, its conversation's image.
    ``variant`` names the entry of ``VARIANTS`` whose components run.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown pipeline variant: {variant!r}")
    runs = VARIANTS[variant]
    budget = _TurnBudget(cfg.turn_budget_ms)
    trace = Trace()
    history = tuple(state.history)
    image_ref = state.image_ref

    routing: Optional[RoutingDecision] = None
    context = build_context([], cfg.score_floor)
    answers: Optional[AnswerPair] = None
    verification: Optional[VerificationResult] = None

    def degraded() -> FinalDecision:
        return FinalDecision(answer=cfg.abstain_text, branch=Branch.DEFAULT_ABSTAIN)

    def out_of_budget() -> bool:
        if budget.turn_deadline.remaining_ms() < cfg.abstain_margin_ms:
            trace.flag("budget_exhausted")
            return True
        return False

    def start_direct(pool: ThreadPoolExecutor) -> Future[str]:
        return pool.submit(
            generate_direct, turn.query, image_ref, backends.vlm,
            budget.stage_deadline("generate"), history, templates["generation"],
        )

    def summarize() -> str:
        return summarize_image(turn.query, image_ref, backends.vlm,
                               budget.stage_deadline("summarize"), templates["summarize"])

    def decide(pool: ThreadPoolExecutor) -> FinalDecision:
        nonlocal routing, context, answers, verification
        get_summary = summarize
        if "retrieval" in runs and looks_up_images(cfg.mode) and image_ref:
            # task1 retrieves whatever the router says, so the summary, its
            # first step, need not wait for routing.
            get_summary = pool.submit(summarize).result
        is_real_time = False
        if "route" in runs:
            routing = _stage(trace, "route", FALLBACK_DECISION, route, turn.query,
                             backends.router_model, budget.stage_deadline("route"), trace,
                             templates["routing"])
            is_real_time = routing.is_real_time and variant == "full"
        direct = None
        if "direct" in runs and not retrieval_may_settle(cfg, is_real_time):
            direct = start_direct(pool)

        if "retrieval" in runs:
            if not looks_up_images(cfg.mode) and not routing.needs_external:
                trace.flag("retrieval_skipped")
            else:
                context = _run_retrieval(turn.query, image_ref, cfg, backends, budget,
                                         trace, get_summary)

        if out_of_budget():
            return degraded()
        early = settled(cfg, is_real_time, context.retrieval_score, context.empty)
        if early is not None:
            return early

        def generate() -> tuple[Optional[str], Optional[str]]:
            # A failed RAG call leaves the direct answer unread, so it adds no flag.
            nonlocal direct
            if direct is None and "direct" in runs:
                direct = start_direct(pool)
            rag_answer = None
            if "rag" in runs:
                rag_answer = generate_rag(
                    turn.query, image_ref, context, backends.vlm,
                    budget.stage_deadline("generate"), history, templates["generation"],
                )
            return rag_answer, direct.result() if direct is not None else None

        generated = _stage(trace, "generate", None, generate)
        if generated is None or out_of_budget():
            return degraded()
        rag_answer, direct_answer = generated
        if rag_answer is None or direct_answer is None:
            # One answer: nothing to compare it with, so it stands as given.
            consistent, answer = True, rag_answer if direct_answer is None else direct_answer
        else:
            answers = AnswerPair(rag_answer=rag_answer, direct_answer=direct_answer)
            if "consistency" in runs:
                answers = _stage(trace, "consistency", answers.with_consistency(False),
                                 check_consistency, turn.query, image_ref, context,
                                 answers, backends.vlm, budget.stage_deadline("consistency"),
                                 trace, templates["consistency"])
                if out_of_budget():
                    return degraded()
            else:
                # Without the judge, two answers agree only when they match exactly.
                answers = answers.with_consistency(rag_answer.strip() == direct_answer.strip())
            consistent, answer = bool(answers.consistent), answers.rag_answer

        early = settled(
            cfg, is_real_time, context.retrieval_score, context.empty,
            consistent=consistent, rag_answer=answer,
        )
        if early is not None:
            return early
        s_cov = 1.0
        if "verify" in runs:
            verification = _stage(trace, "verify", VerificationResult(confidence=0.0), verify,
                                  turn.query, image_ref, context, answer, backends.vlm,
                                  budget.stage_deadline("verify"), trace, templates["cov"])
            s_cov = verification.confidence

        return finalize(
            is_real_time=is_real_time,
            s_ret=context.retrieval_score,
            context_empty=context.empty,
            consistent=consistent,
            s_cov=s_cov,
            rag_answer=answer,
            cfg=cfg,
        )

    # Leaving the block joins the worker, so no thread outlives the turn and
    # the wall clock below covers the wait for it.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ragvet-turn") as pool:
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
        wall_clock_ms=budget.elapsed_ms(),
    )


def run_conversation(
    conversation: Conversation,
    cfg: PipelineConfig,
    backends: Backends,
    templates: Optional[dict[str, PromptTemplate]] = None,
    variant: str = "full",
) -> list[TurnOutcome]:
    """Run every turn strictly in order, threading the answer history.

    ``templates`` of None loads ``cfg``'s: perfbench's checker test calls
    this with three arguments."""
    if templates is None:
        templates = load_all(cfg.prompt_paths)
    state = ConversationState(
        conversation_id=conversation.conversation_id,
        image_ref=conversation.image_ref,
    )
    outcomes = []
    for turn in conversation.turns:
        result = run_turn(state, turn, cfg, backends, templates, variant)
        state.history.append((turn.query, result.final.answer))
        outcomes.append(result)
    return outcomes
