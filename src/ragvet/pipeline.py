"""Orchestrates one conversational turn end-to-end under the turn budget.

The per-turn budget is divided by a static schedule of cumulative
deadlines on ``runtime.clock``, which also times the stages and the turn:
routing by 5%, the image summary by 20%, search and rerank by 35%,
generation by 75%, consistency by 85% and verification by 100%, so time a
stage leaves unused rolls forward to the stages after it. A summary that
times out thus still leaves search and rerank their share. The cutoffs alone
bound a turn: a backend that answers past its deadline delays only its own
stage, and each later stage keeps its own cutoff. No failure
escapes a turn: everything degrades to an abstention with a flag explaining
why. A turn in flight is one ``_Turn``: its ``stage`` method alone opens,
times and flags a stage, and ``_STAGES`` holds each stage's cutoff and flags.

A turn is asked about its conversation's image, ``ConversationState.image_ref``;
the retrieval score ``finalize`` weighs is derived from the context's entries.

A turn is a small dependency graph, not a straight line:

- The ``generate`` stage requests both answers at once: the direct answer,
  which needs nothing but the query and the history, on the turn's
  ``runtime.Worker``, and the RAG answer on the calling thread. A turn that
  ends before generation never requests either. The worker is joined
  before the turn returns, each hand-off waiting on ``runtime.clock``, and
  only the calling thread opens trace stages.
- Only the pipeline decides whether to retrieve: a mode that looks images
  up (``retrieval.looks_up_images``, task1) always does, so a task1 turn
  with an image starts the summary on the same worker at the start of the
  turn, routes meanwhile, and waits for it inside the ``summarize`` stage.
  In task2plus routing can skip retrieval, so the summary waits for routing
  there, and a turn routed past retrieval never asks for one.
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
    ReplyParseError,
    RoutingDecision,
    VerificationResult,
)
from .finalizer import Branch, FinalDecision, finalize, settled
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
from .runtime import Deadline, Worker
from .templates import PromptTemplate, load_all
from .verification import verify

logger = logging.getLogger(__name__)

__all__ = ["TurnOutcome", "ConversationState", "VARIANTS", "run_turn", "run_conversation"]

# Each stage: the cumulative fraction of the turn budget it may use, then the
# flag ``_Turn.stage`` sets on a timeout, on any other backend failure, and on a
# reply that does not parse (None: no parser).
_STAGES = {
    "route": (0.05, "router_backend_timeout", "router_backend_error", "router_parse_failure"),
    "summarize": (0.20, "summary_backend_timeout", "summary_backend_error", None),
    "recall": (0.35, "recall_backend_error", "recall_backend_error", None),
    "rerank": (0.35, "rerank_backend_error", "rerank_backend_error", None),
    "generate": (0.75, "generation_timeout", "generation_backend_error", None),
    "consistency": (0.85, "consistency_backend_timeout", "consistency_backend_error",
                    "consistency_parse_failure"),
    "verify": (1.00, "cov_backend_timeout", "cov_backend_error", "cov_parse_failure"),
}

# The components each pipeline variant runs: the paper's ablations, then the
# full pipeline. "rag" routes, retrieves and answers from the context;
# "direct" answers without it.
VARIANTS: dict[str, frozenset[str]] = {
    "vision_only": frozenset({"direct"}),
    "rag_naive": frozenset({"rag"}),
    "no_cov_no_sc": frozenset({"rag", "direct"}),
    "no_cov": frozenset({"rag", "direct", "consistency"}),
    "full": frozenset({"rag", "direct", "consistency", "verify"}),
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


class _Turn:
    """One turn in flight: its budget's origin on ``runtime.clock``, its
    degradation flags, stage order and per-stage timings, and what it has found
    so far.

    Stage timings stay in memory for diagnostics; the serialized trace record
    carries only the ordered stage names so that mock runs stay byte-stable.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.origin = runtime.clock.now()
        self.flags: set[str] = set()
        self.stages: list[str] = []
        self.timings_ms: dict[str, int] = {}
        self.routing: Optional[RoutingDecision] = None
        self.context = build_context([], cfg.score_floor)
        self.answers: Optional[AnswerPair] = None
        self.verification: Optional[VerificationResult] = None

    def deadline(self, stage: str) -> Deadline:
        """The end of ``stage``'s cumulative share of the budget (``_STAGES``)."""
        return Deadline(self.origin + _STAGES[stage][0] * self.cfg.turn_budget_ms / 1000.0)

    def flag(self, name: str) -> None:
        self.flags.add(name)

    def stage(self, name: str, fallback: Any, call: Callable[..., Any], *args: Any) -> Any:
        """``call(*args)`` as stage ``name``, timed on ``runtime.clock``; a backend
        failure or a reply that does not parse sets the stage's flag
        (``_STAGES``) and yields ``fallback``."""
        self.stages.append(name)
        started = runtime.clock.now()
        try:
            return call(*args)
        except (BackendError, ReplyParseError) as exc:
            logger.debug("%s failed: %s", name, exc)
            _, on_timeout, on_error, on_parse = _STAGES[name]
            self.flag(on_parse if isinstance(exc, ReplyParseError)
                      else on_timeout if isinstance(exc, BackendTimeout) else on_error)
            return fallback
        finally:
            self.timings_ms[name] = int((runtime.clock.now() - started) * 1000.0)

    def outcome(self, turn: QueryTurn, final: FinalDecision) -> TurnOutcome:
        """The finished turn; its wall clock runs until now."""
        return TurnOutcome(
            conversation_id=turn.conversation_id, turn_index=turn.turn_index, query=turn.query,
            final=final, routing=self.routing, context=self.context, answers=self.answers,
            verification=self.verification, stages=tuple(self.stages),
            flags=frozenset(self.flags), timings_ms=dict(self.timings_ms),
            wall_clock_ms=math.ceil((runtime.clock.now() - self.origin) * 1000.0))


def _run_retrieval(t: _Turn, query: str, image_ref: Optional[str], backends: Backends,
                   get_summary: Callable[[], str]) -> RagContext:
    """``get_summary`` returns the image summary: it makes the call, or waits
    for one already started."""
    cfg = t.cfg
    summary = t.stage("summarize", "", get_summary) if image_ref else ""
    expanded = expand_query(query, summary)
    items = t.stage("recall", [], recall, expanded, image_ref, backends.search,
                    cfg.recall_k, cfg.mode, t.deadline("recall"))
    scored = t.stage("rerank", [], rerank, expanded, chunk_items(items),
                     backends.reranker, t.deadline("rerank"))
    threshold = dynamic_threshold([c.score for c in scored], cfg.score_floor, cfg.mad_scale)
    kept = filter_chunks(scored, threshold, cfg.rerank_k)
    return build_context(kept, threshold)


def _decide(t: _Turn, worker: Worker, state: ConversationState, query: str,
            backends: Backends, templates: dict[str, PromptTemplate],
            variant: str) -> FinalDecision:
    """Run ``variant``'s stages of turn ``t`` in order, the overlapping calls on
    ``worker``, and decide it; ``t`` keeps what each stage finds."""
    cfg, runs, image_ref, history = t.cfg, VARIANTS[variant], state.image_ref, tuple(state.history)

    def summarize() -> str:
        return summarize_image(query, image_ref, backends.vlm, t.deadline("summarize"),
                               templates["summarize"])

    get_summary = summarize
    if "rag" in runs and looks_up_images(cfg.mode) and image_ref:
        # task1 retrieves whatever the router says, so the summary, its
        # first step, need not wait for routing.
        get_summary = worker.submit(summarize).result
    is_real_time = False
    if "rag" in runs:
        t.routing = t.stage("route", FALLBACK_DECISION, route, query, backends.router_model,
                            t.deadline("route"), templates["routing"])
        is_real_time = t.routing.is_real_time and variant == "full"
        if not looks_up_images(cfg.mode) and not t.routing.needs_external:
            t.flag("retrieval_skipped")
        else:
            t.context = _run_retrieval(t, query, image_ref, backends, get_summary)

    early = settled(cfg, is_real_time, t.context.retrieval_score, t.context.empty)
    if early is not None:
        return early

    def generate() -> tuple[Optional[str], Optional[str]]:
        # The direct answer runs on the worker beside the RAG answer. A failed
        # RAG call leaves it unread, so it adds no flag.
        direct = worker.submit(generate_direct, query, image_ref, backends.vlm,
                               t.deadline("generate"), history,
                               templates["generation"]) if "direct" in runs else None
        rag_answer = generate_rag(query, image_ref, t.context, backends.vlm,
                                  t.deadline("generate"), history,
                                  templates["generation"]) if "rag" in runs else None
        return rag_answer, direct.result() if direct is not None else None

    generated = t.stage("generate", None, generate)
    if generated is None:
        return FinalDecision(answer=cfg.abstain_text, branch=Branch.DEFAULT_ABSTAIN)
    rag_answer, direct_answer = generated
    if rag_answer is None or direct_answer is None:
        # One answer: nothing to compare it with, so it stands as given.
        consistent, answer = True, rag_answer if direct_answer is None else direct_answer
    else:
        answers = AnswerPair(rag_answer=rag_answer, direct_answer=direct_answer)
        if "consistency" in runs:
            t.answers = t.stage("consistency", answers.with_consistency(False),
                                check_consistency, query, image_ref, t.context, answers,
                                backends.vlm, t.deadline("consistency"),
                                templates["consistency"])
        else:
            # Without the judge, two answers agree only when they match exactly.
            t.answers = answers.with_consistency(rag_answer.strip() == direct_answer.strip())
        consistent, answer = bool(t.answers.consistent), t.answers.rag_answer

    early = settled(
        cfg, is_real_time, t.context.retrieval_score, t.context.empty,
        consistent=consistent, rag_answer=answer,
    )
    if early is not None:
        return early
    s_cov = 1.0
    if "verify" in runs:
        t.verification = t.stage("verify", VerificationResult(confidence=0.0), verify,
                                 query, image_ref, t.context, answer, backends.vlm,
                                 t.deadline("verify"), templates["cov"])
        s_cov = t.verification.confidence

    return finalize(
        is_real_time=is_real_time,
        s_ret=t.context.retrieval_score,
        context_empty=t.context.empty,
        consistent=consistent,
        s_cov=s_cov,
        rag_answer=answer,
        cfg=cfg,
    )


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
    t = _Turn(cfg)
    # Leaving the block joins the worker, so no thread outlives the turn and
    # the outcome's wall clock covers the wait for it.
    with Worker() as worker:
        final = _decide(t, worker, state, turn.query, backends, templates, variant)
    return t.outcome(turn, final)


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
