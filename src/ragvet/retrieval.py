"""Query-aware retrieval: image summary, expansion, recall, chunking,
reranking, the MAD-based dynamic score cutoff, and context construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .backends import (
    BackendError,
    BackendTimeout,
    ModelBackend,
    ModelRequest,
    RerankerBackend,
    Role,
    SearchBackend,
)
from .core import ChunkRef, RagContext, RetrievedItem, RoutingDecision, ScoredChunk
from .runtime import Deadline, Trace, flag_trace
from .templates import PromptTemplate, default_template_path, load_template

__all__ = [
    "ExpandedQuery",
    "RawChunk",
    "summarize_image",
    "expand_query",
    "recall",
    "chunk_items",
    "rerank",
    "median",
    "mad",
    "dynamic_threshold",
    "filter_chunks",
    "build_context",
    "retrieval_score",
]

SUMMARY_MAX_TOKENS = 128

# The dynamic cutoff always works on the largest scores, at most this many.
TOP_SCORES_WINDOW = 10

_DEFAULT_TEMPLATE: Optional[PromptTemplate] = None


def _default_template() -> PromptTemplate:
    global _DEFAULT_TEMPLATE
    if _DEFAULT_TEMPLATE is None:
        _DEFAULT_TEMPLATE = load_template(default_template_path("summarize"))
    return _DEFAULT_TEMPLATE


@dataclass(frozen=True)
class ExpandedQuery:
    """The retrieval query: the question plus its image summary."""

    original: str
    summary: str
    combined: str

    def __post_init__(self) -> None:
        expected = self.original if not self.summary else f"{self.original} {self.summary}"
        if self.combined != expected:
            raise ValueError("combined must be original plus a single space plus summary")


@dataclass(frozen=True)
class RawChunk:
    """A single normalized paragraph, not yet scored."""

    text: str
    ref: ChunkRef


def summarize_image(
    query: str,
    image_ref: str,
    vlm_backend: ModelBackend,
    deadline: Deadline,
    trace: Optional[Trace] = None,
    template: Optional[PromptTemplate] = None,
) -> str:
    """One-sentence, question-focused image summary; empty string on failure."""
    if not image_ref:
        raise ValueError("image_ref must be present")
    system, user = (template or _default_template()).build(query=query, image="")
    request = ModelRequest(
        role=Role.SUMMARIZER,
        system=system,
        user=user,
        image_ref=image_ref,
        max_tokens=SUMMARY_MAX_TOKENS,
    )
    try:
        response = vlm_backend.complete(request, deadline)
    except BackendTimeout:
        flag_trace(trace, "summary_backend_timeout")
        return ""
    except BackendError:
        flag_trace(trace, "summary_backend_error")
        return ""
    return response.text.strip()


def expand_query(query: str, summary: str) -> ExpandedQuery:
    if not query:
        raise ValueError("query must be non-empty")
    combined = query if not summary else f"{query} {summary}"
    return ExpandedQuery(original=query, summary=summary, combined=combined)


def recall(
    expanded: ExpandedQuery,
    image_ref: Optional[str],
    decision: RoutingDecision,
    search_backend: SearchBackend,
    k: int,
    mode: str = "task1",
    trace: Optional[Trace] = None,
) -> list[RetrievedItem]:
    """Top-k recall in the modality the mode/routing policy selects.

    task1 always searches the image knowledge graph; task2plus searches the
    web with the expanded query when external info is needed. Callers skip
    this stage entirely for task2plus queries with needs_external false.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        if mode == "task1":
            if not image_ref:
                return []
            return search_backend.image_search(image_ref, k)
        if not decision.needs_external:
            return []
        return search_backend.web_search(expanded.combined, k)
    except BackendError:
        flag_trace(trace, "recall_backend_error")
        return []


def chunk_items(items: Sequence[RetrievedItem]) -> list[RawChunk]:
    """Normalize item fields into paragraph chunks by splitting on newlines.

    Order: item recall order, then field order, then paragraph order.
    Duplicate paragraphs are kept; nothing here deduplicates.
    """
    chunks: list[RawChunk] = []
    for item in items:
        for field_name in item.content_fields():
            value = item.fields.get(field_name)
            if not value:
                continue
            for paragraph in value.split("\n"):
                paragraph = paragraph.strip()
                if paragraph:
                    chunks.append(RawChunk(text=paragraph, ref=ChunkRef(item, field_name)))
    return chunks


def rerank(
    expanded: ExpandedQuery,
    chunks: Sequence[RawChunk],
    reranker_backend: RerankerBackend,
    deadline: Deadline,
    trace: Optional[Trace] = None,
) -> list[ScoredChunk]:
    """Score every chunk against the expanded query in one backend call.

    Scores keep input order. With no chunks there is no call at all.
    """
    if not chunks:
        return []
    try:
        scores = reranker_backend.score_batch(
            expanded.combined, [chunk.text for chunk in chunks], deadline
        )
    except BackendError:
        flag_trace(trace, "rerank_backend_error")
        return []
    return [
        ScoredChunk(text=chunk.text, parent=chunk.ref, score=score)
        for chunk, score in zip(chunks, scores, strict=True)
    ]


def median(values: Sequence[float]) -> float:
    """Standard median; even counts average the two middle order statistics."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation, unscaled (no consistency constant)."""
    if not values:
        raise ValueError("mad of empty sequence")
    center = median(values)
    return median([abs(v - center) for v in values])


def dynamic_threshold(scores: Sequence[float], tau: float, lam: float) -> float:
    """Minimum relevance cutoff: max(tau, median(top) - lam * mad(top)).

    The robust statistics are taken over the up-to-10 largest scores; with
    no scores at all the cutoff is the floor tau.
    """
    if not scores:
        return tau
    top = sorted(scores, reverse=True)[:TOP_SCORES_WINDOW]
    return max(tau, median(top) - lam * mad(top))


def filter_chunks(
    scored: Sequence[ScoredChunk], threshold: float, k_rerank: int
) -> list[ScoredChunk]:
    """Keep chunks scoring at or above the cutoff, best first, at most k.

    Ties keep earlier input order, so filtering is fully deterministic.
    """
    if k_rerank < 0:
        raise ValueError("k_rerank must be >= 0")
    kept = [chunk for chunk in scored if chunk.score >= threshold]
    kept.sort(key=lambda chunk: -chunk.score)  # stable: input order breaks ties
    return kept[:k_rerank]


def build_context(
    kept: Sequence[ScoredChunk], threshold: float, s_ret: float
) -> RagContext:
    """Render kept chunks as tagged [Info m] lines, one per entry."""
    rendered = "\n".join(
        f"[Info {position}] {chunk.text}" for position, chunk in enumerate(kept, start=1)
    )
    return RagContext(
        entries=tuple(kept),
        rendered=rendered,
        threshold_used=threshold,
        retrieval_score=s_ret,
    )


def retrieval_score(scored: Sequence[ScoredChunk]) -> float:
    """Maximum reranker score over the given chunks; 0.0 when empty."""
    return max((chunk.score for chunk in scored), default=0.0)
