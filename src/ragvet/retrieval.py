"""Query-aware retrieval: image summary, expansion, recall, chunking,
reranking, the MAD-based dynamic score cutoff, and context construction."""

from __future__ import annotations

from statistics import median
from typing import Optional, Sequence

from .backends import ModelBackend, RerankerBackend, Role, SearchBackend, ask
from .core import ChunkRef, RagContext, RetrievedItem, ScoredChunk
from .runtime import Deadline
from .templates import PromptTemplate

__all__ = [
    "summarize_image",
    "expand_query",
    "looks_up_images",
    "recall",
    "chunk_items",
    "rerank",
    "mad",
    "dynamic_threshold",
    "filter_chunks",
    "build_context",
]

# The dynamic cutoff always works on the largest scores, at most this many.
TOP_SCORES_WINDOW = 10

def summarize_image(
    query: str,
    image_ref: str,
    vlm_backend: ModelBackend,
    deadline: Deadline,
    template: PromptTemplate,
) -> str:
    """One-sentence, question-focused image summary, trimmed. Backend
    failures propagate, a blank summary as ``ask``'s EmptyCompletionError."""
    return ask(vlm_backend, Role.SUMMARIZER, template, deadline, image_ref,
               query=query).strip()


def expand_query(query: str, summary: str) -> str:
    """The retrieval query: the question, then its image summary if any."""
    return query if not summary else f"{query} {summary}"


def looks_up_images(mode: str) -> bool:
    """Whether recall in ``mode`` looks the turn's image up in the knowledge
    graph; only task1 does, so only a task1 run needs the image index."""
    return mode == "task1"


def recall(
    expanded: str,
    image_ref: Optional[str],
    search_backend: SearchBackend,
    k: int,
    mode: str,
    deadline: Deadline,
) -> list[RetrievedItem]:
    """Top-k recall in the modality ``mode`` selects.

    task1 looks the image up in the knowledge graph (nothing without an
    image); task2plus searches the web with the expanded query, by
    ``deadline``. Whether to recall at all is the caller's decision. Backend
    failures propagate.
    """
    if looks_up_images(mode):
        return search_backend.image_search(image_ref, k) if image_ref else []
    return search_backend.web_search(expanded, k, deadline)


def chunk_items(items: Sequence[RetrievedItem]) -> list[tuple[str, ChunkRef]]:
    """Normalize item fields into (paragraph, ref) chunks by splitting on
    newlines.

    Order: item recall order, then field order, then paragraph order.
    Duplicate paragraphs are kept; nothing here deduplicates.
    """
    chunks: list[tuple[str, ChunkRef]] = []
    for item in items:
        for field_name in item.content_fields():
            value = item.fields.get(field_name)
            if not value:
                continue
            for paragraph in value.split("\n"):
                paragraph = paragraph.strip()
                if paragraph:
                    chunks.append((paragraph, ChunkRef(item, field_name)))
    return chunks


def rerank(
    expanded: str,
    chunks: Sequence[tuple[str, ChunkRef]],
    reranker_backend: RerankerBackend,
    deadline: Deadline,
) -> list[ScoredChunk]:
    """Score every chunk against the expanded query in one backend call.

    Scores keep input order. With no chunks there is no call at all.
    Backend failures propagate.
    """
    if not chunks:
        return []
    scores = reranker_backend.score_batch(expanded, [text for text, _ in chunks], deadline)
    return [
        ScoredChunk(text=text, parent=ref, score=score)
        for (text, ref), score in zip(chunks, scores, strict=True)
    ]


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation, unscaled (no consistency constant); an
    empty sequence raises ``statistics.StatisticsError``, a ValueError."""
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
    kept = [chunk for chunk in scored if chunk.score >= threshold]
    kept.sort(key=lambda chunk: -chunk.score)  # stable: input order breaks ties
    return kept[:k_rerank]


def build_context(kept: Sequence[ScoredChunk], threshold: float) -> RagContext:
    """The context of the kept chunks; it renders and scores them itself."""
    return RagContext(entries=tuple(kept), threshold_used=threshold)
