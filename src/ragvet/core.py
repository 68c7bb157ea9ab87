"""Shared domain types for the pipeline.

Every type validates its invariants at construction time and is immutable
afterwards, so instances can be shared freely across concurrent turns.

Each fact is stored once. A value that follows from others is computed,
never passed in: ``RagContext.rendered`` and ``RagContext.retrieval_score``
are derived from its entries. The image belongs to the conversation
(``Conversation.image_ref``), not to each of its turns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Mapping, Optional, Sequence

from .templates import TEMPLATE_NAMES
from .transport import BEARER_TOKEN

__all__ = [
    "Source",
    "Conversation",
    "QueryTurn",
    "RoutingDecision",
    "RetrievedItem",
    "ChunkRef",
    "ScoredChunk",
    "RagContext",
    "AnswerPair",
    "Finding",
    "SubQuestion",
    "VerificationResult",
    "PipelineConfig",
    "InvalidConfigError",
    "validate_config",
    "parse_context_tags",
    "missing_content",
]

# The most entries a context holds: rerank_k's upper bound and its default.
MAX_CONTEXT_ENTRIES = 3

_INFO_TAG = re.compile(r"^\[Info (\d+)\] (.*)$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _as_flag(value: Any, name: str) -> bool:
    _require(value in (0, 1, True, False), f"{name} must be 0 or 1, got {value!r}")
    return bool(value)


class Source(str, Enum):
    """Provenance of a retrieved item."""

    KG_IMAGE = "kg_image"
    WEB = "web"


@dataclass(frozen=True)
class QueryTurn:
    """One user question inside a conversation, about the conversation's image.

    ``ground_truth`` exists for evaluation only; the pipeline never reads it.
    """

    conversation_id: str
    turn_index: int
    query: str
    ground_truth: Optional[str] = None

    def __post_init__(self) -> None:
        _require(isinstance(self.conversation_id, str) and bool(self.conversation_id),
                 "conversation_id must be a non-empty string")
        _require(self.turn_index >= 0, "turn_index must be >= 0")
        _require(isinstance(self.query, str) and bool(self.query.strip()),
                 "query must be a string, non-empty after trim")
        _require(isinstance(self.ground_truth, (str, type(None))),
                 "ground_truth must be a string or null")


@dataclass(frozen=True)
class Conversation:
    """An ordered sequence of turns sharing one (optional) image."""

    conversation_id: str
    image_ref: Optional[str]
    turns: tuple[QueryTurn, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))
        _require(isinstance(self.conversation_id, str) and bool(self.conversation_id),
                 "conversation_id must be a non-empty string")
        _require(isinstance(self.image_ref, (str, type(None))), "image_ref must be a string or null")
        _require(len(self.turns) > 0, "conversation must have at least one turn")
        for expected, turn in enumerate(self.turns):
            _require(
                turn.turn_index == expected,
                f"turn_index must be contiguous from 0, got {turn.turn_index} at position {expected}",
            )
            _require(
                turn.conversation_id == self.conversation_id,
                "turn conversation_id mismatch",
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Conversation":
        conversation_id = data["conversation_id"]
        turns = tuple(
            QueryTurn(
                conversation_id=conversation_id,
                turn_index=index,
                query=turn["query"],
                ground_truth=turn.get("ground_truth"),
            )
            for index, turn in enumerate(data["turns"])
        )
        return cls(conversation_id=conversation_id, image_ref=data.get("image_ref"), turns=turns)


@dataclass(frozen=True)
class RoutingDecision:
    """The two binary routing attributes of a query."""

    needs_external: bool
    is_real_time: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "needs_external", _as_flag(self.needs_external, "needs_external"))
        object.__setattr__(self, "is_real_time", _as_flag(self.is_real_time, "is_real_time"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "needs_external": int(self.needs_external),
            "is_real_time": int(self.is_real_time),
        }


# Content fields eligible for chunking, in fixed order.
KG_CONTENT_FIELDS = ("description", "caption", "summary")
WEB_CONTENT_FIELDS = ("snippet",)


def missing_content(source: Source, fields: Mapping[str, str]) -> Optional[str]:
    """Why ``fields`` lack the content an item from ``source`` needs, or None."""
    if source is Source.KG_IMAGE:
        if not any(fields.get(k) for k in KG_CONTENT_FIELDS):
            return "kg_image item needs at least one of description/caption/summary"
    elif not fields.get("snippet"):
        return "web item must carry a snippet"
    return None


@dataclass(frozen=True)
class RetrievedItem:
    """One recall result with its named text fields and recall position."""

    source: Source
    fields: Mapping[str, str]
    recall_rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", Source(self.source))
        object.__setattr__(self, "fields", dict(self.fields))
        _require(self.recall_rank >= 1, "recall_rank must be >= 1")
        problem = missing_content(self.source, self.fields)
        if problem:
            raise ValueError(problem)

    def content_fields(self) -> tuple[str, ...]:
        return KG_CONTENT_FIELDS if self.source is Source.KG_IMAGE else WEB_CONTENT_FIELDS

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source.value,
            "fields": dict(self.fields),
            "recall_rank": self.recall_rank,
        }


@dataclass(frozen=True)
class ChunkRef:
    """Back-reference from a chunk to the item and field it came from."""

    item: RetrievedItem
    field: str

    def to_dict(self) -> dict[str, Any]:
        return {"item": self.item.to_dict(), "field": self.field}


@dataclass(frozen=True)
class ScoredChunk:
    """A single reranked paragraph."""

    text: str
    parent: ChunkRef
    score: float

    def __post_init__(self) -> None:
        _require(bool(self.text.strip()), "chunk text must be non-empty after trim")
        _require("\n" not in self.text, "chunk text must not contain newlines")
        _require(0.0 <= self.score <= 1.0, "score must be within [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return {"text": self.text, "parent": self.parent.to_dict(), "score": self.score}


def parse_context_tags(rendered: str) -> list[tuple[int, str]]:
    """Parse rendered context text back into (tag number, chunk text) pairs.

    Raises ValueError if any line is not a well-formed ``[Info m]`` line.
    """
    if rendered == "":
        return []
    parsed = []
    for line in rendered.split("\n"):
        match = _INFO_TAG.match(line)
        if match is None:
            raise ValueError(f"line is not a tagged context entry: {line!r}")
        parsed.append((int(match.group(1)), match.group(2)))
    return parsed


@dataclass(frozen=True)
class RagContext:
    """The filtered, tagged evidence block handed to generation.

    ``rendered`` (one ``[Info m] text`` line per entry in order, which
    ``parse_context_tags`` reads back) and ``retrieval_score`` (the highest
    entry score, 0.0 when empty) are derived from ``entries``.
    """

    entries: tuple[ScoredChunk, ...]
    rendered: str = field(init=False)
    threshold_used: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "rendered", "\n".join(
            f"[Info {number}] {entry.text}" for number, entry in enumerate(self.entries, start=1)
        ))
        _require(
            len(self.entries) <= MAX_CONTEXT_ENTRIES,
            f"context holds at most {MAX_CONTEXT_ENTRIES} entries",
        )
        for entry in self.entries:
            _require(
                entry.score >= self.threshold_used,
                "every context entry score must be >= threshold_used",
            )

    @property
    def empty(self) -> bool:
        return not self.entries

    @property
    def retrieval_score(self) -> float:
        return max((entry.score for entry in self.entries), default=0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "entries": [entry.to_dict() for entry in self.entries],
            "rendered": self.rendered,
            "threshold_used": self.threshold_used,
            "retrieval_score": self.retrieval_score,
        }


@dataclass(frozen=True)
class AnswerPair:
    """The grounded and the prior-knowledge answer for one turn."""

    rag_answer: str
    direct_answer: str
    consistent: Optional[bool] = None

    def __post_init__(self) -> None:
        _require(bool(self.rag_answer.strip()), "rag_answer must be non-empty")
        _require(bool(self.direct_answer.strip()), "direct_answer must be non-empty")
        if self.consistent is not None:
            object.__setattr__(self, "consistent", _as_flag(self.consistent, "consistent"))

    def with_consistency(self, consistent: bool) -> "AnswerPair":
        return replace(self, consistent=bool(consistent))

    def to_dict(self) -> dict[str, Any]:
        return {
            "rag_answer": self.rag_answer,
            "direct_answer": self.direct_answer,
            "consistent": self.consistent,
        }


class Finding(str, Enum):
    SUPPORTED = "Supported"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class SubQuestion:
    question: str
    finding: Finding

    def to_dict(self) -> dict[str, Any]:
        return {"question": self.question, "finding": self.finding.value}


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the structured verification pass over a candidate answer.

    A result with neither reasoning nor sub-questions is only legal at
    confidence 0.0 (the malformed-parse fallback).
    """

    confidence: float
    reasoning: str = ""
    sub_questions: tuple[SubQuestion, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sub_questions", tuple(self.sub_questions))
        _require(0.0 <= self.confidence <= 1.0, "confidence must be within [0, 1]")
        if self.confidence > 0.0:
            _require(
                bool(self.reasoning) or bool(self.sub_questions),
                "reasoning and sub_questions may both be empty only at confidence 0.0",
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "confidence": self.confidence,
            "reasoning": self.reasoning,
            "sub_questions": [sq.to_dict() for sq in self.sub_questions],
        }


class InvalidConfigError(ValueError):
    """A configuration field violates its declared constraint."""


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline, with their shipped defaults.

    Threshold semantics:
      score_floor         minimum reranker score a chunk must reach
      mad_scale           multiplier on the MAD term of the dynamic cutoff
      min_retrieval_score retrieval quality below which real-time turns abstain
      low_confidence      verifier score to accept a context-backed answer
      high_confidence     verifier score to accept a context-free answer
    """

    recall_k: int = 10
    rerank_k: int = 3
    score_floor: float = 0.1
    mad_scale: float = 1.5
    min_retrieval_score: float = 0.5
    low_confidence: float = 0.9
    high_confidence: float = 1.0
    turn_budget_ms: int = 10_000
    abstain_margin_ms: int = 500
    abstain_text: str = "I don't know"
    mode: str = "task1"
    prompt_paths: Mapping[str, str] = field(default_factory=dict)
    router_endpoint: Optional[str] = None
    vlm_endpoint: Optional[str] = None
    reranker_endpoint: Optional[str] = None
    web_search_endpoint: Optional[str] = None
    judge_endpoint: Optional[str] = None
    bearer_token: Optional[str] = None
    fixture_path: Optional[str] = None
    replay_path: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.prompt_paths, Mapping):
            object.__setattr__(self, "prompt_paths", dict(self.prompt_paths))

    def to_dict(self) -> dict[str, Any]:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = dict(value) if f.name == "prompt_paths" else value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        if not isinstance(data, Mapping):
            raise InvalidConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(str(key) for key in set(data) - known)
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**dict(data))


# The values each annotation of a PipelineConfig field admits; a bool is
# never a number.
_ANNOTATED_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "Optional[str]": ((str, type(None)), "a string or null"),
    "Mapping[str, str]": ((Mapping,), "an object"),
}
_CONFIG_TYPES = {f.name: _ANNOTATED_TYPES[f.type] for f in fields(PipelineConfig)}


def validate_config(cfg: PipelineConfig) -> PipelineConfig:
    """Return cfg unchanged iff every field has its declared type and every
    field constraint holds.

    Raises InvalidConfigError naming the first offending key or constraint.
    """
    for name, (types, kind) in _CONFIG_TYPES.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, types):
            raise InvalidConfigError(
                f"config key {name} must be {kind}, got {type(value).__name__}"
            )
    for name, path in cfg.prompt_paths.items():
        if name not in TEMPLATE_NAMES:
            raise InvalidConfigError(
                f"config key prompt_paths.{name} names no template "
                f"(choose from {', '.join(TEMPLATE_NAMES)})"
            )
        if not isinstance(path, str):
            raise InvalidConfigError(f"config key prompt_paths.{name} must be a string path")
    checks: Sequence[tuple[bool, str]] = (
        (cfg.recall_k >= 1, "recall_k >= 1"),
        (cfg.rerank_k >= 0, "rerank_k >= 0"),
        (cfg.rerank_k <= cfg.recall_k, "rerank_k <= recall_k"),
        (cfg.rerank_k <= MAX_CONTEXT_ENTRIES, f"rerank_k <= {MAX_CONTEXT_ENTRIES}"),
        (0.0 <= cfg.score_floor <= 1.0, "0 <= score_floor <= 1"),
        (cfg.mad_scale >= 0.0, "mad_scale >= 0"),
        (0.0 <= cfg.min_retrieval_score <= 1.0, "0 <= min_retrieval_score <= 1"),
        (0.0 <= cfg.low_confidence, "low_confidence >= 0"),
        (cfg.low_confidence <= cfg.high_confidence, "low_confidence <= high_confidence"),
        (cfg.high_confidence <= 1.0, "high_confidence <= 1"),
        (cfg.turn_budget_ms > 0, "turn_budget_ms > 0"),
        (cfg.abstain_margin_ms >= 0, "abstain_margin_ms >= 0"),
        (cfg.abstain_margin_ms < cfg.turn_budget_ms, "abstain_margin_ms < turn_budget_ms"),
        (bool(cfg.abstain_text.strip()), "abstain_text must be non-empty"),
        (cfg.mode in ("task1", "task2plus"), "mode must be task1 or task2plus"),
        (BEARER_TOKEN.fullmatch(cfg.bearer_token or "") is not None,
         "bearer_token must be visible ASCII (0x21-0x7E)"),
    )
    for ok, name in checks:
        if not ok:
            raise InvalidConfigError(f"config violates: {name}")
    return cfg
