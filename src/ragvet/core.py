"""Shared domain types for the pipeline.

Every type validates its invariants at construction time and is immutable
afterwards, so instances can be shared freely across concurrent turns.

Each fact is stored once. A value that follows from others is computed,
never passed in: ``RagContext.rendered`` and ``RagContext.retrieval_score``
are derived from its entries. The image belongs to the conversation
(``Conversation.image_ref``), not to each of its turns.

Every input file is read by one of two readers: ``read_json`` for a file
that holds one JSON document, ``read_jsonl`` for a file of JSON lines. Both,
and ``transport`` for each reply, decode JSON text with ``decode_json``, which
alone calls ``json.loads`` and rejects the escape of a lone surrogate
(``check_surrogates``).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence
from urllib.parse import urlsplit

from .templates import TEMPLATE_NAMES

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
    "ReplyParseError",
    "MODES",
    "missing_content",
    "BEARER_TOKEN",
    "check_endpoint_url",
    "check_surrogates",
    "decode_json",
    "read_json",
    "read_jsonl",
]

# The most entries a context holds: rerank_k's upper bound and its default.
MAX_CONTEXT_ENTRIES = 3

# The largest turn budget, a day (the paper's is 10 s). A budget of 10**13 ms
# would overflow the timeout a remote call sets on its socket.
MAX_TURN_BUDGET_MS = 86_400_000

# The pipeline's modes, the default first: task1 looks the conversation's
# image up in the knowledge graph, task2plus may search the web.
MODES = ("task1", "task2plus")

# A UTF-16 surrogate code point, which no UTF-8 text holds: what the JSON
# escape of a lone surrogate decodes to, and what os.environ makes of a
# byte that is not UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")

# In JSON text, an escaped backslash or, in group 1, the escape of a UTF-16
# surrogate (\ud800-\udfff). Matching escaped backslashes keeps "\\ud800", a
# backslash and five letters, from reading as an escape.
_SURROGATE_ESCAPE = re.compile(r"\\(?:\\|u([dD][89a-fA-F][0-9a-fA-F]{2}))")

# A bearer token: visible ASCII (0x21-0x7E), sent in the Authorization header as it is.
BEARER_TOKEN = re.compile(r"[\x21-\x7e]*")

# A URL whose authority, after "//" and up to the first "/", "?" or "#",
# holds an "@": user info, such as a user name and password.
_USER_INFO = re.compile(r"[^/?#]*//[^/?#]*@")

# A character an endpoint URL may not hold: one outside ASCII, a space or a
# control character.
_NOT_URL_TEXT = re.compile(r"[^\x21-\x7e]")


def check_endpoint_url(url: str, name: str, error: type[Exception]) -> None:
    """Raise ``error`` about ``name`` unless a remote call can use ``url``: an
    http:// or https:// URL with a host, no user info and, if it names one, a
    port from 1 to 65535, in ASCII without spaces or control characters.

    The message does not echo the URL: its user info may hold a password.
    """
    if _USER_INFO.match(url):
        raise error(f"{name} must not carry user info in its URL; "
                    "set the credential as bearer_token")
    try:
        parts = urlsplit(url)
        usable = (parts.scheme in ("http", "https") and bool(parts.hostname)
                  and parts.port != 0 and not _NOT_URL_TEXT.search(url))
    except ValueError:  # a port that is not a number up to 65535, or a broken IPv6 host
        usable = False
    if not usable:
        raise error(f"{name} must be an http:// or https:// URL with a host and, if any, "
                    "a port from 1 to 65535, in ASCII without spaces or control characters")


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
# The content rule: an item needs one non-empty field of its source's
# content fields, or it has this problem.
_CONTENT_RULES = {
    Source.KG_IMAGE: (KG_CONTENT_FIELDS,
                      "kg_image item needs at least one of description/caption/summary"),
    Source.WEB: (WEB_CONTENT_FIELDS, "web item must carry a snippet"),
}


def missing_content(source: Source, fields: Mapping[str, str]) -> Optional[str]:
    """Why ``fields`` lack the content an item from ``source`` needs, or None.

    ``load_fixture`` calls this once per record, so it loops rather than
    building a generator."""
    names, problem = _CONTENT_RULES[source]
    for name in names:
        if fields.get(name):
            return None
    return problem


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
        return _CONTENT_RULES[self.source][0]

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


@dataclass(frozen=True)
class RagContext:
    """The filtered, tagged evidence block handed to generation.

    ``rendered`` (one ``[Info m] text`` line per entry in order) and
    ``retrieval_score`` (the highest entry score, 0.0 when empty) are derived
    from ``entries``.
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


class ReplyParseError(ValueError):
    """A model reply does not parse; ``pipeline._Turn.stage`` flags it and falls back."""


# The values each annotation of a PipelineConfig field admits; a bool is
# never a number.
_ANNOTATED_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "Optional[str]": ((str, type(None)), "a string or null"),
    "Mapping[str, str]": ((Mapping,), "an object"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline, with their shipped defaults.

    A config that exists is valid: construction, ``from_dict`` and
    ``dataclasses.replace`` all raise InvalidConfigError naming the first
    field of the wrong type or the first constraint that fails.

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
    mode: str = MODES[0]
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
        for f in fields(self):
            types, kind = _ANNOTATED_TYPES[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise InvalidConfigError(
                    f"config key {f.name} must be {kind}, got {type(value).__name__}"
                )
            # 1e400 decodes to inf, and an integer past a float's range
            # overflows the first float product it enters; NaN fails any comparison.
            if f.type == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
                raise InvalidConfigError(
                    f"config key {f.name} must be a finite number within a float's range"
                )
            if isinstance(value, str) and _SURROGATE.search(value):
                raise InvalidConfigError(f"config key {f.name} holds a lone surrogate, not text")
        object.__setattr__(self, "prompt_paths", dict(self.prompt_paths))
        for name, path in self.prompt_paths.items():
            if name not in TEMPLATE_NAMES:
                raise InvalidConfigError(
                    f"config key prompt_paths.{name} names no template "
                    f"(choose from {', '.join(TEMPLATE_NAMES)})"
                )
            if not isinstance(path, str) or _SURROGATE.search(path):
                raise InvalidConfigError(f"config key prompt_paths.{name} must be a string path")
        checks: Sequence[tuple[bool, str]] = (
            (self.recall_k >= 1, "recall_k >= 1"),
            (self.rerank_k >= 0, "rerank_k >= 0"),
            (self.rerank_k <= self.recall_k, "rerank_k <= recall_k"),
            (self.rerank_k <= MAX_CONTEXT_ENTRIES, f"rerank_k <= {MAX_CONTEXT_ENTRIES}"),
            (0.0 <= self.score_floor <= 1.0, "0 <= score_floor <= 1"),
            (self.mad_scale >= 0.0, "mad_scale >= 0"),
            (0.0 <= self.min_retrieval_score <= 1.0, "0 <= min_retrieval_score <= 1"),
            (0.0 <= self.low_confidence, "low_confidence >= 0"),
            (self.low_confidence <= self.high_confidence, "low_confidence <= high_confidence"),
            (self.high_confidence <= 1.0, "high_confidence <= 1"),
            (self.turn_budget_ms > 0, "turn_budget_ms > 0"),
            (self.turn_budget_ms <= MAX_TURN_BUDGET_MS, f"turn_budget_ms <= {MAX_TURN_BUDGET_MS}"),
            (self.abstain_margin_ms >= 0, "abstain_margin_ms >= 0"),
            (self.abstain_margin_ms < self.turn_budget_ms, "abstain_margin_ms < turn_budget_ms"),
            (bool(self.abstain_text.strip()), "abstain_text must be non-empty"),
            (self.mode in MODES, f"mode must be {' or '.join(MODES)}"),
            (BEARER_TOKEN.fullmatch(self.bearer_token or "") is not None,
             "bearer_token must be visible ASCII (0x21-0x7E)"),
        )
        for ok, name in checks:
            if not ok:
                raise InvalidConfigError(f"config violates: {name}")
        for f in fields(self):
            url = getattr(self, f.name)
            if f.name.endswith("_endpoint") and url:
                check_endpoint_url(url, f"config key {f.name}", InvalidConfigError)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        if not isinstance(data, Mapping):
            raise InvalidConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(str(key) for key in set(data) - known)
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**dict(data))


def _read_text(path: str | Path, error: type[Exception]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc


def check_surrogates(text: str) -> None:
    """Raise json.JSONDecodeError, a ValueError, at the first escape of a
    lone UTF-16 surrogate in the JSON ``text``: ``json.loads`` decodes one to
    a string that no UTF-8 file can hold. A high surrogate escape directly
    followed by a low one is a pair, one character."""
    if "\\" not in text:  # no escape at all, found at memchr speed: the common case
        return
    lone = high = None  # high: a high surrogate escape no low one has followed yet
    for match in _SURROGATE_ESCAPE.finditer(text):
        low = match[1] is not None and match[1][1] in "cdefCDEF"
        if high is not None and low and match.start() == high.end():
            high = None
        elif high is not None or low:
            lone = high or match
            break
        elif match[1] is not None:
            high = match
    lone = lone or high
    if lone is not None:
        raise json.JSONDecodeError(f"lone surrogate escape {lone[0]}", text, lone.start())


def _not_json(constant: str) -> Any:
    raise ValueError(f"{constant} is not a JSON value")


def decode_json(text: str) -> Any:
    """The JSON value in ``text``; ValueError if there is none, as when it is
    nested too deeply for the decoder, holds ``NaN`` or ``Infinity``, which
    Python's decoder would read as numbers, or a string holds the escape of a
    lone surrogate, which no UTF-8 output could write."""
    try:
        value = json.loads(text, parse_constant=_not_json)
        check_surrogates(text)
        return value
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise ValueError(f"invalid JSON: {exc}") from None


def read_json(path: str | Path, error: type[Exception]) -> Any:
    """The JSON document in the file at ``path``; ``error`` naming the file
    if it cannot be read, is not UTF-8 or holds no JSON document."""
    text = _read_text(path, error)
    try:
        return decode_json(text)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path, error: type[Exception],
               check: Callable[[Any], Any] = lambda record: record) -> list[tuple[int, Any]]:
    """The line number and ``check(record)`` of each non-blank line of the
    JSONL file at ``path``, in file order.

    ``error`` names the file if it cannot be read or is not UTF-8, or else
    names in one message every line that is not JSON or that ``check``
    rejects with a KeyError, TypeError or ValueError.
    """
    checked, problems = [], []
    # JSONL separates records by "\n" alone: str.splitlines would also break a
    # line at a raw U+2028, U+2029 or U+0085, which JSON allows inside a string.
    for number, line in enumerate(_read_text(path, error).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            checked.append((number, check(decode_json(line))))
        except KeyError as exc:
            problems.append(f"line {number}: missing key {exc.args[0]!r}")
        except (TypeError, ValueError) as exc:
            problems.append(f"line {number}: {exc}")
    if problems:
        raise error(f"{path} has bad lines: " + "; ".join(problems))
    return checked
