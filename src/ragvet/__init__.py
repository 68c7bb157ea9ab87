"""ragvet: a verification-centric multimodal RAG pipeline.

Routes each query, retrieves and filters evidence with a robust dynamic
score cutoff, generates grounded and prior-knowledge answers, cross-checks
them, verifies the grounded answer, and finalizes with a rule that prefers
abstention over speculation.
"""

__version__ = "0.1.0"

from .core import (
    AnswerPair,
    Conversation,
    PipelineConfig,
    QueryTurn,
    RagContext,
    RetrievedItem,
    RoutingDecision,
    ScoredChunk,
    VerificationResult,
)
from .finalizer import Branch, FinalDecision, finalize
from .pipeline import ConversationState, TurnOutcome, run_conversation, run_turn

__all__ = [
    "__version__",
    "AnswerPair",
    "Conversation",
    "PipelineConfig",
    "QueryTurn",
    "RagContext",
    "RetrievedItem",
    "RoutingDecision",
    "ScoredChunk",
    "VerificationResult",
    "Branch",
    "FinalDecision",
    "finalize",
    "ConversationState",
    "TurnOutcome",
    "run_conversation",
    "run_turn",
]
