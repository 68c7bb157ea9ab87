"""Rule-based answer finalization: return the grounded answer or abstain.

The guards run in strict order and exactly one fires. The direct answer is
never returned; the only outputs are the grounded answer and the abstention
string. The last two abstention arms behave identically but stay distinct
in the branch enum so traces show which guard fired. Whether a decision
abstained is derived from its branch, never stored beside it.

``settled`` asks ``finalize`` whether its decision is already fixed before
every input exists, so the pipeline can skip the stages that would only
produce inputs that cannot change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import PipelineConfig

__all__ = ["Branch", "FinalDecision", "finalize", "settled"]


class Branch(str, Enum):
    REAL_TIME_LOW_RETRIEVAL = "RealTimeLowRetrieval"
    CONSISTENT_WITH_CONTEXT = "ConsistentWithContext"
    CONSISTENT_NO_CONTEXT = "ConsistentNoContext"
    INCONSISTENT_WITH_CONTEXT = "InconsistentWithContext"
    DEFAULT_ABSTAIN = "DefaultAbstain"


_ACCEPT_BRANCHES = frozenset(
    {Branch.CONSISTENT_WITH_CONTEXT, Branch.CONSISTENT_NO_CONTEXT}
)


@dataclass(frozen=True)
class FinalDecision:
    answer: str
    branch: Branch

    @property
    def abstained(self) -> bool:
        return self.branch not in _ACCEPT_BRANCHES

    def to_dict(self) -> dict:
        return {
            "answer": self.answer,
            "branch": self.branch.value,
            "abstained": self.abstained,
        }


def finalize(
    is_real_time: bool,
    s_ret: float,
    context_empty: bool,
    consistent: bool,
    s_cov: float,
    rag_answer: str,
    cfg: PipelineConfig,
) -> FinalDecision:
    """Apply the acceptance rules in order; total over s_ret, s_cov in [0, 1]."""

    def abstain(branch: Branch) -> FinalDecision:
        return FinalDecision(answer=cfg.abstain_text, branch=branch)

    def accept(branch: Branch) -> FinalDecision:
        return FinalDecision(answer=rag_answer, branch=branch)

    if is_real_time and s_ret < cfg.min_retrieval_score:
        return abstain(Branch.REAL_TIME_LOW_RETRIEVAL)
    if not context_empty and consistent and s_cov >= cfg.low_confidence:
        return accept(Branch.CONSISTENT_WITH_CONTEXT)
    if context_empty and consistent and s_cov >= cfg.high_confidence:
        return accept(Branch.CONSISTENT_NO_CONTEXT)
    if not context_empty and not consistent:
        return abstain(Branch.INCONSISTENT_WITH_CONTEXT)
    return abstain(Branch.DEFAULT_ABSTAIN)


# Values a missing input is tried at. finalize compares a score against one
# threshold at a time, so a score's two ends reach every decision that a
# value in [0, 1] reaches. A missing answer is tried as two different strings,
# so a decision that returns the answer is never settled before it exists.
_SCORE_ENDS = (0.0, 1.0)
_FLAG_VALUES = (False, True)
_PENDING_ANSWERS = ("<pending answer 1>", "<pending answer 2>")


def settled(
    cfg: PipelineConfig,
    is_real_time: bool,
    s_ret: Optional[float] = None,
    context_empty: Optional[bool] = None,
    consistent: Optional[bool] = None,
    rag_answer: Optional[str] = None,
) -> Optional[FinalDecision]:
    """The decision ``finalize`` reaches whatever the missing inputs turn out to be.

    An input passed as None is missing, and ``s_cov`` always is. Returns None
    when some value of a missing input would change the decision.
    """

    def values(known, pending):
        return pending if known is None else (known,)

    decisions = {
        finalize(is_real_time, ret, empty, agree, cov, answer, cfg)
        for ret in values(s_ret, _SCORE_ENDS)
        for empty in values(context_empty, _FLAG_VALUES)
        for agree in values(consistent, _FLAG_VALUES)
        for cov in _SCORE_ENDS
        for answer in values(rag_answer, _PENDING_ANSWERS)
    }
    return decisions.pop() if len(decisions) == 1 else None

