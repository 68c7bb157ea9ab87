"""Output checker, computed apart from the program under test.

For every turn it derives, from the plan alone, what the paper's pipeline
must produce: the routing, the retrieval context (paragraphs scored by this
module's own token-set Jaccard, the MAD cutoff, at most three entries), the
finalize branch, and the final answer. Trace records are compared against
that, not against saved traces, so a change that alters stage lists or call
counts still passes while branches, answers and contexts stay right.

Nothing here imports the program.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Any, Optional

from workloads import ABSTAIN_TEXT, CNC, CWC, DA, IWC, RECALL_K, RTLR, TRUTH_VALUES

SCORE_FLOOR = 0.1
MAD_SCALE = 1.5
TOP_WINDOW = 10
MAX_ENTRIES = 3
MIN_RETRIEVAL = 0.5
LOW_CONFIDENCE = 0.9
HIGH_CONFIDENCE = 1.0
ACCEPT = frozenset({CWC, CNC})
RETRIEVAL_STAGES = frozenset({"summarize", "recall", "rerank"})
KG_FIELDS = ("description", "caption", "summary")
BAD_FLAG = re.compile(r"timeout|error|failure|exhausted")

# A turn may overrun its budget by this much before it counts as late.
WALL_SLACK_MS = 250.0


def jaccard(a: str, b: str) -> float:
    left, right = set(a.lower().split()), set(b.lower().split())
    union = left | right
    return len(left & right) / len(union) if union else 0.0


def cutoff(scores: list[float]) -> float:
    """max(floor, median(top10) - 1.5 * MAD(top10)); the floor when no scores."""
    if not scores:
        return SCORE_FLOOR
    top = sorted(scores, reverse=True)[:TOP_WINDOW]
    center = statistics.median(top)
    spread = statistics.median([abs(s - center) for s in top])
    return max(SCORE_FLOOR, center - MAD_SCALE * spread)


def branch_for(is_real_time: bool, s_ret: float, has_context: bool,
               consistent: bool, confidence: float) -> str:
    """The paper's finalize rule: five guards, first match wins."""
    if is_real_time and s_ret < MIN_RETRIEVAL:
        return RTLR
    if has_context and consistent and confidence >= LOW_CONFIDENCE:
        return CWC
    if not has_context and consistent and confidence >= HIGH_CONFIDENCE:
        return CNC
    if has_context and not consistent:
        return IWC
    return DA


@dataclass(frozen=True)
class Expected:
    skipped: bool
    entries: tuple[tuple[str, float], ...]
    threshold: float
    s_ret: float
    branch: str
    answer: str

    @property
    def rendered(self) -> str:
        return "\n".join(f"[Info {m}] {text}" for m, (text, _) in enumerate(self.entries, 1))


def recalled_texts(plan: dict[str, Any], turn: dict[str, Any], conv_image: str) -> list[str]:
    """Content paragraphs of the recalled items, in recall, field, paragraph order."""
    if plan["mode"] == "task1":
        fields = [record.get(name) for record in plan["images"].get(conv_image, [])[:RECALL_K]
                  for name in KG_FIELDS]
    else:
        fields = [plan["pages"][p]["snippet"] for p in turn["recall"][:RECALL_K]]
    return [para.strip() for value in fields if value
            for para in value.split("\n") if para.strip()]


def expected_turn(plan: dict[str, Any], uid: str) -> Expected:
    turn = plan["turns"][uid]
    skipped = plan["mode"] == "task2plus" and not turn["needs_external"]
    entries: tuple[tuple[str, float], ...] = ()
    threshold = SCORE_FLOOR
    if not skipped:
        expanded = f"{turn['query']} {turn['summary']}" if turn["summary"] else turn["query"]
        image = plan["conversations_by_id"][turn["cid"]]["image"]
        scored = [(text, jaccard(expanded, text))
                  for text in recalled_texts(plan, turn, image)]
        threshold = cutoff([score for _, score in scored])
        kept = [pair for pair in scored if pair[1] >= threshold]
        kept.sort(key=lambda pair: -pair[1])
        entries = tuple(kept[:MAX_ENTRIES])
    s_ret = max((score for _, score in entries), default=0.0)
    branch = branch_for(turn["is_real_time"], s_ret, bool(entries),
                        turn["consistent"], turn["confidence"])
    answer = turn["answer"] if branch in ACCEPT else ABSTAIN_TEXT
    return Expected(skipped, entries, threshold, s_ret, branch, answer)


def index_plan(plan: dict[str, Any]) -> dict[str, Any]:
    """Add the lookups the checker needs (conversation by id, turn by key)."""
    plan["conversations_by_id"] = {conv["cid"]: conv for conv in plan["conversations"]}
    plan["turn_by_key"] = {(t["cid"], t["index"]): uid for uid, t in plan["turns"].items()}
    return plan


def check_plan(plan: dict[str, Any]) -> list[str]:
    """The generator's promises: branch mix as intended, query tokens private to the turn."""
    problems = []
    owners: dict[str, set[str]] = {}
    for page_id, page in plan["pages"].items():
        for token in f"{page['title']} {page['snippet']}".split():
            owners.setdefault(token, set()).add(page["owner"])
    for uid, turn in plan["turns"].items():
        expected = expected_turn(plan, uid)
        if expected.branch != turn["branch"]:
            problems.append(f"{uid}: plan intends {turn['branch']}, rule gives {expected.branch}")
        for token in f"{turn['query']} {turn['summary']}".split():
            foreign = owners.get(token, set()) - {uid}
            if foreign:
                problems.append(f"{uid}: query token {token} also on pages of {sorted(foreign)}")
    return problems


def check_record(plan: dict[str, Any], record: dict[str, Any], wall_ms: float,
                 budget_ms: float, cache: Optional[dict[str, Expected]] = None) -> list[str]:
    """Every way one trace record departs from the independent expectation."""
    key = (record.get("conversation_id"), record.get("turn_index"))
    uid = plan["turn_by_key"].get(key)
    if uid is None:
        return [f"{key}: not a planned turn"]
    if cache is not None and uid in cache:
        exp = cache[uid]
    else:
        exp = expected_turn(plan, uid)
        if cache is not None:
            cache[uid] = exp
    turn = plan["turns"][uid]
    problems = []

    def differ(what: str, got: Any, want: Any) -> None:
        if got != want:
            problems.append(f"{uid}: {what} is {got!r}, expected {want!r}")

    final = record.get("final") or {}
    differ("branch", final.get("branch"), exp.branch)
    differ("final answer", final.get("answer"), exp.answer)
    differ("abstained", final.get("abstained"), exp.branch not in ACCEPT)
    differ("routing", record.get("routing"),
           {"needs_external": int(turn["needs_external"]),
            "is_real_time": int(turn["is_real_time"])})
    context = record.get("context") or {}
    differ("context", context.get("rendered"), exp.rendered)
    differ("context scores", [e.get("score") for e in context.get("entries", [])],
           [score for _, score in exp.entries])
    differ("threshold", context.get("threshold_used"), exp.threshold)
    differ("retrieval score", context.get("retrieval_score"), exp.s_ret)
    stages = set(record.get("stages", []))
    flags = set(record.get("flags", []))
    if "route" not in stages:
        problems.append(f"{uid}: route stage missing")
    differ("retrieval_skipped", "retrieval_skipped" in flags, exp.skipped)
    differ("retrieval stages ran", bool(stages & RETRIEVAL_STAGES), not exp.skipped)
    bad = sorted(flag for flag in flags if BAD_FLAG.search(flag))
    if bad:
        problems.append(f"{uid}: degradation flags {bad}")
    if wall_ms > budget_ms + WALL_SLACK_MS:
        problems.append(f"{uid}: wall time {wall_ms:.1f} ms over the {budget_ms:.0f} ms budget")
    return problems


def plan_truthfulness(plan: dict[str, Any], uids: list[str],
                      cache: Optional[dict[str, Expected]] = None) -> float:
    """Truthfulness the plan implies: abstentions score 0, accepted answers by truth kind."""
    counts = {"perfect": 0, "acceptable": 0, "incorrect": 0}
    for uid in uids:
        exp = cache[uid] if cache and uid in cache else expected_turn(plan, uid)
        if exp.branch in ACCEPT:
            counts[plan["turns"][uid]["truth_kind"]] += 1
    total = sum(TRUTH_VALUES[kind] * count for kind, count in counts.items())
    return total / len(uids)
