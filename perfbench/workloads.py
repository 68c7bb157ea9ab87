"""Seeded workload generator and the plan every other benchmark part reads.

A plan fixes, for every turn, what the model services will say (routing,
summary, both answers, the consistency verdict, the verifier confidence),
the ground truth, and the evidence the turn can recall. The program under
test only ever sees the files written from a plan: dataset, config, search
fixture. The stub and the checker read the plan itself.

Every token is synthetic and belongs to one turn, one image or the shared
filler vocabulary, so token-set Jaccard scores are fixed by construction:

    expanded query E = query + summary            (6 tokens on web turns)
    gold paragraph     shares 5 of E, 1 filler    -> 5/7  = 0.714
    partial paragraph  shares 2 of E, 4 fillers   -> 2/10 = 0.2
    weak paragraph     shares 1 of E, 8 fillers   -> 1/14 = 0.071 (< floor)
    noise paragraph    fillers only               -> 0

Turn ids are fixed-width (``u000123``), so no id is a substring of another
and the stub finds each request's turn by its id alone.

Pass composition is fixed per workload; the seed only shuffles turn order,
picks tokens and places paragraphs. Every pass therefore makes the same
number of calls, whatever the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

WORKLOADS = ("web_rag_remote", "kg_multiturn_remote")

ABSTAIN_TEXT = "I don't know"
RECALL_K = 10

# Branch names as the paper's finalize rule labels them.
CWC = "ConsistentWithContext"
CNC = "ConsistentNoContext"
RTLR = "RealTimeLowRetrieval"
IWC = "InconsistentWithContext"
DA = "DefaultAbstain"

UID = re.compile(r"\bu\d{6}\b")

FILLER_WORDS = tuple(f"w{i:04d}" for i in range(2000))


@dataclass(frozen=True)
class Spec:
    """One turn's shape: routing, evidence, verdicts and intended branch."""

    needs_external: bool
    is_real_time: bool
    evidence: str  # web: "gold" | "weak" | "none"; kg: "kg" | "none"
    consistent: bool
    confidence: float
    branch: str


def _spec(ne: int, rt: int, evidence: str, consistent: bool, confidence: float,
          branch: str, count: int) -> list[Spec]:
    return [Spec(bool(ne), bool(rt), evidence, consistent, confidence, branch)] * count


# Twenty task2plus turns covering all five finalize branches; 16 of 20 route
# to web retrieval.
WEB_UNIT = (
    _spec(1, 0, "gold", True, 1.0, CWC, 5)
    + _spec(1, 0, "gold", True, 0.95, CWC, 2)
    + _spec(1, 0, "gold", True, 0.9, CWC, 1)
    + _spec(1, 1, "gold", True, 1.0, CWC, 2)
    + _spec(0, 0, "none", True, 1.0, CNC, 2)
    + _spec(1, 1, "weak", True, 1.0, RTLR, 2)
    + _spec(0, 1, "none", True, 1.0, RTLR, 1)
    + _spec(1, 0, "gold", False, 1.0, IWC, 3)
    + _spec(1, 0, "gold", True, 0.5, DA, 1)
    + _spec(0, 0, "none", True, 0.95, DA, 1)
)

# Ten task1 turns: mostly agreeing answers grounded in the image's KG record.
KG_UNIT = (
    _spec(1, 0, "kg", True, 1.0, CWC, 4)
    + _spec(1, 0, "kg", True, 0.9, CWC, 2)
    + _spec(1, 0, "none", True, 1.0, CNC, 1)
    + _spec(1, 1, "kg", True, 1.0, RTLR, 1)
    + _spec(1, 0, "kg", False, 1.0, IWC, 1)
    + _spec(1, 0, "kg", True, 0.7, DA, 1)
)

# Chunks per web turn (10 pages of 1-3 paragraphs), cycled over retrieval turns.
WEB_CHUNK_TOTALS = (15, 18, 20, 22, 24, 26, 28, 30)

TRUTH_KINDS = ("perfect", "perfect", "perfect", "acceptable", "incorrect")
TRUTH_VALUES = {"perfect": 1.0, "acceptable": 0.5, "incorrect": -1.0}


@dataclass(frozen=True)
class Shape:
    """Per-pass make-up of one workload."""

    mode: str
    unit: tuple[Spec, ...]
    units: int
    conversation_lengths: tuple[int, ...]
    noise_images: int = 0  # KG images no conversation shows
    kg_fields: tuple[int, ...] = ()


SHAPES = {
    "web_rag_remote": Shape("task2plus", tuple(WEB_UNIT), 2, (1, 1, 2)),
    "kg_multiturn_remote": Shape("task1", tuple(KG_UNIT), 6, (4, 5, 6, 7, 8),
                                 noise_images=600, kg_fields=(1, 2, 3)),
}


def _uid(n: int) -> str:
    return f"u{n:06d}"


def _split_lengths(total: int, lengths: tuple[int, ...]) -> list[int]:
    """Cut ``total`` turns into conversations cycling through ``lengths``."""
    out, i = [], 0
    while total > 0:
        size = min(lengths[i % len(lengths)], total)
        out.append(size)
        total -= size
        i += 1
    return out


class _Builder:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.shape = SHAPES[name]
        self.seed = seed
        self.rng = random.Random(f"{name}:{seed}")
        self.pages: dict[str, dict[str, Any]] = {}
        self.images: dict[str, list[dict[str, str]]] = {}

    def fillers(self, count: int) -> list[str]:
        return self.rng.sample(FILLER_WORDS, count)

    def paragraph(self, kind: str, evidence_tokens: list[str]) -> str:
        if kind == "gold":
            words = list(evidence_tokens) + self.fillers(1)
        elif kind == "partial":
            words = self.rng.sample(evidence_tokens, 2) + self.fillers(4)
        elif kind == "weak":
            words = self.rng.sample(evidence_tokens, 1) + self.fillers(8)
        elif kind == "long":
            words = self.fillers(self.rng.randint(16, 20))
        else:
            words = self.fillers(self.rng.randint(4, 9))
        self.rng.shuffle(words)
        return " ".join(words)

    def add_page(self, key: str, paragraphs: list[str]) -> str:
        page_id = f"p{len(self.pages):06d}"
        self.pages[page_id] = {
            "title": f"title{page_id}",
            "url": f"https://bench.test/{page_id}",
            "last_updated": "2025-05-01",
            "snippet": "\n".join(paragraphs),
            "owner": key,
        }
        return page_id

    def web_pages(self, key: str, evidence: str, total_chunks: int,
                  evidence_tokens: list[str]) -> list[str]:
        """Ten recall pages holding ``total_chunks`` paragraphs.

        Each page carries exactly one paragraph that overlaps the query, in
        shuffled page order and place, so chunk order differs from score
        order and a context that is not sorted by score shows.
        """
        overlapping = (["gold"] if evidence == "gold" else ["partial"]) + ["partial"] * 3
        overlapping += ["weak"] * (RECALL_K - len(overlapping))
        self.rng.shuffle(overlapping)
        counts = [3 if kind == "gold" else 1 for kind in overlapping]
        while sum(counts) < total_chunks:
            i = self.rng.randrange(RECALL_K)
            if counts[i] < 3:
                counts[i] += 1
        recall = []
        for kind, count in zip(overlapping, counts):
            padding = "long" if kind == "gold" else "noise"
            paragraphs = [self.paragraph(kind, evidence_tokens)]
            paragraphs += [self.paragraph(padding, evidence_tokens) for _ in range(count - 1)]
            self.rng.shuffle(paragraphs)
            recall.append(self.add_page(key, paragraphs))
        return recall

    def build(self) -> dict[str, Any]:
        shape = self.shape
        # Shuffled within each unit, so every stretch of the pass has the same
        # mix and the cost of a pass hardly depends on the seed.
        specs = []
        for _ in range(shape.units):
            unit = list(shape.unit)
            self.rng.shuffle(unit)
            specs.extend(unit)
        lengths = _split_lengths(len(specs), shape.conversation_lengths)
        conversations = []
        turns: dict[str, dict[str, Any]] = {}
        chunk_cycle = 0
        n = 0
        for c, length in enumerate(lengths):
            cid = f"c{c:04d}"
            image = f"img{c:04d}"
            image_tokens = [f"k{c:04d}{letter}" for letter in "abcdef"]
            # A grounded KG question asks about three of the image's six
            # tokens. The description holds all three (score 3/9), the caption
            # two (2/10), the summary none, so the kept entries per field
            # count are fixed: 1 -> 1, 2 -> 2, 3 -> 2.
            self.rng.shuffle(image_tokens)
            asked, unasked = image_tokens[:3], image_tokens[3:]
            if shape.mode == "task1":
                held = {"description": asked, "caption": asked[:2] + unasked[:1],
                        "summary": unasked}
                record = {}
                for field in list(held)[: shape.kg_fields[c % len(shape.kg_fields)]]:
                    words = held[field] + self.fillers(3)
                    self.rng.shuffle(words)
                    record[field] = " ".join(words)
                self.images[image] = [record]
            conv_turns = []
            for index in range(length):
                spec = specs[n]
                uid = _uid(n)
                digits = uid[1:]
                topic = [f"q{digits}{x}" for x in "abc"]
                summary = [f"s{digits}{x}" for x in "ab"]
                if spec.evidence == "kg":
                    topic = topic[:1] + asked[:2]
                    summary = summary[:1] + asked[2:]
                query = " ".join([uid] + topic)
                truth_kind = TRUTH_KINDS[n % len(TRUTH_KINDS)]
                answer = f"ans{digits} grounded{digits}"
                ground_truth = {
                    "perfect": answer,
                    "acceptable": f"{answer} extra{digits}",
                    "incorrect": f"truth{digits} other{digits}",
                }[truth_kind]
                turn = {
                    "cid": cid,
                    "index": index,
                    "uid": uid,
                    "query": query,
                    "summary": " ".join(summary),
                    "needs_external": spec.needs_external,
                    "is_real_time": spec.is_real_time,
                    "consistent": spec.consistent,
                    "confidence": spec.confidence,
                    "answer": answer,
                    "direct": f"ans{digits} prior{digits}",
                    "ground_truth": ground_truth,
                    "truth_kind": truth_kind,
                    "branch": spec.branch,
                    "evidence": spec.evidence,
                    "recall": [],
                }
                if shape.mode == "task2plus" and spec.needs_external:
                    total = WEB_CHUNK_TOTALS[chunk_cycle % len(WEB_CHUNK_TOTALS)]
                    chunk_cycle += 1
                    turn["recall"] = self.web_pages(
                        uid, spec.evidence, total, topic + summary)
                turns[uid] = turn
                conv_turns.append(turn)
                n += 1
            conversations.append({"cid": cid, "image": image, "turns": [t["uid"] for t in conv_turns]})
        for i in range(shape.noise_images):
            fields = ("description", "caption", "summary")[: self.rng.randint(1, 3)]
            self.images[f"other{i:04d}"] = [{f: self.paragraph("noise", []) for f in fields}]
        return {
            "workload": self.name,
            "seed": self.seed,
            "mode": shape.mode,
            "conversations": conversations,
            "turns": turns,
            "pages": self.pages,
            "images": self.images,
        }


def build_plan(name: str, seed: int) -> dict[str, Any]:
    """The full plan of one pass of ``name`` under ``seed``."""
    if name not in SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _Builder(name, seed).build()


# ---------------------------------------------------------------------------
# What the model services answer.


def find_turn(plan: dict[str, Any], user: str) -> Optional[dict[str, Any]]:
    """The turn a request belongs to: the last turn id in its user text.

    Only queries carry turn ids, and the current question comes after any
    history block, so the last id is the current turn.
    """
    ids = UID.findall(user)
    return plan["turns"].get(ids[-1]) if ids else None


def model_reply(turn: dict[str, Any], role: str, user: str) -> str:
    yes_no = {True: "yes", False: "no"}
    if role == "router":
        return (f"1. Needs External Info: {yes_no[turn['needs_external']]}\n"
                f"2. Is Real-Time: {yes_no[turn['is_real_time']]}")
    if role == "summarizer":
        return turn["summary"]
    if role == "generator":
        return turn["answer"] if "Context:\n" in user else turn["direct"]
    if role == "consistency_judge":
        return yes_no[turn["consistent"]]
    if role == "verifier":
        return (f"CONFIDENCE: {turn['confidence']}\n"
                f"REASONING: scripted check of {turn['uid']}.\n"
                f"SUB-QUESTIONS: Q1: is {turn['uid']} answered?, Finding: Supported")
    raise ValueError(f"unknown role {role!r}")


def page_record(page: dict[str, Any]) -> dict[str, str]:
    return {key: page[key] for key in ("title", "url", "last_updated", "snippet")}


# ---------------------------------------------------------------------------
# Files the program reads.


def write_dataset(plan: dict[str, Any], path: Path) -> None:
    lines = []
    for conv in plan["conversations"]:
        turns = [plan["turns"][uid] for uid in conv["turns"]]
        lines.append(json.dumps({
            "conversation_id": conv["cid"],
            "image_ref": conv["image"],
            "turns": [{"query": t["query"], "ground_truth": t["ground_truth"]} for t in turns],
            "domain": "bench",
            "query_type": "synthetic",
        }))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fixture(plan: dict[str, Any], path: Path) -> None:
    """Search fixture: KG records per image, and the web pages as a web index.

    The program loads the whole fixture at set-up; its web searches go to the
    stub, which serves the same pages from the plan.
    """
    fixture = {
        "image_index": {image: [{**record, "score": 0.5} for record in records]
                        for image, records in plan["images"].items()},
        "web_index": [{**page_record(page), "score": 0.5} for page in plan["pages"].values()],
    }
    path.write_text(json.dumps(fixture), encoding="utf-8")
