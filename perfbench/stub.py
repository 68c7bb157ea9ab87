"""Loopback service stub: model, rerank and web-search endpoints with modeled latency.

Run as its own process; it prints ``port <n>`` once listening on 127.0.0.1.

    python3 perfbench/stub.py --plan PLAN.json --seed N

Endpoints (all JSON):
    POST /model    ModelRequest dict       -> {text, prompt_tokens, completion_tokens, latency_ms}
    POST /rerank   {query, chunk}          -> {score}
                   {query, chunks: [...]}  -> {scores: [...]}   (one round trip)
    POST /search   {query, k}              -> {results: [...]}
    GET  /stats                            -> per-role calls, prompt tokens, service ms

Service time per request is the role's base, plus a per-prompt-token cost
(per chunk for a batch rerank), plus jitter drawn from a hash of
(seed, role, body), so it does not depend on call order. The bases keep the
ratios of the paper's stage budget split (see ``LATENCY_MS``); every figure
keeps a turn far inside the pipeline's cumulative stage deadlines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from checker import jaccard
from workloads import WEB_CHUNK_TOTALS, find_turn, model_reply, page_record

# The paper splits a turn's 10 s budget over its stages: routing 5 %,
# retrieval 30 %, generation 40 %, consistency 10 %, verification 15 %.
# Each remote call's base service time is its share of that budget, scaled
# by SCALE so that a run holds at least 200 turns. Retrieval's share is split
# evenly over its three remote parts (summarize, web search, and the rerank
# of a web turn's mean chunk count); generation's over its two answer calls.
TURN_BUDGET_MS = 10_000.0
SCALE = 0.01
SHARES = {
    "router": 0.05,
    "summarizer": 0.10,
    "search": 0.10,
    "rerank_turn": 0.10,
    "generator": 0.20,
    "consistency_judge": 0.10,
    "verifier": 0.15,
}
# Not from the paper: a prompt-size cost, so prompt growth shows, and
# jitter of a tenth of the base, both small beside the bases.
MS_PER_TOKEN = 0.002
JITTER_SHARE = 0.1


def _latency_table() -> dict[str, tuple[float, float, float]]:
    """role -> (base ms, ms per prompt token or per batched chunk, jitter ms)."""
    base = {role: share * TURN_BUDGET_MS * SCALE for role, share in SHARES.items()}
    per_chunk = base.pop("rerank_turn") / statistics.mean(WEB_CHUNK_TOTALS)
    table = {role: (ms, 0.0 if role == "search" else MS_PER_TOKEN, JITTER_SHARE * ms)
             for role, ms in base.items()}
    table["rerank"] = (per_chunk, 0.0, JITTER_SHARE * per_chunk)
    # A batch does the same scoring work as the single calls it replaces,
    # in one round trip.
    table["rerank_batch"] = (0.0, per_chunk, JITTER_SHARE * per_chunk)
    return table


LATENCY_MS = _latency_table()


def service_ms(seed: int, role: str, body: bytes, units: int) -> float:
    base, per_unit, jitter = LATENCY_MS[role]
    digest = hashlib.sha256(b"%d|%s|" % (seed, role.encode()) + body).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0**64
    return base + per_unit * units + jitter * fraction


class Stats:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_role: dict[str, dict[str, float]] = {}

    def add(self, role: str, prompt_tokens: int, service_s: float) -> None:
        with self._lock:
            row = self._by_role.setdefault(role, {"calls": 0, "prompt_tokens": 0, "service_ms": 0.0})
            row["calls"] += 1
            row["prompt_tokens"] += prompt_tokens
            row["service_ms"] += service_s * 1000.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {role: dict(row) for role, row in self._by_role.items()}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this every response waits on the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:
        pass

    def _send(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.stats.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        started = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            data = json.loads(raw)
            role, tokens, units, reply = self._answer(data)
        except (ValueError, KeyError, TypeError) as exc:
            self._send(400, {"error": str(exc)})
            return
        delay_s = service_ms(self.server.seed, role, raw, units) / 1000.0
        remaining = delay_s - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
        self.server.stats.add(role, tokens, time.perf_counter() - started)
        self._send(200, reply)

    def _answer(self, data: dict) -> tuple[str, int, int, dict]:
        plan = self.server.plan
        if self.path == "/model":
            role, user = data["role"], data["user"]
            turn = find_turn(plan, user)
            if turn is None:
                raise ValueError("no turn id in user text")
            tokens = len(data["system"].split()) + len(user.split())
            text = model_reply(turn, role, user)
            reply = {"text": text, "prompt_tokens": tokens,
                     "completion_tokens": len(text.split()), "latency_ms": 0}
            return role, tokens, tokens, reply
        if self.path == "/rerank":
            query = data["query"]
            if "chunks" in data:
                scores = [jaccard(query, chunk) for chunk in data["chunks"]]
                return "rerank_batch", 0, len(scores), {"scores": scores}
            return "rerank", 0, 0, {"score": jaccard(query, data["chunk"])}
        if self.path == "/search":
            turn = find_turn(plan, data["query"])
            pages = turn["recall"][: int(data["k"])] if turn else []
            return "search", 0, 0, {"results": [page_record(plan["pages"][p]) for p in pages]}
        raise KeyError(f"unknown endpoint {self.path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    server.seed = args.seed
    server.stats = Stats()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
