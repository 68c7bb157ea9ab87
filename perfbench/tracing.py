"""Spans around the calls into each ragvet layer, recorded from outside the program.

The tracer replaces the layer functions where ``ragvet.pipeline`` looks them
up, ``PromptTemplate.build``, the loaders the set-up calls, and every field
of the ``Backends`` bundle. Spans (name, start, end, parent, turn) stay in
memory until ``write``.

A name a later refactor removes is listed as not traced; it never raises,
and the metrics read from it are left out rather than reported as 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

# (module, attribute) pairs wrapped in place; span name is "<layer>.<function>".
PIPELINE_LAYERS = (
    ("router", "route"),
    ("retrieval", "summarize_image"),
    ("retrieval", "recall"),
    ("retrieval", "rerank"),
    ("retrieval", "dynamic_threshold"),
    ("retrieval", "build_context"),
    ("generation", "generate_rag"),
    ("generation", "generate_direct"),
    ("generation", "check_consistency"),
    ("verification", "verify"),
    ("finalizer", "finalize"),
)
SETUP_LOADERS = (
    ("ragvet.cli", "load_fixture", "backends.load_fixture"),
)
BACKEND_FIELDS = ("router_model", "vlm", "reranker", "search")
MODEL_ROLES = ("router", "summarizer", "generator", "consistency_judge", "verifier")
TURN = "pipeline.run_turn"
MODEL_FIELDS = ("backends.router_model", "backends.vlm")
ALL_FIELDS = tuple(f"backends.{field}" for field in BACKEND_FIELDS)
# Traced names each metric reads, where the metric's own name does not start
# with them; a metric is also read from every traced name its name starts with.
SOURCES = {
    **{f"backends.{role}.{kind}": MODEL_FIELDS for role in MODEL_ROLES
       for kind in ("calls_per_turn", "wait_ms_per_call", "prompt_tokens_per_call")},
    "backends.http.overhead_ms_per_call": ALL_FIELDS,
    "retrieval.chunks_per_turn": ("retrieval.rerank",),
    "retrieval.kept_per_reranked": ("retrieval.rerank",),
    "generation.dual_path.ms_per_turn": ("generation.generate_rag", "generation.generate_direct"),
    "pipeline.serial_wait_ms_per_turn": ALL_FIELDS,
    "pipeline.overlap_ratio": ALL_FIELDS,
    "pipeline.wasted_model_calls_per_turn": MODEL_FIELDS,
}


def _module(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, Optional[int], Optional[int], dict]] = []
        self.not_traced: list[str] = []
        self.turn: Optional[int] = None
        self.turn_span: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[[tuple], dict]] = None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1][0] if stack else tracer.turn_span
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args) if attrs else {}
                tracer.spans.append((sid, name, start, end, parent, tracer.turn, extra))

        return traced

    def run_turn(self, turn_id: int, fn: Callable, *args: Any) -> Any:
        """Call ``fn`` as the root span of turn ``turn_id``."""
        sid = next(self._ids)
        self.turn, self.turn_span = turn_id, sid
        stack = self._stack()
        stack.append((sid, TURN))
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, TURN, start, end, None, turn_id, {}))
            self.turn = self.turn_span = None

    def _patch(self, owner: Any, attr: str, label: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.not_traced.append(label)
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap the pipeline's layer lookups and ``PromptTemplate.build``."""
        pipeline = _module("ragvet.pipeline")
        for layer, fn in PIPELINE_LAYERS:
            name = f"{layer}.{fn}"
            attrs = _rerank_attrs if fn == "rerank" else None
            self._patch(pipeline, fn, name, lambda f, n=name, a=attrs: self.wrap(f, n, a))
        templates = _module("ragvet.templates")
        self._patch(getattr(templates, "PromptTemplate", None), "build", "templates.build",
                    lambda f: self.wrap(f, "templates.build"))

    def install_loaders(self) -> None:
        for module, attr, name in SETUP_LOADERS:
            self._patch(_module(module), attr, name, lambda f, n=name: self.wrap(f, n))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap_backends(self, bundle: Any) -> Any:
        """A copy of the ``Backends`` bundle whose every field is traced."""
        present = {field.name for field in dataclasses.fields(bundle)}
        self.not_traced.extend(f"backends.{name}" for name in BACKEND_FIELDS
                               if name not in present)
        return dataclasses.replace(bundle, **{
            field.name: _BackendProxy(self, getattr(bundle, field.name), field.name)
            for field in dataclasses.fields(bundle)
        })

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for sid, name, start, end, parent, turn, attrs in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "turn": turn, **attrs}) + "\n")


def _rerank_attrs(args: tuple) -> dict:
    try:
        return {"chunks": len(args[1])}
    except (IndexError, TypeError):
        return {}


def _request_attrs(args: tuple) -> dict:
    request = args[0] if args else None
    role = getattr(getattr(request, "role", None), "value", None)
    if role is None:
        return {}
    return {"role": role, "prompt_tokens": len(request.system.split()) + len(request.user.split())}


class _BackendProxy:
    """Times every public method call on one backend as a ``backends.<field>.<method>`` span."""

    def __init__(self, tracer: Tracer, inner: Any, field: str):
        self._tracer = tracer
        self._inner = inner
        self._field = field

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr
        wrapped = self._tracer.wrap(attr, f"backends.{self._field}.{name}", _request_attrs)
        setattr(self, name, wrapped)
        return wrapped


# ---------------------------------------------------------------------------
# Per-layer figures


def _union_ms(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total * 1000.0


def self_times(spans: list[tuple]) -> dict[str, tuple[int, float, float]]:
    """name -> (count, total ms, self ms); self time excludes the union of child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, name, start, end, parent, turn, attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, parent, turn, attrs in spans:
        row = table[name]
        row[0] += 1
        row[1] += (end - start) * 1000.0
        row[2] += (end - start) * 1000.0 - _union_ms(children.get(sid, []))
    return {name: (int(c), total, own) for name, (c, total, own) in table.items()}


def layer_metrics(tracer: Tracer, turns: dict[int, dict[str, Any]],
                  setup_ms: dict[str, float], service_ms: float) -> dict[str, float]:
    """Every per-layer metric from one traced run whose layer is traced.

    ``turns`` maps turn id to {"branch", "entries"}; ``service_ms`` is the
    stub's reported service time over the traced run. A count for a layer
    that did no work on this workload reads 0.
    """
    n_turns = max(1, len(turns))
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)

    def ms(span: tuple) -> float:
        return (span[3] - span[2]) * 1000.0

    def per_turn(name: str) -> float:
        return sum(ms(s) for s in by_name.get(name, ())) / n_turns

    def per_call_us(name: str) -> float:
        spans = by_name.get(name, ())
        return sum(ms(s) for s in spans) * 1000.0 / len(spans) if spans else 0.0

    out: dict[str, float] = {}
    model_calls = [s for name in ("backends.router_model.complete", "backends.vlm.complete")
                   for s in by_name.get(name, ())]
    for role in MODEL_ROLES:
        calls = [s for s in model_calls if s[6].get("role") == role]
        out[f"backends.{role}.calls_per_turn"] = len(calls) / n_turns
        out[f"backends.{role}.wait_ms_per_call"] = (
            sum(ms(s) for s in calls) / len(calls) if calls else 0.0)
        out[f"backends.{role}.prompt_tokens_per_call"] = (
            sum(s[6]["prompt_tokens"] for s in calls) / len(calls) if calls else 0.0)
    rerank_calls = [s for name, spans in by_name.items()
                    if name.startswith("backends.reranker.") for s in spans]
    out["backends.reranker.calls_per_turn"] = len(rerank_calls) / n_turns
    out["backends.reranker.wait_ms_per_turn"] = sum(ms(s) for s in rerank_calls) / n_turns
    search_calls = [s for name, spans in by_name.items()
                    if name.startswith("backends.search.") for s in spans]
    out["backends.search.calls_per_turn"] = len(search_calls) / n_turns
    out["backends.search.wait_ms_per_call"] = (
        sum(ms(s) for s in search_calls) / len(search_calls) if search_calls else 0.0)

    # Image-KG search is served from the local fixture, so only web search
    # is a round trip.
    remote_calls = model_calls + rerank_calls + by_name.get("backends.search.web_search", [])
    out["backends.http.overhead_ms_per_call"] = (
        (sum(ms(s) for s in remote_calls) - service_ms) / len(remote_calls)
        if remote_calls else 0.0)
    out["backends.load_fixture.ms"] = setup_ms.get("backends.load_fixture", 0.0)
    out["cli.load_dataset.ms"] = setup_ms.get("cli.load_dataset", 0.0)

    out["router.route.ms_per_turn"] = per_turn("router.route")
    for fn in ("summarize_image", "recall", "rerank"):
        out[f"retrieval.{fn}.ms_per_turn"] = per_turn(f"retrieval.{fn}")
    chunks = sum(s[6].get("chunks", 0) for s in by_name.get("retrieval.rerank", ()))
    out["retrieval.chunks_per_turn"] = chunks / n_turns
    out["retrieval.kept_per_reranked"] = (
        sum(t["entries"] for t in turns.values()) / chunks if chunks else 0.0)
    out["retrieval.dynamic_threshold.us_per_call"] = per_call_us("retrieval.dynamic_threshold")
    out["retrieval.build_context.us_per_call"] = per_call_us("retrieval.build_context")

    answer_spans: dict[int, list[tuple]] = defaultdict(list)
    for name in ("generation.generate_rag", "generation.generate_direct"):
        for span in by_name.get(name, ()):
            answer_spans[span[5]].append(span)
    out["generation.dual_path.ms_per_turn"] = sum(
        (max(s[3] for s in spans) - min(s[2] for s in spans)) * 1000.0
        for spans in answer_spans.values()) / n_turns
    out["generation.check_consistency.ms_per_turn"] = per_turn("generation.check_consistency")
    out["verification.verify.ms_per_turn"] = per_turn("verification.verify")
    builds = by_name.get("templates.build", [])
    out["templates.build.calls_per_turn"] = len(builds) / n_turns
    out["templates.build.us_per_call"] = per_call_us("templates.build")

    table = self_times(tracer.spans)
    turn_ms = table.get(TURN, (0, 0.0, 0.0))
    out["pipeline.run_turn.self_ms_per_turn"] = turn_ms[2] / n_turns
    backend_spans = [s for name, spans in by_name.items()
                     if name.startswith("backends.") and name.count(".") == 2 for s in spans]
    serial_wait = sum(ms(s) for s in backend_spans)
    out["pipeline.serial_wait_ms_per_turn"] = serial_wait / n_turns
    out["pipeline.overlap_ratio"] = serial_wait / turn_ms[1] if turn_ms[1] else 0.0
    wasted = 0
    for span in model_calls:
        branch = turns.get(span[5], {}).get("branch")
        role = span[6].get("role")
        if branch == "RealTimeLowRetrieval" and role in ("generator", "consistency_judge", "verifier"):
            wasted += 1
        elif branch == "InconsistentWithContext" and role == "verifier":
            wasted += 1
    out["pipeline.wasted_model_calls_per_turn"] = wasted / n_turns
    gone = tuple(tracer.not_traced)
    return {name: value for name, value in out.items()
            if not name.startswith(tuple(f"{label}." for label in gone))
            and not set(SOURCES.get(name, ())) & set(gone)}
