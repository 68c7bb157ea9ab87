"""Command-line entry point: run, eval, and ablate subcommands.

Thresholds live in a versioned config file; flags carry only paths and mode.
Mock mode wires every backend to the committed fixture and replay files, so
identical argv plus identical files reproduce identical trace and report
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .backends import (
    Backends,
    FixtureError,
    MockRerankerBackend,
    MockSearchBackend,
    RemoteModelBackend,
    RemoteRerankerBackend,
    RemoteSearchBackend,
    ReplayModelBackend,
    load_fixture,
)
from .core import Conversation, InvalidConfigError, PipelineConfig, validate_config
from .evaluation import (
    ABLATION_MODES,
    EvalError,
    JudgeLabel,
    MockJudge,
    PromptedJudge,
    aggregate,
    judge_response,
    run_ablation,
)
from .pipeline import TurnOutcome, run_conversation
from .templates import load_all, load_template

__all__ = ["load_dataset", "DatasetError", "RunManifest", "main", "entry"]

_ENV_OVERRIDES = {
    "RAGVET_ROUTER_ENDPOINT": "router_endpoint",
    "RAGVET_VLM_ENDPOINT": "vlm_endpoint",
    "RAGVET_RERANKER_ENDPOINT": "reranker_endpoint",
    "RAGVET_WEB_SEARCH_ENDPOINT": "web_search_endpoint",
    "RAGVET_JUDGE_ENDPOINT": "judge_endpoint",
    "RAGVET_BEARER_TOKEN": "bearer_token",
}


class DatasetError(ValueError):
    pass


def load_dataset(path: str | Path) -> list[Conversation]:
    """Parse a conversations file: one JSON record per line, fail-fast.

    Every malformed line is collected and reported; any failure aborts the
    whole load so partial datasets never reach evaluation.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    conversations: list[Conversation] = []
    errors: list[str] = []
    seen_ids: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            conversation = Conversation.from_dict(record)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"line {number}: {exc}")
            continue
        if conversation.conversation_id in seen_ids:
            errors.append(f"line {number}: duplicate conversation_id {conversation.conversation_id!r}")
            continue
        seen_ids.add(conversation.conversation_id)
        conversations.append(conversation)
    if errors:
        raise DatasetError(f"dataset {path} has bad lines: " + "; ".join(errors))
    if not conversations:
        raise DatasetError("empty dataset")
    return conversations


@dataclass
class RunManifest:
    """Provenance record for one pipeline run.

    ``manifest_hash`` covers only the reproducible inputs (config, dataset
    size, backend kinds, version) so reports referencing it stay stable
    across re-runs of the same inputs.
    """

    config: dict[str, Any]
    dataset_path: str
    record_count: int
    backend_kinds: dict[str, str]
    version: str
    started_at: str
    finished_at: Optional[str] = None

    @property
    def manifest_hash(self) -> str:
        stable = {
            "config": self.config,
            "record_count": self.record_count,
            "backend_kinds": self.backend_kinds,
            "version": self.version,
        }
        payload = json.dumps(stable, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "manifest_hash": self.manifest_hash,
            "version": self.version,
            "config": self.config,
            "dataset_path": self.dataset_path,
            "record_count": self.record_count,
            "backend_kinds": self.backend_kinds,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        cfg = PipelineConfig()
    else:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfigError(f"cannot load config {path}: {exc}") from exc
        cfg = PipelineConfig.from_dict(data)
    overrides = {
        field: os.environ[env] for env, field in _ENV_OVERRIDES.items() if env in os.environ
    }
    if overrides:
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), **overrides})
    return validate_config(cfg)


def _remote(cfg: PipelineConfig, key: str, backend_class: type, **kwargs: Any) -> Any:
    """A remote backend on the endpoint under config ``key``; a malformed URL
    is a config error naming the key."""
    try:
        return backend_class(getattr(cfg, key), cfg.bearer_token, **kwargs)
    except ValueError as exc:
        raise InvalidConfigError(f"{key}: {exc}") from exc


def build_backends(cfg: PipelineConfig, mock: bool) -> tuple[Backends, dict[str, str]]:
    """Wire mock or remote backends; returns the bundle and its kind map."""
    if mock:
        if not cfg.replay_path:
            raise InvalidConfigError("mock mode needs replay_path in the config")
        if not cfg.fixture_path:
            raise InvalidConfigError("mock mode needs fixture_path in the config")
        model = ReplayModelBackend.from_file(cfg.replay_path)
        search = MockSearchBackend(load_fixture(cfg.fixture_path))
        bundle = Backends(
            router_model=model, vlm=model, reranker=MockRerankerBackend(), search=search
        )
        kinds = {"model": "replay", "reranker": "jaccard-mock", "search": "fixture"}
        return bundle, kinds
    missing = [
        name
        for name, value in (
            ("router_endpoint", cfg.router_endpoint),
            ("vlm_endpoint", cfg.vlm_endpoint),
            ("reranker_endpoint", cfg.reranker_endpoint),
            ("web_search_endpoint", cfg.web_search_endpoint),
        )
        if not value
    ]
    if missing:
        raise InvalidConfigError(f"remote mode needs endpoints: {', '.join(missing)}")
    image_fixture = load_fixture(cfg.fixture_path) if cfg.fixture_path else None
    bundle = Backends(
        router_model=_remote(cfg, "router_endpoint", RemoteModelBackend),
        vlm=_remote(cfg, "vlm_endpoint", RemoteModelBackend),
        reranker=_remote(cfg, "reranker_endpoint", RemoteRerankerBackend),
        search=_remote(cfg, "web_search_endpoint", RemoteSearchBackend,
                       image_fixture=image_fixture),
    )
    kinds = {"model": "remote", "reranker": "remote", "search": "remote-web"}
    return bundle, kinds


def write_trace(outcomes: Sequence[TurnOutcome], path: Path) -> None:
    """One canonical record per line, in dataset order."""
    lines = [json.dumps(outcome.to_record(), ensure_ascii=False) for outcome in outcomes]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _config_snapshot(cfg: PipelineConfig) -> dict[str, Any]:
    """Manifest view of the config; credentials never reach disk."""
    snapshot = cfg.to_dict()
    if snapshot.get("bearer_token"):
        snapshot["bearer_token"] = "<redacted>"
    return snapshot


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.mode:
        cfg = validate_config(PipelineConfig.from_dict({**cfg.to_dict(), "mode": args.mode}))
    dataset = load_dataset(args.dataset)
    backends, kinds = build_backends(cfg, mock=args.mock)
    out_path = Path(args.out)
    manifest = RunManifest(
        config=_config_snapshot(cfg),
        dataset_path=str(args.dataset),
        record_count=len(dataset),
        backend_kinds=kinds,
        version=__version__,
        started_at=_utc_now(),
    )
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    manifest.write(manifest_path)

    templates = load_all(cfg.prompt_paths)
    try:
        if args.workers <= 1:
            results = [run_conversation(conversation, cfg, backends, templates)
                       for conversation in dataset]
        else:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                results = list(pool.map(
                    lambda conv: run_conversation(conv, cfg, backends, templates), dataset))
    finally:
        backends.close()
    outcomes = [outcome for conversation_outcomes in results for outcome in conversation_outcomes]
    write_trace(outcomes, out_path)
    manifest.finished_at = _utc_now()
    manifest.write(manifest_path)
    abstained = sum(1 for outcome in outcomes if outcome.final.abstained)
    print(f"ran {len(outcomes)} turns over {len(dataset)} conversations "
          f"({abstained} abstained) -> {out_path}")
    return 0


def _make_judge(cfg: PipelineConfig, kind: str):
    if kind == "mock":
        return MockJudge()
    if not cfg.judge_endpoint:
        raise InvalidConfigError("endpoint judge needs judge_endpoint in the config")
    template = load_template(cfg.judge_prompt_path) if cfg.judge_prompt_path else None
    return PromptedJudge(_remote(cfg, "judge_endpoint", RemoteModelBackend), template)


def _read_trace_records(path: str | Path) -> list[dict[str, Any]]:
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise EvalError(f"trace line {number} is not valid JSON: {exc}") from exc
    if not records:
        raise EvalError("empty trace file")
    return records


def _manifest_hash_for(trace_path: Path) -> Optional[str]:
    manifest_path = trace_path.with_name(trace_path.name + ".manifest.json")
    if not manifest_path.exists():
        return None
    try:
        return json.loads(manifest_path.read_text(encoding="utf-8")).get("manifest_hash")
    except (OSError, json.JSONDecodeError):
        return None


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    dataset = load_dataset(args.dataset)
    truths: dict[tuple[str, int], Optional[str]] = {
        (conversation.conversation_id, turn.turn_index): turn.ground_truth
        for conversation in dataset
        for turn in conversation.turns
    }
    judge = _make_judge(cfg, args.judge)
    records = _read_trace_records(args.traces)
    rows = []
    labels: list[JudgeLabel] = []
    for record in records:
        key = (record["conversation_id"], record["turn_index"])
        if key not in truths:
            raise EvalError(f"trace turn {key} not present in dataset")
        ground_truth = truths[key]
        if ground_truth is None:
            raise EvalError(f"turn {key} has no ground truth; cannot evaluate")
        label = judge_response(
            record["final"]["answer"], ground_truth, judge, abstain_text=cfg.abstain_text
        )
        labels.append(label)
        rows.append(
            {"conversation_id": key[0], "turn_index": key[1], "label": label.label.value}
        )
    report = {
        "manifest_hash": _manifest_hash_for(Path(args.traces)),
        **aggregate(labels).to_dict(),
        "rows": rows,
    }
    Path(args.report).write_text(
        json.dumps(report, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(
        f"evaluated {len(labels)} turns: accuracy {report['accuracy']:.4f}, "
        f"missing {report['missing_rate']:.4f}, hallucination {report['hallucination_rate']:.4f}, "
        f"truthfulness {report['truthfulness']:.4f} -> {args.report}"
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.mode_policy:
        cfg = validate_config(
            PipelineConfig.from_dict({**cfg.to_dict(), "mode": args.mode_policy})
        )
    dataset = load_dataset(args.dataset)
    backends, _ = build_backends(cfg, mock=args.mock)
    judge = _make_judge(cfg, args.judge)
    try:
        report = run_ablation(args.mode, dataset, cfg, backends, judge=judge)
    finally:
        backends.close()
    payload = {"mode": args.mode, **report.to_dict()}
    if args.report:
        Path(args.report).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    print(
        f"ablation {args.mode}: accuracy {report.accuracy:.4f}, missing {report.missing_rate:.4f}, "
        f"hallucination {report.hallucination_rate:.4f}, truthfulness {report.truthfulness:.4f}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragvet",
        description="Verification-centric multimodal RAG pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run the pipeline over a dataset")
    run_parser.add_argument("--dataset", required=True)
    run_parser.add_argument("--config", default=None)
    run_parser.add_argument("--out", required=True, help="trace file to write")
    run_parser.add_argument("--mode", choices=["task1", "task2plus"], default=None)
    run_parser.add_argument("--mock", action="store_true", help="force fixture backends")
    run_parser.add_argument("--workers", type=int, default=1)
    run_parser.set_defaults(func=_cmd_run)

    eval_parser = subparsers.add_parser("eval", help="judge a trace file against a dataset")
    eval_parser.add_argument("--traces", required=True)
    eval_parser.add_argument("--dataset", required=True)
    eval_parser.add_argument("--config", default=None)
    eval_parser.add_argument("--judge", choices=["mock", "endpoint"], default="mock")
    eval_parser.add_argument("--report", required=True)
    eval_parser.set_defaults(func=_cmd_eval)

    ablate_parser = subparsers.add_parser("ablate", help="score a reduced pipeline variant")
    ablate_parser.add_argument("--mode", choices=list(ABLATION_MODES), required=True)
    ablate_parser.add_argument("--dataset", required=True)
    ablate_parser.add_argument("--config", default=None)
    ablate_parser.add_argument("--report", default=None)
    ablate_parser.add_argument("--judge", choices=["mock", "endpoint"], default="mock")
    ablate_parser.add_argument("--mock", action="store_true")
    ablate_parser.add_argument(
        "--mode-policy", choices=["task1", "task2plus"], default=None, dest="mode_policy"
    )
    ablate_parser.set_defaults(func=_cmd_ablate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, DatasetError, FixtureError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
