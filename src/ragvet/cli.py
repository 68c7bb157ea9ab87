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
    MockJudge,
    PromptedJudge,
    ground_truths,
    run_ablation,
    score_answers,
)
from .pipeline import TurnOutcome, run_conversation
from .retrieval import looks_up_images
from .templates import PromptTemplate, TemplateError, load_all

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
    except (OSError, UnicodeDecodeError) as exc:
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
        except KeyError as exc:
            errors.append(f"line {number}: missing key {exc.args[0]!r}")
            continue
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
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
        _write_json(path, self.to_dict())


def _check_dir_of(path: Optional[str]) -> None:
    """Fail before any work where writing ``path`` would fail after it."""
    if path and not Path(path).parent.is_dir():
        raise EvalError(f"cannot write {path}: no such directory")


def _write_json(path: str | Path, payload: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_config(path: Optional[str], mode: Optional[str] = None) -> PipelineConfig:
    """The config file at ``path`` (the defaults when None), validated after
    the environment's overrides and then ``mode``, if given, are applied."""
    if path is None:
        cfg = PipelineConfig()
    else:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise InvalidConfigError(f"cannot load config {path}: {exc}") from exc
        cfg = PipelineConfig.from_dict(data)
    overrides = {
        field: os.environ[env] for env, field in _ENV_OVERRIDES.items() if env in os.environ
    }
    if mode:
        overrides["mode"] = mode
    if overrides:
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), **overrides})
    return validate_config(cfg)


def _remote(cfg: PipelineConfig, key: str, backend_class: type, **kwargs: Any) -> Any:
    """A remote backend on the endpoint under config ``key``; a malformed URL
    or a host that does not resolve is a config error naming the key."""
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
    # Only a mode that looks images up reads the fixture, which serves those
    # lookups; no remote endpoint does.
    if looks_up_images(cfg.mode) and not cfg.fixture_path:
        raise InvalidConfigError(f"remote {cfg.mode} mode needs fixture_path for image lookups")
    image_fixture = load_fixture(cfg.fixture_path) if looks_up_images(cfg.mode) else None
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
    if args.workers < 1:
        raise InvalidConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = load_config(args.config, mode=args.mode)
    templates = load_all(cfg.prompt_paths)
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

    try:
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


def _make_judge(cfg: PipelineConfig, kind: str, template: PromptTemplate):
    if kind == "mock":
        return MockJudge()
    if not cfg.judge_endpoint:
        raise InvalidConfigError("endpoint judge needs judge_endpoint in the config")
    return PromptedJudge(_remote(cfg, "judge_endpoint", RemoteModelBackend), template)


def _read_trace_turns(path: str | Path) -> list[tuple[str, int, str]]:
    """The (conversation_id, turn_index, final answer) of each trace record."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EvalError(f"cannot read trace {path}: {exc}") from exc
    turns = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EvalError(f"trace line {number} is not valid JSON: {exc}") from exc
        try:
            turn = (record["conversation_id"], record["turn_index"], record["final"]["answer"])
            well_formed = [type(value) for value in turn] == [str, int, str]
        except (KeyError, TypeError):
            well_formed = False
        if not well_formed:
            raise EvalError(f"trace line {number} needs a string conversation_id, an integer "
                            "turn_index and a string final.answer")
        turns.append(turn)
    if not turns:
        raise EvalError("empty trace file")
    return turns


def _manifest_hash_for(trace_path: Path) -> Optional[str]:
    """None unless the trace's manifest is a JSON object with a string hash."""
    manifest_path = trace_path.with_name(trace_path.name + ".manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # ValueError: not UTF-8, or not JSON
        return None
    digest = manifest.get("manifest_hash") if isinstance(manifest, dict) else None
    return digest if isinstance(digest, str) else None


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_dir_of(args.report)
    cfg = load_config(args.config)
    templates = load_all(cfg.prompt_paths)
    truths = ground_truths(load_dataset(args.dataset))
    judge = _make_judge(cfg, args.judge, templates["judge"])
    metrics, rows = score_answers(_read_trace_turns(args.traces), truths, judge,
                                  cfg.abstain_text)
    _write_json(args.report, {"manifest_hash": _manifest_hash_for(Path(args.traces)),
                              **metrics.to_dict(), "rows": rows})
    print(f"evaluated {metrics.n} turns: {metrics.summary()} -> {args.report}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    _check_dir_of(args.report)
    cfg = load_config(args.config, mode=args.mode_policy)
    templates = load_all(cfg.prompt_paths)
    dataset = load_dataset(args.dataset)
    backends, _ = build_backends(cfg, mock=args.mock)
    judge = _make_judge(cfg, args.judge, templates["judge"])
    try:
        report = run_ablation(args.mode, dataset, cfg, backends, templates, judge)
    finally:
        backends.close()
    if args.report:
        _write_json(args.report, {"mode": args.mode, **report.to_dict()})
    print(f"ablation {args.mode}: {report.summary()}")
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
    except (InvalidConfigError, TemplateError, DatasetError, FixtureError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # every reader turns its own into one of the above
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
