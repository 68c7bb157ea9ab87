"""Command-line entry point: run and eval subcommands.

Thresholds live in a versioned config file; flags carry only paths, mode and
pipeline variant. Mock mode wires every backend to the committed fixture and
replay files, so identical argv plus identical files reproduce identical
trace and report bytes. Every variant, the paper's ablations included, runs
through ``run`` (``--variant``), which writes its trace and manifest, and is
scored by ``eval`` through ``evaluation.score_answers``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .backends import (
    Backends,
    FixtureError,
    MockRerankerBackend,
    RemoteModelBackend,
    RemoteRerankerBackend,
    RemoteSearchBackend,
    ReplayModelBackend,
    load_fixture,
    load_replay,
)
from .core import (
    MODES, Conversation, InvalidConfigError, PipelineConfig, read_json, read_jsonl,
)
from .evaluation import EvalError, MockJudge, PromptedJudge, ground_truths, score_answers
from .pipeline import VARIANTS, TurnOutcome, run_conversation
from .retrieval import looks_up_images
from .templates import PromptTemplate, TemplateError, load_all

__all__ = ["load_dataset", "DatasetError", "main", "entry"]

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
    seen_ids: set[str] = set()

    def conversation(record: Any) -> Conversation:
        parsed = Conversation.from_dict(record)
        if parsed.conversation_id in seen_ids:
            raise ValueError(f"duplicate conversation_id {parsed.conversation_id!r}")
        seen_ids.add(parsed.conversation_id)
        return parsed

    conversations = [parsed for _, parsed in read_jsonl(path, DatasetError, conversation)]
    if not conversations:
        raise DatasetError("empty dataset")
    return conversations


def _run_manifest(cfg: PipelineConfig, dataset_path: str, record_count: int,
                  backend_kinds: dict[str, str], variant: str) -> dict[str, Any]:
    """Provenance record of a run that starts now; credentials never reach disk.

    ``manifest_hash`` covers only the reproducible inputs (config, dataset
    size, backend kinds, version and variant) so reports referencing it stay
    stable across re-runs of the same inputs.
    """
    config = cfg.to_dict()
    if config["bearer_token"]:
        config["bearer_token"] = "<redacted>"
    stable = {"config": config, "record_count": record_count,
              "backend_kinds": backend_kinds, "version": __version__, "variant": variant}
    payload = json.dumps(stable, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return {"manifest_hash": hashlib.sha256(payload).hexdigest(), "version": __version__,
            "config": config, "dataset_path": dataset_path, "record_count": record_count,
            "backend_kinds": backend_kinds, "variant": variant, "started_at": _utc_now(),
            "finished_at": None}


def _shown(path: str | Path) -> str:
    """``path`` as text for an output: a byte that is not UTF-8 reads as ``\\x..``."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _check_writable(path: str) -> None:
    """Fail before any work where writing ``path`` would fail after it."""
    if Path(path).is_dir():
        raise EvalError(f"cannot write {path}: is a directory")
    if not Path(path).parent.is_dir():
        raise EvalError(f"cannot write {path}: no such directory")


def _write_json(path: str | Path, payload: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_config(path: Optional[str], mode: Optional[str] = None) -> PipelineConfig:
    """The one config built from the file at ``path`` (the defaults when
    None) with the environment's overrides, then ``mode`` if given, merged
    over it."""
    data = {} if path is None else read_json(path, InvalidConfigError)
    overrides = {
        field: os.environ[env] for env, field in _ENV_OVERRIDES.items() if env in os.environ
    }
    if mode:
        overrides["mode"] = mode
    # Anything but an object is left for from_dict to reject as it is.
    return PipelineConfig.from_dict({**data, **overrides} if isinstance(data, dict) else data)


def _remote(cfg: PipelineConfig, key: str, backend_class: type) -> Any:
    """A remote backend on the endpoint under config ``key``; a malformed URL
    or a host that does not resolve is a config error naming the key."""
    try:
        return backend_class(getattr(cfg, key), cfg.bearer_token)
    except ValueError as exc:
        raise InvalidConfigError(f"{key}: {exc}") from exc


def build_backends(cfg: PipelineConfig, mock: bool) -> tuple[Backends, dict[str, str]]:
    """Wire mock or remote backends; returns the bundle and its kind map.

    Search is the loaded fixture in a mock run, and in a remote run of a mode
    that looks images up, since no remote endpoint serves image lookups; a
    remote task2plus run searches the web endpoint.
    """
    from_fixture = mock or looks_up_images(cfg.mode)
    required = (("replay_path", "fixture_path") if mock else
                ("router_endpoint", "vlm_endpoint", "reranker_endpoint",
                 "fixture_path" if from_fixture else "web_search_endpoint"))
    missing = [key for key in required if not getattr(cfg, key)]
    if missing:
        run = "mock" if mock else f"remote {cfg.mode}"
        raise InvalidConfigError(f"{run} mode needs {', '.join(missing)} in the config")
    if mock:
        model = ReplayModelBackend(load_replay(cfg.replay_path))
        bundle = Backends(router_model=model, vlm=model, reranker=MockRerankerBackend(),
                          search=load_fixture(cfg.fixture_path))
        return bundle, {"model": "replay", "reranker": "jaccard-mock", "search": "fixture"}
    fixture = load_fixture(cfg.fixture_path) if from_fixture else None
    bundle = Backends(
        router_model=_remote(cfg, "router_endpoint", RemoteModelBackend),
        vlm=_remote(cfg, "vlm_endpoint", RemoteModelBackend),
        reranker=_remote(cfg, "reranker_endpoint", RemoteRerankerBackend),
        search=fixture or _remote(cfg, "web_search_endpoint", RemoteSearchBackend),
    )
    kinds = {"model": "remote", "reranker": "remote",
             "search": "fixture" if from_fixture else "remote-web"}
    return bundle, kinds


def write_trace(outcomes: Sequence[TurnOutcome], path: Path) -> None:
    """One canonical record per line, in dataset order."""
    lines = [json.dumps(outcome.to_record(), ensure_ascii=False) for outcome in outcomes]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _run_turns(cfg: PipelineConfig, templates: dict[str, PromptTemplate],
               dataset: Sequence[Conversation], backends: Backends, workers: int,
               variant: str) -> list[TurnOutcome]:
    """Every turn of ``dataset`` under ``variant``, in dataset order, running
    ``workers`` conversations at once; closes ``backends`` when done."""
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda conv: run_conversation(conv, cfg, backends, templates, variant), dataset))
    finally:
        backends.close()
    return [outcome for conversation_outcomes in results for outcome in conversation_outcomes]


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise InvalidConfigError(f"--workers must be at least 1, got {args.workers}")
    _check_writable(args.out)
    cfg = load_config(args.config, mode=args.mode)
    templates = load_all(cfg.prompt_paths)
    dataset = load_dataset(args.dataset)
    backends, kinds = build_backends(cfg, mock=args.mock)
    out_path = Path(args.out)
    manifest = _run_manifest(cfg, _shown(args.dataset), len(dataset), kinds, args.variant)
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    _write_json(manifest_path, manifest)
    outcomes = _run_turns(cfg, templates, dataset, backends, args.workers, args.variant)
    write_trace(outcomes, out_path)
    _write_json(manifest_path, {**manifest, "finished_at": _utc_now()})
    abstained = sum(1 for outcome in outcomes if outcome.final.abstained)
    print(f"ran {len(outcomes)} turns over {len(dataset)} conversations "
          f"({abstained} abstained) -> {_shown(out_path)}")
    return 0


def _make_judge(cfg: PipelineConfig, kind: str, template: PromptTemplate):
    if kind == "mock":
        return MockJudge()
    if not cfg.judge_endpoint:
        raise InvalidConfigError("endpoint judge needs judge_endpoint in the config")
    return PromptedJudge(_remote(cfg, "judge_endpoint", RemoteModelBackend), template)


def _read_trace_turns(path: str | Path) -> list[tuple[int, str, int, str, bool]]:
    """The line number, conversation_id, turn_index, final answer and
    ``final.abstained`` (False when left out) of each trace record."""
    turns = []
    for number, record in read_jsonl(path, EvalError):
        try:
            final = record["final"]
            turn = (record["conversation_id"], record["turn_index"], final["answer"],
                    final.get("abstained", False))
            well_formed = [type(value) for value in turn] == [str, int, str, bool]
        except (KeyError, TypeError, AttributeError):
            well_formed = False
        if not well_formed:
            raise EvalError(f"trace line {number} needs a string conversation_id, an integer "
                            "turn_index, a string final.answer and, if present, a boolean "
                            "final.abstained")
        turns.append((number, *turn))
    if not turns:
        raise EvalError("empty trace file")
    return turns


def _manifest_hash_for(trace_path: Path) -> Optional[str]:
    """None unless the trace's manifest is a JSON object with a string hash."""
    try:
        manifest = read_json(trace_path.with_name(trace_path.name + ".manifest.json"),
                             ValueError)
    except ValueError:
        return None
    digest = manifest.get("manifest_hash") if isinstance(manifest, dict) else None
    return digest if isinstance(digest, str) else None


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_writable(args.report)
    cfg = load_config(args.config)
    templates = load_all(cfg.prompt_paths)
    truths = ground_truths(load_dataset(args.dataset))
    judge = _make_judge(cfg, args.judge, templates["judge"])
    records = _read_trace_turns(args.traces)
    for number, _, _, answer, abstained in records:
        # A trace written under another abstain_text would score its
        # abstentions as answers.
        if abstained and answer.strip() != cfg.abstain_text.strip():
            raise EvalError(f"trace line {number} abstained with {answer!r}, but the "
                            f"config's abstain_text is {cfg.abstain_text!r}")
    metrics, rows = score_answers([record[1:4] for record in records], truths, judge,
                                  cfg.abstain_text)
    _write_json(args.report, {"manifest_hash": _manifest_hash_for(Path(args.traces)),
                              **metrics.to_dict(), "rows": rows})
    print(f"evaluated {metrics.n} turns: {metrics.summary()} -> {_shown(args.report)}")
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
    run_parser.add_argument("--mode", choices=MODES, default=None)
    run_parser.add_argument("--mock", action="store_true", help="force fixture backends")
    run_parser.add_argument("--workers", type=int, default=1)
    run_parser.add_argument("--variant", choices=list(VARIANTS), default="full",
                            help="pipeline variant: the full pipeline or a reduced one")
    run_parser.set_defaults(func=_cmd_run)

    eval_parser = subparsers.add_parser("eval", help="judge a trace file against a dataset")
    eval_parser.add_argument("--traces", required=True)
    eval_parser.add_argument("--dataset", required=True)
    eval_parser.add_argument("--config", default=None)
    eval_parser.add_argument("--judge", choices=["mock", "endpoint"], default="mock")
    eval_parser.add_argument("--report", required=True)
    eval_parser.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, TemplateError, DatasetError, FixtureError, EvalError) as exc:
        message = str(exc)
    except OSError as exc:  # every reader turns its own into one of the above
        message = f"cannot write {exc.filename}: {exc.strerror or exc}"
    # A path in the message may hold a line break; the error stays one line.
    print("error: " + message.replace("\n", "\\n"), file=sys.stderr)
    return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
