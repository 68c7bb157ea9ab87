"""The client process: one workload, one closed loop, one turn at a time.

It sets the program up from the generated files through its public entry
points, runs whole passes over the dataset until ``--seconds`` have passed,
writes the trace with ``write_trace``, and prints raw figures as one JSON
line. Peak memory is this process's own, so each workload gets a fresh one.

    python3 perfbench/client.py --run-dir DIR --seconds S --trace 0|1 --stats-url URL
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Optional

from tracing import Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
MIN_TURNS = 200


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "ragvet" / "__init__.py").is_file():
        sys.exit(f"error: no ragvet source under {src}")
    sys.path.insert(0, str(src))


def stub_stats(url: str) -> dict[str, Any]:
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read())


class Program:
    """The program's public entry points, imported from the checkout."""

    def __init__(self) -> None:
        import_program()
        from ragvet.cli import build_backends, load_config, load_dataset, write_trace
        from ragvet.pipeline import ConversationState, run_turn
        from ragvet.templates import TEMPLATE_NAMES, resolve_template

        self.build_backends = build_backends
        self.load_config = load_config
        self.load_dataset = load_dataset
        self.write_trace = write_trace
        self.ConversationState = ConversationState
        self.run_turn = run_turn
        self.template_names = TEMPLATE_NAMES
        self.resolve_template = resolve_template

    def set_up(self, run_dir: Path, load_dataset=None):
        cfg = self.load_config(str(run_dir / "config.json"))
        dataset = (load_dataset or self.load_dataset)(run_dir / "dataset.jsonl")
        templates = {name: self.resolve_template(name, cfg.prompt_paths)
                     for name in self.template_names}
        backends, _ = self.build_backends(cfg, mock=False)
        return cfg, dataset, templates, backends


class Loop:
    """Closed loop over whole dataset passes; keeps every outcome for the checker."""

    def __init__(self, program: Program, cfg, dataset, templates) -> None:
        self.program = program
        self.cfg = cfg
        self.dataset = dataset
        self.templates = templates
        self.outcomes: list = []
        self.turns: list[list] = []  # [conversation_id, turn_index, wall_ms, ok]
        self.failures: list[str] = []

    def run(self, backends, seconds: float, min_turns: int, tracer: Optional[Tracer] = None,
            max_passes: Optional[int] = None,
            after_pass: Optional[Callable[[], None]] = None) -> dict[str, float]:
        run_turn, state_of = self.program.run_turn, self.program.ConversationState
        first = len(self.turns)
        passes: list[list[float]] = []  # [turns, elapsed s, cpu s] per pass
        start = time.perf_counter()
        while True:
            pass_start, pass_cpu, pass_first = time.perf_counter(), time.process_time(), len(self.turns)
            for conv in self.dataset:
                state = state_of(conversation_id=conv.conversation_id, image_ref=conv.image_ref)
                for turn in conv.turns:
                    args = (state, turn, self.cfg, backends, self.templates)
                    t0 = time.perf_counter()
                    try:
                        if tracer is None:
                            outcome = run_turn(*args)
                        else:
                            outcome = tracer.run_turn(len(self.turns), run_turn, *args)
                    except Exception as exc:  # a raising turn is a failed operation; the loop goes on
                        outcome = None
                        self.failures.append(f"{turn.conversation_id}/{turn.turn_index}: {exc!r}")
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                    self.turns.append([turn.conversation_id, turn.turn_index, wall_ms,
                                       outcome is not None])
                    if outcome is not None:
                        self.outcomes.append(outcome)
                    answer = outcome.final.answer if outcome is not None else self.cfg.abstain_text
                    state.history.append((turn.query, answer))
            now = time.perf_counter()
            passes.append([len(self.turns) - pass_first, now - pass_start,
                           time.process_time() - pass_cpu])
            if after_pass is not None:
                after_pass()
            if max_passes is not None and len(passes) >= max_passes:
                break
            if now - start >= seconds and len(self.turns) - first >= min_turns:
                break
        walls = [row[2] for row in self.turns[first:]]
        return {"turns": len(walls), "passes": passes, "p50_ms": statistics.median(walls)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stats-url", required=True)
    args = parser.parse_args()
    program = Program()

    setup_s: list[float] = []

    def timed_setup():
        # From a collected heap, so the figure does not depend on where the
        # collector happens to run.
        gc.collect()
        t0 = time.perf_counter()
        setup = program.set_up(args.run_dir)
        setup_s.append(time.perf_counter() - t0)
        return setup

    for _ in range(SETUPS - 1):
        timed_setup()
    cfg, dataset, templates, backends = timed_setup()
    loop = Loop(program, cfg, dataset, templates)

    # One untimed pass opens the connections.
    loop.run(backends, 0, 0, max_passes=1)
    loop.outcomes.clear()
    loop.turns.clear()
    loop.failures.clear()

    result: dict[str, Any] = {"setup_s": setup_s}
    timed_seconds = args.seconds / 2 if args.trace else args.seconds
    before = stub_stats(args.stats_url)
    # One more set-up after every timed pass (outside the pass's own timing),
    # so set-up is sampled across the run as the machine's speed drifts.
    result["timed"] = loop.run(backends, timed_seconds, 0 if args.trace else MIN_TURNS,
                               after_pass=timed_setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = stub_stats(args.stats_url)
    result["stats"] = [before, after]
    timed_turns = len(loop.turns)

    if args.trace:
        tracer = Tracer()
        tracer.install_loaders()
        traced_load = tracer.wrap(program.load_dataset, "cli.load_dataset")
        _, _, _, traced_backends = program.set_up(args.run_dir, traced_load)
        setup_ms = {span[1]: (span[3] - span[2]) * 1000.0 for span in tracer.spans}
        tracer.install()
        before = stub_stats(args.stats_url)
        traced = loop.run(tracer.wrap_backends(traced_backends), args.seconds / 2, 0, tracer)
        after = stub_stats(args.stats_url)
        tracer.uninstall()
        service_ms = (sum(row["service_ms"] for row in after.values())
                      - sum(row["service_ms"] for row in before.values()))
        by_turn = {}
        outcomes = iter(loop.outcomes[len([t for t in loop.turns[:timed_turns] if t[3]]):])
        for turn_id, row in enumerate(loop.turns[timed_turns:], start=timed_turns):
            if row[3]:
                outcome = next(outcomes)
                by_turn[turn_id] = {"branch": outcome.final.branch.value,
                                    "entries": len(outcome.context.entries)}
        layers = layer_metrics(tracer, by_turn, setup_ms, service_ms)
        layers["tracing.overhead_ms"] = traced["p50_ms"] - result["timed"]["p50_ms"]
        tracer.write(args.run_dir / "spans.jsonl")
        result["traced"] = traced
        result["layers"] = layers
        result["not_traced"] = tracer.not_traced
        result["self_times"] = self_times(tracer.spans)

    program.write_trace(loop.outcomes, args.run_dir / "trace.jsonl")
    result["turns"] = loop.turns
    result["failures"] = loop.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
