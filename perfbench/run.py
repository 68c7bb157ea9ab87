"""Turn-pipeline benchmark: generate one seeded workload, drive ragvet, check every turn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: web_rag_remote, kg_multiturn_remote (see README.md).
The run builds its inputs under .perfbench_runs/<workload>/, starts the
loopback stub, runs the client in its own process, checks every turn
against the plan and prints each metric with its unit.
The last line is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the metrics are the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from checker import check_plan, check_record, index_plan, plan_truthfulness
from workloads import WORKLOADS, build_plan, write_dataset, write_fixture

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
TURN_BUDGET_MS = 10_000
# Leaves room for input generation within the 180 s a run may take.
CLIENT_TIMEOUT_S = 150


def start_stub(plan_path: Path, seed: int, run_dir: Path) -> tuple[subprocess.Popen, int]:
    log = (run_dir / "stub.log").open("w")
    stub = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--plan", str(plan_path), "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT)
    log.close()
    ready, _, _ = select.select([stub.stdout], [], [], 30)
    line = stub.stdout.readline() if ready else ""
    if not line.startswith("port "):
        stop(stub)
        raise RuntimeError(f"stub did not start; see {run_dir / 'stub.log'}")
    return stub, int(line.split()[1])


def stop(process: Optional[subprocess.Popen]) -> None:
    if process is None or process.poll() is not None:
        return
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def prepare(workload: str, seed: int, run_dir: Path) -> tuple[dict[str, Any], subprocess.Popen, str]:
    """Write every input of one run and start the stub."""
    plan = index_plan(build_plan(workload, seed))
    problems = check_plan(plan)
    if problems:
        raise RuntimeError("generated plan breaks its own promises: " + "; ".join(problems[:5]))
    write_dataset(plan, run_dir / "dataset.jsonl")
    fixture_path = run_dir / "fixture.json"
    write_fixture(plan, fixture_path)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps({k: plan[k] for k in ("turns", "pages")}), encoding="utf-8")
    stub, port = start_stub(plan_path, seed, run_dir)
    base = f"http://127.0.0.1:{port}"
    # The fixture serves image-KG lookups, which have no remote endpoint.
    config = {"mode": plan["mode"], "router_endpoint": f"{base}/model",
              "vlm_endpoint": f"{base}/model", "reranker_endpoint": f"{base}/rerank",
              "web_search_endpoint": f"{base}/search", "fixture_path": str(fixture_path)}
    (run_dir / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return plan, stub, f"{base}/stats"


def check_run(plan: dict[str, Any], raw: dict[str, Any], run_dir: Path) -> list[str]:
    """Check every completed turn, then the run's MockJudge truthfulness."""
    from ragvet.evaluation import MockJudge, aggregate, judge_response

    lines = (run_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    records = iter(json.loads(line) for line in lines if line.strip())
    problems: list[str] = []
    cache: dict = {}
    uids, labels = [], []
    judge = MockJudge()
    for cid, index, wall_ms, ok in raw["turns"]:
        if not ok:
            continue
        record = next(records, None)
        if record is None:
            problems.append("trace holds fewer records than completed turns")
            break
        problems.extend(check_record(plan, record, wall_ms, TURN_BUDGET_MS, cache))
        uid = plan["turn_by_key"].get((record["conversation_id"], record["turn_index"]))
        if uid is not None:
            uids.append(uid)
            labels.append(judge_response(record["final"]["answer"],
                                         plan["turns"][uid]["ground_truth"], judge))
    if uids:
        got = aggregate(labels).truthfulness
        want = plan_truthfulness(plan, uids, cache)
        if got != want:
            problems.append(f"MockJudge truthfulness {got!r}, plan implies {want!r}")
    return problems


def end_to_end(raw: dict[str, Any]) -> dict[str, float]:
    timed = raw["timed"]
    walls = [row[2] for row in raw["turns"][: timed["turns"]]]
    turns = len(walls)
    before, after = raw["stats"]
    calls = sum(row["calls"] for row in after.values()) - sum(
        row["calls"] for row in before.values())
    tokens = sum(row["prompt_tokens"] for row in after.values()) - sum(
        row["prompt_tokens"] for row in before.values())
    # Rates are medians over the run's passes, so a few seconds of contention
    # on a shared machine move them less.
    passes = timed["passes"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "turn_p50_ms": statistics.median(walls),
        "turn_p95_ms": statistics.quantiles(walls, n=20)[18],
        "turns_per_s": statistics.median(n / elapsed for n, elapsed, _ in passes),
        "cpu_ms_per_turn": statistics.median(cpu * 1000.0 / n for n, _, cpu in passes),
        "remote_calls_per_turn": calls / turns,
        "prompt_tokens_per_turn": tokens / turns,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ragvet" / "__init__.py").is_file():
        print(f"error: no ragvet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.perf_counter()
    stub = None
    try:
        plan, stub, stats_url = prepare(args.workload, args.seed, run_dir)
        command = [sys.executable, str(HERE / "client.py"), "--run-dir", str(run_dir),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--stats-url", stats_url]
        client = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                timeout=CLIENT_TIMEOUT_S)
    finally:
        stop(stub)
    if client.returncode != 0:
        print(client.stderr, file=sys.stderr)
        print(f"error: client exited with {client.returncode}", file=sys.stderr)
        return 1
    raw_line = client.stdout.strip().splitlines()[-1]
    (run_dir / "client.json").write_text(raw_line + "\n", encoding="utf-8")
    raw = json.loads(raw_line)

    problems = check_run(plan, raw, run_dir)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(raw["turns"])
    failed = len(raw["failures"])
    for failure in raw["failures"][:10]:
        print(f"turn raised: {failure}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} turns attempted, {failed} failed, "
          f"{len(problems)} check problems, {time.perf_counter() - started:.1f} s total")
    if args.trace:
        values = raw["layers"]
        for name in raw["not_traced"]:
            print(f"  not traced: {name}")
        print(f"  tracing overhead: {values['tracing.overhead_ms']:.3f} ms on turn p50 "
              f"({raw['timed']['p50_ms']:.3f} untraced, {raw['traced']['p50_ms']:.3f} traced)")
        print("  span self time (count, total ms, self ms):")
        for name, (count, total, own) in sorted(raw["self_times"].items()):
            print(f"    {name:40s} {count:8d} {total:12.3f} {own:12.3f}")
    else:
        values = end_to_end(raw)
    # A metric whose layer is no longer traced is left out, not reported as 0.
    wanted = units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items() if name in values}
    for name, metric in metrics.items():
        print(f"  {name:50s} {metric['value']:14.4f} {metric['unit']}")
    for name in wanted:
        if name not in metrics:
            print(f"  {name:50s} not traced")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
