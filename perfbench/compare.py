"""Compare the benchmark's end-to-end metrics between two commits.

A result set is a directory holding ``<workload>/<seed>.json``, each file the
last line ``run.py`` printed. ``collect`` makes two such sets from two
checkouts, running each seed on both sides and alternating which side goes
first; ``report`` judges them.

    python3 perfbench/compare.py collect --parent DIR_A --change DIR_B --out RESULTS \\
        [--seeds 1-10] [--workloads a,b]
    python3 perfbench/compare.py report RESULTS/parent RESULTS/change

Verdict per workload and metric, over runs paired by seed:
  improved    the change wins at least nine tenths of the pairs (ties win
              nothing) and the medians differ by more than the parent's
              interquartile range; unresolved instead when the change fails a
              larger share of its operations or has more incorrect runs
  unresolved  fewer than ten pairs, or else the parent's interquartile spread
              is wider than the metric's bound (unchanged instead when every
              change run beats every parent run)
  worse       the change's median is worse than the parent's by more than the bound
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(directory: Path) -> dict[str, dict[int, dict[str, Any]]]:
    runs: dict[str, dict[int, dict[str, Any]]] = {}
    for path in sorted(directory.glob("*/*.json")):
        runs.setdefault(path.parent.name, {})[int(path.stem)] = json.loads(path.read_text())
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], higher_is_better: bool,
            bound: float) -> str:
    """Judge paired runs (same index = same seed) of one metric on one workload."""
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if len(parent) < MIN_PAIRS:
        return "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * c > sign * p)
    if wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved"
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        every_run_better = all(sign * c > sign * p for c in change for p in parent)
        return "unchanged" if every_run_better else "unresolved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    return "unchanged"


def report(parent_dir: Path, change_dir: Path, spec: dict[str, Any]) -> int:
    parent_runs, change_runs = load_set(parent_dir), load_set(change_dir)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        seeds = sorted(set(parent_runs.get(workload, {})) & set(change_runs.get(workload, {})))
        print(f"{workload}: {len(seeds)} paired runs")
        if not seeds:
            continue
        sides = {name: [runs[workload][s] for s in seeds]
                 for name, runs in (("parent", parent_runs), ("change", change_runs))}
        faults = {}
        for name, results in sides.items():
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            wrong = sum(1 for r in results if not r["correct"])
            # A share, since a faster side attempts more operations in a run.
            faults[name] = (failed / attempted if attempted else 0.0, wrong)
            print(f"  {name}: {failed} of {attempted} operations failed; {wrong} runs incorrect")
        # A gain bought with more failures or wrong outputs does not count.
        regressed = any(c > p for c, p in zip(faults["change"], faults["parent"]))
        print(f"  {'metric':24s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in results]
                      for side, results in sides.items()}
            cells = ["/".join(f"{v:.4g}" for v in quartiles(values[side]))
                     for side in ("parent", "change")]
            judged = verdict(values["parent"], values["change"], metric["better"] == "higher",
                             metric["bound"])
            if judged == "improved" and regressed:
                judged = "unresolved"
            print(f"  {name:24s} {cells[0]:>32s} {cells[1]:>32s}  {judged} ({metric['unit']})")
    return 0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def collect(parent: Path, change: Path, out: Path, seeds: list[int], workloads: list[str],
            seconds: int) -> int:
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = [("parent", parent), ("change", change)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                command = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    print(f"error: {side} run of {workload} seed {seed} failed", file=sys.stderr)
                    return 1
                target = out / side / workload / f"{seed}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(done.stdout.strip().splitlines()[-1] + "\n")
                print(f"{workload} seed {seed} {side} done", flush=True)
    return 0


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("collect", help="run both checkouts, alternating order")
    run_parser.add_argument("--parent", required=True, type=Path)
    run_parser.add_argument("--change", required=True, type=Path)
    run_parser.add_argument("--out", required=True, type=Path)
    run_parser.add_argument("--seeds", default="1-10")
    run_parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    report_parser = commands.add_parser("report", help="judge two result sets")
    report_parser.add_argument("parent", type=Path)
    report_parser.add_argument("change", type=Path)
    args = parser.parse_args()
    if args.command == "collect":
        return collect(args.parent.resolve(), args.change.resolve(), args.out.resolve(),
                       parse_seeds(args.seeds), args.workloads.split(","), spec["run_seconds"])
    return report(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
