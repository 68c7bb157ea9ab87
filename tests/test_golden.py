"""Mock-run outputs, byte for byte against the committed golden files.

Each fixture set (``e2e``, ``ablation``, ``kg``) is run with ``run --mock``
under ``task1`` and ``task2plus``, with one worker and with four, and every
pipeline variant is scored with ``ablate --mock`` under both modes. The
traces and reports must equal ``tests/fixtures/golden/`` exactly, so a
refactor that changes any answer, flag, stage or score fails here. Run
manifests carry timestamps and are not compared.

Only a change meant to alter outputs regenerates the files:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from ragvet.cli import main
from ragvet.evaluation import ABLATION_MODES

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
SETS = ("e2e", "ablation", "kg")
MODES = ("task1", "task2plus")
REPORTS = GOLDEN / "ablate_reports.json"


def _common(tmp_path: Path, fixture_set: str) -> list[str]:
    config = tmp_path / f"{fixture_set}_config.json"
    config.write_text(json.dumps({
        "fixture_path": str(FIXTURES / f"{fixture_set}_search.json"),
        "replay_path": str(FIXTURES / f"{fixture_set}_replay.json"),
    }), encoding="utf-8")
    return ["--dataset", str(FIXTURES / f"{fixture_set}_dataset.jsonl"),
            "--config", str(config), "--mock"]


def run_trace(tmp_path: Path, fixture_set: str, mode: str, workers: int) -> bytes:
    """The trace ``run --mock`` writes for one fixture set and mode."""
    out = tmp_path / f"{fixture_set}_{mode}_{workers}.jsonl"
    code = main(["run", *_common(tmp_path, fixture_set), "--mode", mode,
                 "--out", str(out), "--workers", str(workers)])
    assert code == 0
    return out.read_bytes()


def ablate_report(tmp_path: Path, fixture_set: str, mode: str, variant: str) -> str:
    """The report ``ablate --mock`` writes for one fixture set, mode and variant."""
    out = tmp_path / f"{fixture_set}_{mode}_{variant}.json"
    code = main(["ablate", *_common(tmp_path, fixture_set), "--mode-policy", mode,
                 "--mode", variant, "--report", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def _report_key(fixture_set: str, mode: str, variant: str) -> str:
    return f"{fixture_set}/{mode}/{variant}"


REPORT_CASES = [(s, m, v) for s in SETS for m in MODES for v in ABLATION_MODES]


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("fixture_set, mode", [(s, m) for s in SETS for m in MODES])
def test_trace_matches_golden(tmp_path, fixture_set, mode, workers):
    golden = GOLDEN / f"{fixture_set}_{mode}.jsonl"
    assert run_trace(tmp_path, fixture_set, mode, workers) == golden.read_bytes()


def test_golden_reports_cover_every_variant():
    keys = json.loads(REPORTS.read_text(encoding="utf-8")).keys()
    assert sorted(keys) == sorted(_report_key(*case) for case in REPORT_CASES)


@pytest.mark.parametrize("fixture_set, mode, variant", REPORT_CASES)
def test_ablation_report_matches_golden(tmp_path, fixture_set, mode, variant):
    expected = json.loads(REPORTS.read_text(encoding="utf-8"))
    golden = json.dumps(expected[_report_key(fixture_set, mode, variant)],
                        indent=2, ensure_ascii=False) + "\n"
    assert ablate_report(tmp_path, fixture_set, mode, variant) == golden


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        tmp_path = Path(scratch)
        for fixture_set in SETS:
            for mode in MODES:
                (GOLDEN / f"{fixture_set}_{mode}.jsonl").write_bytes(
                    run_trace(tmp_path, fixture_set, mode, workers=1))
        reports = {_report_key(*case): json.loads(ablate_report(tmp_path, *case))
                   for case in REPORT_CASES}
    REPORTS.write_text(json.dumps(reports, indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
