"""Mock-run outputs, byte for byte against the committed golden files.

Each fixture set (``e2e``, ``ablation``, ``kg``) is run with ``run --mock``
under ``task1`` and ``task2plus``, with one worker and with four. Every
pipeline variant is run with ``run --mock --variant`` under both modes and
its trace judged with ``eval --judge mock``; the report, without its
``manifest_hash`` and ``rows`` and with the variant as ``mode``, is pinned in
``ablate_reports.json``. Each golden trace is also judged with ``eval``; the
golden traces have no manifest beside them, so the report's
``manifest_hash`` is null. The traces and reports must equal
``tests/fixtures/golden/`` exactly, so a refactor that changes any answer,
flag, stage, label or score fails here. Run manifests carry timestamps and
are not compared.

Only a change meant to alter outputs regenerates the files:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from ragvet.pipeline import VARIANTS

from conftest import FIXTURES, eval_cli, mock_report, run_cli

GOLDEN = FIXTURES / "golden"
SETS = ("e2e", "ablation", "kg")
MODES = ("task1", "task2plus")
REPORTS = GOLDEN / "ablate_reports.json"
EVAL_REPORTS = GOLDEN / "eval_reports.json"


def run_trace(tmp_path: Path, fixture_set: str, mode: str, workers: int,
              variant: str = "full") -> Path:
    """The trace ``run --mock`` writes for one fixture set, mode and variant."""
    return run_cli(tmp_path, fixture_set, mode, workers=workers, variant=variant,
                   out=f"{fixture_set}_{mode}_{variant}_{workers}.jsonl")


def variant_report(tmp_path: Path, fixture_set: str, mode: str, variant: str) -> str:
    """The report pinned for one fixture set, mode and variant: ``eval`` of
    its ``run``, without ``manifest_hash`` and ``rows``, the variant as ``mode``."""
    evaluated = mock_report(tmp_path, fixture_set, mode, variant)
    del evaluated["manifest_hash"], evaluated["rows"]
    return json.dumps({"mode": variant, **evaluated}, indent=2, ensure_ascii=False) + "\n"


def eval_report(tmp_path: Path, fixture_set: str, trace: Path) -> str:
    """The report ``eval --judge mock`` writes for a trace of one fixture set."""
    return eval_cli(tmp_path, trace, fixture_set).read_text(encoding="utf-8")


def _report_key(fixture_set: str, mode: str, variant: str) -> str:
    return f"{fixture_set}/{mode}/{variant}"


def _pinned(path: Path, key: str) -> str:
    """The bytes the command writes for the report pinned under ``key``."""
    expected = json.loads(path.read_text(encoding="utf-8"))
    return json.dumps(expected[key], indent=2, ensure_ascii=False) + "\n"


REPORT_CASES = [(s, m, v) for s in SETS for m in MODES for v in VARIANTS]
TRACE_CASES = [(s, m) for s in SETS for m in MODES]


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("fixture_set, mode", TRACE_CASES)
def test_trace_matches_golden(tmp_path, fixture_set, mode, workers):
    golden = GOLDEN / f"{fixture_set}_{mode}.jsonl"
    assert run_trace(tmp_path, fixture_set, mode, workers).read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("fixture_set, mode, variant", REPORT_CASES)
def test_variant_trace_is_the_same_with_four_workers(tmp_path, fixture_set, mode, variant):
    one = run_trace(tmp_path, fixture_set, mode, 1, variant).read_bytes()
    assert run_trace(tmp_path, fixture_set, mode, 4, variant).read_bytes() == one


def test_golden_reports_cover_every_variant():
    keys = json.loads(REPORTS.read_text(encoding="utf-8")).keys()
    assert sorted(keys) == sorted(_report_key(*case) for case in REPORT_CASES)


def test_golden_eval_reports_cover_every_trace():
    keys = json.loads(EVAL_REPORTS.read_text(encoding="utf-8")).keys()
    assert sorted(keys) == sorted(f"{s}/{m}" for s, m in TRACE_CASES)


@pytest.mark.parametrize("fixture_set, mode, variant", REPORT_CASES)
def test_variant_report_matches_golden(tmp_path, fixture_set, mode, variant):
    golden = _pinned(REPORTS, _report_key(fixture_set, mode, variant))
    assert variant_report(tmp_path, fixture_set, mode, variant) == golden


@pytest.mark.parametrize("fixture_set, mode", TRACE_CASES)
def test_eval_report_matches_golden(tmp_path, fixture_set, mode):
    golden = _pinned(EVAL_REPORTS, f"{fixture_set}/{mode}")
    assert eval_report(tmp_path, fixture_set, GOLDEN / f"{fixture_set}_{mode}.jsonl") == golden


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        tmp_path = Path(scratch)
        for fixture_set, mode in TRACE_CASES:
            (GOLDEN / f"{fixture_set}_{mode}.jsonl").write_bytes(
                run_trace(tmp_path, fixture_set, mode, workers=1).read_bytes())
        reports = {_report_key(*case): json.loads(variant_report(tmp_path, *case))
                   for case in REPORT_CASES}
        eval_reports = {
            f"{s}/{m}": json.loads(eval_report(tmp_path, s, GOLDEN / f"{s}_{m}.jsonl"))
            for s, m in TRACE_CASES}
    for path, pinned in ((REPORTS, reports), (EVAL_REPORTS, eval_reports)):
        path.write_text(json.dumps(pinned, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
