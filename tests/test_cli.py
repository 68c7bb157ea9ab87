"""Command-line behavior: dataset loading, run/eval/ablate, manifests."""

import json
import os
import subprocess
import sys
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

import ragvet
from ragvet.backends import (
    BackendError,
    MockRerankerBackend,
    MockSearchBackend,
    ModelRequest,
    ReplayModelBackend,
    load_fixture,
)
from ragvet.cli import DatasetError, load_dataset, main
from ragvet.runtime import Deadline

from conftest import FIXTURES, serve_http


def write_config(tmp_path, **overrides):
    config = {
        "mode": "task2plus",
        "fixture_path": str(FIXTURES / "e2e_search.json"),
        "replay_path": str(FIXTURES / "e2e_replay.json"),
        **overrides,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestLoadDataset:
    def test_well_formed_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            json.dumps({"conversation_id": f"c{i}", "image_ref": None,
                        "turns": [{"query": "q"}]})
            for i in range(3)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(load_dataset(path)) == 3

    def test_single_malformed_line_aborts_with_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps({"conversation_id": "c1", "image_ref": None,
                           "turns": [{"query": "q"}]})
        path.write_text(f"{good}\nnot json\n{good.replace('c1', 'c3')}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(path)

    def test_duplicate_conversation_id_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = json.dumps({"conversation_id": "c1", "image_ref": None,
                             "turns": [{"query": "q"}]})
        path.write_text(f"{record}\n{record}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    def test_conversation_without_turns_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"conversation_id": "c1", "image_ref": None, "turns": []}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_config_list_rejected_cleanly(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]", encoding="utf-8")
        code = main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(tmp_path / "t.jsonl"), "--mock",
        ])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err


class TestRunCommand:
    def test_run_writes_trace_and_manifest(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "trace.jsonl"
        code = main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(out), "--mock",
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 26
        manifest = json.loads((tmp_path / "trace.jsonl.manifest.json").read_text())
        assert manifest["record_count"] == 20
        assert manifest["finished_at"] is not None
        assert manifest["backend_kinds"]["model"] == "replay"
        assert "ran 26 turns" in capsys.readouterr().out

    def test_identical_runs_identical_bytes(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main([
                "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                "--config", str(config), "--out", str(out), "--mock",
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name, workers in (("w1.jsonl", "1"), ("w4.jsonl", "4")):
            out = tmp_path / name
            assert main([
                "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                "--config", str(config), "--out", str(out), "--mock",
                "--workers", workers,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_e2e_answers_and_flags_match_expected(self, tmp_path):
        expected = json.loads((FIXTURES / "e2e_expected.json").read_text(encoding="utf-8"))
        out = tmp_path / "trace.jsonl"
        assert main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(write_config(tmp_path)), "--out", str(out), "--mock",
        ]) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        seen = {f"{r['conversation_id']}:{r['turn_index']}": r for r in records}
        assert seen.keys() == expected.keys()
        for key, want in expected.items():
            record = seen[key]
            assert record["final"]["branch"] == want["branch"], key
            assert record["final"]["answer"] == want["answer"], key
            assert record["flags"] == want["flags"], key

    def test_removed_parallel_generation_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, parallel_generation=True)
        code = main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(tmp_path / "t.jsonl"), "--mock",
        ])
        assert code == 1
        assert "unknown config keys: parallel_generation" in capsys.readouterr().err

    def test_module_entry_point_writes_trace(self, tmp_path):
        out = tmp_path / "t.jsonl"
        src = str(Path(ragvet.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-m", "ragvet.cli", "run",
             "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
             "--config", str(write_config(tmp_path)), "--out", str(out), "--mock"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert len(out.read_text(encoding="utf-8").splitlines()) == 26

    def test_bearer_token_redacted_in_manifest(self, tmp_path):
        config = write_config(tmp_path, bearer_token="secret-token-value")
        out = tmp_path / "trace.jsonl"
        assert main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(out), "--mock",
        ]) == 0
        manifest_text = (tmp_path / "trace.jsonl.manifest.json").read_text(encoding="utf-8")
        assert "secret-token-value" not in manifest_text
        assert "<redacted>" in manifest_text

    def test_mock_without_fixture_paths_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "task2plus"}), encoding="utf-8")
        code = main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(tmp_path / "t.jsonl"), "--mock",
        ])
        assert code == 1
        assert "replay_path" in capsys.readouterr().err

    def test_env_override_applies_to_endpoints_only(self, tmp_path, monkeypatch, capsys):
        # Remote mode without endpoints fails; env vars must fill them in.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({}), encoding="utf-8")
        monkeypatch.setenv("RAGVET_ROUTER_ENDPOINT", "http://127.0.0.1:1/r")
        monkeypatch.setenv("RAGVET_VLM_ENDPOINT", "http://127.0.0.1:1/v")
        monkeypatch.setenv("RAGVET_RERANKER_ENDPOINT", "http://127.0.0.1:1/k")
        code = main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(tmp_path / "t.jsonl"),
        ])
        # web_search_endpoint still missing: the error must name only it
        err = capsys.readouterr().err
        assert code == 1
        assert "web_search_endpoint" in err
        assert "router_endpoint" not in err


    @pytest.mark.parametrize("key, url", [
        ("router_endpoint", "127.0.0.1:8000/route"),  # no scheme
        ("vlm_endpoint", "http:///complete"),  # no host
    ])
    def test_malformed_endpoint_fails_before_any_turn(self, tmp_path, capsys, key, url):
        endpoints = {name: "http://127.0.0.1:1/x" for name in (
            "router_endpoint", "vlm_endpoint", "reranker_endpoint", "web_search_endpoint")}
        config = write_config(tmp_path, **{**endpoints, key: url})
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(out)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_remote_run_with_workers_matches_the_mock_run(self, tmp_path):
        """Four workers share each remote backend's connections; every turn's
        record must equal the one the same services give in-process."""
        mock_out, remote_out = tmp_path / "mock.jsonl", tmp_path / "remote.jsonl"
        assert main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(write_config(tmp_path)), "--out", str(mock_out),
                     "--mock"]) == 0
        with serve_http(_MockServices) as server:
            config = write_config(
                tmp_path, router_endpoint=f"{server.url}/model",
                vlm_endpoint=f"{server.url}/model", reranker_endpoint=f"{server.url}/rerank",
                web_search_endpoint=f"{server.url}/search")
            assert main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                         "--config", str(config), "--out", str(remote_out),
                         "--workers", "4"]) == 0
            assert server.opened
        remote_lines = remote_out.read_text(encoding="utf-8").splitlines()
        assert len(remote_lines) == 26
        assert remote_lines == mock_out.read_text(encoding="utf-8").splitlines()


class _MockServices(BaseHTTPRequestHandler):
    """The e2e fixtures' mock backends served over keep-alive HTTP."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    model = ReplayModelBackend.from_file(FIXTURES / "e2e_replay.json")
    search = MockSearchBackend(load_fixture(FIXTURES / "e2e_search.json"))
    reranker = MockRerankerBackend()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        never = Deadline.never()
        try:
            if self.path == "/model":
                reply = self.model.complete(ModelRequest(**body), never)
                payload = {"text": reply.text, "prompt_tokens": reply.prompt_tokens,
                           "completion_tokens": reply.completion_tokens}
            elif self.path == "/rerank":
                payload = {"scores": self.reranker.score_batch(body["query"], body["chunks"],
                                                               never)}
            else:
                items = self.search.web_search(body["query"], body["k"], never)
                payload = {"results": [dict(item.fields) for item in items]}
            status, data = 200, json.dumps(payload).encode("utf-8")
        except BackendError as exc:
            status, data = 500, str(exc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestEvalCommand:
    def _run_then_eval(self, tmp_path):
        config = write_config(tmp_path)
        trace = tmp_path / "trace.jsonl"
        assert main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(trace), "--mock",
        ]) == 0
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--traces", str(trace),
            "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--judge", "mock",
            "--report", str(report_path),
        ]) == 0
        return json.loads(report_path.read_text(encoding="utf-8")), tmp_path

    def test_report_references_manifest_hash(self, tmp_path):
        report, base = self._run_then_eval(tmp_path)
        manifest = json.loads((base / "trace.jsonl.manifest.json").read_text())
        assert report["manifest_hash"] == manifest["manifest_hash"]

    def test_report_counts_match_fixture_plan(self, tmp_path):
        report, _ = self._run_then_eval(tmp_path)
        assert report["n"] == 26
        # accepted turns return the scripted ground truth verbatim
        expected = json.loads((FIXTURES / "e2e_expected.json").read_text())
        accepted = sum(1 for v in expected.values() if v["answer"] != "I don't know")
        assert report["counts"]["Perfect"] == accepted
        assert report["counts"]["Missing"] == 26 - accepted
        assert len(report["rows"]) == 26

    def test_eval_requires_ground_truth(self, tmp_path, capsys):
        config = write_config(tmp_path)
        trace = tmp_path / "trace.jsonl"
        dataset = tmp_path / "nogt.jsonl"
        dataset.write_text(
            json.dumps({"conversation_id": "c01", "image_ref": "img01",
                        "turns": [{"query": "identify010 object010 brand010"}]}) + "\n",
            encoding="utf-8",
        )
        assert main([
            "run", "--dataset", str(dataset), "--config", str(config),
            "--out", str(trace), "--mock",
        ]) == 0
        code = main([
            "eval", "--traces", str(trace), "--dataset", str(dataset),
            "--config", str(config), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "ground truth" in capsys.readouterr().err

    def test_malformed_judge_endpoint_fails_before_judging(self, tmp_path, capsys):
        config = write_config(tmp_path, judge_endpoint="judge.test/score")
        code = main([
            "eval", "--traces", str(tmp_path / "missing.jsonl"),
            "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--judge", "endpoint", "--report", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "judge_endpoint" in capsys.readouterr().err


class TestAblateCommand:
    def test_ablate_writes_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            fixture_path=str(FIXTURES / "ablation_search.json"),
            replay_path=str(FIXTURES / "ablation_replay.json"),
        )
        report_path = tmp_path / "ablate.json"
        code = main([
            "ablate", "--mode", "full",
            "--dataset", str(FIXTURES / "ablation_dataset.jsonl"),
            "--config", str(config), "--mock", "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["mode"] == "full"
        assert payload["hallucination_rate"] == 0.0
        assert "ablation full" in capsys.readouterr().out


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
