"""Command-line behavior: dataset loading, run/eval/ablate, manifests."""

import json
import math
import os
import socket
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
from ragvet.cli import DatasetError, build_backends, load_dataset, main
from ragvet.core import PipelineConfig, validate_config
from ragvet.evaluation import MockJudge
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


ENDPOINT_KEYS = ("router_endpoint", "vlm_endpoint", "reranker_endpoint", "web_search_endpoint")


def remote_endpoints(scheme="http"):
    return {key: f"{scheme}://127.0.0.1:1/{key}" for key in ENDPOINT_KEYS}


def remote_config(scheme="http", **overrides):
    return validate_config(PipelineConfig.from_dict({
        "fixture_path": str(FIXTURES / "kg_search.json"), **remote_endpoints(scheme),
        **overrides,
    }))


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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_fail_before_any_turn(self, tmp_path, capsys, workers):
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(write_config(tmp_path)), "--out", str(out), "--mock",
                     "--workers", workers])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --workers must be at least 1, got {workers}"]
        assert list(tmp_path.glob("t.jsonl*")) == []

    def test_rerank_k_over_the_context_size_fails_before_any_turn(self, tmp_path, capsys):
        config = write_config(tmp_path, rerank_k=5, score_floor=0.0, mad_scale=100.0)
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(out), "--mock"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "rerank_k <= 3" in lines[0]
        assert not out.exists()

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
        config = write_config(tmp_path, **{**remote_endpoints(), key: url})
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(out)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_unresolvable_endpoint_host_fails_before_any_turn(self, tmp_path, capsys,
                                                             monkeypatch):
        resolve = socket.getaddrinfo

        def resolver(host, *args, **kwargs):
            if host == "no-such-host.test":
                raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", resolver)
        config = write_config(tmp_path, **{**remote_endpoints(),
                                           "vlm_endpoint": "http://no-such-host.test/v"})
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "vlm_endpoint" in err and "no-such-host.test" in err
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


class TestRemoteSetUp:
    @pytest.mark.parametrize("mode, loads", [("task1", 1), ("task2plus", 0)])
    def test_only_a_mode_that_looks_images_up_loads_the_fixture(self, monkeypatch, mode, loads):
        calls = []

        def counting(path):
            calls.append(path)
            return load_fixture(path)

        monkeypatch.setattr("ragvet.cli.load_fixture", counting)
        backends, _ = build_backends(remote_config(mode=mode), mock=False)
        backends.close()
        assert len(calls) == loads
        if loads:
            assert backends.search.image_search("kg-kettle", 1)

    def test_remote_task1_rejects_a_malformed_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"image_index": [1, 2]}), encoding="utf-8")
        config = write_config(tmp_path, mode="task1", fixture_path=str(fixture),
                              **remote_endpoints())
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "fixture.json:image_index" in lines[0]
        assert not out.exists()

    def test_remote_task1_without_fixture_fails_before_any_turn(self, tmp_path, capsys):
        config = write_config(tmp_path, mode="task1", fixture_path=None, **remote_endpoints())
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "fixture_path" in lines[0]
        assert not out.exists()

    def test_https_endpoints_share_one_tls_context(self, tls_context_calls):
        backends, _ = build_backends(remote_config("https", mode="task2plus"), mock=False)
        backends.close()
        assert len(tls_context_calls) == 1


class _MockServices(BaseHTTPRequestHandler):
    """The e2e fixtures' mock backends served over keep-alive HTTP."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    model = ReplayModelBackend.from_file(FIXTURES / "e2e_replay.json")
    search = MockSearchBackend(load_fixture(FIXTURES / "e2e_search.json"))
    reranker = MockRerankerBackend()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        never = Deadline(math.inf)
        try:
            if self.path == "/model":
                assert body.pop("deterministic") is True
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
    def _run_then_eval(self, tmp_path, manifest=b""):
        """Run the e2e set, then evaluate its trace; a ``manifest`` of None
        deletes the run's manifest first, and any other bytes replace it."""
        config = write_config(tmp_path)
        trace = tmp_path / "trace.jsonl"
        assert main([
            "run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
            "--config", str(config), "--out", str(trace), "--mock",
        ]) == 0
        manifest_path = tmp_path / "trace.jsonl.manifest.json"
        if manifest is None:
            manifest_path.unlink()
        elif manifest:
            manifest_path.write_bytes(manifest)
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

    @pytest.mark.parametrize("manifest", [
        None, b"{not json", b"\xff\xfe", b"[]", b'"a string"', b"{}", b'{"manifest_hash": 5}',
    ], ids=["missing", "not-json", "not-utf8", "list", "string", "no-hash", "number-hash"])
    def test_unusable_manifest_reports_a_null_hash(self, tmp_path, manifest):
        report, _ = self._run_then_eval(tmp_path, manifest)
        assert report["manifest_hash"] is None
        assert report["n"] == 26

    def test_report_counts_match_fixture_plan(self, tmp_path):
        report, _ = self._run_then_eval(tmp_path)
        assert report["n"] == 26
        # accepted turns return the scripted ground truth verbatim
        expected = json.loads((FIXTURES / "e2e_expected.json").read_text())
        accepted = sum(1 for v in expected.values() if v["answer"] != "I don't know")
        assert report["counts"]["Perfect"] == accepted
        assert report["counts"]["Missing"] == 26 - accepted
        assert len(report["rows"]) == 26

    def test_padded_abstain_text_scores_every_abstention_missing(self, tmp_path):
        # A run writes the configured abstention text verbatim, padding included.
        abstain_text = " I don't know "
        config = write_config(tmp_path, abstain_text=abstain_text)
        dataset = FIXTURES / "e2e_dataset.jsonl"
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(
            json.dumps({"conversation_id": conversation.conversation_id,
                        "turn_index": turn.turn_index, "final": {"answer": abstain_text}}) + "\n"
            for conversation in load_dataset(dataset) for turn in conversation.turns
        ), encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["eval", "--traces", str(trace), "--dataset", str(dataset),
                     "--config", str(config), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["n"] == 26
        assert report["missing_rate"] == 1.0

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

    @pytest.mark.parametrize("edit, names", [
        (lambda lines: lines + lines[3:5], "trace repeats turn ('c04', 0) (2 repeated"),
        (lambda lines: lines[:2] + lines[3:-1], "trace lacks turn ('c03', 0) (2 of the"),
    ], ids=["repeated-turns", "missing-turns"])
    def test_trace_must_hold_each_dataset_turn_once(self, tmp_path, capsys, edit, names):
        config = write_config(tmp_path)
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--out", str(trace), "--mock"]) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        trace.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = main(["eval", "--traces", str(trace),
                     "--dataset", str(FIXTURES / "e2e_dataset.jsonl"),
                     "--config", str(config), "--report", str(report)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and names in err[0], err
        assert not report.exists()

    def test_endpoint_judge_posts_the_judge_role_and_its_cap(self, tmp_path):
        bodies = []

        class Judge(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                bodies.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
                data = json.dumps({"text": "Perfect"}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        dataset, trace, report = tmp_path / "d.jsonl", tmp_path / "t.jsonl", tmp_path / "r.json"
        dataset.write_text(json.dumps(RECORD) + "\n", encoding="utf-8")
        trace.write_text(json.dumps(TRACE_RECORD) + "\n", encoding="utf-8")
        with serve_http(Judge) as server:
            config = write_config(tmp_path, judge_endpoint=f"{server.url}/judge")
            assert main(["eval", "--traces", str(trace), "--dataset", str(dataset),
                         "--config", str(config), "--judge", "endpoint",
                         "--report", str(report)]) == 0
        assert [(body["role"], body["max_tokens"]) for body in bodies] == [("judge", 16)]
        assert json.loads(report.read_text(encoding="utf-8"))["counts"]["Perfect"] == 1

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

    def test_ablate_checks_every_ground_truth_before_running_a_turn(
            self, tmp_path, capsys, monkeypatch):
        config = write_config(
            tmp_path,
            fixture_path=str(FIXTURES / "ablation_search.json"),
            replay_path=str(FIXTURES / "ablation_replay.json"),
        )
        records = [json.loads(line) for line in
                   (FIXTURES / "ablation_dataset.jsonl").read_text(encoding="utf-8").splitlines()]
        del records[-1]["turns"][0]["ground_truth"]
        dataset = tmp_path / "last_without_truth.jsonl"
        dataset.write_text("".join(json.dumps(record) + "\n" for record in records),
                           encoding="utf-8")
        requests = []
        complete = ReplayModelBackend.complete

        def logged(self, request, deadline):
            requests.append(request)
            return complete(self, request, deadline)

        monkeypatch.setattr(ReplayModelBackend, "complete", logged)
        code = main(["ablate", "--mode", "full", "--dataset", str(dataset),
                     "--config", str(config), "--mock"])
        assert code == 1
        assert "ground truth" in capsys.readouterr().err
        assert requests == []


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0



RECORD = {"conversation_id": "c1", "image_ref": None,
          "turns": [{"query": "q", "ground_truth": "a"}]}
TRACE_RECORD = {"conversation_id": "c1", "turn_index": 0, "final": {"answer": "a"}}
ROUTER_ENTRY = {"role": "router", "match": "", "response": "1. Needs External Info: no"}

# (id, the one input that is malformed, what the error line must name). An
# input is a config key -> value, or a whole file: "dataset" (one record),
# "trace" (one record, judged by eval), "replay" or "fixture" (a document, or
# None for a file that is not there). Paths are relative to the test's
# directory, which holds no missing.txt, an unsectioned.txt template without
# [system]/[user] and a subject.txt template that uses {subject}, a
# placeholder no packaged template has.
MALFORMED_INPUTS = [
    ("config-integer-as-string", {"config": {"recall_k": "10"}}, "recall_k"),
    ("config-text-as-number", {"config": {"abstain_text": 5}}, "abstain_text"),
    ("config-prompt-paths-not-object", {"config": {"prompt_paths": "x"}}, "prompt_paths"),
    ("config-prompt-file-missing",
     {"config": {"prompt_paths": {"routing": "missing.txt"}}}, "prompt_paths.routing"),
    ("config-prompt-file-without-sections",
     {"config": {"prompt_paths": {"routing": "unsectioned.txt"}}}, "prompt_paths.routing"),
    ("config-prompt-name-misspelled",
     {"config": {"prompt_paths": {"routnig": "unsectioned.txt"}}}, "routnig"),
    ("config-prompt-unknown-placeholder",
     {"config": {"prompt_paths": {"routing": "subject.txt"}}}, "prompt_paths.routing"),
    ("config-prompt-capitalized-placeholder",
     {"config": {"prompt_paths": {"routing": "capitalized.txt"}}},
     "prompt_paths.routing: malformed placeholder {Query}"),
    ("config-prompt-double-quoted-fallback",
     {"config": {"prompt_paths": {"generation": "double_quoted.txt"}}},
     "prompt_paths.generation: malformed placeholder"),
    ("eval-judge-prompt-unknown-placeholder",
     {"config": {"prompt_paths": {"judge": "subject.txt"}}, "dataset": RECORD,
      "trace": {"conversation_id": "c1", "turn_index": 0, "final": {"answer": "a"}}},
     "prompt_paths.judge"),
    ("dataset-query-number",
     {"dataset": {**RECORD, "turns": [{"query": 5}]}}, "line 1: query"),
    ("dataset-id-list", {"dataset": {**RECORD, "conversation_id": ["x"]}},
     "line 1: conversation_id"),
    ("dataset-turns-missing",
     {"dataset": {key: value for key, value in RECORD.items() if key != "turns"}},
     "line 1: missing key 'turns'"),
    ("dataset-image-ref-number", {"dataset": {**RECORD, "image_ref": 7}}, "line 1: image_ref"),
    ("dataset-ground-truth-number",
     {"dataset": {**RECORD, "turns": [{"query": "q", "ground_truth": 5}]},
      "trace": {"conversation_id": "c1", "turn_index": 0, "final": {"answer": "a"}}},
     "line 1: ground_truth"),
    ("trace-record-empty", {"dataset": RECORD, "trace": {}}, "trace line 1"),
    ("replay-entry-string", {"replay": ["router"]}, "replay.json[0]"),
    ("replay-sleep-not-integer", {"replay": [{**ROUTER_ENTRY, "sleep_ms": "abc"}]},
     "replay.json[0]: sleep_ms"),
    ("replay-response-number", {"replay": [{**ROUTER_ENTRY, "response": 5}]},
     "replay.json[0]: response"),
    ("replay-match-number", {"replay": [{**ROUTER_ENTRY, "match": [5]}]},
     "replay.json[0]: match"),
    ("replay-file-missing", {"replay": None}, "replay.json"),
    ("fixture-image-index-list", {"fixture": {"image_index": [1, 2]}},
     "fixture.json:image_index"),
    ("fixture-file-missing", {"fixture": None}, "fixture.json"),
    ("fixture-record-not-object", {"fixture": {"web_index": ["page"]}},
     "fixture.json:web_index[0]: record must be an object"),
    ("fixture-score-missing", {"fixture": {"web_index": [{"snippet": "s"}]}},
     "fixture.json:web_index[0]: record is missing 'score'"),
    ("fixture-score-bool", {"fixture": {"web_index": [{"snippet": "s", "score": True}]}},
     "fixture.json:web_index[0]: score"),
    ("fixture-field-number",
     {"fixture": {"image_index": {"img01": [{"description": 5, "score": 0.5}]}}},
     "fixture.json:image_index['img01'][0]: field 'description'"),
    ("fixture-kg-record-without-content",
     {"fixture": {"image_index": {"img01": [{"title": "t", "score": 0.5}]}}},
     "fixture.json:image_index['img01'][0]: kg_image item needs"),
    ("fixture-web-record-without-snippet",
     {"fixture": {"web_index": [{"title": "t", "score": 0.5}]}},
     "fixture.json:web_index[0]: web item must carry a snippet"),
    ("fixture-records-unsorted",
     {"fixture": {"web_index": [{"snippet": "a", "score": 0.2}, {"snippet": "b", "score": 0.9}]}},
     "fixture.json:web_index[1]: records must be sorted descending"),
]


@pytest.mark.parametrize("inputs, names", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_is_one_error_line_and_no_output(tmp_path, monkeypatch, capsys,
                                                         inputs, names):
    monkeypatch.chdir(tmp_path)
    Path("unsectioned.txt").write_text("no sections here\n", encoding="utf-8")
    Path("subject.txt").write_text("[system]\ns\n\n[user]\nAbout {subject}: {query}\n",
                                   encoding="utf-8")
    Path("capitalized.txt").write_text("[system]\ns\n\n[user]\nQ: {Query}\n",
                                       encoding="utf-8")
    Path("double_quoted.txt").write_text(
        '[system]\ns\n\n[user]\nQ: {query if query else "none"}\n', encoding="utf-8")
    overrides = dict(inputs.get("config", {}))
    for kind in ("replay", "fixture"):
        if kind in inputs:
            overrides[f"{kind}_path"] = f"{kind}.json"
            if inputs[kind] is not None:
                Path(f"{kind}.json").write_text(json.dumps(inputs[kind]), encoding="utf-8")
    dataset = FIXTURES / "e2e_dataset.jsonl"
    if "dataset" in inputs:
        dataset = Path("dataset.jsonl")
        dataset.write_text(json.dumps(inputs["dataset"]) + "\n", encoding="utf-8")
    argv = ["run", "--out", "out.jsonl", "--mock"]
    if "trace" in inputs:
        Path("trace.jsonl").write_text(json.dumps(inputs["trace"]) + "\n", encoding="utf-8")
        argv = ["eval", "--traces", "trace.jsonl", "--report", "out.jsonl"]
    config = write_config(tmp_path, **overrides)
    code = main([*argv, "--dataset", str(dataset), "--config", str(config)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert names in lines[0]
    assert not Path("out.jsonl").exists()
    assert not Path("out.jsonl.manifest.json").exists()


@pytest.mark.parametrize("kind", ["config", "dataset", "replay", "fixture", "trace"])
def test_undecodable_input_is_one_error_line_and_no_output(tmp_path, capsys, kind):
    bad = tmp_path / f"{kind}.bin"
    bad.write_bytes(b"\xff\xfe")
    overrides = {f"{kind}_path": str(bad)} if kind in ("replay", "fixture") else {}
    config = bad if kind == "config" else write_config(tmp_path, **overrides)
    dataset = bad if kind == "dataset" else FIXTURES / "e2e_dataset.jsonl"
    out = tmp_path / "out.jsonl"
    argv = ["run", "--out", str(out), "--mock"]
    if kind == "trace":
        argv = ["eval", "--traces", str(bad), "--report", str(out)]
    code = main([*argv, "--dataset", str(dataset), "--config", str(config)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ") and bad.name in lines[0], lines
    assert not out.exists()
    assert not (tmp_path / "out.jsonl.manifest.json").exists()


@pytest.mark.parametrize("command", ["run", "eval", "ablate"])
def test_unwritable_output_fails_before_any_turn_or_judge_call(tmp_path, capsys, monkeypatch,
                                                               command):
    config = write_config(tmp_path)
    dataset = str(FIXTURES / "e2e_dataset.jsonl")
    trace = tmp_path / "trace.jsonl"
    if command == "eval":
        assert main(["run", "--dataset", dataset, "--config", str(config),
                     "--out", str(trace), "--mock"]) == 0
    calls = []

    def recording(method):
        def record(self, *args):
            calls.append(method.__qualname__)
            return method(self, *args)
        return record

    monkeypatch.setattr(ReplayModelBackend, "complete", recording(ReplayModelBackend.complete))
    monkeypatch.setattr(MockJudge, "judge", recording(MockJudge.judge))
    out = str(tmp_path / "missing" / "out.json")
    argv = {"run": ["run", "--out", out, "--mock"],
            "eval": ["eval", "--traces", str(trace), "--report", out],
            "ablate": ["ablate", "--mode", "full", "--mock", "--report", out]}[command]
    capsys.readouterr()
    code = main([*argv, "--dataset", dataset, "--config", str(config)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}"), lines
    assert calls == []
