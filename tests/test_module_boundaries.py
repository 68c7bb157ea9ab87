"""No ragvet module or test module imports a ragvet module's private
(underscore) names, no ragvet module imports an HTTP client library
(``transport`` speaks HTTP itself), and no ragvet module but ``transport``
imports ``socket`` or ``ssl``. No ragvet module but ``templates`` calls
``load_template`` or ``PromptTemplate``, so every prompt comes through
``resolve_template``. Only ``backends.ask`` builds a ``ModelRequest``, and
no stage module catches a backend failure or a ``ReplyParseError``:
``pipeline`` is the one failure seam. No ragvet module but ``pipeline`` names
its turn class, ``_Turn``, which holds a turn's trace, or calls a ``.flag(``
method, so every degradation flag is set there. ``cli`` names neither
``judge_response`` nor ``aggregate``: ``evaluation.score_answers`` is the one
scoring path. ``evaluation`` imports nothing from ``pipeline``, and
``cli._run_turns`` is the one caller of ``run_conversation``: every
pipeline variant runs through ``run``'s one dataset loop. No ragvet module but
``runtime`` names ``time.monotonic``, ``time.perf_counter`` or
``time.sleep``, so every read of time and every wait goes through
``runtime.clock``; ``cli``'s calendar stamp (``time.gmtime``) is no clock read.
No ragvet module but ``runtime`` imports ``concurrent.futures`` or starts a
``threading.Thread``, so every wait on another thread of a turn is a wait on
``runtime.clock`` too; ``cli``'s ``--workers`` pool runs conversations, not a
turn, and is exempt.
Only ``core`` calls ``json.loads`` or ``json.load``: its ``decode_json``
decodes every input file (through ``read_json`` and ``read_jsonl``) and every
reply ``transport`` reads, so no other module decides its own way what JSON
text is accepted. ``core`` imports no ragvet module but ``templates``, so
``transport`` depends on ``core`` and never the other way round.
Every name a ragvet module other than ``__init__`` imports is used in it, or
listed in its ``__all__``.
No test module but ``conftest`` derives a class from
``BaseHTTPRequestHandler``, ``HTTPServer`` or ``ThreadingHTTPServer``, or
builds one of those servers: every socket test is served by conftest's one
scripted loopback service.

Dunder names such as ``__version__`` are public by convention and allowed.
"""

import ast
import warnings
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ragvet"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """``module:name`` for each underscore name imported from a ragvet module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ragvet":
            continue
        found.extend(f"{'.' * node.level}{module}:{alias.name}"
                     for alias in node.names if _is_private(alias.name))
    return found


def test_detector_sees_relative_and_absolute_private_imports():
    source = (
        "from .pipeline import run_turn, _Turn\n"
        "from ragvet.backends import _post_json\n"
        "from . import _internal, __version__\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [
        ".pipeline:_Turn", "ragvet.backends:_post_json", ".:_internal",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_cross_module_import(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: path.name)
def test_no_private_import_in_tests(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


HTTP_SERVERS = ("HTTPServer", "ThreadingHTTPServer")


def http_servers(source: str) -> list[str]:
    """Each class the source derives from ``BaseHTTPRequestHandler``, an
    ``HTTPServer`` or a ``ThreadingHTTPServer``, and each server of those two
    it builds, by bare name or as an attribute, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            kinds = [base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                     for base in node.bases]
            found.extend((node.lineno, node.col_offset, f"class {node.name}({kind})")
                         for kind in kinds if kind in ("BaseHTTPRequestHandler", *HTTP_SERVERS))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in HTTP_SERVERS:
                found.append((node.lineno, node.col_offset, f"{name}()"))
    return [name for *_, name in sorted(found)]


def test_detector_sees_every_form_of_http_server():
    source = (
        "from http.server import HTTPServer\n"
        "class Handler(http.server.BaseHTTPRequestHandler):\n"
        "    protocol_version = 'HTTP/1.1'\n"
        "server = http.server.ThreadingHTTPServer(('127.0.0.1', 0), Handler)\n"
        "class Loopback(HTTPServer, object):\n"
        "    pass\n"
        "HTTPServer(('127.0.0.1', 0), Handler).serve_forever()\n"
        "socket.create_server(('127.0.0.1', 0))\n"
        "class Quiet(Handler):\n"
        "    pass\n"
    )
    assert http_servers(source) == [
        "class Handler(BaseHTTPRequestHandler)", "ThreadingHTTPServer()",
        "class Loopback(HTTPServer)", "HTTPServer()",
    ]


def test_conftest_holds_the_one_test_service():
    assert http_servers((Path(__file__).parent / "conftest.py").read_text(encoding="utf-8")) == [
        "class _Service(BaseHTTPRequestHandler)", "class LoopbackServer(ThreadingHTTPServer)",
    ]


@pytest.mark.parametrize("path", [path for path in TEST_MODULES if path.name != "conftest.py"],
                         ids=lambda path: path.name)
def test_no_test_module_but_conftest_serves_http(path):
    assert http_servers(path.read_text(encoding="utf-8")) == []


HTTP_CLIENTS = ("http.client", "urllib.request", "requests")
NETWORK_MODULES = ("socket", "ssl")


def banned_imports(source: str, banned: tuple[str, ...]) -> list[str]:
    """Each imported module that is, or is inside, one of ``banned``;
    ``from a import b`` imports ``a.b`` as well as ``a``."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.append(node.module)
            imported.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return [name for name in imported
            if any(name == module or name.startswith(f"{module}.") for module in banned)]


def test_detector_sees_every_form_of_http_client_import():
    source = (
        "import http.client\n"
        "from urllib import request\n"
        "import requests.adapters as adapters\n"
        "from http.server import BaseHTTPRequestHandler\n"
        "from urllib.parse import urlsplit\n"
        "import json, requests_toolbelt\n"
    )
    assert banned_imports(source, HTTP_CLIENTS) == [
        "http.client", "urllib.request", "requests.adapters",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_http_client_library_import(path):
    assert banned_imports(path.read_text(encoding="utf-8"), HTTP_CLIENTS) == []


def test_detector_sees_every_form_of_socket_and_ssl_import():
    source = (
        "import socket\n"
        "from ssl import SSLContext\n"
        "import socketserver, sslkeylog\n"
    )
    assert banned_imports(source, NETWORK_MODULES) == ["socket", "ssl", "ssl.SSLContext"]


def test_transport_is_the_module_that_opens_sockets():
    assert banned_imports((PACKAGE / "transport.py").read_text(encoding="utf-8"),
                          NETWORK_MODULES) == ["socket", "ssl"]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "transport.py"],
                         ids=lambda path: path.name)
def test_only_transport_imports_socket_or_ssl(path):
    assert banned_imports(path.read_text(encoding="utf-8"), NETWORK_MODULES) == []


TEMPLATE_READERS = ("load_template", "PromptTemplate")


def template_reads(source: str) -> list[str]:
    """Each call, in source order, of ``load_template`` or ``PromptTemplate``,
    by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in TEMPLATE_READERS:
                found.append((node.lineno, node.col_offset, name))
    return [name for *_, name in sorted(found)]


def test_detector_sees_every_form_of_template_read():
    source = (
        "from . import templates\n"
        "from .templates import PromptTemplate, load_template, resolve_template\n"
        "a = load_template(path)\n"
        "b = templates.load_template(path)\n"
        "c = PromptTemplate(system='s', user='u')\n"
        "d = templates.PromptTemplate('s', 'u').build(x='y')\n"
        "e: PromptTemplate = resolve_template('judge', {})\n"
        "f = isinstance(e, PromptTemplate) and templates.default_template('cov')\n"
    )
    assert template_reads(source) == [
        "load_template", "load_template", "PromptTemplate", "PromptTemplate",
    ]


def test_templates_is_the_module_that_reads_templates():
    assert template_reads((PACKAGE / "templates.py").read_text(encoding="utf-8")) == [
        "PromptTemplate", "load_template", "load_template",
    ]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "templates.py"],
                         ids=lambda path: path.name)
def test_only_templates_reads_or_builds_a_template(path):
    assert template_reads(path.read_text(encoding="utf-8")) == []


def callers(source: str, name: str) -> list[str]:
    """The qualified name of the function around each call of ``name``, by
    bare name or as an attribute, in source order; a lambda is part of the
    function it is written in."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.append((node.lineno, node.col_offset, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return [name for *_, name in sorted(found)]


def test_detector_sees_every_form_of_request_build():
    source = (
        "from . import backends\n"
        "from .backends import ModelRequest\n"
        "default = ModelRequest(role='router', system='s', user='u')\n"
        "class Judge:\n"
        "    def judge(self):\n"
        "        return backends.ModelRequest('verifier', 's', 'u')\n"
        "def ask(model):\n"
        "    return isinstance(model, ModelRequest) or ModelRequest(**model)\n"
    )
    assert callers(source, "ModelRequest") == ["<module>", "Judge.judge", "ask"]


def test_only_ask_builds_model_requests():
    builders = {path.name: callers(path.read_text(encoding="utf-8"), "ModelRequest")
                for path in MODULES}
    assert {name: found for name, found in builders.items() if found} == {"backends.py": ["ask"]}


def ragvet_imports(source: str, module: str) -> list[str]:
    """``module.<name>`` for each name imported from ragvet module ``module``,
    and ``module`` for each import of the module itself, relative or
    absolute, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(module for alias in node.names if alias.name == f"ragvet.{module}")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "ragvet"
                                                   or (node.module or "").startswith("ragvet.")):
            source_module = (node.module or "").removeprefix("ragvet").lstrip(".")
            if source_module == module:
                found.extend(f"{module}.{alias.name}" for alias in node.names)
            elif not source_module:
                found.extend(module for alias in node.names if alias.name == module)
    return found


def test_detector_sees_every_form_of_module_import():
    source = (
        "from .pipeline import VARIANTS, run_conversation as run\n"
        "from ragvet.pipeline import TurnOutcome\n"
        "from . import core, pipeline\n"
        "from ragvet import pipeline as p\n"
        "import ragvet.pipeline\n"
        "from .pipelines import other\n"
        "from pipeline import unrelated\n"
        "import pipeline\n"
    )
    assert ragvet_imports(source, "pipeline") == [
        "pipeline.VARIANTS", "pipeline.run_conversation", "pipeline.TurnOutcome",
        "pipeline", "pipeline", "pipeline",
    ]


def test_evaluation_imports_nothing_from_pipeline():
    assert ragvet_imports((PACKAGE / "evaluation.py").read_text(encoding="utf-8"),
                          "pipeline") == []


def test_detector_sees_a_call_in_a_lambda_as_its_function():
    source = (
        "def loop(pool, data):\n"
        "    return pool.map(lambda c: pipeline.run_conversation(c), data)\n"
        "run_conversation(conversation)\n"
    )
    assert callers(source, "run_conversation") == ["loop", "<module>"]


def test_one_dataset_loop_runs_conversations():
    loops = {path.name: callers(path.read_text(encoding="utf-8"), "run_conversation")
             for path in MODULES}
    assert {name: found for name, found in loops.items() if found} == {"cli.py": ["_run_turns"]}


# Every backend failure type, the reply-parse error, and the handlers that
# would catch one by accident.
STAGE_FAILURES = ("BackendError", "BackendTimeout", "BackendTransportError",
                  "EmptyCompletionError", "NoScriptEntryError", "ReplyParseError", "ValueError",
                  "Exception", "BaseException")
STAGE_MODULES = ("router.py", "retrieval.py", "generation.py", "verification.py")


def caught(source: str) -> list[str]:
    """The name of each exception type an ``except`` clause names, by bare
    name or as an attribute, alone or in a tuple; a bare ``except:`` is
    ``BaseException``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.extend("BaseException" if kind is None else
                         kind.id if isinstance(kind, ast.Name) else kind.attr
                         for kind in types)
    return found


def test_detector_sees_every_form_of_except_clause():
    source = (
        "try:\n    pass\n"
        "except (ValueError, backends.BackendTimeout):\n    pass\n"
        "except BackendError as exc:\n    pass\n"
        "except:\n    pass\n"
    )
    assert caught(source) == ["ValueError", "BackendTimeout", "BackendError", "BaseException"]


def test_pipeline_is_the_module_that_catches_backend_failures():
    assert caught((PACKAGE / "pipeline.py").read_text(encoding="utf-8")) == [
        "BackendError", "ReplyParseError",
    ]


@pytest.mark.parametrize("name", STAGE_MODULES)
def test_no_stage_module_catches_a_backend_failure(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert [kind for kind in caught(source) if kind in STAGE_FAILURES] == []


SCORING_STEPS = ("judge_response", "aggregate")


def names(source: str) -> set[str]:
    """Every name the source mentions: bare, as an attribute, or imported."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_detector_sees_every_form_of_name():
    source = (
        "from .evaluation import judge_response as judge\n"
        "import ragvet.evaluation.aggregate\n"
        "labels = evaluation.score_answers(rows)\n"
        "total = fold(labels)\n"
    )
    assert names(source) >= {"judge_response", "aggregate", "score_answers", "fold", "labels"}


def test_cli_scores_only_through_score_answers():
    assert names((PACKAGE / "cli.py").read_text(encoding="utf-8")) & set(SCORING_STEPS) == set()


def flag_calls(source: str) -> int:
    """How many calls of a ``.flag`` method the source makes."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "flag" for node in ast.walk(ast.parse(source)))


def test_detector_sees_every_flag_call():
    source = (
        "trace.flag('router_parse_failure')\n"
        "self.turn.trace.flag(name)\n"
        "flag('bare')\n"
        "trace.flags.add('added')\n"
    )
    assert flag_calls(source) == 2


# The class that holds a turn's trace and sets its flags.
TURN_CLASS = "_Turn"


def test_pipeline_is_the_module_that_names_the_turn_and_sets_flags():
    source = (PACKAGE / "pipeline.py").read_text(encoding="utf-8")
    assert TURN_CLASS in names(source)
    assert flag_calls(source) == 3


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "pipeline.py"],
                         ids=lambda path: path.name)
def test_only_pipeline_names_a_trace_or_sets_a_flag(path):
    source = path.read_text(encoding="utf-8")
    assert TURN_CLASS not in names(source)
    assert flag_calls(source) == 0


CLOCK_CALLS = ("monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns", "sleep")


def clock_calls(source: str) -> list[str]:
    """``time.<name>`` for each clock read or wait of ``CLOCK_CALLS`` the
    source names, in source order: imported from ``time``, or as an attribute
    of a name that ``import time`` bound, under any alias."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "time"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "time":
            found.extend((node.lineno, node.col_offset, alias.name)
                         for alias in node.names if alias.name in CLOCK_CALLS)
        elif (isinstance(node, ast.Attribute) and node.attr in CLOCK_CALLS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, node.col_offset, node.attr))
    return [f"time.{name}" for *_, name in sorted(found)]


def test_detector_sees_every_form_of_clock_call():
    source = (
        "from time import monotonic, strftime\n"
        "import time as t\n"
        "t.sleep(0.1)\n"
        "import time\n"
        "stamp = time.strftime('%Y', time.gmtime())\n"
        "elapsed = time.perf_counter() - started\n"
        "from time import sleep as pause\n"
        "runtime.clock.wait_until(1.0)\n"
        "clock.monotonic()\n"
    )
    assert clock_calls(source) == [
        "time.monotonic", "time.sleep", "time.perf_counter", "time.sleep",
    ]


def test_runtime_is_the_module_that_reads_the_clock():
    assert clock_calls((PACKAGE / "runtime.py").read_text(encoding="utf-8")) == [
        "time.monotonic", "time.monotonic", "time.sleep",
    ]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "runtime.py"],
                         ids=lambda path: path.name)
def test_only_runtime_reads_or_waits_on_the_clock(path):
    assert clock_calls(path.read_text(encoding="utf-8")) == []


THREAD_MODULES = ("concurrent.futures", "_thread")
POOL_IMPORTS = ["concurrent.futures", "concurrent.futures.ThreadPoolExecutor"]


def thread_starts(source: str) -> int:
    """How many calls of ``Thread`` the source makes, by bare name or as an
    attribute."""
    return sum(isinstance(node, ast.Call)
               and (node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", None)) == "Thread"
               for node in ast.walk(ast.parse(source)))


def test_detector_sees_every_form_of_thread_start():
    source = (
        "import threading\n"
        "from threading import Thread, Lock\n"
        "threading.Thread(target=f).start()\n"
        "Thread(target=f)\n"
        "lock = Lock()\n"
        "threading.Event().wait()\n"
    )
    assert thread_starts(source) == 2


@pytest.mark.parametrize("name", ["runtime.py", "cli.py"])
def test_runtime_and_cli_import_the_thread_pool(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert banned_imports(source, THREAD_MODULES) == POOL_IMPORTS


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name not in ("runtime.py", "cli.py")],
                         ids=lambda path: path.name)
def test_only_runtime_starts_a_thread_of_a_turn(path):
    source = path.read_text(encoding="utf-8")
    assert banned_imports(source, THREAD_MODULES) == []
    assert thread_starts(source) == 0


JSON_DECODERS = ("loads", "load")


def json_decodes(source: str) -> list[str]:
    """``json.<name>`` for each JSON decode of ``JSON_DECODERS`` the source
    names, in source order: imported from ``json``, or as an attribute of a
    name that ``import json`` bound, under any alias."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "json"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "json":
            found.extend((node.lineno, node.col_offset, alias.name)
                         for alias in node.names if alias.name in JSON_DECODERS)
        elif (isinstance(node, ast.Attribute) and node.attr in JSON_DECODERS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, node.col_offset, node.attr))
    return [f"json.{name}" for *_, name in sorted(found)]


def test_detector_sees_every_form_of_json_decode():
    source = (
        "import json as j\n"
        "record = j.loads(line)\n"
        "from json import dumps, load\n"
        "import json\n"
        "text = json.dumps(json.load(handle))\n"
        "from json import loads as decode\n"
        "core.read_json(path, ValueError)\n"
        "reply.loads()\n"
    )
    assert json_decodes(source) == ["json.loads", "json.load", "json.load", "json.loads"]


def test_core_is_the_module_that_decodes_json():
    assert json_decodes((PACKAGE / "core.py").read_text(encoding="utf-8")) == ["json.loads"]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "core.py"],
                         ids=lambda path: path.name)
def test_only_core_decodes_json(path):
    assert json_decodes(path.read_text(encoding="utf-8")) == []


def test_core_imports_no_ragvet_module_but_templates():
    source = (PACKAGE / "core.py").read_text(encoding="utf-8")
    assert ragvet_imports(source, "templates") != []
    assert [found for path in MODULES if path.stem not in ("templates", "__init__")
            for found in ragvet_imports(source, path.stem)] == []


def unused_imports(source: str) -> list[str]:
    """Each name an import binds that the module never reads and does not
    list in ``__all__``; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_detector_sees_every_form_of_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, json as j\n"
        "import logging.handlers\n"
        "from typing import Any, Optional as Opt\n"
        "from .core import Kept, Dropped\n"
        "__all__ = ['Kept']\n"
        "def f(x: Any) -> None:\n"
        "    return logging.handlers\n"
    )
    assert unused_imports(source) == ["os", "os", "j", "Opt", "Dropped"]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", ["ragvet", "ragvet.templates"])
def test_a_deprecation_in_ragvet_code_fails_the_suite(module):
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old api", DeprecationWarning, "m.py", 1, module=module)
