"""Module-boundary rules, checked on the parsed source of each module.

Each rule is one row of ``RULES``: a detector, a pattern that picks the
findings the rule is about, the modules it covers, and the exact findings
each owner module must have. Every other module it covers must have none.
``test_rule`` checks each (rule, module) pair; ``CASES`` pins what each
detector sees. The rules, one line each from the rows' reasons:

- private: no ragvet or test module imports a private (underscore) name of a ragvet module
- http_clients: no ragvet module imports an HTTP client library; transport speaks HTTP itself
- sockets: only transport imports socket or ssl
- thread_pools: only runtime (a turn's calls) and cli (--workers conversations) use a thread pool
- threads: no ragvet module starts a threading.Thread; a turn waits on other threads via runtime
- clock: only runtime reads the clock or sleeps; cli's calendar stamp (time.gmtime) is no read
- json: only core decodes JSON: decode_json decodes every input file and every reply
- core_imports: core imports no ragvet module but templates, so transport depends on core
- templates: only templates reads or builds a template; every prompt comes via resolve_template
- requests: only backends.ask builds a ModelRequest
- stage_failures: no stage module catches a backend failure or a ReplyParseError
- seam: pipeline catches exactly BackendError and ReplyParseError; it is the one failure seam
- turn_class: only pipeline names _Turn, the class that holds a turn's trace
- flags: only pipeline calls a .flag( method, so every degradation flag is set there
- scoring: cli names neither judge_response nor aggregate; evaluation.score_answers scores
- evaluation_imports: evaluation imports nothing from pipeline
- conversations: cli._run_turns is the one caller of run_conversation: run's one dataset loop
- unused: every name a ragvet module but __init__ imports is used in it or listed in __all__
- http_classes: only conftest derives an HTTP handler or server class: one loopback service
- http_servers: no test module builds an HTTPServer or a ThreadingHTTPServer
- file_writes: no ragvet module but cli calls open, write_text or write_bytes
- bench_checker: the benchmark's checker, stub, workloads and compare import no ragvet module
- stand_ins: no test module defines a backend or judge method; conftest's tap stands in for each
- test_imports: a test module imports shared helpers from conftest, never from another test module

Dunder names such as ``__version__`` are public by convention and allowed.
"""

import ast
import functools
import re
import warnings
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ragvet"
SRC = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


@functools.cache
def parse(path: Path) -> ast.Module:
    """The syntax tree of ``path``, parsed once for every rule that reads it."""
    return ast.parse(path.read_text(encoding="utf-8"))


def in_order(found: Iterable[tuple[ast.AST, str]]) -> list[str]:
    """The names of ``(node, name)`` pairs, in the source order of the nodes."""
    return [name for _, name in sorted(found, key=lambda pair: (pair[0].lineno,
                                                                 pair[0].col_offset))]


def imports(tree: ast.Module) -> list[str]:
    """Each module and name the source imports, dotted, in source order:
    ``import a.b`` imports ``a.b``, and ``from a import b`` imports ``a`` and
    ``a.b``. A relative import is read as one from ``ragvet``, the one
    package that has them."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ragvet" if node.level else "", node.module]))
            found.append((node, module))
            found.extend((node, f"{module}.{alias.name}") for alias in node.names)
    return in_order(found)


def calls(tree: ast.Module) -> list[str]:
    """``name() in scope`` for each call of a bare name, and ``.name() in
    scope`` for each call of an attribute, in source order. The scope is the
    qualified name of the function or class around the call, ``<module>``
    outside them; a lambda is part of the function it is written in."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else f".{node.func.attr}"
            found.append((node, f"{name}() in {'.'.join(scope) or '<module>'}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return in_order(found)


def uses(tree: ast.Module) -> list[str]:
    """``module.name`` for each name the source takes from an absolute import,
    in source order: by ``from module import name``, or as an attribute of a
    name an ``import`` bound, under any alias (``import a.b`` binds ``a``)."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name if alias.asname else alias.name.split(".")[0]
                modules[alias.asname or module] = module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend((node, f"{node.module}.{alias.name}") for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.append((node, f"{modules[node.value.id]}.{node.attr}"))
    return in_order(found)


def catches(tree: ast.Module) -> list[str]:
    """The name of each exception type an ``except`` clause names, by bare
    name or as an attribute, alone or in a tuple; a bare ``except:`` is
    ``BaseException``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.extend("BaseException" if kind is None else
                         kind.id if isinstance(kind, ast.Name) else kind.attr
                         for kind in types)
    return found


def names(tree: ast.Module) -> list[str]:
    """Every name the source mentions, sorted: bare, as an attribute, or imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return sorted(found)


def classes(tree: ast.Module) -> list[str]:
    """``class Name(Base)`` for each base of each class the source defines, by
    bare name or as an attribute, and ``def Name.method`` for each function
    its body defines, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found.extend((node, f"class {node.name}({getattr(base, 'id', None) or base.attr})")
                         for base in node.bases if isinstance(base, (ast.Name, ast.Attribute)))
            found.extend((item, f"def {node.name}.{item.name}") for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return in_order(found)


def imports_unused(tree: ast.Module) -> list[str]:
    """Each name an import binds that the module never reads and does not
    list in ``__all__``; ``from __future__`` imports bind no name."""
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


Detector = Callable[[ast.Module], list[str]]


def find(detector: Detector, pattern: str, tree: ast.Module) -> list[str]:
    """The findings of ``detector`` in which ``pattern`` matches."""
    return [found for found in detector(tree) if re.search(pattern, found)]


class Rule(NamedTuple):
    """One boundary rule. ``pattern`` is searched in each finding of
    ``detector``, and an empty one keeps them all; ``owners`` maps a module's
    file name to its exact findings."""

    name: str
    detector: Detector
    pattern: str
    modules: list[Path]
    owners: dict[str, list[str]]
    reason: str


# Every backend failure type, the reply-parse error, and the handlers that
# would catch one by accident.
STAGE_FAILURES = ("BackendError", "BackendTimeout", "BackendTransportError",
                  "EmptyCompletionError", "NoScriptEntryError", "ReplyParseError", "ValueError",
                  "Exception", "BaseException")
POOL_IMPORTS = ["concurrent.futures", "concurrent.futures.ThreadPoolExecutor"]
# The perfbench modules that judge a run; run.py, client.py and tracing.py
# drive ragvet and import it by design.
BENCH_CHECKER = [ROOT / "perfbench" / name
                 for name in ("checker.py", "stub.py", "workloads.py", "compare.py")]

RULES = [
    # `^ragvet\b.*\.` is a dotted name in ragvet up to its last dot; the last
    # part `_\w*$` starts with an underscore, and `(?!_\w*__$)` spares a dunder.
    Rule("private", imports, r"^ragvet\b.*\._(?!_\w*__$)\w*$", SRC + TESTS, {},
         "no ragvet or test module imports a private (underscore) name of a ragvet module"),
    Rule("http_clients", imports, r"^(http\.client|urllib\.request|requests)\b", SRC, {},
         "no ragvet module imports an HTTP client library; transport speaks HTTP itself"),
    Rule("sockets", imports, r"^(socket|ssl)\b", SRC, {"transport.py": ["socket", "ssl"]},
         "only transport imports socket or ssl"),
    Rule("thread_pools", imports, r"^(concurrent\.futures|_thread)\b", SRC,
         {"cli.py": POOL_IMPORTS, "runtime.py": POOL_IMPORTS},
         "only runtime (a turn's calls) and cli (--workers conversations) use a thread pool"),
    Rule("threads", calls, r"\bThread\(", SRC, {},
         "no ragvet module starts a threading.Thread; a turn waits on other threads via runtime"),
    Rule("clock", uses, r"^time\.(monotonic|monotonic_ns|perf_counter|perf_counter_ns|sleep)$",
         SRC, {"runtime.py": ["time.monotonic", "time.monotonic", "time.sleep"]},
         "only runtime reads the clock or sleeps; cli's calendar stamp (time.gmtime) is no read"),
    Rule("json", uses, r"^json\.loads?$", SRC, {"core.py": ["json.loads"]},
         "only core decodes JSON: decode_json decodes every input file and every reply"),
    Rule("core_imports", imports, r"^ragvet\b", [PACKAGE / "core.py"],
         {"core.py": ["ragvet.templates", "ragvet.templates.TEMPLATE_NAMES"]},
         "core imports no ragvet module but templates, so transport depends on core"),
    Rule("templates", calls, r"\b(load_template|PromptTemplate)\(", SRC,
         {"templates.py": ["PromptTemplate() in load_template",
                           "load_template() in default_template",
                           "load_template() in resolve_template"]},
         "only templates reads or builds a template; every prompt comes via resolve_template"),
    Rule("requests", calls, r"\bModelRequest\(", SRC, {"backends.py": ["ModelRequest() in ask"]},
         "only backends.ask builds a ModelRequest"),
    Rule("stage_failures", catches, rf"^({'|'.join(STAGE_FAILURES)})$",
         [PACKAGE / f"{name}.py" for name in ("router", "retrieval", "generation", "verification")],
         {}, "no stage module catches a backend failure or a ReplyParseError"),
    Rule("seam", catches, "", [PACKAGE / "pipeline.py"],
         {"pipeline.py": ["BackendError", "ReplyParseError"]},
         "pipeline catches exactly BackendError and ReplyParseError; it is the one failure seam"),
    Rule("turn_class", names, r"^_Turn$", SRC, {"pipeline.py": ["_Turn"]},
         "only pipeline names _Turn, the class that holds a turn's trace"),
    Rule("flags", calls, r"\.flag\(", SRC,
         {"pipeline.py": [".flag() in _Turn.out_of_budget", ".flag() in _Turn.stage",
                          ".flag() in _decide"]},
         "only pipeline calls a .flag( method, so every degradation flag is set there"),
    Rule("scoring", names, r"^(judge_response|aggregate)$", [PACKAGE / "cli.py"], {},
         "cli names neither judge_response nor aggregate; evaluation.score_answers scores"),
    Rule("evaluation_imports", imports, r"^ragvet\.pipeline\b", [PACKAGE / "evaluation.py"], {},
         "evaluation imports nothing from pipeline"),
    Rule("conversations", calls, r"\brun_conversation\(", SRC,
         {"cli.py": ["run_conversation() in _run_turns"]},
         "cli._run_turns is the one caller of run_conversation: run's one dataset loop"),
    Rule("unused", imports_unused, "", [path for path in SRC if path.name != "__init__.py"], {},
         "every name a ragvet module but __init__ imports is used in it or listed in __all__"),
    Rule("http_classes", classes, r"\((BaseHTTPRequestHandler|HTTPServer|ThreadingHTTPServer)\)$",
         TESTS, {"conftest.py": ["class _Service(BaseHTTPRequestHandler)",
                                 "class LoopbackServer(ThreadingHTTPServer)"]},
         "only conftest derives an HTTP handler or server class: one loopback service"),
    Rule("http_servers", calls, r"\b(HTTPServer|ThreadingHTTPServer)\(", TESTS, {},
         "no test module builds an HTTPServer or a ThreadingHTTPServer"),
    Rule("file_writes", calls, r"\b(write_text|write_bytes|open)\(", SRC,
         {"cli.py": [".write_text() in _write_json", ".write_text() in write_trace"]},
         "no ragvet module but cli calls open, write_text or write_bytes"),
    Rule("bench_checker", imports, r"^ragvet\b", BENCH_CHECKER, {},
         "the benchmark's checker, stub, workloads and compare import no ragvet module"),
    Rule("stand_ins", classes, r"^def \w+\.(complete|score_batch|web_search|image_search|judge)$",
         TESTS, {}, "no test module defines a backend or judge method; conftest's tap stands in"
         " for each"),
    Rule("test_imports", imports, r"^test_", TESTS, {},
         "a test module imports shared helpers from conftest, never from another test module"),
]
RULE = {rule.name: rule for rule in RULES}
CHECKS = [(rule, path) for rule in RULES for path in rule.modules]


@pytest.mark.parametrize(("rule", "path"), CHECKS,
                         ids=[f"{rule.name}-{path.name}" for rule, path in CHECKS])
def test_rule(rule, path):
    found = find(rule.detector, rule.pattern, parse(path))
    verb = rule.detector.__name__.replace("_", " ")
    assert found == rule.owners.get(path.name, []), (
        f"{rule.name}: {path.name} {verb} {', '.join(found) or 'nothing'} ({rule.reason})")


def test_the_docstring_lists_every_rule():
    assert [line for line in __doc__.splitlines() if line.startswith("- ")] == [
        f"- {rule.name}: {rule.reason}" for rule in RULES]


HTTP_SERVER_SOURCE = (
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

# Each case: a detector, the pattern of a rule that uses it, a source, and
# exactly what the rule finds there.
CASES = [
    pytest.param(imports, RULE["private"].pattern, (
        "from .pipeline import run_turn, _Turn\n"
        "from ragvet.backends import _post_json\n"
        "from . import _internal, __version__\n"
        "from os import _exit\n"
    ), ["ragvet.pipeline._Turn", "ragvet.backends._post_json", "ragvet._internal"], id="private"),
    pytest.param(imports, RULE["http_clients"].pattern, (
        "import http.client\n"
        "from urllib import request\n"
        "import requests.adapters as adapters\n"
        "from http.server import BaseHTTPRequestHandler\n"
        "from urllib.parse import urlsplit\n"
        "import json, requests_toolbelt\n"
    ), ["http.client", "urllib.request", "requests.adapters"], id="http_clients"),
    pytest.param(imports, RULE["sockets"].pattern, (
        "import socket\n"
        "from ssl import SSLContext\n"
        "import socketserver, sslkeylog\n"
    ), ["socket", "ssl", "ssl.SSLContext"], id="sockets"),
    pytest.param(imports, RULE["evaluation_imports"].pattern, (
        "from .pipeline import VARIANTS, run_conversation as run\n"
        "from ragvet.pipeline import TurnOutcome\n"
        "from . import core, pipeline\n"
        "from ragvet import pipeline as p\n"
        "import ragvet.pipeline\n"
        "from .pipelines import other\n"
        "from pipeline import unrelated\n"
        "import pipeline\n"
    ), ["ragvet.pipeline", "ragvet.pipeline.VARIANTS", "ragvet.pipeline.run_conversation",
        "ragvet.pipeline", "ragvet.pipeline.TurnOutcome", "ragvet.pipeline", "ragvet.pipeline",
        "ragvet.pipeline"], id="evaluation_imports"),
    pytest.param(imports, RULE["test_imports"].pattern, (
        "from test_pipeline import TEMPLATES, fresh_state\n"
        "import test_backends as backends\n"
        "from conftest import tap\n"
        "import tests_helper, test\n"
    ), ["test_pipeline", "test_pipeline.TEMPLATES", "test_pipeline.fresh_state", "test_backends"],
        id="test_imports"),
    pytest.param(classes, RULE["stand_ins"].pattern, (
        "class Judge:\n"
        "    def judge(self, answer, truth):\n"
        "        return 'x'\n"
        "class Model(Base):\n"
        "    def complete(self, request, deadline): ...\n"
        "    async def score_batch(self, query, chunks, deadline): ...\n"
        "    def completed(self): ...\n"
        "def web_search(query): ...\n"
        "def test():\n"
        "    class Search:\n"
        "        def image_search(self, key, k): ...\n"
        "    backend.complete(request, deadline)\n"
    ), ["def Judge.judge", "def Model.complete", "def Model.score_batch",
        "def Search.image_search"], id="stand_ins"),
    pytest.param(imports, RULE["bench_checker"].pattern, (
        "import ragvet.cli\n"
        "from ragvet.pipeline import run_turn\n"
        "from workloads import DA\n"
        "import ragvet_like\n"
    ), ["ragvet.cli", "ragvet.pipeline", "ragvet.pipeline.run_turn"], id="bench_checker"),
    pytest.param(calls, RULE["templates"].pattern, (
        "from . import templates\n"
        "from .templates import PromptTemplate, load_template, resolve_template\n"
        "a = load_template(path)\n"
        "b = templates.load_template(path)\n"
        "c = PromptTemplate(system='s', user='u')\n"
        "d = templates.PromptTemplate('s', 'u').build(x='y')\n"
        "e: PromptTemplate = resolve_template('judge', {})\n"
        "f = isinstance(e, PromptTemplate) and templates.default_template('cov')\n"
    ), ["load_template() in <module>", ".load_template() in <module>",
        "PromptTemplate() in <module>", ".PromptTemplate() in <module>"], id="templates"),
    pytest.param(calls, RULE["requests"].pattern, (
        "from . import backends\n"
        "from .backends import ModelRequest\n"
        "default = ModelRequest(role='router', system='s', user='u')\n"
        "class Judge:\n"
        "    def judge(self):\n"
        "        return backends.ModelRequest('verifier', 's', 'u')\n"
        "def ask(model):\n"
        "    return isinstance(model, ModelRequest) or ModelRequest(**model)\n"
    ), ["ModelRequest() in <module>", ".ModelRequest() in Judge.judge", "ModelRequest() in ask"],
        id="requests"),
    pytest.param(calls, RULE["conversations"].pattern, (
        "def loop(pool, data):\n"
        "    return pool.map(lambda c: pipeline.run_conversation(c), data)\n"
        "run_conversation(conversation)\n"
    ), [".run_conversation() in loop", "run_conversation() in <module>"], id="conversations"),
    pytest.param(calls, RULE["flags"].pattern, (
        "trace.flag('router_parse_failure')\n"
        "self.turn.trace.flag(name)\n"
        "flag('bare')\n"
        "trace.flags.add('added')\n"
    ), [".flag() in <module>", ".flag() in <module>"], id="flags"),
    pytest.param(calls, RULE["threads"].pattern, (
        "import threading\n"
        "from threading import Thread, Lock\n"
        "threading.Thread(target=f).start()\n"
        "Thread(target=f)\n"
        "lock = Lock()\n"
        "threading.Event().wait()\n"
    ), [".Thread() in <module>", "Thread() in <module>"], id="threads"),
    pytest.param(calls, RULE["http_servers"].pattern, HTTP_SERVER_SOURCE,
                 [".ThreadingHTTPServer() in <module>", "HTTPServer() in <module>"],
                 id="http_servers"),
    pytest.param(calls, RULE["file_writes"].pattern, (
        "Path(path).write_text(text)\n"
        "with open(path, 'w') as handle:\n"
        "    handle.write(text)\n"
        "os.open(path, flags)\n"
        "path.write_bytes(data)\n"
        "path.read_text()\n"
        "reopen(path)\n"
    ), [".write_text() in <module>", "open() in <module>", ".open() in <module>",
        ".write_bytes() in <module>"], id="file_writes"),
    pytest.param(uses, RULE["clock"].pattern, (
        "from time import monotonic, strftime\n"
        "import time as t\n"
        "t.sleep(0.1)\n"
        "import time\n"
        "stamp = time.strftime('%Y', time.gmtime())\n"
        "elapsed = time.perf_counter() - started\n"
        "from time import sleep as pause\n"
        "runtime.clock.wait_until(1.0)\n"
        "clock.monotonic()\n"
    ), ["time.monotonic", "time.sleep", "time.perf_counter", "time.sleep"], id="clock"),
    pytest.param(uses, RULE["json"].pattern, (
        "import json as j\n"
        "record = j.loads(line)\n"
        "from json import dumps, load\n"
        "import json\n"
        "text = json.dumps(json.load(handle))\n"
        "from json import loads as decode\n"
        "core.read_json(path, ValueError)\n"
        "reply.loads()\n"
    ), ["json.loads", "json.load", "json.load", "json.loads"], id="json"),
    pytest.param(catches, RULE["stage_failures"].pattern, (
        "try:\n    pass\n"
        "except (ValueError, backends.BackendTimeout):\n    pass\n"
        "except BackendError as exc:\n    pass\n"
        "except:\n    pass\n"
    ), ["ValueError", "BackendTimeout", "BackendError", "BaseException"], id="stage_failures"),
    pytest.param(names, "", (
        "from .evaluation import judge_response as judge\n"
        "import ragvet.evaluation.aggregate\n"
        "labels = evaluation.score_answers(rows)\n"
        "total = fold(labels)\n"
    ), ["aggregate", "evaluation", "fold", "judge_response", "labels", "rows", "score_answers",
        "total"], id="names"),
    pytest.param(classes, RULE["http_classes"].pattern, HTTP_SERVER_SOURCE,
                 ["class Handler(BaseHTTPRequestHandler)", "class Loopback(HTTPServer)"],
                 id="http_classes"),
    pytest.param(imports_unused, "", (
        "from __future__ import annotations\n"
        "import os, os.path, json as j\n"
        "import logging.handlers\n"
        "from typing import Any, Optional as Opt\n"
        "from .core import Kept, Dropped\n"
        "__all__ = ['Kept']\n"
        "def f(x: Any) -> None:\n"
        "    return logging.handlers\n"
    ), ["os", "os", "j", "Opt", "Dropped"], id="unused"),
]


@pytest.mark.parametrize(("detector", "pattern", "source", "expected"), CASES)
def test_detector_finds(detector, pattern, source, expected):
    assert find(detector, pattern, ast.parse(source)) == expected


@pytest.mark.parametrize("module", ["ragvet", "ragvet.templates"])
def test_a_deprecation_in_ragvet_code_fails_the_suite(module):
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old api", DeprecationWarning, "m.py", 1, module=module)
