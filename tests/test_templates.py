"""Template file parsing and placeholder substitution, and the contract
between each packaged template and the code that renders it."""

import math
from pathlib import Path

import pytest

import ragvet.templates
from ragvet.core import AnswerPair, RagContext
from ragvet.evaluation import PromptedJudge
from ragvet.generation import check_consistency, generate_rag
from ragvet.retrieval import summarize_image
from ragvet.router import route
from ragvet.runtime import Deadline, Trace
from ragvet.templates import (
    TEMPLATE_NAMES,
    PromptTemplate,
    TemplateError,
    default_template,
    load_all,
    load_template,
    render,
    resolve_template,
)
from ragvet.verification import verify

from conftest import scripted_model

PROMPTS = Path(ragvet.templates.__file__).parent / "prompts"


class TestRender:
    def test_plain_placeholder(self):
        assert render("hi {name}", {"name": "there"}) == "hi there"

    def test_fallback_used_when_value_empty(self):
        template = "{contexts if contexts else 'No text context.'}"
        assert render(template, {"contexts": ""}) == "No text context."
        assert render(template, {"contexts": "[Info 1] x"}) == "[Info 1] x"

    def test_single_pass_no_rescanning(self):
        # a value containing placeholder syntax must not be re-substituted
        assert render("{a} and {b}", {"a": "{b}", "b": "X"}) == "{b} and X"

    def test_missing_value_is_an_error(self):
        with pytest.raises(TemplateError, match="query"):
            render("{query}", {})

    def test_literal_braces_without_placeholder_shape_survive(self):
        assert render("set {1, 2} and {query}", {"query": "q"}) == "set {1, 2} and q"


class TestLoadTemplate:
    def test_shipped_templates_load(self):
        assert sorted(path.stem for path in PROMPTS.glob("*.txt")) == sorted(TEMPLATE_NAMES)
        for name in TEMPLATE_NAMES:
            template = load_template(PROMPTS / f"{name}.txt")
            assert template.system
            assert template.user

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[system]\nonly system\n", encoding="utf-8")
        with pytest.raises(TemplateError, match="missing sections: user"):
            load_template(path)

    def test_sectionless_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no sections here", encoding="utf-8")
        with pytest.raises(TemplateError):
            load_template(path)

    def test_unknown_template_name_rejected(self):
        with pytest.raises(TemplateError):
            default_template("nope")


class TestResolveTemplate:
    def test_override_path_wins(self, tmp_path):
        override = tmp_path / "custom_routing.txt"
        override.write_text("[system]\ncustom router\n\n[user]\nQ: {query}\n", encoding="utf-8")
        template = resolve_template("routing", {"routing": str(override)})
        assert template.system == "custom router"
        assert template.build(query="x") == ("custom router", "Q: x")

    def test_default_used_without_override(self):
        template = resolve_template("routing", {})
        assert template == load_template(PROMPTS / "routing.txt")

    def test_default_parsed_once(self):
        assert default_template("cov") is default_template("cov")
        assert resolve_template("cov", {}) is default_template("cov")

    @pytest.mark.parametrize("group", [
        "{Query}", '{query if query else "none"}', "{query }", "{query_Text}",
    ])
    def test_malformed_placeholder_rejected(self, tmp_path, group):
        override = tmp_path / "typo.txt"
        override.write_text(f"[system]\ns\n\n[user]\nQ: {{query}} {group}\n",
                            encoding="utf-8")
        with pytest.raises(TemplateError, match="prompt_paths.routing: malformed placeholder"):
            resolve_template("routing", {"routing": str(override)})

    def test_brace_text_not_shaped_like_a_placeholder_is_legal(self, tmp_path):
        override = tmp_path / "json.txt"
        override.write_text('[system]\nReply as {"k": 1} or { 2 }.\n\n[user]\nQ: {query}\n',
                            encoding="utf-8")
        template = resolve_template("routing", {"routing": str(override)})
        assert template.build(query="x") == ('Reply as {"k": 1} or { 2 }.', "Q: x")

    def test_packaged_templates_hold_only_well_formed_placeholders(self, tmp_path):
        for name in TEMPLATE_NAMES:
            override = tmp_path / f"{name}.txt"
            override.write_bytes((PROMPTS / f"{name}.txt").read_bytes())
            assert resolve_template(name, {name: str(override)}) == default_template(name)

    def test_load_all_honors_overrides(self, tmp_path):
        override = tmp_path / "custom_routing.txt"
        override.write_text("[system]\ncustom router\n\n[user]\nQ: {query}\n", encoding="utf-8")
        templates = load_all({"routing": str(override)})
        assert tuple(templates) == TEMPLATE_NAMES
        assert templates["routing"].system == "custom router"
        assert templates["cov"] is default_template("cov")


def test_prompt_template_build_renders_both_parts():
    template = PromptTemplate(system="sys {role}", user="user {role}")
    assert template.build(role="r") == ("sys r", "user r")


def test_placeholders_name_both_sections_and_fallback_forms():
    template = PromptTemplate(system="{role} {role}", user="{a if a else 'x'} {b} {1, 2}")
    assert template.placeholders() == {"role", "a", "b"}


# Each template's caller, run once over a model that answers every role.
MODEL = scripted_model(
    {"role": "router", "match": "", "response": "1. Needs External Info: no\n2. Is Real-Time: no"},
    {"role": "summarizer", "match": "", "response": "a summary"},
    {"role": "generator", "match": "", "response": "an answer"},
    {"role": "consistency_judge", "match": "", "response": "yes"},
    {"role": "verifier", "match": "", "response": "Perfect"},
    {"role": "judge", "match": "", "response": "Perfect"},
)
CONTEXT = RagContext(entries=(), threshold_used=0.0)
NO_DEADLINE = Deadline(math.inf)
CALLERS = {
    "routing": lambda template: route("q?", MODEL, NO_DEADLINE, Trace(), template),
    "summarize": lambda template: summarize_image(
        "q?", "img", MODEL, NO_DEADLINE, template),
    "generation": lambda template: generate_rag(
        "q?", None, CONTEXT, MODEL, NO_DEADLINE, (("q0", "a0"),), template),
    "consistency": lambda template: check_consistency(
        "q?", None, CONTEXT, AnswerPair(rag_answer="a", direct_answer="b"), MODEL,
        NO_DEADLINE, Trace(), template),
    "cov": lambda template: verify(
        "q?", None, CONTEXT, "a", MODEL, NO_DEADLINE, Trace(), template),
    "judge": lambda template: PromptedJudge(MODEL, template).judge("a", "b"),
}


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_caller_supplies_exactly_the_packaged_placeholders(name, monkeypatch):
    # resolve_template admits an override that uses only the packaged
    # template's placeholders, so those must be the values its caller passes.
    supplied = []
    build = PromptTemplate.build

    def capturing_build(self, **values):
        supplied.append(set(values))
        return build(self, **values)

    monkeypatch.setattr(PromptTemplate, "build", capturing_build)
    template = default_template(name)
    CALLERS[name](template)
    assert supplied == [template.placeholders()]
