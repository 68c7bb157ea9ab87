"""Template file parsing and placeholder substitution."""

import pytest

from ragvet.templates import (
    TEMPLATE_NAMES,
    PromptTemplate,
    TemplateError,
    default_template,
    default_template_path,
    load_all,
    load_template,
    render,
    resolve_template,
)


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
        for name in ("routing", "summarize", "generation", "consistency", "cov"):
            template = load_template(default_template_path(name))
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
            default_template_path("nope")


class TestResolveTemplate:
    def test_override_path_wins(self, tmp_path):
        override = tmp_path / "custom_routing.txt"
        override.write_text("[system]\ncustom router\n\n[user]\nQ: {query}\n", encoding="utf-8")
        template = resolve_template("routing", {"routing": str(override)})
        assert template.system == "custom router"
        assert template.build(query="x") == ("custom router", "Q: x")

    def test_default_used_without_override(self):
        template = resolve_template("routing", {})
        assert template == load_template(default_template_path("routing"))

    def test_default_parsed_once(self):
        assert default_template("cov") is default_template("cov")
        assert resolve_template("cov", {}) is default_template("cov")

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
