"""Routing prompt construction, response parsing, and fallback behavior."""

import pytest
from hypothesis import given, strategies as st

from ragvet.backends import ReplayEntry, ReplayModelBackend, Role
from ragvet.core import RoutingDecision
from ragvet.router import (
    FALLBACK_DECISION,
    build_routing_prompt,
    parse_routing_response,
    route,
)
from ragvet.runtime import Deadline, Trace
from ragvet.templates import default_template

from conftest import scripted_model

ROUTING = default_template("routing")


class TestBuildRoutingPrompt:
    def test_query_substituted_verbatim(self):
        _, user = build_routing_prompt("what is this?", ROUTING)
        assert 'Question: "what is this?"' in user

    def test_equals_template_with_substitution(self):
        system, user = build_routing_prompt("price today?", ROUTING)
        assert system == ROUTING.system
        assert user == ROUTING.user.replace("{query}", "price today?")

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            build_routing_prompt("", ROUTING)

    def test_double_quote_passes_through(self):
        _, user = build_routing_prompt('say "hi"', ROUTING)
        assert 'Question: "say "hi""' in user

    def test_braces_in_query_survive(self):
        _, user = build_routing_prompt("what is {query} here?", ROUTING)
        assert 'Question: "what is {query} here?"' in user


class TestParseRoutingResponse:
    def test_numbered_label_format(self):
        text = "1. Needs External Info: yes\n2. Is Real-Time: no"
        decision = parse_routing_response(text, Trace())
        assert decision == RoutingDecision(needs_external=True, is_real_time=False)

    def test_case_insensitive(self):
        decision = parse_routing_response("needs external info: NO ... is real-time: no", Trace())
        assert decision == RoutingDecision(needs_external=False, is_real_time=False)

    def test_reordered_labels_parse(self):
        decision = parse_routing_response("Is Real-Time: yes\nNeeds External Info: no", Trace())
        assert decision == RoutingDecision(needs_external=False, is_real_time=True)

    def test_unclassifiable_falls_back_with_flag(self):
        trace = Trace()
        decision = parse_routing_response("I cannot classify this.", trace)
        assert decision == FALLBACK_DECISION
        assert "router_parse_failure" in trace.flags

    def test_template_echo_is_not_an_answer(self):
        trace = Trace()
        echoed = "1. Needs External Info: [yes/no]\n2. Is Real-Time: [yes/no]"
        assert parse_routing_response(echoed, trace) == FALLBACK_DECISION
        assert "router_parse_failure" in trace.flags

    def test_conflicting_repeats_fall_back(self):
        text = "Needs External Info: yes\nNeeds External Info: no\nIs Real-Time: no"
        assert parse_routing_response(text, Trace()) == FALLBACK_DECISION

    def test_bracketed_values_parse(self):
        decision = parse_routing_response(
            "1. Needs External Info: [yes]\n2. Is Real-Time: [no]", Trace()
        )
        assert decision == RoutingDecision(needs_external=True, is_real_time=False)


@given(st.text(max_size=300))
def test_parser_is_total(text):
    decision = parse_routing_response(text, Trace())
    assert isinstance(decision, RoutingDecision)


@given(
    external=st.sampled_from(["yes", "no", "Yes", "NO"]),
    real_time=st.sampled_from(["yes", "no", "YES", "No"]),
    prefix=st.sampled_from(["", "Sure. ", "Classifications:\n"]),
    sep=st.sampled_from([": ", ":  ", ": [", " - "]),
)
def test_single_labelled_tokens_map_exactly(external, real_time, prefix, sep):
    text = f"{prefix}1. Needs External Info{sep}{external}\n2. Is Real-Time{sep}{real_time}"
    decision = parse_routing_response(text, Trace())
    assert decision.needs_external == (external.lower() == "yes")
    assert decision.is_real_time == (real_time.lower() == "yes")


class TestRoute:
    def test_composition_with_scripted_backend(self, no_deadline):
        backend = scripted_model(
            {"role": Role.ROUTER, "match": "what is this?",
             "response": "1. Needs External Info: yes\n2. Is Real-Time: no"}
        )
        decision = route("what is this?", backend, no_deadline, Trace(), ROUTING)
        assert decision == RoutingDecision(needs_external=True, is_real_time=False)

    def test_backend_timeout_falls_back(self):
        backend = ReplayModelBackend(
            [ReplayEntry(role=Role.ROUTER, response="irrelevant", sleep_ms=50)]
        )
        trace = Trace()
        decision = route("q", backend, Deadline.after_ms(1), trace, ROUTING)
        assert decision == FALLBACK_DECISION
        assert "router_backend_timeout" in trace.flags

    def test_missing_script_entry_falls_back(self, no_deadline):
        backend = scripted_model()  # no entries at all
        trace = Trace()
        decision = route("q", backend, no_deadline, trace, ROUTING)
        assert decision == FALLBACK_DECISION
        assert "router_backend_error" in trace.flags
