"""Routing prompt construction and response parsing. A backend failure or
a reply that does not parse falls back in ``run_turn``
(``tests/test_pipeline.py::TestFailureSeam``)."""


import pytest
from hypothesis import given, strategies as st

from ragvet.backends import MAX_TOKENS, Role
from ragvet.core import ReplyParseError, RoutingDecision
from ragvet.router import parse_routing_response, route
from ragvet.templates import default_template

from conftest import ROUTE_PLAIN, day_deadline, scripted_model, tap

ROUTING = default_template("routing")


def sent_request(query):
    """The request ``route`` sends for ``query``."""
    model = tap(scripted_model({"role": Role.ROUTER, "response": ROUTE_PLAIN}))
    route(query, model, day_deadline(), ROUTING)
    [request] = model.requests
    return request


class TestBuildRoutingPrompt:
    def test_query_substituted_verbatim(self):
        assert 'Question: "what is this?"' in sent_request("what is this?").user

    def test_equals_template_with_substitution(self):
        request = sent_request("price today?")
        assert request.role is Role.ROUTER
        assert request.system == ROUTING.system
        assert request.user == ROUTING.user.replace("{query}", "price today?")
        assert request.image_ref is None
        assert request.max_tokens == MAX_TOKENS[Role.ROUTER]

    def test_empty_query_rejected(self):
        model = tap(scripted_model())
        with pytest.raises(ValueError):
            route("", model, day_deadline(), ROUTING)
        assert model.requests == []

    def test_double_quote_passes_through(self):
        assert 'Question: "say "hi""' in sent_request('say "hi"').user

    def test_braces_in_query_survive(self):
        assert 'Question: "what is {query} here?"' in sent_request("what is {query} here?").user


class TestParseRoutingResponse:
    def test_numbered_label_format(self):
        text = "1. Needs External Info: yes\n2. Is Real-Time: no"
        decision = parse_routing_response(text)
        assert decision == RoutingDecision(needs_external=True, is_real_time=False)

    def test_case_insensitive(self):
        decision = parse_routing_response("needs external info: NO ... is real-time: no")
        assert decision == RoutingDecision(needs_external=False, is_real_time=False)

    def test_reordered_labels_parse(self):
        decision = parse_routing_response("Is Real-Time: yes\nNeeds External Info: no")
        assert decision == RoutingDecision(needs_external=False, is_real_time=True)

    def test_unclassifiable_raises(self):
        with pytest.raises(ReplyParseError):
            parse_routing_response("I cannot classify this.")

    def test_template_echo_is_not_an_answer(self):
        echoed = "1. Needs External Info: [yes/no]\n2. Is Real-Time: [yes/no]"
        with pytest.raises(ReplyParseError):
            parse_routing_response(echoed)

    def test_conflicting_repeats_raise(self):
        text = "Needs External Info: yes\nNeeds External Info: no\nIs Real-Time: no"
        with pytest.raises(ReplyParseError):
            parse_routing_response(text)

    def test_bracketed_values_parse(self):
        decision = parse_routing_response("1. Needs External Info: [yes]\n2. Is Real-Time: [no]")
        assert decision == RoutingDecision(needs_external=True, is_real_time=False)


@given(st.text(max_size=300))
def test_parser_decides_or_raises_reply_parse_error(text):
    try:
        decision = parse_routing_response(text)
    except ReplyParseError:
        return
    assert isinstance(decision, RoutingDecision)


@given(
    external=st.sampled_from(["yes", "no", "Yes", "NO"]),
    real_time=st.sampled_from(["yes", "no", "YES", "No"]),
    prefix=st.sampled_from(["", "Sure. ", "Classifications:\n"]),
    sep=st.sampled_from([": ", ":  ", ": [", " - "]),
)
def test_single_labelled_tokens_map_exactly(external, real_time, prefix, sep):
    text = f"{prefix}1. Needs External Info{sep}{external}\n2. Is Real-Time{sep}{real_time}"
    decision = parse_routing_response(text)
    assert decision.needs_external == (external.lower() == "yes")
    assert decision.is_real_time == (real_time.lower() == "yes")


class TestRoute:
    def test_composition_with_scripted_backend(self, no_deadline):
        backend = scripted_model(
            {"role": Role.ROUTER, "match": "what is this?",
             "response": "1. Needs External Info: yes\n2. Is Real-Time: no"}
        )
        decision = route("what is this?", backend, no_deadline, ROUTING)
        assert decision == RoutingDecision(needs_external=True, is_real_time=False)

    def test_unparsable_reply_raises(self, no_deadline):
        backend = scripted_model({"role": Role.ROUTER, "response": "I cannot classify this."})
        with pytest.raises(ReplyParseError):
            route("q", backend, no_deadline, ROUTING)
