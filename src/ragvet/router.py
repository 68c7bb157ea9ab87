"""Classify each query into (needs external info, is real-time).

Parsing is label-anchored and case-insensitive, so reordered or decorated
model output still parses. Any failure falls back to {e=1, r=0}
(``FALLBACK_DECISION``; ``run_turn`` applies it when the backend fails):
keeping retrieval available favors grounding, and not forcing the real-time
branch avoids abstaining just because routing itself broke.
"""

from __future__ import annotations

import re
from typing import Optional

from .backends import ModelBackend, Role, ask
from .core import RoutingDecision
from .runtime import Deadline, Trace
from .templates import PromptTemplate

__all__ = ["parse_routing_response", "route", "FALLBACK_DECISION"]

FALLBACK_DECISION = RoutingDecision(needs_external=True, is_real_time=False)

# A label, any non-alphanumeric separators, then a yes/no token. The lookahead
# rejects the template's own "[yes/no]" echo ("yes" followed by a slash).
_LABEL_VALUE = {
    "needs_external": re.compile(
        r"needs\s+external\s+info[^a-z0-9]*?(yes|no)\b(?!\s*/)", re.IGNORECASE
    ),
    "is_real_time": re.compile(
        r"is\s+real[\s-]?time[^a-z0-9]*?(yes|no)\b(?!\s*/)", re.IGNORECASE
    ),
}

def _scan_label(pattern: re.Pattern[str], text: str) -> Optional[bool]:
    values = {match.group(1).lower() for match in pattern.finditer(text)}
    if len(values) != 1:
        return None  # absent, or conflicting occurrences
    return values.pop() == "yes"


def parse_routing_response(text: str, trace: Trace) -> RoutingDecision:
    """Total parser: any text yields a decision, falling back on {e=1, r=0}."""
    needs_external = _scan_label(_LABEL_VALUE["needs_external"], text)
    is_real_time = _scan_label(_LABEL_VALUE["is_real_time"], text)
    if needs_external is None or is_real_time is None:
        trace.flag("router_parse_failure")
        return FALLBACK_DECISION
    return RoutingDecision(needs_external=needs_external, is_real_time=is_real_time)


def route(
    query: str,
    model_backend: ModelBackend,
    deadline: Deadline,
    trace: Trace,
    template: PromptTemplate,
) -> RoutingDecision:
    """Classify ``query``, substituted verbatim; a reply that does not parse
    falls back. Backend failures propagate."""
    if not query:
        raise ValueError("query must be non-empty")
    return parse_routing_response(ask(model_backend, Role.ROUTER, template, deadline, query=query),
                                  trace)
