"""Classify each query into (needs external info, is real-time).

Parsing is label-anchored and case-insensitive, so reordered or decorated
model output still parses. A reply that does not parse raises
``ReplyParseError``; ``pipeline._Turn.stage`` then applies {e=1, r=0}
(``FALLBACK_DECISION``), as it does when the backend fails: keeping
retrieval available favors grounding, and not forcing the real-time branch
avoids abstaining just because routing itself broke.
"""

from __future__ import annotations

import re

from .backends import ModelBackend, Role, ask
from .core import ReplyParseError, RoutingDecision
from .runtime import Deadline
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

def _scan_label(pattern: re.Pattern[str], text: str) -> bool:
    values = {match.group(1).lower() for match in pattern.finditer(text)}
    if len(values) != 1:  # absent, or conflicting occurrences
        raise ReplyParseError(f"routing reply does not parse: {text!r}")
    return values.pop() == "yes"


def parse_routing_response(text: str) -> RoutingDecision:
    """The decision ``text`` states; ``ReplyParseError`` if a label is
    absent or conflicting."""
    return RoutingDecision(needs_external=_scan_label(_LABEL_VALUE["needs_external"], text),
                           is_real_time=_scan_label(_LABEL_VALUE["is_real_time"], text))


def route(
    query: str,
    model_backend: ModelBackend,
    deadline: Deadline,
    template: PromptTemplate,
) -> RoutingDecision:
    """Classify ``query``, substituted verbatim. Backend failures and
    ``ReplyParseError`` propagate."""
    return parse_routing_response(ask(model_backend, Role.ROUTER, template, deadline, query=query))
