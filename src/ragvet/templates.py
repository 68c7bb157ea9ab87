"""Prompt template files and their placeholder substitution.

A template file holds a ``[system]`` and a ``[user]`` section. Placeholders
come in two forms:

    {name}
    {name if name else 'fallback text'}

The second form renders the fallback literal when the supplied value is
empty. Substitution is single-pass: text inserted for a placeholder is never
re-scanned, so values may safely contain braces or placeholder-like text.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

__all__ = [
    "PromptTemplate",
    "load_template",
    "default_template_path",
    "default_template",
    "resolve_template",
    "load_all",
    "TEMPLATE_NAMES",
]

TEMPLATE_NAMES = ("routing", "summarize", "generation", "consistency", "cov")

_PROMPTS_DIR = Path(__file__).parent / "prompts"

_PLACEHOLDER = re.compile(
    r"\{([a-z_]+)(?:\s+if\s+\1\s+else\s+'([^']*)')?\}"
)

_SECTION = re.compile(r"^\[(system|user)\]\s*$", re.MULTILINE)


class TemplateError(ValueError):
    pass


def render(template: str, values: Mapping[str, str]) -> str:
    def substitute(match: re.Match[str]) -> str:
        name, fallback = match.group(1), match.group(2)
        if name not in values:
            raise TemplateError(f"no value supplied for placeholder {{{name}}}")
        value = values[name]
        if fallback is not None and not value:
            return fallback
        return value

    return _PLACEHOLDER.sub(substitute, template)


@dataclass(frozen=True)
class PromptTemplate:
    system: str
    user: str

    def build(self, **values: str) -> tuple[str, str]:
        """Render (system, user) with the given placeholder values."""
        return render(self.system, values), render(self.user, values)


def default_template_path(name: str) -> Path:
    if name not in TEMPLATE_NAMES:
        raise TemplateError(f"unknown template name: {name}")
    return _PROMPTS_DIR / f"{name}.txt"


def load_template(path: str | Path) -> PromptTemplate:
    """Parse a [system]/[user] sectioned template file."""
    text = Path(path).read_text(encoding="utf-8")
    sections: dict[str, str] = {}
    matches = list(_SECTION.finditer(text))
    if not matches:
        raise TemplateError(f"{path}: no [system]/[user] sections found")
    for current, following in zip(matches, matches[1:] + [None]):
        end = following.start() if following is not None else len(text)
        body = text[current.end():end].strip("\n")
        sections[current.group(1)] = body
    missing = [name for name in ("system", "user") if name not in sections]
    if missing:
        raise TemplateError(f"{path}: missing sections: {', '.join(missing)}")
    return PromptTemplate(system=sections["system"], user=sections["user"])


@functools.lru_cache(maxsize=None)
def default_template(name: str) -> PromptTemplate:
    """The packaged template ``name``, parsed once per process.

    The cache holds at most one entry per name in ``TEMPLATE_NAMES``: an
    unknown name raises, and a raised call is not cached.
    """
    return load_template(default_template_path(name))


def resolve_template(name: str, overrides: Mapping[str, str]) -> PromptTemplate:
    """Load a template honoring a configured path override."""
    path = overrides.get(name)
    return load_template(path) if path else default_template(name)


def load_all(overrides: Mapping[str, str]) -> dict[str, PromptTemplate]:
    """Every pipeline template by name, honoring configured path overrides."""
    return {name: resolve_template(name, overrides) for name in TEMPLATE_NAMES}
