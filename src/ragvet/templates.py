"""Prompt template files and their placeholder substitution.

A template file holds a ``[system]`` and a ``[user]`` section, each once,
with nothing but blank lines before the first. Placeholders
come in two forms:

    {name}
    {name if name else 'fallback text'}

The second form renders the fallback literal when the supplied value is
empty. Substitution is single-pass: text inserted for a placeholder is never
re-scanned, so values may safely contain braces or placeholder-like text.

Every prompt, the endpoint judge's included, is one of ``TEMPLATE_NAMES``,
read only through ``resolve_template``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

__all__ = [
    "PromptTemplate",
    "TemplateError",
    "load_template",
    "default_template",
    "resolve_template",
    "load_all",
    "TEMPLATE_NAMES",
]

TEMPLATE_NAMES = ("routing", "summarize", "generation", "consistency", "cov", "judge")

_PLACEHOLDER = re.compile(
    r"\{([a-z_]+)(?:\s+if\s+\1\s+else\s+'([^']*)')?\}"
)
# A brace group shaped like a placeholder: a letter or "_" right after "{".
_PLACEHOLDER_LIKE = re.compile(r"\{[A-Za-z_][^{}]*\}")

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

    def placeholders(self) -> frozenset[str]:
        """The name of every placeholder in either section."""
        return frozenset(match.group(1) for section in (self.system, self.user)
                         for match in _PLACEHOLDER.finditer(section))


def load_template(path: str | Path | Traversable) -> PromptTemplate:
    """Parse a [system]/[user] sectioned template file, at a path or, for a
    packaged template, a package resource."""
    text = (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")
    sections: dict[str, str] = {}
    matches = list(_SECTION.finditer(text))
    if not matches:
        raise TemplateError(f"{path}: no [system]/[user] sections found")
    if text[:matches[0].start()].strip():
        raise TemplateError(f"{path}: text before the first section")
    for current, following in zip(matches, matches[1:] + [None]):
        if current.group(1) in sections:
            raise TemplateError(f"{path}: section [{current.group(1)}] repeats")
        end = following.start() if following is not None else len(text)
        sections[current.group(1)] = text[current.end():end].strip("\n")
    missing = [name for name in ("system", "user") if name not in sections]
    if missing:
        raise TemplateError(f"{path}: missing sections: {', '.join(missing)}")
    return PromptTemplate(system=sections["system"], user=sections["user"])


@functools.lru_cache(maxsize=None)
def default_template(name: str) -> PromptTemplate:
    """The packaged template ``name``, parsed once per process.

    It is read as a package resource, so it loads wherever the package was
    imported from, a zip file included. The cache holds at most one entry
    per name in ``TEMPLATE_NAMES``: an unknown name or an unreadable file
    raises ``TemplateError``, and a raised call is not cached.
    """
    if name not in TEMPLATE_NAMES:
        raise TemplateError(f"unknown template name: {name}")
    try:
        return load_template(resources.files(__package__) / "prompts" / f"{name}.txt")
    except OSError as exc:
        raise TemplateError(f"cannot read packaged prompt prompts/{name}.txt: {exc}") from exc


def resolve_template(name: str, overrides: Mapping[str, str]) -> PromptTemplate:
    """The template at ``overrides[name]`` if one is set, else the packaged one.

    An override may use only the placeholders of the packaged template, as
    its caller supplies no others: it is rendered once with each of them set
    to "". A brace group shaped like a placeholder must be one, so that a
    mistyped ``{Query}`` never reaches the model as literal text. A file
    that cannot be read, parsed or rendered so is a ``TemplateError`` naming
    its config key, ``prompt_paths.<name>``.
    """
    packaged = default_template(name)
    path = overrides.get(name)
    if not path:
        return packaged
    try:
        template = load_template(path)
        for section in (template.system, template.user):
            for group in _PLACEHOLDER_LIKE.findall(section):
                if not _PLACEHOLDER.fullmatch(group):
                    raise TemplateError(f"malformed placeholder {group}")
        values = dict.fromkeys(packaged.placeholders(), "")
        render(template.system, values)
        render(template.user, values)
    except (OSError, ValueError) as exc:
        raise TemplateError(f"config key prompt_paths.{name}: {exc}") from exc
    return template


def load_all(overrides: Mapping[str, str]) -> dict[str, PromptTemplate]:
    """Every template by name, honoring configured path overrides."""
    return {name: resolve_template(name, overrides) for name in TEMPLATE_NAMES}
