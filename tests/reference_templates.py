"""The frozen template-matching oracle: one compiled regex per template.

``repro.parsing.string_patterns.StringTemplate`` used to compile this
regex for every template and match values with it.  The body below is
that ``_compile``, kept test-only, with one change: the end anchor is
``\\Z`` instead of ``$``, because ``$`` also matches just before a
trailing ``"\\n"`` and so dropped that newline from the last parameter.
The regex-free ``extract`` must equal this oracle on every value.  Do
not optimise this file.
"""

from __future__ import annotations

import re

from repro.parsing.string_patterns import WILDCARD, StringTemplate
from repro.parsing.tokenizer import detokenize


def compile_template(template: StringTemplate) -> re.Pattern[str]:
    """Wildcards become lazy groups between escaped literal runs."""
    parts: list[str] = ["^"]
    literal_run: list[str] = []
    for token in template.tokens:
        if token == WILDCARD:
            if literal_run:
                parts.append(re.escape(detokenize(literal_run)))
                literal_run = []
            parts.append("(.*?)")
        else:
            literal_run.append(token)
    if literal_run:
        parts.append(re.escape(detokenize(literal_run)))
    parts.append(r"\Z")
    return re.compile("".join(parts), re.DOTALL)


def extract(template: StringTemplate, value: str) -> list[str] | None:
    """The wildcard groups of ``value``, or ``None`` on no match."""
    match = compile_template(template).match(value)
    if match is None:
        return None
    return list(match.groups())
