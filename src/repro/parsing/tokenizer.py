"""Tokenisation of string attribute values.

The paper computes LCS similarity over *tokenized strings (using words
as tokens)*.  We split on whitespace but keep common structural
delimiters (punctuation found in SQL, URLs and code identifiers) as
their own tokens, so that e.g. ``v1/campus/user=42`` and
``v1/campus/user=97`` share the tokens ``v1 / campus / user =`` and
differ only in the final parameter token.
"""

from __future__ import annotations

import re

# Delimiters that separate words in SQL text, URLs, key=value pairs and
# code identifiers.  Each delimiter becomes its own token so templates
# keep the structure around the variable parts.  Underscore, dash and
# dot split compound identifiers (``patch_inventory``, ``scheduling-1``)
# so their common stems count towards LCS similarity.  ``<``, ``>`` and
# ``*`` are deliberately NOT delimiters: the wildcard token ``<*>`` must
# survive tokenisation intact for template round-tripping.
_DELIMITERS = r"([\s,;=\(\)\[\]\{\}\?&/:\-_.'\"@#!|+]+)"

_SPLIT_RE = re.compile(_DELIMITERS)


def tokenize(value: str) -> list[str]:
    """Split ``value`` into word and delimiter tokens.

    Every fragment is kept verbatim — whitespace included — so
    ``detokenize(tokenize(value)) == value`` for every string, and a
    template learned from a value's tokens always matches that value.

    >>> tokenize("select * from A")
    ['select', ' ', '*', ' ', 'from', ' ', 'A']
    """
    return [fragment for fragment in _SPLIT_RE.split(value) if fragment]


def detokenize(tokens: list[str]) -> str:
    """Reassemble tokens into a string (exact inverse of :func:`tokenize`)."""
    return "".join(tokens)


def tokenize_words(value: str) -> tuple[list[str], list[str]]:
    """``(tokenize(value), word_tokens(tokenize(value)))`` from one split.

    The capturing split alternates word slots (even) and delimiter-run
    slots (odd), so the words are the non-empty even slots: no
    per-token delimiter check is needed.
    """
    fragments = _SPLIT_RE.split(value)
    return [f for f in fragments if f], [f for f in fragments[0::2] if f]


def word_tokens(tokens: list[str]) -> list[str]:
    """Filter out pure-delimiter tokens, keeping only words.

    Similarity is computed over words so that heavy punctuation does not
    dominate the LCS score.
    """
    return [t for t in tokens if not _SPLIT_RE.fullmatch(t)]
