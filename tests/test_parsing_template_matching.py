"""Regex-free template matching against the frozen regex oracle.

``StringTemplate.extract`` places literal pieces by leftmost search;
``tests/reference_templates.py`` is the compiled lazy regex it replaced
(end-anchored with ``\\Z``).  A seeded generator pins ``extract`` and
``matches`` to the oracle over templates and values built to hit every
corner of the piece search, and checks that it really produced each
corner.  ``tokenize_words`` is pinned to the two-pass tokenise-then-filter
it replaced on the same values.
"""

from __future__ import annotations

import random

import pytest
import reference_templates

from repro.parsing.string_patterns import WILDCARD, StringTemplate
from repro.parsing.tokenizer import tokenize, tokenize_words, word_tokens

# Short, mutually overlapping pieces ("a" / "ab" / "ba" / "aba"), the
# delimiters that drive tokenisation, newlines, non-ASCII text and the
# halves of a literal "<*>".
PIECES = [
    "a", "b", "ab", "ba", "aba", " ", "=", "\n", "x\ny", "é", "日本", "<", "*>", "<*>",
]  # fmt: skip
UNICODE_SPACES = ["\u00a0", "\u2003", "\u3000", "\x1c", "\t", "\r\n"]
CASES = 20_000


def random_template(rng: random.Random) -> StringTemplate:
    tokens = [rng.choice(PIECES[:-1] + [WILDCARD] * 4) for _ in range(rng.randint(0, 6))]
    return StringTemplate(tokens=tuple(tokens))


def random_text(rng: random.Random, most: int) -> str:
    return "".join(rng.choice(PIECES + UNICODE_SPACES) for _ in range(rng.randint(0, most)))


def random_value(rng: random.Random, template: StringTemplate) -> str:
    """Mostly a filled-in template, sometimes nudged off it, else noise."""
    if rng.random() < 0.25:
        return random_text(rng, 8)
    value = template.reconstruct([random_text(rng, 3) for _ in range(template.wildcard_count)])
    nudge = rng.random()
    if nudge < 0.1:
        value += "\n"
    elif nudge < 0.2 and value:
        cut = rng.randrange(len(value))
        value = value[:cut] + value[cut + 1 :]
    elif nudge < 0.3:
        cut = rng.randint(0, len(value))
        value = value[:cut] + rng.choice(PIECES) + value[cut:]
    return value


def crosses(value: str, piece: str, cut: int) -> bool:
    """True when ``piece`` occurs in ``value`` straddling index ``cut``."""
    starts = range(max(0, cut - len(piece) + 1), cut)
    return any(value.startswith(piece, start) for start in starts)


def corners(template: StringTemplate, value: str, params: list[str] | None) -> set[str]:
    """The generator corners ``(template, value)`` exercises."""
    tokens = template.tokens
    literals = template._pieces[0::2]
    middle = literals[1:-1]
    hit = set()
    if tokens and tokens[0] == WILDCARD:
        hit.add("wildcard at start")
    if tokens and tokens[-1] == WILDCARD:
        hit.add("wildcard at end")
    if WILDCARD in tokens[1:-1]:
        hit.add("wildcard in the middle")
    if len(set(filter(None, literals))) < len(list(filter(None, literals))):
        hit.add("repeated piece")
    head, tail = literals[0], literals[-1]
    end = len(value) - len(tail)
    for piece in middle:
        # A middle piece occurring across the head's end or the tail's
        # start: the search must skip that occurrence.
        if value.startswith(head) and crosses(value, piece, len(head)):
            hit.add("head overlaps a middle piece")
        if tail and value.endswith(tail) and crosses(value, piece, end):
            hit.add("tail overlaps a middle piece")
    if not value:
        hit.add("empty value")
    if WILDCARD in value:
        hit.add("value contains <*>")
    if "\n" in value[:-1]:
        hit.add("newline in the middle")
    if value.endswith("\n"):
        hit.add("newline at the end" + (" (matched)" if params is not None else ""))
    if not value.isascii():
        hit.add("non-ASCII")
    hit.add("matched" if params is not None else "not matched")
    return hit


def test_extract_equals_the_regex_oracle():
    rng = random.Random(20261019)
    compiled: dict[StringTemplate, object] = {}
    seen: set[str] = set()
    for _ in range(CASES):
        template = random_template(rng)
        regex = compiled.get(template)
        if regex is None:
            regex = compiled[template] = reference_templates.compile_template(template)
        value = random_value(rng, template)
        match = regex.match(value)
        expected = None if match is None else list(match.groups())
        got = template.extract(value)
        assert got == expected, (template.tokens, value)
        assert template.matches(value) == (expected is not None), (template.tokens, value)
        if got is not None:
            assert template.reconstruct(got) == value
        seen |= corners(template, value, got)
        for text in (value, template.text):
            tokens = tokenize(text)
            assert tokenize_words(text) == (tokens, word_tokens(tokens)), text
    assert seen == {
        "wildcard at start", "wildcard at end", "wildcard in the middle",
        "repeated piece", "head overlaps a middle piece", "tail overlaps a middle piece",
        "empty value", "value contains <*>", "newline in the middle",
        "newline at the end", "newline at the end (matched)", "non-ASCII",
        "matched", "not matched",
    }  # fmt: skip


@pytest.mark.parametrize(
    "tokens, value, expected",
    [
        # Leftmost placement of "b" leaves room for the tail; the
        # rightmost one would capture a different split.
        (("a", WILDCARD, "b", WILDCARD, "b"), "abxbyb", ["", "xby"]),
        # The middle "ab" may not reuse the head's "a" ...
        (("a", WILDCARD, "ab", WILDCARD), "ab", None),
        # ... nor the tail's "a".
        ((WILDCARD, "ba", WILDCARD, "a"), "ba", None),
        ((WILDCARD, "aba", WILDCARD, "a"), "xaba", None),
        ((WILDCARD, "aba", WILDCARD, "a"), "xabaa", ["x", ""]),
        # Head and tail alone may not overlap either.
        (("ab", WILDCARD, "ba"), "aba", None),
        (("ab", WILDCARD, "ba"), "abba", [""]),
        # No wildcard: only the value itself matches.
        (("a", "b"), "ab", []),
        (("a", "b"), "ab\n", None),
        ((), "", []),
        ((), "x", None),
        ((WILDCARD,), "", [""]),
        ((WILDCARD,), "x\ny\n", ["x\ny\n"]),
    ],
)
def test_piece_search_corners(tokens, value, expected):
    template = StringTemplate(tokens=tokens)
    assert reference_templates.extract(template, value) == expected
    assert template.extract(value) == expected


@pytest.mark.parametrize("space", UNICODE_SPACES)
def test_tokenize_words_splits_on_unicode_whitespace(space):
    value = f"select{space}*{space}from{space}日本 = 'x'{space}"
    tokens = tokenize(value)
    assert tokenize_words(value) == (tokens, word_tokens(tokens))
    assert "select" in tokenize_words(value)[1]
