"""String templates: the common patterns extracted from value clusters.

Paper Section 3.2.1: *"For each cluster C_i, we extract the shortest
regular expression that can represent all strings in the cluster, which
serves as the pattern P_i for that cluster."*

A :class:`StringTemplate` is a token sequence where variable positions
are the wildcard ``<*>``: literal pieces around wildcards, anchored at
both ends.  Matching needs no compiled regular expression: the value
must start with the first piece and end with the last, and each middle
piece is searched at its leftmost position after the previous one —
the groups a lazy, fully anchored ``(.*?)`` regex would capture.  It
supports parameter extraction and exact reconstruction:
``template.reconstruct(template.extract(v)) == v`` for any matching
``v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.parsing.clustering import StringCluster
from repro.parsing.lcs import lcs_tokens
from repro.parsing.tokenizer import detokenize

WILDCARD = "<*>"


@dataclass(frozen=True)
class StringTemplate:
    """An immutable template of literal tokens and ``<*>`` wildcards."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        # Collapse runs of consecutive wildcards: `<*><*>` matches the
        # same language as `<*>` but would create ambiguous parameter
        # splits during extraction.  The literal runs between wildcards
        # are fixed from here on: reconstruction fills the odd slots of
        # these ``2 * wildcard_count + 1`` pieces and joins.
        collapsed: list[str] = []
        pieces: list[str] = [""]
        for token in self.tokens:
            if token != WILDCARD:
                pieces[-1] += token
            elif collapsed and collapsed[-1] == WILDCARD:
                continue
            else:
                pieces += (WILDCARD, "")
            collapsed.append(token)
        tokens = tuple(collapsed)
        object.__setattr__(self, "tokens", tokens)
        # Templates are immutable and sit on the parse hot path as dict
        # keys and ranking candidates: precompute what every lookup and
        # hot-match probe would otherwise recount.
        wildcards = tokens.count(WILDCARD)
        object.__setattr__(self, "wildcard_count", wildcards)
        object.__setattr__(self, "literal_token_count", len(tokens) - wildcards)
        object.__setattr__(self, "text", detokenize(list(tokens)))
        object.__setattr__(self, "_hash", hash(tokens))
        object.__setattr__(self, "_pieces", tuple(pieces))
        # The literal pieces that ``extract`` searches for, split once.
        object.__setattr__(self, "_head", pieces[0])
        object.__setattr__(self, "_middle", tuple(pieces[2:-1:2]))
        object.__setattr__(self, "_tail", pieces[-1])

    def __hash__(self) -> int:
        return self._hash

    # ``text`` (human-readable template string, e.g. ``select * from
    # <*>``) is a precomputed instance attribute set in ``__post_init__``
    # — it is attached to every parsed attribute, so recomputing it per
    # parse would dominate novel-value parsing.

    # ``wildcard_count`` (number of variable positions) and
    # ``literal_token_count`` (specificity score) are precomputed
    # instance attributes, set in ``__post_init__``.

    def matches(self, value: str) -> bool:
        """True when ``value`` is in the language of this template."""
        return self.extract(value) is not None

    def extract(self, value: str) -> list[str] | None:
        """Extract the wildcard parameters from ``value``.

        Returns one string per wildcard (possibly empty strings), or
        ``None`` when the value does not match the template.  Each
        middle piece is placed at its leftmost occurrence that leaves
        room for the tail: if any placement fits, that one does, and
        it yields the shortest-first groups of a lazy regex.
        """
        head = self._head
        if not self.wildcard_count:
            return [] if value == head else None
        tail = self._tail
        pos, end = len(head), len(value) - len(tail)
        if end < pos or not value.startswith(head) or not value.endswith(tail):
            return None
        params: list[str] = []
        for piece in self._middle:
            found = value.find(piece, pos, end)
            if found < 0:
                return None
            params.append(value[pos:found])
            pos = found + len(piece)
        params.append(value[pos:end])
        return params

    def reconstruct(self, params: Sequence[str]) -> str:
        """Substitute ``params`` back into the wildcards.

        The inverse of :func:`extract`: for a matching value ``v``,
        ``reconstruct(extract(v)) == v``.
        """
        if len(params) != self.wildcard_count:
            raise ValueError(
                f"template has {self.wildcard_count} wildcards, "
                f"got {len(params)} parameters"
            )
        out = list(self._pieces)
        out[1::2] = params
        return "".join(out)

    def masked(self) -> str:
        """The approximate-trace rendering: wildcards shown as ``<*>``."""
        return self.text


@lru_cache(maxsize=4096)
def template_from_text(text: str) -> StringTemplate:
    """Rebuild a template from its rendered text.

    ``<*>`` survives tokenisation when delimiter-separated; when a
    wildcard abuts a word with no delimiter (``exec<*>``), the combined
    token is split back apart so wildcard counts round-trip exactly.

    Pure text -> immutable template, so the result is memoised (the
    distinct-template population is the pattern library's, i.e. small
    and convergent).  Exact reconstruction resolves it once per span
    pattern attribute (``SpanPattern``'s reconstruction plan), not per
    span or per query.
    """
    from repro.parsing.tokenizer import tokenize

    tokens: list[str] = []
    for token in tokenize(text):
        if WILDCARD in token and token != WILDCARD:
            tokens.extend(_split_embedded_wildcards(token))
        else:
            tokens.append(token)
    return StringTemplate(tokens=tuple(tokens))


def _split_embedded_wildcards(token: str) -> list[str]:
    """Split ``abc<*>def`` into ``['abc', '<*>', 'def']``."""
    parts: list[str] = []
    rest = token
    while WILDCARD in rest:
        before, _, rest = rest.partition(WILDCARD)
        if before:
            parts.append(before)
        parts.append(WILDCARD)
    if rest:
        parts.append(rest)
    return parts


def extract_template(cluster: StringCluster) -> StringTemplate:
    """Build the template covering every member of ``cluster``.

    The common part is the fold of pairwise LCS over member token lists;
    a wildcard is inserted at every gap position where at least one
    member carries extra tokens.  This is the shortest template (fewest
    wildcards over the maximal common subsequence) representable in our
    template language that matches all members.
    """
    if not cluster.member_tokens:
        raise ValueError("cannot extract a template from an empty cluster")
    # The common part converges after a handful of members; folding the
    # LCS over every member of a large cluster is O(members * n^2) for
    # no additional precision.  An evenly strided sample (the first
    # member, then every len/limit-th; the last is not included) is
    # folded instead, and the full membership is still used for gap
    # detection and the final match check below.
    sample = _member_sample(cluster.member_tokens, limit=12)
    common: list[str] = list(sample[0])
    for tokens in sample[1:]:
        common = lcs_tokens(common, tokens)
        if not common:
            break
    gap_has_variance = [False] * (len(common) + 1)
    for tokens in cluster.member_tokens:
        for gap_index, gap_len in _gap_lengths(common, tokens):
            if gap_len > 0:
                gap_has_variance[gap_index] = True
    template_tokens: list[str] = []
    for index, token in enumerate(common):
        if gap_has_variance[index]:
            template_tokens.append(WILDCARD)
        template_tokens.append(token)
    if gap_has_variance[len(common)]:
        template_tokens.append(WILDCARD)
    if not template_tokens:
        template_tokens = [WILDCARD]
    template = StringTemplate(tokens=tuple(template_tokens))
    # LCS alignment is not always consistent with leftmost piece matching;
    # widen any template that fails to match one of its own members.
    for member in cluster.members:
        if not template.matches(member):
            return StringTemplate(tokens=(WILDCARD,))
    return template


def _member_sample(members: list[list[str]], limit: int) -> list[list[str]]:
    """At most ``limit`` members at an even stride, starting at the first."""
    if len(members) <= limit:
        return members
    step = len(members) / limit
    return [members[int(i * step)] for i in range(limit)]


def _gap_lengths(common: list[str], tokens: list[str]) -> list[tuple[int, int]]:
    """Token counts in each gap when aligning ``common`` inside ``tokens``.

    Gap ``i`` sits before common token ``i``; gap ``len(common)`` is the
    suffix after the last common token.  Alignment is greedy
    left-to-right, which is consistent for subsequences produced by LCS.
    """
    gaps: list[tuple[int, int]] = []
    pos = 0
    for index, literal in enumerate(common):
        try:
            found = tokens.index(literal, pos)
        except ValueError:
            # `common` is not a subsequence under greedy alignment; treat
            # the remainder as one variable gap.
            gaps.append((index, len(tokens) - pos))
            return gaps
        gaps.append((index, found - pos))
        pos = found + 1
    gaps.append((len(common), len(tokens) - pos))
    return gaps
