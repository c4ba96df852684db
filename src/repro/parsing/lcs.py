"""Longest common subsequence over token lists.

Implements the similarity from paper Eq. (1):

    delta(s1, s2) = |LCS(s1, s2)| / max(|s1|, |s2|)

where ``s1`` and ``s2`` are tokenized strings and ``|.|`` counts tokens.

Both functions are exact and first strip the common prefix and the
common suffix of what remains (so the two never overlap): attribute
values of one cluster are long statements differing in a token or two,
and the DP table of the remaining core is the full table minus a
constant.  ``tests/reference_lcs.py`` keeps the plain full-table
programmes as the oracle both must equal.
"""

from __future__ import annotations

from typing import Sequence


def _common_ends(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """Lengths of the common prefix and the non-overlapping common suffix."""
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    limit -= prefix
    suffix = 0
    while suffix < limit and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    return prefix, suffix


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length (in tokens) of the longest common subsequence of ``a``, ``b``.

    Exact.  The trimmed core runs the Allison-Dix / Hyyro bit-vector
    recurrence over Python ints: one bit per token of the longer core,
    one step per token of the shorter, so O(n * ceil(m / wordsize))
    instead of the O(n * m) cell-by-cell programme.
    """
    prefix, suffix = _common_ends(a, b)
    a = a[prefix:len(a) - suffix]
    b = b[prefix:len(b) - suffix]
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return prefix + suffix
    positions: dict[str, int] = {}
    for i, token in enumerate(a):
        positions[token] = positions.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    # Bit i of ``v`` is 0 where row i of the DP column steps up by one.
    v = full
    for token in b:
        m = positions.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return prefix + suffix + len(a) - v.bit_count()


def lcs_tokens(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """One longest common subsequence of ``a`` and ``b`` as a token list.

    When several LCSs exist, the one found by backtracking the full DP
    table from its last cell — preferring a move up (drop a token of
    ``a``), then left — is returned.  Only the trimmed core is tabled,
    O(core_a * core_b); the traceback through it makes the same choices
    as through the full table, so the token list is identical.
    """
    prefix, suffix = _common_ends(a, b)
    core_a = a[prefix:len(a) - suffix]
    core_b = b[prefix:len(b) - suffix]
    out: list[str] = []
    if core_a and core_b:
        table = [[0] * (len(core_b) + 1)]
        for token_a in core_a:
            prev = table[-1]
            row = [0]
            for j, token_b in enumerate(core_b, start=1):
                row.append(prev[j - 1] + 1 if token_a == token_b else max(prev[j], row[-1]))
            table.append(row)
        i, j = len(core_a), len(core_b)
        while i > 0 and j > 0:
            if core_a[i - 1] == core_b[j - 1]:
                out.append(core_a[i - 1])
                i -= 1
                j -= 1
            elif table[i - 1][j] >= table[i][j - 1]:
                i -= 1
            else:
                j -= 1
        out.reverse()
    return [*a[:prefix], *out, *a[len(a) - suffix:]]


def token_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Paper Eq. (1): normalised LCS length in [0, 1].

    Two empty sequences are identical (similarity 1); an empty sequence
    against a non-empty one scores 0.
    """
    if not a and not b:
        return 1.0
    return lcs_length(a, b) / max(len(a), len(b))
