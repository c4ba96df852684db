"""The frozen LCS oracle: the plain full-table dynamic programmes.

These are the bodies ``repro.parsing.lcs`` had before the trimmed /
bit-vector kernel, kept verbatim and test-only.  The kernel must equal
them exactly — same length, and for ``lcs_tokens`` the same token list
(the traceback prefers a move up, then left) — because pattern
libraries, template ids and the fig02/fig11 byte tables all hang off
which common subsequence is chosen.  Do not optimise this file.
"""

from __future__ import annotations

from typing import Sequence


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length (in tokens) of the longest common subsequence of ``a``, ``b``.

    Uses the classic O(len(a) * len(b)) dynamic program with a rolling
    row, which is fast enough for attribute values (tens of tokens).
    """
    if not a or not b:
        return 0
    # Ensure the inner loop runs over the shorter sequence.
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for token_a in a:
        curr = [0] * (len(b) + 1)
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def lcs_tokens(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """One longest common subsequence of ``a`` and ``b`` as a token list.

    When several LCSs exist, the one found by backtracking the standard
    DP table (preferring moves up, then left) is returned; the choice is
    deterministic for fixed inputs.
    """
    if not a or not b:
        return []
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        for j in range(1, cols):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    out: list[str] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            out.append(a[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return out
