"""The frozen prefix-tree oracle: one trie node per template token.

This is the ``TemplatePrefixTree`` that ``repro.parsing.prefix_tree``
held before it became a path-compressed (radix) tree, kept verbatim and
test-only.  The radix tree must equal it exactly: the same ``insert``
results, ``len``, ``in``, ``templates()`` order and ``node_count()``,
and a walk that yields the same candidate list element for element,
because ``find_match`` resolves ties between equally specific templates
by candidate order and pattern libraries hang off which template wins.
Do not optimise this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.parsing.string_patterns import WILDCARD, StringTemplate


@dataclass
class _Node:
    children: dict[str, "_Node"] = field(default_factory=dict)
    template: StringTemplate | None = None


class TemplatePrefixTree:
    """Stores string templates with shared-prefix compression."""

    def __init__(self) -> None:
        self._root = _Node()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StringTemplate]:
        return iter(self.templates())

    def insert(self, template: StringTemplate) -> bool:
        """Add ``template``; returns False when it was already present."""
        node = self._root
        for token in template.tokens:
            node = node.children.setdefault(token, _Node())
        if node.template is not None:
            return False
        node.template = template
        self._count += 1
        return True

    def __contains__(self, template: StringTemplate) -> bool:
        node = self._root
        for token in template.tokens:
            child = node.children.get(token)
            if child is None:
                return False
            node = child
        return node.template is not None

    def templates(self) -> list[StringTemplate]:
        """All stored templates in depth-first order."""
        out: list[StringTemplate] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.template is not None:
                out.append(node.template)
            stack.extend(node.children[k] for k in sorted(node.children, reverse=True))
        return out

    def find_match(self, value: str, tokens: list[str]) -> StringTemplate | None:
        """Most specific stored template matching ``value``.

        ``tokens`` must be ``tokenize(value)``; the walk uses tokens to
        prune the tree, then confirms candidates against the raw string
        (wildcard semantics are defined by the template's regex).
        """
        candidates: list[StringTemplate] = []
        self._walk(self._root, tokens, 0, candidates, set())
        best: StringTemplate | None = None
        for template in candidates:
            if not template.matches(value):
                continue
            if best is None or template.literal_token_count > best.literal_token_count:
                best = template
        return best

    def _walk(
        self,
        node: _Node,
        tokens: list[str],
        pos: int,
        out: list[StringTemplate],
        visited: set[tuple[int, int]],
    ) -> None:
        # Wildcard edges make (node, pos) states reachable along many
        # paths; memoising them keeps the walk linear in practice.
        state = (id(node), pos)
        if state in visited:
            return
        visited.add(state)
        if node.template is not None and pos == len(tokens):
            out.append(node.template)
        # A wildcard template may also terminate with trailing input;
        # delegate final say to regex confirmation by collecting any
        # terminal node whose remaining requirement is only wildcards.
        if node.template is not None and pos < len(tokens):
            if node.template.tokens and node.template.tokens[-1] == WILDCARD:
                out.append(node.template)
        for token, child in node.children.items():
            if token == WILDCARD:
                # Wildcard edge: consume zero or more tokens.
                for nxt in range(pos, len(tokens) + 1):
                    self._walk(child, tokens, nxt, out, visited)
            elif pos < len(tokens) and tokens[pos] == token:
                self._walk(child, tokens, pos + 1, out, visited)

    def node_count(self) -> int:
        """Number of nodes — the prefix-sharing storage footprint."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count
