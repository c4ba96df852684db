"""Prefix tree over string templates.

Paper Section 3.2.1 ("Parsers building"): *"For string attributes, we
use a prefix tree to store all patterns (i.e., regular expressions).
Since different patterns can share several prefix tokens, their paths
may overlap.  This reduces the storage overhead of patterns and improves
matching efficiency during the online phase."*

The tree is path-compressed (a radix tree): a node's ``edge`` is the
run of template tokens (wildcard included) from its parent, so nodes sit
only where templates branch or end — at most ``2 * len(tree) + 1``.  A
template is a root-to-marked-node path.  Matching walks the tree against
a tokenised value, letting wildcards consume any number of tokens, and
returns the most specific matching template (most literal tokens).  The
walk visits (node, edge index, position) states in the depth-first order
of a one-node-per-token trie (``tests/reference_prefix_tree.py``), so
ties go to the template that trie reaches first; it loops over literal
runs, so no value is too long to match.
"""

from __future__ import annotations

from typing import Iterator

from repro.parsing.string_patterns import WILDCARD, StringTemplate


class _Node:
    __slots__ = ("edge", "children", "template")

    def __init__(
        self,
        edge: tuple[str, ...],
        children: dict[str, _Node] | None = None,
        template: StringTemplate | None = None,
    ) -> None:
        self.edge = edge
        # Keyed by each child's first edge token, in insertion order.
        self.children = children
        self.template = template


class TemplatePrefixTree:
    """Stores string templates with shared-prefix compression."""

    def __init__(self) -> None:
        self._root = _Node(())
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StringTemplate]:
        return iter(self.templates())

    def insert(self, template: StringTemplate) -> bool:
        """Add ``template``; returns False when it was already present."""
        tokens = template.tokens
        node, pos = self._root, 0
        while pos < len(tokens):
            child = node.children.get(tokens[pos]) if node.children else None
            if child is None:
                leaf = _Node(tokens[pos:], None, template)
                if node.children is None:
                    node.children = {}
                node.children[tokens[pos]] = leaf
                self._count += 1
                return True
            edge = child.edge
            shared = 1
            while shared < len(edge) and pos + shared < len(tokens):
                if edge[shared] != tokens[pos + shared]:
                    break
                shared += 1
            if shared < len(edge):
                # Split at the first mismatch: ``child`` keeps its place
                # in its parent's order, the old remainder becomes its
                # first child.
                tail = _Node(edge[shared:], child.children, child.template)
                child.edge, child.children = edge[:shared], {edge[shared]: tail}
                child.template = None
            node, pos = child, pos + shared
        if node.template is not None:
            return False
        node.template = template
        self._count += 1
        return True

    def __contains__(self, template: StringTemplate) -> bool:
        tokens = template.tokens
        node, pos = self._root, 0
        while pos < len(tokens):
            child = node.children.get(tokens[pos]) if node.children else None
            if child is None or tokens[pos : pos + len(child.edge)] != child.edge:
                return False
            node, pos = child, pos + len(child.edge)
        return node.template is not None

    def templates(self) -> list[StringTemplate]:
        """All stored templates in depth-first order."""
        out: list[StringTemplate] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.template is not None:
                out.append(node.template)
            if node.children:
                stack.extend(node.children[k] for k in sorted(node.children, reverse=True))
        return out

    def find_match(self, value: str, tokens: list[str]) -> StringTemplate | None:
        """Most specific stored template matching ``value``.

        ``tokens`` must be ``tokenize(value)``; the walk uses tokens to
        prune the tree, then confirms candidates against the raw string
        (wildcard semantics are defined by ``StringTemplate.extract``).
        """
        best: StringTemplate | None = None
        for template in self._candidates(tokens):
            if not template.matches(value):
                continue
            if best is None or template.literal_token_count > best.literal_token_count:
                best = template
        return best

    def _candidates(self, tokens: list[str]) -> list[StringTemplate]:
        """Templates the token walk reaches, in walk order (repeats kept)."""
        end = len(tokens)
        out: list[StringTemplate] = []
        # Wildcards make states reachable along many paths; memoising
        # them keeps the walk linear in practice.
        visited: set[tuple[_Node, int, int]] = set()
        stack: list[tuple[_Node, int, int]] = [(self._root, 0, 0)]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            node, i, pos = state
            edge = node.edge
            while i < len(edge):
                token = edge[i]
                if token == WILDCARD:
                    # Consume zero or more tokens; shortest first.
                    stack.extend((node, i + 1, nxt) for nxt in range(end, pos - 1, -1))
                    break
                if pos == end or tokens[pos] != token:
                    break
                i, pos = i + 1, pos + 1
            else:
                # A template ending in a wildcard may also terminate with
                # trailing input; the template's own match has the final say.
                if node.template is not None and (pos == end or (edge and edge[-1] == WILDCARD)):
                    out.append(node.template)
                children = node.children
                if children:
                    entries: list[tuple[_Node, int, int]] = []
                    for key, child in children.items():
                        if key == WILDCARD:
                            entries.extend((child, 1, nxt) for nxt in range(pos, end + 1))
                        elif pos < end and tokens[pos] == key:
                            entries.append((child, 1, pos + 1))
                    stack.extend(reversed(entries))
        return out

    def node_count(self) -> int:
        """Root plus every stored token position — the storage footprint
        of the equivalent one-node-per-token trie."""
        count = 1
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += len(node.edge)
            if node.children:
                stack.extend(node.children.values())
        return count
