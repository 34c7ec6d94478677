"""Mapping token positions onto the syntax tree.

Each position gets the deepest node whose character span intersects the
token's span; ties at equal depth go to the node containing the token's
start byte, then to the leftmost intersecting node ``(span[0], id)``. A
token no node intersects (the Newline ending the last line, say) goes to
the root. ``assign_nodes`` settles every token in one walk of the tree rather
than one tree search per token; ``tests/oracles.py`` keeps the per-token
brute force it is checked against. The induced partial order over
positions (ancestor-of, or same-node-and-earlier) is what the anchor
weighting and the ancestry probe are built on.

A position's chain length, the number of token-bearing strict ancestors of
its node, bounds the ancestor chains the probe can draw from it.
``chain_lengths`` counts them for every token in one top-down walk, once
per record; ``max_chain_length`` climbs the tree for one position and is
the reference the walk is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .minilang import SyntaxTree, Token, TokenKind


@dataclass(frozen=True)
class TokenAnnotation:
    position: int
    node_id: int
    depth: int
    is_keyword: bool
    is_identifier: bool


@dataclass(frozen=True)
class AncestorChain:
    """Positions from innermost (the target) to outermost ancestor."""

    positions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.positions)


class InsufficientDepth(Exception):
    """Raised when a position lacks the requested number of token-bearing
    ancestors."""

    def __init__(self, position: int, requested: int, achieved: int):
        super().__init__(
            f"position {position}: requested chain length {requested}, "
            f"only {achieved} token-bearing ancestors available"
        )
        self.position = position
        self.requested = requested
        self.achieved = achieved


def assign_nodes(tree: SyntaxTree, tokens: list[Token]) -> list[TokenAnnotation]:
    """Annotate every token with its node, depth, and kind flags.

    One walk over the nodes, deepest first and, within a depth, leftmost
    ``(span[0], id)`` first: each node bisects for the tokens that can
    intersect it and claims those not yet claimed. The start-byte rule
    needs no step of its own. A node that intersects a token and starts at
    or before its start holds that start byte, so among the intersecting
    nodes of one depth the leftmost holds it whenever any does. A token is
    the point ``[ts, ts + 1)`` when zero-width; a reversed span intersects
    nothing. The token list may be in any order and its spans may overlap.
    """
    live = sorted(
        (ts, te if te > ts else ts + 1, i)
        for i, (ts, te) in enumerate(tok.span for tok in tokens)
        if te >= ts
    )
    starts = [ts for ts, _, _ in live]
    # Running maximum of the ends: no token before the first reach > ns
    # intersects a node starting at ns.
    reach = list(accumulate((end for _, end, _ in live), max))
    home: list[int | None] = [None] * len(tokens)
    for node in sorted(tree.nodes.values(), key=lambda n: (-n.depth, n.span[0], n.id)):
        ns, ne = node.span
        if ns >= ne:
            continue
        for _, end, i in live[bisect_right(reach, ns) : bisect_left(starts, ne)]:
            if home[i] is None and end > ns:
                home[i] = node.id
    annotations = []
    for tok, node_id in zip(tokens, home):
        if node_id is None:  # nothing intersects, e.g. a trailing Newline
            node_id = tree.root
        annotations.append(
            TokenAnnotation(
                position=tok.index,
                node_id=node_id,
                depth=tree.nodes[node_id].depth,
                is_keyword=tok.kind is TokenKind.KEYWORD,
                is_identifier=tok.kind is TokenKind.IDENTIFIER,
            )
        )
    return annotations


def precedes(
    l: int, l_prime: int, annotations: list[TokenAnnotation], tree: SyntaxTree
) -> bool:
    """True iff position ``l`` is syntactically coarser than ``l_prime``:
    node(l) is a strict ancestor of node(l'), or both share a node and
    ``l`` comes first."""
    a = annotations[l].node_id
    b = annotations[l_prime].node_id
    if a == b:
        return l < l_prime
    return tree.is_strict_ancestor(a, b)


def positions_by_node(annotations: list[TokenAnnotation]) -> dict[int, list[int]]:
    """Node id -> sorted positions of the tokens assigned to it."""
    index: dict[int, list[int]] = {}
    for ann in annotations:
        index.setdefault(ann.node_id, []).append(ann.position)
    for positions in index.values():
        positions.sort()
    return index


def designated_position(
    node_id: int,
    annotations: list[TokenAnnotation],
    node_index: dict[int, list[int]],
    rule: str = "keyword_first",
) -> int | None:
    """The position standing in for a node in ancestor chains.

    ``keyword_first`` picks the node's first Keyword token when it has one
    (the rule that reproduces keyword-stepping chains); ``first_token``
    always takes the earliest assigned position.
    """
    positions = node_index.get(node_id)
    if not positions:
        return None
    if rule == "keyword_first":
        for pos in positions:
            if annotations[pos].is_keyword:
                return pos
    elif rule != "first_token":
        raise ValueError(f"unknown designation rule: {rule!r}")
    return positions[0]


def ancestor_chain(
    l0: int,
    k: int,
    annotations: list[TokenAnnotation],
    tree: SyntaxTree,
    rule: str = "keyword_first",
    node_index: dict[int, list[int]] | None = None,
) -> AncestorChain:
    """Build the contiguous ancestor chain l0, l1, ..., lk.

    Each step climbs to the nearest strict ancestor that owns at least one
    token and takes that node's designated position. Nodes owning no tokens
    contribute no positions to the partial order, so skipping them keeps
    the chain contiguous. Raises InsufficientDepth when fewer than ``k``
    token-bearing ancestors exist.
    """
    if k < 0:
        raise ValueError("chain length k must be >= 0")
    if node_index is None:
        node_index = positions_by_node(annotations)
    positions = [l0]
    current = annotations[l0].node_id
    while len(positions) < k + 1:
        current = tree.parent(current)
        while current is not None and not node_index.get(current):
            current = tree.parent(current)
        if current is None:
            raise InsufficientDepth(l0, k, len(positions) - 1)
        designated = designated_position(current, annotations, node_index, rule)
        positions.append(designated)
    return AncestorChain(tuple(positions))


def max_chain_length(
    l0: int,
    annotations: list[TokenAnnotation],
    tree: SyntaxTree,
    node_index: dict[int, list[int]] | None = None,
) -> int:
    """Number of token-bearing strict ancestors above ``l0``'s node."""
    if node_index is None:
        node_index = positions_by_node(annotations)
    count = 0
    current = tree.parent(annotations[l0].node_id)
    while current is not None:
        if node_index.get(current):
            count += 1
        current = tree.parent(current)
    return count


def chain_lengths(tree: SyntaxTree, annotations: list[TokenAnnotation]) -> np.ndarray:
    """``max_chain_length`` of every position, from one top-down walk.

    Each node hands its children the count of token-bearing nodes from the
    root down to itself, so every node learns its count of token-bearing
    strict ancestors from its parent; a token reads its node's count.
    """
    bearing = {a.node_id for a in annotations}
    nodes = tree.nodes
    above = {tree.root: 0}
    todo = [tree.root]
    while todo:
        node_id = todo.pop()
        children = nodes[node_id].children
        if children:
            below = above[node_id] + (node_id in bearing)
            for child in children:
                above[child] = below
            todo.extend(children)
    return np.array([above[a.node_id] for a in annotations], dtype=np.int64)
