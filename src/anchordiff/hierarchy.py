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

Annotations are arrays indexed by position: ``assign_nodes`` returns each
token's node id, which every function here takes as ``node_id``; a token's
depth is its node's, and its kind is read from the token itself.

A position's chain length, the number of token-bearing strict ancestors of
its node, bounds the ancestor chains the probe can draw from it.
``chain_lengths`` counts them for every token in one top-down walk, once
per record; ``max_chain_length`` climbs for one position and is the
reference the walk is tested against.

Once a program is annotated, the climbs need only each node's parent:
``ancestor_chain`` and ``max_chain_length`` take the tree's ``parents``
tuple, which an annotation record keeps in place of the tree.
``ancestor_chain`` maps each token-bearing node to its designated position
in one pass over ``node_id``, then climbs ``parents`` through that map and
returns the chain as a tuple of positions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

from .minilang import SyntaxTree, Token, TokenKind


class InsufficientDepth(Exception):
    """Raised when a position lacks the requested number of token-bearing
    ancestors, or with ``reason`` when an experiment that needs such chains
    cannot go on."""

    def __init__(self, position: int, requested: int, achieved: int, reason: str | None = None):
        super().__init__(
            reason
            or f"position {position}: requested chain length {requested}, "
            f"only {achieved} token-bearing ancestors available"
        )
        self.position = position
        self.requested = requested
        self.achieved = achieved


def assign_nodes(tree: SyntaxTree, tokens: list[Token]) -> np.ndarray:
    """The node id of every token, as an int64 array.

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
    for node in sorted(tree.nodes, key=lambda n: (-n.depth, n.span[0], n.id)):
        ns, ne = node.span
        if ns >= ne:
            continue
        for _, end, i in live[bisect_right(reach, ns) : bisect_left(starts, ne)]:
            if home[i] is None and end > ns:
                home[i] = node.id
    # A token nothing intersects (a trailing Newline, say) goes to the root.
    return np.array([tree.root if n is None else n for n in home], dtype=np.int64)


def precedes(l: int, l_prime: int, node_id: np.ndarray, tree: SyntaxTree) -> bool:
    """True iff position ``l`` is syntactically coarser than ``l_prime``:
    node(l) is a strict ancestor of node(l'), or both share a node and
    ``l`` comes first."""
    a = int(node_id[l])
    b = int(node_id[l_prime])
    if a == b:
        return l < l_prime
    return tree.is_strict_ancestor(a, b)


def check_rule(rule: str) -> None:
    """Raise ValueError unless ``rule`` is a designation rule."""
    if rule not in ("keyword_first", "first_token"):
        raise ValueError(f"unknown designation rule: {rule!r}")


def _designated(node_id: np.ndarray, tokens: list[Token], rule: str) -> dict[int, int]:
    """Each token-bearing node -> the position standing in for it in
    ancestor chains, from one pass over ``node_id``.

    ``keyword_first`` picks the node's first Keyword token when it has one
    (the rule that reproduces keyword-stepping chains); ``first_token``
    always takes the earliest assigned position.
    """
    designated: dict[int, int] = {}
    keywords: dict[int, int] = {}
    for pos, node in enumerate(node_id.tolist()):
        designated.setdefault(node, pos)
        if rule == "keyword_first" and tokens[pos].kind is TokenKind.KEYWORD:
            keywords.setdefault(node, pos)
    designated.update(keywords)
    return designated


def ancestor_chain(
    l0: int,
    k: int,
    node_id: np.ndarray,
    tokens: list[Token],
    parents: tuple[int | None, ...],
    rule: str = "keyword_first",
) -> tuple[int, ...]:
    """The contiguous ancestor chain l0, l1, ..., lk, innermost (the
    target) first.

    Each step climbs to the nearest strict ancestor that owns at least one
    token and takes that node's designated position. Nodes owning no tokens
    contribute no positions to the partial order, so skipping them keeps
    the chain contiguous. Raises InsufficientDepth when fewer than ``k``
    token-bearing ancestors exist, and ValueError for an unknown ``rule``
    whatever ``k`` is. ``parents`` maps each node id to its parent's, as
    ``SyntaxTree.parents`` does.
    """
    check_rule(rule)
    if k < 0:
        raise ValueError("chain length k must be >= 0")
    designated = _designated(node_id, tokens, rule)
    positions = [l0]
    current = int(node_id[l0])
    while len(positions) < k + 1:
        current = parents[current]
        while current is not None and current not in designated:
            current = parents[current]
        if current is None:
            raise InsufficientDepth(l0, k, len(positions) - 1)
        positions.append(designated[current])
    return tuple(positions)


def max_chain_length(l0: int, node_id: np.ndarray, parents: tuple[int | None, ...]) -> int:
    """Number of token-bearing strict ancestors above ``l0``'s node, by a
    climb of ``parents`` (``SyntaxTree.parents``)."""
    bearing = set(node_id.tolist())
    count = 0
    current = parents[int(node_id[l0])]
    while current is not None:
        count += current in bearing
        current = parents[current]
    return count


def chain_lengths(tree: SyntaxTree, node_id: np.ndarray) -> np.ndarray:
    """``max_chain_length`` of every position, from one top-down walk.

    Each node hands its children the count of token-bearing nodes from the
    root down to itself, so every node learns its count of token-bearing
    strict ancestors from its parent; a token reads its node's count.
    """
    homes = node_id.tolist()
    bearing = set(homes)
    nodes = tree.nodes
    above = [0] * len(nodes)
    todo = [tree.root]
    while todo:
        node = todo.pop()
        children = nodes[node].children
        if children:
            below = above[node] + (node in bearing)
            for child in children:
                above[child] = below
            todo.extend(children)
    return np.array([above[n] for n in homes], dtype=np.int64)
