"""Syntax tree node types for the mini-language.

Every node records a half-open byte span into the original source. Child
spans nest inside parent spans and siblings never overlap, which is what
lets tokens be mapped back onto the tree by span intersection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter


class NodeKind(enum.Enum):
    MODULE = "Module"
    FUNCTION_DEF = "FunctionDef"
    IF = "If"
    WHILE = "While"
    FOR = "For"
    RETURN = "Return"
    ASSIGN = "Assign"
    BINOP = "BinOp"
    COMPARE = "Compare"
    CALL = "Call"
    SUBSCRIPT = "Subscript"
    NAME = "Name"
    CONSTANT = "Constant"
    ARGUMENTS = "Arguments"
    EXPR_STMT = "ExprStmt"


@dataclass(slots=True)
class AstNode:
    """One tree node: kind, byte span, ordered children, depth (root = 0).

    ``data`` carries the node's payload where one exists: the operator
    lexeme for BinOp/Compare, the identifier for Name/FunctionDef, the
    literal text for Constant, and the statement keyword for keyword-only
    ExprStmt forms (pass/break/continue).
    """

    id: int
    kind: NodeKind
    span: tuple[int, int]
    children: list[int] = field(default_factory=list)
    depth: int = 0
    data: str | None = None


class SyntaxTree:
    """Parsed program: node table, root id, and the original source.

    Node ids are ``0..n-1``, the parser's creation order, so ``nodes`` is a
    list and ``parents`` a tuple indexed by node id; ``nodes`` holds the
    nodes in id order whatever order they are passed in. ``parents`` holds
    each node's parent id (``None`` at the root) and outlives the tree in
    an annotation record: a tuple of ints and ``None`` holds no node.
    """

    def __init__(self, source: str, nodes: list[AstNode], root: int):
        self.source = source
        self.nodes: list[AstNode] = sorted(nodes, key=attrgetter("id"))
        if [n.id for n in self.nodes] != list(range(len(nodes))):
            raise ValueError("node ids must be 0..n-1")
        self.root = root
        parents: list[int | None] = [None] * len(nodes)
        for node in nodes:
            for child in node.children:
                parents[child] = node.id
        self.parents: tuple[int | None, ...] = tuple(parents)

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    def parent(self, node_id: int) -> int | None:
        return self.parents[node_id]

    def depth(self, node_id: int) -> int:
        return self.nodes[node_id].depth

    def is_strict_ancestor(self, a: int, b: int) -> bool:
        """True when node ``a`` lies strictly above node ``b``."""
        if a == b:
            return False
        cur = self.parents[b]
        while cur is not None:
            if cur == a:
                return True
            cur = self.parents[cur]
        return False

    def pretty(self) -> str:
        """Indented one-line-per-node rendering, useful in demos. Walks with
        an explicit stack, so a deep tree (a long operator chain nests one
        level per operator) does not hit the recursion limit."""
        lines: list[str] = []
        stack = [(self.root, 0)]
        while stack:
            node_id, indent = stack.pop()
            node = self.nodes[node_id]
            label = node.kind.value
            if node.data is not None:
                label += f"({node.data!r})"
            lines.append("  " * indent + f"{label} [{node.span[0]}:{node.span[1]}]")
            stack.extend((child, indent + 1) for child in reversed(node.children))
        return "\n".join(lines)
