"""Recursive-descent parser for the mini-language.

Grammar (EBNF in docs/grammar.md): a module of statements, with function
defs, if/elif/else, while, for-in, return, assignment, and expression
statements; expressions cover names, numeric/string constants, calls,
subscripts, arithmetic, comparisons, boolean operators, and parentheses.

Each grammar shape is written once: the binary operators are one
precedence-climbing loop over BINARY_OPS (the table of docs/grammar.md);
parameters and call arguments share one comma list; while and for share
one loop body.

Node spans run from the first token a construct consumed to the last, so a
parenthesized operand contributes its opening paren to the enclosing
expression's span while keeping its own span tight around the inner tokens.

Brackets, parentheses, comma lists and blocks recurse, at most MAX_NESTING
levels deep; chains of ``not``, ``**`` and ``elif`` are loops of any length.
"""

from __future__ import annotations

from .lexer import Token, TokenKind, tokenize
from .nodes import AstNode, NodeKind, SyntaxTree

CONSTANT_KEYWORDS = frozenset({"True", "False", "None"})
# (kind, text) -> (binding power, node kind); a higher power binds tighter.
BINARY_OPS = {
    (kind, op): (power, node_kind)
    for kind, ops, power, node_kind in [
        (TokenKind.KEYWORD, ["or"], 1, NodeKind.BINOP),
        (TokenKind.KEYWORD, ["and"], 2, NodeKind.BINOP),
        (TokenKind.OPERATOR, ["<", ">", "<=", ">=", "==", "!="], 4, NodeKind.COMPARE),
        (TokenKind.OPERATOR, ["+", "-"], 5, NodeKind.BINOP),
        (TokenKind.OPERATOR, ["*", "/", "//", "%"], 6, NodeKind.BINOP),
    ]
    for op in ops
}
NOT_POWER = 3  # prefix ``not`` sits between ``and`` and the comparisons

# A level costs at most 5 frames (_atom, _expression, a not's operand,
# _power, _postfix), so a parse at the limit needs at most 170 frames.
MAX_NESTING = 32


class ParseError(Exception):
    """Grammar violation, with the byte offset where parsing stopped."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


class _Parser:
    def __init__(self, source: str, tokens: list[Token]):
        self.source = source
        self.tokens = tokens
        self.pos = 0
        self.last_content = 0  # index of the last non-structural token consumed
        self.nodes: list[AstNode] = []
        self.func_depth = 0
        self.loop_depth = 0
        self.nesting = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT):
            self.last_content = self.pos
        self.pos += 1
        return tok

    def _error_offset(self) -> int:
        tok = self._peek()
        return tok.start if tok is not None else len(self.source)

    def _fail(self, expected: str) -> ParseError:
        tok = self._peek()
        found = "end of input" if tok is None else f"{tok.kind.value} {tok.text!r}"
        return ParseError(self._error_offset(), f"expected {expected}, found {found}")

    def _match_text(self, kind: TokenKind, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind is kind and tok.text == text

    def _expect_text(self, kind: TokenKind, text: str) -> Token:
        if not self._match_text(kind, text):
            raise self._fail(repr(text))
        return self._advance()

    def _expect_kind(self, kind: TokenKind, expected: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind is not kind:
            raise self._fail(expected)
        return self._advance()

    def _open_level(self, tok: Token) -> None:
        """Open one nesting level at ``tok``; the caller closes it."""
        if self.nesting == MAX_NESTING:
            raise ParseError(tok.start, f"nesting deeper than {MAX_NESTING} levels")
        self.nesting += 1

    def _expect_newline(self) -> None:
        if self._at_end():
            return
        if self._peek().kind is TokenKind.NEWLINE:
            self._advance()
            return
        raise self._fail("end of line")

    # -- node helpers ------------------------------------------------------

    def _new_node(
        self,
        kind: NodeKind,
        span: tuple[int, int],
        children: list[int] | None = None,
        data: str | None = None,
    ) -> int:
        node = AstNode(len(self.nodes), kind, span, children or [], 0, data)
        self.nodes.append(node)
        return node.id

    def _span_from(self, start_index: int) -> tuple[int, int]:
        """Span from a construct's first token to its last content token,
        so trailing newlines and dedents stay outside statement spans."""
        first = self.tokens[start_index]
        last = self.tokens[self.last_content]
        return (first.start, last.end)

    # -- module ------------------------------------------------------------

    def parse_module(self) -> SyntaxTree:
        # No Dedent reaches this loop. Only _block consumes Indent and Dedent
        # tokens, one of each, so between module-level statements no Indent
        # is open, and the lexer emits a Dedent only to close an open one.
        body: list[int] = []
        while not self._at_end():
            tok = self._peek()
            if tok.kind is TokenKind.INDENT:
                raise ParseError(tok.start, "unexpected indent")
            body.append(self._statement())
        content = [
            t
            for t in self.tokens
            if t.kind not in (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT)
        ]
        span = (content[0].start, content[-1].end) if content else (0, 0)
        root = self._new_node(NodeKind.MODULE, span, body)
        tree = SyntaxTree(self.source, self.nodes, root)
        _assign_depths(tree)
        return tree

    # -- statements ----------------------------------------------------------

    def _statement(self) -> int:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD:
            if tok.text == "def":
                return self._function_def()
            if tok.text == "if":
                return self._if_stmt()
            if tok.text == "while":
                return self._while_stmt()
            if tok.text == "for":
                return self._for_stmt()
            if tok.text == "return":
                return self._return_stmt()
            if tok.text in ("pass", "break", "continue"):
                return self._keyword_stmt(tok.text)
        return self._expr_or_assign()

    def _block(self) -> list[int]:
        self._open_level(self._expect_text(TokenKind.DELIMITER, ":"))
        if self._at_end():
            raise self._fail("an indented block")
        self._expect_kind(TokenKind.NEWLINE, "end of line")
        self._expect_kind(TokenKind.INDENT, "an indented block")
        body = [self._statement()]
        while not self._at_end() and self._peek().kind is not TokenKind.DEDENT:
            body.append(self._statement())
        if not self._at_end():
            self._advance()  # DEDENT
        self.nesting -= 1
        return body

    def _loop_block(self) -> list[int]:
        """A while or for body, where break and continue are allowed."""
        self.loop_depth += 1
        try:
            return self._block()
        finally:
            self.loop_depth -= 1

    def _comma_list(self, item) -> list[int]:
        """``"(" [ item { "," item } ] ")"``: the items' node ids."""
        self._open_level(self._expect_text(TokenKind.DELIMITER, "("))
        items: list[int] = []
        if not self._match_text(TokenKind.DELIMITER, ")"):
            items.append(item())
            while self._match_text(TokenKind.DELIMITER, ","):
                self._advance()
                items.append(item())
        self._expect_text(TokenKind.DELIMITER, ")")
        self.nesting -= 1
        return items

    def _name(self, expected: str) -> int:
        tok = self._expect_kind(TokenKind.IDENTIFIER, expected)
        return self._new_node(NodeKind.NAME, tok.span, data=tok.text)

    def _function_def(self) -> int:
        start = self.pos
        self._advance()  # def
        name = self._expect_kind(TokenKind.IDENTIFIER, "a function name")
        args_start = self.pos
        params = self._comma_list(lambda: self._name("a parameter name or ')'"))
        args = self._new_node(NodeKind.ARGUMENTS, self._span_from(args_start), params)
        self.func_depth += 1
        outer_loops, self.loop_depth = self.loop_depth, 0
        try:
            body = self._block()
        finally:
            self.func_depth -= 1
            self.loop_depth = outer_loops
        return self._new_node(
            NodeKind.FUNCTION_DEF, self._span_from(start), [args] + body, data=name.text
        )

    def _if_stmt(self) -> int:
        """An if and its elifs. Each elif is an If node, the last child of
        the clause before it, so the nodes are made innermost first."""
        clauses = []
        while not clauses or self._match_text(TokenKind.KEYWORD, "elif"):
            start = self.pos
            self._advance()  # if or elif
            clauses.append((start, [self._expression()] + self._block()))
        if self._match_text(TokenKind.KEYWORD, "else"):
            self._advance()
            clauses[-1][1].extend(self._block())
        inner: list[int] = []  # the next clause's If node, once made
        for start, children in reversed(clauses):
            inner = [self._new_node(NodeKind.IF, self._span_from(start), children + inner)]
        return inner[0]

    def _while_stmt(self) -> int:
        start = self.pos
        self._advance()
        test = self._expression()
        body = self._loop_block()
        return self._new_node(NodeKind.WHILE, self._span_from(start), [test] + body)

    def _for_stmt(self) -> int:
        start = self.pos
        self._advance()
        target = self._name("a loop variable")
        self._expect_text(TokenKind.KEYWORD, "in")
        iterable = self._expression()
        body = self._loop_block()
        return self._new_node(
            NodeKind.FOR, self._span_from(start), [target, iterable] + body
        )

    def _return_stmt(self) -> int:
        tok = self._peek()
        if self.func_depth == 0:
            raise ParseError(tok.start, "'return' outside a function")
        start = self.pos
        self._advance()
        children = []
        if not self._at_end() and self._peek().kind is not TokenKind.NEWLINE:
            children.append(self._expression())
        node = self._new_node(NodeKind.RETURN, self._span_from(start), children)
        self._expect_newline()
        return node

    def _keyword_stmt(self, text: str) -> int:
        tok = self._peek()
        if text in ("break", "continue") and self.loop_depth == 0:
            raise ParseError(tok.start, f"'{text}' outside a loop")
        self._advance()
        node = self._new_node(NodeKind.EXPR_STMT, tok.span, data=text)
        self._expect_newline()
        return node

    def _expr_or_assign(self) -> int:
        start = self.pos
        expr = self._expression()
        if self._match_text(TokenKind.OPERATOR, "="):
            target_kind = self.nodes[expr].kind
            if target_kind not in (NodeKind.NAME, NodeKind.SUBSCRIPT):
                raise ParseError(
                    self._peek().start, "cannot assign to this expression"
                )
            self._advance()
            value = self._expression()
            node = self._new_node(
                NodeKind.ASSIGN, self._span_from(start), [expr, value]
            )
        else:
            node = self._new_node(
                NodeKind.EXPR_STMT, self.nodes[expr].span, [expr]
            )
        self._expect_newline()
        return node

    # -- expressions -------------------------------------------------------

    def _expression(self, power: int = 1) -> int:
        """Precedence climbing: an operand, then each binary operator of at
        least ``power`` with a right operand that binds tighter, so every
        level is left-associative. A prefix ``not`` is read only while
        ``power`` is at most NOT_POWER."""
        start = self.pos
        starts = []
        while power <= NOT_POWER and self._match_text(TokenKind.KEYWORD, "not"):
            starts.append(self.pos)
            self._advance()
        node = self._expression(NOT_POWER + 1) if starts else self._power()
        for not_start in reversed(starts):
            node = self._new_node(NodeKind.BINOP, self._span_from(not_start), [node], data="not")
        while (tok := self._peek()) is not None:
            op_power, kind = BINARY_OPS.get((tok.kind, tok.text), (0, None))
            if op_power < power:
                break
            self._advance()
            right = self._expression(op_power + 1)  # before _span_from, so the span ends at it
            node = self._new_node(kind, self._span_from(start), [node, right], data=tok.text)
        return node

    def _power(self) -> int:
        """``postfix { "**" postfix }``, right-associative, so its nodes are
        made rightmost first."""
        operands = [(self.pos, self._postfix())]
        while self._match_text(TokenKind.OPERATOR, "**"):
            self._advance()
            operands.append((self.pos, self._postfix()))
        _, node = operands.pop()
        for start, left in reversed(operands):
            node = self._new_node(NodeKind.BINOP, self._span_from(start), [left, node], data="**")
        return node

    def _postfix(self) -> int:
        start = self.pos
        node = self._atom()
        while True:
            if self._match_text(TokenKind.DELIMITER, "("):
                args = self._comma_list(self._expression)
                node = self._new_node(
                    NodeKind.CALL, self._span_from(start), [node] + args
                )
            elif self._match_text(TokenKind.DELIMITER, "["):
                self._open_level(self._advance())
                index = self._expression()
                self._expect_text(TokenKind.DELIMITER, "]")
                self.nesting -= 1
                node = self._new_node(
                    NodeKind.SUBSCRIPT, self._span_from(start), [node, index]
                )
            else:
                return node

    def _atom(self) -> int:
        tok = self._peek()
        if tok is None:
            raise self._fail("an expression")
        if tok.kind is TokenKind.IDENTIFIER:
            self._advance()
            return self._new_node(NodeKind.NAME, tok.span, data=tok.text)
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING):
            self._advance()
            return self._new_node(NodeKind.CONSTANT, tok.span, data=tok.text)
        if tok.kind is TokenKind.KEYWORD and tok.text in CONSTANT_KEYWORDS:
            self._advance()
            return self._new_node(NodeKind.CONSTANT, tok.span, data=tok.text)
        if tok.kind is TokenKind.DELIMITER and tok.text == "(":
            self._open_level(self._advance())
            node = self._expression()
            self._expect_text(TokenKind.DELIMITER, ")")
            self.nesting -= 1
            return node
        raise self._fail("an expression")


def _assign_depths(tree: SyntaxTree) -> None:
    tree.nodes[tree.root].depth = 0
    stack = [tree.root]
    while stack:
        node = tree.nodes[stack.pop()]
        for child in node.children:
            tree.nodes[child].depth = node.depth + 1
            stack.append(child)


def parse(source: str, tokens: list[Token] | None = None) -> SyntaxTree:
    """Parse ``source`` into a SyntaxTree, raising ParseError on violations.

    ``tokens`` is ``tokenize(source)`` when the caller already has it; the
    parser needs the unsplit tokens, before any ``split_identifiers``.
    """
    if tokens is None:
        tokens = tokenize(source)
    return _Parser(source, tokens).parse_module()


def is_syntactically_valid(source: str) -> bool:
    """True iff ``source`` parses under the mini-language grammar."""
    try:
        parse(source)
        return True
    except ParseError:
        return False
