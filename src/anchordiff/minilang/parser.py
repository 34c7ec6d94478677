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

# The operators' texts -> (binding power, node kind); a higher power binds
# tighter. The texts are token keys (see _Parser).
BINARY_OPS = {
    op: (power, node_kind)
    for ops, power, node_kind in [
        (["or"], 1, NodeKind.BINOP),
        (["and"], 2, NodeKind.BINOP),
        (["<", ">", "<=", ">=", "==", "!="], 4, NodeKind.COMPARE),
        (["+", "-"], 5, NodeKind.BINOP),
        (["*", "/", "//", "%"], 6, NodeKind.BINOP),
    ]
    for op in ops
}
_NOT_AN_OPERATOR = (0, None)
NOT_POWER = 3  # prefix ``not`` sits between ``and`` and the comparisons

# A level costs at most 5 frames (_atom, _expression, a not's operand,
# _power, _postfix), so a parse at the limit needs at most 170 frames.
MAX_NESTING = 32

_KEYED_BY_TEXT = (TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.DELIMITER)
_NEWLINE, _INDENT, _DEDENT = TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT
_IDENTIFIER, _NUMBER, _STRING = TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.STRING


class ParseError(Exception):
    """Grammar violation, with the byte offset where parsing stopped."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


class _Parser:
    """Reads one key per token: the text of a Keyword, Operator or
    Delimiter, the kind of any other token, and None past the last token.
    Texts of different kinds never coincide, so a key names its kind, and
    each test of the current token is one index and one compare.

    Only content tokens are consumed by ``_advance``, which records the
    last one for ``_span_from``; ``_block`` and ``_expect_newline`` step
    over Newline, Indent and Dedent tokens themselves."""

    def __init__(self, source: str, tokens: list[Token]):
        self.source = source
        self.tokens = tokens
        self.keys = [t.text if t.kind in _KEYED_BY_TEXT else t.kind for t in tokens]
        self.keys.append(None)
        self.pos = 0
        self.last_content = 0  # index of the last content token consumed
        self.nodes: list[AstNode] = []
        self.func_depth = 0
        self.loop_depth = 0
        self.nesting = 0

    # -- token helpers ----------------------------------------------------

    def _advance(self) -> None:
        self.last_content = self.pos
        self.pos += 1

    def _fail(self, expected: str) -> ParseError:
        if self.keys[self.pos] is None:
            return ParseError(len(self.source), f"expected {expected}, found end of input")
        tok = self.tokens[self.pos]
        return ParseError(tok.span[0], f"expected {expected}, found {tok.kind.value} {tok.text!r}")

    def _expect(self, key: str) -> None:
        if self.keys[self.pos] != key:
            raise self._fail(repr(key))
        self._advance()

    def _identifier(self, expected: str) -> Token:
        if self.keys[self.pos] is not _IDENTIFIER:
            raise self._fail(expected)
        self._advance()
        return self.tokens[self.pos - 1]

    def _open(self, key: str) -> None:
        """Consume ``key`` and open one nesting level at it; the caller
        closes the level."""
        if self.keys[self.pos] != key:
            raise self._fail(repr(key))
        if self.nesting == MAX_NESTING:
            offset = self.tokens[self.pos].span[0]
            raise ParseError(offset, f"nesting deeper than {MAX_NESTING} levels")
        self.nesting += 1
        self._advance()

    def _expect_newline(self) -> None:
        key = self.keys[self.pos]
        if key is _NEWLINE:
            self.pos += 1
        elif key is not None:
            raise self._fail("end of line")

    def _span_from(self, start_index: int) -> tuple[int, int]:
        """Span from a construct's first token to its last content token,
        so trailing newlines and dedents stay outside statement spans."""
        return (self.tokens[start_index].span[0], self.tokens[self.last_content].span[1])

    # -- module ------------------------------------------------------------

    def parse_module(self) -> SyntaxTree:
        # No Dedent reaches this loop. Only _block consumes Indent and Dedent
        # tokens, one of each, so between module-level statements no Indent
        # is open, and the lexer emits a Dedent only to close an open one.
        body: list[int] = []
        while (key := self.keys[self.pos]) is not None:
            if key is _INDENT:
                raise ParseError(self.tokens[self.pos].span[0], "unexpected indent")
            body.append(self._statement())
        # A parsed module's first token is content (an Indent is refused
        # above, and Newlines and Dedents follow content), and its last
        # content token was consumed last.
        span = self._span_from(0) if self.tokens else (0, 0)
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), NodeKind.MODULE, span, body, 0, None))
        _assign_depths(nodes)
        return SyntaxTree(self.source, nodes, len(nodes) - 1)

    # -- statements ----------------------------------------------------------

    def _statement(self) -> int:
        key = self.keys[self.pos]
        if key == "def":
            return self._function_def()
        if key == "if":
            return self._if_stmt()
        if key == "while" or key == "for":
            return self._loop_stmt(key)
        if key == "return":
            return self._return_stmt()
        if key == "pass" or key == "break" or key == "continue":
            return self._keyword_stmt(key)
        return self._expr_or_assign()

    def _block(self) -> list[int]:
        self._open(":")
        keys = self.keys
        if keys[self.pos] is None:
            raise self._fail("an indented block")
        if keys[self.pos] is not _NEWLINE:
            raise self._fail("end of line")
        self.pos += 1
        if keys[self.pos] is not _INDENT:
            raise self._fail("an indented block")
        self.pos += 1
        body = [self._statement()]
        while (key := keys[self.pos]) is not None and key is not _DEDENT:
            body.append(self._statement())
        if key is _DEDENT:
            self.pos += 1
        self.nesting -= 1
        return body

    def _comma_list(self, item) -> list[int]:
        """``"(" [ item { "," item } ] ")"``: the items' node ids."""
        self._open("(")
        items: list[int] = []
        if self.keys[self.pos] != ")":
            items.append(item())
            while self.keys[self.pos] == ",":
                self._advance()
                items.append(item())
        self._expect(")")
        self.nesting -= 1
        return items

    def _name(self, expected: str) -> int:
        tok = self._identifier(expected)
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), NodeKind.NAME, tok.span, [], 0, tok.text))
        return len(nodes) - 1

    def _function_def(self) -> int:
        start = self.pos
        self._advance()  # def
        name = self._identifier("a function name")
        args_start = self.pos
        params = self._comma_list(lambda: self._name("a parameter name or ')'"))
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), NodeKind.ARGUMENTS, self._span_from(args_start),
                             params, 0, None))
        args = len(nodes) - 1
        self.func_depth += 1
        outer_loops, self.loop_depth = self.loop_depth, 0
        try:
            body = self._block()
        finally:
            self.func_depth -= 1
            self.loop_depth = outer_loops
        nodes.append(AstNode(len(nodes), NodeKind.FUNCTION_DEF, self._span_from(start),
                             [args] + body, 0, name.text))
        return len(nodes) - 1

    def _if_stmt(self) -> int:
        """An if and its elifs. Each elif is an If node, the last child of
        the clause before it, so the nodes are made innermost first."""
        clauses = []
        while not clauses or self.keys[self.pos] == "elif":
            start = self.pos
            self._advance()  # if or elif
            clauses.append((start, [self._expression()] + self._block()))
        if self.keys[self.pos] == "else":
            self._advance()
            clauses[-1][1].extend(self._block())
        nodes = self.nodes
        inner: list[int] = []  # the next clause's If node, once made
        for start, children in reversed(clauses):
            nodes.append(AstNode(len(nodes), NodeKind.IF, self._span_from(start),
                                 children + inner, 0, None))
            inner = [len(nodes) - 1]
        return inner[0]

    def _loop_stmt(self, keyword: str) -> int:
        """A while or a for, whose body allows break and continue."""
        start = self.pos
        self._advance()
        if keyword == "while":
            kind, head = NodeKind.WHILE, [self._expression()]
        else:
            kind, head = NodeKind.FOR, [self._name("a loop variable")]
            self._expect("in")
            head.append(self._expression())
        self.loop_depth += 1
        try:
            body = self._block()
        finally:
            self.loop_depth -= 1
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), kind, self._span_from(start), head + body, 0, None))
        return len(nodes) - 1

    def _return_stmt(self) -> int:
        if self.func_depth == 0:
            raise ParseError(self.tokens[self.pos].span[0], "'return' outside a function")
        start = self.pos
        self._advance()
        key = self.keys[self.pos]
        children = [] if key is None or key is _NEWLINE else [self._expression()]
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), NodeKind.RETURN, self._span_from(start),
                             children, 0, None))
        self._expect_newline()
        return len(nodes) - 1

    def _keyword_stmt(self, keyword: str) -> int:
        tok = self.tokens[self.pos]
        if keyword != "pass" and self.loop_depth == 0:
            raise ParseError(tok.span[0], f"'{keyword}' outside a loop")
        self._advance()
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), NodeKind.EXPR_STMT, tok.span, [], 0, keyword))
        self._expect_newline()
        return len(nodes) - 1

    def _expr_or_assign(self) -> int:
        start = self.pos
        expr = self._expression()
        nodes = self.nodes
        if self.keys[self.pos] == "=":
            if nodes[expr].kind is not NodeKind.NAME and nodes[expr].kind is not NodeKind.SUBSCRIPT:
                raise ParseError(
                    self.tokens[self.pos].span[0], "cannot assign to this expression"
                )
            self._advance()
            value = self._expression()
            node = AstNode(len(nodes), NodeKind.ASSIGN, self._span_from(start),
                           [expr, value], 0, None)
        else:
            node = AstNode(len(nodes), NodeKind.EXPR_STMT, nodes[expr].span, [expr], 0, None)
        nodes.append(node)
        self._expect_newline()
        return node.id

    # -- expressions -------------------------------------------------------

    def _expression(self, power: int = 1) -> int:
        """Precedence climbing: an operand, then each binary operator of at
        least ``power`` with a right operand that binds tighter, so every
        level is left-associative. A prefix ``not`` is read only while
        ``power`` is at most NOT_POWER."""
        keys = self.keys
        nodes = self.nodes
        start = self.pos
        if power <= NOT_POWER and keys[start] == "not":
            starts = []
            while keys[self.pos] == "not":
                starts.append(self.pos)
                self._advance()
            node = self._expression(NOT_POWER + 1)
            for not_start in reversed(starts):
                nodes.append(AstNode(len(nodes), NodeKind.BINOP, self._span_from(not_start),
                                     [node], 0, "not"))
                node = len(nodes) - 1
        else:
            node = self._power()
        while True:
            op = keys[self.pos]
            op_power, kind = BINARY_OPS.get(op, _NOT_AN_OPERATOR)
            if op_power < power:
                return node
            self._advance()
            right = self._expression(op_power + 1)  # before _span_from, so the span ends at it
            nodes.append(AstNode(len(nodes), kind, self._span_from(start),
                                 [node, right], 0, op))
            node = len(nodes) - 1

    def _power(self) -> int:
        """``postfix { "**" postfix }``, right-associative, so its nodes are
        made rightmost first."""
        start = self.pos
        node = self._postfix()
        if self.keys[self.pos] != "**":
            return node
        operands = [(start, node)]
        while self.keys[self.pos] == "**":
            self._advance()
            operands.append((self.pos, self._postfix()))
        _, node = operands.pop()
        nodes = self.nodes
        for start, left in reversed(operands):
            nodes.append(AstNode(len(nodes), NodeKind.BINOP, self._span_from(start),
                                 [left, node], 0, "**"))
            node = len(nodes) - 1
        return node

    def _postfix(self) -> int:
        start = self.pos
        node = self._atom()
        keys = self.keys
        nodes = self.nodes
        while True:
            key = keys[self.pos]
            if key == "(":
                children = [node] + self._comma_list(self._expression)
                kind = NodeKind.CALL
            elif key == "[":
                self._open("[")
                children = [node, self._expression()]
                self._expect("]")
                self.nesting -= 1
                kind = NodeKind.SUBSCRIPT
            else:
                return node
            nodes.append(AstNode(len(nodes), kind, self._span_from(start), children, 0, None))
            node = len(nodes) - 1

    def _atom(self) -> int:
        key = self.keys[self.pos]
        if key is _IDENTIFIER:
            kind = NodeKind.NAME
        elif key is _NUMBER or key is _STRING or key == "True" or key == "False" or key == "None":
            kind = NodeKind.CONSTANT
        elif key == "(":
            self._open("(")
            node = self._expression()
            self._expect(")")
            self.nesting -= 1
            return node
        else:
            raise self._fail("an expression")
        tok = self.tokens[self.pos]
        self._advance()
        nodes = self.nodes
        nodes.append(AstNode(len(nodes), kind, tok.span, [], 0, tok.text))
        return len(nodes) - 1


def _assign_depths(nodes: list[AstNode]) -> None:
    """Each node's depth below the root, the last node. A node is made
    after its children, so its depth is set before theirs."""
    for node in reversed(nodes):
        depth = node.depth + 1
        for child in node.children:
            nodes[child].depth = depth


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
