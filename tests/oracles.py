"""Independent brute-force reference implementations used only by tests.

Each oracle recomputes a result through a second, naive code path: a
dataset loader that holds the whole text and checks each line against a
dict form of its annotation, a lexer that reads one character per step,
full node-table scans for token assignment, a parser of its own with one
method per precedence level, tree climbs through the children lists for
ancestor chains and the probe's targets, per-sequence loops for the
posterior, an anchor profile summed afresh on every call, a reverse
chain that tempers and draws in full at every commit, explicit
state-space enumeration for reverse chains, a dict-of-contexts count
model, dense (L, K) rows behind the predictor queries, and a
one-draw-at-a-time loss loop.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from anchordiff.denoisers import (
    BOS_CONTEXT,
    EOS_CONTEXT,
    Corpus,
    ExactPosteriorDenoiser,
    NoMatchError,
    Predictor,
    anchor_commit_order,
)
from anchordiff.diffusion import (
    LatentSequence,
    LossReport,
    apply_constraints,
    as_rng,
    corrupt,
    sample_categorical,
    temper_row,
)
from anchordiff.anchors import AnchorConfig, AnchorStrategy
from anchordiff.corpus_io import (
    DatasetRecord,
    EmptyCorpusError,
    _config_from_header,
    _from_line,
    annotate_program,
)
from anchordiff.minilang import KEYWORDS, AstNode, SyntaxTree, Token, TokenKind, parse
from anchordiff.minilang.nodes import NodeKind
from anchordiff.minilang.parser import MAX_NESTING, ParseError
from anchordiff.schedule import NoiseSchedule, lambda_weight, step_times, unmask_prob


def _record_dict(rec: DatasetRecord) -> dict:
    return {
        "id": rec.record_id,
        "source": rec.source,
        "tokens": [
            {"text": t.text, "kind": t.kind.value, "start": t.start, "end": t.end}
            for t in rec.tokens
        ],
        "node_id": rec.node_id.tolist(),
        "depth": rec.depth.tolist(),
        "omega": rec.omega.tolist(),
        "eta": rec.eta.tolist(),
        "mu": rec.mu.tolist(),
    }


def _whole_dict_record(data: dict, config: AnchorConfig, annotated: dict) -> DatasetRecord:
    if not isinstance(data["id"], str):
        raise ValueError(f"id must be a string, got {data['id']!r}")
    lengths = [len(t["text"]) for t in data["tokens"] if t["kind"] == TokenKind.IDENTIFIER.value]
    key = (data["source"], max(lengths, default=None))
    if key not in annotated:
        rec = annotate_program(key[0], config, split_max_len=key[1])
        annotated[key] = rec, _record_dict(rec)
    rec, fresh = annotated[key]
    fresh = {**fresh, "id": data["id"]}
    wrong = sorted(k for k in fresh.keys() | data.keys() if fresh.get(k) != data.get(k))
    if wrong:
        raise ValueError(f"fields disagree with the source's annotation: {', '.join(wrong)}")
    return replace(rec, record_id=data["id"])


def whole_text_dataset(payload: str) -> tuple[list[DatasetRecord], AnchorConfig]:
    """``dataset_from_jsonl`` over the whole text at once: ``splitlines``,
    then each line compared with the full dict form of its program's
    annotation, which is made once per (source, split length)."""
    lines = [(n, ln) for n, ln in enumerate(payload.splitlines(), 1) if ln.strip()]
    if not lines:
        raise EmptyCorpusError("empty dataset file")
    config = _from_line(*lines[0], lambda header: _config_from_header(header, len(lines) - 1))
    annotated: dict = {}
    records = [
        _from_line(n, ln, lambda data: _whole_dict_record(data, config, annotated))
        for n, ln in lines[1:]
    ]
    return records, config


def whole_text_load(path) -> tuple[list[DatasetRecord], AnchorConfig]:
    """``load_dataset`` that reads the whole file first."""
    return whole_text_dataset(Path(path).read_text(encoding="utf-8"))


def naive_node_assignment(tree: SyntaxTree, tokens: list[Token]) -> list[int]:
    """Scan every node per token: maximal depth intersecting span, ties to
    the start-byte owner, then the leftmost intersecting node."""
    out = []
    for tok in tokens:
        ts, te = tok.span
        candidates = []
        for node in tree.nodes:
            ns, ne = node.span
            if ts == te:
                hit = ns <= ts < ne
            else:
                hit = max(ns, ts) < min(ne, te)
            if hit:
                candidates.append(node)
        if not candidates:
            out.append(tree.root)
            continue
        top = max(n.depth for n in candidates)
        deepest = [n for n in candidates if n.depth == top]
        owners = [n for n in deepest if n.span[0] <= ts < n.span[1]]
        pool = owners if owners else deepest
        pool.sort(key=lambda n: (n.span[0], n.id))
        out.append(pool[0].id)
    return out


def recursive_pretty(tree: SyntaxTree) -> str:
    """``SyntaxTree.pretty`` written as one recursive call per node."""
    lines: list[str] = []

    def rec(node_id: int, indent: int) -> None:
        node = tree.nodes[node_id]
        label = node.kind.value
        if node.data is not None:
            label += f"({node.data!r})"
        lines.append("  " * indent + f"{label} [{node.span[0]}:{node.span[1]}]")
        for child in node.children:
            rec(child, indent + 1)

    rec(tree.root, 0)
    return "\n".join(lines)


def char_tokenize(source: str) -> list[Token]:
    """``tokenize`` reading one character per step, each character class
    tested by its own call."""
    tokens: list[Token] = []
    indent_stack = [0]
    pos = 0
    n = len(source)

    def emit(kind: TokenKind, text: str, start: int, end: int) -> None:
        tokens.append(Token(kind, text, (start, end)))

    while pos < n:
        line_start = pos
        while pos < n and source[pos] in " \t":
            pos += 1
        ws_end = pos
        if pos >= n or source[pos] == "\n":
            if pos < n:
                pos += 1
            continue
        width = sum(4 if ch == "\t" else 1 for ch in source[line_start:ws_end])
        if width > indent_stack[-1]:
            indent_stack.append(width)
            emit(TokenKind.INDENT, source[line_start:ws_end], line_start, ws_end)
        else:
            while width < indent_stack[-1]:
                indent_stack.pop()
                emit(TokenKind.DEDENT, "", ws_end, ws_end)
            if width > indent_stack[-1]:
                indent_stack.append(width)
                emit(TokenKind.INDENT, source[line_start:ws_end], line_start, ws_end)

        while pos < n and source[pos] != "\n":
            ch = source[pos]
            if ch in " \t":
                pos += 1
                continue
            start = pos
            if ch.isalpha() or ch == "_":
                while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                    pos += 1
                text = source[start:pos]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
                emit(kind, text, start, pos)
            elif ch.isdigit():
                while pos < n and source[pos].isdigit():
                    pos += 1
                if pos + 1 < n and source[pos] == "." and source[pos + 1].isdigit():
                    pos += 1
                    while pos < n and source[pos].isdigit():
                        pos += 1
                emit(TokenKind.NUMBER, source[start:pos], start, pos)
            elif ch in "'\"":
                end = _scan_string(source, pos)
                if end is None:
                    pos += 1
                    emit(TokenKind.OPERATOR, ch, start, pos)
                else:
                    pos = end
                    emit(TokenKind.STRING, source[start:pos], start, pos)
            elif source.startswith(("**", "//", "<=", ">=", "==", "!="), pos):
                pos += 2
                emit(TokenKind.OPERATOR, source[start:pos], start, pos)
            elif ch in "+-*/%<>=":
                pos += 1
                emit(TokenKind.OPERATOR, ch, start, pos)
            elif ch in "()[]:,":
                pos += 1
                emit(TokenKind.DELIMITER, ch, start, pos)
            else:
                pos += 1
                emit(TokenKind.OPERATOR, ch, start, pos)

        if pos < n:
            emit(TokenKind.NEWLINE, "\n", pos, pos + 1)
            pos += 1

    return tokens


def _scan_string(source: str, pos: int) -> int | None:
    """The end of the quoted string at ``pos``: a backslash skips the next
    character, a line break included; None when a line break or the end
    comes first."""
    quote = source[pos]
    i = pos + 1
    while i < len(source) and source[i] != "\n":
        if source[i] == "\\" and i + 1 < len(source):
            i += 2
            continue
        if source[i] == quote:
            return i + 1
        i += 1
    return None


_STRUCTURAL = (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT)


class _LeveledParser:
    """A parser that reads each token's kind and text, with one method per
    binary precedence level: every operand descends through ``or``, ``and``,
    ``not``, the comparisons, ``+ -`` and ``* / // %`` in turn."""

    OR_OPS = frozenset({"or"})
    AND_OPS = frozenset({"and"})
    COMPARE_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})
    ADD_OPS = frozenset({"+", "-"})
    MUL_OPS = frozenset({"*", "/", "//", "%"})

    def __init__(self, source: str, tokens: list[Token]):
        self.source = source
        self.tokens = tokens
        self.pos = 0
        self.last_content = 0
        self.nodes: list[AstNode] = []
        self.func_depth = 0
        self.loop_depth = 0
        self.nesting = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in _STRUCTURAL:
            self.last_content = self.pos
        self.pos += 1
        return tok

    def _fail(self, expected: str) -> ParseError:
        tok = self._peek()
        if tok is None:
            return ParseError(len(self.source), f"expected {expected}, found end of input")
        return ParseError(tok.start, f"expected {expected}, found {tok.kind.value} {tok.text!r}")

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

    def _new_node(self, kind, span, children=None, data=None) -> int:
        node = AstNode(len(self.nodes), kind, span, children or [], 0, data)
        self.nodes.append(node)
        return node.id

    def _span_from(self, start_index: int) -> tuple[int, int]:
        return (self.tokens[start_index].start, self.tokens[self.last_content].end)

    def parse_module(self) -> SyntaxTree:
        body: list[int] = []
        while not self._at_end():
            tok = self._peek()
            if tok.kind is TokenKind.INDENT:
                raise ParseError(tok.start, "unexpected indent")
            body.append(self._statement())
        content = [t for t in self.tokens if t.kind not in _STRUCTURAL]
        span = (content[0].start, content[-1].end) if content else (0, 0)
        root = self._new_node(NodeKind.MODULE, span, body)
        tree = SyntaxTree(self.source, self.nodes, root)
        tree.nodes[root].depth = 0
        stack = [root]
        while stack:
            node = tree.nodes[stack.pop()]
            for child in node.children:
                tree.nodes[child].depth = node.depth + 1
                stack.append(child)
        return tree

    def _statement(self) -> int:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD:
            if tok.text == "def":
                return self._function_def()
            if tok.text == "if":
                return self._if_stmt()
            if tok.text in ("while", "for"):
                return self._loop_stmt(tok.text)
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
            self._advance()
        self.nesting -= 1
        return body

    def _comma_list(self, item) -> list[int]:
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
        self._advance()
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
        clauses = []
        while not clauses or self._match_text(TokenKind.KEYWORD, "elif"):
            start = self.pos
            self._advance()
            clauses.append((start, [self._expression()] + self._block()))
        if self._match_text(TokenKind.KEYWORD, "else"):
            self._advance()
            clauses[-1][1].extend(self._block())
        inner: list[int] = []
        for start, children in reversed(clauses):
            inner = [self._new_node(NodeKind.IF, self._span_from(start), children + inner)]
        return inner[0]

    def _loop_stmt(self, keyword: str) -> int:
        start = self.pos
        self._advance()
        if keyword == "while":
            kind, head = NodeKind.WHILE, [self._expression()]
        else:
            kind, head = NodeKind.FOR, [self._name("a loop variable")]
            self._expect_text(TokenKind.KEYWORD, "in")
            head.append(self._expression())
        self.loop_depth += 1
        try:
            body = self._block()
        finally:
            self.loop_depth -= 1
        return self._new_node(kind, self._span_from(start), head + body)

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
            if self.nodes[expr].kind not in (NodeKind.NAME, NodeKind.SUBSCRIPT):
                raise ParseError(self._peek().start, "cannot assign to this expression")
            self._advance()
            value = self._expression()
            node = self._new_node(NodeKind.ASSIGN, self._span_from(start), [expr, value])
        else:
            node = self._new_node(NodeKind.EXPR_STMT, self.nodes[expr].span, [expr])
        self._expect_newline()
        return node

    def _expression(self) -> int:
        return self._binary(self._and_expr, TokenKind.KEYWORD, self.OR_OPS)

    def _and_expr(self) -> int:
        return self._binary(self._not_expr, TokenKind.KEYWORD, self.AND_OPS)

    def _comparison(self) -> int:
        return self._binary(self._arith, TokenKind.OPERATOR, self.COMPARE_OPS, NodeKind.COMPARE)

    def _arith(self) -> int:
        return self._binary(self._term, TokenKind.OPERATOR, self.ADD_OPS)

    def _term(self) -> int:
        return self._binary(self._power, TokenKind.OPERATOR, self.MUL_OPS)

    def _binary(self, operand, kind: TokenKind, ops, node_kind=NodeKind.BINOP) -> int:
        start = self.pos
        node = operand()
        while (tok := self._peek()) is not None and tok.kind is kind and tok.text in ops:
            self._advance()
            right = operand()
            node = self._new_node(node_kind, self._span_from(start), [node, right], data=tok.text)
        return node

    def _not_expr(self) -> int:
        starts = []
        while self._match_text(TokenKind.KEYWORD, "not"):
            starts.append(self.pos)
            self._advance()
        node = self._comparison()
        for start in reversed(starts):
            node = self._new_node(NodeKind.BINOP, self._span_from(start), [node], data="not")
        return node

    def _power(self) -> int:
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
                node = self._new_node(NodeKind.CALL, self._span_from(start), [node] + args)
            elif self._match_text(TokenKind.DELIMITER, "["):
                self._open_level(self._advance())
                index = self._expression()
                self._expect_text(TokenKind.DELIMITER, "]")
                self.nesting -= 1
                node = self._new_node(NodeKind.SUBSCRIPT, self._span_from(start), [node, index])
            else:
                return node

    def _atom(self) -> int:
        tok = self._peek()
        if tok is None:
            raise self._fail("an expression")
        if tok.kind is TokenKind.IDENTIFIER:
            self._advance()
            return self._new_node(NodeKind.NAME, tok.span, data=tok.text)
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING) or (
            tok.kind is TokenKind.KEYWORD and tok.text in ("True", "False", "None")
        ):
            self._advance()
            return self._new_node(NodeKind.CONSTANT, tok.span, data=tok.text)
        if tok.kind is TokenKind.DELIMITER and tok.text == "(":
            self._open_level(self._advance())
            node = self._expression()
            self._expect_text(TokenKind.DELIMITER, ")")
            self.nesting -= 1
            return node
        raise self._fail("an expression")


def leveled_parse(source: str) -> SyntaxTree:
    """``parse`` through one method per precedence level, over the tokens
    of ``char_tokenize``."""
    return _LeveledParser(source, char_tokenize(source)).parse_module()


def naive_omega(token: Token, strategy: AnchorStrategy) -> int:
    """The anchor indicator of one token: keywords under keyword, identifiers
    under identifier, both under anchor_tree, nothing under null."""
    is_keyword = token.kind is TokenKind.KEYWORD
    is_identifier = token.kind is TokenKind.IDENTIFIER
    if strategy is AnchorStrategy.KEYWORD:
        return int(is_keyword)
    if strategy is AnchorStrategy.IDENTIFIER:
        return int(is_identifier)
    if strategy is AnchorStrategy.ANCHOR_TREE:
        return int(is_keyword or is_identifier)
    return 0


def _child_parent(tree: SyntaxTree, node: int) -> int | None:
    """The node whose children list holds ``node``, by a scan of the table."""
    return next((n.id for n in tree.nodes if node in n.children), None)


def tree_max_chain_length(l0: int, node_id, tree: SyntaxTree) -> int:
    """``max_chain_length`` by a climb of the tree itself: each parent is
    found in the children lists, and a node bears a token when some
    position's node id is its id."""
    homes = node_id.tolist()
    count = 0
    current = _child_parent(tree, homes[l0])
    while current is not None:
        count += current in homes
        current = _child_parent(tree, current)
    return count


def tree_ancestor_chain(l0: int, k: int, node_id, tokens: list[Token], tree: SyntaxTree,
                        rule: str) -> tuple[int, ...] | None:
    """``ancestor_chain`` by a climb of the tree itself, or
    None where it raises InsufficientDepth: each step takes the nearest
    token-bearing strict ancestor's first Keyword position under
    ``keyword_first`` (else its first position), its first position under
    ``first_token``."""
    homes = node_id.tolist()
    positions = [l0]
    current = homes[l0]
    while len(positions) < k + 1:
        current = _child_parent(tree, current)
        while current is not None and current not in homes:
            current = _child_parent(tree, current)
        if current is None:
            return None
        owned = [p for p, home in enumerate(homes) if home == current]
        keywords = [p for p in owned if tokens[p].kind is TokenKind.KEYWORD]
        positions.append((keywords if rule == "keyword_first" and keywords else owned)[0])
    return tuple(positions)


def naive_probe_targets(records, k: int, length: int) -> tuple[list[list[int]], int]:
    """Per record: positions below ``length`` admitting an ancestor chain of
    length k, each found by climbing the record's tree, parsed again from
    its source; and the longest chain any such position admits (0 when
    there is none)."""
    eligible: list[list[int]] = []
    achievable = 0
    for rec in records:
        tree = parse(rec.source)
        chains = [
            tree_max_chain_length(l, rec.node_id, tree)
            for l in range(min(len(rec), length))
        ]
        eligible.append([l for l, c in enumerate(chains) if c >= k])
        achievable = max([achievable, *chains])
    return eligible, achievable


def naive_consistent_rows(corpus: Corpus, z: LatentSequence) -> list[int]:
    """Indices of the corpus sequences that agree with z where unmasked."""
    mask = corpus.vocab.mask_id
    rows = []
    for i, ids in enumerate(corpus.ids):
        ok = True
        for l in range(len(z)):
            if z.ids[l] != mask and z.ids[l] != ids[l]:
                ok = False
                break
        if ok:
            rows.append(i)
    return rows


def naive_posterior(corpus: Corpus, z: LatentSequence) -> np.ndarray:
    """Per-sequence loop posterior: constraint-satisfying probability rows."""
    K = corpus.vocab.size
    mask = corpus.vocab.mask_id
    matched = [
        (corpus.ids[i], corpus.weights[i]) for i in naive_consistent_rows(corpus, z)
    ]
    if not matched:
        raise NoMatchError("no corpus sequence matches")
    total = sum(w for _, w in matched)
    probs = np.zeros((len(z), K))
    for l in range(len(z)):
        if z.ids[l] != mask:
            probs[l, z.ids[l]] = 1.0
        else:
            for ids, w in matched:
                probs[l, ids[l]] += w
            probs[l] /= total
    return probs


class DenseRows(Predictor):
    """The three predictor queries derived from dense rows: a subclass gives
    ``predict(z)``, the raw (L, K) rows of one latent, and every query reads
    them through ``apply_constraints``. The reference for the native
    queries of the table predictors."""

    def predict(self, z: LatentSequence) -> np.ndarray:
        raise NotImplementedError

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        return apply_constraints(self.predict(z), z)[position]

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        zs = [LatentSequence(row, mask_id) for row in ids]
        probs = apply_constraints(np.stack([self.predict(z) for z in zs]), zs)
        return probs[:, np.arange(ids.shape[1]), targets]

    def resolve_anchors(self, ids: np.ndarray, order: list[int], mask_id: int) -> np.ndarray:
        """Each row resolved alone by ``per_draw_resolve``, in its own order:
        ``order`` filtered by the row's mask."""
        resolved = [
            per_draw_resolve(
                self, LatentSequence(row, mask_id), [l for l in order if row[l] == mask_id]
            ).ids
            for row in ids
        ]
        return np.array(resolved, dtype=np.int64).reshape(np.shape(ids))


class NaivePosterior(DenseRows):
    """The exact posterior's dense rows by ``naive_posterior``."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus

    def predict(self, z: LatentSequence) -> np.ndarray:
        return naive_posterior(self.corpus, z)


def constrained_rows(predictor, z: LatentSequence) -> np.ndarray:
    """All (L, K) constrained rows of one latent: ``predict_row`` at every
    position."""
    return np.stack([predictor.predict_row(z, l) for l in range(len(z))])


def validate_prediction(probs: np.ndarray, z: LatentSequence, atol: float = 1e-9) -> None:
    """Raise ValueError unless ``probs`` satisfies the prediction contract:
    shape (L, K), non-negative rows summing to 1, zero mass on the mask
    token (zero-masking) and one-hot rows on the observed token at unmasked
    positions (carry-over)."""
    if probs.shape != (len(z), z.mask_id + 1):
        raise ValueError("prediction matrix shape mismatch")
    if np.any(probs < 0):
        raise ValueError("negative probability")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > atol):
        raise ValueError("rows must sum to 1")
    if np.any(probs[:, z.mask_id] != 0):
        raise ValueError("mask column must be zero")
    unmasked = ~z.is_masked
    if unmasked.any():
        observed = z.ids[unmasked]
        rows = probs[unmasked]
        if np.any(rows[np.arange(len(observed)), observed] != 1.0):
            raise ValueError("carry-over rows must be one-hot on the observation")


class RescanExactDenoiser(Predictor):
    """The exact posterior with a full n x L corpus rescan on every query:
    the reference for ExactPosteriorDenoiser's incremental consistent set. It
    groups corpus rows into unique rows as the exact predictor does (that
    grouping is construction, not match state), so a profile summing its
    consistent unique rows adds the same numbers in the same order."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.unique_of_row = ExactPosteriorDenoiser(corpus).unique_of_row

    @property
    def vocab(self):
        return self.corpus.vocab

    def match_mask(self, z: LatentSequence) -> np.ndarray:
        agree = (self.corpus.ids == z.ids[None, :]) | z.is_masked[None, :]
        return agree.all(axis=1)

    def posterior(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        """The unique rows holding a matching corpus row, ascending, and the
        weights of their matching copies summed in corpus order."""
        m = self.match_mask(z)
        unique = self.unique_of_row[m]
        hit = np.unique(unique)
        weights = np.bincount(unique, weights=self.corpus.weights[m])
        return hit, weights[hit]

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        m = self.match_mask(z)
        if not m.any():
            raise NoMatchError("latent matches no corpus sequence")
        K = self.corpus.vocab.size
        if not z.is_masked[position]:
            row = np.zeros(K)
            row[z.ids[position]] = 1.0
            return row
        hit = np.flatnonzero(m)
        counts = np.bincount(
            self.corpus.ids[hit, position], weights=self.corpus.weights[hit], minlength=K
        )
        return counts / counts.sum()


def all_rows_profile(corpus: Corpus, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
    """The posterior anchor profile as a weighted mean over every corpus
    row: the matching rows' normalized weights (zero elsewhere) times the
    (n, L) omega and eta. Some row must match ``z``."""
    w = np.zeros(corpus.n)
    rows = naive_consistent_rows(corpus, z)
    assert rows, "no corpus row matches the latent"
    w[rows] = corpus.weights[rows]
    w = w / w.sum()
    return w @ corpus.omega, w @ corpus.eta


def sorted_anchor_commit_order(
    omega: np.ndarray, eta: np.ndarray, masked: np.ndarray
) -> list[int]:
    """Masked anchor positions by a sort on (-omega * eta, position): the
    reference for the vectorized ``anchor_commit_order``."""
    candidates = [int(l) for l in np.flatnonzero(masked) if omega[l] >= 0.5]
    return sorted(candidates, key=lambda l: (-float(omega[l] * eta[l]), l))


class ResummedProfile:
    """The posterior anchor profile summed afresh on every call: the
    weighted (omega, eta) of each unique row's copies, summed over the
    consistent unique rows in ascending order and divided by their summed
    weight. The reference for PosteriorAnchorProfile's kept answers."""

    def __init__(self, exact):
        self.exact = exact
        corpus = exact.corpus
        weighted = corpus.weights[:, None] * np.hstack([corpus.omega, corpus.eta])
        self.sums = np.zeros((exact.unique_of_row.max() + 1, weighted.shape[1]))
        np.add.at(self.sums, exact.unique_of_row, weighted)

    def __call__(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        hit, w = self.exact.posterior(z)
        if not len(hit):
            raise NoMatchError("latent matches no corpus sequence")
        mean = self.sums[hit].sum(axis=0) / w.sum()
        return mean[: len(z)], mean[len(z) :]


def reference_generate(prompt, length: int, predictors, config, schedule: NoiseSchedule, rng):
    """``sampler.generate``'s reverse chain with a tempered
    ``sample_categorical`` draw at every commit, sure or not, and the
    anchor order by ``sorted_anchor_commit_order``. Returns the output ids
    and the trace events as plain (position, step, event, token, stage)
    tuples; raises what the predictor or profile raises."""
    prompt = [int(t) for t in prompt]
    mask_id = predictors.predictor.vocab.mask_id
    rng = as_rng(rng)
    schedule = NoiseSchedule(schedule.kind, config.T)
    ids = np.full(length, mask_id, dtype=np.int64)
    ids[: len(prompt)] = prompt
    z = LatentSequence(ids=ids, mask_id=mask_id, prompt_mask=np.arange(length) < len(prompt))
    events = []
    stage = ["denoise"] * length
    for i in range(config.T, 0, -1):
        p = unmask_prob(schedule, i)
        masked = [l for l in range(length) if ids[l] == mask_id]
        budget = int(rng.binomial(len(masked), p)) if masked else 0
        if budget:
            omega, eta = predictors.profile(z)
            anchors = sorted_anchor_commit_order(omega, eta, ids == mask_id)
            others = [l for l in masked if omega[l] < 0.5]
            rng.shuffle(others)
            for k, l in enumerate((anchors + others)[:budget]):
                row = predictors.predictor.predict_row(z, l)
                token = sample_categorical(temper_row(row, config.temperature), rng)
                ids[l] = token
                stage[l] = "anchor" if k < len(anchors) else "denoise"
                events.append((l, i, "unmask", token, stage[l]))
        if i > 1 and config.remask_rate > 0:
            committed = [l for l in range(len(prompt), length) if ids[l] != mask_id]
            for l, coin in zip(committed, rng.random(len(committed))):
                if coin < config.remask_rate * p:
                    events.append((l, i, "remask", int(ids[l]), stage[l]))
                    ids[l] = mask_id
    return ids, events


def _predictor_rows(corpus: Corpus, state: tuple[int, ...], temperature: float):
    z = LatentSequence(ids=np.array(state), mask_id=corpus.vocab.mask_id)
    rows = constrained_rows(ExactPosteriorDenoiser(corpus), z)
    return [temper_row(row, temperature) for row in rows]


def enumerate_product_chain(
    corpus: Corpus, schedule: NoiseSchedule, temperature: float = 1.0
) -> dict[tuple[int, ...], float]:
    """Final-output distribution of the per-position-independent reverse
    process (each masked position unmasks on its own coin, tokens drawn
    from the step's prediction rows)."""
    mask = corpus.vocab.mask_id
    L = corpus.length
    dist: dict[tuple[int, ...], float] = {tuple([mask] * L): 1.0}
    for i in range(schedule.T, 0, -1):
        p = unmask_prob(schedule, i)
        nxt: dict[tuple[int, ...], float] = defaultdict(float)
        for state, prob in dist.items():
            masked = [l for l in range(L) if state[l] == mask]
            if not masked:
                nxt[state] += prob
                continue
            rows = _predictor_rows(corpus, state, temperature)
            options = []
            for l in masked:
                opts = [(mask, 1.0 - p)] if p < 1.0 else []
                opts += [
                    (v, p * rows[l][v]) for v in range(len(rows[l])) if rows[l][v] > 0
                ]
                options.append(opts)
            for combo in itertools.product(*options):
                q = prob
                s = list(state)
                for l, (v, pr) in zip(masked, combo):
                    q *= pr
                    s[l] = v
                if q > 0:
                    nxt[tuple(s)] += q
        dist = dict(nxt)
    return dist


def enumerate_sequential_chain(
    corpus: Corpus, schedule: NoiseSchedule, temperature: float = 1.0
) -> dict[tuple[int, ...], float]:
    """Final-output distribution of the sampler's step rule: a binomial
    unmask budget spent on a uniformly ordered subset, committing one
    position at a time with re-predicted rows (the Null-strategy path)."""
    mask = corpus.vocab.mask_id
    L = corpus.length
    dist: dict[tuple[int, ...], float] = {tuple([mask] * L): 1.0}
    for i in range(schedule.T, 0, -1):
        p = unmask_prob(schedule, i)
        nxt: dict[tuple[int, ...], float] = defaultdict(float)
        for state, prob in dist.items():
            masked = [l for l in range(L) if state[l] == mask]
            if not masked:
                nxt[state] += prob
                continue
            m = len(masked)
            for b in range(m + 1):
                p_b = math.comb(m, b) * (p**b) * ((1 - p) ** (m - b))
                if p_b == 0:
                    continue
                n_orders = math.perm(m, b)
                for order in itertools.permutations(masked, b):
                    _commit_recurse(
                        corpus, state, list(order), prob * p_b / n_orders,
                        temperature, nxt,
                    )
        dist = dict(nxt)
    return dist


def _commit_recurse(corpus, state, order, prob, temperature, out) -> None:
    if not order:
        out[tuple(state)] += prob
        return
    l = order[0]
    rows = _predictor_rows(corpus, state, temperature)
    for v in range(len(rows[l])):
        if rows[l][v] > 0:
            s = list(state)
            s[l] = v
            _commit_recurse(corpus, s, order[1:], prob * rows[l][v], temperature, out)


def total_variation(
    p: dict[tuple[int, ...], float], q: dict[tuple[int, ...], float]
) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


class DictBackoffModel(DenseRows):
    """The backoff count model with one dict entry per seen context and the
    backoff walked per query: the reference for BackoffCountModel's tables."""

    def __init__(self, vocab, pair, left, right, unigram):
        self.vocab = vocab
        self.pair = pair
        self.left = left
        self.right = right
        self.unigram = unigram

    @classmethod
    def fit(cls, corpus: Corpus) -> "DictBackoffModel":
        K = corpus.vocab.size
        pair: dict[tuple[int, int], np.ndarray] = {}
        left: dict[int, np.ndarray] = {}
        right: dict[int, np.ndarray] = {}
        unigram = np.zeros(K)
        for ids, w in zip(corpus.ids, corpus.weights):
            L = len(ids)
            for l in range(L):
                a = int(ids[l - 1]) if l > 0 else BOS_CONTEXT
                b = int(ids[l + 1]) if l < L - 1 else EOS_CONTEXT
                tok = int(ids[l])
                for table, key in ((pair, (a, b)), (left, a), (right, b)):
                    if key not in table:
                        table[key] = np.zeros(K)
                    table[key][tok] += w
                unigram[tok] += w
        return cls(corpus.vocab, pair, left, right, unigram)

    def _smooth(self, counts: np.ndarray) -> np.ndarray:
        row = counts.copy()
        row[: self.vocab.mask_id] += 1.0
        return row / row.sum()

    def _context_row(self, a, b) -> np.ndarray:
        if a is not None and b is not None and (a, b) in self.pair:
            return self._smooth(self.pair[(a, b)])
        if a is not None and a in self.left:
            return self._smooth(self.left[a])
        if b is not None and b in self.right:
            return self._smooth(self.right[b])
        return self._smooth(self.unigram)

    def _neighbor(self, z: LatentSequence, position: int):
        if position < 0:
            return BOS_CONTEXT
        if position >= len(z):
            return EOS_CONTEXT
        if z.is_masked[position]:
            return None
        return int(z.ids[position])

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        if not z.is_masked[position]:
            row = np.zeros(self.vocab.size)
            row[z.ids[position]] = 1.0
            return row
        return self._context_row(
            self._neighbor(z, position - 1), self._neighbor(z, position + 1)
        )

    def predict(self, z: LatentSequence) -> np.ndarray:
        return np.stack([self.predict_row(z, l) for l in range(len(z))])

    def to_json(self) -> str:
        def table(d: dict) -> list:
            return [[list(k) if isinstance(k, tuple) else k, v.tolist()]
                    for k, v in sorted(d.items())]

        return json.dumps(
            {
                "format": "anchordiff-backoff-counts",
                "version": 1,
                "vocab": list(self.vocab.tokens),
                "pair": table(self.pair),
                "left": table(self.left),
                "right": table(self.right),
                "unigram": self.unigram.tolist(),
            }
        )


def per_draw_resolve(anchor, z: LatentSequence, order: list[int]) -> LatentSequence:
    """The anchors of one latent committed one at a time, in the latent's
    own order, each by the argmax of ``predict_row`` given the ones before."""
    y = z.copy_with(z.ids)
    for l in order:
        y.ids[l] = int(np.argmax(anchor.predict_row(y, l)))
    return y


def per_draw_two_stage(anchor, denoiser, z, omega, eta):
    """The anchored composition of one latent: anchor rows, the anchors
    committed one at a time by argmax, denoiser rows on the result, and the
    anchor stage's rows kept at the committed positions."""
    anchor_probs = constrained_rows(anchor, z)
    order = anchor_commit_order(omega, eta, z.is_masked)
    y = per_draw_resolve(anchor, z, order)
    final_probs = constrained_rows(denoiser, y)
    final_probs[order] = anchor_probs[order]
    return anchor_probs, final_probs


def _log_prob(probs, targets, positions, weights=None):
    """Sum of (weighted) log probabilities of the targets at ``positions``,
    skipping and counting the zeros."""
    if len(positions) == 0:
        return 0.0, 0
    p = probs[positions, targets[positions]]
    zero = p == 0
    if zero.any():
        p = p[~zero]
        weights = None if weights is None else weights[~zero]
    logs = np.log(p) if weights is None else weights * np.log(p)
    return float(logs.sum()), int(zero.sum())


def nelbo_summand(x: LatentSequence, predictor):
    """One draw's NELBO log term and infinite hits. A predictor with an
    ``anchor`` and a ``denoiser`` is composed per draw."""

    def summand(z):
        if hasattr(predictor, "denoiser"):
            _, probs = per_draw_two_stage(
                predictor.anchor, predictor.denoiser, z, predictor.omega, predictor.eta
            )
        else:
            probs = constrained_rows(predictor, z)
        return _log_prob(probs, x.ids, np.flatnonzero(z.is_masked))

    return summand


def anelbo_summand(x: LatentSequence, anchor_targets, pair, mu):
    """One draw's anchored-NELBO log term and infinite hits."""
    anchored = np.flatnonzero(np.asarray(mu) > 0)

    def summand(z):
        anchor_probs, final_probs = per_draw_two_stage(
            pair.anchor, pair.denoiser, z, pair.omega, pair.eta
        )
        log_term, hits = _log_prob(final_probs, x.ids, np.flatnonzero(z.is_masked))
        if len(anchored):
            extra, more = _log_prob(
                anchor_probs, np.asarray(anchor_targets), anchored, np.asarray(mu)[anchored]
            )
            log_term += extra
            hits += more
        return log_term, hits

    return summand


def per_draw_loss(x, schedule: NoiseSchedule, n_samples: int, rng, summand) -> LossReport:
    """The stratified Monte Carlo loss one draw at a time: ``corrupt`` per
    draw, then ``summand(z) -> (log term, infinite hits)``."""
    seed = rng if isinstance(rng, int) else None
    rng = as_rng(rng)
    base, rem = divmod(max(n_samples, schedule.T), schedule.T)
    counts = [base + (1 if i < rem else 0) for i in range(schedule.T)]
    estimate = 0.0
    variance = 0.0
    n_infinite = 0
    for i in range(1, schedule.T + 1):
        lam = lambda_weight(schedule, i)
        _, t = step_times(schedule, i)
        n_i = counts[i - 1]
        vals = np.empty(n_i)
        for j in range(n_i):
            z = corrupt(x, t, schedule, rng)
            log_term, inf_hits = summand(z)
            n_infinite += inf_hits
            vals[j] = lam * log_term
        estimate += float(vals.mean())
        if n_i > 1:
            variance += float(vals.var(ddof=1)) / n_i
    stderr = float(np.sqrt(variance))
    if n_infinite:
        estimate = float("inf")
        stderr = float("inf")
    return LossReport(estimate, stderr, sum(counts), seed, n_infinite)
