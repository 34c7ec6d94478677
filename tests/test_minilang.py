from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff.corpus_io import synth_corpus
from anchordiff.minilang import parser as parser_module
from anchordiff.minilang import (
    AstNode,
    NodeKind,
    ParseError,
    SyntaxTree,
    TokenKind,
    is_syntactically_valid,
    parse,
    render_surfaces,
    split_identifiers,
    token_surfaces,
    tokenize,
)

from .oracles import char_tokenize, leveled_parse, recursive_pretty

# Each shape nests n levels; its opener is the token that opens a level.
NESTED = {
    "parens": ("(", lambda n: "x = " + "(" * n + "1" + ")" * n + "\n"),
    "subscripts": ("[", lambda n: "x = a" + "[a" * n + "]" * n + "\n"),
    "calls": ("(", lambda n: "x = " + "f(" * n + "1" + ")" * n + "\n"),
    "not-parens": ("(", lambda n: "x = " + "not (" * n + "1" + ")" * n + "\n"),
    "not-calls": ("(", lambda n: "x = " + "not f(" * n + "1" + ")" * n + "\n"),
    "ifs": (":", lambda n: "".join(" " * i + "if x:\n" for i in range(n)) + " " * n + "y = 1\n"),
}


def _with_frames_below(n, fn):
    """``fn()`` called from n extra stack frames."""
    return fn() if n == 0 else _with_frames_below(n - 1, fn)


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


# Synth programs edited with what the lexer treats specially: tabs, a
# carriage return, quotes, backslashes (one before a line break lets a
# string go on), non-ASCII letters and digits, and numbers.
LEXER_BASES = list(dict.fromkeys(synth_corpus(seed=3, n_programs=60, max_depth=8)))
LEXER_PIECES = [
    "\t", "\r", "'", '"', "\\", "\\\n", "'a\\\nb'", "\"c\\\"\"", "\u00b2", "\u00e9", "\u0663",
    "\u00bd", "1.5", "7.", ".5", "_x9", "**", "!=", "!", "\n", "    ", " ", "\x0c",
]


def _lexer_edit(base, edits):
    source = LEXER_BASES[base % len(LEXER_BASES)]
    for at, span, piece in edits:
        i = at % (len(source) + 1)
        source = source[:i] + piece + source[i + span:]
    return source


LEXER_SOURCES = st.one_of(
    st.builds(_lexer_edit, st.integers(0, 1000), st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 3), st.sampled_from(LEXER_PIECES)),
        min_size=1, max_size=5,
    )),
    st.lists(st.sampled_from(LEXER_PIECES + ["x", "if", "(", ")", ":"]), max_size=30).map("".join),
)


class TestTokenize:
    def test_simple_assignment(self):
        assert kinds_and_texts(tokenize("x = 1")) == [
            (TokenKind.IDENTIFIER, "x"),
            (TokenKind.OPERATOR, "="),
            (TokenKind.NUMBER, "1"),
        ]

    def test_def_header(self):
        assert kinds_and_texts(tokenize("def f():")) == [
            (TokenKind.KEYWORD, "def"),
            (TokenKind.IDENTIFIER, "f"),
            (TokenKind.DELIMITER, "("),
            (TokenKind.DELIMITER, ")"),
            (TokenKind.DELIMITER, ":"),
        ]

    def test_spans_match_character_positions(self):
        tokens = {t.text: t.span for t in tokenize("x = (a + 2) * b")}
        assert tokens["a"] == (5, 6)
        assert tokens["+"] == (7, 8)

    def test_unknown_bytes_become_operators(self):
        tokens = tokenize("x @ $ ?")
        assert [t.text for t in tokens] == ["x", "@", "$", "?"]
        assert all(
            t.kind is TokenKind.OPERATOR for t in tokens[1:]
        )

    def test_indent_dedent_structure(self):
        src = "if x:\n    y = 1\nz = 2\n"
        kinds = [t.kind for t in tokenize(src)]
        assert TokenKind.INDENT in kinds and TokenKind.DEDENT in kinds
        i = kinds.index(TokenKind.INDENT)
        d = kinds.index(TokenKind.DEDENT)
        assert i < d

    def test_multi_level_dedent_collapses_to_same_offset(self):
        src = "if a:\n    if b:\n        c = 1\nd = 2\n"
        dedents = [t for t in tokenize(src) if t.kind is TokenKind.DEDENT]
        assert len(dedents) == 2
        assert dedents[0].span == dedents[1].span
        assert dedents[0].span[0] == dedents[0].span[1]

    def test_blank_lines_produce_no_tokens(self):
        a = [t.text for t in tokenize("x = 1\n\n\ny = 2\n")]
        assert a == ["x", "=", "1", "\n", "y", "=", "2", "\n"]

    def test_two_char_operators(self):
        texts = [t.text for t in tokenize("a <= b ** c // d != e")]
        assert texts == ["a", "<=", "b", "**", "c", "//", "d", "!=", "e"]

    @given(st.text(max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_total_and_exact_spans(self, source):
        tokens = tokenize(source)
        prev_start = -1
        prev_end = 0
        for t in tokens:
            s, e = t.span
            assert 0 <= s <= e <= len(source)
            assert t.text == source[s:e]
            assert s >= prev_start
            if s < e:  # non-empty spans strictly advance and never overlap
                assert s >= prev_end
                prev_end = e
            prev_start = s

    @given(st.text(max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, source):
        assert tokenize(source) == tokenize(source)

    @given(st.one_of(LEXER_SOURCES, st.text(max_size=80)))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_character_lexer(self, source):
        assert tokenize(source) == char_tokenize(source)


class TestSplitIdentifiers:
    def test_splits_long_identifier(self):
        toks = tokenize("quicksort")
        assert [t.text for t in split_identifiers(toks, 5)] == ["quick", "sort"]

    def test_short_identifier_passes_through(self):
        toks = tokenize("x")
        assert [t.text for t in split_identifiers(toks, 5)] == ["x"]

    def test_greedy_chunks(self):
        toks = tokenize("findmax")
        assert [t.text for t in split_identifiers(toks, 4)] == ["find", "max"]

    def test_chunk_spans_partition_original(self):
        [orig] = tokenize("accumulator")
        chunks = split_identifiers([orig], 4)
        assert chunks[0].start == orig.start
        assert chunks[-1].end == orig.end
        for a, b in zip(chunks, chunks[1:]):
            assert a.end == b.start
        assert "".join(c.text for c in chunks) == orig.text

    @given(
        st.text(alphabet=st.sampled_from(list("abxy_09 (+=:\n\t")), max_size=80),
        st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_leaves_its_input_unchanged(self, source, max_len):
        tokens = tokenize(source)
        before = copy.deepcopy(tokens)
        split_identifiers(tokens, max_len)
        assert tokens == before

    def test_continuation_chunks_have_marked_surfaces(self):
        tokens = split_identifiers(tokenize("quicksort = best\n"), 3)
        assert token_surfaces(tokens) == ["qui", "##cks", "##ort", "=", "bes", "##t", "\n"]
        assert render_surfaces(token_surfaces(tokens)) == "quicksort = best\n"

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_split_surfaces_render_to_the_same_tree(self, seed, max_len):
        [src] = synth_corpus(seed=seed, n_programs=1)
        rendered = render_surfaces(token_surfaces(split_identifiers(tokenize(src), max_len)))
        tree, original = parse(rendered), parse(src)
        assert _structure(tree, tree.root) == _structure(original, original.root)


class TestParse:
    def test_fig_style_structure(self):
        tree = parse("x = (a + 2) * b")
        module = tree.node(tree.root)
        assert module.kind is NodeKind.MODULE and module.depth == 0
        [assign_id] = module.children
        assign = tree.node(assign_id)
        assert assign.kind is NodeKind.ASSIGN
        target, value = (tree.node(c) for c in assign.children)
        assert target.kind is NodeKind.NAME and target.data == "x"
        assert value.kind is NodeKind.BINOP and value.span == (4, 15)
        inner = tree.node(value.children[0])
        assert inner.kind is NodeKind.BINOP and inner.span == (5, 10)

    def test_empty_program(self):
        tree = parse("")
        assert tree.node(tree.root).kind is NodeKind.MODULE
        assert tree.node(tree.root).children == []

    def test_malformed_def_offset(self):
        with pytest.raises(ParseError) as err:
            parse("def f(:")
        assert err.value.offset == 6

    def test_return_outside_function(self):
        assert not is_syntactically_valid("return 1")

    def test_missing_operand(self):
        assert not is_syntactically_valid("if x > :")

    def test_wellformed_function(self):
        assert is_syntactically_valid("def f():\n    return 1")

    def test_break_outside_loop(self):
        assert not is_syntactically_valid("def f():\n    break")
        assert is_syntactically_valid("def f():\n    while 1 < 2:\n        break")

    def test_import_is_reserved_but_not_a_statement(self):
        assert not is_syntactically_valid("import os")

    def test_elif_else_chain(self):
        src = (
            "def f(x):\n"
            "    if x < 0:\n"
            "        return 0\n"
            "    elif x == 0:\n"
            "        return 1\n"
            "    else:\n"
            "        return 2\n"
        )
        tree = parse(src)
        kinds = [n.kind for n in tree.nodes]
        assert kinds.count(NodeKind.IF) == 2  # elif nests a second If

    def test_boolean_operator_shapes(self):
        tree = parse("x = not a == 0 and b or c")
        [assign] = tree.node(tree.root).children
        value = tree.node(tree.node(assign).children[1])
        # or binds loosest: (not (a == 0) and b) or c
        assert value.kind is NodeKind.BINOP and value.data == "or"
        left = tree.node(value.children[0])
        assert left.data == "and"
        neg = tree.node(left.children[0])
        assert neg.data == "not" and len(neg.children) == 1
        assert tree.node(neg.children[0]).kind is NodeKind.COMPARE

    def test_depth_increments(self, synth_sources):
        for src in synth_sources[:10]:
            tree = parse(src)
            for node in tree.nodes:
                for child in node.children:
                    assert tree.node(child).depth == node.depth + 1

    def test_span_nesting(self, synth_sources):
        for src in synth_sources[:10]:
            tree = parse(src)
            nodes = tree.nodes
            for i, u in enumerate(nodes):
                for v in nodes[i + 1 :]:
                    a, b = u.span, v.span
                    disjoint = a[1] <= b[0] or b[1] <= a[0]
                    contains = (a[0] <= b[0] and b[1] <= a[1]) or (
                        b[0] <= a[0] and a[1] <= b[1]
                    )
                    assert disjoint or contains


def _structure(tree, node_id):
    node = tree.node(node_id)
    return (node.kind, node.data, tuple(_structure(tree, c) for c in node.children))


REPARSE_KINDS = {
    NodeKind.NAME,
    NodeKind.CONSTANT,
    NodeKind.BINOP,
    NodeKind.COMPARE,
    NodeKind.CALL,
    NodeKind.SUBSCRIPT,
    NodeKind.ASSIGN,
    NodeKind.IF,
    NodeKind.WHILE,
    NodeKind.FOR,
    NodeKind.FUNCTION_DEF,
}


class TestSyntaxTreeTable:
    """The node table is a list and the parent map a tuple, both indexed by
    node id."""

    def test_nodes_are_indexed_by_id(self, synth_sources):
        tree = parse(synth_sources[0])
        assert [n.id for n in tree.nodes] == list(range(len(tree.nodes)))
        assert type(tree.parents) is tuple
        assert tree.parents == tuple(tree.parent(n.id) for n in tree.nodes)
        assert tree.parents.count(None) == 1
        assert tree.parent(tree.root) is None
        for node in tree.nodes:
            assert all(tree.parents[child] == node.id for child in node.children)

    def test_node_ids_must_be_0_to_n_minus_1(self):
        nodes = [AstNode(0, NodeKind.MODULE, (0, 2), [2]), AstNode(2, NodeKind.NAME, (0, 1))]
        with pytest.raises(ValueError, match="0..n-1"):
            SyntaxTree("xy", nodes, 0)

    def test_pickle_and_deepcopy_give_equal_trees(self, synth_sources):
        for src in synth_sources[:5]:
            want = parse(src)
            for tree in (pickle.loads(pickle.dumps(want)), copy.deepcopy(want)):
                assert (tree.source, tree.root, tree.nodes) == (want.source, want.root, want.nodes)
                assert [tree.parent(n.id) for n in tree.nodes] == [
                    want.parent(n.id) for n in want.nodes
                ]


class TestRoundTrip:
    def test_corpus_parses(self, synth_sources):
        assert all(is_syntactically_valid(s) for s in synth_sources)

    def test_sliced_spans_reparse_isomorphic(self, synth_sources):
        checked = 0
        for src in synth_sources[:15]:
            tree = parse(src)
            for node in tree.nodes:
                if node.kind not in REPARSE_KINDS:
                    continue
                if node.kind is NodeKind.EXPR_STMT and node.data in ("break", "continue"):
                    continue
                fragment = src[node.span[0] : node.span[1]]
                sub = parse(fragment)
                got = _structure(sub, sub.root)
                # Unwrap Module -> (ExprStmt ->) the fragment's node.
                inner = got[2][0]
                if inner[0] is NodeKind.EXPR_STMT and node.kind is not NodeKind.EXPR_STMT:
                    inner = inner[2][0]
                assert inner == _structure(tree, node.id)
                checked += 1
        assert checked > 200

    def test_render_reparses_isomorphic(self, synth_sources):
        for src in synth_sources[:15]:
            rendered = render_surfaces(token_surfaces(tokenize(src)))
            assert _structure(parse(rendered), parse(rendered).root) == _structure(
                parse(src), parse(src).root
            )


def _parse_outcome(src, *tokens, parse=parse):
    """Every node's fields, or the ParseError's offset and message."""
    try:
        tree = parse(src, *tokens)
    except ParseError as exc:
        return ("error", exc.offset, exc.message)
    nodes = [
        (n.id, n.kind, n.span, n.children, n.depth, n.data) for n in tree.nodes
    ]
    return ("tree", tree.root, nodes)


# Mostly grammar fragments, so that a fair share of the drawn texts parse.
PARSE_PIECES = st.sampled_from(
    ["def f(a, b):", "if ", "while ", "for v in xs:", "return ", "x", "= ", "1",
     " + ", " < ", "(", ")", ":", "\n", "    ", "\t", "pass", "h(2)", "'s'", "[0]", "@"]
)


class TestParseGivenTokens:
    @given(st.one_of(st.text(max_size=80), st.lists(PARSE_PIECES, max_size=30).map("".join)))
    @settings(max_examples=300, deadline=None)
    def test_same_tree_or_error_as_parse_alone(self, src):
        assert _parse_outcome(src, tokenize(src)) == _parse_outcome(src)


# Mostly whole statements, some fragments; a block header's next line is
# indented deeper, and any other line mostly returns to an open level and
# sometimes to a width no block opened, so blocks close by one or several
# dedents and misaligned dedents occur.
DEDENT_LINES = st.sampled_from(["def f(a):", "if x:", "elif x:", "else:", "while x < 1:",
                                "for v in xs:", "x = 1", "pass", "h(2)", ""])
DEDENT_FRAGMENTS = st.lists(PARSE_PIECES.filter(lambda p: p != "\n"), max_size=4).map("".join)


@st.composite
def indented_sources(draw):
    open_widths = [0]
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        if lines and lines[-1].endswith(":"):
            width = open_widths[-1] + draw(st.sampled_from([1, 2, 4]))
        elif draw(st.integers(0, 9)):
            width = draw(st.sampled_from(open_widths))
        else:
            width = draw(st.integers(0, 10))
        while width < open_widths[-1]:
            open_widths.pop()
        if width > open_widths[-1]:
            open_widths.append(width)
        pad = draw(st.sampled_from([" " * width, "\t" * (width // 4) + " " * (width % 4)]))
        body = DEDENT_LINES if draw(st.integers(0, 9)) else DEDENT_FRAGMENTS
        lines.append(pad + draw(body))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestModuleLevelDedent:
    """No Dedent token reaches parse_module's loop, which is why it has no
    branch for one. Only _block consumes Indent and Dedent tokens, one of
    each, so no Indent is open between module-level statements; the lexer
    emits a Dedent only to close an open Indent, right after a Newline."""

    @given(st.one_of(indented_sources(), st.text(alphabet=" \t\nif:x=1", max_size=60)))
    @settings(max_examples=300, deadline=None)
    def test_every_dedent_closes_an_open_indent_after_a_newline(self, src):
        open_indents = 0
        tokens = tokenize(src)
        for before, tok in zip([None, *tokens], tokens):
            if tok.kind is TokenKind.INDENT:
                open_indents += 1
            elif tok.kind is TokenKind.DEDENT:
                assert open_indents > 0
                assert before.kind in (TokenKind.NEWLINE, TokenKind.DEDENT)
                open_indents -= 1

    @given(indented_sources())
    @settings(max_examples=300, deadline=None)
    def test_no_statement_starts_at_a_dedent(self, src):
        # The module loop hands every token but an Indent to _statement, so
        # a module-level Dedent would start a statement here.
        real = parser_module._Parser._statement

        def checked(parser):
            assert parser.tokens[parser.pos].kind is not TokenKind.DEDENT
            return real(parser)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parser_module._Parser, "_statement", checked)
            try:
                parse(src)
            except ParseError:
                pass


# -- a pinned corpus over the whole grammar --------------------------------
#
# Expressions carry their precedence level (docs/grammar.md, loosest first):
# or 0, and 1, not 2, comparison 3, arith 4, term 5, power 6, postfix 7.
# An operand looser than its slot is parenthesized, so every drawn program
# is well formed; a few operands are parenthesized anyway.
BINARY_LEVELS = [
    (0, ["or"]),
    (1, ["and"]),
    (3, ["<", ">", "<=", ">=", "==", "!="]),
    (4, ["+", "-"]),
    (5, ["*", "/", "//", "%"]),
    (6, ["**"]),
]
ATOMS = ["a", "b", "xs", "find_max", "0", "42", "1.5", "'s'", '"t\\"q"',
         "True", "False", "None"]


def _operand(rnd, depth, level):
    text, own = _gen_expr(rnd, depth)
    if own < level or rnd.random() < 0.1:
        return f"({text})"
    return text


def _gen_expr(rnd, depth):
    """(text, precedence level) of a random well-formed expression."""
    if depth <= 0 or rnd.random() < 0.25:
        return rnd.choice(ATOMS), 7
    form = rnd.randrange(4)
    if form == 0:
        level, ops = rnd.choice(BINARY_LEVELS)
        parts = [_operand(rnd, depth - 1, level + (level == 6))]
        for _ in range(rnd.randint(1, 2)):
            parts += [rnd.choice(ops), _operand(rnd, depth - 1, level)]
        return " ".join(parts), level
    if form == 1:
        return "not " + _operand(rnd, depth - 1, 2), 2
    target = _operand(rnd, depth - 1, 7)
    if form == 2:
        args = [_operand(rnd, depth - 1, 0) for _ in range(rnd.randint(0, 3))]
        return f"{target}({', '.join(args)})", 7
    return f"{target}[{_operand(rnd, depth - 1, 0)}]", 7


def _gen_block(rnd, depth, indent, in_func, in_loop):
    return [
        line
        for _ in range(rnd.randint(1, 3))
        for line in _gen_stmt(rnd, depth, indent, in_func, in_loop)
    ]


def _gen_stmt(rnd, depth, indent, in_func, in_loop):
    """The lines of one random well-formed statement at ``indent``."""
    pad = " " * indent
    expr = lambda: _gen_expr(rnd, rnd.randint(1, 3))[0]  # noqa: E731
    simple = ["assign", "subscript-assign", "expr", "pass"]
    simple += ["return", "bare-return"] if in_func else []
    simple += ["break", "continue"] if in_loop else []
    compound = ["def", "if", "while", "for"] if depth > 0 else []
    form = rnd.choice(simple + compound * 2)
    step = indent + rnd.choice([2, 4])
    if form == "def":
        params = ", ".join(rnd.sample(["a", "b", "xs", "n"], rnd.randint(0, 3)))
        body = _gen_block(rnd, depth - 1, step, True, False)
        return [f"{pad}def f({params}):", *body]
    if form == "if":
        lines = [f"{pad}if {expr()}:", *_gen_block(rnd, depth - 1, step, in_func, in_loop)]
        for _ in range(rnd.randint(0, 2)):
            lines += [f"{pad}elif {expr()}:", *_gen_block(rnd, depth - 1, step, in_func, in_loop)]
        if rnd.random() < 0.5:
            lines += [f"{pad}else:", *_gen_block(rnd, depth - 1, step, in_func, in_loop)]
        return lines
    if form in ("while", "for"):
        head = f"while {expr()}" if form == "while" else f"for v in {expr()}"
        return [f"{pad}{head}:", *_gen_block(rnd, depth - 1, step, in_func, True)]
    return [pad + {
        "assign": lambda: f"acc = {expr()}",
        "subscript-assign": lambda: f"xs[{expr()}] = {expr()}",
        "expr": expr,
        "return": lambda: f"return {expr()}",
        "bare-return": lambda: "return",
        "pass": lambda: "pass",
        "break": lambda: "break",
        "continue": lambda: "continue",
    }[form]()]


def _gen_program(rnd):
    lines = _gen_block(rnd, 2, 0, False, False)
    if rnd.random() < 0.3:
        lines.insert(rnd.randrange(len(lines) + 1), "")
    return "\n".join(lines) + rnd.choice(["\n", ""])


FRAGMENT_PIECES = [
    "def f(", "def ", "(a, b)", "):", "if ", "elif ", "else", "while ", "for v in ",
    "return", "pass", "break", "continue", "import", "x", "xs[", "]", "= ", "1", "'s'",
    " or ", " and ", "not ", " < ", " >= ", " != ", " + ", " - ", " * ", " // ", " % ",
    " ** ", "(", ")", ",", ":", "\n", "    ", "\t", "h(2)", "[0]", "@", "True",
]


def _mutate(rnd, source):
    """``source`` with a short span deleted, duplicated or replaced by a piece."""
    i = rnd.randrange(len(source) + 1)
    j = min(len(source), i + rnd.randint(1, 6))
    return rnd.choice([
        source[:i] + source[j:],
        source[:j] + source[i:],
        source[:i] + rnd.choice(FRAGMENT_PIECES) + source[j:],
    ])


def parser_pin_corpus(seed=20261018):
    """Well-formed programs over every production, then malformed inputs:
    mutated programs and joins of random grammar fragments."""
    rnd = random.Random(seed)
    programs = [_gen_program(rnd) for _ in range(400)]
    malformed = [_mutate(rnd, rnd.choice(programs)) for _ in range(1500)]
    malformed += [
        "".join(rnd.choices(FRAGMENT_PIECES, k=rnd.randint(1, 25))) for _ in range(1500)
    ]
    return programs, malformed


def _json_outcome(src):
    outcome = _parse_outcome(src)
    if outcome[0] == "tree":
        _, root, nodes = outcome
        return ["tree", root, [[i, k.value, s, c, d, x] for i, k, s, c, d, x in nodes]]
    return list(outcome)


@pytest.fixture(scope="module")
def pin_outcomes():
    """The JSON form of each outcome: the programs', then the malformed inputs'."""
    programs, malformed = parser_pin_corpus()
    return [_json_outcome(src) for src in programs], [_json_outcome(src) for src in malformed]


class TestParserPin:
    """Every tree (ids, kinds, spans, children, depths, data) and every
    ParseError (offset, message) of a seeded corpus, pinned by SHA-256."""

    DIGEST = "d617399f1b35fb4526ceda3d5eac273b47112c332974a1160f39d8654f5da174"

    def test_corpus_reaches_the_whole_grammar(self, pin_outcomes):
        programs, malformed = pin_outcomes
        assert all(outcome[0] == "tree" for outcome in programs)
        nodes = [node for _, _, tree in programs for node in tree]
        assert {kind for _, kind, *_ in nodes} == {k.value for k in NodeKind}
        data = {(kind, x) for _, kind, _, _, _, x in nodes}
        assert {x for kind, x in data if kind in ("BinOp", "Compare")} == {
            op for _, ops in BINARY_LEVELS for op in ops
        } | {"not"}
        assert {x for kind, x in data if kind == "ExprStmt"} >= {"pass", "break", "continue"}
        errors = [message for kind, _, message in malformed if kind == "error"]
        assert len(errors) > len(malformed) // 2
        assert {
            "unexpected indent", "'return' outside a function", "'break' outside a loop",
            "'continue' outside a loop", "cannot assign to this expression",
        } <= set(errors)
        assert {
            "expected a function name", "expected a parameter name or ')'",
            "expected a loop variable", "expected an expression", "expected end of line",
            "expected an indented block", "expected ':'", "expected ')'", "expected ']'",
            "expected 'in'", "expected '('",
        } <= {m.split(", found")[0] for m in errors}

    def test_trees_and_errors_are_pinned(self, pin_outcomes):
        digest = hashlib.sha256()
        for outcome in pin_outcomes[0] + pin_outcomes[1]:
            digest.update(json.dumps(outcome).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


# Expressions as operands joined by operators. An operand may open with
# ``not``s, a paren, a call or a subscript; an operator may be a closing
# bracket, a comma or a byte no expression holds, so brackets go unbalanced.
SOUP_PREFIXES = ["", "", "", "not ", "not not ", "(", "f(", "a[", "not ("]
SOUP_OPERANDS = ["a", "b1", "0", "2.5", "'s'", "True", "None"]
SOUP_OPERATORS = [
    " or ", " and ", " < ", " > ", " <= ", " >= ", " == ", " != ", " + ", " - ",
    " * ", " / ", " // ", " % ", " ** ", ")", "]", ", ", " not ", " = ", ":", "@", "\n",
]
SOUP_TERMS = st.tuples(st.sampled_from(SOUP_PREFIXES), st.sampled_from(SOUP_OPERANDS)).map("".join)
EXPRESSION_SOUPS = st.tuples(
    SOUP_TERMS,
    st.lists(st.tuples(st.sampled_from(SOUP_OPERATORS), SOUP_TERMS).map("".join), max_size=12),
    st.sampled_from(["", ")", "))", "]", "\n"]),
).map(lambda parts: "x = " + parts[0] + "".join(parts[1]) + parts[2])


def _mutated_expression(seed, mutations):
    rnd = random.Random(seed)
    text = "x = " + _gen_expr(rnd, rnd.randint(1, 4))[0]
    for _ in range(mutations):
        text = _mutate(rnd, text)
    return text


class TestLeveledOracle:
    """The precedence-climbing parser against one method per precedence level."""

    @given(st.one_of(
        EXPRESSION_SOUPS,
        st.builds(_mutated_expression, st.integers(0, 2**32), st.integers(0, 3)),
    ))
    @settings(max_examples=600, deadline=None)
    def test_same_tree_or_error(self, src):
        assert _parse_outcome(src) == _parse_outcome(src, parse=leveled_parse)


class TestPretty:
    def test_equals_the_recursive_rendering_on_the_pin_corpus(self):
        programs, _ = parser_pin_corpus()
        for src in programs:
            tree = parse(src)
            assert tree.pretty() == recursive_pretty(tree)

    def test_renders_a_chain_deeper_than_the_recursion_limit(self):
        tree = parse("x = " + "1 + " * 1000 + "1\n")
        lines = tree.pretty().splitlines()
        assert len(lines) == len(tree.nodes)
        # The innermost operand sits below all 1,000 operators.
        assert max(len(ln) - len(ln.lstrip(" ")) for ln in lines) > 2 * 1000


class TestNestingLimit:
    """Nesting past MAX_NESTING levels is a ParseError at the opening token of
    the first level past it, whatever the caller's stack depth; nothing the
    parser reads raises RecursionError."""

    @pytest.mark.parametrize("shape", NESTED)
    def test_deep_nesting_is_one_parse_error_at_any_stack_depth(self, shape):
        opener, make = NESTED[shape]
        src = make(1000)
        offset = [i for i, c in enumerate(src) if c == opener][parser_module.MAX_NESTING]
        for extra in (0, 200, 400):
            with pytest.raises(ParseError) as err:
                _with_frames_below(extra, lambda: parse(src))
            assert (err.value.offset, err.value.message) == (
                offset, f"nesting deeper than {parser_module.MAX_NESTING} levels"
            )
            assert _with_frames_below(extra, lambda: is_syntactically_valid(src)) is False

    @pytest.mark.parametrize("shape", NESTED)
    def test_the_limit_parses_within_half_the_default_recursion_limit(self, shape):
        src = NESTED[shape][1](parser_module.MAX_NESTING)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 500)
        try:
            parse(src)
        finally:
            sys.setrecursionlimit(limit)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(NESTED[shape][1](parser_module.MAX_NESTING + 1))

    @pytest.mark.parametrize("shape", NESTED)
    def test_the_limit_parses_within_200_frames(self, shape):
        src = NESTED[shape][1](parser_module.MAX_NESTING)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 200)
        try:
            parse(src)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize(
        "src, kind, data, nodes",
        [
            ("x = " + "not " * 3000 + "y\n", NodeKind.BINOP, "not", 3000),
            ("x = " + "2 ** " * 3000 + "2\n", NodeKind.BINOP, "**", 3000),
            ("if a:\n    x = 1\n" + "elif a:\n    x = 1\n" * 3000, NodeKind.IF, None, 3001),
        ],
        ids=["not", "power", "elif"],
    )
    def test_long_chains_are_loops_not_levels(self, src, kind, data, nodes):
        # Each node of the chain is the child of the one before.
        chain = [n for n in parse(src).nodes if n.kind is kind and n.data == data]
        assert len(chain) == nodes
        assert sorted(n.depth for n in chain) == list(range(chain[-1].depth, chain[-1].depth + nodes))
