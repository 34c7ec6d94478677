from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff.hierarchy import (
    InsufficientDepth,
    ancestor_chain,
    assign_nodes,
    chain_lengths,
    max_chain_length,
    positions_by_node,
    precedes,
)
from anchordiff import AnchorConfig, AnchorStrategy, annotate_program, synth_corpus
from anchordiff.minilang import (
    AstNode,
    NodeKind,
    ParseError,
    SyntaxTree,
    Token,
    TokenKind,
    parse,
    split_identifiers,
    tokenize,
)

from .oracles import naive_node_assignment

NESTED_SRC = (
    "def search(xs, t):\n"
    "    lo = 0\n"
    "    while lo < t:\n"
    "        if xs < t:\n"
    "            mid = lo\n"
    "            return mid\n"
    "    return lo\n"
)


PROBE_CONFIG = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)


def annotate(src):
    tokens = tokenize(src)
    tree = parse(src)
    return tree, tokens, assign_nodes(tree, tokens)


class TestAssignNodes:
    def test_matches_naive_oracle_on_corpus(self, synth_sources):
        for src in synth_sources:
            tree, tokens, anns = annotate(src)
            oracle = naive_node_assignment(tree, tokens)
            assert [a.node_id for a in anns] == oracle

    def test_depths_match_tree(self, synth_sources):
        for src in synth_sources[:10]:
            tree, _, anns = annotate(src)
            for a in anns:
                assert a.depth == tree.node(a.node_id).depth

    def test_expression_example(self):
        tree, tokens, anns = annotate("x = (a + 2) * b")
        by_text = {t.text: anns[t.index] for t in tokens}
        a_node = tree.node(by_text["a"].node_id)
        plus_node = tree.node(by_text["+"].node_id)
        assert a_node.kind is NodeKind.NAME
        assert by_text["a"].depth == plus_node.depth + 1
        eq_node = tree.node(by_text["="].node_id)
        assert eq_node.kind is NodeKind.ASSIGN
        paren = tree.node(by_text["("].node_id)
        assert paren.kind is NodeKind.BINOP and paren.span == (4, 15)

    def test_every_token_intersects_no_deeper_node(self, synth_sources):
        # The invariant behind node(l): nothing strictly deeper intersects.
        for src in synth_sources[:8]:
            tree, tokens, anns = annotate(src)
            for tok, ann in zip(tokens, anns):
                ts, te = tok.span
                for node in tree.nodes.values():
                    if node.depth <= ann.depth:
                        continue
                    ns, ne = node.span
                    hit = ns <= ts < ne if ts == te else max(ns, ts) < min(ne, te)
                    assert not hit


class TestTieBreaks:
    """Direct coverage of the tie-break rules on a synthetic tree."""

    def _tree(self):
        nodes = [
            AstNode(0, NodeKind.MODULE, (0, 20), [1, 2], 0),
            AstNode(1, NodeKind.IF, (0, 10), [3], 1),
            AstNode(2, NodeKind.WHILE, (10, 20), [4], 1),
            AstNode(3, NodeKind.NAME, (2, 6), [], 2),
            AstNode(4, NodeKind.NAME, (12, 16), [], 2),
        ]
        return SyntaxTree("x" * 20, nodes, 0)

    def _node_of(self, span):
        tree = self._tree()
        (ann,) = assign_nodes(tree, [Token(0, TokenKind.IDENTIFIER, "t", span)])
        assert ann.depth == tree.node(ann.node_id).depth
        return ann.node_id

    def test_deepest_wins_over_start_ownership(self):
        # Start byte sits in the depth-1 node, but a deeper node intersects.
        assert self._node_of((8, 13)) == 4

    def test_equal_depth_prefers_start_owner(self):
        assert self._node_of((5, 13)) == 3

    def test_equal_depth_without_owner_takes_leftmost(self):
        assert self._node_of((1, 20)) == 3

    def test_zero_width_token_is_a_point(self):
        assert self._node_of((10, 10)) == 2

    def test_fallback_to_root_outside_all_spans(self):
        assert self._node_of((25, 25)) == 0

    def test_overlapping_tokens_out_of_end_order(self):
        # (7, 14) reaches node 4 although the tokens after it in start
        # order, (8, 9) and (12, 13), end earlier than it does.
        tree = self._tree()
        spans = [(12, 13), (8, 9), (7, 14)]
        tokens = [
            Token(i, TokenKind.IDENTIFIER, "t", span) for i, span in enumerate(spans)
        ]
        got = [a.node_id for a in assign_nodes(tree, tokens)]
        assert got == [4, 1, 4] == naive_node_assignment(tree, tokens)

    def test_equal_depth_and_start_takes_lower_id(self):
        # Overlapping siblings (not a parsed shape): the id breaks the tie.
        nodes = [
            AstNode(0, NodeKind.MODULE, (0, 20), [7, 5], 0),
            AstNode(7, NodeKind.NAME, (4, 12), [], 1),
            AstNode(5, NodeKind.NAME, (4, 9), [], 1),
        ]
        tree = SyntaxTree("x" * 20, nodes, 0)
        tokens = [Token(0, TokenKind.IDENTIFIER, "t", (6, 7))]
        assert [a.node_id for a in assign_nodes(tree, tokens)] == [5]
        assert naive_node_assignment(tree, tokens) == [5]

    def test_oracle_agrees_on_synthetic_cases(self):
        tree = self._tree()
        spans = [(8, 13), (5, 13), (1, 20), (10, 10), (25, 25), (6, 10)]
        tokens = [
            Token(i, TokenKind.IDENTIFIER, "t", span) for i, span in enumerate(spans)
        ]
        got = [a.node_id for a in assign_nodes(tree, tokens)]
        assert got == [4, 3, 3, 2, 0, 1]
        assert got == naive_node_assignment(tree, tokens)


# Sources the synth generator never writes: blank lines, Dedents closing
# two blocks at once, input ending inside a block without a newline, a
# Module-level Newline, tabs, brackets and nested parens. A final Newline
# lies outside every node span and falls back to the root.
HAND_WRITTEN = [
    NESTED_SRC,
    "def f(a):\n\n    if a:\n\n        return (a + 1) * 2\n\n\n    return a\n",
    "while x:\n    if y:\n        z = 1",
    "x = 1\n\n\ny = a[b][0]\n",
    "def g():\n\tif h(1, 'q'):\n\t\tpass\n\treturn not h(2) or 3 >= 4\n",
]
# Inconsistent dedents: the lexer emits a Dedent, then an Indent that
# starts earlier, so the token list is out of span order. No such source
# parses, so their tokens are checked against the trees of other sources.
INCONSISTENT_DEDENT = [
    "if a:\n        x = 1\n    y = 2\n",
    "def f(a):\n    if a:\n            x = 1\n        y = 2\n    return a\n",
]


def _check_against_oracle(tree, tokens):
    anns = assign_nodes(tree, tokens)
    assert [a.node_id for a in anns] == naive_node_assignment(tree, tokens)
    assert [a.position for a in anns] == [t.index for t in tokens]
    assert all(a.depth == tree.node(a.node_id).depth for a in anns)
    index = positions_by_node(anns)
    chains = chain_lengths(tree, anns)
    assert chains.dtype == np.int64
    assert chains.tolist() == [max_chain_length(l, anns, tree, index) for l in range(len(anns))]


@st.composite
def well_formed_trees(draw):
    """A random tree whose children nest in their parent and whose
    siblings are disjoint; spans may be empty and ids are shuffled."""
    spans: list[tuple[int, int]] = []
    children: list[list[int]] = []
    depths: list[int] = []

    def build(span, depth):
        index = len(spans)
        spans.append(span)
        children.append([])
        depths.append(depth)
        lo, hi = span
        if depth < 5 and len(spans) < 40:
            n = draw(st.integers(0, 3))
            cuts = sorted(draw(st.lists(st.integers(lo, hi), min_size=2 * n, max_size=2 * n)))
            for a, b in zip(cuts[::2], cuts[1::2]):
                children[index].append(build((a, b), depth + 1))
        return index

    start = draw(st.integers(0, 6))
    build((start, draw(st.integers(start, 40))), 0)
    ids = draw(st.permutations(range(len(spans))))
    nodes = [
        AstNode(ids[i], NodeKind.NAME, spans[i], [ids[c] for c in children[i]], depths[i])
        for i in range(len(spans))
    ]
    return SyntaxTree("x" * 48, nodes, ids[0])


class TestOneWalkAgainstOracle:
    """assign_nodes against the per-token brute force of tests/oracles.py,
    and chain_lengths against max_chain_length's per-position climb."""

    @given(
        seed=st.integers(0, 100_000),
        max_depth=st.integers(3, 8),
        split=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_parsed_synth_programs(self, seed, max_depth, split):
        (src,) = synth_corpus(seed=seed, n_programs=1, max_depth=max_depth)
        tokens = tokenize(src)
        tree = parse(src, tokens)
        if split is not None:
            tokens = split_identifiers(tokens, split)
        _check_against_oracle(tree, tokens)

    @pytest.mark.parametrize("src", HAND_WRITTEN)
    @pytest.mark.parametrize("split", [None, 1, 2])
    def test_hand_written_sources(self, src, split):
        tokens = tokenize(src)
        tree = parse(src, tokens)
        if split is not None:
            tokens = split_identifiers(tokens, split)
        _check_against_oracle(tree, tokens)

    @pytest.mark.parametrize("bad", INCONSISTENT_DEDENT)
    def test_inconsistent_dedent_tokens(self, bad, synth_sources):
        tokens = tokenize(bad)
        dedent = next(i for i, t in enumerate(tokens) if t.kind is TokenKind.DEDENT)
        assert tokens[dedent + 1].kind is TokenKind.INDENT
        assert tokens[dedent + 1].start < tokens[dedent].start
        with pytest.raises(ParseError):
            parse(bad)
        for src in HAND_WRITTEN + synth_sources[:5]:
            _check_against_oracle(parse(src), tokens)

    @given(
        tree=well_formed_trees(),
        spans=st.lists(
            st.tuples(st.integers(-3, 48), st.integers(-2, 10)), max_size=30
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_trees_and_spans(self, tree, spans):
        # Unordered, overlapping, zero-width, reversed and out-of-root spans.
        tokens = [
            Token(i, TokenKind.IDENTIFIER, "t", (s, s + w)) for i, (s, w) in enumerate(spans)
        ]
        _check_against_oracle(tree, tokens)


class TestPrecedes:
    def test_def_precedes_return(self):
        tree, tokens, anns = annotate(NESTED_SRC)
        pos = {t.text: t.index for t in tokens}
        assert precedes(pos["def"], pos["return"], anns, tree)
        assert not precedes(pos["return"], pos["def"], anns, tree)

    def test_split_identifier_chunks_ordered(self):
        src = "quicksort = 1"
        tokens = split_identifiers(tokenize(src), 5)
        tree = parse(src)
        anns = assign_nodes(tree, tokens)
        assert anns[0].node_id == anns[1].node_id
        assert precedes(0, 1, anns, tree)
        assert not precedes(1, 0, anns, tree)

    def test_disjoint_siblings_incomparable(self):
        src = "a = 1\nb = 2\n"
        tree, tokens, anns = annotate(src)
        pos = {t.text: t.index for t in tokens}
        assert not precedes(pos["a"], pos["b"], anns, tree)
        assert not precedes(pos["b"], pos["a"], anns, tree)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_strict_partial_order(self, seed):
        from anchordiff import AnchorConfig, AnchorStrategy, annotate_program, synth_corpus

        src = synth_corpus(seed=seed, n_programs=1, max_depth=6)[0]
        tree, tokens, anns = annotate(src)
        n = len(tokens)
        import random

        rnd = random.Random(seed)
        picks = [tuple(rnd.randrange(n) for _ in range(3)) for _ in range(60)]
        for a, b, c in picks:
            assert not precedes(a, a, anns, tree)  # irreflexive
            if precedes(a, b, anns, tree):
                assert not precedes(b, a, anns, tree)  # antisymmetric
                if precedes(b, c, anns, tree):
                    assert precedes(a, c, anns, tree)  # transitive


class TestAncestorChain:
    def test_keyword_stepping_chain(self):
        tree, tokens, anns = annotate(NESTED_SRC)
        mid = next(t.index for t in tokens if t.text == "mid" and
                   tokens[t.index - 1].text == "return")
        chain = ancestor_chain(mid, 4, anns, tree)
        texts = [tokens[p].text for p in chain.positions]
        assert texts == ["mid", "return", "if", "while", "def"]

    def test_chain_is_identity_at_k0(self):
        tree, tokens, anns = annotate(NESTED_SRC)
        chain = ancestor_chain(3, 0, anns, tree)
        assert chain.positions == (3,)

    def test_chain_pairs_satisfy_partial_order(self, synth_sources):
        for src in synth_sources[:10]:
            tree, tokens, anns = annotate(src)
            index = positions_by_node(anns)
            for l0 in range(len(tokens)):
                k = min(max_chain_length(l0, anns, tree, index), 3)
                chain = ancestor_chain(l0, k, anns, tree, node_index=index)
                for lo, hi in zip(chain.positions, chain.positions[1:]):
                    assert precedes(hi, lo, anns, tree)

    def test_chain_contiguity_no_interposing_token_node(self, synth_sources):
        # Between consecutive chain nodes there is no token-bearing node.
        for src in synth_sources[:10]:
            tree, tokens, anns = annotate(src)
            index = positions_by_node(anns)
            for l0 in range(0, len(tokens), 5):
                k = min(max_chain_length(l0, anns, tree, index), 3)
                chain = ancestor_chain(l0, k, anns, tree, node_index=index)
                for lo, hi in zip(chain.positions, chain.positions[1:]):
                    node = tree.parent(anns[lo].node_id)
                    while node != anns[hi].node_id:
                        assert not index.get(node), "token-bearing node skipped"
                        node = tree.parent(node)

    @given(
        seed=st.integers(0, 100_000),
        max_depth=st.integers(3, 8),
        split=st.sampled_from([None, 1, 2, 3]),
        k=st.integers(0, 6),
        rule=st.sampled_from(["keyword_first", "first_token"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_chain_length_decides_the_chain(self, seed, max_depth, split, k, rule):
        # A position with chain length >= k always gets a chain of k + 1
        # positions, and one below k always raises InsufficientDepth.
        (src,) = synth_corpus(seed=seed, n_programs=1, max_depth=max_depth)
        rec = annotate_program(src, PROBE_CONFIG, split_max_len=split)
        index = positions_by_node(rec.annotations)
        for l0, length in enumerate(rec.chain.tolist()):
            if length >= k:
                chain = ancestor_chain(l0, k, rec.annotations, rec.tree, rule, index)
                assert len(chain) == k + 1
            else:
                with pytest.raises(InsufficientDepth):
                    ancestor_chain(l0, k, rec.annotations, rec.tree, rule, index)

    def test_insufficient_depth(self):
        tree, tokens, anns = annotate("x = 1")
        with pytest.raises(InsufficientDepth) as err:
            ancestor_chain(0, 5, anns, tree)
        assert err.value.requested == 5

    def test_module_child_boundary(self):
        # Token of a module-level statement: chain of length 1 requires a
        # Module-assigned token, which exists only with top-level newlines.
        src = "x = 1"
        tree, tokens, anns = annotate(src)
        with pytest.raises(InsufficientDepth):
            ancestor_chain(0, 2, anns, tree)
        src2 = "x = 1\ny = 2\n"
        tree2, tokens2, anns2 = annotate(src2)
        chain = ancestor_chain(0, 2, anns2, tree2)
        assert anns2[chain.positions[-1]].node_id == tree2.root

    def test_first_token_rule(self):
        tree, tokens, anns = annotate(NESTED_SRC)
        mid = next(t.index for t in tokens if t.text == "mid" and
                   tokens[t.index - 1].text == "return")
        chain = ancestor_chain(mid, 2, anns, tree, rule="first_token")
        # Return owns only its keyword either way; the If node's first
        # assigned token is still "if".
        assert tokens[chain.positions[1]].text == "return"
