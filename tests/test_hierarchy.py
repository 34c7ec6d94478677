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

from .oracles import naive_node_assignment, tree_ancestor_chain, tree_max_chain_length

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
            tree, tokens, node_id = annotate(src)
            oracle = naive_node_assignment(tree, tokens)
            assert node_id.tolist() == oracle

    def test_depths_match_tree(self, synth_sources):
        for src in synth_sources[:10]:
            rec = annotate_program(src, PROBE_CONFIG)
            tree = parse(rec.source)
            assert rec.parents == tree.parents
            assert rec.depth.dtype == np.int64
            for node, depth in zip(rec.node_id.tolist(), rec.depth.tolist()):
                assert depth == tree.node(node).depth

    def test_expression_example(self):
        tree, tokens, node_id = annotate("x = (a + 2) * b")
        by_text = {t.text: tree.node(node_id[i]) for i, t in enumerate(tokens)}
        a_node = by_text["a"]
        plus_node = by_text["+"]
        assert a_node.kind is NodeKind.NAME
        assert a_node.depth == plus_node.depth + 1
        eq_node = by_text["="]
        assert eq_node.kind is NodeKind.ASSIGN
        paren = by_text["("]
        assert paren.kind is NodeKind.BINOP and paren.span == (4, 15)

    def test_every_token_intersects_no_deeper_node(self, synth_sources):
        # The invariant behind node(l): nothing strictly deeper intersects.
        for src in synth_sources[:8]:
            tree, tokens, node_id = annotate(src)
            for tok, home in zip(tokens, node_id.tolist()):
                ts, te = tok.span
                for node in tree.nodes:
                    if node.depth <= tree.node(home).depth:
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
        node_id = assign_nodes(tree, [Token(TokenKind.IDENTIFIER, "t", span)])
        assert node_id.dtype == np.int64
        (node,) = node_id.tolist()
        return node

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
        tokens = [Token(TokenKind.IDENTIFIER, "t", span) for span in spans]
        got = assign_nodes(tree, tokens).tolist()
        assert got == [4, 1, 4] == naive_node_assignment(tree, tokens)

    def test_equal_depth_and_start_takes_lower_id(self):
        # Overlapping siblings (not a parsed shape): the id breaks the tie.
        nodes = [
            AstNode(0, NodeKind.MODULE, (0, 20), [2, 1], 0),
            AstNode(2, NodeKind.NAME, (4, 12), [], 1),
            AstNode(1, NodeKind.NAME, (4, 9), [], 1),
        ]
        tree = SyntaxTree("x" * 20, nodes, 0)
        tokens = [Token(TokenKind.IDENTIFIER, "t", (6, 7))]
        assert assign_nodes(tree, tokens).tolist() == [1]
        assert naive_node_assignment(tree, tokens) == [1]

    def test_oracle_agrees_on_synthetic_cases(self):
        tree = self._tree()
        spans = [(8, 13), (5, 13), (1, 20), (10, 10), (25, 25), (6, 10)]
        tokens = [Token(TokenKind.IDENTIFIER, "t", span) for span in spans]
        got = assign_nodes(tree, tokens).tolist()
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
    node_id = assign_nodes(tree, tokens)
    assert node_id.dtype == np.int64
    assert node_id.tolist() == naive_node_assignment(tree, tokens)
    chains = chain_lengths(tree, node_id)
    assert chains.dtype == np.int64
    assert chains.tolist() == [
        max_chain_length(l, node_id, tree.parents) for l in range(len(node_id))
    ]


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
        tokens = [Token(TokenKind.IDENTIFIER, "t", (s, s + w)) for s, w in spans]
        _check_against_oracle(tree, tokens)


class TestPrecedes:
    def test_def_precedes_return(self):
        tree, tokens, node_id = annotate(NESTED_SRC)
        pos = {t.text: i for i, t in enumerate(tokens)}
        assert precedes(pos["def"], pos["return"], node_id, tree)
        assert not precedes(pos["return"], pos["def"], node_id, tree)

    def test_split_identifier_chunks_ordered(self):
        src = "quicksort = 1"
        tokens = split_identifiers(tokenize(src), 5)
        tree = parse(src)
        node_id = assign_nodes(tree, tokens)
        assert node_id[0] == node_id[1]
        assert precedes(0, 1, node_id, tree)
        assert not precedes(1, 0, node_id, tree)

    def test_disjoint_siblings_incomparable(self):
        src = "a = 1\nb = 2\n"
        tree, tokens, node_id = annotate(src)
        pos = {t.text: i for i, t in enumerate(tokens)}
        assert not precedes(pos["a"], pos["b"], node_id, tree)
        assert not precedes(pos["b"], pos["a"], node_id, tree)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_strict_partial_order(self, seed):
        from anchordiff import AnchorConfig, AnchorStrategy, annotate_program, synth_corpus

        src = synth_corpus(seed=seed, n_programs=1, max_depth=6)[0]
        tree, tokens, node_id = annotate(src)
        n = len(tokens)
        import random

        rnd = random.Random(seed)
        picks = [tuple(rnd.randrange(n) for _ in range(3)) for _ in range(60)]
        for a, b, c in picks:
            assert not precedes(a, a, node_id, tree)  # irreflexive
            if precedes(a, b, node_id, tree):
                assert not precedes(b, a, node_id, tree)  # antisymmetric
                if precedes(b, c, node_id, tree):
                    assert precedes(a, c, node_id, tree)  # transitive


SHAPES_SRC = (
    "def f(xs, n):\n"
    "    for x in xs:\n"
    "        if x < n:\n"
    "            break\n"
    "        elif x == n:\n"
    "            n = 0\n"
    "        elif x > n:\n"
    "            pass\n"
    "        else:\n"
    "            n = n + 1\n"
    "    while n > 0:\n"
    "        n = n - 1\n"
    "    return n\n"
)


def _assert_climbs_equal_tree_climbs(rec, tree):
    """A record's climbs, which read its parents tuple, against the oracles,
    which climb the tree through its children lists: every position, every
    k up to one past its chain length, and both rules."""
    for l0 in range(len(rec)):
        length = max_chain_length(l0, rec.node_id, rec.parents)
        assert length == tree_max_chain_length(l0, rec.node_id, tree)
        for k in range(length + 2):
            for rule in ("keyword_first", "first_token"):
                want = tree_ancestor_chain(l0, k, rec.node_id, rec.tokens, tree, rule)
                args = (l0, k, rec.node_id, rec.tokens, rec.parents, rule)
                if want is None:
                    assert k == length + 1
                    with pytest.raises(InsufficientDepth):
                        ancestor_chain(*args)
                else:
                    assert ancestor_chain(*args) == want


class TestAncestorChain:
    def test_keyword_stepping_chain(self):
        tree, tokens, node_id = annotate(NESTED_SRC)
        mid = next(i for i, t in enumerate(tokens) if t.text == "mid" and
                   tokens[i - 1].text == "return")
        chain = ancestor_chain(mid, 4, node_id, tokens, tree.parents)
        texts = [tokens[p].text for p in chain]
        assert texts == ["mid", "return", "if", "while", "def"]

    def test_chain_is_identity_at_k0(self):
        tree, tokens, node_id = annotate(NESTED_SRC)
        chain = ancestor_chain(3, 0, node_id, tokens, tree.parents)
        assert chain == (3,)

    def test_chain_pairs_satisfy_partial_order(self, synth_sources):
        for src in synth_sources[:10]:
            tree, tokens, node_id = annotate(src)
            for l0 in range(len(tokens)):
                k = min(max_chain_length(l0, node_id, tree.parents), 3)
                chain = ancestor_chain(l0, k, node_id, tokens, tree.parents)
                for lo, hi in zip(chain, chain[1:]):
                    assert precedes(hi, lo, node_id, tree)

    def test_chain_contiguity_no_interposing_token_node(self, synth_sources):
        # Between consecutive chain nodes there is no token-bearing node.
        for src in synth_sources[:10]:
            tree, tokens, node_id = annotate(src)
            homes = node_id.tolist()
            bearing = set(homes)
            for l0 in range(0, len(tokens), 5):
                k = min(max_chain_length(l0, node_id, tree.parents), 3)
                chain = ancestor_chain(l0, k, node_id, tokens, tree.parents)
                for lo, hi in zip(chain, chain[1:]):
                    node = tree.parent(homes[lo])
                    while node != homes[hi]:
                        assert node not in bearing, "token-bearing node skipped"
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
        for l0, length in enumerate(rec.chain.tolist()):
            if length >= k:
                chain = ancestor_chain(l0, k, rec.node_id, rec.tokens, rec.parents, rule)
                assert len(chain) == k + 1
            else:
                with pytest.raises(InsufficientDepth):
                    ancestor_chain(l0, k, rec.node_id, rec.tokens, rec.parents, rule)

    @given(
        seed=st.integers(0, 100_000),
        max_depth=st.integers(3, 8),
        split=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_parent_map_climbs_equal_tree_climbs(self, seed, max_depth, split):
        # The oracles climb the tree parsed again from the source.
        (src,) = synth_corpus(seed=seed, n_programs=1, max_depth=max_depth)
        rec = annotate_program(src, PROBE_CONFIG, split_max_len=split)
        _assert_climbs_equal_tree_climbs(rec, parse(src))

    def test_grammar_shapes_synth_never_makes(self):
        # Synth programs have no elif, else, pass or break, so the
        # hypothesis test above never climbs through them.
        rec = annotate_program(SHAPES_SRC, PROBE_CONFIG)
        _assert_climbs_equal_tree_climbs(rec, parse(SHAPES_SRC))

    def test_elif_chain_from_pass(self):
        # Each elif is an If node under the one before it. keyword_first
        # designates its elif keyword; first_token its first position, the
        # zero-width Dedent that closes the block before it.
        rec = annotate_program(SHAPES_SRC, PROBE_CONFIG)
        l0 = next(i for i, t in enumerate(rec.tokens) if t.text == "pass")
        by_keyword = ancestor_chain(l0, 2, rec.node_id, rec.tokens, rec.parents)
        assert [rec.tokens[p].text for p in by_keyword] == ["pass", "elif", "elif"]
        by_first = ancestor_chain(l0, 2, rec.node_id, rec.tokens, rec.parents, "first_token")
        dedents = [rec.tokens[p] for p in by_first[1:]]
        assert [t.kind for t in dedents] == [TokenKind.DEDENT, TokenKind.DEDENT]
        assert all(t.span[0] == t.span[1] for t in dedents)
        assert [t.span[0] for t in dedents] == [
            rec.tokens[p].span[0] for p in by_keyword[1:]
        ]

    def test_insufficient_depth(self):
        tree, tokens, node_id = annotate("x = 1")
        with pytest.raises(InsufficientDepth) as err:
            ancestor_chain(0, 5, node_id, tokens, tree.parents)
        assert err.value.requested == 5

    def test_module_child_boundary(self):
        # Token of a module-level statement: chain of length 1 requires a
        # Module-assigned token, which exists only with top-level newlines.
        src = "x = 1"
        tree, tokens, node_id = annotate(src)
        with pytest.raises(InsufficientDepth):
            ancestor_chain(0, 2, node_id, tokens, tree.parents)
        src2 = "x = 1\ny = 2\n"
        tree2, tokens2, node_id2 = annotate(src2)
        chain = ancestor_chain(0, 2, node_id2, tokens2, tree2.parents)
        assert node_id2[chain[-1]] == tree2.root

    def test_first_token_rule(self):
        tree, tokens, node_id = annotate(NESTED_SRC)
        mid = next(i for i, t in enumerate(tokens) if t.text == "mid" and
                   tokens[i - 1].text == "return")
        chain = ancestor_chain(mid, 2, node_id, tokens, tree.parents, rule="first_token")
        # Return owns only its keyword either way; the If node's first
        # assigned token is still "if".
        assert tokens[chain[1]].text == "return"

    @pytest.mark.parametrize("k", [0, 2])
    def test_unknown_rule_is_rejected_for_every_k(self, k):
        tree, tokens, node_id = annotate(NESTED_SRC)
        mid = next(i for i, t in enumerate(tokens) if t.text == "mid")
        with pytest.raises(ValueError, match="unknown designation rule: 'bogus'"):
            ancestor_chain(mid, k, node_id, tokens, tree.parents, rule="bogus")
