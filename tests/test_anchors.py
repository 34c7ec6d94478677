from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    assign_nodes,
    compute_anchor_targets,
    compute_eta,
    compute_omega,
    default_beta,
    default_gamma,
    parse,
    synth_corpus,
    tokenize,
)
from anchordiff.anchors import eta_for_depth
from anchordiff.hierarchy import precedes
from anchordiff.minilang import split_identifiers

from .oracles import naive_omega


def annotate(src):
    """The tree, tokens, node ids and depths of ``src``."""
    tokens = tokenize(src)
    tree = parse(src)
    node_id = assign_nodes(tree, tokens)
    return tree, tokens, node_id, np.array([tree.depth(n) for n in node_id.tolist()])


def cfg(strategy, **kw):
    return AnchorConfig.for_strategy(strategy, **kw)


LOOP_SRC = "def f(numbers):\n    for num in numbers:\n        pass\n"


class TestOmega:
    def _loop_positions(self):
        tree, tokens, node_id, depth = annotate(LOOP_SRC)
        wanted = ["for", "num", "in", "numbers"]
        idx = [i for i, t in enumerate(tokens) if t.text in wanted and i > 6]
        return tokens, idx[:4]

    def test_anchor_tree_selects_keywords_and_identifiers(self):
        tokens, positions = self._loop_positions()
        omega = compute_omega(tokens, cfg(AnchorStrategy.ANCHOR_TREE))
        assert [omega[p] for p in positions] == [1, 1, 1, 1]

    def test_keyword_strategy(self):
        tokens, positions = self._loop_positions()
        omega = compute_omega(tokens, cfg(AnchorStrategy.KEYWORD))
        assert [omega[p] for p in positions] == [1, 0, 1, 0]

    def test_identifier_strategy_excludes_literals_and_operators(self):
        tree, tokens, node_id, depth = annotate("x = 1")
        omega = compute_omega(tokens, cfg(AnchorStrategy.IDENTIFIER))
        assert omega.tolist() == [1, 0, 0]

    def test_null_strategy_all_zero(self, synth_records):
        for rec in synth_records[:5]:
            omega = compute_omega(rec.tokens, cfg(AnchorStrategy.NULL))
            assert not omega.any()


class TestEta:
    def test_no_decay_at_or_below_d0(self):
        config = AnchorConfig(AnchorStrategy.ANCHOR_TREE, gamma=0.03, beta=0.7, d0=2)
        tree, tokens, node_id, depth = annotate("x = 1")  # depths 1..2ish
        eta = compute_eta(depth, config)
        for d, e in zip(depth, eta):
            if d <= 2:
                assert e == 0.03

    def test_exponential_decay_value(self):
        config = AnchorConfig(AnchorStrategy.ANCHOR_TREE, gamma=0.03, beta=0.7, d0=2)
        expected = 0.03 * math.exp(-0.7)  # scalar-math oracle
        assert eta_for_depth(3, config) == pytest.approx(expected, rel=1e-12)
        assert eta_for_depth(3, config) == pytest.approx(0.03 * 0.4965853, rel=1e-6)

    def test_beta_zero_recovers_hard_anchoring(self, synth_records):
        config = AnchorConfig(AnchorStrategy.KEYWORD, gamma=0.1, beta=0.0)
        for rec in synth_records[:10]:
            omega = compute_omega(rec.tokens, config)
            eta = compute_eta(rec.depth, config)
            mu = omega * eta
            assert set(np.unique(mu)) <= {0.0, 0.1}

    def test_eta_depends_only_on_depth(self, synth_records):
        config = cfg(AnchorStrategy.ANCHOR_TREE)
        rec = synth_records[0]
        eta = compute_eta(rec.depth, config)
        by_depth = {}
        for d, e in zip(rec.depth.tolist(), eta):
            by_depth.setdefault(d, set()).add(e)
        assert all(len(v) == 1 for v in by_depth.values())

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_eta_monotone_along_partial_order(self, seed):
        src = synth_corpus(seed=seed, n_programs=1, max_depth=6)[0]
        tree, tokens, node_id, depth = annotate(src)
        eta = compute_eta(depth, cfg(AnchorStrategy.ANCHOR_TREE))
        n = len(tokens)
        import random

        rnd = random.Random(seed)
        for _ in range(80):
            a, b = rnd.randrange(n), rnd.randrange(n)
            if precedes(a, b, node_id, tree):
                assert eta[a] >= eta[b]


class TestArrayForms:
    """compute_omega and compute_eta against their per-token definitions."""

    @given(
        gamma=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        beta=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        d0=st.integers(0, 8),
        depth=st.lists(st.integers(-1, 40), max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_eta_gather_equals_the_scalar_formula_bit_for_bit(self, gamma, beta, d0, depth):
        # -1 is a pad's depth; a table indexed by raw depth would misread it.
        config = AnchorConfig(AnchorStrategy.ANCHOR_TREE, gamma=gamma, beta=beta, d0=d0)
        eta = compute_eta(np.array(depth, dtype=np.int64), config)
        expected = np.array([eta_for_depth(d, config) for d in depth], dtype=np.float64)
        assert eta.dtype == np.float64
        assert eta.tobytes() == expected.tobytes()

    @given(
        seed=st.integers(0, 100_000),
        max_depth=st.integers(3, 8),
        split=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_omega_equals_the_per_token_rule(self, seed, max_depth, split):
        (src,) = synth_corpus(seed=seed, n_programs=1, max_depth=max_depth)
        tokens = tokenize(src)
        if split is not None:
            tokens = split_identifiers(tokens, split)
        for strategy in AnchorStrategy:
            omega = compute_omega(tokens, cfg(strategy))
            assert omega.dtype == np.int8
            assert omega.tolist() == [naive_omega(t, strategy) for t in tokens]


class TestTargets:
    def test_anchor_positions_keep_clean_tokens(self):
        x = np.array([5, 9, 7, 3])
        omega = np.array([1, 0, 1, 0])
        y = compute_anchor_targets(x, omega, mask_id=11)
        assert y.tolist() == [5, 11, 7, 11]

    def test_all_masked_when_omega_zero(self):
        y = compute_anchor_targets(np.array([1, 2]), np.array([0, 0]), mask_id=9)
        assert y.tolist() == [9, 9]

    def test_identity_when_omega_one(self):
        y = compute_anchor_targets(np.array([1, 2]), np.array([1, 1]), mask_id=9)
        assert y.tolist() == [1, 2]


class TestDefaults:
    def test_tuned_gammas(self):
        assert default_gamma(AnchorStrategy.ANCHOR_TREE) == 0.03
        assert default_gamma(AnchorStrategy.KEYWORD) == 0.1
        assert default_gamma(AnchorStrategy.IDENTIFIER) == 0.01
        assert default_gamma(AnchorStrategy.NULL) == 0.0

    def test_betas(self):
        assert default_beta(AnchorStrategy.ANCHOR_TREE) == 0.7
        assert default_beta(AnchorStrategy.KEYWORD) == 0.0
        assert default_beta(AnchorStrategy.IDENTIFIER) == 0.0

    def test_for_strategy_wires_defaults(self):
        c = AnchorConfig.for_strategy("anchor_tree")
        assert (c.gamma, c.beta, c.d0) == (0.03, 0.7, 2)

    def test_mu_positive_implies_anchor(self, synth_records):
        for rec in synth_records[:10]:
            positive = rec.mu > 0
            assert np.all(rec.omega[positive] == 1)

    @pytest.mark.parametrize("strategy", list(AnchorStrategy))
    def test_dict_form_round_trips(self, strategy):
        config = AnchorConfig.for_strategy(strategy, d0=3)
        assert config.to_dict() == {
            "strategy": strategy.value, "gamma": config.gamma, "beta": config.beta, "d0": 3,
        }
        assert AnchorConfig.from_dict(config.to_dict()) == config

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AnchorConfig(AnchorStrategy.KEYWORD, gamma=-1.0, beta=0.0)
        with pytest.raises(ValueError):
            AnchorConfig(AnchorStrategy.KEYWORD, gamma=0.1, beta=-0.5)
