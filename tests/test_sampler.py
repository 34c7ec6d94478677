from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff import AnchorConfig, AnchorStrategy
from anchordiff.denoisers import (
    BackoffCountModel,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    PosteriorAnchorProfile,
    anchor_commit_order,
)
from anchordiff.diffusion import DiffusionError
from anchordiff.experiments import build_strategy_predictors
from anchordiff.sampler import (
    AnchoredPair,
    SamplerConfig,
    default_remask_rate,
    generate,
    unmask_order_stats,
)
from anchordiff.schedule import NoiseSchedule, ScheduleKind

from .conftest import make_corpus
from .oracles import (
    RescanExactDenoiser,
    sorted_anchor_commit_order,
    enumerate_product_chain,
    enumerate_sequential_chain,
    total_variation,
)


def null_config(T, seed=0, remask=0.0, temperature=1.0):
    return SamplerConfig(
        T=T,
        temperature=temperature,
        remask_rate=remask,
        strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL),
        seed=seed,
    )


def null_pair(corpus):
    return AnchoredPair(
        ExactPosteriorDenoiser(corpus), MarginalAnchorProfile.zeros(corpus.length)
    )


def anchored_pair(corpus):
    exact = ExactPosteriorDenoiser(corpus)
    return AnchoredPair(exact, PosteriorAnchorProfile(exact))


class MaskingPredictor:
    """Stub predictor whose rows put all mass on the mask token."""

    def __init__(self, vocab):
        self.vocab = vocab

    def predict_row(self, z, position):
        row = np.zeros(self.vocab.size)
        row[self.vocab.mask_id] = 1.0
        return row


def run_many(corpus, config, n, length=None, prompt=()):
    predictors = null_pair(corpus)
    sched = NoiseSchedule(ScheduleKind.COSINE, config.T)
    counts = {}
    for j in range(n):
        rng = np.random.default_rng([config.seed, j])
        out, _ = generate(prompt, length or corpus.length, predictors, config, sched, rng)
        key = tuple(int(v) for v in out)
        counts[key] = counts.get(key, 0) + 1
    return {k: v / n for k, v in counts.items()}


class TestBasics:
    def test_t1_single_step_completes(self):
        corpus = make_corpus(["ab", "cb"])
        out, trace = generate(
            [], 2, null_pair(corpus),
            null_config(1), NoiseSchedule(T=1), 0,
        )
        assert (out != corpus.vocab.mask_id).all()
        assert all(e.step == 1 for e in trace.events)

    def test_prompt_preserved_verbatim(self):
        corpus = make_corpus(["ab", "cb"])
        v = corpus.vocab
        prompt = [v.id("c")]
        cfg = null_config(4, seed=5)
        predictors = null_pair(corpus)
        for j in range(20):
            out, trace = generate(
                prompt, 2, predictors, cfg, NoiseSchedule(T=4),
                np.random.default_rng(j),
            )
            assert out[0] == v.id("c")
            assert all(e.position != 0 for e in trace.events)

    def test_reproducible_bit_for_bit(self, synth_corpus_built):
        corpus = synth_corpus_built
        cfg = SamplerConfig(
            T=8,
            strategy=AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE),
            remask_rate=0.1,
            seed=99,
        )
        pair = anchored_pair(corpus)
        sched = NoiseSchedule(ScheduleKind.COSINE, 8)
        out1, tr1 = generate([], corpus.length, pair, cfg, sched)
        out2, tr2 = generate([], corpus.length, pair, cfg, sched)
        assert np.array_equal(out1, out2)
        assert tr1.events == tr2.events

    def test_trace_events_alternate_and_end_unmasked(self, synth_corpus_built):
        corpus = synth_corpus_built
        cfg = SamplerConfig(
            T=12,
            strategy=AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE),
            remask_rate=0.25,
            seed=41,
        )
        pair = anchored_pair(corpus)
        out, trace = generate([], corpus.length, pair, cfg, NoiseSchedule(T=12))
        assert (out != corpus.vocab.mask_id).all()
        saw_remask = False
        times = dict(trace.final_unmask_times(np.zeros(corpus.length)))
        for l in range(corpus.length):
            events = [e for e in trace.events if e.position == l]
            if not events:
                continue
            expected = "unmask"
            for e in events:
                assert e.event == expected
                expected = "remask" if expected == "unmask" else "unmask"
                saw_remask |= e.event == "remask"
            assert events[-1].event == "unmask"
            assert times[l] == (trace.T - events[-1].step) / trace.T
        assert saw_remask

    def test_residual_mask_raises_diffusion_error(self):
        corpus = make_corpus(["ab", "cb"])
        pair = AnchoredPair(
            MaskingPredictor(corpus.vocab), MarginalAnchorProfile.zeros(corpus.length)
        )
        with pytest.raises(DiffusionError, match="mask tokens"):
            generate([], 2, pair, null_config(2), NoiseSchedule(T=2), 0)

    def test_default_remask_rates(self):
        assert default_remask_rate(AnchorStrategy.NULL) == 0.0
        assert default_remask_rate(AnchorStrategy.ANCHOR_TREE) == 0.1


class TestNullEquivalence:
    def test_sequential_equals_product_on_single_varying_corpus(self):
        # With one uncertain position, per-commit re-prediction changes
        # nothing, so the two step semantics coincide exactly.
        corpus = make_corpus(["xay", "xby"])
        for T in (1, 2, 3):
            sched = NoiseSchedule(ScheduleKind.COSINE, T)
            seq = enumerate_sequential_chain(corpus, sched)
            prod = enumerate_product_chain(corpus, sched)
            keys = set(seq) | set(prod)
            for k in keys:
                assert seq.get(k, 0.0) == pytest.approx(prod.get(k, 0.0), abs=1e-12)

    def test_generate_matches_sequential_enumeration(self):
        corpus = make_corpus(["ab", "cd"])
        sched = NoiseSchedule(ScheduleKind.COSINE, 2)
        expected = enumerate_sequential_chain(corpus, sched)
        empirical = run_many(corpus, null_config(2, seed=1234), n=6000)
        assert total_variation(empirical, expected) < 0.03

    def test_generate_matches_product_on_safe_corpus(self):
        corpus = make_corpus(["xay", "xby"])
        sched = NoiseSchedule(ScheduleKind.COSINE, 3)
        expected = enumerate_product_chain(corpus, sched)
        empirical = run_many(corpus, null_config(3, seed=777), n=6000)
        assert total_variation(empirical, expected) < 0.03

    def test_corpus_frequencies_at_large_T(self):
        corpus = make_corpus(["na", "nb", "nc", "nd"])
        empirical = run_many(corpus, null_config(16, seed=5), n=4000)
        for row in corpus.ids:
            key = tuple(int(v) for v in row)
            assert abs(empirical.get(key, 0.0) - 0.25) < 0.03


class TestOrderStats:
    def test_all_unmasked_at_single_step(self):
        corpus = make_corpus(["ab"])
        out, trace = generate(
            [], 2, null_pair(corpus),
            null_config(1), NoiseSchedule(T=1), 0,
        )
        stats = unmask_order_stats(trace, np.array([1, 1]), np.array([0, 0]))
        ((_, (mean, n)),) = stats.items()
        assert mean == 0.0 and n == 2

    def test_synthetic_trace_arithmetic(self):
        from anchordiff.sampler import DenoiseTrace

        T = 10
        trace = DenoiseTrace(T, 2)
        trace.record(0, T, "unmask", 3, "anchor")   # earliest step
        trace.record(1, 1, "unmask", 4, "denoise")  # last step
        stats = unmask_order_stats(trace, np.array([1, 2]), np.array([1, 0]))
        assert stats[(1, True)][0] == 0.0
        assert stats[(2, False)][0] == (T - 1) / T

    def test_anchors_unmask_before_non_anchors(self, synth_corpus_built):
        corpus = synth_corpus_built
        cfg = SamplerConfig(
            T=16,
            strategy=AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE),
            remask_rate=0.1,
            seed=7,
        )
        pair = anchored_pair(corpus)
        sched = NoiseSchedule(ScheduleKind.COSINE, 16)
        anchor_times, other_times = [], []
        for j in range(30):
            out, trace = generate(
                [], corpus.length, pair, cfg, sched, np.random.default_rng(j)
            )
            match = np.flatnonzero((corpus.ids == out[None, :]).all(axis=1))
            if len(match) == 0:
                continue
            ri = match[0]
            for l, t_norm in trace.final_unmask_times(corpus.depth[ri]):
                (anchor_times if corpus.omega[ri][l] >= 0.5 else other_times).append(
                    t_norm
                )
        assert np.mean(anchor_times) < np.mean(other_times)


@st.composite
def anchor_profiles(draw):
    """omega/eta/mask triples with tied weights, omega exactly at 0.5 and
    empty or all-false masks."""
    L = draw(st.integers(0, 12))
    omega = st.sampled_from([0.0, 0.25, 0.49999999999999994, 0.5, 0.75, 1.0])
    eta = st.sampled_from([0.0, 0.125, 0.5, 1.0, 2.0])
    return (
        np.array(draw(st.lists(omega, min_size=L, max_size=L)), dtype=float),
        np.array(draw(st.lists(eta, min_size=L, max_size=L)), dtype=float),
        np.array(draw(st.lists(st.booleans(), min_size=L, max_size=L)), dtype=bool),
    )


class TestStreamEquivalences:
    """The vectorized bookkeeping of ``generate`` against the loops it
    replaced: the same anchor order and the same random stream."""

    @settings(max_examples=300, deadline=None)
    @given(anchor_profiles())
    def test_anchor_order_equals_sorted_keys(self, case):
        omega, eta, masked = case
        order = anchor_commit_order(omega, eta, masked)
        assert order == sorted_anchor_commit_order(omega, eta, masked)
        assert all(type(l) is int for l in order)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_block_equals_scalar_draws(self, seed):
        for n in range(71):
            block, scalar = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            coins = block.random(n)
            assert coins.tolist() == [scalar.random() for _ in range(n)]
            assert block.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffle_permutes_array_and_list_alike(self, seed):
        for n in range(71):
            positions = np.flatnonzero(np.random.default_rng([seed, n, 1]).random(2 * n) < 0.5)
            array, items = positions.copy(), positions.tolist()
            on_array, on_list = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            on_array.shuffle(array)
            on_list.shuffle(items)
            assert array.tolist() == items
            assert on_array.bit_generator.state == on_list.bit_generator.state


class TestFuzzLight:
    def test_backoff_fuzz(self, synth_corpus_built):
        corpus = make_corpus(["abcab", "cabca", "bacbc"])
        model = BackoffCountModel.fit(corpus)
        rng = np.random.default_rng(2024)
        for trial in range(60):
            T = int(rng.integers(1, 6))
            strategy = rng.choice(list(AnchorStrategy))
            cfg = SamplerConfig(
                T=T,
                temperature=float(rng.choice([0.3, 0.8, 1.0, 1.5])),
                remask_rate=float(rng.choice([0.0, 0.1, 0.3])),
                strategy=AnchorConfig.for_strategy(AnchorStrategy(strategy)),
                seed=trial,
            )
            if cfg.strategy.strategy is AnchorStrategy.NULL:
                predictors = AnchoredPair(model, MarginalAnchorProfile.zeros(corpus.length))
            else:
                small = make_corpus(["abcab", "cabca", "bacbc"])
                small.omega = rng.integers(0, 2, small.ids.shape).astype(float)
                small.eta = rng.random(small.ids.shape)
                predictors = AnchoredPair(model, MarginalAnchorProfile.of_corpus(small))
            n_prompt = int(rng.integers(0, 3))
            prompt = corpus.ids[0][:n_prompt]
            out, trace = generate(
                prompt, 5, predictors, cfg, NoiseSchedule(T=T),
                np.random.default_rng(trial),
            )
            assert (out != corpus.vocab.mask_id).all()
            assert (out[:n_prompt] == prompt).all()


def rescan_pair(corpus, strategy):
    """The strategy's predictors with every match set found by a full
    corpus rescan, as before the incremental match state."""
    reference = RescanExactDenoiser(corpus)
    if strategy is AnchorStrategy.NULL:
        return AnchoredPair(reference, MarginalAnchorProfile.zeros(corpus.length))
    return AnchoredPair(reference, PosteriorAnchorProfile(reference))


class TestMatchStateGeneration:
    @pytest.mark.parametrize("T", [8, 64])
    @pytest.mark.parametrize(
        "strategy,remask",
        [(AnchorStrategy.ANCHOR_TREE, 0.1), (AnchorStrategy.NULL, 0.0)],
        ids=["anchor_tree", "null"],
    )
    def test_generate_equals_full_rescan(self, synth200_corpus, strategy, remask, T):
        corpus = synth200_corpus
        cfg = SamplerConfig(
            T=T, remask_rate=remask, strategy=AnchorConfig.for_strategy(strategy)
        )
        # One pair serves every generation, so the match state carries over.
        pair = build_strategy_predictors(corpus, strategy, "exact")
        reference = rescan_pair(corpus, strategy)
        sched = NoiseSchedule(T=T)
        for j in range(4):
            out, trace = generate([], 64, pair, cfg, sched, np.random.default_rng([3, j]))
            ref_out, ref_trace = generate(
                [], 64, reference, cfg, sched, np.random.default_rng([3, j])
            )
            assert np.array_equal(out, ref_out)
            assert trace.events == ref_trace.events
