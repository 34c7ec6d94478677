from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchordiff import AnchorConfig, AnchorStrategy, sampler
from anchordiff.denoisers import (
    BackoffCountModel,
    Corpus,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    NoMatchError,
    PosteriorAnchorProfile,
    anchor_commit_order,
)
from anchordiff.diffusion import DiffusionError, Vocab, sample_categorical, temper_row
from anchordiff.experiments import build_strategy_predictors
from anchordiff.sampler import (
    AnchoredPair,
    SamplerConfig,
    default_remask_rate,
    draw_token,
    generate,
    unmask_order_stats,
)
from anchordiff.schedule import NoiseSchedule, ScheduleKind

from .conftest import make_corpus
from .oracles import (
    RescanExactDenoiser,
    ResummedProfile,
    reference_generate,
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


def reference_pair(corpus, strategy, kind):
    """The pair ``build_strategy_predictors`` makes, with nothing kept
    between queries: the exact table rescans the corpus and its profile is
    summed afresh on every call; the backoff model and the marginal
    profiles keep nothing anyway."""
    if kind == "backoff":
        return build_strategy_predictors(corpus, strategy, kind)
    reference = RescanExactDenoiser(corpus)
    if strategy is AnchorStrategy.NULL:
        return AnchoredPair(reference, MarginalAnchorProfile.zeros(corpus.length))
    return AnchoredPair(reference, ResummedProfile(reference))


def outcome(run, *args):
    """A generation's ids and trace events as plain tuples, or the name of
    the error it raised."""
    try:
        ids, trace = run(*args)
    except NoMatchError as exc:
        return type(exc).__name__
    events = trace if isinstance(trace, list) else [tuple(e) for e in trace.events]
    assert all(type(e[3]) is int for e in events)
    return ids.tolist(), events


@st.composite
def generation_cases(draw):
    """A small corpus with repeated rows, integer or fractional weights and
    drawn omega/eta, plus every setting ``generate`` reads: strategy,
    predictor, remask rate, T, temperature and a prompt that is a corpus
    row's prefix or any tokens."""
    L = draw(st.integers(1, 6))
    token = st.integers(0, 3)
    distinct = draw(st.lists(st.lists(token, min_size=L, max_size=L), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    n = len(picks)
    weight = st.one_of(st.integers(1, 5), st.sampled_from([0.1, 0.25, 1 / 3, 0.7, 2.5]))

    def table(elements):
        return np.array(draw(st.lists(st.lists(elements, min_size=L, max_size=L),
                                      min_size=n, max_size=n)), dtype=float)

    ids = np.array([distinct[i] for i in picks])
    corpus = Corpus(
        ids=ids,
        weights=np.array(draw(st.lists(weight, min_size=n, max_size=n)), float),
        vocab=Vocab(("a", "b", "c", "d", "<pad>", "?")),
        omega=table(st.sampled_from([0.0, 1.0])),
        eta=table(st.integers(0, 8)) / 8,
    )
    n_prompt = draw(st.integers(0, L))
    if draw(st.booleans()):
        prompt = ids[draw(st.integers(0, n - 1)), :n_prompt].tolist()
    else:
        prompt = draw(st.lists(token, min_size=n_prompt, max_size=n_prompt))
    config = SamplerConfig(
        T=draw(st.sampled_from([1, 2, 16])),
        temperature=draw(st.sampled_from([1e-7, 0.5, 0.8, 1.0, 2.0])),
        remask_rate=draw(st.sampled_from([0.0, 0.1, 0.5])),
        strategy=AnchorConfig.for_strategy(draw(st.sampled_from(list(AnchorStrategy)))),
    )
    kind = draw(st.sampled_from(["exact", "backoff"]))
    return corpus, prompt, config, kind, draw(st.integers(0, 2**32 - 1))


def agreed_column_case(strategy, remask, T, prompt, seed):
    """A generation case on a corpus with a pad tail (columns 4 and 5) and an
    agreed scaffold column (1), so that the exact table's commits and
    remasks reach the columns every row agrees on."""
    pad = 4
    ids = np.array([[0, 1, 2, 3, pad, pad], [1, 1, 3, 3, pad, pad], [2, 1, 0, 0, pad, pad],
                    [2, 1, 0, 0, pad, pad], [3, 1, 1, 2, pad, pad]])
    corpus = Corpus(
        ids=ids,
        weights=np.array([2.0, 0.25, 1.0, 1 / 3, 2.5]),
        vocab=Vocab(("a", "b", "c", "d", "<pad>", "?")),
        omega=np.array([[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 0],
                        [1, 1, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]], float),
        eta=np.arange(30, dtype=float).reshape(5, 6) % 9 / 8,
    )
    config = SamplerConfig(
        T=T, temperature=0.8, remask_rate=remask, strategy=AnchorConfig.for_strategy(strategy)
    )
    return corpus, prompt, config, "exact", seed


class TestFullDrawReference:
    """``generate`` against ``oracles.reference_generate``, which tempers
    and draws in full at every commit and sums the profile afresh at every
    step: the same ids, trace events and random stream, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(generation_cases())
    @example(agreed_column_case(AnchorStrategy.ANCHOR_TREE, 0.5, 16, [], 11))
    @example(agreed_column_case(AnchorStrategy.NULL, 0.5, 16, [], 12))
    @example(agreed_column_case(AnchorStrategy.KEYWORD, 0.1, 16, [2, 1, 0], 13))
    @example(agreed_column_case(AnchorStrategy.ANCHOR_TREE, 0.5, 2, [0, 2], 14))
    def test_small_corpora(self, case):
        corpus, prompt, config, kind, seed = case
        # One pair serves every generation, so its kept state carries over.
        pair = build_strategy_predictors(corpus, config.strategy.strategy, kind)
        reference = reference_pair(corpus, config.strategy.strategy, kind)
        sched = NoiseSchedule(T=config.T)
        for j in range(3):
            rng, ref_rng = np.random.default_rng([seed, j]), np.random.default_rng([seed, j])
            got = outcome(generate, prompt, corpus.length, pair, config, sched, rng)
            want = outcome(
                reference_generate, prompt, corpus.length, reference, config, sched, ref_rng
            )
            assert got == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDrawToken:
    @pytest.mark.parametrize("temperature", [1e-7, 0.5, 0.8, 1.0, 2.0])
    def test_one_hot_row_draws_as_the_full_path(self, temperature):
        for K in (1, 2, 7):
            for token in range(K):
                row = np.zeros(K)
                row[token] = 1.0
                for seed in range(50):
                    rng, full = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = draw_token(row, temperature, rng)
                    assert got == token == sample_categorical(temper_row(row, temperature), full)
                    assert type(got) is int
                    assert rng.bit_generator.state == full.bit_generator.state

    @pytest.mark.parametrize("temperature", [1e-7, 0.5, 0.8, 1.0, 2.0])
    @pytest.mark.parametrize(
        "entries",
        [{3: 1.0, 5: 5e-324}, {0: 1.0 - 2**-53, 6: 2**-53}, {2: 0.5}, {4: 5e-324}],
        ids=["tiny-second", "near-one", "half", "subnormal"],
    )
    def test_other_rows_take_the_full_path(self, monkeypatch, temperature, entries):
        # Only a one-hot row holding exactly 1.0 skips the arithmetic.
        row = np.zeros(7)
        for position, value in entries.items():
            row[position] = value
        calls = []

        def spy(row, temperature):
            calls.append(temperature)
            return temper_row(row, temperature)

        monkeypatch.setattr(sampler, "temper_row", spy)
        for seed in range(20):
            rng, full = np.random.default_rng(seed), np.random.default_rng(seed)
            got = draw_token(row, temperature, rng)
            assert got == sample_categorical(temper_row(row, temperature), full)
            assert rng.bit_generator.state == full.bit_generator.state
        assert calls == [temperature] * 20


class CountingPair:
    """An anchored pair, itself its predictor, that counts the
    ``predict_row`` calls and the profile calls it passes on."""

    def __init__(self, pair):
        self.pair, self.predictor, self.vocab = pair, self, pair.predictor.vocab
        self.rows = self.profiles = 0

    def predict_row(self, z, position):
        self.rows += 1
        return self.pair.predictor.predict_row(z, position)

    def profile(self, z):
        self.profiles += 1
        return self.pair.profile(z)


class TestQueryCounts:
    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    @pytest.mark.parametrize(
        "strategy,T",
        [(AnchorStrategy.ANCHOR_TREE, 64), (AnchorStrategy.ANCHOR_TREE, 8),
         (AnchorStrategy.NULL, 64), (AnchorStrategy.KEYWORD, 16)],
    )
    def test_one_row_per_commit_and_one_profile_per_step(
        self, synth_corpus_built, strategy, T, kind
    ):
        # Sure commits still ask their row and sure steps their profile, so
        # the query counts a run reports do not depend on the posterior.
        corpus = synth_corpus_built
        cfg = SamplerConfig(
            T=T, remask_rate=default_remask_rate(strategy) or 0.2,
            strategy=AnchorConfig.for_strategy(strategy),
        )
        counting = CountingPair(build_strategy_predictors(corpus, strategy, kind))
        for j in range(4):
            rows, profiles = counting.rows, counting.profiles
            _, trace = generate([], 64, counting, cfg, NoiseSchedule(T=T),
                                np.random.default_rng([9, j]))
            unmasks = [e for e in trace.events if e.event == "unmask"]
            # Every step with a nonzero budget commits, so its step has an unmask.
            assert counting.rows - rows == len(unmasks)
            assert counting.profiles - profiles == len({e.step for e in unmasks})


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
        reference = reference_pair(corpus, strategy, "exact")
        sched = NoiseSchedule(T=T)
        for j in range(4):
            out, trace = generate([], 64, pair, cfg, sched, np.random.default_rng([3, j]))
            ref_out, ref_events = reference_generate(
                [], 64, reference, cfg, sched, np.random.default_rng([3, j])
            )
            assert np.array_equal(out, ref_out)
            assert [tuple(e) for e in trace.events] == ref_events
