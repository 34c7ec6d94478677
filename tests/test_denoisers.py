from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    annotate_program,
    build_corpus,
    build_vocab,
)
from anchordiff.denoisers import (
    BackoffCountModel,
    Corpus,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    NoMatchError,
    PosteriorAnchorProfile,
    TwoStagePredictor,
    anchor_commit_order,
    two_stage_predict,
)
from anchordiff.diffusion import LatentSequence, Vocab, corrupt, nelbo
from anchordiff.experiments import build_strategy_predictors
from anchordiff.sampler import AnchoredPair, SamplerConfig, default_remask_rate, generate
from anchordiff.schedule import NoiseSchedule

from .conftest import make_corpus
from .oracles import (
    DictBackoffModel,
    NaivePosterior,
    ResummedProfile,
    all_rows_profile,
    constrained_rows,
    naive_consistent_rows,
    naive_posterior,
    per_draw_resolve,
    per_draw_two_stage,
    validate_prediction,
)


def latent(corpus, ids):
    return LatentSequence(ids=np.array(ids), mask_id=corpus.vocab.mask_id)


class TestExactPosterior:
    def test_unique_match(self):
        corpus = make_corpus(["ab", "cd"])
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.id("b")])
        out = constrained_rows(ExactPosteriorDenoiser(corpus), z)
        assert out[0, v.id("a")] == 1.0

    def test_mixture_when_all_masked(self):
        corpus = make_corpus(["ab", "cd"])
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.mask_id])
        out = constrained_rows(ExactPosteriorDenoiser(corpus), z)
        assert out[0, v.id("a")] == 0.5
        assert out[0, v.id("c")] == 0.5

    def test_fully_unmasked_identity(self):
        corpus = make_corpus(["ab", "cd"])
        z = latent(corpus, corpus.ids[0])
        out = constrained_rows(ExactPosteriorDenoiser(corpus), z)
        assert (out[np.arange(2), corpus.ids[0]] == 1.0).all()

    def test_no_match_raises(self):
        corpus = make_corpus(["ab", "cd"])
        v = corpus.vocab
        z = latent(corpus, [v.id("a"), v.id("d")])
        den = ExactPosteriorDenoiser(corpus)
        with pytest.raises(NoMatchError):
            den.predict_row(z.ids, 0)
        with pytest.raises(NoMatchError):
            den.target_probs(z.ids[None], z.ids)

    def test_weights_summing_past_the_float_range_rejected(self):
        # Two distinct rows of weight 1e308 each: the total is inf, so a
        # count over both could not be normalized.
        with pytest.raises(ValueError, match="float range"):
            ExactPosteriorDenoiser(make_corpus(["ab", "cd"], weights=[1e308, 1e308]))
        ExactPosteriorDenoiser(make_corpus(["ab", "cd"], weights=[1e308, 1e307]))

    def test_weighted_mixture(self):
        corpus = make_corpus(["ab", "cb"], weights=[3.0, 1.0])
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.id("b")])
        out = constrained_rows(ExactPosteriorDenoiser(corpus), z)
        assert out[0, v.id("a")] == 0.75

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(314)
        for trial in range(40):
            n = int(rng.integers(1, 8))
            L = int(rng.integers(2, 10))
            base = rng.integers(0, 5, size=(n, L))
            chars = "abcde"
            seqs = ["".join(chars[v] for v in row) for row in base]
            weights = rng.integers(1, 5, size=n).astype(float)
            corpus = make_corpus(seqs, weights=weights)
            den = ExactPosteriorDenoiser(corpus)
            for _ in range(5):
                pick = corpus.ids[rng.integers(n)].copy()
                mask = rng.random(L) < 0.6
                pick[mask] = corpus.vocab.mask_id
                z = latent(corpus, pick)
                mine = constrained_rows(den, z)
                oracle = naive_posterior(corpus, z)
                assert np.array_equal(mine, oracle)

    def test_predict_row_matches_full_matrix(self, synth_corpus_built):
        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        z = corrupt(
            LatentSequence(corpus.ids[4].copy(), corpus.vocab.mask_id),
            0.7,
            NoiseSchedule(T=8),
            2,
        )
        full = NaivePosterior(corpus).predict(z)
        for l in range(0, len(z), 7):
            assert np.allclose(den.predict_row(z.ids, l), full[l], atol=1e-12)


class TestBackoff:
    def _tiny(self, weight=100.0):
        return make_corpus(["abc"], weights=[weight])

    def test_both_neighbors_masked_gives_unigram(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.mask_id] * 3)
        row = model.predict_row(z.ids, 1)
        # unigram counts: a, b, c each 100; Laplace over 4 non-mask tokens
        expected = np.array([101, 101, 101, 1, 0], float) / 304
        assert np.allclose(row, expected)

    def test_pair_context_near_one_hot(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.id("a"), v.mask_id, v.id("c")])
        row = model.predict_row(z.ids, 1)
        assert row[v.id("b")] == pytest.approx(101 / 104)
        assert row[v.id("a")] == pytest.approx(1 / 104)

    def test_unseen_pair_falls_back_to_left(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        # (a, b) as (left, right) context never occurs; left-only stats for
        # "a" say "b" follows.
        z = latent(corpus, [v.id("a"), v.mask_id, v.id("b")])
        row = model.predict_row(z.ids, 1)
        assert row[v.id("b")] == pytest.approx(101 / 104)

    def test_masked_left_neighbor_uses_right(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.mask_id, v.id("c")])
        row = model.predict_row(z.ids, 1)
        assert row[v.id("b")] == pytest.approx(101 / 104)

    def test_total_on_arbitrary_input(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.id("c"), v.mask_id, v.id("a")])
        validate_prediction(constrained_rows(model, z), z)

    def test_rejects_unknown_version_or_format(self):
        import json

        corpus = self._tiny()
        payload = json.loads(BackoffCountModel.fit(corpus).to_json())
        payload["version"] = 99
        with pytest.raises(ValueError):
            BackoffCountModel.from_json(json.dumps(payload))
        payload["version"] = 1
        payload["format"] = "other"
        with pytest.raises(ValueError):
            BackoffCountModel.from_json(json.dumps(payload))

    def test_serialization_round_trip(self, synth_corpus_built):
        model = BackoffCountModel.fit(synth_corpus_built)
        payload = model.to_json()
        clone = BackoffCountModel.from_json(payload)
        assert clone.to_json() == payload
        v = synth_corpus_built.vocab
        z = LatentSequence(
            np.full(synth_corpus_built.length, v.mask_id), v.mask_id
        )
        assert np.array_equal(constrained_rows(model, z), constrained_rows(clone, z))

    def test_bayes_optimality_gap(self, synth_corpus_built):
        # Expected cross-entropy of the exact posterior is no worse than the
        # backoff model, with Monte Carlo error bars.
        corpus = synth_corpus_built
        exact = ExactPosteriorDenoiser(corpus)
        backoff = BackoffCountModel.fit(corpus)
        rng = np.random.default_rng(5150)
        sched = NoiseSchedule(T=8)
        diffs = []
        for _ in range(150):
            ri = int(rng.integers(corpus.n))
            x = LatentSequence(corpus.ids[ri].copy(), corpus.vocab.mask_id)
            z = corrupt(x, 0.7, sched, rng)
            masked = np.flatnonzero(z.is_masked)
            if len(masked) == 0:
                continue
            (pe,) = exact.target_probs(z.ids[None], x.ids)
            (pb,) = backoff.target_probs(z.ids[None], x.ids)
            ce_e = -np.log(pe[masked]).sum()
            ce_b = -np.log(np.maximum(pb[masked], 1e-300)).sum()
            diffs.append(ce_b - ce_e)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() > 2 * se


def _same_predictions(model, oracle, z):
    """Bit-equal answers from the table model and the dict oracle, by
    ``predict_row``, ``target_probs`` at every token and ``resolve_anchors``
    at each single position and in both full orders."""
    ids = np.stack([z.ids, z.ids])
    for v in range(z.mask_id + 1):
        targets = np.full(len(z), v)
        want = oracle.target_probs(ids, targets)
        assert np.array_equal(model.target_probs(ids, targets), want)
    for l in range(len(z)):
        assert np.array_equal(model.predict_row(z.ids, l), oracle.predict_row(z.ids, l))
    positions = list(range(len(z)))
    for order in [[l] for l in positions] + [positions, positions[::-1]]:
        want = oracle.resolve_anchors(ids, order)
        assert np.array_equal(model.resolve_anchors(ids, order), want)


# Tiny corpora: one context repeated with fractional weights (summation
# order), single-token sequences (BOS and EOS on one position), and two.
TINY_CORPORA = [
    (["abc"], [100.0]),
    (["ab", "cd"], [3.0, 1.0]),
    (["a", "b", "a"], [0.1, 0.2, 0.7]),
    (["abab", "abba", "baab"], [0.3, 1.7, 0.1]),
]


@st.composite
def corpus_and_latents(draw):
    L = draw(st.integers(1, 5))
    n_tokens = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n_tokens - 1), min_size=L, max_size=L),
            min_size=1,
            max_size=8,
        )
    )
    weights = draw(
        st.lists(st.floats(0.05, 5.0), min_size=len(rows), max_size=len(rows))
    )
    vocab = Vocab(tuple("abcd"[:n_tokens]) + ("?",))
    corpus = Corpus(np.array(rows), np.array(weights), vocab)
    # Latent ids run over the whole vocabulary, the mask id included.
    latents = draw(
        st.lists(
            st.lists(st.integers(0, vocab.mask_id), min_size=L, max_size=L),
            min_size=1,
            max_size=6,
        )
    )
    return corpus, latents


class TestBackoffTables:
    """The table model against the dict model kept in tests/oracles.py."""

    @given(corpus_and_latents())
    @settings(max_examples=150, deadline=None)
    def test_rows_bit_equal_oracle(self, drawn):
        corpus, latents = drawn
        model = BackoffCountModel.fit(corpus)
        oracle = DictBackoffModel.fit(corpus)
        for ids in latents:
            _same_predictions(model, oracle, latent(corpus, ids))

    @pytest.mark.parametrize("sequences,weights", TINY_CORPORA)
    def test_every_route_bit_equal_oracle(self, sequences, weights):
        corpus = make_corpus(sequences, weights=weights)
        model = BackoffCountModel.fit(corpus)
        oracle = DictBackoffModel.fit(corpus)
        # Every latent of the corpus length over the whole vocabulary: seen
        # and unseen pairs (the pad token is never a context), masked
        # neighbours, and BOS and EOS contexts.
        for ids in np.ndindex(*([corpus.vocab.size] * corpus.length)):
            _same_predictions(model, oracle, latent(corpus, ids))

    def test_routes_fall_back_in_order(self):
        # "ab": pair (BOS, b) and (a, EOS); left BOS and a; right b and EOS.
        corpus = make_corpus(["ab"], weights=[2.0], extra_tokens="c")
        model = BackoffCountModel.fit(corpus)
        oracle = DictBackoffModel.fit(corpus)
        v = corpus.vocab
        m = v.mask_id
        a, b, c = v.id("a"), v.id("b"), v.id("c")
        cases = [
            [m, b],  # position 0: seen pair (BOS, b)
            [m, c],  # position 0: unseen pair, left BOS seen
            [c, m],  # position 1: unseen pair and left c, right EOS seen
            [c, m, a],  # position 1: left c and right a unseen: unigram (any L)
            [m, m],  # masked neighbour: right EOS at position 1, left BOS at 0
            [m],  # L=1: pair (BOS, EOS) unseen, left BOS seen
        ]
        for ids in cases:
            _same_predictions(model, oracle, latent(corpus, ids))

    @pytest.mark.parametrize("sequences,weights", TINY_CORPORA)
    def test_to_json_byte_equal_oracle(self, sequences, weights):
        corpus = make_corpus(sequences, weights=weights)
        payload = BackoffCountModel.fit(corpus).to_json()
        assert payload == DictBackoffModel.fit(corpus).to_json()
        assert BackoffCountModel.from_json(payload).to_json() == payload

    def test_to_json_byte_equal_oracle_on_synth_2000(self):
        from anchordiff import synth_corpus

        config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        sources = synth_corpus(seed=20260809, n_programs=2000, max_depth=6)
        records = [annotate_program(s, config, str(i)) for i, s in enumerate(sources)]
        corpus = build_corpus(records, build_vocab(sources), length=64)
        model = BackoffCountModel.fit(corpus)
        payload = model.to_json()
        assert payload == DictBackoffModel.fit(corpus).to_json()
        clone = BackoffCountModel.from_json(payload)
        rng = np.random.default_rng(4)
        zs = [
            corrupt(latent(corpus, corpus.ids[i]), t, NoiseSchedule(T=8), rng)
            for i in range(0, corpus.n, 97)
            for t in (0.3, 0.7, 1.0)
        ]
        ids = np.stack([z.ids for z in zs])
        mask_id = corpus.vocab.mask_id
        for targets in corpus.ids[::197]:
            assert np.array_equal(
                clone.target_probs(ids, targets),
                model.target_probs(ids, targets),
            )
        positions = list(range(corpus.length))
        for order in [[l] for l in positions] + [positions]:
            want = model.resolve_anchors(ids, order)
            assert np.array_equal(clone.resolve_anchors(ids, order), want)

    def test_from_json_rejects_malformed_tables(self):
        import json

        corpus = make_corpus(["abc"])
        good = json.loads(BackoffCountModel.fit(corpus).to_json())
        mask = corpus.vocab.mask_id
        for key, value in [
            ("left", good["left"] + [[mask, good["left"][0][1]]]),  # the mask as context
            ("left", good["left"] + good["left"][:1]),  # a repeated context
            ("right", [[good["right"][0][0], [1.0]]]),  # a short count row
            ("unigram", [1.0, 2.0]),
            # Counts that would leave a smoothed row with no mass off the mask.
            ("unigram", [-1.0] * corpus.vocab.size),
            ("right", [[good["right"][0][0], [float("nan")] * corpus.vocab.size]]),
            # A count at the mask token, which would give it mass.
            ("pair", [[good["pair"][0][0], [0.0] * mask + [5.0]]]),
            ("unigram", good["unigram"][:mask] + [1.0]),
        ]:
            payload = dict(good, **{key: value})
            with pytest.raises(ValueError):
                BackoffCountModel.from_json(json.dumps(payload))

    def test_rows_are_read_only(self):
        corpus = make_corpus(["abc"])
        model = BackoffCountModel.fit(corpus)
        z = latent(corpus, [corpus.vocab.mask_id] * 3)
        for m in (model, pickle.loads(pickle.dumps(model))):
            with pytest.raises(ValueError):
                m.predict_row(z.ids, 1)[0] = 0.5


@st.composite
def exact_corpus_and_batch(draw):
    """A corpus of at most 6 rows with integer or fractional weights, and a
    batch of latents: corpus rows with positions masked past a prompt and,
    now and then, a token overwritten, so that some rows match nothing."""
    L = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    rows = np.array(
        draw(st.lists(st.lists(st.integers(0, 3), min_size=L, max_size=L), min_size=n, max_size=n))
    )
    integer = draw(st.booleans())
    weight = st.integers(1, 5).map(float) if integer else st.floats(0.05, 5.0)
    vocab = Vocab(("a", "b", "c", "d", "<pad>", "?"))
    corpus = Corpus(rows, np.array(draw(st.lists(weight, min_size=n, max_size=n))), vocab)
    prompt = draw(st.integers(0, L))
    cell = st.sampled_from(["keep"] * 3 + ["mask"] * 3 + ["other"])
    latents = []
    for _ in range(draw(st.integers(1, 6))):
        ids = rows[draw(st.integers(0, n - 1))].copy()
        for l, op in enumerate(draw(st.lists(cell, min_size=L, max_size=L))):
            if op == "mask" and l >= prompt:
                ids[l] = vocab.mask_id
            elif op == "other":
                ids[l] = draw(st.integers(0, 3))
        latents.append(ids)
    return corpus, np.array(latents), integer


class TestExactQueries:
    """The exact model's batched ``target_probs`` and single-position
    ``resolve_anchors`` against its own ``predict_row``, bit for bit, and
    against the dense rows of ``naive_posterior``: equal with integer
    weights, within 1e-12 with fractional ones."""

    @given(exact_corpus_and_batch(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_batched_queries_equal_naive_rows(self, drawn, data):
        corpus, ids, integer = drawn
        L, mask_id = corpus.length, corpus.vocab.mask_id
        targets = np.array(data.draw(st.lists(st.integers(0, mask_id), min_size=L, max_size=L)))
        exact = ExactPosteriorDenoiser(corpus)
        matched = np.array([bool(naive_consistent_rows(corpus, latent(corpus, r))) for r in ids])
        if not matched.all():
            with pytest.raises(NoMatchError):
                exact.target_probs(ids, targets)
            # The walk raises for an unmatched row only where it commits.
            l = data.draw(st.integers(0, L - 1))
            if (ids[~matched, l] == mask_id).any():
                with pytest.raises(NoMatchError):
                    exact.resolve_anchors(ids, [l])
            else:
                unmatched = ids[~matched]
                assert np.array_equal(exact.resolve_anchors(unmatched, [l]), unmatched)
        ids = ids[matched]
        got = exact.target_probs(ids, targets)
        argmax = [exact.resolve_anchors(ids, [l]) for l in range(L)]
        if not len(ids):
            return
        rows = [constrained_rows(exact, latent(corpus, row)) for row in ids]
        assert np.array_equal(got, [row[np.arange(L), targets] for row in rows])
        want = NaivePosterior(corpus).target_probs(ids, targets)
        if integer:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        for l in range(L):
            rows = [exact.predict_row(row, l).argmax() for row in ids]
            assert np.array_equal(argmax[l][:, l], rows)
            others = np.arange(L) != l
            assert np.array_equal(argmax[l][:, others], ids[:, others])

    def test_target_probs_asks_only_masked_positions(self):
        # A masked position is asked; an unmasked one reads targets == ids;
        # a row with nothing masked is asked once, so an unmatched one
        # still raises.
        corpus = make_corpus(["ab", "cb"], weights=[3.0, 1.0])
        a, b, c, m = (corpus.vocab.id(t) for t in "abc?")
        asked = []

        class Counting(ExactPosteriorDenoiser):
            def predict_row(self, ids, position):
                asked.append((tuple(ids.tolist()), position))
                return super().predict_row(ids, position)

        exact = Counting(corpus)
        ids = np.array([[m, b], [a, b], [m, m], [c, m]])
        got = exact.target_probs(ids, np.array([a, b]))
        assert got.tolist() == [[0.75, 1.0], [1.0, 1.0], [0.75, 1.0], [0.0, 1.0]]
        assert asked == [((m, b), 0), ((a, b), 0), ((m, m), 0), ((m, m), 1), ((c, m), 1)]
        assert exact.target_probs(ids, np.array([c, m])).tolist() == [
            [0.25, 0.0], [0.0, 0.0], [0.25, 0.0], [1.0, 0.0]
        ]
        for row in ([a, c], [c, a]):
            with pytest.raises(NoMatchError):
                exact.target_probs(np.array([row]), np.array([a, b]))


FOR_LOOP_P1 = "def f(numbers):\n    for num in numbers:\n        pass\n"
FOR_LOOP_P2 = "def f(values):\n    for val in values:\n        pass\n"


class TestLossQueries:
    """The backoff model's ``target_probs`` and single-position
    ``resolve_anchors`` against the dict oracle's dense rows and
    ``predict_row``, equal, not close."""

    @given(corpus_and_latents(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_backoff_target_probs_equal_constrained_rows(self, drawn, data):
        # Latents over the whole vocabulary (masked neighbours, BOS and EOS
        # contexts, L=1), a prompt that is never masked, and targets that
        # include the mask id.
        corpus, latents = drawn
        model = BackoffCountModel.fit(corpus)
        L, mask_id = corpus.length, corpus.vocab.mask_id
        targets = np.array(data.draw(st.lists(st.integers(0, mask_id), min_size=L, max_size=L)))
        prompt = np.arange(L) < data.draw(st.integers(0, L))
        ids = np.where(prompt & (np.array(latents) == mask_id), 0, latents)
        zs = [LatentSequence(row, mask_id, prompt) for row in ids]
        want = DictBackoffModel.fit(corpus).target_probs(ids, targets)
        assert np.array_equal(model.target_probs(ids, targets), want)
        for l in range(L):
            argmax = [model.predict_row(z.ids, l).argmax() for z in zs]
            assert np.array_equal(model.resolve_anchors(ids, [l])[:, l], argmax)

    def test_backoff_target_probs_on_corrupted_records(self, synth_corpus_built):
        # Full-length latents with prompts, scored at the clean tokens and
        # at the anchor targets (the mask id off the anchors).
        corpus = synth_corpus_built
        model = BackoffCountModel.fit(corpus)
        mask_id = corpus.vocab.mask_id
        rng = np.random.default_rng(5)
        for i in range(6):
            prompt = np.arange(corpus.length) < 2 * i
            x = LatentSequence(corpus.ids[i].copy(), mask_id, prompt)
            zs = [corrupt(x, t, NoiseSchedule(T=8), rng) for t in (0.1, 0.5, 0.9, 1.0)]
            ids = np.stack([z.ids for z in zs])
            rows = np.stack([constrained_rows(model, z) for z in zs])
            anchor_targets = np.where(corpus.omega[i] >= 0.5, x.ids, mask_id)
            for targets in (x.ids, anchor_targets):
                want = rows[:, np.arange(len(x)), targets]
                assert np.array_equal(model.target_probs(ids, targets), want)


class TestResolveAnchors:
    """Each table's ``resolve_anchors`` against ``per_draw_resolve`` row by
    row, each row in its own order (the walk's order filtered by its mask),
    NoMatchError included."""

    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    @given(exact_corpus_and_batch(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_walk_equals_per_draw_resolve(self, kind, drawn, data):
        # Batches with prompts (positions of the order unmasked in every
        # row), unmatched rows, and now and then no row at all.
        corpus, ids, _ = drawn
        L, mask_id = corpus.length, corpus.vocab.mask_id
        ids = ids[: data.draw(st.integers(0, len(ids)))]
        order = data.draw(st.permutations(range(L)))[: data.draw(st.integers(0, L))]
        model = ExactPosteriorDenoiser(corpus) if kind == "exact" else BackoffCountModel.fit(corpus)
        want = []
        for row in ids:
            z = latent(corpus, row)
            try:
                want.append(per_draw_resolve(model, z, [l for l in order if z.is_masked[l]]).ids)
            except NoMatchError:
                want.append(None)
            if want[-1] is None:
                with pytest.raises(NoMatchError):
                    model.resolve_anchors(row[None], order)
            else:
                assert np.array_equal(model.resolve_anchors(row[None], order), [want[-1]])
        before = ids.copy()
        if any(w is None for w in want):
            with pytest.raises(NoMatchError):
                model.resolve_anchors(ids, order)
        else:
            got = model.resolve_anchors(ids, order)
            assert np.array_equal(got, np.reshape(want, ids.shape))
        assert np.array_equal(ids, before)  # the batch is left as it was

    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    def test_positions_unmasked_everywhere_and_empty_batch(self, kind):
        corpus = make_corpus(["abc", "cba"])
        v = corpus.vocab
        m = v.mask_id
        if kind == "exact":
            model, oracle = ExactPosteriorDenoiser(corpus), NaivePosterior(corpus)
        else:
            model, oracle = BackoffCountModel.fit(corpus), DictBackoffModel.fit(corpus)
        # "aaa" matches no corpus row; with no masked position in the order
        # nothing is committed in it, so nothing raises.
        ids = np.array([[v.id("a")] * 3, [v.id("a"), m, m], [v.id("c"), v.id("b"), m]])
        assert np.array_equal(model.resolve_anchors(ids, [0]), ids)
        got = model.resolve_anchors(ids[1:], [2, 1, 0])
        assert np.array_equal(got, oracle.resolve_anchors(ids[1:], [2, 1, 0]))
        assert not (got == m).any()
        for order in ([], [0, 1, 2]):
            assert model.resolve_anchors(ids[:0], order).shape == (0, 3)


class TestTwoStage:
    def _loop_corpus(self):
        config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        sources = [FOR_LOOP_P1, FOR_LOOP_P2]
        records = [annotate_program(s, config, str(i)) for i, s in enumerate(sources)]
        vocab = build_vocab(sources)
        corpus = build_corpus(records, vocab)
        return corpus, records, vocab

    def test_anchor_commit_resolves_dependent_token(self):
        corpus, records, vocab = self._loop_corpus()
        den = ExactPosteriorDenoiser(corpus)
        ids = corpus.ids[0].copy()
        texts = [vocab.surface(int(i)) for i in ids]
        # Mask the loop variable and iterable of "for num in numbers:"; the
        # visible header parameter still pins the program.
        loop_var = texts.index("num")
        iterable = texts.index("numbers", texts.index("for"))
        ids[loop_var] = vocab.mask_id
        ids[iterable] = vocab.mask_id
        omega, eta = corpus.omega[0], corpus.eta[0]
        full = anchor_commit_order(omega, eta, np.ones(len(ids), dtype=bool))
        (y_hat,) = den.resolve_anchors(ids[None], full)
        assert y_hat[iterable] == vocab.id("numbers")
        # More than half the mass on "num" makes it the composition's argmax.
        (final,) = two_stage_predict(den, den, ids[None], corpus.ids[0], omega, eta)
        assert final[loop_var] > 0.5

    def test_null_omega_reduces_to_single_stage(self, synth_corpus_built):
        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        x = LatentSequence(corpus.ids[1].copy(), corpus.vocab.mask_id)
        z = corrupt(x, 0.8, NoiseSchedule(T=4), 3)
        omega = np.zeros(len(z))
        mask_id = corpus.vocab.mask_id
        for targets in (x.ids, corpus.ids[2]):
            composed = two_stage_predict(den, den, z.ids[None], targets, omega, omega)
            assert np.array_equal(composed, den.target_probs(z.ids[None], targets))

    def test_fully_unmasked_identity(self):
        corpus, records, vocab = self._loop_corpus()
        den = ExactPosteriorDenoiser(corpus)
        ids = corpus.ids[1][None]
        (anchor_m,) = den.target_probs(ids, corpus.ids[1])
        (final_m,) = two_stage_predict(
            den, den, ids, corpus.ids[1], corpus.omega[1], corpus.eta[1]
        )
        assert (anchor_m == 1.0).all()
        assert (final_m == 1.0).all()

    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    @given(exact_corpus_and_batch(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_loss_pair_is_two_stage_predict(self, kind, drawn, data):
        # The loss pair scores a batch as the composition under the
        # caller's (omega, eta), bit for bit, a NoMatchError included.
        corpus, ids, _ = drawn
        L = corpus.length
        value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
        omega = np.array(data.draw(st.lists(value, min_size=L, max_size=L)))
        eta = np.array(data.draw(st.lists(value, min_size=L, max_size=L)))
        targets = corpus.ids[data.draw(st.integers(0, corpus.n - 1))]
        model = {"exact": ExactPosteriorDenoiser, "backoff": BackoffCountModel.fit}[kind](corpus)
        pair = TwoStagePredictor(model, model, omega, eta)
        assert isinstance(pair, AnchoredPair)
        try:
            want = two_stage_predict(model, model, ids, targets, omega, eta)
        except NoMatchError:
            with pytest.raises(NoMatchError):
                pair.target_probs(ids, targets)
        else:
            got = pair.target_probs(ids, targets)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert omega.flags.writeable and eta.flags.writeable

    def test_loss_pair_has_one_predictor(self, synth_corpus_built):
        corpus = synth_corpus_built
        exact, backoff = ExactPosteriorDenoiser(corpus), BackoffCountModel.fit(corpus)
        with pytest.raises(ValueError, match="one predictor"):
            TwoStagePredictor(exact, backoff, corpus.omega[0], corpus.eta[0])

    def test_batch_scoring_rejects_a_latent_profile(self, synth_corpus_built):
        # The posterior profile reads one latent, so it has no (omega, eta)
        # for a batch of them.
        corpus = synth_corpus_built
        pair = build_strategy_predictors(corpus, AnchorStrategy.ANCHOR_TREE, "exact")
        x = LatentSequence(corpus.ids[0].copy(), corpus.vocab.mask_id)
        with pytest.raises(TypeError, match="PosteriorAnchorProfile"):
            pair.target_probs(corpus.ids[:2], x.ids)
        with pytest.raises(TypeError, match="MarginalAnchorProfile"):
            nelbo(x, pair, NoiseSchedule(T=4), 8, 0)

    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    def test_intermediate_is_resolve_anchors(self, synth_corpus_built, kind):
        corpus = synth_corpus_built
        model = (
            ExactPosteriorDenoiser(corpus)
            if kind == "exact"
            else BackoffCountModel.fit(corpus)
        )
        seen = []

        class Recorder:
            """The denoiser stage, recording the rows it is asked to score."""

            def target_probs(self, ids, targets):
                seen.append(ids.copy())
                return model.target_probs(ids, targets)

        rng = np.random.default_rng(17)
        for i in range(6):
            x = LatentSequence(corpus.ids[i].copy(), corpus.vocab.mask_id)
            z = corrupt(x, 0.8, NoiseSchedule(T=8), rng)
            omega, eta = corpus.omega[i], corpus.eta[i]
            two_stage_predict(model, Recorder(), z.ids[None], x.ids, omega, eta)
            (y,) = seen.pop()
            order = anchor_commit_order(omega, eta, z.is_masked)
            assert np.array_equal(y, per_draw_resolve(model, z, order).ids)

    def test_resolve_anchors_stays_in_support(self, synth_corpus_built):
        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        mask_id = corpus.vocab.mask_id
        rng = np.random.default_rng(23)
        for i in range(6):
            x = LatentSequence(corpus.ids[i].copy(), mask_id)
            z = corrupt(x, 0.9, NoiseSchedule(T=8), rng)
            omega, eta = corpus.omega[i], corpus.eta[i]
            order = anchor_commit_order(omega, eta, z.is_masked)
            full = anchor_commit_order(omega, eta, np.ones(len(z), dtype=bool))
            (y,) = den.resolve_anchors(z.ids[None], full)
            rest = np.setdiff1d(np.arange(len(z)), order)
            assert not (y[order] == mask_id).any()
            assert np.array_equal(y[rest], z.ids[rest])
            assert z.is_masked[order].all()  # z itself is left as it was
            assert den.match_mask(y).any()

    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    def test_batched_resolve_equals_per_draw(self, synth_corpus_built, kind):
        # One batch of latents at several noise levels, prompts included,
        # resolved together in the record's full order, against each latent
        # resolved alone in its own order; and the composition's target
        # probabilities against the per-draw composition, gathered.
        corpus = synth_corpus_built
        mask_id = corpus.vocab.mask_id
        model = (
            ExactPosteriorDenoiser(corpus)
            if kind == "exact"
            else BackoffCountModel.fit(corpus)
        )
        rng = np.random.default_rng(31)
        for i in range(4):
            omega, eta = corpus.omega[i], corpus.eta[i]
            prompt = np.arange(corpus.length) < 3 * i
            x = LatentSequence(corpus.ids[i].copy(), mask_id, prompt)
            zs = [corrupt(x, t, NoiseSchedule(T=8), rng) for t in (0.3, 0.6, 0.9, 1.0) * 3]
            ids = np.stack([z.ids for z in zs])
            full = anchor_commit_order(omega, eta, np.ones(len(x), dtype=bool))
            resolved = model.resolve_anchors(ids, full)
            pair = TwoStagePredictor(model, model, omega, eta)
            probs = pair.target_probs(ids, x.ids)
            assert np.array_equal(ids, [z.ids for z in zs])  # the batch is left as it was
            for z, y, row in zip(zs, resolved, probs):
                order = anchor_commit_order(omega, eta, z.is_masked)
                assert np.array_equal(y, per_draw_resolve(model, z, order).ids)
                _, final = per_draw_two_stage(model, model, z, omega, eta)
                assert np.array_equal(row, final[np.arange(len(x)), x.ids])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_full_order_filtered_by_mask_is_the_latent_order(self, data):
        L = data.draw(st.integers(1, 12))
        # A few fixed values among the floats, so that weights tie.
        value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
        omega = np.array(data.draw(st.lists(value, min_size=L, max_size=L)))
        eta = np.array(data.draw(st.lists(value, min_size=L, max_size=L)))
        masked = np.array(data.draw(st.lists(st.booleans(), min_size=L, max_size=L)))
        full = anchor_commit_order(omega, eta, np.ones(L, dtype=bool))
        assert [l for l in full if masked[l]] == anchor_commit_order(omega, eta, masked)

    def test_commit_order_deterministic(self):
        omega = np.array([1, 1, 0, 1, 1])
        eta = np.array([0.1, 0.3, 0.9, 0.3, 0.05])
        masked = np.array([True, True, True, True, True])
        order = anchor_commit_order(omega, eta, masked)
        assert order == [1, 3, 0, 4]

    def test_perfect_pair_is_perfect(self, synth_corpus_built):
        from .test_diffusion import OneHotPredictor

        corpus = synth_corpus_built
        x = LatentSequence(corpus.ids[0].copy(), corpus.vocab.mask_id)
        oracle = OneHotPredictor(x, corpus.vocab)
        pair = TwoStagePredictor(oracle, oracle, corpus.omega[0], corpus.eta[0])
        z = corrupt(x, 0.9, NoiseSchedule(T=4), 8)
        (final,) = pair.target_probs(z.ids[None], x.ids)
        assert (final == 1.0).all()


class TestIdArrayQueries:
    """Every predictor query reads the latent's id array: with
    ``LatentSequence`` made to raise on construction, generation and the
    batched queries give the outputs they gave before."""

    def test_queries_build_no_latent_sequence(self, synth_corpus_built, monkeypatch):
        corpus = synth_corpus_built
        rng = np.random.default_rng(41)
        xs = [latent(corpus, corpus.ids[i]) for i in range(4)]
        ids = np.stack([corrupt(x, t, NoiseSchedule(T=8), rng).ids for x in xs for t in (0.4, 0.9)])
        targets, omega, eta = corpus.ids[0], corpus.omega[0], corpus.eta[0]
        order = anchor_commit_order(omega, eta, np.ones(corpus.length, dtype=bool))
        exact, backoff = ExactPosteriorDenoiser(corpus), BackoffCountModel.fit(corpus)
        runs = [
            lambda: exact.target_probs(ids, targets),
            lambda: exact.resolve_anchors(ids, order),
            lambda: two_stage_predict(exact, exact, ids, targets, omega, eta),
            lambda: two_stage_predict(backoff, backoff, ids, targets, omega, eta),
        ]
        for kind in ("exact", "backoff"):
            for strategy in AnchorStrategy:
                pair = build_strategy_predictors(corpus, strategy, kind)
                cfg = SamplerConfig(
                    T=16, remask_rate=default_remask_rate(strategy),
                    strategy=AnchorConfig.for_strategy(strategy),
                )

                def run(pair=pair, cfg=cfg):
                    out, trace = generate([], 64, pair, cfg, NoiseSchedule(T=16), 7)
                    return out, trace.to_jsonl()

                runs.append(run)
        before = [run() for run in runs]

        def forbidden(*args, **kwargs):
            raise AssertionError("a predictor query built a LatentSequence")

        monkeypatch.setattr(LatentSequence, "__init__", forbidden)
        for run, want in zip(runs, before):
            got = run()
            if isinstance(want, tuple):
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            else:
                assert np.array_equal(got, want)


class TestProfiles:
    def test_profile_arrays_are_read_only(self, synth_corpus_built):
        corpus = synth_corpus_built
        v = corpus.vocab
        all_masked = LatentSequence(np.full(corpus.length, v.mask_id), v.mask_id)
        first = corpus.ids[0]
        positions = np.arange(corpus.length)
        unmatched = latent(corpus, np.where(positions == 0, 0, v.mask_id))
        exact = ExactPosteriorDenoiser(corpus)
        cases = [
            # The exact model's consistent set as built, filtered by commits
            # and rebuilt after remasks.
            exact.posterior(all_masked.ids),
            exact.posterior(np.where(positions < 3, first, v.mask_id)),
            exact.posterior(np.where(positions == 1, first, v.mask_id)),
            MarginalAnchorProfile.of_corpus(corpus)(all_masked.ids),
            MarginalAnchorProfile.zeros(corpus.length)(all_masked.ids),
            PosteriorAnchorProfile(exact)(first),
        ]
        with pytest.raises(NoMatchError):
            PosteriorAnchorProfile(exact)(unmatched.ids)
        for omega, eta in cases:
            for values in (omega, eta):
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 0.5
                with pytest.raises(ValueError, match="read-only"):
                    values += 1.0

    def test_posterior_profile_sharpens_with_matches(self, synth_corpus_built):
        corpus = synth_corpus_built
        prof = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))
        v = corpus.vocab
        all_masked = LatentSequence(np.full(corpus.length, v.mask_id), v.mask_id)
        marginal_omega, _ = prof(all_masked.ids)
        z = latent(corpus, corpus.ids[0])
        exact_omega, exact_eta = prof(z.ids)
        assert np.allclose(exact_omega, corpus.omega[0])
        assert np.allclose(exact_eta, corpus.eta[0])
        w = corpus.weights / corpus.weights.sum()
        assert np.allclose(marginal_omega, w @ corpus.omega)

    def test_profile_follows_a_new_set_of_the_same_size(self):
        # An overwrite swaps one consistent row for another: the set keeps
        # its size, but the profile is the new row's.
        corpus = make_corpus(["ab", "cd"], weights=[2.0, 0.5])
        corpus.omega = np.array([[1.0, 0.0], [0.0, 1.0]])
        corpus.eta = np.array([[0.25, 0.5], [0.75, 1.0]])
        v = corpus.vocab
        prof = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))
        z = latent(corpus, [v.id("a"), v.mask_id])
        for first, row in (("a", 0), ("c", 1), ("a", 0)):
            z.ids[0] = v.id(first)
            omega, eta = prof(z.ids)
            assert omega.tolist() == corpus.omega[row].tolist()
            assert eta.tolist() == corpus.eta[row].tolist()
        z.ids[0] = v.mask_id
        omega, _ = prof(z.ids)
        assert omega.tolist() == [0.8, 0.2]

    def test_pickled_profile_arrays_stay_read_only(self, synth_corpus_built):
        # sample --workers pickles the pair, and pickle drops numpy's flag.
        corpus = synth_corpus_built
        v = corpus.vocab
        pair = build_strategy_predictors(corpus, AnchorStrategy.ANCHOR_TREE, "exact")
        z = LatentSequence(np.full(corpus.length, v.mask_id), v.mask_id)
        pair.profile(z.ids)  # the all-rows profile
        z.ids[:3] = corpus.ids[0, :3]
        pair.profile(z.ids)  # a profile of fewer rows, kept as the last one
        copy = pickle.loads(pickle.dumps(pair))
        assert copy.profile.exact is copy.predictor
        kept = [copy.profile._prior, copy.profile._last]
        assert not any(a.flags.writeable for a in kept)
        for latent_ids in (z.ids, np.full(corpus.length, v.mask_id), corpus.ids[1]):
            omega, eta = copy.profile(latent_ids.copy())
            assert not omega.flags.writeable and not eta.flags.writeable

    @pytest.mark.parametrize("eta", [1e308, np.inf])
    def test_profiles_reject_sums_that_overflow(self, eta):
        # Three copies of a row with eta 1e308 sum past the float range.
        corpus = make_corpus(["ab", "ab", "ab", "cd"])
        corpus.omega = np.ones(corpus.ids.shape)
        corpus.eta = np.full(corpus.ids.shape, eta)
        with pytest.raises(ValueError, match="overflows"):
            PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))
        if eta == np.inf:
            with pytest.raises(ValueError, match="overflows"):
                MarginalAnchorProfile.of_corpus(corpus)
        else:
            # Normalized weights keep the marginal mean within range.
            omega, eta_hat = MarginalAnchorProfile.of_corpus(corpus)(np.array([4, 4]))
            assert np.isfinite(eta_hat).all()

    def test_marginal_profile_constant(self, synth_corpus_built):
        corpus = synth_corpus_built
        prof = MarginalAnchorProfile.of_corpus(corpus)
        v = corpus.vocab
        a = prof(np.full(corpus.length, v.mask_id))
        b = prof(corpus.ids[2])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@st.composite
def annotated_corpus_and_latent(draw):
    n = draw(st.integers(1, 6))
    L = draw(st.integers(1, 6))

    def table(elements):
        row = st.lists(elements, min_size=L, max_size=L)
        return np.array(draw(st.lists(row, min_size=n, max_size=n)))

    vocab = Vocab(("a", "b", "c", "d", "<pad>", "?"))
    corpus = Corpus(
        ids=table(st.integers(0, 3)),
        weights=np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), float),
        vocab=vocab,
        omega=table(st.sampled_from([0.0, 1.0])),
        eta=table(st.integers(0, 8)) / 8,
    )
    # Latent tokens range over the vocabulary and the mask, so some latents
    # match no corpus row.
    tokens = st.sampled_from([0, 1, 2, 3, vocab.mask_id])
    z_ids = np.array(draw(st.lists(tokens, min_size=L, max_size=L)))
    return corpus, LatentSequence(z_ids, vocab.mask_id)


class TestPosteriorProfileOracle:
    @settings(max_examples=200, deadline=None)
    @given(annotated_corpus_and_latent())
    def test_matches_oracle_consistent_rows(self, case):
        corpus, z = case
        profile = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))
        if naive_consistent_rows(corpus, z):
            assert_profile_is_all_rows_mean(profile(z.ids), corpus, z)
        else:
            with pytest.raises(NoMatchError):
                profile(z.ids)

    def test_equals_all_rows_mean_on_synth_200(self, synth200_corpus):
        corpus = synth200_corpus
        mask_id = corpus.vocab.mask_id
        pair = build_strategy_predictors(corpus, AnchorStrategy.ANCHOR_TREE, "exact")
        # The latents anchored generation queries the profile with.
        queried = []

        def recording(ids):
            queried.append(ids.copy())
            return pair.profile(ids)

        cfg = SamplerConfig(
            T=16, remask_rate=0.1, strategy=AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        )
        for j in range(3):
            generate([], 64, AnchoredPair(pair.predictor, recording), cfg, NoiseSchedule(T=16), j)
        # Corrupted corpus rows.
        corrupted = [
            corrupt(latent(corpus, corpus.ids[i]), t, NoiseSchedule(T=4), i).ids
            for i in range(0, corpus.n, 10)
            for t in (0.3, 0.6, 0.9)
        ]
        assert len(queried) > 20
        profile = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))
        for ids in queried + corrupted:
            z = latent(corpus, ids)
            assert_profile_is_all_rows_mean(profile(z.ids), corpus, z)
        # A latent no row matches.
        unmatched = np.full(corpus.length, mask_id)
        unmatched[:2] = corpus.ids[0, 1], corpus.ids[0, 0]
        with pytest.raises(NoMatchError):
            profile(unmatched)


# The unique-row sums and the all-rows weighted mean round differently.
PROFILE_TOL = 1e-12


def assert_profile_is_all_rows_mean(profile, corpus, z) -> None:
    """The profile equals the all-rows weighted mean within PROFILE_TOL, and
    its anchor order is the mean's, except that a position whose mean omega
    lies within PROFILE_TOL of the 0.5 threshold may join or leave it, and
    two positions whose omega * eta differ by less than PROFILE_TOL may
    swap."""
    omega, eta = profile
    ref_omega, ref_eta = all_rows_profile(corpus, z)
    assert np.allclose(omega, ref_omega, rtol=0, atol=PROFILE_TOL)
    assert np.allclose(eta, ref_eta, rtol=0, atol=PROFILE_TOL)
    order = anchor_commit_order(omega, eta, z.is_masked)
    ref_order = anchor_commit_order(ref_omega, ref_eta, z.is_masked)
    at_threshold = set(np.flatnonzero(np.abs(ref_omega - 0.5) < PROFILE_TOL).tolist())
    assert not (set(order) ^ set(ref_order)) - at_threshold
    both = set(order) & set(ref_order)
    order = [l for l in order if l in both]
    rank = {l: r for r, l in enumerate(l for l in ref_order if l in both)}
    key = ref_omega * ref_eta
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if rank[a] > rank[b]:
                assert abs(key[a] - key[b]) < PROFILE_TOL, (a, b)


@st.composite
def match_state_walk(draw):
    """A corpus with repeated rows, each copy carrying its own omega/eta and
    a weight in 1..5, plus a walk of latent edits: unmask, several commits
    at once, remask, token overwrite, a fresh random latent, and a pickle
    round-trip."""
    L = draw(st.integers(1, 6))
    token = st.integers(0, 3)
    distinct = draw(st.lists(st.lists(token, min_size=L, max_size=L), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    n = len(picks)

    def table(elements):
        row = st.lists(elements, min_size=L, max_size=L)
        return np.array(draw(st.lists(row, min_size=n, max_size=n)))

    vocab = Vocab(("a", "b", "c", "d", "<pad>", "?"))
    ids = np.array([distinct[i] for i in picks])
    corpus = Corpus(
        ids=ids,
        weights=np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), float),
        vocab=vocab,
        omega=table(st.sampled_from([0.0, 1.0])),
        eta=table(st.integers(0, 8)) / 8,
    )
    position = st.integers(0, L - 1)
    # Unmasking to a corpus row's token keeps some matches along the walk.
    unmask = st.tuples(position, st.integers(0, n - 1)).map(
        lambda s: ("set", s[0], int(ids[s[1], s[0]]))
    )
    # Several masked positions unmasked to one corpus row's tokens in one
    # edit, so that one query filters the consistent rows on several columns.
    commits = st.tuples(
        st.just("commit"), st.lists(position, min_size=1, max_size=L, unique=True),
        st.integers(0, n - 1),
    )
    remask = st.tuples(st.just("set"), position, st.just(vocab.mask_id))
    overwrite = st.tuples(st.just("set"), position, token)
    step = st.one_of(
        unmask,
        commits,
        remask,
        overwrite,
        st.tuples(
            st.just("fresh"),
            st.lists(st.sampled_from([0, 1, 2, 3, vocab.mask_id]), min_size=L, max_size=L),
        ),
        st.tuples(st.just("pickle")),
    )
    return corpus, draw(st.lists(step, min_size=1, max_size=12))


class TestPosteriorArrays:
    """``posterior`` returns the previous arrays exactly when the set of
    consistent rows is unchanged, and the profile then keeps its answer.
    Column 2 of the corpus is agreed (every row holds "x"); columns 0 and
    1 vary."""

    @staticmethod
    def table():
        corpus = make_corpus(["abx", "cbx", "cdx"], weights=[2.0, 1.0, 1.0])
        corpus.omega = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        corpus.eta = corpus.omega / 4
        den = ExactPosteriorDenoiser(corpus)
        return corpus, corpus.vocab, den, PosteriorAnchorProfile(den)

    @staticmethod
    def assert_kept(den, prof, z, kept, profile):
        assert all(a is b for a, b in zip(den.posterior(z.ids), kept))
        omega, eta = prof(z.ids)
        assert omega.base is eta.base is profile

    def test_commit_and_remask_at_an_agreed_column_keep_the_arrays(self):
        corpus, v, den, prof = self.table()
        x = v.id("x")
        z = latent(corpus, [v.mask_id] * 3)
        for first in (v.mask_id, v.id("c")):  # all rows, then two of them
            z.ids[0] = first
            kept, profile = den.posterior(z.ids), prof(z.ids)[0].base
            for token in (x, v.mask_id, x, v.mask_id):
                z.ids[2] = token
                self.assert_kept(den, prof, z, kept, profile)
        assert kept[0].tolist() == [1, 2]

    def test_remask_that_lets_no_row_back_keeps_the_arrays(self):
        corpus, v, den, prof = self.table()
        z = latent(corpus, [v.id("a"), v.mask_id, v.mask_id])
        kept, profile = den.posterior(z.ids), prof(z.ids)[0].base
        assert kept[0].tolist() == [0]
        # "b" at column 1 removes no row of {"abx"}, and its remask, at a
        # varying column, lets none back: the row with "a" is still alone.
        for token in (v.id("b"), v.mask_id):
            z.ids[1] = token
            self.assert_kept(den, prof, z, kept, profile)

    def test_remask_that_lets_a_row_back_makes_new_arrays(self):
        corpus, v, den, prof = self.table()
        z = latent(corpus, [v.id("a"), v.id("b"), v.id("x")])
        narrowed, profile = den.posterior(z.ids), prof(z.ids)[0].base
        assert narrowed[0].tolist() == [0]
        z.ids[0] = v.mask_id  # lets "cbx" back
        grown = den.posterior(z.ids)
        assert grown[0].tolist() == [0, 1] and grown[1].tolist() == [2.0, 1.0]
        assert not any(a is b for a in grown for b in narrowed)
        assert not any(a.flags.writeable for a in grown)
        omega, eta = prof(z.ids)
        assert omega.base is not profile
        assert omega.tolist() == [2 / 3, 1 / 3, 1.0]
        assert eta.tolist() == (omega / 4).tolist()

    def test_off_token_commit_at_an_agreed_column_empties_the_set(self):
        corpus, v, den, prof = self.table()
        z = latent(corpus, [v.mask_id] * 3)
        full = den.posterior(z.ids)
        for back in (v.mask_id, v.id("x")):  # a remask, then an overwrite
            z.ids[2] = v.id("a")  # no row holds "a" there
            empty = den.posterior(z.ids)
            assert empty[0].tolist() == [] and empty[1].tolist() == []
            assert not den.match_mask(z.ids).any()
            for l in range(3):
                with pytest.raises(NoMatchError):
                    den.predict_row(z.ids, l)
            with pytest.raises(NoMatchError):
                prof(z.ids)
            z.ids[2] = back  # the set is rebuilt with every row
            rebuilt = den.posterior(z.ids)
            assert rebuilt[0].tolist() == [0, 1, 2]
            assert rebuilt[1].tolist() == full[1].tolist()
            assert not any(a is b for a in rebuilt for b in empty)
            oracle = naive_posterior(corpus, z)
            for l in range(3):
                assert np.array_equal(den.predict_row(z.ids, l), oracle[l])
            assert prof(z.ids)[0].tolist() == (corpus.weights / 4 @ corpus.omega).tolist()


def fixed_walk():
    """A match-state walk that always reaches the agreed columns: a pad tail
    (columns 4 and 5) and an agreed scaffold column (1, "b"; 3 is "d")
    beside varying ones, with commits and remasks of the agreed tokens,
    off-token commits there, a remask that lets no row back in and one that
    does, fresh latents and a pickle."""
    vocab = Vocab(("a", "b", "c", "d", "<pad>", "?"))
    ids = np.array([[0, 1, 2, 3, 4, 4], [1, 1, 3, 3, 4, 4], [2, 1, 0, 3, 4, 4], [2, 1, 0, 3, 4, 4]])
    corpus = Corpus(
        ids=ids,
        weights=np.array([3.0, 1.0, 2.0, 1.0]),
        vocab=vocab,
        omega=np.array([[1, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0],
                        [0, 0, 1, 1, 0, 0]], float),
        eta=np.arange(24, dtype=float).reshape(4, 6) / 24,
    )
    mask = vocab.mask_id
    steps = [
        ("set", 4, 4), ("set", 1, 1), ("commit", [0, 2], 0), ("set", 4, mask),
        ("set", 0, mask), ("set", 2, mask), ("set", 3, 0), ("set", 5, 4),
        ("set", 3, mask), ("set", 1, 2), ("set", 1, 1), ("commit", [0, 2, 5], 2),
        ("pickle",), ("set", 5, mask), ("fresh", [mask, 1, mask, 3, 4, mask]),
        ("fresh", [1, 1, 3, 2, 4, 4]), ("fresh", [mask, 1, 0, 3, mask, 4]),
    ]
    return corpus, steps


class TestMatchState:
    @settings(max_examples=200, deadline=None)
    @given(match_state_walk())
    @example(fixed_walk())
    def test_one_instance_tracks_the_oracle(self, case):
        corpus, steps = case
        mask_id = corpus.vocab.mask_id
        den = ExactPosteriorDenoiser(corpus)
        # The profile reads the match state of the instance under test.
        prof = PosteriorAnchorProfile(den)
        # One live latent edited in place, as the sampler does.
        z = LatentSequence(np.full(corpus.length, mask_id), mask_id)
        last = den.posterior(z.ids)
        for op, *args in steps:
            if op == "pickle":
                den, prof = pickle.loads(pickle.dumps((den, prof)))
                assert prof.exact is den
                # numpy drops the read-only flag in pickle; unpickling restores it.
                last = den.posterior(z.ids)
                shared = [den.unique_of_row, den._unique_weights, *last]
                assert not any(a.flags.writeable for a in shared)
            elif op == "fresh":
                z.ids[:] = args[0]
            elif op == "commit":
                positions, row = args
                masked = [l for l in positions if z.ids[l] == mask_id]
                z.ids[masked] = corpus.ids[row, masked]
            else:
                z.ids[args[0]] = args[1]
            rows = naive_consistent_rows(corpus, z)
            # The consistent unique rows and summed weights are the oracle's
            # rows, in the arrays of the step before exactly when they are
            # the same rows.
            hit, w = den.posterior(z.ids)
            same = np.array_equal(hit, last[0])
            assert (hit is last[0]) == same and (w is last[1]) == same
            last = hit, w
            assert np.flatnonzero(np.isin(den.unique_of_row, hit)).tolist() == rows
            for h, wh in zip(hit, w):
                assert wh == sum(corpus.weights[i] for i in rows if den.unique_of_row[i] == h)
            assert np.flatnonzero(den.match_mask(z.ids)).tolist() == rows
            if rows:
                oracle = naive_posterior(corpus, z)
                for l in range(corpus.length):
                    assert np.array_equal(den.predict_row(z.ids, l), oracle[l])
                # The profile, kept or not, is a fresh build's and a fresh
                # sum's, bit for bit, and read-only, also after a pickle.
                omega, eta = prof(z.ids)
                fresh = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))(z.ids)
                assert np.array_equal(omega, fresh[0]) and np.array_equal(eta, fresh[1])
                resummed = ResummedProfile(den)(z.ids)
                assert np.array_equal(omega, resummed[0]) and np.array_equal(eta, resummed[1])
                assert not omega.flags.writeable and not eta.flags.writeable
                w = corpus.weights[rows] / corpus.weights[rows].sum()
                assert np.allclose(omega, w @ corpus.omega[rows], rtol=0, atol=1e-12)
                assert np.allclose(eta, w @ corpus.eta[rows], rtol=0, atol=1e-12)
            else:
                with pytest.raises(NoMatchError):
                    den.target_probs(z.ids[None], z.ids)
                with pytest.raises(NoMatchError):
                    den.predict_row(z.ids, 0)
                with pytest.raises(NoMatchError):
                    prof(z.ids)

    def test_rejects_latent_of_other_length(self):
        corpus = make_corpus(["ab", "cd"])
        with pytest.raises(ValueError, match="length"):
            ExactPosteriorDenoiser(corpus).match_mask(np.array([0, 1, 2]))
