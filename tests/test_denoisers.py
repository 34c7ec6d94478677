from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
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
    resolve_anchors,
    two_stage_predict,
)
from anchordiff.diffusion import LatentSequence, Vocab, apply_constraints, corrupt
from anchordiff.schedule import NoiseSchedule

from .conftest import make_corpus
from .oracles import naive_consistent_rows, naive_posterior, validate_prediction


def latent(corpus, ids):
    return LatentSequence(ids=np.array(ids), mask_id=corpus.vocab.mask_id)


class TestExactPosterior:
    def test_unique_match(self):
        corpus = make_corpus(["ab", "cd"])
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.id("b")])
        out = apply_constraints(ExactPosteriorDenoiser(corpus).predict(z), z)
        assert out[0, v.id("a")] == 1.0

    def test_mixture_when_all_masked(self):
        corpus = make_corpus(["ab", "cd"])
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.mask_id])
        out = apply_constraints(ExactPosteriorDenoiser(corpus).predict(z), z)
        assert out[0, v.id("a")] == 0.5
        assert out[0, v.id("c")] == 0.5

    def test_fully_unmasked_identity(self):
        corpus = make_corpus(["ab", "cd"])
        z = latent(corpus, corpus.ids[0])
        out = apply_constraints(ExactPosteriorDenoiser(corpus).predict(z), z)
        assert (out[np.arange(2), corpus.ids[0]] == 1.0).all()

    def test_no_match_raises(self):
        corpus = make_corpus(["ab", "cd"])
        v = corpus.vocab
        z = latent(corpus, [v.id("a"), v.id("d")])
        with pytest.raises(NoMatchError):
            apply_constraints(ExactPosteriorDenoiser(corpus).predict(z), z)

    def test_weighted_mixture(self):
        corpus = make_corpus(["ab", "cb"], weights=[3.0, 1.0])
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.id("b")])
        out = apply_constraints(ExactPosteriorDenoiser(corpus).predict(z), z)
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
                mine = apply_constraints(den.predict(z), z)
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
        full = apply_constraints(den.predict(z), z)
        for l in range(0, len(z), 7):
            assert np.allclose(den.predict_row(z, l), full[l], atol=1e-12)


class TestBackoff:
    def _tiny(self, weight=100.0):
        return make_corpus(["abc"], weights=[weight])

    def test_both_neighbors_masked_gives_unigram(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.mask_id] * 3)
        row = model.predict_row(z, 1)
        # unigram counts: a, b, c each 100; Laplace over 4 non-mask tokens
        expected = np.array([101, 101, 101, 1, 0], float) / 304
        assert np.allclose(row, expected)

    def test_pair_context_near_one_hot(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.id("a"), v.mask_id, v.id("c")])
        row = model.predict_row(z, 1)
        assert row[v.id("b")] == pytest.approx(101 / 104)
        assert row[v.id("a")] == pytest.approx(1 / 104)

    def test_unseen_pair_falls_back_to_left(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        # (a, b) as (left, right) context never occurs; left-only stats for
        # "a" say "b" follows.
        z = latent(corpus, [v.id("a"), v.mask_id, v.id("b")])
        row = model.predict_row(z, 1)
        assert row[v.id("b")] == pytest.approx(101 / 104)

    def test_masked_left_neighbor_uses_right(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.mask_id, v.mask_id, v.id("c")])
        row = model.predict_row(z, 1)
        assert row[v.id("b")] == pytest.approx(101 / 104)

    def test_total_on_arbitrary_input(self):
        corpus = self._tiny()
        model = BackoffCountModel.fit(corpus)
        v = corpus.vocab
        z = latent(corpus, [v.id("c"), v.mask_id, v.id("a")])
        out = apply_constraints(model.predict(z), z)
        validate_prediction(out, z)

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
        assert np.array_equal(model.predict(z), clone.predict(z))

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
            pe = apply_constraints(exact.predict(z), z)
            pb = apply_constraints(backoff.predict(z), z)
            ce_e = -np.log(pe[masked, x.ids[masked]]).sum()
            ce_b = -np.log(np.maximum(pb[masked, x.ids[masked]], 1e-300)).sum()
            diffs.append(ce_b - ce_e)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() > 2 * se


FOR_LOOP_P1 = "def f(numbers):\n    for num in numbers:\n        pass\n"
FOR_LOOP_P2 = "def f(values):\n    for val in values:\n        pass\n"


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
        z = latent(corpus, ids)
        anchor_m, final_m, y_hat = two_stage_predict(
            den, den, z, corpus.omega[0], corpus.eta[0]
        )
        assert y_hat.ids[iterable] == vocab.id("numbers")
        assert int(np.argmax(final_m[loop_var])) == vocab.id("num")

    def test_null_omega_reduces_to_single_stage(self, synth_corpus_built):
        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        x = LatentSequence(corpus.ids[1].copy(), corpus.vocab.mask_id)
        z = corrupt(x, 0.8, NoiseSchedule(T=4), 3)
        omega = np.zeros(len(z))
        anchor_m, final_m, y_hat = two_stage_predict(den, den, z, omega, omega)
        assert (y_hat.ids == z.ids).all()
        direct = apply_constraints(den.predict(z), z)
        assert np.array_equal(final_m, direct)

    def test_fully_unmasked_identity(self):
        corpus, records, vocab = self._loop_corpus()
        den = ExactPosteriorDenoiser(corpus)
        z = latent(corpus, corpus.ids[1])
        anchor_m, final_m, y_hat = two_stage_predict(
            den, den, z, corpus.omega[1], corpus.eta[1]
        )
        idx = np.arange(corpus.length)
        assert (anchor_m[idx, corpus.ids[1]] == 1.0).all()
        assert (final_m[idx, corpus.ids[1]] == 1.0).all()

    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    def test_intermediate_is_resolve_anchors(self, synth_corpus_built, kind):
        corpus = synth_corpus_built
        model = (
            ExactPosteriorDenoiser(corpus)
            if kind == "exact"
            else BackoffCountModel.fit(corpus)
        )
        rng = np.random.default_rng(17)
        for i in range(6):
            x = LatentSequence(corpus.ids[i].copy(), corpus.vocab.mask_id)
            z = corrupt(x, 0.8, NoiseSchedule(T=8), rng)
            omega, eta = corpus.omega[i], corpus.eta[i]
            _, _, y = two_stage_predict(model, model, z, omega, eta)
            order = anchor_commit_order(omega, eta, z.is_masked)
            assert np.array_equal(y.ids, resolve_anchors(model, z, order).ids)

    def test_resolve_anchors_stays_in_support(self, synth_corpus_built):
        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        rng = np.random.default_rng(23)
        for i in range(6):
            x = LatentSequence(corpus.ids[i].copy(), corpus.vocab.mask_id)
            z = corrupt(x, 0.9, NoiseSchedule(T=8), rng)
            order = anchor_commit_order(corpus.omega[i], corpus.eta[i], z.is_masked)
            y = resolve_anchors(den, z, order)
            rest = np.setdiff1d(np.arange(len(z)), order)
            assert not y.is_masked[order].any()
            assert np.array_equal(y.ids[rest], z.ids[rest])
            assert z.is_masked[order].all()  # z itself is left as it was
            assert den.match_mask(y).any()

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
        oracle = OneHotPredictor(x, corpus.vocab.size)
        pair = TwoStagePredictor(oracle, oracle, corpus.omega[0], corpus.eta[0])
        z = corrupt(x, 0.9, NoiseSchedule(T=4), 8)
        _, final = pair.stage_matrices(z)
        assert (final[np.arange(len(x)), x.ids] == 1.0).all()


class TestProfiles:
    def test_posterior_profile_sharpens_with_matches(self, synth_corpus_built):
        corpus = synth_corpus_built
        prof = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))
        v = corpus.vocab
        all_masked = LatentSequence(np.full(corpus.length, v.mask_id), v.mask_id)
        marginal_omega, _ = prof(all_masked)
        z = latent(corpus, corpus.ids[0])
        exact_omega, exact_eta = prof(z)
        assert np.allclose(exact_omega, corpus.omega[0])
        assert np.allclose(exact_eta, corpus.eta[0])
        w = corpus.weights / corpus.weights.sum()
        assert np.allclose(marginal_omega, w @ corpus.omega)

    def test_marginal_profile_constant(self, synth_corpus_built):
        corpus = synth_corpus_built
        prof = MarginalAnchorProfile.of_corpus(corpus)
        v = corpus.vocab
        a = prof(LatentSequence(np.full(corpus.length, v.mask_id), v.mask_id))
        b = prof(latent(corpus, corpus.ids[2]))
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
        rows = naive_consistent_rows(corpus, z) or list(range(corpus.n))
        w = corpus.weights[rows]
        expected_omega = sum(wi * corpus.omega[i] for wi, i in zip(w, rows)) / w.sum()
        expected_eta = sum(wi * corpus.eta[i] for wi, i in zip(w, rows)) / w.sum()
        omega, eta = PosteriorAnchorProfile(ExactPosteriorDenoiser(corpus))(z)
        assert np.allclose(omega, expected_omega, rtol=0, atol=1e-12)
        assert np.allclose(eta, expected_eta, rtol=0, atol=1e-12)


@st.composite
def match_state_walk(draw):
    """A corpus with repeated rows, each copy carrying its own omega/eta and
    a weight in 1..5, plus a walk of latent edits: unmask, remask, token
    overwrite, a fresh random latent, and a pickle round-trip."""
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
    remask = st.tuples(st.just("set"), position, st.just(vocab.mask_id))
    overwrite = st.tuples(st.just("set"), position, token)
    step = st.one_of(
        unmask,
        remask,
        overwrite,
        st.tuples(
            st.just("fresh"),
            st.lists(st.sampled_from([0, 1, 2, 3, vocab.mask_id]), min_size=L, max_size=L),
        ),
        st.tuples(st.just("pickle")),
    )
    return corpus, draw(st.lists(step, min_size=1, max_size=12))


class TestMatchState:
    @settings(max_examples=200, deadline=None)
    @given(match_state_walk())
    def test_one_instance_tracks_the_oracle(self, case):
        corpus, steps = case
        mask_id = corpus.vocab.mask_id
        den = ExactPosteriorDenoiser(corpus)
        # The profile reads the match state of the instance under test.
        prof = PosteriorAnchorProfile(den)
        # One live latent edited in place, as the sampler does.
        z = LatentSequence(np.full(corpus.length, mask_id), mask_id)
        for op, *args in steps:
            if op == "pickle":
                den, prof = pickle.loads(pickle.dumps((den, prof)))
                assert prof.exact is den
            elif op == "fresh":
                z.ids[:] = args[0]
            else:
                z.ids[args[0]] = args[1]
            rows = naive_consistent_rows(corpus, z)
            assert np.flatnonzero(den.match_mask(z)).tolist() == rows
            if rows:
                oracle = naive_posterior(corpus, z)
                assert np.array_equal(apply_constraints(den.predict(z), z), oracle)
                for l in range(corpus.length):
                    assert np.array_equal(den.predict_row(z, l), oracle[l])
            else:
                with pytest.raises(NoMatchError):
                    den.predict(z)
                with pytest.raises(NoMatchError):
                    den.predict_row(z, 0)
            use = rows or list(range(corpus.n))
            w = corpus.weights[use] / corpus.weights[use].sum()
            omega, eta = prof(z)
            assert np.allclose(omega, w @ corpus.omega[use], rtol=0, atol=1e-12)
            assert np.allclose(eta, w @ corpus.eta[use], rtol=0, atol=1e-12)

    def test_rejects_latent_of_other_length(self):
        corpus = make_corpus(["ab", "cd"])
        with pytest.raises(ValueError, match="length"):
            ExactPosteriorDenoiser(corpus).match_mask(latent(corpus, [0, 1, 2]))
