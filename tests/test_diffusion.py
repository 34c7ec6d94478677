from __future__ import annotations

import math

import numpy as np
import pytest

from anchordiff.denoisers import (
    BackoffCountModel,
    ExactPosteriorDenoiser,
    Predictor,
    TwoStagePredictor,
)
from anchordiff.diffusion import (
    ConsistencyError,
    DegenerateRowError,
    LatentSequence,
    anelbo,
    apply_constraints,
    corrupt,
    nelbo,
    reverse_posterior_step,
    temper_row,
)
from anchordiff.schedule import NoiseSchedule, ScheduleKind, alpha

from .conftest import make_corpus
from .oracles import validate_prediction

COS = NoiseSchedule(ScheduleKind.COSINE, 8)


def clean(ids, mask_id, prompt=None):
    return LatentSequence(ids=np.array(ids), mask_id=mask_id, prompt_mask=prompt)


class OneHotPredictor(Predictor):
    """Perfect oracle: always predicts the clean sequence."""

    def __init__(self, x: LatentSequence, K: int):
        self.x = x
        self.K = K

    def predict(self, z):
        raw = np.zeros((len(z), self.K))
        raw[np.arange(len(z)), self.x.ids] = 1.0
        return raw


class UniformPredictor(Predictor):
    def __init__(self, K: int):
        self.K = K

    def predict(self, z):
        return np.ones((len(z), self.K))


class TestCorrupt:
    def test_t_zero_is_identity(self):
        x = clean([0, 1, 2], 5)
        z = corrupt(x, 0.0, COS, 1)
        assert (z.ids == x.ids).all()

    def test_t_one_masks_everything_non_prompt(self):
        prompt = np.array([True, False, False])
        x = clean([0, 1, 2], 5, prompt)
        z = corrupt(x, 1.0, COS, 1)
        assert z.ids.tolist() == [0, 5, 5]

    def test_masked_fraction_matches_alpha(self):
        x = clean(np.zeros(10_000, dtype=int), 5)
        z = corrupt(x, 0.5, COS, 12345)
        frac = z.is_masked.mean()
        assert abs(frac - 0.5) < 0.02  # binomial concentration at alpha(0.5)

    def test_analytic_marginal_at_other_t(self):
        t = 0.3
        x = clean(np.zeros(20_000, dtype=int), 5)
        z = corrupt(x, t, COS, 99)
        assert abs(z.is_masked.mean() - (1 - alpha(COS, t))) < 0.02


class TestReversePosterior:
    def test_final_step_recovers_x(self):
        x = clean([0, 1, 2, 3], 9)
        z = x.copy_with(np.array([9, 9, 9, 9]))
        out = reverse_posterior_step(z, x, 1, COS, 3)
        assert (out.ids == x.ids).all()

    def test_inconsistent_raises(self):
        x = clean([0, 1], 9)
        z = x.copy_with(np.array([1, 9]))
        with pytest.raises(ConsistencyError):
            reverse_posterior_step(z, x, 2, COS, 0)

    def test_single_position_rate(self):
        sched = NoiseSchedule(ScheduleKind.LINEAR, 2)
        x = clean([3], 9)
        rng = np.random.default_rng(7)
        hits = 0
        n = 10_000
        for _ in range(n):
            z = x.copy_with(np.array([9]))
            out = reverse_posterior_step(z, x, 2, sched, rng)
            hits += out.ids[0] == 3
        assert abs(hits / n - 0.5) < 0.02

    def test_forward_reverse_marginal_consistency(self):
        # corrupt to t(i) then one posterior step matches corrupt to s(i).
        sched = NoiseSchedule(ScheduleKind.COSINE, 4)
        i = 3
        s, t = (i - 1) / 4, i / 4
        x = clean(np.zeros(4000, dtype=int), 9)
        rng = np.random.default_rng(11)
        z = corrupt(x, t, sched, rng)
        stepped = reverse_posterior_step(z, x, i, sched, rng)
        direct = corrupt(x, s, sched, rng)
        assert abs(stepped.is_masked.mean() - direct.is_masked.mean()) < 0.02


class TestApplyConstraints:
    def test_uniform_renormalized_over_non_mask(self):
        z = clean([9, 9], 9).copy_with(np.array([9, 9]))
        out = apply_constraints(np.ones((2, 10)), z)
        assert np.allclose(out[:, :9], 1 / 9)
        assert (out[:, 9] == 0).all()

    def test_carry_over_overwrites(self):
        z = clean([4, 9], 9).copy_with(np.array([4, 9]))
        out = apply_constraints(np.ones((2, 10)), z)
        assert out[0, 4] == 1.0 and out[0].sum() == 1.0

    def test_all_mass_on_mask_degenerates(self):
        z = clean([9], 9).copy_with(np.array([9]))
        raw = np.zeros((1, 10))
        raw[0, 9] = 1.0
        with pytest.raises(DegenerateRowError):
            apply_constraints(raw, z)

    def test_idempotent(self):
        z = clean([4, 9], 9).copy_with(np.array([4, 9]))
        rng = np.random.default_rng(0)
        raw = rng.random((2, 10))
        once = apply_constraints(raw, z)
        twice = apply_constraints(once, z)
        assert np.array_equal(once, twice)
        validate_prediction(once, z)

    def test_negative_rejected(self):
        z = clean([9], 9).copy_with(np.array([9]))
        with pytest.raises(ValueError):
            apply_constraints(np.full((1, 10), -1.0), z)


class TestTemper:
    def test_identity_at_one(self):
        row = np.array([0.25, 0.75, 0.0])
        assert np.array_equal(temper_row(row, 1.0), row)

    def test_limit_is_argmax(self):
        row = np.array([0.4, 0.6, 0.0])
        assert temper_row(row, 1e-9).tolist() == [0.0, 1.0, 0.0]

    def test_sharpening_monotone(self):
        row = np.array([0.3, 0.7])
        out = temper_row(row, 0.5)
        assert out[1] > 0.7 and abs(out.sum() - 1) < 1e-12


class TestNelbo:
    def test_perfect_oracle_is_zero(self):
        corpus = make_corpus(["abcd"])
        x = clean(corpus.ids[0], corpus.vocab.mask_id)
        report = nelbo(x, OneHotPredictor(x, corpus.vocab.size), COS, 64, 0)
        assert report.estimate == 0.0
        assert report.stderr < 1e-9

    def test_uniform_predictor_closed_form(self):
        # Summing lambda_i over the mask marginals telescopes to -1 per
        # position, so the uniform predictor's NELBO is L * log(K - 1).
        corpus = make_corpus(["abcd"])
        K = corpus.vocab.size
        x = clean(corpus.ids[0], corpus.vocab.mask_id)
        report = nelbo(x, UniformPredictor(K), COS, 6000, 123)
        expected = 4 * math.log(K - 1)
        assert abs(report.estimate - expected) <= 4 * report.stderr
        assert report.stderr < 0.1

    def test_exact_beats_backoff_gibbs(self, synth_corpus_built):
        corpus = synth_corpus_built
        x = clean(corpus.ids[0], corpus.vocab.mask_id)
        exact = ExactPosteriorDenoiser(corpus)
        backoff = BackoffCountModel.fit(corpus)
        sched = NoiseSchedule(ScheduleKind.COSINE, 8)
        r_exact = nelbo(x, exact, sched, 400, 5)
        r_backoff = nelbo(x, backoff, sched, 400, 5)
        se = math.hypot(r_exact.stderr, r_backoff.stderr)
        assert r_backoff.estimate - r_exact.estimate >= 3 * se

    def test_nonnegative(self, synth_corpus_built):
        corpus = synth_corpus_built
        x = clean(corpus.ids[3], corpus.vocab.mask_id)
        report = nelbo(x, ExactPosteriorDenoiser(corpus), COS, 128, 9)
        assert report.estimate >= 0.0

    def test_infinite_loss_reported_not_raised(self):
        # The Bayes-exact composition pins its intermediate to the majority
        # program; evaluated on the minority one, the denoiser zeroes the
        # true token and the report flags infinity instead of raising.
        corpus = make_corpus(["ab", "cd"], weights=[3.0, 1.0])
        den = ExactPosteriorDenoiser(corpus)
        omega = np.array([1.0, 0.0])
        eta = np.array([1.0, 1.0])
        pair = TwoStagePredictor(den, den, omega, eta)
        x = clean(corpus.ids[1], corpus.vocab.mask_id)  # the minority "cd"
        report = nelbo(x, pair, NoiseSchedule(ScheduleKind.COSINE, 1), 8, 0)
        assert report.estimate == float("inf")
        assert report.n_infinite > 0


class TestAnelbo:
    def _setup(self, synth_corpus_built):
        corpus = synth_corpus_built
        i = 2
        x = clean(corpus.ids[i], corpus.vocab.mask_id)
        omega, eta = corpus.omega[i], corpus.eta[i]
        y = np.where(omega >= 0.5, corpus.ids[i], corpus.vocab.mask_id)
        return corpus, x, omega, eta, y

    def test_mu_zero_equals_nelbo_on_shared_samples(self, synth_corpus_built):
        corpus, x, omega, eta, y = self._setup(synth_corpus_built)
        exact = ExactPosteriorDenoiser(corpus)
        pair = TwoStagePredictor(exact, exact, np.zeros_like(omega), eta)
        mu = np.zeros(len(x))
        a = anelbo(x, y, pair, COS, mu, 200, 77)
        b = nelbo(x, pair, COS, 200, 77)
        assert a.estimate == b.estimate

    def test_perfect_pair_is_zero(self, synth_corpus_built):
        corpus, x, omega, eta, y = self._setup(synth_corpus_built)
        oracle = OneHotPredictor(x, corpus.vocab.size)
        pair = TwoStagePredictor(oracle, oracle, omega, eta)
        mu = omega * eta
        report = anelbo(x, y, pair, COS, mu, 64, 3)
        assert report.estimate == 0.0

    def test_beta_infinity_keeps_only_shallow_positions(self, synth_corpus_built):
        corpus, x, omega, eta, y = self._setup(synth_corpus_built)
        depths = synth_corpus_built.depth[2][: len(x)]
        gamma, d0 = 0.03, 2
        # mu under beta -> infinity equals the hand-masked shallow-only vector
        eta_big = gamma * np.exp(
            -1e6 * np.maximum(np.where(depths < 0, 0, depths) - d0, 0)
        )
        mu_big = omega * eta_big
        mu_oracle = omega * gamma * (np.asarray(depths) <= d0) * (np.asarray(depths) >= 0)
        assert np.allclose(mu_big, mu_oracle)
        exact = ExactPosteriorDenoiser(corpus)
        pair = TwoStagePredictor(exact, exact, omega, eta)
        a = anelbo(x, y, pair, COS, mu_big, 160, 13)
        b = anelbo(x, y, pair, COS, mu_oracle, 160, 13)
        assert a.estimate == b.estimate

    def test_report_json_fields(self, synth_corpus_built):
        import json

        corpus, x, omega, eta, y = self._setup(synth_corpus_built)
        exact = ExactPosteriorDenoiser(corpus)
        report = nelbo(x, exact, COS, 64, 21)
        data = json.loads(report.to_json())
        assert set(data) == {"estimate", "stderr", "n_samples", "seed", "n_infinite"}
        assert data["seed"] == 21
