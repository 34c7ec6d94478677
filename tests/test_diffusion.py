from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    annotate_program,
    build_corpus,
    diffusion,
    synth_corpus,
)
from anchordiff.anchors import compute_anchor_targets
from anchordiff.denoisers import (
    BackoffCountModel,
    ExactPosteriorDenoiser,
    TwoStagePredictor,
)
from anchordiff.diffusion import (
    ConsistencyError,
    DegenerateRowError,
    LatentSequence,
    Vocab,
    anelbo,
    apply_constraints,
    corrupt,
    nelbo,
    reverse_posterior_step,
    temper_row,
)
from anchordiff.schedule import NoiseSchedule, ScheduleKind, alpha

from .conftest import make_corpus
from .oracles import (
    DenseRows,
    anelbo_summand,
    loop_log_sums,
    loop_strata_stats,
    nelbo_summand,
    per_draw_loss,
    validate_prediction,
)

COS = NoiseSchedule(ScheduleKind.COSINE, 8)


def clean(ids, mask_id, prompt=None):
    return LatentSequence(ids=np.array(ids), mask_id=mask_id, prompt_mask=prompt)


class OneHotPredictor(DenseRows):
    """Perfect oracle: always predicts the clean sequence."""

    def __init__(self, x: LatentSequence, vocab: Vocab):
        self.x = x
        self.vocab = vocab

    def predict(self, z):
        raw = np.zeros((len(z), self.vocab.size))
        raw[np.arange(len(z)), self.x.ids] = 1.0
        return raw


class UniformPredictor(DenseRows):
    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def predict(self, z):
        return np.ones((len(z), self.vocab.size))


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

    def test_batch_equals_per_latent(self):
        rng = np.random.default_rng(1)
        zs = [clean(rng.integers(0, 10, size=6), 9) for _ in range(5)]
        raw = rng.random((5, 6, 10)) * 3
        # Latent 0's rows hold no non-mask mass: harmless while it is fully
        # unmasked, degenerate once it is masked.
        raw[0, :, :9] = 0.0
        zs[0] = zs[0].copy_with(np.arange(6))
        batch = apply_constraints(raw, zs)
        for j, z in enumerate(zs):
            assert np.array_equal(batch[j], apply_constraints(raw[j], z))
        zs[0] = zs[0].copy_with(np.full(6, 9))
        with pytest.raises(DegenerateRowError):
            apply_constraints(raw, zs)
        with pytest.raises(ValueError):
            apply_constraints(raw[:, :5], zs)


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
        report = nelbo(x, OneHotPredictor(x, corpus.vocab), COS, 64, 0)
        assert report.estimate == 0.0
        assert report.stderr < 1e-9

    def test_uniform_predictor_closed_form(self):
        # Summing lambda_i over the mask marginals telescopes to -1 per
        # position, so the uniform predictor's NELBO is L * log(K - 1).
        corpus = make_corpus(["abcd"])
        K = corpus.vocab.size
        x = clean(corpus.ids[0], corpus.vocab.mask_id)
        report = nelbo(x, UniformPredictor(corpus.vocab), COS, 6000, 123)
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
        oracle = OneHotPredictor(x, corpus.vocab)
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


class TestBatchedLoss:
    """nelbo/anelbo against the one-draw-at-a-time loop of tests/oracles.py:
    estimate, stderr and n_infinite must be equal, not close."""

    @staticmethod
    def _same(report, expected):
        assert (report.estimate, report.stderr, report.n_infinite, report.n_samples) == (
            expected.estimate,
            expected.stderr,
            expected.n_infinite,
            expected.n_samples,
        )

    def _record(self, corpus, i, prompt_len=0):
        prompt = np.arange(corpus.length) < prompt_len
        x = clean(corpus.ids[i], corpus.vocab.mask_id, prompt)
        mu = corpus.omega[i] * corpus.eta[i]
        targets = np.where(corpus.omega[i] >= 0.5, corpus.ids[i], corpus.vocab.mask_id)
        return x, mu, targets

    def _predictors(self, corpus, x, i):
        exact = ExactPosteriorDenoiser(corpus)
        backoff = BackoffCountModel.fit(corpus)
        onehot = OneHotPredictor(x, corpus.vocab)
        omega, eta = corpus.omega[i], corpus.eta[i]
        return {
            "exact": exact,
            "backoff": backoff,
            "onehot": onehot,
            "two_stage_backoff": TwoStagePredictor(backoff, backoff, omega, eta),
            "two_stage_exact": TwoStagePredictor(exact, exact, omega, eta),
            "two_stage_onehot": TwoStagePredictor(onehot, onehot, omega, eta),
        }

    # 96 draws at T=16 is the loss workload's and eval's setting.
    @pytest.mark.parametrize("n_samples", [5, 16, 37, 96, 100])
    @pytest.mark.parametrize("prompt_len", [0, 9])
    def test_nelbo_equals_per_draw(self, synth_corpus_built, n_samples, prompt_len):
        corpus = synth_corpus_built
        x, _, _ = self._record(corpus, 3, prompt_len)
        sched = NoiseSchedule(ScheduleKind.COSINE, 16)
        for predictor in self._predictors(corpus, x, 3).values():
            got = nelbo(x, predictor, sched, n_samples, 11)
            want = per_draw_loss(x, sched, n_samples, 11, nelbo_summand(x, predictor))
            self._same(got, want)

    @pytest.mark.parametrize("n_samples", [5, 37, 96])
    @pytest.mark.parametrize("prompt_len", [0, 9])
    def test_anelbo_equals_per_draw(self, synth_corpus_built, n_samples, prompt_len):
        corpus = synth_corpus_built
        x, mu, targets = self._record(corpus, 5, prompt_len)
        sched = NoiseSchedule(ScheduleKind.COSINE, 16)
        for name, pair in self._predictors(corpus, x, 5).items():
            if not name.startswith("two_stage"):
                continue
            rng = np.random.default_rng([2, 7, 5])
            got = anelbo(x, targets, pair, sched, mu, n_samples, rng)
            rng = np.random.default_rng([2, 7, 5])
            want = per_draw_loss(
                x, sched, n_samples, rng, anelbo_summand(x, targets, pair, mu)
            )
            self._same(got, want)

    def test_small_batches_equal_per_draw(self, synth_corpus_built, monkeypatch):
        # Batches of 3 draws split every stratum of 7 or 8 draws.
        corpus = synth_corpus_built
        x, mu, targets = self._record(corpus, 2)
        monkeypatch.setattr(diffusion, "LOSS_BATCH_CELLS", 3 * len(x) * corpus.vocab.size)
        sched = NoiseSchedule(ScheduleKind.LINEAR, 8)
        backoff = BackoffCountModel.fit(corpus)
        pair = TwoStagePredictor(backoff, backoff, corpus.omega[2], corpus.eta[2])
        self._same(
            nelbo(x, backoff, sched, 61, 4),
            per_draw_loss(x, sched, 61, 4, nelbo_summand(x, backoff)),
        )
        self._same(
            anelbo(x, targets, pair, sched, mu, 61, 4),
            per_draw_loss(x, sched, 61, 4, anelbo_summand(x, targets, pair, mu)),
        )

    def test_zero_probability_draws_equal_per_draw(self):
        corpus = make_corpus(["ab", "cd"], weights=[3.0, 1.0])
        den = ExactPosteriorDenoiser(corpus)
        omega = np.array([1.0, 0.0])
        eta = np.array([1.0, 1.0])
        pair = TwoStagePredictor(den, den, omega, eta)
        x = clean(corpus.ids[1], corpus.vocab.mask_id)
        targets = np.where(omega >= 0.5, x.ids, corpus.vocab.mask_id)
        sched = NoiseSchedule(ScheduleKind.COSINE, 4)
        got = nelbo(x, pair, sched, 10, 0)
        self._same(got, per_draw_loss(x, sched, 10, 0, nelbo_summand(x, pair)))
        assert got.n_infinite > 0
        got = anelbo(x, targets, pair, sched, omega * eta, 10, 0)
        want = per_draw_loss(x, sched, 10, 0, anelbo_summand(x, targets, pair, omega * eta))
        self._same(got, want)
        assert got.n_infinite > 0

    def test_backoff_losses_build_no_probability_arrays(self, synth_corpus_built, monkeypatch):
        # The backoff model and its composition score a loss through its
        # target_probs and resolve_anchors gathers alone: with
        # apply_constraints and the per-row query made to raise, both
        # losses still run and give the same reports.
        corpus = synth_corpus_built
        x, mu, targets = self._record(corpus, 4, prompt_len=5)
        sched = NoiseSchedule(ScheduleKind.COSINE, 16)
        model = BackoffCountModel.fit(corpus)
        pair = TwoStagePredictor(model, model, corpus.omega[4], corpus.eta[4])
        runs = [
            lambda: nelbo(x, model, sched, 96, 3),
            lambda: nelbo(x, pair, sched, 96, 3),
            lambda: anelbo(x, targets, pair, sched, mu, 96, 3),
        ]
        before = [run() for run in runs]

        def forbidden(*args, **kwargs):
            raise AssertionError("the loss path built a probability array")

        monkeypatch.setattr(diffusion, "apply_constraints", forbidden)
        monkeypatch.setattr(BackoffCountModel, "predict_row", forbidden)
        for run, want in zip(runs, before):
            self._same(run(), want)


    def test_rows_past_the_pairwise_block_equal_per_draw(self, synth_records, synth_vocab):
        # At length 160 the last stratum masks every position, so its draws
        # keep 160 terms, past numpy's 128-term block; the middle strata
        # keep between 8 and 128.
        corpus = build_corpus(synth_records, synth_vocab, length=160)
        x, mu, targets = self._record(corpus, 3)
        sched = NoiseSchedule(ScheduleKind.COSINE, 16)
        predictors = self._predictors(corpus, x, 3)
        for name in ("backoff", "onehot", "two_stage_backoff"):
            predictor = predictors[name]
            got = nelbo(x, predictor, sched, 96, 13)
            self._same(got, per_draw_loss(x, sched, 96, 13, nelbo_summand(x, predictor)))
        pair = predictors["two_stage_backoff"]
        self._same(
            anelbo(x, targets, pair, sched, mu, 96, 13),
            per_draw_loss(x, sched, 96, 13, anelbo_summand(x, targets, pair, mu)),
        )


def _bits(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@st.composite
def log_sum_batches(draw):
    """(probs, use, weights) batches for ``_log_sums``: widths 1 to 200,
    zero probabilities, ones, rows that keep nothing, rows whose kept
    count is a multiple of 8, and positive weights down to subnormals."""
    L = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 16, 17, 128, 129, 200]), st.integers(1, 200)))
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = np.exp(-rng.exponential(draw(st.sampled_from([1e-3, 1.0, 30.0])), (n, L)))
    probs[rng.random((n, L)) < 0.05] = 1.0
    probs[rng.random((n, L)) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = 0.0
    use = rng.random((n, L)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    for j, eights in enumerate(draw(st.lists(st.integers(0, 25), max_size=n))):
        nonzero = (probs[j] != 0).nonzero()[0]
        kept = min(8 * eights, len(nonzero) - len(nonzero) % 8)
        use[j] = False
        use[j, rng.choice(nonzero, kept, replace=False)] = True
    weights = None
    if draw(st.booleans()):
        weights = 10.0 ** rng.uniform(draw(st.sampled_from([-320.0, -3.0])), 3.0, L)
    return probs, use, weights


class TestBatchedSums:
    """The batched sums of the loss against the per-row and per-stratum
    loops of tests/oracles.py, bit for bit, sign included."""

    @settings(max_examples=300, deadline=None)
    @given(log_sum_batches())
    def test_log_sums_equal_row_loop(self, batch):
        probs, use, weights = batch
        sums, hits = diffusion._log_sums(probs, use, weights)
        want_sums, want_hits = loop_log_sums(probs, use, weights)
        assert sums.tobytes() == want_sums.tobytes()
        assert hits.tolist() == want_hits.tolist()

    @pytest.mark.parametrize("kept", [0, 1, 7, 8, 9, 15, 16, 17, 64, 120, 127, 128, 129, 136, 200])
    def test_each_kept_count_equals_row_loop(self, kept):
        rng = np.random.default_rng(kept)
        probs = np.exp(-rng.exponential(1.0, (3, 200)))
        use = np.zeros((3, 200), dtype=bool)
        use[0, :kept] = True
        use[1, rng.choice(200, kept, replace=False)] = True
        use[2, : kept + 3] = True
        probs[2, :3] = 0.0  # three zero hits, skipped ahead of the kept terms
        for weights in (None, rng.uniform(0.1, 2.0, 200)):
            sums, hits = diffusion._log_sums(probs, use, weights)
            want_sums, want_hits = loop_log_sums(probs, use, weights)
            assert sums.tobytes() == want_sums.tobytes()
            assert hits.tolist() == want_hits.tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        T=st.integers(1, 20),
        n_samples=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e12]),
    )
    @example(T=16, n_samples=16, seed=1, scale=1.0)  # one draw per stratum
    @example(T=16, n_samples=96, seed=2, scale=1.0)  # 6
    @example(T=16, n_samples=112, seed=3, scale=1.0)  # 7
    @example(T=16, n_samples=150, seed=4, scale=1.0)  # 10 and 9
    @example(T=7, n_samples=5, seed=5, scale=1.0)  # below T
    def test_strata_stats_equal_stratum_loop(self, T, n_samples, seed, scale):
        counts, lam, keep = diffusion._strata_tables(NoiseSchedule(T=T), n_samples)
        assert list(counts) == diffusion._allocate_strata(n_samples, T)
        assert not lam.flags.writeable and not keep.flags.writeable
        rng = np.random.default_rng(seed)
        vals = scale * rng.exponential(1.0, sum(counts)) + rng.uniform(0, scale)
        got = diffusion._strata_stats(vals, counts)
        assert _bits(*got) == _bits(*loop_strata_stats(vals, counts))


class TestLossPin:
    """repr of each estimate and stderr on records 0-5 of the 200-program
    synth corpus, as ``eval`` scores them (backoff model, T=16, 96 draws):
    the null NELBO, the anchored composition's NELBO, and its anchored
    NELBO. Computed before the loss path read target probabilities only."""

    PINS = {
        0: (("74.09662266711081", "2.1294154831196965"), ("89.69790876479148", "2.874045167105513"), ("90.28526379626875", "2.890743227636931")),
        1: (("71.64120093372843", "2.0982563040508246"), ("87.49651145741129", "2.781567959489366"), ("87.95101249883477", "2.793151261321371")),
        2: (("66.39166794919649", "2.207448083272023"), ("84.08193941052049", "2.9860237717617086"), ("84.54660450013901", "2.9984166354304063")),
        3: (("78.48007737128347", "2.62126734263262"), ("93.26639065312634", "3.536776707019727"), ("93.82542582123588", "3.551876825898928")),
        4: (("72.1973807549023", "2.3572945872498634"), ("88.89433119769276", "3.136797610388512"), ("89.30709709654556", "3.147888084640514")),
        5: (("65.91979149196166", "1.8942462339205655"), ("85.52727360939102", "2.7880076310716113"), ("85.90308862237434", "2.794523659716873")),
    }

    def test_estimates_are_pinned(self):
        config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        sources = synth_corpus(seed=20260809, n_programs=200)
        corpus = build_corpus([annotate_program(s, config, str(i)) for i, s in enumerate(sources)])
        model = BackoffCountModel.fit(corpus)
        sched = NoiseSchedule(T=16)
        mask_id = corpus.vocab.mask_id
        for i, pins in self.PINS.items():
            x = LatentSequence(corpus.ids[i].copy(), mask_id)
            omega, eta = corpus.omega[i], corpus.eta[i]
            pair = TwoStagePredictor(model, model, omega, eta)
            targets = compute_anchor_targets(corpus.ids[i], omega, mask_id)
            reports = (
                nelbo(x, model, sched, 96, np.random.default_rng([1, 7, i])),
                nelbo(x, pair, sched, 96, np.random.default_rng([1, 7, i])),
                anelbo(x, targets, pair, sched, omega * eta, 96, np.random.default_rng([1, 7, i])),
            )
            got = tuple((repr(r.estimate), repr(r.stderr)) for r in reports)
            assert got == pins, f"record {i}"
