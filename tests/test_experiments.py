from __future__ import annotations

import pickle

import numpy as np
import pytest

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    SamplerConfig,
)
from anchordiff.denoisers import ExactPosteriorDenoiser, PosteriorAnchorProfile
from anchordiff.experiments import (
    RevealOrder,
    ancestry_probe,
    build_strategy_predictors,
    compare_strategies,
    eval_rows_to_csv,
    render_ids,
    validity_eval,
)
from anchordiff.hierarchy import InsufficientDepth
from anchordiff.sampler import generate
from anchordiff.schedule import NoiseSchedule, ScheduleKind


@pytest.fixture(scope="module")
def probe_run(synth_records, synth_corpus_built):
    den = ExactPosteriorDenoiser(synth_corpus_built)
    return ancestry_probe(
        synth_records, synth_corpus_built, den,
        t_values=[0.85, 0.95], k=3, n_probes=250, rng=42,
    )


class TestAncestryProbe:
    def test_j0_identical_across_orderings(self, probe_run):
        for t in (0.85, 0.95):
            base = probe_run.raw[(RevealOrder.IN_OUT.value, t)][:, 0]
            for o in (RevealOrder.OUT_IN, RevealOrder.RANDOM):
                assert np.array_equal(base, probe_run.raw[(o.value, t)][:, 0])

    def test_full_chain_ends_equal_for_in_out_and_out_in(self, probe_run):
        for t in (0.85, 0.95):
            a = probe_run.raw[(RevealOrder.IN_OUT.value, t)][:, -1]
            b = probe_run.raw[(RevealOrder.OUT_IN.value, t)][:, -1]
            assert np.array_equal(a, b)

    def test_in_out_beats_random(self, probe_run):
        for t in (0.85, 0.95):
            for j in (1, 2, 3):
                gap, se = probe_run.paired_gap(t, "in_out", "random", j)
                assert gap > 0
            gap, se = probe_run.paired_gap(t, "in_out", "out_in", 1)
            assert gap > 2 * se

    def test_probabilities_in_unit_interval(self, probe_run):
        for mat in probe_run.raw.values():
            assert (mat >= 0).all() and (mat <= 1).all()

    def test_csv_shape(self, probe_run):
        csv = probe_run.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("ordering,t,j,n,")
        assert len(lines) == 1 + 3 * 2 * 4  # orderings x noise levels x (k+1)

    def test_results_have_counts(self, probe_run):
        assert all(r.n == 250 for r in probe_run.results)

    def test_unique_determination_reaches_one(self):
        # A corpus whose chain tokens uniquely determine the target: with
        # the full chain revealed and all context masked, the posterior at
        # the target concentrates fully.
        from anchordiff import annotate_program, build_corpus, build_vocab

        cfg = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        sources = [
            "def scan(xs, n):\n    acc = 0\n    for v in xs:\n        if v < n:\n            acc = v + n\n    return acc\n",
            "def scan(xs, n):\n    acc = 0\n    while acc <= n:\n        if acc == 0:\n            acc = acc * 2\n    return acc\n",
        ]
        records = [annotate_program(s, cfg, str(i)) for i, s in enumerate(sources)]
        corpus = build_corpus(records, build_vocab(sources))
        den = ExactPosteriorDenoiser(corpus)
        run = ancestry_probe(records, corpus, den, [1.0], k=3, n_probes=60, rng=0)
        final = run.raw[(RevealOrder.IN_OUT.value, 1.0)][:, -1]
        assert final.mean() > 0.9

    def test_insufficient_depth_reported(self, synth_records, synth_corpus_built):
        den = ExactPosteriorDenoiser(synth_corpus_built)
        with pytest.raises(InsufficientDepth):
            ancestry_probe(
                synth_records, synth_corpus_built, den,
                t_values=[0.9], k=50, n_probes=5, rng=0,
            )

    def test_single_probe_rejected(self, synth_records, synth_corpus_built):
        # One probe has no standard error, which every CSV row reports.
        den = ExactPosteriorDenoiser(synth_corpus_built)
        with pytest.raises(ValueError, match="n_probes"):
            ancestry_probe(
                synth_records, synth_corpus_built, den,
                t_values=[0.9], k=3, n_probes=1, rng=0,
            )

    def test_reveals_never_grow_the_match_set(self, synth_corpus_built):
        # Revealing a true token only filters: the set of corpus sequences
        # consistent with the latent is non-increasing per reveal.
        from anchordiff.diffusion import LatentSequence, corrupt
        from anchordiff.schedule import NoiseSchedule

        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        rng = np.random.default_rng(77)
        for trial in range(20):
            ri = int(rng.integers(corpus.n))
            x = LatentSequence(corpus.ids[ri].copy(), corpus.vocab.mask_id)
            z = corrupt(x, 0.95, NoiseSchedule(T=8), rng)
            ids = z.ids.copy()
            masked = list(np.flatnonzero(z.is_masked))
            rng.shuffle(masked)
            sizes = []
            for pos in masked[:6]:
                sizes.append(
                    int(den.match_mask(LatentSequence(ids.copy(), z.mask_id)).sum())
                )
                ids[pos] = corpus.ids[ri][pos]
            sizes.append(
                int(den.match_mask(LatentSequence(ids.copy(), z.mask_id)).sum())
            )
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] >= 1


class TestStrategyPredictors:
    @pytest.mark.parametrize("kind", ["exact", "backoff"])
    def test_null_ignores_anchor_annotations(self, synth_corpus_built, monkeypatch, kind):
        # The corpus is annotated under anchor_tree, but Null has no anchors:
        # every commit is a denoise commit and no posterior profile is taken.
        def never(self, z):
            raise AssertionError("Null queried the posterior anchor profile")

        monkeypatch.setattr(PosteriorAnchorProfile, "__call__", never)
        corpus = synth_corpus_built
        assert corpus.omega.any()
        predictors = build_strategy_predictors(corpus, AnchorStrategy.NULL, kind)
        cfg = SamplerConfig(
            T=16, strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL), remask_rate=0.2
        )
        for j in range(4):
            _, trace = generate(
                [], corpus.length, predictors, cfg, NoiseSchedule(T=16),
                np.random.default_rng(j),
            )
            assert trace.events
            assert all(e.stage == "denoise" for e in trace.events)

    def test_anchored_exact_pair_holds_one_exact_table(self, synth_corpus_built):
        # The profile reads the predictor's match state, also in the copy a
        # --workers task unpickles.
        pair = build_strategy_predictors(
            synth_corpus_built, AnchorStrategy.ANCHOR_TREE, "exact"
        )
        for p in (pair, pickle.loads(pickle.dumps(pair))):
            assert isinstance(p.predictor, ExactPosteriorDenoiser)
            assert p.profile.exact is p.predictor

    def test_unknown_predictor_kind_rejected(self, synth_corpus_built):
        with pytest.raises(ValueError, match="unknown predictor"):
            build_strategy_predictors(synth_corpus_built, AnchorStrategy.NULL, "bogus")


class TestValidityEval:
    def test_corpus_samples_all_valid(self, synth_sources):
        report = validity_eval(synth_sources[:20])
        assert report.fraction == 1.0

    def test_random_token_soup_near_zero(self, synth_vocab):
        rng = np.random.default_rng(2718)
        samples = []
        for _ in range(200):
            ids = rng.integers(0, synth_vocab.mask_id, size=24)
            samples.append(render_ids(ids, synth_vocab))
        report = validity_eval(samples)
        assert report.fraction is not None and report.fraction <= 0.05

    def test_empty_set_is_undefined(self):
        report = validity_eval([])
        assert report.fraction is None and report.verdicts == []


@pytest.fixture(scope="module")
def rows(synth_sources):
    configs = [
        SamplerConfig(
            T=8, strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL),
            remask_rate=0.0, seed=0,
        ),
        SamplerConfig(
            T=8, strategy=AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE),
            remask_rate=0.1, seed=0,
        ),
    ]
    return compare_strategies(
        synth_sources[:40], configs, t_grid=[4, 8], n_samples=6,
        schedule_kind=ScheduleKind.COSINE, seed=11, length=64,
        nelbo_records=2, nelbo_samples=32,
    )


class TestCompareStrategies:
    def test_row_grid(self, rows):
        assert [(r.strategy, r.T) for r in rows] == [
            ("null", 4), ("null", 8), ("anchor_tree", 4), ("anchor_tree", 8),
        ]

    def test_gamma_beta_recorded(self, rows):
        by = {(r.strategy, r.T): r for r in rows}
        assert by[("anchor_tree", 4)].gamma == 0.03
        assert by[("anchor_tree", 4)].beta == 0.7
        assert by[("null", 4)].gamma == 0.0

    def test_pass_at_1_unavailable(self, rows):
        assert all(r.pass_at_1 == "unavailable" for r in rows)

    def test_csv_render(self, rows):
        csv = eval_rows_to_csv(rows)
        head = csv.splitlines()[0]
        assert head == (
            "strategy,gamma,beta,T,syntax_fraction,mean_unmask_depth_corr,"
            "nelbo,pass_at_1"
        )
        assert len(csv.strip().splitlines()) == 5

    def test_seed_paired_reproducibility(self, synth_sources):
        config = [
            SamplerConfig(
                T=4, strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL), seed=0
            )
        ]
        a = compare_strategies(
            synth_sources[:20], config, [4], 4, ScheduleKind.COSINE, seed=3,
            length=64, nelbo_records=1, nelbo_samples=16,
        )
        b = compare_strategies(
            synth_sources[:20], config, [4], 4, ScheduleKind.COSINE, seed=3,
            length=64, nelbo_records=1, nelbo_samples=16,
        )
        assert eval_rows_to_csv(a) == eval_rows_to_csv(b)

    def test_exact_posterior_generations_fully_valid(self, rows):
        # Sequential exact-posterior sampling stays on-corpus, so every
        # generation parses.
        assert all(r.syntax_fraction == 1.0 for r in rows)
