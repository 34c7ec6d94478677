from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    SamplerConfig,
    annotate_program,
    build_corpus,
    synth_corpus,
)
from anchordiff import experiments
from anchordiff.denoisers import (
    BackoffCountModel,
    Corpus,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    PosteriorAnchorProfile,
)
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

from .oracles import RescanExactDenoiser, naive_probe_targets


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

    def test_corpus_without_chain_rows_rejected(self, synth_records, synth_corpus_built):
        # The targets come from Corpus.chain, which only build_corpus fills.
        built = synth_corpus_built
        bare = Corpus(built.ids, built.weights, built.vocab, built.omega, built.eta, built.depth)
        den = ExactPosteriorDenoiser(built)
        with pytest.raises(ValueError, match="corpus.chain"):
            ancestry_probe(synth_records, bare, den, [0.9], k=3, n_probes=5, rng=0)
        with pytest.raises(ValueError, match="records for"):
            ancestry_probe(synth_records[:-1], built, den, [0.9], k=3, n_probes=5, rng=0)

    @pytest.mark.parametrize("k", [0, 2])
    def test_unknown_rule_rejected_for_every_k(self, synth_records, synth_corpus_built, k):
        # k = 0 never designates a position, so the rule is checked on entry.
        den = ExactPosteriorDenoiser(synth_corpus_built)
        with pytest.raises(ValueError, match="unknown designation rule: 'bogus'"):
            ancestry_probe(
                synth_records, synth_corpus_built, den,
                t_values=[0.9], k=k, n_probes=2, rng=0, rule="bogus",
            )

    def test_single_probe_rejected(self, synth_records, synth_corpus_built):
        # One probe has no standard error, which every CSV row reports.
        den = ExactPosteriorDenoiser(synth_corpus_built)
        with pytest.raises(ValueError, match="n_probes"):
            ancestry_probe(
                synth_records, synth_corpus_built, den,
                t_values=[0.9], k=3, n_probes=1, rng=0,
            )

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_one_query_per_distinct_latent(self, synth_records, synth_corpus_built, k):
        # The start serves all three orderings and the full chain both chain
        # orderings: 3k queries per probe, one at k = 0, and the rows a
        # corpus rescan on every query gives.
        corpus = synth_corpus_built
        den = ExactPosteriorDenoiser(corpus)
        calls = []

        class Counting:
            def predict_row(self, z, position):
                calls.append(position)
                return den.predict_row(z, position)

        t_values, n_probes = [0.85, 0.95], 12
        run = ancestry_probe(synth_records, corpus, Counting(), t_values, k, n_probes, rng=k)
        assert len(calls) == len(t_values) * n_probes * (3 * k or 1)
        rescan = ancestry_probe(
            synth_records, corpus, RescanExactDenoiser(corpus), t_values, k, n_probes, rng=k
        )
        assert run.raw.keys() == rescan.raw.keys()
        for key, mat in run.raw.items():
            assert np.array_equal(mat, rescan.raw[key]), key
        assert run.to_csv() == rescan.to_csv()

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


PROBE_CONFIG = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)


class TestProbeTargets:
    """The probe's targets, read from Corpus.chain, against the per-position
    tree climb of tests/oracles.py."""

    @given(
        seed=st.integers(0, 100_000),
        max_depth=st.integers(3, 8),
        split=st.sampled_from([None, 1, 2, 3]),
        k=st.integers(0, 6),
        extra=st.sampled_from([-30, -1, 0, 6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_targets_match_the_oracle(self, seed, max_depth, split, k, extra):
        # extra sets the corpus length against the longest record: shorter,
        # equal or longer. Split records differ in length.
        sources = synth_corpus(seed=seed, n_programs=5, max_depth=max_depth)
        records = [annotate_program(s, PROBE_CONFIG, split_max_len=split) for s in sources]
        length = max(1, max(len(r) for r in records) + extra)
        corpus = build_corpus(records, length=length)
        eligible, achievable = naive_probe_targets(records, k, length)
        assert [np.flatnonzero(row >= k).tolist() for row in corpus.chain] == eligible

        drawn = []
        real = experiments.ancestor_chain

        def recording(l0, k_, node_id, *args):
            ri = next(i for i, rec in enumerate(records) if rec.node_id is node_id)
            drawn.append((ri, l0))
            assert type(l0) is int
            return real(l0, k_, node_id, *args)

        den = ExactPosteriorDenoiser(corpus)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "ancestor_chain", recording)
            try:
                run = ancestry_probe(records, corpus, den, [0.7], k=k, n_probes=4, rng=seed)
            except InsufficientDepth as exc:
                # No target at all, or every draw skipped.
                assert exc.achieved == achievable
            else:
                assert run.achievable_k == achievable
        assert all(l0 in eligible[ri] for ri, l0 in drawn)


class TestProbePin:
    """probe.csv and (skipped, achievable_k) of seeded 200-program probes,
    pinned by SHA-256: the rows, the skip count and the draws are those of
    the per-position chain climb the probe used before Corpus.chain. The
    three cases cover both designation rules, split records and a corpus
    length that cuts chains (so probes are skipped)."""

    DIGEST = "1af3939fd7f0ade095bd9c9475fdc79b3d0d6fda8de9ef6c9b14b32a347ac63b"

    def test_probe_outputs_are_pinned(self):
        sources = synth_corpus(seed=1107, n_programs=200, max_depth=7)
        digest = hashlib.sha256()
        skipped = []
        for k, rule, split, length in [
            (3, "keyword_first", None, None),
            (2, "first_token", None, 30),
            (5, "keyword_first", 2, 80),
        ]:
            records = [
                annotate_program(s, PROBE_CONFIG, str(i), split_max_len=split)
                for i, s in enumerate(sources)
            ]
            corpus = build_corpus(records, length=length)
            run = ancestry_probe(
                records, corpus, ExactPosteriorDenoiser(corpus), [0.6, 0.95],
                k=k, n_probes=40, rng=[k, 11], rule=rule,
            )
            digest.update(run.to_csv().encode())
            digest.update(repr((run.n_skipped, run.achievable_k)).encode())
            skipped.append(run.n_skipped)
        assert skipped[1] > 0
        assert digest.hexdigest() == self.DIGEST


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

    def test_anchored_backoff_pair_holds_the_corpus_marginal(self, synth_corpus_built):
        # The backoff model has no posterior, so its profile is latent-free.
        corpus = synth_corpus_built
        pair = build_strategy_predictors(corpus, AnchorStrategy.ANCHOR_TREE, "backoff")
        want = MarginalAnchorProfile.of_corpus(corpus)
        assert isinstance(pair.predictor, BackoffCountModel)
        assert isinstance(pair.profile, MarginalAnchorProfile)
        assert np.array_equal(pair.profile.omega, want.omega)
        assert np.array_equal(pair.profile.eta, want.eta)

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
def rows(synth_records):
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
        synth_records[:40], configs, t_grid=[4, 8], n_samples=6,
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

    def test_seed_paired_reproducibility(self, synth_records):
        config = [
            SamplerConfig(
                T=4, strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL), seed=0
            )
        ]
        a = compare_strategies(
            synth_records[:20], config, [4], 4, ScheduleKind.COSINE, seed=3,
            length=64, nelbo_records=1, nelbo_samples=16,
        )
        b = compare_strategies(
            synth_records[:20], config, [4], 4, ScheduleKind.COSINE, seed=3,
            length=64, nelbo_records=1, nelbo_samples=16,
        )
        assert eval_rows_to_csv(a) == eval_rows_to_csv(b)

    def test_each_config_gets_its_own_anchor_arrays(
        self, synth_sources, synth_records, monkeypatch
    ):
        # The records are reweighted per config; the corpus each config runs
        # on must equal one built from a fresh annotation under that config.
        from anchordiff import experiments
        from anchordiff.corpus_io import annotate_program, build_corpus

        seen = []
        real = experiments.build_strategy_predictors
        monkeypatch.setattr(
            experiments, "build_strategy_predictors",
            lambda corpus, *args: seen.append(corpus) or real(corpus, *args),
        )
        configs = [
            SamplerConfig(T=2, strategy=AnchorConfig.for_strategy(s), seed=0)
            for s in (AnchorStrategy.ANCHOR_TREE, AnchorStrategy.KEYWORD, AnchorStrategy.NULL)
        ]
        compare_strategies(
            synth_records[:12], configs, [2], 1, ScheduleKind.COSINE, seed=0,
            length=64, nelbo_records=1, nelbo_samples=2,
        )
        assert len(seen) == len(configs)
        for corpus, config in zip(seen, configs):
            fresh = build_corpus(
                [annotate_program(src, config.strategy, str(i))
                 for i, src in enumerate(synth_sources[:12])],
                length=64,
            )
            assert corpus.vocab == fresh.vocab
            for name in ("ids", "weights", "omega", "eta", "depth", "chain"):
                assert np.array_equal(getattr(corpus, name), getattr(fresh, name)), name

    def test_null_nelbo_is_the_models_own(self, synth_records):
        # Under Null no position is an anchor, so the composed predictor
        # eval scores gives the count model's probabilities bit for bit.
        from anchordiff import BackoffCountModel, LatentSequence, nelbo
        from anchordiff.corpus_io import reweight_records

        null = AnchorConfig.for_strategy(AnchorStrategy.NULL)
        config = SamplerConfig(T=2, strategy=null, remask_rate=0.0, seed=0)
        [row] = compare_strategies(
            synth_records[:40], [config], [2], 1, ScheduleKind.COSINE, seed=5, length=64,
        )
        corpus = build_corpus(reweight_records(synth_records[:40], null), length=64)
        assert not corpus.omega.any()
        model = BackoffCountModel.fit(corpus)
        total = 0.0
        for i in range(6):
            x = LatentSequence(ids=corpus.ids[i].copy(), mask_id=corpus.vocab.mask_id)
            rng = np.random.default_rng([5, 7, i])
            total += nelbo(x, model, NoiseSchedule(T=16), 96, rng).estimate
        assert row.nelbo == total / 6

    def test_exact_posterior_generations_fully_valid(self, rows):
        # Sequential exact-posterior sampling stays on-corpus, so every
        # generation parses.
        assert all(r.syntax_fraction == 1.0 for r in rows)
