"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``. Everything runs on the
bundled synthetic corpus (200 programs, L = 64) and completes in well under
ten minutes on a laptop.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    SamplerConfig,
    annotate_program,
    build_corpus,
    build_vocab,
    compute_eta,
    compute_omega,
    default_gamma,
    synth_corpus,
)
from anchordiff.cli import main as cli_main
from anchordiff.denoisers import (
    BackoffCountModel,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    NoMatchError,
    PosteriorAnchorProfile,
)
from anchordiff.diffusion import LatentSequence, corrupt, nelbo
from anchordiff.experiments import (
    ancestry_probe,
    compare_strategies,
    eval_rows_to_csv,
    render_ids,
    validity_eval,
)
from anchordiff.hierarchy import precedes
from anchordiff.minilang import parse, tokenize
from anchordiff.sampler import AnchoredPair, generate
from anchordiff.schedule import NoiseSchedule, ScheduleKind, alpha

from .conftest import make_corpus
from .oracles import (
    enumerate_product_chain,
    enumerate_sequential_chain,
    naive_posterior,
    total_variation,
)

SYNTH_SEED = 20260809
ANCHOR_TREE = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)


def report(n: int, text: str) -> None:
    print(f"\n[criterion {n:02d}] PASS: {text}")


@pytest.fixture(scope="module")
def bundled():
    sources = synth_corpus(seed=SYNTH_SEED, n_programs=200, max_depth=6)
    records = [
        annotate_program(s, ANCHOR_TREE, record_id=str(i))
        for i, s in enumerate(sources)
    ]
    vocab = build_vocab(sources)
    corpus = build_corpus(records, vocab, length=64)
    return sources, records, vocab, corpus


def anchored_pair(corpus) -> AnchoredPair:
    exact = ExactPosteriorDenoiser(corpus)
    return AnchoredPair(exact, PosteriorAnchorProfile(exact))


def test_criterion_01_schedule_correctness():
    for kind in (ScheduleKind.COSINE, ScheduleKind.LINEAR):
        sched = NoiseSchedule(kind, 8)
        assert alpha(sched, 0.0) == 1.0
        assert alpha(sched, 1.0) == 0.0
    cos = NoiseSchedule(ScheduleKind.COSINE, 8)
    assert alpha(cos, 0.5) == 0.5
    # Analytic forward-marginal consistency: Markov survival ratios over any
    # partition of [0, t] telescope to alpha(t).
    worst = 0.0
    for kind in (ScheduleKind.COSINE, ScheduleKind.LINEAR):
        sched = NoiseSchedule(kind, 8)
        for t in (0.2, 0.5, 0.77, 1.0):
            for parts in (1, 3, 7):
                cuts = np.linspace(0.0, t, parts + 1)
                prod = 1.0
                for a, b in zip(cuts, cuts[1:]):
                    aa = alpha(sched, float(a))
                    prod *= alpha(sched, float(b)) / aa if aa > 0 else 0.0
                worst = max(worst, abs(prod - alpha(sched, float(t))))
    assert worst <= 1e-12
    # Monte Carlo marginal at 10k draws.
    x = LatentSequence(np.zeros(10_000, dtype=int), mask_id=5)
    mc_worst = 0.0
    for t in (0.3, 0.5, 0.85):
        z = corrupt(x, t, cos, np.random.default_rng(1))
        mc_worst = max(mc_worst, abs(z.is_masked.mean() - (1 - alpha(cos, t))))
    assert mc_worst <= 0.02
    report(1, f"alpha endpoints/midpoint exact; marginal analytic {worst:.1e}, MC {mc_worst:.3f}")


def test_criterion_02_exact_posterior_oracle_equivalence():
    rng = np.random.default_rng(2026)
    chars = "abcdefgh"
    queries = 0
    nomatches = 0
    while queries < 1000:
        n = int(rng.integers(2, 21))
        L = int(rng.integers(2, 17))
        rows = rng.integers(0, len(chars), size=(n, L))
        corpus = make_corpus(
            ["".join(chars[v] for v in r) for r in rows],
            weights=rng.integers(1, 6, size=n).astype(float),
        )
        den = ExactPosteriorDenoiser(corpus)
        for _ in range(10):
            ids = corpus.ids[int(rng.integers(n))].copy()
            ids[rng.random(L) < 0.5] = corpus.vocab.mask_id
            if rng.random() < 0.1:  # push off-corpus to exercise NoMatch
                ids[0] = (ids[0] + 1) % corpus.vocab.mask_id
            z = LatentSequence(ids, corpus.vocab.mask_id)
            try:
                expected = naive_posterior(corpus, z)
            except NoMatchError:
                with pytest.raises(NoMatchError):
                    den.predict_row(z, 0)
                nomatches += 1
                queries += 1
                continue
            mine = np.stack([den.predict_row(z, l) for l in range(L)])
            assert np.array_equal(mine, expected)
            queries += 1
    report(2, f"{queries} randomized queries match the brute-force oracle exactly "
              f"({nomatches} NoMatch cases agreed)")


def test_criterion_03_reverse_chain_fidelity():
    # Exact: the sampler's sequential step rule, enumerated over all RNG
    # outcomes, equals the per-position-independent reverse process wherever
    # the two coincide analytically (single uncertain position).
    safe = make_corpus(["xay", "xby"])
    worst = 0.0
    for T in (1, 2, 3):
        sched = NoiseSchedule(ScheduleKind.COSINE, T)
        seq = enumerate_sequential_chain(safe, sched)
        prod = enumerate_product_chain(safe, sched)
        for key in set(seq) | set(prod):
            worst = max(worst, abs(seq.get(key, 0.0) - prod.get(key, 0.0)))
    assert worst <= 1e-12
    # Monte Carlo against the enumerated distribution (20k runs, T=2, L=2).
    small = make_corpus(["ab", "cd"])
    sched2 = NoiseSchedule(ScheduleKind.COSINE, 2)
    expected = enumerate_sequential_chain(small, sched2)
    cfg = SamplerConfig(T=2, temperature=1.0, seed=0,
                        strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL))
    single = AnchoredPair(
        ExactPosteriorDenoiser(small), MarginalAnchorProfile.zeros(small.length)
    )
    counts: dict = {}
    n_runs = 20_000
    for j in range(n_runs):
        out, _ = generate([], 2, single, cfg, sched2, np.random.default_rng([1, j]))
        key = tuple(int(v) for v in out)
        counts[key] = counts.get(key, 0) + 1
    tv_enum = total_variation({k: v / n_runs for k, v in counts.items()}, expected)
    assert tv_enum <= 0.02
    # 4-sequence corpus at T=64: 20k generations match the corpus weights.
    four = make_corpus(["na", "nb", "nc", "nd"])
    cfg64 = SamplerConfig(T=64, temperature=1.0, seed=0,
                          strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL))
    single4 = AnchoredPair(
        ExactPosteriorDenoiser(four), MarginalAnchorProfile.zeros(four.length)
    )
    sched64 = NoiseSchedule(ScheduleKind.COSINE, 64)
    counts4: dict = {}
    for j in range(n_runs):
        out, _ = generate([], 2, single4, cfg64, sched64, np.random.default_rng([2, j]))
        key = tuple(int(v) for v in out)
        counts4[key] = counts4.get(key, 0) + 1
    target = {tuple(int(v) for v in row): 0.25 for row in four.ids}
    tv4 = total_variation({k: v / n_runs for k, v in counts4.items()}, target)
    assert tv4 <= 0.05
    report(3, f"enumeration gap {worst:.1e}; MC vs enumeration TV {tv_enum:.4f}; "
              f"4-seq T=64 TV {tv4:.4f} over 20k runs")


def test_criterion_04_nelbo_sanity(bundled):
    sources, records, vocab, corpus = bundled
    from .test_diffusion import OneHotPredictor

    sched = NoiseSchedule(ScheduleKind.COSINE, 8)
    x = LatentSequence(corpus.ids[0].copy(), vocab.mask_id)
    oracle = nelbo(x, OneHotPredictor(x, vocab.size), sched, 128, 0)
    assert oracle.estimate == 0.0 and oracle.stderr < 1e-9
    exact = ExactPosteriorDenoiser(corpus)
    backoff = BackoffCountModel.fit(corpus)
    gaps = 0.0
    ses = 0.0
    for i in (0, 7, 21):
        xi = LatentSequence(corpus.ids[i].copy(), vocab.mask_id)
        r_exact = nelbo(xi, exact, sched, 320, 50 + i)
        r_backoff = nelbo(xi, backoff, sched, 320, 50 + i)
        gaps += r_backoff.estimate - r_exact.estimate
        ses += math.hypot(r_exact.stderr, r_backoff.stderr) ** 2
    se = math.sqrt(ses)
    assert gaps >= 3 * se
    report(4, f"oracle NELBO exactly 0; backoff-exact gap {gaps:.2f} >= 3se ({3*se:.2f})")


def test_criterion_05_anchor_math(tmp_path):
    sources = synth_corpus(seed=777, n_programs=100, max_depth=6)
    violations = 0
    for src in sources:
        tokens = tokenize(src)
        tree = parse(src)
        from anchordiff import assign_nodes

        node_id = assign_nodes(tree, tokens)
        eta = compute_eta([tree.depth(v) for v in node_id.tolist()], ANCHOR_TREE)
        n = len(tokens)
        for a in range(n):
            for b in range(n):
                if a != b and precedes(a, b, node_id, tree) and eta[a] < eta[b]:
                    violations += 1
    assert violations == 0
    # Hard anchoring at beta = 0.
    hard = AnchorConfig(AnchorStrategy.KEYWORD, gamma=0.1, beta=0.0)
    for src in sources[:20]:
        tokens = tokenize(src)
        tree = parse(src)
        from anchordiff import assign_nodes

        node_id = assign_nodes(tree, tokens)
        depth = [tree.depth(v) for v in node_id.tolist()]
        mu = compute_omega(tokens, hard) * compute_eta(depth, hard)
        assert set(np.unique(mu)) <= {0.0, 0.1}
    # Tuned defaults wired and surfaced in run manifests.
    assert default_gamma(AnchorStrategy.ANCHOR_TREE) == 0.03
    assert default_gamma(AnchorStrategy.KEYWORD) == 0.1
    assert default_gamma(AnchorStrategy.IDENTIFIER) == 0.01
    for name, gamma in (("anchor_tree", 0.03), ("keyword", 0.1), ("identifier", 0.01)):
        out = tmp_path / name
        code = cli_main(
            ["annotate", "--corpus", "synth", "--synth-programs", "5",
             "--strategy", name, "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["anchor"]["gamma"] == gamma
    report(5, "eta monotone on 100 programs (0 violations); beta=0 gives "
              "mu in {0, gamma}; tuned gammas 0.03/0.1/0.01 in manifests")


def test_criterion_06_ancestry_probe_trend(bundled):
    sources, records, vocab, corpus = bundled
    start = time.time()
    den = ExactPosteriorDenoiser(corpus)
    run = ancestry_probe(
        records, corpus, den, t_values=[0.85, 0.95], k=3, n_probes=600, rng=42
    )
    elapsed = time.time() - start
    margins = []
    for t in (0.85, 0.95):
        base_in = run.raw[("in_out", t)][:, 0]
        base_rand = run.raw[("random", t)][:, 0]
        assert np.array_equal(base_in, base_rand)  # j=0 identical
        for j in (1, 2, 3):
            gap, se = run.paired_gap(t, "in_out", "random", j)
            assert gap > 2 * se, f"in-out vs random at t={t}, j={j}"
            margins.append(gap / se)
        gap, se = run.paired_gap(t, "in_out", "out_in", 1)
        assert gap > 2 * se
        margins.append(gap / se)
    assert elapsed < 120
    report(6, f"in-out >= random at all j and >= out-in at j=1 "
              f"(min margin {min(margins):.1f}se, 600 probes/arm, {elapsed:.1f}s)")


def test_criterion_07_anchored_ordering(bundled):
    sources, records, vocab, corpus = bundled
    pair = anchored_pair(corpus)
    cfg = SamplerConfig(T=16, strategy=ANCHOR_TREE, remask_rate=0.1, seed=0)
    sched = NoiseSchedule(ScheduleKind.COSINE, 16)
    shallow, deep, non = [], [], []
    n_gen = 1000
    for j in range(n_gen):
        out, trace = generate([], 64, pair, cfg, sched, np.random.default_rng([9, j]))
        match = np.flatnonzero((corpus.ids == out[None, :]).all(axis=1))
        assert len(match), "exact-posterior generation left the corpus"
        ri = match[0]
        per = {"s": [], "d": [], "n": []}
        for l, t_norm in trace.final_unmask_times(corpus.depth[ri]):
            if corpus.omega[ri][l] >= 0.5:
                per["s" if corpus.depth[ri][l] <= 2 else "d"].append(t_norm)
            else:
                per["n"].append(t_norm)
        if per["s"] and per["d"] and per["n"]:
            shallow.append(np.mean(per["s"]))
            deep.append(np.mean(per["d"]))
            non.append(np.mean(per["n"]))
    shallow, deep, non = np.array(shallow), np.array(deep), np.array(non)

    def gap_se(a, b):
        d = a - b
        return d.mean(), d.std(ddof=1) / math.sqrt(len(d))

    g1, se1 = gap_se(deep, shallow)
    g2, se2 = gap_se(non, deep)
    assert g1 > 2 * se1 and g2 > 2 * se2
    assert shallow.mean() < deep.mean() < non.mean()
    report(7, f"unmask order over {len(shallow)} generations: shallow anchors "
              f"{shallow.mean():.3f} < deep anchors {deep.mean():.3f} < "
              f"non-anchors {non.mean():.3f} ({g1/se1:.0f}se, {g2/se2:.0f}se)")


RANDOM_SOUP_VALIDITY = 0.0  # pinned: 300 draws, seed 2718, length 24


def test_criterion_08_validity_harness(bundled):
    _, records, vocab, corpus = bundled
    # On-corpus anchored generation at T >= 4L parses every time.
    pair = anchored_pair(corpus)
    T = 4 * 64
    cfg = SamplerConfig(T=T, strategy=ANCHOR_TREE, remask_rate=0.1, seed=0)
    sched = NoiseSchedule(ScheduleKind.COSINE, T)
    texts = []
    for j in range(25):
        out, _ = generate([], 64, pair, cfg, sched, np.random.default_rng([8, j]))
        texts.append(render_ids(out, vocab))
    assert validity_eval(texts).fraction == 1.0
    # Random-token baseline, pinned as a fixture.
    rng = np.random.default_rng(2718)
    soup = [
        render_ids(rng.integers(0, vocab.mask_id, size=24), vocab)
        for _ in range(300)
    ]
    soup_fraction = validity_eval(soup).fraction
    assert soup_fraction == RANDOM_SOUP_VALIDITY
    assert soup_fraction <= 0.05
    # Null vs AnchorTree report across the step grid, seed-paired.
    configs = [
        SamplerConfig(T=8, strategy=AnchorConfig.for_strategy(AnchorStrategy.NULL),
                      remask_rate=0.0, seed=0),
        SamplerConfig(T=8, strategy=ANCHOR_TREE, remask_rate=0.1, seed=0),
    ]
    rows = compare_strategies(
        records, configs, [8, 16, 32, 64], n_samples=8,
        schedule_kind=ScheduleKind.COSINE, seed=123, length=64,
        nelbo_records=2, nelbo_samples=48,
    )
    assert [(r.strategy, r.T) for r in rows] == [
        ("null", 8), ("null", 16), ("null", 32), ("null", 64),
        ("anchor_tree", 8), ("anchor_tree", 16), ("anchor_tree", 32),
        ("anchor_tree", 64),
    ]
    csv = eval_rows_to_csv(rows)
    assert csv.count("\n") == 9
    trend = {
        (r.strategy, r.T): r.syntax_fraction for r in rows
    }
    report(8, f"anchored T={T} validity 1.0 (25 gens); random soup validity "
              f"{soup_fraction} (pinned); Null/AnchorTree grid report generated "
              f"(syntax by (strategy,T): {trend})")


def test_criterion_09_cli_determinism(tmp_path):
    base = ["--corpus", "synth", "--synth-programs", "30", "--seed", "17"]
    commands = [
        ["annotate"],
        ["corrupt", "--t", "0.5"],
        ["sample", "--steps", "8", "--n-samples", "4"],
        ["probe", "--probe-k", "3", "--probe-t", "0.85,0.95", "--n-samples", "40"],
        ["eval", "--strategy", "null,anchor_tree", "--steps", "4,8",
         "--n-samples", "3"],
    ]
    for argv in commands:
        a = tmp_path / (argv[0] + "_a")
        b = tmp_path / (argv[0] + "_b")
        assert cli_main([*argv, *base, "--out", str(a)]) == 0
        assert cli_main([*argv, *base, "--out", str(b)]) == 0
        files_a = {
            str(p.relative_to(a)): p.read_bytes()
            for p in sorted(a.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }
        files_b = {
            str(p.relative_to(b)): p.read_bytes()
            for p in sorted(b.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }
        assert files_a and files_a == files_b, f"{argv[0]} not deterministic"
    report(9, "all five subcommands byte-identical across reruns "
              "(manifest timestamps excluded)")


def test_criterion_10_termination_and_safety(bundled):
    sources, records, vocab, corpus = bundled
    toy = make_corpus(["abcab", "cabca", "bacbc", "ccbaa"])
    backoff = BackoffCountModel.fit(toy)
    toy.omega = np.tile(np.array([1, 0, 1, 0, 1], float), (4, 1))
    toy.eta = np.tile(np.array([0.5, 0.1, 0.4, 0.1, 0.3]), (4, 1))
    exact_pair = anchored_pair(corpus)
    exact_cfg_pool = [8, 16]
    rng = np.random.default_rng(101)
    n_total = 10_000
    n_exact = 500
    for trial in range(n_total - n_exact):
        T = int(rng.integers(1, 7))
        strategy = AnchorStrategy(
            ["null", "keyword", "identifier", "anchor_tree"][int(rng.integers(4))]
        )
        cfg = SamplerConfig(
            T=T,
            temperature=float(rng.choice([0.3, 0.8, 1.0, 1.6])),
            remask_rate=float(rng.choice([0.0, 0.1, 0.3])),
            strategy=AnchorConfig.for_strategy(strategy),
            seed=trial,
        )
        if strategy is AnchorStrategy.NULL:
            predictors = AnchoredPair(backoff, MarginalAnchorProfile.zeros(toy.length))
        else:
            predictors = AnchoredPair(backoff, MarginalAnchorProfile.of_corpus(toy))
        n_prompt = int(rng.integers(0, 4))
        prompt = toy.ids[int(rng.integers(4))][:n_prompt]
        out, trace = generate(
            prompt, 5, predictors, cfg, NoiseSchedule(ScheduleKind.COSINE, T),
            np.random.default_rng(trial),
        )
        assert not (out == toy.vocab.mask_id).any()
        assert (out[:n_prompt] == prompt).all()
        assert not any(e.position < n_prompt for e in trace.events)
    for trial in range(n_exact):
        T = exact_cfg_pool[trial % 2]
        cfg = SamplerConfig(
            T=T, temperature=0.8, remask_rate=0.1, strategy=ANCHOR_TREE, seed=trial
        )
        n_prompt = int(rng.integers(0, 10))
        prompt = corpus.ids[int(rng.integers(corpus.n))][:n_prompt]
        out, trace = generate(
            prompt, 64, exact_pair, cfg, NoiseSchedule(ScheduleKind.COSINE, T),
            np.random.default_rng([13, trial]),
        )
        assert not (out == vocab.mask_id).any()
        assert (out[:n_prompt] == prompt).all()
    report(10, f"{n_total} fuzzed generations: zero residual masks, zero prompt "
               f"mutations, zero errors ({n_exact} with the exact two-stage pair)")
