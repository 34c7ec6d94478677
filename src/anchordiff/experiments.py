"""Experiment harnesses: the ancestry probe, syntactic-validity evaluation,
and seed-paired strategy comparisons across step grids."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .anchors import AnchorStrategy
from .corpus_io import DatasetRecord, build_corpus, reweight_records
from .denoisers import (
    AnchoredPair,
    BackoffCountModel,
    Corpus,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    PosteriorAnchorProfile,
    Predictor,
    TwoStagePredictor,
)
from .diffusion import LatentSequence, Vocab, as_rng, corrupt, nelbo
from .hierarchy import InsufficientDepth, ancestor_chain, check_rule, designated_positions
from .minilang import is_syntactically_valid, render_surfaces
from .sampler import DenoiseTrace, SamplerConfig, generate
from .schedule import NoiseSchedule


class RevealOrder(enum.Enum):
    IN_OUT = "in_out"
    OUT_IN = "out_in"
    RANDOM = "random"


@dataclass(frozen=True)
class ProbeResult:
    """Mean predictor quality at the target position after j reveals."""

    ordering: str
    t: float
    k: int
    j: int
    n: int
    mean_prob: float
    stderr_prob: float
    mean_log_prob: float
    stderr_log_prob: float


@dataclass
class ProbeRun:
    """Summary rows plus the raw per-probe trajectories (probes are paired
    across orderings: same corruption, chain, and random reveals).
    ``achievable_k`` is the longest chain the corpus admits."""

    k: int
    results: list[ProbeResult]
    raw: dict[tuple[str, float], np.ndarray]
    n_skipped: int
    n_probes: int
    achievable_k: int = 0

    def to_csv(self) -> str:
        lines = ["ordering,t,j,n,mean_prob,stderr_prob,mean_log_prob,stderr_log_prob"]
        for r in self.results:
            lines.append(
                f"{r.ordering},{r.t},{r.j},{r.n},{r.mean_prob!r},{r.stderr_prob!r},"
                f"{r.mean_log_prob!r},{r.stderr_log_prob!r}"
            )
        return "\n".join(lines) + "\n"

    def paired_gap(
        self, t: float, a: str, b: str, j: int
    ) -> tuple[float, float]:
        """Mean and standard error of the per-probe difference a - b at j."""
        diff = self.raw[(a, t)][:, j] - self.raw[(b, t)][:, j]
        se = float(diff.std(ddof=1) / math.sqrt(len(diff)))
        return float(diff.mean()), se


def ancestry_probe(
    records: list[DatasetRecord],
    corpus: Corpus,
    predictor: Predictor,
    t_values: list[float],
    k: int,
    n_probes: int,
    rng: np.random.Generator | int | None,
    rule: str = "keyword_first",
) -> ProbeRun:
    """Measure how revealing a masked position's ancestors improves the
    predictor at that position.

    Per probe: corrupt a corpus program to noise level t, additionally mask
    a contiguous ancestor chain l0..lk, then reveal positions one at a time
    - nearest ancestors first (in-out), farthest first (out-in), or k
    non-chain masked positions (random) - querying the predicted
    probability of the true token at l0 after each reveal. All three
    orderings share each probe's corruption and reveal draws. Each distinct
    latent is asked once: the start (j = 0) serves all three orderings and
    the full chain (j = k) both chain orderings, so a probe makes 3k
    ``predict_row`` queries (one at k = 0). One probe gives no standard
    error, so ``n_probes`` must be at least 2.

    A target is any position whose chain length (``corpus.chain``, one row
    per record, as ``build_corpus`` pads it) is at least ``k``, so it
    always has a chain of k ancestors; a probe is skipped only when the
    chain reaches past the corpus length or too few other positions are
    masked. Each drawn record's designated positions are built once per
    call, and every draw climbs its chain through them. No target, or more
    than ``50 * n_probes`` draws at one noise level, raises
    InsufficientDepth; the second names its skips.
    """
    check_rule(rule)
    if n_probes < 2:
        raise ValueError(f"n_probes must be >= 2 for a standard error, got {n_probes}")
    if corpus.chain is None:
        raise ValueError("the probe reads chain lengths from corpus.chain, which build_corpus fills")
    if corpus.n != len(records):
        raise ValueError(f"{len(records)} records for {corpus.n} corpus rows")
    rng = as_rng(rng)
    schedule = NoiseSchedule(T=max(corpus.length, 1))
    length = corpus.length
    ok = corpus.chain >= k
    candidates = ok.any(axis=1).nonzero()[0]  # the rows holding a target
    achievable = int(corpus.chain.max(initial=0))
    if not len(candidates):
        raise InsufficientDepth(-1, k, achievable)
    raw: dict[tuple[str, float], np.ndarray] = {
        (o.value, t): np.zeros((n_probes, k + 1)) for o in RevealOrder for t in t_values
    }
    skipped = 0
    mask_id = corpus.vocab.mask_id
    designated: dict[int, dict[int, int]] = {}  # record index -> designated_positions
    for t in t_values:
        done = 0
        attempts = 0
        past_length = 0
        while done < n_probes:
            attempts += 1
            if attempts > 50 * n_probes:
                few = attempts - 1 - done - past_length
                raise InsufficientDepth(-1, k, achievable, (
                    f"gave up at t={t} with {done} probes done after skipping {past_length + few} "
                    f"draws: {past_length} ancestor chains ran past the corpus length {length} "
                    f"(--length), and {few} draws had fewer than {k} other positions masked"
                ))
            ri = int(candidates[rng.integers(len(candidates))])
            rec = records[ri]
            targets = ok[ri].nonzero()[0]
            l0 = int(targets[rng.integers(len(targets))])
            if ri not in designated:
                designated[ri] = designated_positions(rec.node_id, rec.tokens, rule)
            chain = ancestor_chain(
                l0, k, rec.node_id, rec.tokens, rec.parents, rule, designated[ri]
            )
            if any(pos >= length for pos in chain):
                skipped += 1
                past_length += 1
                continue
            clean = corpus.ids[ri]
            ids = corrupt(LatentSequence(ids=clean, mask_id=mask_id), t, schedule, rng).ids
            ids[list(chain)] = mask_id
            others = ids == mask_id
            others[list(chain)] = False
            non_chain_masked = others.nonzero()[0]
            if len(non_chain_masked) < k:
                skipped += 1
                continue
            random_reveals = non_chain_masked[rng.permutation(len(non_chain_masked))[:k]]
            true_id = int(clean[l0])

            def scores(reveals) -> list[float]:
                """The true token's probability at l0 after each reveal, on
                one live latent that each reveal writes into."""
                live = ids.copy()
                out = []
                for pos in reveals:
                    live[pos] = clean[pos]
                    out.append(predictor.predict_row(live, l0)[true_id])
                return out

            # Each distinct latent is asked once: j = 0 is one latent for all
            # three orderings, and in-out and out-in end on the same one, so
            # out-in asks only its reveals before the nearest ancestor.
            start = [predictor.predict_row(ids, l0)[true_id]]
            in_out = scores(chain[1:])
            out_in = scores(chain[:1:-1]) + in_out[-1:]
            for ordering, row in (
                (RevealOrder.IN_OUT, in_out),
                (RevealOrder.OUT_IN, out_in),
                (RevealOrder.RANDOM, scores(random_reveals.tolist())),
            ):
                raw[(ordering.value, t)][done] = start + row
            done += 1
    results = []
    for (ordering, t), mat in sorted(raw.items()):
        logs = np.log(np.maximum(mat, 1e-300))
        for j in range(k + 1):
            results.append(
                ProbeResult(
                    ordering=ordering,
                    t=t,
                    k=k,
                    j=j,
                    n=n_probes,
                    mean_prob=float(mat[:, j].mean()),
                    stderr_prob=float(mat[:, j].std(ddof=1) / math.sqrt(n_probes)),
                    mean_log_prob=float(logs[:, j].mean()),
                    stderr_log_prob=float(logs[:, j].std(ddof=1) / math.sqrt(n_probes)),
                )
            )
    return ProbeRun(
        k=k, results=results, raw=raw, n_skipped=skipped, n_probes=n_probes,
        achievable_k=achievable,
    )


# -- syntactic validity -----------------------------------------------------


@dataclass
class ValidityReport:
    """Fraction of samples that parse; None when there are no samples."""

    fraction: float | None
    verdicts: list[bool]


def validity_eval(samples: list[str]) -> ValidityReport:
    verdicts = [is_syntactically_valid(s) for s in samples]
    if not verdicts:
        return ValidityReport(None, [])
    return ValidityReport(sum(verdicts) / len(verdicts), verdicts)


# -- strategy comparison ------------------------------------------------------


@dataclass
class EvalRow:
    strategy: str
    gamma: float
    beta: float
    T: int
    syntax_fraction: float
    mean_unmask_depth_corr: float
    nelbo: float
    pass_at_1: str = "unavailable"


def csv_number(value: float) -> str:
    """A number's cell in the eval CSVs: its repr, or empty for NaN."""
    return "" if math.isnan(value) else repr(value)


def eval_rows_to_csv(rows: list[EvalRow]) -> str:
    lines = [
        "strategy,gamma,beta,T,syntax_fraction,mean_unmask_depth_corr,nelbo,pass_at_1"
    ]
    for r in rows:
        cells = (r.gamma, r.beta, r.T, r.syntax_fraction, r.mean_unmask_depth_corr, r.nelbo)
        lines.append(",".join([r.strategy, *map(csv_number, cells), r.pass_at_1]))
    return "\n".join(lines) + "\n"


PREDICTOR_KINDS = ("exact", "backoff")


def build_strategy_predictors(
    corpus: Corpus,
    strategy: AnchorStrategy,
    predictor_kind: str = "exact",
) -> AnchoredPair:
    """The predictor and anchor profile for the strategy. ``predictor_kind``
    selects the Bayes-exact table or the backoff count model. Null's profile
    is all zeros, so it has no anchors and ignores the corpus annotations;
    the other strategies use the posterior profile with the exact table,
    built on the pair's own predictor so that both read one posterior, and
    the corpus-marginal profile with any other predictor, such as the
    backoff model, which has no posterior."""
    if predictor_kind == "exact":
        predictor = ExactPosteriorDenoiser(corpus)
    elif predictor_kind == "backoff":
        predictor = BackoffCountModel.fit(corpus)
    else:
        raise ValueError(
            f"unknown predictor {predictor_kind!r}; expected one of {PREDICTOR_KINDS}"
        )
    if strategy is AnchorStrategy.NULL:
        profile = MarginalAnchorProfile.zeros(corpus.length)
    elif isinstance(predictor, ExactPosteriorDenoiser):
        profile = PosteriorAnchorProfile(predictor)
    else:
        profile = MarginalAnchorProfile.of_corpus(corpus)
    return AnchoredPair(predictor, profile)


def render_ids(ids: np.ndarray, vocab: Vocab) -> str:
    return render_surfaces([vocab.surface(int(i)) for i in ids])


def compare_strategies(
    records: list[DatasetRecord],
    configs: list[SamplerConfig],
    t_grid: list[int],
    n_samples: int,
    schedule_kind,
    seed: int,
    length: int | None = None,
    nelbo_records: int = 6,
    nelbo_samples: int = 96,
    predictor_kind: str = "exact",
) -> list[EvalRow]:
    """Generate with each config across the step grid and report validity,
    depth-ordering correlation, and NELBO, with seeds shared across configs
    so rows are paired.

    Tokens, trees and annotations do not depend on the anchor config, so
    ``records`` may be annotated under any config: each config reweights
    them, once per distinct annotation. The vocabulary comes from the
    records' tokens, the same for every config."""
    rows: list[EvalRow] = []
    for config in configs:
        anchor_cfg = config.strategy
        weighted = reweight_records(records, anchor_cfg)
        corpus = build_corpus(weighted, length=length)
        predictors = build_strategy_predictors(
            corpus, anchor_cfg.strategy, predictor_kind
        )
        loss = _strategy_nelbo(corpus, nelbo_records, nelbo_samples, seed)
        for T in t_grid:
            cfg = replace(config, T=T)
            schedule = NoiseSchedule(schedule_kind, T)
            valid = 0
            depths: list[float] = []
            times: list[float] = []
            for j in range(n_samples):
                rng = np.random.default_rng([seed, T, j])
                out, trace = generate([], corpus.length, predictors, cfg, schedule, rng)
                text = render_ids(out, corpus.vocab)
                if is_syntactically_valid(text):
                    valid += 1
                _collect_depth_times(out, trace, corpus, depths, times)
            corr = _pearson(depths, times)
            rows.append(
                EvalRow(
                    strategy=anchor_cfg.strategy.value,
                    gamma=anchor_cfg.gamma,
                    beta=anchor_cfg.beta,
                    T=T,
                    syntax_fraction=valid / n_samples,
                    mean_unmask_depth_corr=corr,
                    nelbo=loss,
                )
            )
    return rows


def _collect_depth_times(
    out: np.ndarray,
    trace: DenoiseTrace,
    corpus: Corpus,
    depths: list[float],
    times: list[float],
) -> None:
    matches = np.flatnonzero((corpus.ids == out[None, :]).all(axis=1))
    if len(matches) == 0 or corpus.depth is None:
        return
    depth_row = corpus.depth[matches[0]]
    for l, time in trace.final_unmask_times(depth_row):
        depths.append(float(depth_row[l]))
        times.append(time)


def _pearson(xs: list[float], ys: list[float]) -> float:
    if len(xs) < 2:
        return float("nan")
    x = np.asarray(xs)
    y = np.asarray(ys)
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return float("nan")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def _strategy_nelbo(corpus: Corpus, n_records: int, n_samples: int, seed: int) -> float:
    """NELBO of the count model composed under the corpus's anchor arrays.

    The Bayes-exact composition pins its intermediate sequence to one
    corpus program, so at high noise it assigns zero probability to clean
    tokens and its NELBO is infinite by construction; the smoothed count
    model is the learned-model stand-in and stays finite. Under Null the
    corpus marks no anchor, so the composition scores as the model alone.
    """
    model = BackoffCountModel.fit(corpus)
    schedule = NoiseSchedule(T=16)
    total = 0.0
    n = max(1, min(n_records, corpus.n))
    for i in range(n):
        x = LatentSequence(ids=corpus.ids[i].copy(), mask_id=corpus.vocab.mask_id)
        predictor = TwoStagePredictor(model, model, corpus.omega[i], corpus.eta[i])
        report = nelbo(x, predictor, schedule, n_samples, np.random.default_rng([seed, 7, i]))
        total += report.estimate
    return total / n
