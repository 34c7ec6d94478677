"""Masked-diffusion core: forward corruption, the exact reverse posterior
step, predictor constraints, and Monte Carlo loss estimation.

The forward process masks each non-prompt position of a ``LatentSequence``
independently with probability 1 - alpha(t). The exact reverse posterior
copies unmasked positions and flips masked ones to the clean token with
probability (alpha_s - alpha_t) / (1 - alpha_t). Model-driven generation
lives in ``sampler.generate``. Predictors answer the three queries of
``denoisers.Predictor`` on plain id arrays; ``apply_constraints`` states
the rules their probabilities follow (zero mass on the mask token, a
one-hot row at every unmasked position) for raw rows a caller holds.

The losses are stratified Monte Carlo estimates over the step indices.
The draws of all strata are corrupted and scored as batches (one block of
coins per batch, one batched query), with the same random stream and the
same per-draw log sums as one ``corrupt`` call and one prediction per draw.
A loss reads only the probability of the clean token (and of the anchor
target) at each position, so it asks the predictor for those through
``target_probs`` of the batch's (n, L) ids, an (n, L) array per batch (the
anchored loss asks an ``AnchoredPair`` and its predictor). A
batch is then summed with a fixed number of array operations, with no
Python step per draw or per stratum: ``_kept_sums`` gives every draw's log
sum from two ``bincount`` calls that add the terms in the order numpy's 1-D
sum of each draw would, and ``_strata_stats`` takes the strata's means and
variances as one block per stratum size. Every estimate and stderr keeps the bits of a loop that
sums one draw and one stratum at a time (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, alpha, lambda_weight, step_times, unmask_prob


class DiffusionError(Exception):
    pass


class ConsistencyError(DiffusionError):
    """An unmasked latent position disagrees with the clean sequence."""


class DegenerateRowError(DiffusionError):
    """A predictor row carries no probability mass off the mask token."""


@dataclass(frozen=True)
class Vocab:
    """Ordered token surfaces; the mask token is always last."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) < 2:
            raise ValueError("vocabulary needs at least one token plus the mask")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate token surfaces")
        object.__setattr__(
            self, "_index", {tok: i for i, tok in enumerate(self.tokens)}
        )

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def mask_id(self) -> int:
        return len(self.tokens) - 1

    def id(self, surface: str) -> int:
        return self._index[surface]

    def surface(self, token_id: int) -> str:
        return self.tokens[token_id]


@dataclass
class LatentSequence:
    """Per-position token-or-mask state.

    Prompt positions are conditioning tokens: never masked, never touched
    by any step. Length is fixed at construction.
    """

    ids: np.ndarray
    mask_id: int
    prompt_mask: np.ndarray = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.prompt_mask is None:
            self.prompt_mask = np.zeros(len(self.ids), dtype=bool)
        else:
            self.prompt_mask = np.asarray(self.prompt_mask, dtype=bool)
        if len(self.prompt_mask) != len(self.ids):
            raise ValueError("prompt_mask must align with ids")
        if np.any(self.ids[self.prompt_mask] == self.mask_id):
            raise ValueError("prompt positions must not be masked")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def is_masked(self) -> np.ndarray:
        return self.ids == self.mask_id

    def copy_with(self, ids: np.ndarray) -> "LatentSequence":
        return LatentSequence(
            ids=np.array(ids, dtype=np.int64),
            mask_id=self.mask_id,
            prompt_mask=self.prompt_mask,
        )


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def corrupt(
    x: LatentSequence,
    t: float,
    schedule: NoiseSchedule,
    rng: np.random.Generator | int | None,
) -> LatentSequence:
    """Sample z_t from the forward process: each non-prompt position keeps
    its token with probability alpha(t), otherwise becomes the mask."""
    rng = as_rng(rng)
    return x.copy_with(_forward_mask(x, alpha(schedule, t), rng.random(len(x))))


def _forward_mask(x: LatentSequence, keep: float, coins: np.ndarray) -> np.ndarray:
    """The forward process's masking rule: ids of ``x`` with each non-prompt
    position masked where its uniform coin falls below 1 - keep. ``coins``
    may carry leading draw dimensions, and ``keep`` one value per draw."""
    return np.where((coins < 1.0 - keep) & ~x.prompt_mask, x.mask_id, x.ids)


def reverse_posterior_step(
    z_t: LatentSequence,
    x: LatentSequence,
    i: int,
    schedule: NoiseSchedule,
    rng: np.random.Generator | int | None,
) -> LatentSequence:
    """One exact reverse step given the clean sequence: unmasked positions
    are copied, masked ones flip to the clean token with probability
    unmask_prob(i)."""
    rng = as_rng(rng)
    unmasked = ~z_t.is_masked
    if np.any(z_t.ids[unmasked] != x.ids[unmasked]):
        raise ConsistencyError("z_t disagrees with x at an unmasked position")
    p = unmask_prob(schedule, i)
    coins = rng.random(len(z_t))
    flip = z_t.is_masked & ~z_t.prompt_mask & (coins < p)
    ids = np.where(flip, x.ids, z_t.ids)
    return z_t.copy_with(ids)


def apply_constraints(
    raw: np.ndarray, z: LatentSequence | list[LatentSequence]
) -> np.ndarray:
    """Enforce zero-masking and carry-over on raw non-negative rows.

    ``raw`` holds the ``(L, K)`` rows of one latent ``z``, or the
    ``(n, L, K)`` rows of a list of n latents of one length. The mask
    column is zeroed, masked-position rows are renormalized (raising
    DegenerateRowError when nothing is left), and unmasked positions are
    overwritten with the observed one-hot. Each row gets the same
    arithmetic either way. Idempotent; the result is a new array, which
    the caller may write to.
    """
    if isinstance(z, LatentSequence):
        ids, mask_id = z.ids, z.mask_id
    else:
        ids, mask_id = np.stack([v.ids for v in z]), z[0].mask_id
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != ids.shape + (mask_id + 1,):
        raise ValueError(
            f"raw predictions must have shape {ids.shape + (mask_id + 1,)}, got {raw.shape}"
        )
    if np.any(raw < 0):
        raise ValueError("raw predictions must be non-negative")
    probs = raw.copy()
    probs[..., mask_id] = 0.0
    masked = ids == mask_id
    totals = probs.sum(axis=-1)
    bad = masked & ~(totals > 0)
    if np.any(bad):
        raise DegenerateRowError(
            f"no non-mask mass at positions {np.nonzero(bad)[-1].tolist()}"
        )
    # Leave rows that already sum to 1 untouched so the operation is
    # exactly idempotent despite floating-point division.
    renorm = masked & (np.abs(totals - 1.0) > 1e-12)
    np.divide(probs, totals[..., None], out=probs, where=renorm[..., None])
    unmasked = np.nonzero(~masked)
    probs[unmasked] = 0.0
    probs[unmasked + (ids[unmasked],)] = 1.0
    return probs


def temper_row(row: np.ndarray, temperature: float) -> np.ndarray:
    """Sharpen a probability row: each entry raised to 1/temperature, then
    renormalized. The temperature -> 0 limit is a one-hot argmax."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if temperature == 1.0:
        return row
    if temperature < 1e-6:
        out = np.zeros_like(row)
        out[int(np.argmax(row))] = 1.0
        return out
    scaled = (row / row.max()) ** (1.0 / temperature)
    return scaled / scaled.sum()


def sample_categorical(row: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(row)
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(row) - 1))


@dataclass
class LossReport:
    """Monte Carlo loss estimate with its standard error."""

    estimate: float
    stderr: float
    n_samples: int
    seed: int | None = None
    n_infinite: int = 0


def _allocate_strata(n_samples: int, T: int) -> list[int]:
    base, rem = divmod(max(n_samples, T), T)
    return [base + (1 if i < rem else 0) for i in range(T)]


@functools.lru_cache(maxsize=64)
def _strata_tables(schedule: NoiseSchedule, n_samples: int):
    """The stratum sizes, and lambda_i and alpha(t_i) repeated once per draw
    of stratum i, as read-only arrays, for one (schedule, n_samples)."""
    counts = _allocate_strata(n_samples, schedule.T)
    steps = range(1, schedule.T + 1)
    lam = np.repeat([lambda_weight(schedule, i) for i in steps], counts)
    keep = np.repeat([alpha(schedule, step_times(schedule, i)[1]) for i in steps], counts)
    lam.setflags(write=False)
    keep.setflags(write=False)
    return tuple(counts), lam, keep


# A batch of loss draws holds at most this many cells, counting (L, K) per
# draw, so memory stays bounded whatever n_samples is.
LOSS_BATCH_CELLS = 1 << 20


def _stratified_loss(
    x: LatentSequence,
    schedule: NoiseSchedule,
    n_samples: int,
    rng: np.random.Generator | int | None,
    score,
) -> LossReport:
    """Shared stratified-MC loop: ``score(ids)`` yields the unweighted
    per-draw log terms and infinite hits, two (n,) arrays, of an (n, L)
    batch of corrupted latent ids, and each log term is scaled by lambda_i
    of its draw's stratum.

    The draws are laid out stratum by stratum, and each batch's corruption
    coins are one ``(draws, L)`` block, which gives the same doubles, in the
    same order, as one ``corrupt`` call per draw. The per-draw lambda and
    alpha come from ``_strata_tables``, and the estimate and variance from
    ``_strata_stats``.
    """
    seed = rng if isinstance(rng, int) else None
    rng = as_rng(rng)
    counts, lam, keep = _strata_tables(schedule, n_samples)
    batch = max(1, LOSS_BATCH_CELLS // max(1, len(x) * (x.mask_id + 1)))
    vals = np.empty(len(lam))
    n_infinite = 0
    for start in range(0, len(vals), batch):
        stop = min(start + batch, len(vals))
        coins = rng.random((stop - start, len(x)))
        log_terms, inf_hits = score(_forward_mask(x, keep[start:stop, None], coins))
        n_infinite += int(inf_hits.sum())
        vals[start:stop] = lam[start:stop] * log_terms
    estimate, variance = _strata_stats(vals, counts)
    stderr = float(np.sqrt(variance))
    if n_infinite:
        estimate = float("inf")
        stderr = float("inf")
    return LossReport(estimate, stderr, sum(counts), seed, n_infinite)


def _strata_stats(vals: np.ndarray, counts) -> tuple[float, float]:
    """The sum over strata of each stratum's mean, and of its ``var(ddof=1)``
    over its size (none for a one-draw stratum), of the draws ``vals`` laid
    out stratum by stratum, ``counts[i]`` in stratum i.

    The strata of one size are one ``(strata, draws)`` block, and
    ``sum(axis=1)`` sums each of its rows as the 1-D sum of that row, so
    each mean and variance takes the bits ``mean()`` and ``var(ddof=1)``
    of the stratum give: the same sums and the same divisions, in the same
    order. The strata are then added up in order, as Python floats.
    """
    means, variances = [], []
    start = 0
    for size, group in itertools.groupby(counts):
        strata = len(list(group))
        block = vals[start : start + strata * size].reshape(strata, size)
        start += strata * size
        mean = block.sum(axis=1, keepdims=True) / size
        means += mean.ravel().tolist()
        if size > 1:
            dev = block - mean
            np.square(dev, out=dev)
            variances += (dev.sum(axis=1) / (size - 1) / size).tolist()
    # One at a time, in order: sum() may compensate (Python 3.12's does).
    estimate = variance = 0.0
    for m in means:
        estimate += m
    for v in variances:
        variance += v
    return estimate, variance


# numpy's pairwise summation of one contiguous 1-D array of n doubles
# (``pairwise_sum`` in its C loops; the lanes and the block are numpy
# internals, not its API) works, for n up to _PAIRWISE_BLOCK, as follows.
# Under _LANES terms it adds them in order. Otherwise it keeps _LANES lane
# accumulators over the first n - n % _LANES terms, lane k taking terms
# k, k + 8, ... in order, combines them as
# ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then adds the last
# n % _LANES terms in order. tests/test_diffusion.py holds ``_kept_sums`` to
# the per-row sum of tests/oracles.py bit for bit, so a numpy that sums
# otherwise fails there.
_LANES = 8
_PAIRWISE_BLOCK = 128


def _kept_sums(values: np.ndarray, keep: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """``(weights[k] * row[k]).sum()`` of each row of the (n, L) ``values``
    with k its row of ``keep`` (``row[k].sum()`` without weights), bit for
    bit, from two ``bincount`` calls: ``bincount`` adds its weights in
    input order. The first sums each row's terms into its lanes, the second
    adds each row's tail to its lanes' tree; the terms of the other call go
    to a spare bin. A row of more than _PAIRWISE_BLOCK terms, which numpy
    splits further, is summed as a 1-D array."""
    n, L = keep.shape
    flat = keep.ravel().nonzero()[0]
    row, col = np.divmod(flat, L)
    terms = values.take(flat)
    if weights is not None:
        terms = weights.take(col) * terms
    counts = np.bincount(row, minlength=n)
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(flat)) - starts[row]
    in_lane = rank < (counts - counts % _LANES)[row]
    lanes = np.bincount(
        np.where(in_lane, row * _LANES + rank % _LANES, n * _LANES),
        weights=terms,
        minlength=n * _LANES + 1,
    )
    r = lanes[: n * _LANES].reshape(_LANES, n, order="F")
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    sums = np.bincount(
        np.concatenate([np.arange(n), np.where(in_lane, n, row)]),
        weights=np.concatenate([tree, terms]),
        minlength=n + 1,
    )[:n]
    for j in (counts > _PAIRWISE_BLOCK).nonzero()[0].tolist():
        sums[j] = np.add.reduce(terms[starts[j] : starts[j] + counts[j]])
    return sums


def _log_sums(
    probs: np.ndarray, use: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (n, L) target probabilities: the sum of the logs at the
    positions ``use`` marks, each times its weight when ``weights`` is
    given, skipping zero probabilities, and the number of zeros skipped.

    Each row's sum has the bits of its kept terms summed as their own 1-D
    array, in position order, as ``_kept_sums`` gives them for the whole
    batch at once."""
    zero = probs == 0
    hits = (zero & use).sum(axis=1)
    with np.errstate(divide="ignore"):
        logs = np.log(probs)
    return _kept_sums(logs, use & ~zero, weights), hits


def nelbo(
    x: LatentSequence,
    predictor,
    schedule: NoiseSchedule,
    n_samples: int,
    rng: np.random.Generator | int | None,
) -> LossReport:
    """Estimate the negative ELBO of ``predictor`` (a ``Predictor`` or an
    ``AnchoredPair``, scored through ``target_probs``) on clean sequence ``x``.

    Stratifies draws over the step indices; carry-over positions contribute
    exactly zero, so only masked positions are evaluated. A masked position
    with zero predicted probability is counted and drives the estimate to
    infinity rather than failing silently.
    """

    def score(ids: np.ndarray):
        return _log_sums(predictor.target_probs(ids, x.ids), ids == x.mask_id)

    return _stratified_loss(x, schedule, n_samples, rng, score)


def anelbo(
    x: LatentSequence,
    anchor_targets: np.ndarray,
    predictor_pair,
    schedule: NoiseSchedule,
    mu: np.ndarray,
    n_samples: int,
    rng: np.random.Generator | int | None,
) -> LossReport:
    """Anchored NELBO: the NELBO term of the composed predictor plus the
    mu-weighted anchor term, estimated on shared corruption draws.

    ``predictor_pair`` is an ``AnchoredPair`` under fixed anchor data, as
    ``TwoStagePredictor`` builds it: the NELBO term reads its
    ``target_probs`` of the clean tokens, the anchor term its predictor's
    ``target_probs`` of ``anchor_targets``. Positions with mu = 0 are
    excluded from the anchor term before any log is taken.
    """
    anchor_targets = np.asarray(anchor_targets)
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) != len(x) or len(anchor_targets) != len(x):
        raise ValueError("mu and anchor_targets must align with x")
    anchored = (mu > 0).nonzero()[0]

    def score(ids: np.ndarray):
        probs = predictor_pair.target_probs(ids, x.ids)
        log_terms, inf_hits = _log_sums(probs, ids == x.mask_id)
        if len(anchored):
            probs = predictor_pair.predictor.target_probs(ids, anchor_targets)
            anchor_terms, anchor_hits = _log_sums(
                probs[:, anchored], np.ones((len(ids), len(anchored)), dtype=bool), mu[anchored]
            )
            log_terms += anchor_terms
            inf_hits += anchor_hits
        return log_terms, inf_hits

    return _stratified_loss(x, schedule, n_samples, rng, score)
