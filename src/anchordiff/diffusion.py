"""Masked-diffusion core: forward corruption, the exact reverse posterior
step, predictor constraints, and Monte Carlo loss estimation.

The forward process masks each non-prompt position independently with
probability 1 - alpha(t). The exact reverse posterior copies unmasked
positions and flips masked ones to the clean token with probability
(alpha_s - alpha_t) / (1 - alpha_t). Model-driven generation lives in
``sampler.generate``. Predictions are plain ``(L, K)`` probability arrays:
``apply_constraints`` gives every row zero mass on the mask token and a
one-hot row at every unmasked position.
"""

from __future__ import annotations

import json
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
    keep = alpha(schedule, t)
    coins = rng.random(len(x))
    masked = (coins < 1.0 - keep) & ~x.prompt_mask
    ids = np.where(masked, x.mask_id, x.ids)
    return x.copy_with(ids)


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


def apply_constraints(raw: np.ndarray, z: LatentSequence) -> np.ndarray:
    """Enforce zero-masking and carry-over on raw non-negative rows.

    The mask column is zeroed, masked-position rows are renormalized
    (raising DegenerateRowError when nothing is left), and unmasked
    positions are overwritten with the observed one-hot. Idempotent; the
    result is a new array, which the caller may write to.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (len(z), z.mask_id + 1):
        raise ValueError(
            f"raw predictions must have shape {(len(z), z.mask_id + 1)}, got {raw.shape}"
        )
    if np.any(raw < 0):
        raise ValueError("raw predictions must be non-negative")
    probs = raw.copy()
    probs[:, z.mask_id] = 0.0
    masked = z.is_masked
    totals = probs.sum(axis=1)
    bad = masked & ~(totals > 0)
    if np.any(bad):
        raise DegenerateRowError(
            f"no non-mask mass at positions {np.flatnonzero(bad).tolist()}"
        )
    # Leave rows that already sum to 1 untouched so the operation is
    # exactly idempotent despite floating-point division.
    renorm = masked & (np.abs(totals - 1.0) > 1e-12)
    probs[renorm] /= totals[renorm, None]
    unmasked_idx = np.flatnonzero(~masked)
    probs[unmasked_idx] = 0.0
    probs[unmasked_idx, z.ids[unmasked_idx]] = 1.0
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "estimate": self.estimate,
                "stderr": self.stderr,
                "n_samples": self.n_samples,
                "seed": self.seed,
                "n_infinite": self.n_infinite,
            }
        )


def _allocate_strata(n_samples: int, T: int) -> list[int]:
    base, rem = divmod(max(n_samples, T), T)
    return [base + (1 if i < rem else 0) for i in range(T)]


def _stratified_loss(
    x: LatentSequence,
    schedule: NoiseSchedule,
    n_samples: int,
    rng: np.random.Generator | int | None,
    summand,
) -> LossReport:
    """Shared stratified-MC loop: ``summand(z)`` returns the unweighted
    per-draw log term, which is scaled by lambda_i within each stratum."""
    seed = rng if isinstance(rng, int) else None
    rng = as_rng(rng)
    counts = _allocate_strata(n_samples, schedule.T)
    estimate = 0.0
    variance = 0.0
    n_infinite = 0
    for i in range(1, schedule.T + 1):
        lam = lambda_weight(schedule, i)
        _, t = step_times(schedule, i)
        n_i = counts[i - 1]
        vals = np.empty(n_i)
        for j in range(n_i):
            z = corrupt(x, t, schedule, rng)
            log_term, inf_hits = summand(z)
            n_infinite += inf_hits
            vals[j] = lam * log_term
        estimate += float(vals.mean())
        if n_i > 1:
            variance += float(vals.var(ddof=1)) / n_i
    stderr = float(np.sqrt(variance))
    if n_infinite:
        estimate = float("inf")
        stderr = float("inf")
    return LossReport(estimate, stderr, sum(counts), seed, n_infinite)


def _masked_log_prob(
    probs: np.ndarray, targets: np.ndarray, positions: np.ndarray
) -> tuple[float, int]:
    if len(positions) == 0:
        return 0.0, 0
    p = probs[positions, targets[positions]]
    zero = p == 0
    if zero.any():
        with np.errstate(divide="ignore"):
            return float(np.log(p[~zero]).sum()), int(zero.sum())
    return float(np.log(p).sum()), 0


def nelbo(
    x: LatentSequence,
    predictor,
    schedule: NoiseSchedule,
    n_samples: int,
    rng: np.random.Generator | int | None,
) -> LossReport:
    """Estimate the negative ELBO of ``predictor`` on clean sequence ``x``.

    Stratifies draws over the step indices; carry-over positions contribute
    exactly zero, so only masked positions are evaluated. A masked position
    with zero predicted probability is counted and drives the estimate to
    infinity rather than failing silently.
    """

    def summand(z: LatentSequence) -> tuple[float, int]:
        probs = apply_constraints(predictor.predict(z), z)
        masked = np.flatnonzero(z.is_masked)
        return _masked_log_prob(probs, x.ids, masked)

    return _stratified_loss(x, schedule, n_samples, rng, summand)


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

    ``predictor_pair`` must expose ``stage_matrices(z) -> (anchor, final)``
    with both matrices already constraint-satisfying. Positions with
    mu = 0 are excluded from the anchor term before any log is taken.
    """
    anchor_targets = np.asarray(anchor_targets)
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) != len(x) or len(anchor_targets) != len(x):
        raise ValueError("mu and anchor_targets must align with x")
    anchored = np.flatnonzero(mu > 0)

    def summand(z: LatentSequence) -> tuple[float, int]:
        anchor_probs, final_probs = predictor_pair.stage_matrices(z)
        masked = np.flatnonzero(z.is_masked)
        log_term, inf_hits = _masked_log_prob(final_probs, x.ids, masked)
        if len(anchored):
            p = anchor_probs[anchored, anchor_targets[anchored]]
            zero = p == 0
            inf_hits += int(zero.sum())
            if zero.any():
                log_term += float((mu[anchored][~zero] * np.log(p[~zero])).sum())
            else:
                log_term += float((mu[anchored] * np.log(p)).sum())
        return log_term, inf_hits

    return _stratified_loss(x, schedule, n_samples, rng, summand)
