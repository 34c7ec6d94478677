"""Reverse-time generation with anchor-first scheduling and remasking.

Each reverse step draws its unmask budget from Binomial(#masked,
unmask_prob(i)) - the same count distribution as independent per-position
coins - and spends it anchors-first in descending anchor weight, then on
uniformly shuffled non-anchor positions. Commits within a step are made one
at a time, each conditioned on the commits before it, so table-based
predictors are never queried outside their support. Every strategy runs
this one loop: the Null strategy's profile is all zeros, so it has no
anchors and the loop is the plain masked-diffusion reverse process.

A commit whose row is one-hot (every consistent corpus row agrees there,
as at most of the exact table's commits) takes its token and draws the
one uniform ``sample_categorical`` would, without tempering or a cdf
(``draw_token``): the token and the random stream are those of the full
draw. Every commit still makes its one ``predict_row`` query and every
step with a nonzero budget its one profile query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .anchors import AnchorConfig, AnchorStrategy
from .denoisers import AnchoredPair, anchor_commit_order
from .diffusion import DiffusionError, as_rng, sample_categorical, temper_row
from .schedule import NoiseSchedule, unmask_prob


@dataclass(frozen=True)
class SamplerConfig:
    T: int
    temperature: float = 0.8
    remask_rate: float = 0.0
    strategy: AnchorConfig = field(
        default_factory=lambda: AnchorConfig.for_strategy(AnchorStrategy.NULL)
    )
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not 0.0 <= self.remask_rate <= 1.0:
            raise ValueError("remask_rate must lie in [0, 1]")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")


def default_remask_rate(strategy: AnchorStrategy) -> float:
    """Anchored sampling defaults to a 0.1 remask rate; baselines to 0."""
    return 0.0 if strategy is AnchorStrategy.NULL else 0.1


class TraceEvent(NamedTuple):
    position: int
    step: int
    event: str  # "unmask" | "remask"
    token: int
    stage: str  # "anchor" | "denoise"


class DenoiseTrace:
    """Chronological unmask/remask events and each position's last unmask step."""

    def __init__(self, T: int, length: int):
        self.T = T
        self.length = length
        self.events: list[TraceEvent] = []
        self._last_unmask: list[int | None] = [None] * length

    def record(self, position: int, step: int, event: str, token: int, stage: str) -> None:
        self.events.append(TraceEvent(position, step, event, token, stage))
        if event == "unmask":
            self._last_unmask[position] = step

    def final_unmask_times(self, depth: np.ndarray) -> list[tuple[int, float]]:
        """(position, normalized final-unmask time) for each position with
        an unmask event (so not the prompt) and a depth >= 0 (so not
        padding), in position order. Normalized time is (T - final unmask
        step) / T: 0 means unmasked at the first reverse step, values near
        1 mean resolved at the very end."""
        return [
            (l, (self.T - step) / self.T)
            for l, step in enumerate(self._last_unmask)
            if step is not None and depth[l] >= 0
        ]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "pos": e.position,
                    "step": e.step,
                    "event": e.event,
                    "token": e.token,
                    "stage": e.stage,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            for e in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def draw_token(row: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """``sample_categorical(temper_row(row, temperature), rng)``, without
    the arithmetic when ``row`` is one-hot with a 1.0: tempering keeps that
    row as it is, and the draw's one uniform, below 1, lands on its token,
    so the token and the random stream are the full draw's."""
    sure = row.nonzero()[0]
    if len(sure) == 1 and row[sure[0]] == 1.0:
        rng.random()
        return int(sure[0])
    return sample_categorical(temper_row(row, temperature), rng)


def generate(
    prompt: np.ndarray | list[int],
    length: int,
    predictors: AnchoredPair,
    config: SamplerConfig,
    schedule: NoiseSchedule,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, DenoiseTrace]:
    """Run the full reverse chain from an all-masked sequence.

    The prompt occupies the leading positions verbatim and is never
    touched. Termination is guaranteed: the final step has unmask
    probability 1 and no remask pass. The config's step count wins when the
    schedule was discretized differently. A predictor that commits the mask
    token leaves a residual mask, which raises DiffusionError.
    """
    prompt = np.asarray(prompt, dtype=np.int64)
    if len(prompt) > length:
        raise ValueError("prompt longer than requested length")
    mask_id = predictors.predictor.vocab.mask_id
    if np.any(prompt == mask_id):
        raise ValueError("prompt must not contain mask tokens")
    rng = as_rng(config.seed if rng is None else rng)
    if schedule.T != config.T:
        schedule = NoiseSchedule(schedule.kind, config.T)

    ids = np.full(length, mask_id, dtype=np.int64)
    ids[: len(prompt)] = prompt
    prompt_mask = np.zeros(length, dtype=bool)
    prompt_mask[: len(prompt)] = True
    # ``ids`` is the one live latent: every commit and remask below writes
    # into it and so is seen by the next predictor query.
    trace = DenoiseTrace(config.T, length)
    last_stage = ["denoise"] * length

    for i in range(config.T, 0, -1):
        p = unmask_prob(schedule, i)
        is_masked = ids == mask_id
        masked = is_masked.nonzero()[0]
        budget = int(rng.binomial(len(masked), p)) if len(masked) else 0
        if budget:
            omega_hat, eta_hat = predictors.profile(ids)
            anchors = anchor_commit_order(omega_hat, eta_hat, is_masked)
            others = masked[omega_hat[masked] < 0.5]
            rng.shuffle(others)
            # Every masked anchor is committed before any other position, so
            # the later rows always condition on the full anchor scaffold.
            for k, l in enumerate((anchors + others.tolist())[:budget]):
                row = predictors.predictor.predict_row(ids, l)
                token = draw_token(row, config.temperature, rng)
                ids[l] = token
                last_stage[l] = "anchor" if k < len(anchors) else "denoise"
                trace.record(l, i, "unmask", token, last_stage[l])
        if i > 1 and config.remask_rate > 0:
            committed = ((ids != mask_id) & ~prompt_mask).nonzero()[0]
            # One coin per committed position, drawn in position order.
            coins = rng.random(len(committed))
            for l in committed[coins < config.remask_rate * p].tolist():
                trace.record(l, i, "remask", int(ids[l]), last_stage[l])
                ids[l] = mask_id

    if np.any(ids == mask_id):
        raise DiffusionError("generation finished with mask tokens present")
    return ids.copy(), trace


def unmask_order_stats(
    trace: DenoiseTrace, depth: np.ndarray, omega: np.ndarray
) -> dict[tuple[int, bool], tuple[float, int]]:
    """Aggregate normalized final-unmask times (``final_unmask_times``) per
    (depth, anchor flag)."""
    depth = np.asarray(depth)
    omega = np.asarray(omega)
    buckets: dict[tuple[int, bool], list[float]] = {}
    for l, time in trace.final_unmask_times(depth):
        key = (int(depth[l]), bool(omega[l] >= 0.5))
        buckets.setdefault(key, []).append(time)
    return {
        key: (float(np.mean(vals)), len(vals)) for key, vals in sorted(buckets.items())
    }
