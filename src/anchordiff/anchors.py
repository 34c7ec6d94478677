"""Anchor indicators and depth-decayed anchor weights.

A position's weight is mu(l) = omega(l) * eta(l): omega flags which tokens
are anchors under the chosen strategy, and eta decays exponentially with
tree depth, eta(l) = gamma * exp(-beta * max(depth(l) - d0, 0)). With
beta = 0 every anchor gets the flat weight gamma (hard anchoring).

Omega reads each token's kind; eta is gathered from a table over the depth
excess max(depth - d0, 0) whose entries ``eta_for_depth`` computes, so it
equals the scalar formula bit for bit at every depth, a pad's -1 included.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .minilang import Token, TokenKind


class AnchorStrategy(enum.Enum):
    NULL = "null"
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    ANCHOR_TREE = "anchor_tree"


# Tuned supervision weights per strategy; the hard strategies use beta = 0.
_DEFAULT_GAMMA = {
    AnchorStrategy.ANCHOR_TREE: 0.03,
    AnchorStrategy.KEYWORD: 0.1,
    AnchorStrategy.IDENTIFIER: 0.01,
    AnchorStrategy.NULL: 0.0,
}
_DEFAULT_BETA = {
    AnchorStrategy.ANCHOR_TREE: 0.7,
    AnchorStrategy.KEYWORD: 0.0,
    AnchorStrategy.IDENTIFIER: 0.0,
    AnchorStrategy.NULL: 0.0,
}
DEFAULT_D0 = 2

# The token kinds each strategy anchors. Tuples, since ``in`` on a tuple
# compares members by identity first, where a set would hash each kind
# through the Python-level ``Enum.__hash__``.
_ANCHORED_KINDS = {
    AnchorStrategy.NULL: (),
    AnchorStrategy.KEYWORD: (TokenKind.KEYWORD,),
    AnchorStrategy.IDENTIFIER: (TokenKind.IDENTIFIER,),
    AnchorStrategy.ANCHOR_TREE: (TokenKind.KEYWORD, TokenKind.IDENTIFIER),
}


def default_gamma(strategy: AnchorStrategy) -> float:
    return _DEFAULT_GAMMA[strategy]


def default_beta(strategy: AnchorStrategy) -> float:
    return _DEFAULT_BETA[strategy]


@dataclass(frozen=True)
class AnchorConfig:
    strategy: AnchorStrategy
    gamma: float
    beta: float
    d0: int = DEFAULT_D0

    def __post_init__(self):
        for name in ("gamma", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.d0 < 0:
            raise ValueError("d0 must be >= 0")

    @classmethod
    def for_strategy(
        cls,
        strategy: AnchorStrategy | str,
        gamma: float | None = None,
        beta: float | None = None,
        d0: int = DEFAULT_D0,
    ) -> "AnchorConfig":
        """Config with the strategy's tuned gamma/beta unless overridden."""
        if isinstance(strategy, str):
            strategy = AnchorStrategy(strategy)
        return cls(
            strategy=strategy,
            gamma=default_gamma(strategy) if gamma is None else gamma,
            beta=default_beta(strategy) if beta is None else beta,
            d0=d0,
        )

    def to_dict(self) -> dict:
        """The JSON form, as in a dataset header and a run manifest."""
        return {**asdict(self), "strategy": self.strategy.value}

    @classmethod
    def from_dict(cls, data: dict) -> "AnchorConfig":
        """The config of a ``to_dict`` form; a missing or unknown key, or a
        value of another JSON type (a bool is no number), is a ValueError."""
        names = sorted(f.name for f in fields(cls))
        if sorted(data) != names:
            raise ValueError(f"anchor config needs the keys {names}, got {sorted(data)}")
        for name, types in _FIELD_TYPES.items():
            if isinstance(data[name], bool) or not isinstance(data[name], types):
                raise ValueError(
                    f"anchor config {name!r} must be of type {types[-1].__name__}, "
                    f"got {data[name]!r}"
                )
        return cls(**{**data, "strategy": AnchorStrategy(data["strategy"])})


# The JSON types of each field of an AnchorConfig's dict form.
_FIELD_TYPES = {"strategy": (str,), "gamma": (int, float), "beta": (int, float), "d0": (int,)}


@dataclass(frozen=True)
class AnchorWeights:
    """Per-position anchor data: omega indicator, eta schedule, mu weight,
    and the anchor target token id (the clean token at anchors, the mask
    id elsewhere)."""

    omega: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    anchor_target: np.ndarray


def compute_omega(tokens: list[Token], config: AnchorConfig) -> np.ndarray:
    """0/1 anchor indicator per position under the configured strategy."""
    anchored = _ANCHORED_KINDS[config.strategy]
    return np.array([tok.kind in anchored for tok in tokens], dtype=np.int8)


def eta_for_depth(depth: int, config: AnchorConfig) -> float:
    return config.gamma * math.exp(-config.beta * max(depth - config.d0, 0))


def compute_eta(depth: np.ndarray, config: AnchorConfig) -> np.ndarray:
    """Depth-decay schedule per position; depends only on node depth."""
    depth = np.asarray(depth, dtype=np.int64)
    top = int(depth.max(initial=0))
    d0 = min(config.d0, top)  # a d0 past every depth leaves no excess and may not fit int64
    table = [eta_for_depth(config.d0 + e, config) for e in range(top - d0 + 1)]
    return np.array(table, dtype=np.float64)[np.maximum(depth - d0, 0)]


def compute_anchor_targets(
    token_ids: np.ndarray, omega: np.ndarray, mask_id: int
) -> np.ndarray:
    """Anchor labels: the clean token where omega = 1, the mask id where
    omega = 0 (inert there, since mu = 0 removes the term anyway)."""
    token_ids = np.asarray(token_ids)
    if len(token_ids) != len(omega):
        raise ValueError("token_ids and omega must align")
    return np.where(np.asarray(omega) == 1, token_ids, mask_id)


def compute_weights(
    tokens: list[Token],
    depth: np.ndarray,
    token_ids: np.ndarray,
    config: AnchorConfig,
    mask_id: int,
) -> AnchorWeights:
    """Bundle omega, eta, mu, and anchor targets for one sequence."""
    omega = compute_omega(tokens, config)
    eta = compute_eta(depth, config)
    mu = omega * eta
    target = compute_anchor_targets(token_ids, omega, mask_id)
    return AnchorWeights(omega=omega, eta=eta, mu=mu, anchor_target=target)
