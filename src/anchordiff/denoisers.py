"""Reference predictors over a finite corpus.

Three implementations of the predictor contract (raw per-position rows over
the vocabulary, later passed through apply_constraints):

* ExactPosteriorDenoiser: the Bayes-optimal table, valid because uniform
  random masking makes the posterior over clean sequences the renormalized
  empirical weight of corpus sequences matching the latent's unmasked
  positions. It keeps one match state over the corpus's unique rows (a
  mismatch count per row) and updates it at the positions that changed
  since its last query instead of rescanning the corpus. The anchored
  sampler's PosteriorAnchorProfile reads the match state of the pair's
  predictor, so an anchored exact pair holds one state and one copy of the
  unique rows.
* BackoffCountModel: (left, right) context counts with backoff to left,
  right, then unigram, Laplace-smoothed; total on any input.
* two_stage_predict: the anchored composition, committing anchor-stage
  argmax tokens into an intermediate sequence that conditions the denoiser;
  it returns plain constraint-satisfying probability arrays.

resolve_anchors is the single anchor-first commit routine, and
anchor_commit_order the single anchor ordering. The anchored sampler shares
that ordering; it commits every masked anchor of a step before any other
position, so it never needs a provisional scaffold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionError, LatentSequence, Vocab, apply_constraints

BOS_CONTEXT = -1
EOS_CONTEXT = -2


class NoMatchError(DiffusionError):
    """The latent is inconsistent with every corpus sequence."""


@dataclass
class Corpus:
    """Equal-length token-id sequences with per-sequence multiplicities.

    ``omega``/``eta``/``depth`` are optional per-position annotation arrays
    aligned with ``ids`` (depth -1 marks padding); they power the anchored
    sampler's position profile and the ordering statistics.
    """

    ids: np.ndarray
    weights: np.ndarray
    vocab: Vocab
    omega: np.ndarray | None = None
    eta: np.ndarray | None = None
    depth: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.ndim != 2 or self.ids.shape[0] < 1:
            raise ValueError("corpus needs at least one sequence of shape (n, L)")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.ids.shape[0],):
            raise ValueError("weights must align with sequences")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(self.ids == self.vocab.mask_id):
            raise ValueError("corpus sequences must be clean (no mask ids)")

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def length(self) -> int:
        return self.ids.shape[1]


class Predictor:
    """Base contract: ``predict`` returns raw rows; ``predict_row`` gives a
    single normalized zero-mask row for sequential sampling."""

    def predict(self, z: LatentSequence) -> np.ndarray:
        raise NotImplementedError

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        return apply_constraints(self.predict(z), z)[position]


class ExactPosteriorDenoiser(Predictor):
    """The Bayes-exact table over a corpus, queried through a match state.

    Duplicate corpus rows are merged at construction into unique rows with
    summed weights, stored column-major, so that one position's tokens over
    all unique rows are contiguous. The match state holds, per unique row,
    the number of unmasked latent positions where the row disagrees with
    the latent, plus the latent ids it was last brought up to date with. A
    query diffs the latent against those ids and updates the counts at the
    changed positions only: a fresh latent costs about one scan of the
    unique rows, a single commit or remask one column. A row is consistent
    with the latent when its count is zero. Outputs do not depend on the
    order of queries, only their cost does. The state belongs to the
    instance, so one instance must not be queried from two threads at once.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        # Each row viewed as one opaque byte string, which np.unique compares
        # with a single memcmp; np.unique(axis=0) is about 8x slower.
        ids = np.ascontiguousarray(corpus.ids)
        rows = ids.view(np.dtype((np.void, ids.itemsize * corpus.length))).ravel()
        _, first, self._unique_of_row = np.unique(
            rows, return_index=True, return_inverse=True
        )
        self._columns = np.ascontiguousarray(ids[first].T)
        self._unique_weights = np.bincount(self._unique_of_row, weights=corpus.weights)
        # Every row agrees with the all-masked latent.
        self._seen = np.full(corpus.length, corpus.vocab.mask_id, dtype=np.int64)
        self._mismatches = np.zeros(len(first), dtype=np.int64)

    @property
    def vocab(self) -> Vocab:
        return self.corpus.vocab

    def _sync(self, z: LatentSequence) -> None:
        """Bring the mismatch counts up to date with ``z``: subtract the old
        terms and add the new ones at the positions whose ids changed."""
        if z.ids.shape != self._seen.shape:
            raise ValueError(
                f"latent length {len(z)} does not match corpus length {len(self._seen)}"
            )
        mask_id = self.vocab.mask_id
        changed = np.flatnonzero(z.ids != self._seen)
        was = changed[self._seen[changed] != mask_id]
        now = changed[z.ids[changed] != mask_id]
        self._mismatches -= (self._columns[was] != self._seen[was][:, None]).sum(axis=0)
        self._mismatches += (self._columns[now] != z.ids[now][:, None]).sum(axis=0)
        self._seen[changed] = z.ids[changed]

    def match_mask(self, z: LatentSequence) -> np.ndarray:
        """Boolean row per corpus sequence: agrees with z where unmasked."""
        self._sync(z)
        return (self._mismatches == 0)[self._unique_of_row]

    def _matched(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        """Indices and summed weights of the unique rows consistent with z."""
        if not self.match_mask(z).any():
            raise NoMatchError("latent matches no corpus sequence")
        hit = np.flatnonzero(self._mismatches == 0)
        return hit, self._unique_weights[hit]

    def predict(self, z: LatentSequence) -> np.ndarray:
        """Raw rows: weighted empirical token counts among matching
        sequences at masked positions, one-hot at unmasked positions."""
        hit, w = self._matched(z)
        K = self.corpus.vocab.size
        raw = np.zeros((len(z), K))
        masked = np.flatnonzero(z.is_masked)
        for l in masked:
            raw[l] = np.bincount(self._columns[l, hit], weights=w, minlength=K)
        unmasked = np.flatnonzero(~z.is_masked)
        raw[unmasked, z.ids[unmasked]] = 1.0
        return raw

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        hit, w = self._matched(z)
        K = self.corpus.vocab.size
        if not z.is_masked[position]:
            row = np.zeros(K)
            row[z.ids[position]] = 1.0
            return row
        counts = np.bincount(self._columns[position, hit], weights=w, minlength=K)
        return counts / counts.sum()


class BackoffCountModel(Predictor):
    """Neighbor-context count model with Laplace smoothing constant 1.

    Each position is estimated from its (left token, right token) context,
    backing off pair -> left -> right -> unigram; a masked neighbor removes
    the routes that need it. Sequence boundaries use BOS/EOS sentinels.
    """

    def __init__(
        self,
        vocab: Vocab,
        pair: dict[tuple[int, int], np.ndarray],
        left: dict[int, np.ndarray],
        right: dict[int, np.ndarray],
        unigram: np.ndarray,
    ):
        self.vocab = vocab
        self.pair = pair
        self.left = left
        self.right = right
        self.unigram = unigram

    @classmethod
    def fit(cls, corpus: Corpus) -> "BackoffCountModel":
        K = corpus.vocab.size
        pair: dict[tuple[int, int], np.ndarray] = {}
        left: dict[int, np.ndarray] = {}
        right: dict[int, np.ndarray] = {}
        unigram = np.zeros(K)
        for ids, w in zip(corpus.ids, corpus.weights):
            L = len(ids)
            for l in range(L):
                a = int(ids[l - 1]) if l > 0 else BOS_CONTEXT
                b = int(ids[l + 1]) if l < L - 1 else EOS_CONTEXT
                tok = int(ids[l])
                for table, key in ((pair, (a, b)), (left, a), (right, b)):
                    if key not in table:
                        table[key] = np.zeros(K)
                    table[key][tok] += w
                unigram[tok] += w
        return cls(corpus.vocab, pair, left, right, unigram)

    def _smooth(self, counts: np.ndarray) -> np.ndarray:
        row = counts.copy()
        row[: self.vocab.mask_id] += 1.0  # Laplace over the non-mask vocabulary
        return row / row.sum()

    def _context_row(self, a: int | None, b: int | None) -> np.ndarray:
        if a is not None and b is not None and (a, b) in self.pair:
            return self._smooth(self.pair[(a, b)])
        if a is not None and a in self.left:
            return self._smooth(self.left[a])
        if b is not None and b in self.right:
            return self._smooth(self.right[b])
        return self._smooth(self.unigram)

    def _neighbor(self, z: LatentSequence, position: int) -> int | None:
        if position < 0:
            return BOS_CONTEXT
        if position >= len(z):
            return EOS_CONTEXT
        if z.is_masked[position]:
            return None
        return int(z.ids[position])

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        if not z.is_masked[position]:
            row = np.zeros(self.vocab.size)
            row[z.ids[position]] = 1.0
            return row
        return self._context_row(
            self._neighbor(z, position - 1), self._neighbor(z, position + 1)
        )

    def predict(self, z: LatentSequence) -> np.ndarray:
        return np.stack([self.predict_row(z, l) for l in range(len(z))])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        def table(d: dict) -> list:
            return [[list(k) if isinstance(k, tuple) else k, v.tolist()]
                    for k, v in sorted(d.items())]

        return json.dumps(
            {
                "format": "anchordiff-backoff-counts",
                "version": 1,
                "vocab": list(self.vocab.tokens),
                "pair": table(self.pair),
                "left": table(self.left),
                "right": table(self.right),
                "unigram": self.unigram.tolist(),
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "BackoffCountModel":
        data = json.loads(payload)
        if data.get("format") != "anchordiff-backoff-counts":
            raise ValueError("not a backoff count table")
        if data.get("version") != 1:
            raise ValueError(f"unsupported version {data.get('version')}")
        vocab = Vocab(tuple(data["vocab"]))
        pair = {tuple(k): np.array(v) for k, v in data["pair"]}
        left = {k: np.array(v) for k, v in data["left"]}
        right = {k: np.array(v) for k, v in data["right"]}
        return cls(vocab, pair, left, right, np.array(data["unigram"]))


def anchor_commit_order(
    omega: np.ndarray, eta: np.ndarray, masked: np.ndarray
) -> list[int]:
    """Masked anchor positions ordered by descending weight, then position."""
    candidates = [int(l) for l in np.flatnonzero(masked) if omega[l] >= 0.5]
    return sorted(candidates, key=lambda l: (-float(omega[l] * eta[l]), l))


def resolve_anchors(
    anchor_predictor: Predictor, z: LatentSequence, order: list[int]
) -> LatentSequence:
    """Commit the anchor stage's argmax token at each position of ``order``
    into a copy of ``z``, each commit conditioned on the ones before it,
    which keeps the result inside a table predictor's support."""
    y = z.copy_with(z.ids)
    for l in order:
        y.ids[l] = int(np.argmax(anchor_predictor.predict_row(y, l)))
    return y


def two_stage_predict(
    anchor_predictor: Predictor,
    denoiser_predictor: Predictor,
    z: LatentSequence,
    omega: np.ndarray,
    eta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, LatentSequence]:
    """Anchored composition: predict anchors, resolve the masked ones into
    an intermediate sequence (resolve_anchors, in anchor_commit_order), then
    run the denoiser on it.

    In the returned final matrix, positions the anchor stage resolved carry
    the anchor stage's soft row (its marginal over the commitment) rather
    than a one-hot of the committed token, so the composed prediction never
    assigns zero probability to a clean token the anchor stage considered
    possible.
    """
    anchor_probs = apply_constraints(anchor_predictor.predict(z), z)
    order = anchor_commit_order(omega, eta, z.is_masked)
    y = resolve_anchors(anchor_predictor, z, order)
    final_probs = apply_constraints(denoiser_predictor.predict(y), y)
    final_probs[order] = anchor_probs[order]
    return anchor_probs, final_probs, y


@dataclass
class TwoStagePredictor:
    """Composition of anchor and denoiser predictors under fixed per-position
    anchor data, as used for loss evaluation on an annotated sequence."""

    anchor: Predictor
    denoiser: Predictor
    omega: np.ndarray
    eta: np.ndarray

    def stage_matrices(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        anchor_probs, final_probs, _ = two_stage_predict(
            self.anchor, self.denoiser, z, self.omega, self.eta
        )
        return anchor_probs, final_probs

    def predict(self, z: LatentSequence) -> np.ndarray:
        return self.stage_matrices(z)[1]


@dataclass
class MarginalAnchorProfile:
    """Latent-independent anchor profile: the same (omega, eta) on every
    call. ``of_corpus`` gives the corpus marginal, for predictors without a
    match set; ``zeros`` gives the Null strategy's profile, which marks no
    position as an anchor."""

    omega: np.ndarray
    eta: np.ndarray

    @classmethod
    def of_corpus(cls, corpus: Corpus) -> "MarginalAnchorProfile":
        if corpus.omega is None or corpus.eta is None:
            raise ValueError("corpus lacks omega/eta annotation arrays")
        w = corpus.weights / corpus.weights.sum()
        return cls(w @ corpus.omega, w @ corpus.eta)

    @classmethod
    def zeros(cls, length: int) -> "MarginalAnchorProfile":
        return cls(np.zeros(length), np.zeros(length))

    def __call__(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        return self.omega, self.eta


class PosteriorAnchorProfile:
    """Posterior-expected anchor indicator and depth weight per position.

    At sampling time the true per-position anchor labels are unknown, so the
    anchored sampler uses the weighted mean of (omega, eta) over the corpus
    sequences consistent with the current latent, falling back to the
    corpus marginal when nothing matches. The consistent rows come from the
    match state of ``exact``, normally the pair's own predictor, so the
    predictor and the profile keep one state between them.
    """

    def __init__(self, exact: ExactPosteriorDenoiser):
        self.exact = exact
        self._marginal = MarginalAnchorProfile.of_corpus(exact.corpus)

    def __call__(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        corpus = self.exact.corpus
        w = np.where(self.exact.match_mask(z), corpus.weights, 0.0)
        if w.sum() == 0:
            return self._marginal(z)
        w = w / w.sum()
        return w @ corpus.omega, w @ corpus.eta
