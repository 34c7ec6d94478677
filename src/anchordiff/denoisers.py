"""Reference predictors over a finite corpus.

Three implementations of the predictor contract (raw per-position rows over
the vocabulary, later passed through apply_constraints):

* ExactPosteriorDenoiser: the Bayes-optimal table, valid because uniform
  random masking makes the posterior over clean sequences the renormalized
  empirical weight of corpus sequences matching the latent's unmasked
  positions. It keeps one match state over the corpus's unique rows (a
  mismatch count per row) and updates it at the positions that changed
  since its last query instead of rescanning the corpus. It also caches
  the consistent unique rows and their weights under a ``version`` that
  moves only when that set changes. The anchored sampler's
  PosteriorAnchorProfile reads the match state of the pair's predictor,
  and recomputes only on a new version, so an anchored exact pair holds one
  state and one copy of the unique rows.
* BackoffCountModel: (left, right) context counts with backoff to left,
  right, then unigram, Laplace-smoothed; total on any input. It is stored
  as tables (smoothed rows plus context-to-row index arrays), so a query
  is one gather over all positions, or over a batch of latents.
* two_stage_predict: the anchored composition of a batch of latents,
  committing anchor-stage argmax tokens into an intermediate sequence that
  conditions the denoiser; it returns plain constraint-satisfying
  probability arrays.

``Predictor.predict_batch`` scores several latents at once; it loops over
``predict`` unless a predictor has a vectorized path. ``target_probs`` gives
only the constrained probability of one target token per position of a
batch of latent id rows, which is all a loss needs; the default gathers it
from ``predict_batch``, and the backoff model answers it with one gather
from rows constrained once at construction. ``argmax_at`` gives the argmax
token of ``predict_row`` at one position for a batch of rows.

resolve_anchors is the single anchor-first commit routine, and
anchor_commit_order the single anchor ordering. resolve_anchors works on a
batch of latent id rows: it walks the record's full anchor order once and
commits each position in the rows where it is masked, which equals walking
each row's own order (the full order filtered by the row's mask). The
anchored sampler shares that ordering; it commits every masked anchor of a
step before any other position, so it never needs a provisional scaffold.
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

    ``omega``/``eta``/``depth``/``chain`` are optional per-position
    annotation arrays aligned with ``ids`` (depth and chain -1 mark
    padding); they power the anchored sampler's position profile, the
    ordering statistics and the ancestry probe.
    """

    ids: np.ndarray
    weights: np.ndarray
    vocab: Vocab
    omega: np.ndarray | None = None
    eta: np.ndarray | None = None
    depth: np.ndarray | None = None
    chain: np.ndarray | None = None

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
    """Base contract: ``predict`` returns raw rows; ``predict_batch`` the
    raw rows of several latents at once; ``predict_row`` gives a single
    normalized zero-mask row for sequential sampling."""

    def predict(self, z: LatentSequence) -> np.ndarray:
        raise NotImplementedError

    def predict_batch(self, zs: list[LatentSequence]) -> np.ndarray:
        """Raw rows of each latent as a new array of shape (len(zs), L, K).
        The default calls ``predict`` per latent; a vectorized predictor
        overrides it."""
        return np.stack([self.predict(z) for z in zs])

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        return apply_constraints(self.predict(z), z)[position]

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        """Constrained probability of ``targets[l]`` at each position l of
        each row of the (n, L) latent ids, as a new (n, L) array: equal to
        ``apply_constraints(predict_batch(zs), zs)[d, l, targets[l]]``, where
        ``zs`` are the rows as latents. The default computes exactly that."""
        zs = [LatentSequence(row, mask_id) for row in ids]
        probs = apply_constraints(self.predict_batch(zs), zs)
        # The gather comes out in Fortran order; callers read it row by row.
        return np.ascontiguousarray(probs[:, np.arange(ids.shape[1]), targets])

    def argmax_at(self, ids: np.ndarray, position: int, mask_id: int) -> np.ndarray:
        """The argmax token of ``predict_row`` at ``position`` for each row
        of the (m, L) latent ids."""
        return np.array(
            [self.predict_row(LatentSequence(row, mask_id), position).argmax() for row in ids],
            dtype=np.int64,
        )


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
    with the latent when its count is zero. The indices and summed weights
    of the consistent unique rows are cached, and ``version`` is bumped
    whenever that set changes, so equal versions mean equal sets and equal
    outputs; ``consistent(z)`` syncs and returns it. Outputs do not depend
    on the order of queries, only their cost does. The state belongs to the
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
        self.version = 0
        self._set_consistent(np.arange(len(first)))

    @property
    def vocab(self) -> Vocab:
        return self.corpus.vocab

    def _set_consistent(self, hit: np.ndarray) -> None:
        self._hit = hit
        self._hit_weights = self._unique_weights[hit]
        self._hit.setflags(write=False)
        self._hit_weights.setflags(write=False)

    def _sync(self, z: LatentSequence) -> None:
        """Bring the mismatch counts up to date with ``z``: subtract the old
        terms and add the new ones at the positions whose ids changed. When
        the set of zero-mismatch unique rows changes, cache its indices and
        weights and bump ``version``."""
        if z.ids.shape != self._seen.shape:
            raise ValueError(
                f"latent length {len(z)} does not match corpus length {len(self._seen)}"
            )
        changed = np.flatnonzero(z.ids != self._seen)
        if not len(changed):
            return
        mask_id = self.vocab.mask_id
        was = changed[self._seen[changed] != mask_id]
        now = changed[z.ids[changed] != mask_id]
        if len(was):
            self._mismatches -= (self._columns[was] != self._seen[was][:, None]).sum(axis=0)
        if len(now):
            self._mismatches += (self._columns[now] != z.ids[now][:, None]).sum(axis=0)
        self._seen[changed] = z.ids[changed]
        hit = np.flatnonzero(self._mismatches == 0)
        if not np.array_equal(hit, self._hit):
            self.version += 1
            self._set_consistent(hit)

    def consistent(self, z: LatentSequence) -> int:
        """Bring the match state up to date with ``z`` and return its
        version: equal versions mean the same set of consistent rows."""
        self._sync(z)
        return self.version

    def match_mask(self, z: LatentSequence) -> np.ndarray:
        """Boolean row per corpus sequence: agrees with z where unmasked."""
        self._sync(z)
        return (self._mismatches == 0)[self._unique_of_row]

    def _matched(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        """Indices and summed weights of the unique rows consistent with z."""
        self._sync(z)
        if not len(self._hit):
            raise NoMatchError("latent matches no corpus sequence")
        return self._hit, self._hit_weights

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

    The model is a set of tables. ``counts`` holds one row of weighted
    token counts per seen context (pairs, then left contexts, then right
    contexts) and the unigram row last. Index arrays map a context to its
    row, or -1 when it was never seen: ``pair_index`` of shape (K+2, K+2),
    ``left_index`` and ``right_index`` of shape (K+2,), where slot K is BOS
    and slot K+1 is EOS. The mask id is never a seen context, so a masked
    neighbor falls through its route. Construction smooths every row once
    and folds the four routes into one (K+2, K+2) row index, so a query is
    one gather, and there is no dense (K+2, K+2, K) table. It also keeps
    each row as ``apply_constraints`` leaves it at a masked position, and
    each row's argmax, so ``target_probs`` and ``argmax_at`` are gathers too.
    """

    def __init__(
        self,
        vocab: Vocab,
        routes: list[tuple[np.ndarray, np.ndarray]],
        unigram: np.ndarray,
    ):
        """``routes`` holds the (context slots, count rows) of the pair, left
        and right routes, a pair's slot being ``a * (K+2) + b``; ``unigram``
        holds the unigram counts."""
        S = vocab.size + 2
        indexes = [np.full(S * S, -1), np.full(S, -1), np.full(S, -1)]
        start = 0
        for index, (slots, _) in zip(indexes, routes):
            index[slots] = start + np.arange(len(slots))
            start += len(slots)
        self.vocab = vocab
        self.counts = np.vstack([rows for _, rows in routes] + [unigram[None, :]])
        self.pair_index = indexes[0].reshape(S, S)
        self.left_index, self.right_index = indexes[1], indexes[2]
        smoothed = self.counts.copy()
        smoothed[:, : vocab.mask_id] += 1.0  # Laplace over the non-mask vocabulary
        self._rows = smoothed / smoothed.sum(axis=1, keepdims=True)
        self._rows.setflags(write=False)
        route = np.where(self.pair_index >= 0, self.pair_index, self.left_index[:, None])
        route = np.where(route >= 0, route, self.right_index[None, :])
        self._route = np.where(route >= 0, route, len(self.counts) - 1)
        # apply_constraints' arithmetic on a masked position's row, done once
        # per table row; Laplace smoothing leaves every row mass off the mask.
        constrained = self._rows.copy()
        constrained[:, vocab.mask_id] = 0.0
        totals = constrained.sum(axis=-1)
        renorm = np.abs(totals - 1.0) > 1e-12
        np.divide(constrained, totals[:, None], out=constrained, where=renorm[:, None])
        self._constrained = constrained
        self._argmax = self._rows.argmax(axis=1)

    @classmethod
    def fit(cls, corpus: Corpus) -> "BackoffCountModel":
        # bincount adds the weights in corpus order, row by row, as a loop
        # over the corpus would, so the count sums are the same doubles.
        K = corpus.vocab.size
        S = K + 2
        tokens = corpus.ids.ravel()
        left, right = _neighbor_slots(corpus.ids, K)
        left, right = left.ravel(), right.ravel()
        w = np.repeat(corpus.weights, corpus.length)
        routes = []
        for slots, size in ((left * S + right, S * S), (left, S), (right, S)):
            seen = np.flatnonzero(np.bincount(slots, minlength=size))
            row = np.full(size, -1)
            row[seen] = np.arange(len(seen))
            cell = row[slots]
            cell *= K
            cell += tokens
            flat = np.bincount(cell, weights=w, minlength=len(seen) * K)
            routes.append((seen, flat.reshape(len(seen), K)))
        return cls(corpus.vocab, routes, np.bincount(tokens, weights=w, minlength=K))

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        """One row; a masked position's row is a read-only view of the table."""
        ids = z.ids
        K = self.vocab.size
        if ids[position] != self.vocab.mask_id:
            row = np.zeros(K)
            row[ids[position]] = 1.0
            return row
        a = ids[position - 1] if position > 0 else K
        b = ids[position + 1] if position < len(ids) - 1 else K + 1
        return self._rows[self._route[a, b]]

    def predict(self, z: LatentSequence) -> np.ndarray:
        return self.predict_batch([z])[0]

    def predict_batch(self, zs: list[LatentSequence]) -> np.ndarray:
        ids = np.stack([z.ids for z in zs])
        left, right = _neighbor_slots(ids, self.vocab.size)
        raw = self._rows[self._route[left, right]]
        seen = np.nonzero(ids != self.vocab.mask_id)
        raw[seen] = 0.0
        raw[seen + (ids[seen],)] = 1.0
        return raw

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        left, right = _neighbor_slots(ids, self.vocab.size)
        probs = self._constrained[self._route[left, right], targets]
        return np.where(ids == mask_id, probs, targets == ids)

    def argmax_at(self, ids: np.ndarray, position: int, mask_id: int) -> np.ndarray:
        K = self.vocab.size
        a = ids[:, position - 1] if position > 0 else K
        b = ids[:, position + 1] if position < ids.shape[1] - 1 else K + 1
        return np.where(ids[:, position] == mask_id, self._argmax[self._route[a, b]], ids[:, position])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """The version-1 document: every seen context of each route with
        its raw counts, in sorted context order (BOS -1 and EOS -2 first)."""
        K = self.vocab.size
        a, b = np.nonzero(self.pair_index >= 0)
        ca, cb = _context_of(a, K), _context_of(b, K)
        pair = [
            [[int(ca[i]), int(cb[i])], self.counts[self.pair_index[a[i], b[i]]].tolist()]
            for i in np.lexsort((cb, ca))
        ]

        def table(index: np.ndarray) -> list:
            slots = np.flatnonzero(index >= 0)
            contexts = _context_of(slots, K)
            return [
                [int(contexts[i]), self.counts[index[slots[i]]].tolist()]
                for i in np.argsort(contexts)
            ]

        return json.dumps(
            {
                "format": "anchordiff-backoff-counts",
                "version": 1,
                "vocab": list(self.vocab.tokens),
                "pair": pair,
                "left": table(self.left_index),
                "right": table(self.right_index),
                "unigram": self.counts[-1].tolist(),
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
        K = vocab.size

        def route(entries: list, width: int) -> tuple[np.ndarray, np.ndarray]:
            keys = np.array([k for k, _ in entries], dtype=np.int64).reshape(-1, width)
            rows = np.array([v for _, v in entries] or np.zeros((0, K)), dtype=np.float64)
            if rows.shape != (len(keys), K):
                raise ValueError(f"count rows must have {K} entries")
            _check_counts(rows)
            ok = np.isin(keys, (BOS_CONTEXT, EOS_CONTEXT)) | ((keys >= 0) & (keys < vocab.mask_id))
            if not ok.all():
                raise ValueError("count table has a context outside the vocabulary")
            slots = _slot_of(keys, K)
            if width == 2:
                slots = slots[:, 0] * (K + 2) + slots[:, 1]
            slots = slots.ravel()
            if len(np.unique(slots)) != len(slots):
                raise ValueError("count table repeats a context")
            return slots, rows

        routes = [route(data["pair"], 2), route(data["left"], 1), route(data["right"], 1)]
        unigram = np.array(data["unigram"], dtype=np.float64)
        if unigram.shape != (K,):
            raise ValueError(f"unigram counts must have {K} entries")
        _check_counts(unigram)
        return cls(vocab, routes, unigram)


def _check_counts(counts: np.ndarray) -> None:
    """Counts are finite and non-negative, so every smoothed row has mass
    off the mask token and no row is degenerate."""
    if not (np.isfinite(counts).all() and (counts >= 0).all()):
        raise ValueError("counts must be finite and non-negative")


def _slot_of(contexts: np.ndarray, K: int) -> np.ndarray:
    """Table slot of each context: the token id, K for BOS, K+1 for EOS."""
    return np.where(contexts == BOS_CONTEXT, K, np.where(contexts == EOS_CONTEXT, K + 1, contexts))


def _context_of(slots: np.ndarray, K: int) -> np.ndarray:
    """The inverse of ``_slot_of``: the sentinel contexts back at K and K+1."""
    return np.where(slots == K, BOS_CONTEXT, np.where(slots == K + 1, EOS_CONTEXT, slots))


def _neighbor_slots(ids: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right neighbor slots of every position of (n, L) ids, with
    BOS before the first position and EOS after the last."""
    left = np.empty_like(ids)
    left[:, 0] = K
    left[:, 1:] = ids[:, :-1]
    right = np.empty_like(ids)
    right[:, -1] = K + 1
    right[:, :-1] = ids[:, 1:]
    return left, right


def anchor_commit_order(
    omega: np.ndarray, eta: np.ndarray, masked: np.ndarray
) -> list[int]:
    """Masked anchor positions ordered by descending weight, then position."""
    candidates = np.flatnonzero(masked & (omega >= 0.5))
    weights = omega[candidates] * eta[candidates]
    return candidates[np.argsort(-weights, kind="stable")].tolist()


def resolve_anchors(
    anchor_predictor: Predictor, ids: np.ndarray, order: list[int], mask_id: int
) -> np.ndarray:
    """Commit the anchor stage's argmax token at each position of ``order``
    into a copy of the (n, L) latent ids, in the rows where that position is
    masked, each commit conditioned on the ones before it, which keeps the
    result inside a table predictor's support.

    ``order`` is the record's full anchor order, ``anchor_commit_order``
    over all positions. A row's own order is that list filtered by the
    row's mask, and a commit changes only its own position, so walking the
    full order once commits every row as walking its own order would."""
    y = np.array(ids, dtype=np.int64)
    for l in order:
        rows = np.flatnonzero(y[:, l] == mask_id)
        if len(rows):
            y[rows, l] = anchor_predictor.argmax_at(y[rows], l, mask_id)
    return y


def _full_order(omega: np.ndarray, eta: np.ndarray) -> list[int]:
    return anchor_commit_order(omega, eta, np.ones(len(omega), dtype=bool))


def two_stage_predict(
    anchor_predictor: Predictor,
    denoiser_predictor: Predictor,
    zs: list[LatentSequence],
    omega: np.ndarray,
    eta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[LatentSequence]]:
    """Anchored composition of each latent in ``zs``: predict anchors,
    resolve the masked ones into an intermediate sequence (resolve_anchors,
    in anchor_commit_order), then run the denoiser on it. Both predictors
    score the whole batch at once, and the anchors of the batch are
    resolved together.

    Returns the anchor and final probability arrays, each of shape
    (len(zs), L, K), and the intermediate sequences. In the final arrays,
    positions the anchor stage resolved carry the anchor stage's soft row
    (its marginal over the commitment) rather than a one-hot of the
    committed token, so the composed prediction never assigns zero
    probability to a clean token the anchor stage considered possible.
    """
    mask_id = zs[0].mask_id
    ids = np.stack([z.ids for z in zs])
    anchor_probs = apply_constraints(anchor_predictor.predict_batch(zs), zs)
    resolved = resolve_anchors(anchor_predictor, ids, _full_order(omega, eta), mask_id)
    ys = [z.copy_with(row) for z, row in zip(zs, resolved)]
    final_probs = apply_constraints(denoiser_predictor.predict_batch(ys), ys)
    committed = (ids == mask_id) & (omega >= 0.5)
    final_probs[committed] = anchor_probs[committed]
    return anchor_probs, final_probs, ys


@dataclass
class TwoStagePredictor(Predictor):
    """Composition of anchor and denoiser predictors under fixed per-position
    anchor data, as used for loss evaluation on an annotated sequence."""

    anchor: Predictor
    denoiser: Predictor
    omega: np.ndarray
    eta: np.ndarray

    def predict_batch(self, zs: list[LatentSequence]) -> np.ndarray:
        return two_stage_predict(self.anchor, self.denoiser, zs, self.omega, self.eta)[1]

    def predict(self, z: LatentSequence) -> np.ndarray:
        return self.predict_batch([z])[0]

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        """The composition gathered at the targets, from each stage's own
        ``target_probs``: the denoiser's on the resolved rows, and the anchor
        stage's on ``ids`` at the positions it committed."""
        resolved = resolve_anchors(self.anchor, ids, _full_order(self.omega, self.eta), mask_id)
        final = self.denoiser.target_probs(resolved, targets, mask_id)
        committed = (ids == mask_id) & (self.omega >= 0.5)
        if committed.any():
            anchor = self.anchor.target_probs(ids, targets, mask_id)
            final[committed] = anchor[committed]
        return final


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only float view of ``values``: a profile hands the same
    arrays to every caller, so none may edit them in place."""
    view = np.asarray(values, dtype=np.float64).view()
    view.setflags(write=False)
    return view


@dataclass
class MarginalAnchorProfile:
    """Latent-independent anchor profile: the same read-only (omega, eta)
    on every call. ``of_corpus`` gives the corpus marginal, for predictors
    without a match set; ``zeros`` gives the Null strategy's profile, which
    marks no position as an anchor."""

    omega: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        self.omega = _read_only(self.omega)
        self.eta = _read_only(self.eta)

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

    The profile depends on the latent only through its consistent rows, so
    it is recomputed only when ``exact.consistent(z)`` reports a new version
    of that set; otherwise the last (omega, eta) is returned again. The
    arrays are read-only, because callers share them.
    """

    def __init__(self, exact: ExactPosteriorDenoiser):
        self.exact = exact
        self._marginal = MarginalAnchorProfile.of_corpus(exact.corpus)
        self._version: int | None = None
        self._profile: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        version = self.exact.consistent(z)
        if version != self._version:
            self._profile = self._posterior(z)
            self._version = version
        return self._profile

    def _posterior(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        corpus = self.exact.corpus
        w = np.where(self.exact.match_mask(z), corpus.weights, 0.0)
        total = w.sum()
        if total == 0:
            return self._marginal(z)
        w = w / total
        return _read_only(w @ corpus.omega), _read_only(w @ corpus.eta)
