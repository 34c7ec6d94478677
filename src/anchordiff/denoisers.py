"""Reference predictors over a finite corpus, answering the three queries
of ``Predictor``; no query builds an (n, L, K) array. ``Predictor`` defines
the two batched queries once, through ``predict_row``.

* ExactPosteriorDenoiser: the Bayes-optimal table, valid because uniform
  random masking makes the posterior over clean sequences the renormalized
  empirical weight of corpus sequences matching the latent's unmasked
  positions. Its one query of that posterior is ``posterior``: the
  corpus's unique rows still consistent with the latent and their weights.
  It is the table's only state: a commit filters the set on its column,
  and only a remask, an overwrite or a fresh latent rebuilds it. A column
  where every corpus row holds one token (the pad tail, fixed scaffold
  tokens) is known at construction, so a commit or remask of that token
  there leaves the set alone and the row there is its one-hot.
  ``predict_row``, ``match_mask``, the batched queries and the anchored
  sampler's PosteriorAnchorProfile all read ``posterior``: after a commit
  a query costs as much as the set, not the corpus. The set keeps its
  arrays while its rows stay the same, and the profile then answers with
  the arrays it gave last.
* BackoffCountModel: (left, right) context counts with backoff to left,
  right, then unigram, Laplace-smoothed; total on any input. It is stored
  as tables, so each query is a gather.
* two_stage_predict: the anchored composition, committing anchor-stage
  argmax tokens (the anchor predictor's ``resolve_anchors``) into an
  intermediate sequence that conditions the denoiser; TwoStagePredictor is
  that composition under fixed anchor data.

anchor_commit_order is the single anchor ordering, which the anchored
sampler shares: it commits every masked anchor of a step before any other
position, so it never needs a provisional scaffold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionError, LatentSequence, Vocab

BOS_CONTEXT = -1
EOS_CONTEXT = -2


class ReadOnlyArrays:
    """Keeps the arrays named in ``_frozen`` read-only, also through
    pickle, which does not keep numpy's flag: ``sample --workers`` pickles
    the predictors under the spawn and forkserver start methods."""

    _frozen: tuple[str, ...] = ()

    def _freeze(self) -> None:
        for name in self._frozen:
            getattr(self, name).setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze()


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
    """The predictor contract: three queries, one per consumer, whose
    probabilities follow ``apply_constraints``' rules (no mass on the mask
    token, a one-hot on the observed token at every unmasked position). A
    predictor gives ``predict_row``; the two batched queries are defined
    here through it, and a predictor stored as tables may override them with
    gathers that give the same numbers."""

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        """The (K,) row of ``position`` given the latent ``z`` (sampler, probe)."""
        raise NotImplementedError

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        """A new (n, L) array: ``predict_row`` of each row of the (n, L)
        latent ids read at ``targets[l]`` at each position l (losses)."""
        probs = np.empty(ids.shape)
        targets = targets.tolist()
        for d, row in enumerate(ids):
            z = LatentSequence(row, mask_id)
            probs[d] = [self.predict_row(z, l)[t] for l, t in enumerate(targets)]
        return probs

    def resolve_anchors(self, ids: np.ndarray, order: list[int], mask_id: int) -> np.ndarray:
        """A copy of the (n, L) latent ids with the argmax of ``predict_row``
        committed at each position of ``order`` in turn, in the rows where it
        is masked (two_stage_predict). A commit changes only its own position,
        so one walk of the record's full anchor order commits each row as a
        walk of that order filtered by the row's mask would."""
        resolved = np.array(ids, dtype=np.int64)
        for row in resolved:
            z = LatentSequence(row, mask_id)  # a view: each commit is seen
            for l in order:
                if row[l] == mask_id:
                    row[l] = self.predict_row(z, l).argmax()
        return resolved


class ExactPosteriorDenoiser(ReadOnlyArrays, Predictor):
    """The Bayes-exact table over a corpus.

    Duplicate corpus rows are merged at construction into unique rows with
    summed weights, stored column-major, so that one position's tokens over
    all unique rows are contiguous; ``unique_of_row`` maps each corpus row
    to its unique row. The instance's only state is the consistent set:
    the indices and summed weights of the unique rows consistent with the
    latent (agreeing with it at every unmasked position), plus the latent
    ids the set was last brought up to date with. The set and its weights
    are the posterior over clean rows, which ``posterior`` returns; every
    other query (``predict_row``, ``match_mask``, the contract's batched
    queries and PosteriorAnchorProfile) reads it there. A query diffs the
    latent against those ids.

    Construction also records each column's agreed token, the one that
    every unique row holds there (on the synth corpus, the pad tail and
    most of the scaffold). A change at such a column between the mask and
    that token rules no row in or out, so it is passed over. When every
    other changed position was masked before, as after the sampler's
    commits and the probe's reveals, the consistent rows are filtered on
    the changed columns, so a commit costs one column of the consistent
    rows only. Any other change (a remask, an overwrite, a fresh latent)
    rebuilds the set from the unmasked positions that do not hold their
    agreed token, about one scan of the unique rows. The set's arrays are
    replaced only when its rows change, so the arrays are the set's
    identity. ``predict_row`` at a masked agreed column, or over a one-row
    set, returns the one-hot without counting: with one nonzero count x,
    the counts' row is x / x = 1.0 there and 0.0 elsewhere, the same bits.
    Outputs do not depend on the order of queries, only their cost does.
    The state belongs to the instance, so one instance must not be queried
    from two threads at once.
    """

    _frozen = ("unique_of_row", "_unique_weights", "_agreed", "_hit", "_hit_weights")

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        # Each row viewed as one opaque byte string, which np.unique compares
        # with a single memcmp; np.unique(axis=0) is about 8x slower.
        ids = np.ascontiguousarray(corpus.ids)
        rows = ids.view(np.dtype((np.void, ids.itemsize * corpus.length))).ravel()
        _, first, self.unique_of_row = np.unique(rows, return_index=True, return_inverse=True)
        self._columns = np.ascontiguousarray(ids[first].T)
        self._unique_weights = np.bincount(self.unique_of_row, weights=corpus.weights)
        # predict_row's one-hot rows stand for counts / counts.sum() with one
        # nonzero count x, and x / x is 1.0 only while x is finite; a sum of
        # some rows' weights in ascending order is at most this one.
        with np.errstate(over="ignore"):  # raises instead
            total = np.cumsum(self._unique_weights)[-1]
        if not np.isfinite(total):
            raise ValueError("corpus weights sum past the float range")
        self._mask_id, self._size = corpus.vocab.mask_id, corpus.vocab.size
        # Each column's agreed token, the one every unique row holds there,
        # or the mask id where the rows differ: at every column the mask and
        # the agreed token are the tokens that rule out no row.
        agree = (self._columns == self._columns[:, :1]).all(axis=1)
        self._agreed = np.where(agree, self._columns[:, 0], self._mask_id)
        # Every row agrees with the all-masked latent.
        self._seen = np.full(corpus.length, self._mask_id, dtype=np.int64)
        self._hit = np.arange(len(first))
        self._hit_weights = self._unique_weights
        self._freeze()

    @property
    def vocab(self) -> Vocab:
        return self.corpus.vocab

    def _sync(self, z: LatentSequence) -> None:
        """Bring the consistent set up to date with ``z``. A change between
        the mask and a column's agreed token is passed over; the other
        changes filter the set when each of them was masked before, and
        otherwise rebuild it from the unmasked positions that do not hold
        their agreed token. The set's arrays are replaced only when its rows
        change."""
        ids = z.ids
        if ids.shape != self._seen.shape:
            raise ValueError(
                f"latent length {len(z)} does not match corpus length {len(self._seen)}"
            )
        changed = (ids != self._seen).nonzero()[0]
        if not len(changed):
            return
        seen, mask_id = self._seen, self._mask_id
        commits, rebuild = [], False
        for l in changed.tolist():
            old, new, agreed = seen.item(l), ids.item(l), self._agreed.item(l)
            seen[l] = new
            if old in (mask_id, agreed) and new in (mask_id, agreed):
                continue
            rebuild = rebuild or old != mask_id
            commits.append((l, new))
        if rebuild:
            # One pass over the constraining columns: a rebuild reads most of
            # them, and filtering from all rows costs about twice this.
            now = ((ids != mask_id) & (ids != self._agreed)).nonzero()[0]
            hit = (self._columns[now] == ids[now, None]).all(axis=0).nonzero()[0]
            if len(hit) == len(self._hit) and (hit == self._hit).all():
                return
        else:
            hit = self._hit
            for l, token in commits:
                hit = hit[self._columns[l][hit] == token]
            # A filter keeps a subset, so a set of the same size is the same.
            if len(hit) == len(self._hit):
                return
        self._hit, self._hit_weights = hit, self._unique_weights[hit]
        self._hit.setflags(write=False)
        self._hit_weights.setflags(write=False)

    def posterior(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        """The posterior given ``z`` before normalization: the ascending
        indices of the unique rows consistent with ``z`` and their summed
        weights, as read-only arrays; both are empty when no row matches.
        It returns the same array objects as the call before exactly when
        the set of rows is the same."""
        self._sync(z)
        return self._hit, self._hit_weights

    def match_mask(self, z: LatentSequence) -> np.ndarray:
        """Boolean row per corpus sequence: agrees with z where unmasked."""
        consistent = np.zeros(len(self._unique_weights), dtype=bool)
        consistent[self.posterior(z)[0]] = True
        return consistent[self.unique_of_row]

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        hit, w = self.posterior(z)
        if not len(hit):
            raise NoMatchError("latent matches no corpus sequence")
        token = z.ids.item(position)
        if token == self._mask_id:
            # Every consistent row holds the agreed token, and a one-row set
            # has one token: its row is the one-hot that the counts give.
            token = self._agreed.item(position)
            if token == self._mask_id:
                if len(hit) > 1:
                    column = self._columns[position, hit]
                    counts = np.bincount(column, weights=w, minlength=self._size)
                    return counts / counts.sum()
                token = self._columns[position, hit[0]]
        row = np.zeros(self._size)
        row[token] = 1.0
        return row


class BackoffCountModel(ReadOnlyArrays, Predictor):
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
    one lookup, and there is no dense (K+2, K+2, K) table. No count sits
    at the mask token, so a smoothed row is already as ``apply_constraints``
    leaves it at a masked position, and ``target_probs`` is a gather; so is
    each commit of ``resolve_anchors``, through each row's argmax.
    """

    _frozen = ("_rows",)

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
        self._freeze()
        route = np.where(self.pair_index >= 0, self.pair_index, self.left_index[:, None])
        route = np.where(route >= 0, route, self.right_index[None, :])
        self._route = np.where(route >= 0, route, len(self.counts) - 1)
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

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        left, right = _neighbor_slots(ids, self.vocab.size)
        probs = self._rows[self._route[left, right], targets]
        return np.where(ids == mask_id, probs, targets == ids)

    def resolve_anchors(self, ids: np.ndarray, order: list[int], mask_id: int) -> np.ndarray:
        K = self.vocab.size
        y = np.array(ids, dtype=np.int64)
        for l in order:
            rows = np.flatnonzero(y[:, l] == mask_id)
            if len(rows):
                a = y[rows, l - 1] if l > 0 else K
                b = y[rows, l + 1] if l < y.shape[1] - 1 else K + 1
                y[rows, l] = self._argmax[self._route[a, b]]
        return y

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
            _check_counts(rows, vocab.mask_id)
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
        _check_counts(unigram, vocab.mask_id)
        return cls(vocab, routes, unigram)


def _check_counts(counts: np.ndarray, mask_id: int) -> None:
    """Counts are finite, non-negative and zero at the mask token, so every
    smoothed row has mass off the mask token and none on it."""
    if not (np.isfinite(counts).all() and (counts >= 0).all()):
        raise ValueError("counts must be finite and non-negative")
    if counts[..., mask_id].any():
        raise ValueError("counts at the mask token must be zero")


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
    candidates = (masked & (omega >= 0.5)).nonzero()[0]
    weights = omega[candidates] * eta[candidates]
    return candidates[np.argsort(-weights, kind="stable")].tolist()


def two_stage_predict(
    anchor_predictor: Predictor,
    denoiser_predictor: Predictor,
    ids: np.ndarray,
    targets: np.ndarray,
    omega: np.ndarray,
    eta: np.ndarray,
    mask_id: int,
) -> np.ndarray:
    """Anchored composition of each row of the (n, L) latent ids, gathered
    at the targets, as a new (n, L) array: the denoiser's ``target_probs``
    of the rows the anchor stage's ``resolve_anchors`` gives, which stay
    inside a table predictor's support. At the positions the anchor stage
    committed, it keeps the anchor stage's own ``target_probs`` on ``ids``
    (its marginal over the commitment), so it never assigns zero
    probability to a clean token the anchor stage considered possible."""
    order = anchor_commit_order(omega, eta, np.ones(len(omega), dtype=bool))
    resolved = anchor_predictor.resolve_anchors(ids, order, mask_id)
    final = denoiser_predictor.target_probs(resolved, targets, mask_id)
    committed = (ids == mask_id) & (omega >= 0.5)
    if committed.any():
        anchor = anchor_predictor.target_probs(ids, targets, mask_id)
        final[committed] = anchor[committed]
    return final


@dataclass
class TwoStagePredictor(Predictor):
    """Composition of anchor and denoiser predictors under fixed per-position
    anchor data, as the losses score an annotated sequence."""

    anchor: Predictor
    denoiser: Predictor
    omega: np.ndarray
    eta: np.ndarray

    def target_probs(self, ids: np.ndarray, targets: np.ndarray, mask_id: int) -> np.ndarray:
        return two_stage_predict(
            self.anchor, self.denoiser, ids, targets, self.omega, self.eta, mask_id
        )


@dataclass
class MarginalAnchorProfile(ReadOnlyArrays):
    """Latent-independent anchor profile: the same read-only (omega, eta)
    on every call. ``of_corpus`` gives the corpus marginal, for predictors
    without a match set; ``zeros`` gives the Null strategy's profile, which
    marks no position as an anchor."""

    omega: np.ndarray
    eta: np.ndarray

    _frozen = ("omega", "eta")

    def __post_init__(self):
        # Read-only float views: a profile hands the same arrays to every
        # caller, so none may edit them in place, and the caller's own
        # arrays stay writeable.
        self.omega = np.asarray(self.omega, dtype=np.float64).view()
        self.eta = np.asarray(self.eta, dtype=np.float64).view()
        self._freeze()

    @classmethod
    def of_corpus(cls, corpus: Corpus) -> "MarginalAnchorProfile":
        if corpus.omega is None or corpus.eta is None:
            raise ValueError("corpus lacks omega/eta annotation arrays")
        with np.errstate(over="ignore", invalid="ignore"):
            w = corpus.weights / corpus.weights.sum()
            omega, eta = w @ corpus.omega, w @ corpus.eta
        if not (np.isfinite(omega).all() and np.isfinite(eta).all()):
            raise ValueError("anchor profile overflows: its omega or eta sums are not finite")
        return cls(omega, eta)

    @classmethod
    def zeros(cls, length: int) -> "MarginalAnchorProfile":
        return cls(np.zeros(length), np.zeros(length))

    def __call__(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        return self.omega, self.eta


class PosteriorAnchorProfile(ReadOnlyArrays):
    """Posterior-expected anchor indicator and depth weight per position.

    At sampling time the true per-position anchor labels are unknown, so the
    anchored sampler uses the weighted mean of (omega, eta) over the corpus
    sequences consistent with the current latent. The consistent rows come
    from ``exact.posterior``, normally on the pair's own predictor, so the
    profile is a function of that predictor's consistent set. When nothing
    matches it raises NoMatchError, as ``predict_row`` does on the same
    latent.

    Construction sums weight * omega and weight * eta over the copies of
    each unique row (``exact.unique_of_row``). A profile is then the sum of
    those rows over the consistent unique rows, in ascending order, divided
    by their summed weight: it costs as much as the consistent set, not the
    corpus, and its bits do not depend on a BLAS kernel. Two profiles are
    kept and returned as they are, since the same rows give the same sums:
    the all-rows one, built with the instance, and the last one, while
    ``posterior`` hands back the same ``hit`` array, which it does exactly
    while the set's rows are unchanged. A sum that is not finite, as a huge
    gamma gives, is a ValueError. The arrays are read-only, as
    MarginalAnchorProfile's shared ones are, so a caller treats every
    profile alike.
    """

    _frozen = ("_prior", "_last")

    def __init__(self, exact: ExactPosteriorDenoiser):
        self.exact = exact
        corpus = exact.corpus
        if corpus.omega is None or corpus.eta is None:
            raise ValueError("corpus lacks omega/eta annotation arrays")
        with np.errstate(over="ignore", invalid="ignore"):  # _mean raises instead
            weighted = corpus.weights[:, None] * np.hstack([corpus.omega, corpus.eta])
            self._sums = np.zeros((exact.unique_of_row.max() + 1, weighted.shape[1]))
            np.add.at(self._sums, exact.unique_of_row, weighted)
            weights = np.bincount(exact.unique_of_row, weights=corpus.weights)
            self._prior = self._mean(self._sums, weights)
        # The last posterior's rows and the profile of them.
        self._hit, self._last = None, self._prior
        self._freeze()

    @staticmethod
    def _mean(sums: np.ndarray, weights: np.ndarray) -> np.ndarray:
        mean = sums.sum(axis=0) / weights.sum()
        if not np.isfinite(mean).all():
            raise ValueError("anchor profile overflows: its omega or eta sums are not finite")
        mean.setflags(write=False)  # which makes both views of it read-only
        return mean

    def __call__(self, z: LatentSequence) -> tuple[np.ndarray, np.ndarray]:
        hit, w = self.exact.posterior(z)
        if hit is not self._hit:
            if not len(hit):
                raise NoMatchError("latent matches no corpus sequence")
            all_rows = len(hit) == len(self._sums)
            mean = self._prior if all_rows else self._mean(self._sums[hit], w)
            self._hit, self._last = hit, mean
        return self._last[: len(z)], self._last[len(z) :]
