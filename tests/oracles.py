"""Independent brute-force reference implementations used only by tests.

Each oracle recomputes a result through a second, naive code path: full
node-table scans for token assignment, per-sequence loops for the
posterior, and explicit state-space enumeration for reverse chains.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

from anchordiff.denoisers import Corpus, ExactPosteriorDenoiser, NoMatchError, Predictor
from anchordiff.diffusion import LatentSequence, apply_constraints, temper_row
from anchordiff.minilang import SyntaxTree, Token
from anchordiff.schedule import NoiseSchedule, unmask_prob


def naive_node_assignment(tree: SyntaxTree, tokens: list[Token]) -> list[int]:
    """Scan every node per token: maximal depth intersecting span, ties to
    the start-byte owner, then the leftmost intersecting node."""
    out = []
    for tok in tokens:
        ts, te = tok.span
        candidates = []
        for node in tree.nodes.values():
            ns, ne = node.span
            if ts == te:
                hit = ns <= ts < ne
            else:
                hit = max(ns, ts) < min(ne, te)
            if hit:
                candidates.append(node)
        if not candidates:
            out.append(tree.root)
            continue
        top = max(n.depth for n in candidates)
        deepest = [n for n in candidates if n.depth == top]
        owners = [n for n in deepest if n.span[0] <= ts < n.span[1]]
        pool = owners if owners else deepest
        pool.sort(key=lambda n: (n.span[0], n.id))
        out.append(pool[0].id)
    return out


def naive_consistent_rows(corpus: Corpus, z: LatentSequence) -> list[int]:
    """Indices of the corpus sequences that agree with z where unmasked."""
    mask = corpus.vocab.mask_id
    rows = []
    for i, ids in enumerate(corpus.ids):
        ok = True
        for l in range(len(z)):
            if z.ids[l] != mask and z.ids[l] != ids[l]:
                ok = False
                break
        if ok:
            rows.append(i)
    return rows


def naive_posterior(corpus: Corpus, z: LatentSequence) -> np.ndarray:
    """Per-sequence loop posterior: constraint-satisfying probability rows."""
    K = corpus.vocab.size
    mask = corpus.vocab.mask_id
    matched = [
        (corpus.ids[i], corpus.weights[i]) for i in naive_consistent_rows(corpus, z)
    ]
    if not matched:
        raise NoMatchError("no corpus sequence matches")
    total = sum(w for _, w in matched)
    probs = np.zeros((len(z), K))
    for l in range(len(z)):
        if z.ids[l] != mask:
            probs[l, z.ids[l]] = 1.0
        else:
            for ids, w in matched:
                probs[l, ids[l]] += w
            probs[l] /= total
    return probs


class RescanExactDenoiser(Predictor):
    """The exact posterior with a full n x L corpus rescan on every query:
    the reference for ExactPosteriorDenoiser's incremental match state."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus

    @property
    def vocab(self):
        return self.corpus.vocab

    def match_mask(self, z: LatentSequence) -> np.ndarray:
        agree = (self.corpus.ids == z.ids[None, :]) | z.is_masked[None, :]
        return agree.all(axis=1)

    def predict_row(self, z: LatentSequence, position: int) -> np.ndarray:
        m = self.match_mask(z)
        if not m.any():
            raise NoMatchError("latent matches no corpus sequence")
        K = self.corpus.vocab.size
        if not z.is_masked[position]:
            row = np.zeros(K)
            row[z.ids[position]] = 1.0
            return row
        hit = np.flatnonzero(m)
        counts = np.bincount(
            self.corpus.ids[hit, position], weights=self.corpus.weights[hit], minlength=K
        )
        return counts / counts.sum()


def _predictor_rows(corpus: Corpus, state: tuple[int, ...], temperature: float):
    z = LatentSequence(ids=np.array(state), mask_id=corpus.vocab.mask_id)
    rows = apply_constraints(ExactPosteriorDenoiser(corpus).predict(z), z).probs
    return [temper_row(rows[l], temperature) for l in range(len(state))]


def enumerate_product_chain(
    corpus: Corpus, schedule: NoiseSchedule, temperature: float = 1.0
) -> dict[tuple[int, ...], float]:
    """Final-output distribution of the per-position-independent reverse
    process (each masked position unmasks on its own coin, tokens drawn
    from the step's prediction rows)."""
    mask = corpus.vocab.mask_id
    L = corpus.length
    dist: dict[tuple[int, ...], float] = {tuple([mask] * L): 1.0}
    for i in range(schedule.T, 0, -1):
        p = unmask_prob(schedule, i)
        nxt: dict[tuple[int, ...], float] = defaultdict(float)
        for state, prob in dist.items():
            masked = [l for l in range(L) if state[l] == mask]
            if not masked:
                nxt[state] += prob
                continue
            rows = _predictor_rows(corpus, state, temperature)
            options = []
            for l in masked:
                opts = [(mask, 1.0 - p)] if p < 1.0 else []
                opts += [
                    (v, p * rows[l][v]) for v in range(len(rows[l])) if rows[l][v] > 0
                ]
                options.append(opts)
            for combo in itertools.product(*options):
                q = prob
                s = list(state)
                for l, (v, pr) in zip(masked, combo):
                    q *= pr
                    s[l] = v
                if q > 0:
                    nxt[tuple(s)] += q
        dist = dict(nxt)
    return dist


def enumerate_sequential_chain(
    corpus: Corpus, schedule: NoiseSchedule, temperature: float = 1.0
) -> dict[tuple[int, ...], float]:
    """Final-output distribution of the sampler's step rule: a binomial
    unmask budget spent on a uniformly ordered subset, committing one
    position at a time with re-predicted rows (the Null-strategy path)."""
    mask = corpus.vocab.mask_id
    L = corpus.length
    dist: dict[tuple[int, ...], float] = {tuple([mask] * L): 1.0}
    for i in range(schedule.T, 0, -1):
        p = unmask_prob(schedule, i)
        nxt: dict[tuple[int, ...], float] = defaultdict(float)
        for state, prob in dist.items():
            masked = [l for l in range(L) if state[l] == mask]
            if not masked:
                nxt[state] += prob
                continue
            m = len(masked)
            for b in range(m + 1):
                p_b = math.comb(m, b) * (p**b) * ((1 - p) ** (m - b))
                if p_b == 0:
                    continue
                n_orders = math.perm(m, b)
                for order in itertools.permutations(masked, b):
                    _commit_recurse(
                        corpus, state, list(order), prob * p_b / n_orders,
                        temperature, nxt,
                    )
        dist = dict(nxt)
    return dist


def _commit_recurse(corpus, state, order, prob, temperature, out) -> None:
    if not order:
        out[tuple(state)] += prob
        return
    l = order[0]
    rows = _predictor_rows(corpus, state, temperature)
    for v in range(len(rows[l])):
        if rows[l][v] > 0:
            s = list(state)
            s[l] = v
            _commit_recurse(corpus, s, order[1:], prob * rows[l][v], temperature, out)


def total_variation(
    p: dict[tuple[int, ...], float], q: dict[tuple[int, ...], float]
) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
