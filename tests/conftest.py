from __future__ import annotations

import numpy as np
import pytest

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    Corpus,
    Vocab,
    annotate_program,
    build_corpus,
    build_vocab,
    synth_corpus,
)


def make_corpus(sequences: list[str], weights=None, extra_tokens=()) -> Corpus:
    """Tiny hand-built corpus over single-character tokens.

    Each string is one sequence; its characters are the tokens. A pad and
    mask are appended to the vocabulary automatically.
    """
    chars = sorted({c for s in sequences for c in s} | set(extra_tokens))
    vocab = Vocab(tuple(chars) + ("<pad>", "?"))
    ids = np.array([[vocab.id(c) for c in s] for s in sequences])
    if weights is None:
        weights = np.ones(len(sequences))
    return Corpus(ids=ids, weights=np.asarray(weights, float), vocab=vocab)


@pytest.fixture(scope="session")
def synth_sources() -> list[str]:
    return synth_corpus(seed=20260809, n_programs=60, max_depth=6)


@pytest.fixture(scope="session")
def anchor_tree_config() -> AnchorConfig:
    return AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)


@pytest.fixture(scope="session")
def synth_records(synth_sources, anchor_tree_config):
    return [
        annotate_program(src, anchor_tree_config, record_id=str(i))
        for i, src in enumerate(synth_sources)
    ]


@pytest.fixture(scope="session")
def synth_vocab(synth_sources):
    return build_vocab(synth_sources)


@pytest.fixture(scope="session")
def synth_corpus_built(synth_records, synth_vocab):
    return build_corpus(synth_records, synth_vocab, length=64)


@pytest.fixture(scope="session")
def synth200_corpus(anchor_tree_config):
    sources = synth_corpus(seed=20260809, n_programs=200, max_depth=6)
    records = [annotate_program(s, anchor_tree_config, str(i)) for i, s in enumerate(sources)]
    return build_corpus(records, length=64)
