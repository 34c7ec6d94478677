from __future__ import annotations

import hashlib
import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    EmptyCorpusError,
    IngestError,
    annotate_program,
    build_corpus,
    build_vocab,
    dataset_from_jsonl,
    dataset_to_jsonl,
    ingest,
    load_dataset,
    pad_id,
    save_dataset,
    synth_corpus,
    tokenize,
)
from anchordiff import corpus_io
from anchordiff.cli import DEFAULTS, load_records, main
from anchordiff.corpus_io import annotator, encode_tokens, reweight, reweight_records
from anchordiff.diffusion import Vocab
from anchordiff.minilang import (
    MASK_SURFACE,
    PAD_SURFACE,
    ParseError,
    is_syntactically_valid,
    parse,
    token_surfaces,
)


CFG = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)


class TestVocab:
    def test_example_vocabulary(self):
        vocab = build_vocab(["x = 1"])
        assert vocab.tokens == ("1", "=", "x", PAD_SURFACE, MASK_SURFACE)
        assert vocab.size == 5
        assert vocab.mask_id == 4

    def test_duplicates_counted_once(self):
        assert build_vocab(["x x x"]).tokens == ("x", PAD_SURFACE, MASK_SURFACE)

    def test_mask_is_last(self, synth_sources):
        vocab = build_vocab(synth_sources)
        assert vocab.tokens[-1] == MASK_SURFACE
        assert vocab.surface(vocab.mask_id) == MASK_SURFACE

    def test_deterministic(self, synth_sources):
        assert build_vocab(synth_sources).tokens == build_vocab(synth_sources).tokens

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([])

    def test_mask_sentinel_is_unparseable(self):
        assert not is_syntactically_valid("x = ?")
        assert not is_syntactically_valid("?")


class TestEncode:
    def test_truncate_and_pad(self):
        vocab = build_vocab(["x = 1"])
        toks = tokenize("x = 1")
        ids = encode_tokens(toks, vocab, 5)
        assert ids.tolist() == [
            vocab.id("x"), vocab.id("="), vocab.id("1"),
            pad_id(vocab), pad_id(vocab),
        ]
        assert encode_tokens(toks, vocab, 2).tolist() == [
            vocab.id("x"), vocab.id("="),
        ]

    def test_corpus_arrays_aligned(self, synth_corpus_built):
        corpus = synth_corpus_built
        assert corpus.ids.shape == corpus.omega.shape == corpus.eta.shape
        # padding carries no anchor weight and depth -1
        pads = corpus.ids == pad_id(corpus.vocab)
        assert not corpus.omega[pads].any()
        assert (corpus.depth[pads] == -1).all()

    @pytest.mark.parametrize("split", [None, 2])
    @pytest.mark.parametrize("extra", [-20, 0, 5])
    def test_chain_rows_are_the_records_padded_with_minus_one(self, synth_sources, split, extra):
        # Split records differ in length; the corpus may cut or pad them.
        records = [annotate_program(s, CFG, split_max_len=split) for s in synth_sources[:8]]
        length = max(len(r) for r in records) + extra
        corpus = build_corpus(records, length=length)
        assert corpus.chain.shape == corpus.depth.shape == (8, length)
        for row, rec in zip(corpus.chain, records):
            m = min(len(rec), length)
            assert row[:m].tolist() == rec.chain[:m].tolist()
            assert (row[m:] == -1).all()
        assert ((corpus.chain == -1) == (corpus.depth == -1)).all()


class TestIngest:
    def test_directory_roundtrip(self, tmp_path, synth_sources):
        for i, src in enumerate(synth_sources[:5]):
            (tmp_path / f"p{i}.mini").write_text(src)
        (tmp_path / "broken.mini").write_text("def f(:")
        result = ingest([tmp_path], CFG)
        assert len(result.records) == 5
        assert len(result.skipped) == 1
        assert "broken.mini" in result.skipped[0][0]

    def test_missing_path_raises(self):
        with pytest.raises(IngestError):
            ingest(["/nonexistent/path"], CFG)


class TestSerialization:
    def test_round_trip_bit_exact(self, synth_records):
        payload = dataset_to_jsonl(synth_records[:10], CFG)
        records, config = dataset_from_jsonl(payload)
        assert config == CFG
        assert dataset_to_jsonl(records, config) == payload

    def test_file_round_trip(self, tmp_path, synth_records):
        path = tmp_path / "data.jsonl"
        save_dataset(path, synth_records[:4], CFG)
        records, config = load_dataset(path)
        again = tmp_path / "again.jsonl"
        save_dataset(again, records, config)
        assert path.read_bytes() == again.read_bytes()

    def test_reloaded_records_match(self, synth_records):
        payload = dataset_to_jsonl(synth_records[:3], CFG)
        records, _ = dataset_from_jsonl(payload)
        for orig, back in zip(synth_records, records):
            assert back.source == orig.source
            assert back.tokens == orig.tokens
            assert back.node_id.tolist() == orig.node_id.tolist()
            assert np.array_equal(back.omega, orig.omega)
            assert np.array_equal(back.eta, orig.eta)
            # chain is not serialized: loading rebuilds it from the source
            assert np.array_equal(back.chain, orig.chain)

    def test_rejects_foreign_payload(self):
        with pytest.raises(IngestError):
            dataset_from_jsonl('{"schema": "something-else", "version": 1}\n')

    @pytest.mark.parametrize(
        "target, edit",
        [
            ("record", lambda r: {**r, "source": "x = (\n"}),
            ("record", lambda r: {k: v for k, v in r.items() if k != "tokens"}),
            ("record", lambda r: {**r, "tokens": [{"kind": "Bogus"}]}),
            ("header", lambda h: {k: v for k, v in h.items() if k != "anchor"}),
            ("header", lambda h: {**h, "anchor": {"strategy": "bogus"}}),
            ("header", lambda h: [1, 2]),
            ("record", lambda r: {**r, "node_id": [999] * len(r["node_id"])}),
            ("record", lambda r: {**r, "omega": [1 - v for v in r["omega"]]}),
            ("record", lambda r: {
                **r, "tokens": [{**r["tokens"][0], "text": "zzz"}, *r["tokens"][1:]]
            }),
            ("record", lambda r: {**r, "id": 7}),
            ("header", lambda h: {**h, "anchor": {**h["anchor"], "extra": 1}}),
            ("header", lambda h: {
                **h, "anchor": {k: v for k, v in h["anchor"].items() if k != "d0"}
            }),
        ],
        ids=["unparseable-source", "missing-tokens", "bad-token-kind", "missing-anchor",
             "bad-strategy", "header-list", "wrong-node-id", "wrong-omega",
             "token-text-not-in-source", "int-id", "unknown-anchor-field",
             "missing-anchor-d0"],
    )
    def test_malformed_line_is_an_ingest_error_naming_it(self, synth_records, target, edit):
        header, first, second = dataset_to_jsonl(synth_records[:2], CFG).splitlines()
        if target == "header":
            header = json.dumps(edit(json.loads(header)))
        else:
            second = json.dumps(edit(json.loads(second)))
        # The blank line after the header still counts: the record is line 4.
        payload = "\n".join([header, "", first, second]) + "\n"
        line = 1 if target == "header" else 4
        with pytest.raises(IngestError, match=f"^line {line}: "):
            dataset_from_jsonl(payload)


    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: {**r, "omega": [1 - v for v in r["omega"]]},
            lambda r: {**r, "node_id": [999] * len(r["node_id"])},
            lambda r: {**r, "tokens": [{**r["tokens"][0], "text": "zzz"}, *r["tokens"][1:]]},
        ],
        ids=["wrong-omega", "wrong-node-id", "token-text-not-in-source"],
    )
    @pytest.mark.parametrize("split", [None, 3])
    def test_edited_duplicate_is_an_ingest_error_naming_it(self, synth_sources, edit, split):
        # The edited line repeats an earlier line's source, so its program's
        # annotation is shared; the line is still checked against it.
        sources = [synth_sources[0], synth_sources[1], synth_sources[0]]
        records = [annotate_program(s, CFG, str(i), split) for i, s in enumerate(sources)]
        *lines, duplicate = dataset_to_jsonl(records, CFG).splitlines()
        payload = "\n".join([*lines, json.dumps(edit(json.loads(duplicate)))]) + "\n"
        with pytest.raises(IngestError, match="^line 4: "):
            dataset_from_jsonl(payload)

    @pytest.mark.parametrize("keep, count", [(5, 50), (3, 5), (5, 4)])
    def test_record_count_must_match_the_header(self, synth_records, keep, count):
        header, *lines = dataset_to_jsonl(synth_records[:5], CFG).splitlines()
        header = json.dumps({**json.loads(header), "count": count})
        payload = "\n".join([header, *lines[:keep]]) + "\n"
        with pytest.raises(IngestError, match="^line 1: .*counts"):
            dataset_from_jsonl(payload)


class TestSynthCorpus:
    def test_all_programs_valid(self, synth_sources):
        assert all(is_syntactically_valid(s) for s in synth_sources)

    def test_seed_determinism(self):
        a = synth_corpus(seed=5, n_programs=20, max_depth=6)
        b = synth_corpus(seed=5, n_programs=20, max_depth=6)
        assert a == b
        c = synth_corpus(seed=6, n_programs=20, max_depth=6)
        assert a != c

    def test_depth_fixture(self):
        # Pinned on the shipped generator: half the tokens sit deeper than
        # d0 = 2 at max_depth 6 (fixture requires >= 30%).
        sources = synth_corpus(seed=20260809, n_programs=200, max_depth=6)
        records = [annotate_program(s, CFG, str(i)) for i, s in enumerate(sources)]
        deep = sum(int((r.depth > 2).sum()) for r in records)
        total = sum(len(r) for r in records)
        assert deep / total >= 0.30
        assert deep / total == pytest.approx(0.501, abs=0.02)

    def test_depth_coverage(self, synth_records):
        depths = {d for r in synth_records for d in r.depth.tolist()}
        assert depths >= {0, 1, 2, 3, 4, 5, 6}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(3, 8))
    def test_every_distinct_program_parses(self, seed, n_programs, max_depth):
        for text in dict.fromkeys(synth_corpus(seed, n_programs, max_depth)):
            parse(text)

    def test_invalid_program_raises_where_it_is_annotated(self, tmp_path, monkeypatch):
        # synth_corpus only makes text; the annotation that every caller
        # runs is what rejects a program that does not parse, even one
        # invalid program among many duplicates.
        programs = itertools.cycle(["x = 1\n"] * 5 + ["x = (\n"] + ["x = 1\n"] * 5)
        monkeypatch.setattr(corpus_io, "_generate_program", lambda rnd, layers: next(programs))
        resolved = {**DEFAULTS, "corpus": "synth", "synth_programs": 11}
        with pytest.raises(ParseError):
            load_records(resolved, CFG)
        out = tmp_path / "run"
        with pytest.raises(ParseError):
            main(["annotate", "--synth-programs", "11", "--out", str(out)])
        assert not out.exists()

    def test_min_depth_guard(self):
        with pytest.raises(ValueError):
            synth_corpus(seed=0, n_programs=1, max_depth=2)

    def test_single_shared_token_length(self, synth_sources):
        lengths = {len(tokenize(s)) for s in synth_sources}
        assert len(lengths) == 1

    def test_fits_target_length(self, synth_sources):
        assert max(len(tokenize(s)) for s in synth_sources) <= 64


class TestFrontEndGolden:
    """The annotated dataset of a fixed synth corpus, byte for byte. A change
    to the lexer, parser, node assignment or anchor weights that moves any
    output byte fails here."""

    @pytest.mark.parametrize(
        "split, digest",
        [
            (None, "59fde50646cfdb2614a14c569adf439c3148c5e46eb0846eb37f10948fd0cefe"),
            (3, "23fc6942f4f351246fe44a5baa02c77099d12cd547dfb482cb06550641499fa6"),
        ],
    )
    def test_dataset_digest(self, split, digest):
        assert self._digest(CFG, split) == digest

    @pytest.mark.parametrize(
        "strategy, split, digest",
        [
            ("keyword", None, "d57cdf812da79152a4badbf0057b74b6291c35ebabea51c06f61ec245dced07f"),
            ("keyword", 3, "9ece3a1ce6887c941fc9be8ca62d1c7d2c4a2ae89f8d3802207398e5139a6668"),
            ("identifier", None, "0bd622deff4fe23a973bde4b6134e41df30b319f5979a5803ff17bbd0d4a106c"),
            ("identifier", 3, "7a0bcf239b41a26301ffe9bc4ae3693eaeb4bc5039a8335a2524979ba12f2783"),
            ("null", None, "8fb6077f1aa500e2dd832999e00ffb56418394161b55cb0dc8c3ecb7c5eaf146"),
            ("null", 3, "dfe48335a4a3ef98af0fe8003abb276a6abdd46a54c6b06ab771ac729c4a8d84"),
        ],
    )
    def test_strategy_dataset_digest(self, strategy, split, digest):
        assert self._digest(AnchorConfig.for_strategy(strategy), split) == digest

    @staticmethod
    def _digest(config, split):
        sources = synth_corpus(seed=1, n_programs=200, max_depth=8)
        records = [
            annotate_program(src, config, record_id=str(i), split_max_len=split)
            for i, src in enumerate(sources)
        ]
        return hashlib.sha256(dataset_to_jsonl(records, config).encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("strategy", list(AnchorStrategy))
    def test_reweight_equals_fresh_annotation(self, synth_sources, strategy):
        config = AnchorConfig.for_strategy(strategy)
        for i, src in enumerate(synth_sources[:10]):
            fresh = annotate_program(src, config, str(i), split_max_len=2)
            moved = reweight(annotate_program(src, CFG, str(i), split_max_len=2), config)
            assert dataset_to_jsonl([moved], config) == dataset_to_jsonl([fresh], config)
            assert np.array_equal(moved.chain, fresh.chain)


RECORD_ARRAYS = ("node_id", "depth", "chain", "omega", "eta", "mu")


def _fresh(source, config, record_id, split, reweight_to=None):
    rec = annotate_program(source, config, record_id, split_max_len=split)
    return rec if reweight_to is None else reweight(rec, reweight_to)


def assert_same_record(got, want):
    assert got.record_id == want.record_id
    assert got.source == want.source
    assert got.tokens == want.tokens
    assert got.tree.source == want.tree.source
    assert (got.tree.root, got.tree.nodes) == (want.tree.root, want.tree.nodes)
    for name in RECORD_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_shared_and_read_only(records):
    """Records of one source (and split) share tokens, tree and arrays, and
    no record's array is writeable."""
    first = {}
    for rec in records:
        assert not any(getattr(rec, a).flags.writeable for a in RECORD_ARRAYS)
        key = (rec.source, tuple(t.text for t in rec.tokens))
        other = first.setdefault(key, rec)
        assert rec.tokens is other.tokens and rec.tree is other.tree
        assert all(getattr(rec, a) is getattr(other, a) for a in RECORD_ARRAYS)


def assert_same_corpus(records, fresh):
    """``build_corpus`` and ``build_vocab`` of shared records equal those of
    the per-record path."""
    got, want = build_corpus(records, length=64), build_corpus(fresh, length=64)
    assert got.vocab == want.vocab
    for name in ("ids", "weights", "omega", "eta", "depth", "chain"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    texts = [rec.source for rec in records]
    surfaces = {s for text in texts for s in token_surfaces(tokenize(text))}
    assert build_vocab(texts) == Vocab(tuple(sorted(surfaces)) + (PAD_SURFACE, MASK_SURFACE))


class TestSharedAnnotation:
    """Each front-end path annotates a distinct program once and gives its
    duplicates records that share it; every record equals a fresh per-record
    annotation, and the corpus equals the per-record path's."""

    KEYWORD = AnchorConfig.for_strategy(AnchorStrategy.KEYWORD)

    @staticmethod
    def _resolved(corpus, split):
        return {**DEFAULTS, "corpus": str(corpus), "split_max_len": split, "synth_programs": 60}

    @pytest.mark.parametrize("split", [None, 3])
    def test_synth(self, synth_sources, split):
        records = load_records(self._resolved("synth", split), self.KEYWORD)
        assert [rec.source for rec in records] == synth_sources
        assert len(set(synth_sources)) < len(synth_sources)  # the corpus repeats programs
        fresh = [_fresh(s, self.KEYWORD, str(i), split) for i, s in enumerate(synth_sources)]
        for got, want in zip(records, fresh, strict=True):
            assert_same_record(got, want)
        assert_shared_and_read_only(records)
        assert_same_corpus(records, fresh)

    @pytest.mark.parametrize("split", [None, 3])
    def test_jsonl(self, tmp_path, synth_sources, split):
        stored = [_fresh(s, CFG, f"r{i}", split) for i, s in enumerate(synth_sources)]
        path = tmp_path / "data.jsonl"
        save_dataset(path, stored, CFG)
        records = load_records(self._resolved(path, None), self.KEYWORD)
        fresh = [_fresh(s, CFG, f"r{i}", split, self.KEYWORD) for i, s in enumerate(synth_sources)]
        for got, want in zip(records, fresh, strict=True):
            assert_same_record(got, want)
        assert_shared_and_read_only(records)
        assert_shared_and_read_only(pickle.loads(pickle.dumps(records)))
        assert_same_corpus(records, fresh)

    @pytest.mark.parametrize("split", [None, 3])
    def test_directory_with_identical_files(self, tmp_path, synth_sources, split):
        names = ["a.mini", "b.mini", "c.mini"]
        for name, source in zip(names, [synth_sources[0], synth_sources[0], synth_sources[1]]):
            (tmp_path / name).write_text(source)
        assert synth_sources[0] != synth_sources[1]
        records = load_records(self._resolved(tmp_path, split), self.KEYWORD)
        fresh = [
            _fresh((tmp_path / name).read_text(), self.KEYWORD, name, split) for name in names
        ]
        for got, want in zip(records, fresh, strict=True):
            assert_same_record(got, want)
        assert records[0].node_id is records[1].node_id
        assert records[0].node_id is not records[2].node_id
        assert_shared_and_read_only(records)
        assert_same_corpus(records, fresh)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([None, 2, 3])), min_size=1,
                    max_size=12))
    def test_mixed_splits_of_one_source(self, synth_sources, picks):
        # Records of one source split and unsplit share nothing with each
        # other, but each shares its own annotation with its duplicates.
        sources = list(dict.fromkeys(synth_sources))[:4]
        annotators = {split: annotator(CFG, split) for split in (None, 2, 3)}
        records = [annotators[split](sources[k], str(i)) for i, (k, split) in enumerate(picks)]
        fresh = [_fresh(sources[k], CFG, str(i), split) for i, (k, split) in enumerate(picks)]
        for got, want in zip(records, fresh, strict=True):
            assert_same_record(got, want)
        assert_shared_and_read_only(records)
        assert_same_corpus(records, fresh)
        moved = reweight_records(records, self.KEYWORD)
        for got, want in zip(moved, fresh, strict=True):
            assert_same_record(got, reweight(want, self.KEYWORD))
        assert_shared_and_read_only(moved)
