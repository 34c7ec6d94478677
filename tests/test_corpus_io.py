from __future__ import annotations

import enum
import gc
import hashlib
import itertools
import json
import pickle
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    synth_corpus,
    tokenize,
)
from anchordiff import corpus_io
from anchordiff.cli import DEFAULTS, load_records, main
from anchordiff.corpus_io import annotator, encode_tokens, reweight_records
from anchordiff.diffusion import Vocab
from anchordiff.minilang import (
    MASK_SURFACE,
    PAD_SURFACE,
    AstNode,
    ParseError,
    SyntaxTree,
    is_syntactically_valid,
    parse,
    token_surfaces,
)

from .oracles import whole_text_dataset, whole_text_load


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
        path.write_text(dataset_to_jsonl(synth_records[:4], CFG), encoding="utf-8")
        records, config = load_dataset(path)
        again = tmp_path / "again.jsonl"
        again.write_text(dataset_to_jsonl(records, config), encoding="utf-8")
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("d0", 1.5, "anchor config 'd0' must be of type int, got 1.5"),
            ("d0", True, "anchor config 'd0' must be of type int, got True"),
            ("gamma", True, "anchor config 'gamma' must be of type float, got True"),
            ("beta", False, "anchor config 'beta' must be of type float, got False"),
            ("strategy", 1, "anchor config 'strategy' must be of type str, got 1"),
            ("count", 2.0, "header 'count' must be of type int, got 2.0"),
            ("count", True, "header 'count' must be of type int, got True"),
            ("version", True, "header 'version' must be of type int, got True"),
            ("version", 1.0, "header 'version' must be of type int, got 1.0"),
            ("version", 2, "unsupported schema version 2"),
            ("schema", "something-else", "not an anchordiff dataset"),
        ],
        ids=["d0-float", "d0-bool", "gamma-bool", "beta-bool", "strategy-int", "count-float",
             "count-bool", "version-bool", "version-float", "version-2", "foreign-schema"],
    )
    def test_header_value_of_another_type_names_line_1(self, tmp_path, capsys, synth_records,
                                                       key, value, message):
        # The number stands for the record count, so only the type is wrong:
        # ``true`` counts one record, ``2.0`` two. A schema name or version
        # of the right type but another value names line 1 too.
        records = synth_records[: 1 if value is True else 2]
        header, *lines = dataset_to_jsonl(records, CFG).splitlines()
        header = json.loads(header)
        if key in header["anchor"]:
            header["anchor"][key] = value
        else:
            header[key] = value
        payload = "\n".join([json.dumps(header), *lines]) + "\n"
        path = tmp_path / "data.jsonl"
        path.write_text(payload)
        pattern = f"^line 1: malformed dataset line \\(ValueError: {re.escape(message)}\\)$"
        for load, arg in ((dataset_from_jsonl, payload), (load_dataset, path)):
            with pytest.raises(IngestError, match=pattern):
                load(arg)
        out = tmp_path / "run"
        argv = ["sample", "--corpus", str(path), "--steps", "4", "--n-samples", "1"]
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
            stored = annotate_program(src, CFG, str(i), split_max_len=2)
            moved = reweight_records([stored], config)[0]
            assert dataset_to_jsonl([moved], config) == dataset_to_jsonl([fresh], config)
            assert np.array_equal(moved.chain, fresh.chain)


RECORD_ARRAYS = ("node_id", "depth", "chain", "omega", "eta", "mu")


def _fresh(source, config, record_id, split, reweight_to=None):
    rec = annotate_program(source, config, record_id, split_max_len=split)
    return rec if reweight_to is None else reweight_records([rec], reweight_to)[0]


def assert_same_record(got, want):
    assert got.record_id == want.record_id
    assert got.source == want.source
    assert got.tokens == want.tokens
    assert got.parents == want.parents
    for name in RECORD_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_shared_and_read_only(records):
    """Records of one source (and split) share tokens, parent map and
    arrays, and no record's array is writeable."""
    first = {}
    for rec in records:
        assert not any(getattr(rec, a).flags.writeable for a in RECORD_ARRAYS)
        key = (rec.source, tuple(t.text for t in rec.tokens))
        other = first.setdefault(key, rec)
        assert rec.tokens is other.tokens and rec.parents is other.parents
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
        path.write_text(dataset_to_jsonl(stored, CFG), encoding="utf-8")
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
            assert_same_record(got, reweight_records([want], self.KEYWORD)[0])
        assert_shared_and_read_only(moved)


def _reachable(root) -> list:
    """Every object ``gc.get_referents`` reaches from ``root``, entering no
    class, module, function or enum member: those are shared by the whole
    program, not held by ``root``."""
    shared = (type, types.ModuleType, types.FunctionType, enum.Enum)
    seen = {id(root)}
    todo = [root]
    found = []
    while todo:
        obj = todo.pop()
        found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, shared):
                seen.add(id(ref))
                todo.append(ref)
    return found


class TestRecordKeepsNoTree:
    """A record keeps its tree's parent map, not the tree: nothing it holds
    reaches an AstNode or a SyntaxTree, and once collected the map is a
    tuple the garbage collector no longer tracks."""

    @staticmethod
    def _check(records):
        assert records
        for rec in records:
            assert type(rec.parents) is tuple
            assert rec.parents == parse(rec.source).parents
            assert not [o for o in _reachable(rec) if isinstance(o, (AstNode, SyntaxTree))]
        gc.collect()
        assert not [rec.record_id for rec in records if gc.is_tracked(rec.parents)]

    def test_the_walk_finds_a_tree(self, synth_sources):
        assert any(isinstance(o, AstNode) for o in _reachable(parse(synth_sources[0])))

    @pytest.mark.parametrize("split", [None, 3])
    def test_annotate_program(self, synth_sources, split):
        self._check([_fresh(s, CFG, str(i), split) for i, s in enumerate(synth_sources[:8])])

    @pytest.mark.parametrize("split", [None, 3])
    def test_annotator(self, synth_sources, split):
        annotate = annotator(CFG, split)
        self._check([annotate(s, str(i)) for i, s in enumerate(synth_sources)])

    @pytest.mark.parametrize("split", [None, 3])
    def test_load_dataset(self, tmp_path, synth_sources, split):
        path = tmp_path / "data.jsonl"
        fresh = [_fresh(s, CFG, str(i), split) for i, s in enumerate(synth_sources)]
        path.write_text(dataset_to_jsonl(fresh, CFG), encoding="utf-8")
        records, _ = load_dataset(path)
        self._check(records)


class TestDatasetCorpusWeights:
    """A dataset corpus is reweighted only under a config other than its
    header's: under an equal one, reweighting would remake the same arrays."""

    ZERO = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE, gamma=0.0)

    @pytest.mark.parametrize(
        "stored, anchor, reweighted",
        [
            (CFG, CFG, False),
            (CFG, AnchorConfig.for_strategy(AnchorStrategy.KEYWORD), True),
            (CFG, AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE, beta=0.1), True),
            # -0.0 == 0.0, but eta's zeros carry gamma's sign.
            (ZERO, AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE, gamma=-0.0), True),
        ],
        ids=["equal", "keyword", "other-beta", "negative-zero-gamma"],
    )
    def test_fields_equal_reweight_records(self, tmp_path, monkeypatch, synth_sources, stored,
                                           anchor, reweighted):
        path = tmp_path / "data.jsonl"
        written = [annotate_program(s, stored, str(i)) for i, s in enumerate(synth_sources[:12])]
        path.write_text(dataset_to_jsonl(written, stored), encoding="utf-8")
        calls = []
        monkeypatch.setattr("anchordiff.cli.reweight_records",
                            lambda records, config: calls.append(config) or
                            reweight_records(records, config))
        records = load_records({**DEFAULTS, "corpus": str(path)}, anchor)
        assert calls == ([anchor] if reweighted else [])
        loaded, _ = load_dataset(path)
        want = dataset_to_jsonl(reweight_records(loaded, anchor), anchor)
        assert dataset_to_jsonl(records, anchor) == want
        assert (dataset_to_jsonl(loaded, anchor) != want) == reweighted


# -- streaming load against the whole-text loader ------------------------------

_EDIT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 300), st.floats(-2, 2), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
_RECORD_KEYS = ["id", "source", "tokens", "node_id", "depth", "omega", "eta", "mu", "extra"]
_JSON_EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 6), st.sampled_from(_RECORD_KEYS), _EDIT_VALUES),
    st.tuples(st.just("copy"), st.integers(0, 6), st.sampled_from(_RECORD_KEYS),
              st.integers(0, 6)),
    st.tuples(st.just("nudge"), st.integers(0, 6),
              st.sampled_from(["node_id", "depth", "omega", "eta", "mu"]), st.integers(0, 60)),
    st.tuples(st.just("drop"), st.integers(0, 6), st.sampled_from(_RECORD_KEYS)),
    st.tuples(st.just("token"), st.integers(0, 6), st.integers(0, 60),
              st.sampled_from(["text", "kind", "start", "end", "extra"]), _EDIT_VALUES),
    st.tuples(st.just("token-drop"), st.integers(0, 6), st.integers(0, 60),
              st.sampled_from(["text", "kind", "start", "end"])),
    st.tuples(st.just("count"), st.integers(-2, 2)),
    # Row j becomes row i under a new id, which json.dumps may escape.
    st.tuples(st.just("repeat"), st.integers(0, 6), st.integers(0, 6),
              st.one_of(st.text(max_size=3), st.sampled_from(["r0", "r1", "\x01", "\ud800"]),
                        st.integers(0, 3), st.none())),
)
_BREAKS = ["\r\n", "\r", "\n", "\x0c", "\x0b", "\x1c", "\x85", " ", " "]
# An id member's value as raw text: escaped, a raw control character, a lone
# surrogate, a bad escape, an escaped quote, non-ASCII, not a string.
_ID_LITERALS = ['"r0"', '"x"', '"\\u0072\\u0030"', '"a\x01b"', '"\\ud800"', '"\\x"', '"\\""',
                '"\u00e9"', '"\\\\"', "7", "null"]
_ID_VALUE = re.compile(r'"id"\s*:\s*("(?:[^"\\]|\\.)*"|[^,}]*)')
_TEXT_EDITS = st.one_of(
    st.tuples(st.just("blank"), st.integers(0, 7), st.sampled_from(["", "  ", "\t", "\x0c"])),
    st.tuples(st.just("break"), st.integers(0, 7), st.integers(0, 4000),
              st.sampled_from(_BREAKS)),
    st.tuples(st.just("id-literal"), st.integers(0, 7), st.sampled_from(_ID_LITERALS)),
    # A second id member, first or last in its object; the last one counts.
    st.tuples(st.just("id-key"), st.integers(0, 7), st.sampled_from(['"id"', '"\\u0069d"']),
              st.sampled_from(_ID_LITERALS), st.booleans()),
    st.tuples(st.just("id-space"), st.integers(0, 7),
              st.sampled_from(['"id" : ', '"id":', '"id"\t:\t', '"id"\xa0: '])),
)


def _base_dataset() -> list[dict]:
    """A header and seven records: repeated programs, one of them split,
    and an empty program, which has no tokens."""
    sources = [*synth_corpus(seed=20260809, n_programs=60, max_depth=6)[:4], ""]
    picks = [(0, None), (1, None), (0, None), (2, 3), (2, 3), (3, None), (4, None)]
    records = [annotate_program(sources[k], CFG, f"r{i}", split) for i, (k, split) in
               enumerate(picks)]
    return [json.loads(line) for line in dataset_to_jsonl(records, CFG).splitlines()]


_BASE = _base_dataset()


def _edited_payload(json_edits, text_edits, ending) -> str:
    header, *rows = json.loads(json.dumps(_BASE))
    for edit in json_edits:
        kind, *args = edit
        if kind == "count":
            header["count"] += args[0]
            continue
        row = rows[args[0]]
        if kind == "set":
            row[args[1]] = args[2]
        elif kind == "copy":
            row[args[1]] = rows[args[2]].get(args[1])
        elif kind == "nudge" and isinstance(row.get(args[1]), list) and row[args[1]]:
            values = row[args[1]]
            values[args[2] % len(values)] += 1
        elif kind == "drop":
            row.pop(args[1], None)
        elif kind.startswith("token") and isinstance(row.get("tokens"), list) and row["tokens"]:
            tok = row["tokens"][args[1] % len(row["tokens"])]
            if isinstance(tok, dict):
                if kind == "token":
                    tok[args[2]] = args[3]
                else:
                    tok.pop(args[2], None)
        elif kind == "repeat":
            rows[args[1]] = {**json.loads(json.dumps(row)), "id": args[2]}
    lines = [json.dumps(header), *(json.dumps(row) for row in rows)]
    for kind, where, *args in text_edits:
        where %= len(lines) + 1
        if kind == "blank":
            lines.insert(where, args[0])
        elif where == len(lines):
            pass
        elif kind == "break":
            at = args[0] % (len(lines[where]) + 1)
            lines[where] = lines[where][:at] + args[1] + lines[where][at:]
        elif kind == "id-literal":
            lines[where] = _ID_VALUE.sub(lambda m: m.group()[: m.start(1) - m.start()] + args[0],
                                          lines[where], count=1)
        elif kind == "id-key":
            member = f"{args[0]}: {args[1]}"
            line = lines[where]
            if line.startswith("{") and line.endswith("}") and len(line) > 2:
                first = "{" + member + ", " + line[1:]
                lines[where] = first if args[2] else line[:-1] + ", " + member + "}"
        else:
            lines[where] = lines[where].replace('"id": ', args[0], 1)
    return ending.join(lines) + ending


def _outcome(load, arg):
    try:
        records, config = load(arg)
    except Exception as exc:  # the verdict under test
        return type(exc), str(exc)
    return records, config


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert_same_record(a, b)


class TestStreamingLoad:
    """``load_dataset`` streams its file and ``dataset_from_jsonl`` walks its
    text line by line, each line checked against a compact form of its
    annotation; both give what the whole-text loader of tests/oracles.py
    gives, records or the very exception."""

    @settings(max_examples=300, deadline=None)
    @example([("token", 0, 3, "extra", None)], [], "\n")
    @example([("token", 1, 3, "kind", None)], [], "\n")
    @example([("token-drop", 3, 5, "start"), ("token", 3, 5, "extra", 1)], [], "\n")
    @example([("set", 1, "extra", None)], [], "\n")
    @example([("set", 1, "extra", 0)], [], "\n")
    @example([("set", 6, "tokens", {})], [], "\n")
    @example([("set", 6, "tokens", "")], [], "\n")
    @example([("drop", 2, "mu")], [], "\n")
    @example([("nudge", 4, "omega", 7)], [], "\n")
    @example([("count", 1)], [("blank", 3, "  ")], "\r\n")
    @example([], [("break", 2, 100, "\x0c")], "\n")
    # Repeats under new ids, written in every form a literal can take.
    @example([("repeat", 0, 5, "x")], [("id-literal", 6, '"a\x01b"')], "\n")
    @example([("repeat", 0, 5, "x")], [("id-literal", 6, '"\\ud800"')], "\n")
    @example([("repeat", 0, 5, "x")], [("id-literal", 6, '"\\x"')], "\n")
    @example([("repeat", 0, 5, "x")], [("id-literal", 6, '"\\u0072\\u0030"')], "\n")
    @example([("repeat", 0, 5, "x")], [("id-literal", 6, "7")], "\n")
    @example([("repeat", 0, 5, 7)], [], "\n")
    @example([("repeat", 0, 5, "\x01\u00e9")], [], "\n")
    # A second id member, on the checked line and on its repeat: the last wins.
    @example([("repeat", 0, 1, "x")], [("id-key", 1, '"\\u0069d"', '"r0"', False),
                                       ("id-key", 2, '"\\u0069d"', '"r0"', False)], "\n")
    @example([("repeat", 0, 1, "x")], [("id-key", 1, '"id"', '"r0"', False),
                                       ("id-key", 2, '"id"', '"r0"', False)], "\n")
    @example([("repeat", 0, 1, "x")], [("id-key", 1, '"id"', '"q"', True),
                                       ("id-key", 2, '"id"', '"q"', True)], "\n")
    @example([("repeat", 0, 1, "x")], [("id-space", 1, '"id" : '), ("id-space", 2, '"id" : ')],
             "\n")
    @given(
        st.lists(_JSON_EDITS, max_size=3),
        st.lists(_TEXT_EDITS, max_size=2),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_text_equals_the_whole_text_loader(self, json_edits, text_edits, ending):
        payload = _edited_payload(json_edits, text_edits, ending)
        assert_same_outcome(_outcome(dataset_from_jsonl, payload),
                            _outcome(whole_text_dataset, payload))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_JSON_EDITS, max_size=2),
        st.lists(_TEXT_EDITS, max_size=2),
        st.sampled_from(["\n", "\r\n"]),
        st.one_of(st.none(), st.tuples(st.integers(0, 30_000),
                                       st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"]))),
    )
    def test_file_equals_the_whole_text_loader(self, tmp_path_factory, json_edits, text_edits,
                                               ending, bad_byte):
        data = _edited_payload(json_edits, text_edits, ending).encode("utf-8")
        if bad_byte is not None:
            at, byte = bad_byte
            at %= len(data) + 1
            data = data[:at] + byte + data[at:]
        path = tmp_path_factory.mktemp("load") / "data.jsonl"
        path.write_bytes(data)
        assert_same_outcome(_outcome(load_dataset, path), _outcome(whole_text_load, path))

    def test_unedited_base_loads(self):
        # The base of the edits above is a valid dataset of six records.
        records, config = dataset_from_jsonl(_edited_payload([], [], "\n"))
        assert (len(records), config) == (7, CFG)

    @pytest.mark.parametrize("text, number", [
        ("\x0c\n{", 4), ("\r\n\r\n{", 4), (" \u2028\n{", 4), ("\x85{", 3), ("\r{", 3),
    ])
    def test_lines_are_numbered_as_splitlines_numbers_them(self, tmp_path, text, number):
        # Blank lines after the header, then a "{" that breaks the first
        # record line, which is the line named.
        header, rest = _edited_payload([], [], "\n").split("\n", 1)
        payload = header + "\n" + text + rest
        path = tmp_path / "data.jsonl"
        path.write_text(payload, encoding="utf-8", newline="")
        for load, arg in ((dataset_from_jsonl, payload), (load_dataset, path)):
            with pytest.raises(IngestError, match=f"^line {number}: "):
                load(arg)
        assert _outcome(load_dataset, path) == _outcome(whole_text_load, path)

    def test_a_line_repeated_up_to_its_id_is_checked_once(self, tmp_path, monkeypatch):
        # The perfbench corpus: 2,000 lines of 667 distinct programs, each
        # program's lines equal up to their ids.
        sources = synth_corpus(1, 2000)
        annotate = annotator(CFG)
        path = tmp_path / "synth2000.jsonl"
        written = [annotate(s, str(i)) for i, s in enumerate(sources)]
        path.write_text(dataset_to_jsonl(written, CFG), encoding="utf-8")
        real = corpus_io._record_from_dict
        calls = []
        monkeypatch.setattr(corpus_io, "_record_from_dict",
                            lambda data, *rest: calls.append(data["id"]) or real(data, *rest))
        records, _ = load_dataset(path)
        assert len(calls) == len(set(sources)) == 667
        assert [r.record_id for r in records] == [str(i) for i in range(2000)]
        assert [r.source for r in records] == sources

    def test_transient_memory_is_below_the_file_size(self, tmp_path):
        # The perfbench corpus: 2,000 synth programs, 667 of them distinct.
        # Beyond the records it returns, the load holds less than the file:
        # one line at a time and a compact check form per program.
        annotate = annotator(CFG)
        records = [annotate(s, str(i)) for i, s in enumerate(synth_corpus(1, 2000))]
        path = tmp_path / "synth2000.jsonl"
        path.write_text(dataset_to_jsonl(records, CFG), encoding="utf-8")
        del records, annotate
        gc.collect()
        tracemalloc.start()
        try:
            loaded, _ = load_dataset(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 2000
        assert peak - held < path.stat().st_size

