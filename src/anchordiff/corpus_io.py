"""Corpus ingestion, annotation records, JSONL serialization, vocabulary
construction, and the bundled synthetic program generator.

The on-disk dataset format is JSONL: a versioned header record followed by
one record per line. Records serialize tokens with exact spans plus the
per-token annotation arrays, and round-trip bit-exactly. Loading annotates
each distinct program once per call, keyed by its source and identifier
split, and rejects a line whose stored fields disagree with that
annotation, a header value of another JSON type, or a header whose
record count is wrong. ``load_dataset`` streams its file: one pass counts
the lines, a second checks them one at a time against their program's
annotation. The check itself is the whole-text loader's, field by field,
with the same verdicts and messages. A line equal to an already checked
line up to its id takes that line's verdict, with no decode or check of
its own: the synth-2000 file's 2,000 lines hold 667 distinct ones.

A corpus repeats programs (the 2,000 synth programs hold 667 distinct
sources). Within one call, the loaders, ``reweight_records`` and
``build_corpus`` do their per-record work once per distinct annotation:
duplicates are records of their own ids that share one token list, parent
map and set of read-only arrays. No memo outlives the call that made it.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .anchors import AnchorConfig, compute_eta, compute_omega
from .denoisers import Corpus, ReadOnlyArrays
from .diffusion import Vocab
from .hierarchy import assign_nodes, chain_lengths
from .minilang import (
    MASK_SURFACE,
    PAD_SURFACE,
    ParseError,
    Token,
    TokenKind,
    parse,
    split_identifiers,
    token_surfaces,
    tokenize,
)

SCHEMA_NAME = "anchordiff-dataset"
SCHEMA_VERSION = 1


class EmptyCorpusError(Exception):
    pass


class IngestError(Exception):
    pass


@dataclass
class DatasetRecord(ReadOnlyArrays):
    """One annotated program: tokens with spans, the syntax tree's parent
    map (``SyntaxTree.parents``, which the ancestry probe climbs), per-token
    int64 arrays of node ids, depths and chain lengths (each token's count
    of token-bearing strict ancestors), and the anchor arrays. The record
    keeps no tree: what the tree gives is read from it at annotation time,
    so its nodes are freed then. ``parents`` and ``chain`` are re-derived
    from the source, so neither is serialized. The arrays are read-only,
    since duplicates of one program share them."""

    record_id: str
    source: str
    tokens: list[Token]
    parents: tuple[int | None, ...]
    node_id: np.ndarray
    depth: np.ndarray
    chain: np.ndarray
    omega: np.ndarray
    eta: np.ndarray
    mu: np.ndarray

    _frozen = ("node_id", "depth", "chain", "omega", "eta", "mu")

    def __post_init__(self):
        self._freeze()

    def __len__(self) -> int:
        return len(self.tokens)


def annotate_program(
    source: str,
    config: AnchorConfig,
    record_id: str = "",
    split_max_len: int | None = None,
) -> DatasetRecord:
    """Tokenize, parse, and annotate one program under ``config``.

    The source is tokenized once; the parser reads those tokens before any
    identifier split, and node assignment reads the split ones.
    """
    tokens = tokenize(source)
    tree = parse(source, tokens)
    if split_max_len is not None:
        tokens = split_identifiers(tokens, split_max_len)
    node_id = assign_nodes(tree, tokens)
    depth = np.array([tree.nodes[n].depth for n in node_id.tolist()], dtype=np.int64)
    return DatasetRecord(
        record_id=record_id,
        source=source,
        tokens=tokens,
        parents=tree.parents,
        node_id=node_id,
        depth=depth,
        chain=chain_lengths(tree, node_id),
        **_anchor_arrays(tokens, depth, config),
    )


def annotator(config: AnchorConfig, split_max_len: int | None = None):
    """``annotate(source, record_id)``: ``annotate_program`` under ``config``
    that annotates each distinct source once. A repeat is a record of its
    own id sharing the first one's tokens, parent map and arrays. The memo
    lives as long as the returned function."""
    shared: dict[str, DatasetRecord] = {}

    def annotate(source: str, record_id: str) -> DatasetRecord:
        if source not in shared:
            shared[source] = annotate_program(source, config, split_max_len=split_max_len)
        return replace(shared[source], record_id=record_id)

    return annotate


def reweight(rec: DatasetRecord, config: AnchorConfig) -> DatasetRecord:
    """``rec`` under another anchor config: the same tokens, parent map, node
    ids, depths and chain lengths, with omega, eta and mu recomputed."""
    return replace(rec, **_anchor_arrays(rec.tokens, rec.depth, config))


def reweight_records(records: list[DatasetRecord], config: AnchorConfig) -> list[DatasetRecord]:
    """``reweight`` of each record, computed once per distinct annotation;
    records that shared their arrays share the new ones."""
    distinct, inverse = _distinct(records)
    arrays = [_anchor_arrays(rec.tokens, rec.depth, config) for rec in distinct]
    return [replace(rec, **arrays[k]) for rec, k in zip(records, inverse.tolist())]


def _distinct(records: list[DatasetRecord]) -> tuple[list[DatasetRecord], np.ndarray]:
    """The records of distinct annotations, first occurrences in order, and
    each record's index among them. Records share an annotation when they
    hold the very same tokens and arrays, as the loaders' duplicates do;
    equal copies made apart count as distinct, which costs only time."""
    index: dict[tuple[int, ...], int] = {}
    distinct: list[DatasetRecord] = []
    inverse = []
    for rec in records:
        key = tuple(map(id, (rec.tokens, rec.depth, rec.chain, rec.omega, rec.eta)))
        if key not in index:
            index[key] = len(distinct)
            distinct.append(rec)
        inverse.append(index[key])
    return distinct, np.array(inverse, dtype=np.int64)


def _anchor_arrays(tokens: list[Token], depth: np.ndarray, config: AnchorConfig) -> dict:
    omega = compute_omega(tokens, config)
    eta = compute_eta(depth, config)
    return {"omega": omega, "eta": eta, "mu": omega * eta}


@dataclass
class IngestResult:
    records: list[DatasetRecord]
    skipped: list[tuple[str, str]]


def ingest(
    paths: list[str | Path],
    config: AnchorConfig,
    split_max_len: int | None = None,
) -> IngestResult:
    """Annotate every parseable file under ``paths``; report the rest.

    Directories are walked in sorted order. Files that fail to read or
    parse are skipped and listed with the reason. Files of one source share
    one annotation.
    """
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.is_file()))
        elif p.exists():
            files.append(p)
        else:
            raise IngestError(f"no such path: {p}")
    annotate = annotator(config, split_max_len)
    records: list[DatasetRecord] = []
    skipped: list[tuple[str, str]] = []
    for f in files:
        try:
            records.append(annotate(f.read_text(encoding="utf-8"), f.name))
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            skipped.append((str(f), str(exc)))
    return IngestResult(records, skipped)


# -- vocabulary -----------------------------------------------------------


def build_vocab(texts: list[str]) -> Vocab:
    """Sorted unique token surfaces plus the reserved pad and mask tokens,
    mask last. Deterministic across runs. Each distinct text is tokenized
    once."""
    if not texts:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    return _vocab_of(tokenize(text) for text in dict.fromkeys(texts))


def _vocab_of(token_lists) -> Vocab:
    surfaces = {s for tokens in token_lists for s in token_surfaces(tokens)}
    return Vocab(tuple(sorted(surfaces)) + (PAD_SURFACE, MASK_SURFACE))


def pad_id(vocab: Vocab) -> int:
    return vocab.id(PAD_SURFACE)


def encode_tokens(tokens: list[Token], vocab: Vocab, length: int) -> np.ndarray:
    """Token ids truncated or padded to ``length`` with the pad token."""
    ids = [vocab.id(s) for s in token_surfaces(tokens[:length])]
    ids.extend([pad_id(vocab)] * (length - len(ids)))
    return np.array(ids, dtype=np.int64)


def build_corpus(
    records: list[DatasetRecord],
    vocab: Vocab | None = None,
    length: int | None = None,
) -> Corpus:
    """Pad records to a shared length and bundle them as a Corpus, each
    record a row of weight 1.

    Without ``vocab``, the vocabulary is built from the records' own tokens,
    so it holds the chunks of split identifiers. Pad positions carry omega
    0, eta 0, and depth and chain -1 so downstream statistics can exclude
    them. Each distinct annotation is encoded once and copied to the rows
    of the records that share it.
    """
    if not records:
        raise EmptyCorpusError("no records")
    distinct, inverse = _distinct(records)
    if vocab is None:
        vocab = _vocab_of(rec.tokens for rec in distinct)
    if length is None:
        length = max(len(r) for r in distinct)
    n = len(distinct)
    ids = np.empty((n, length), dtype=np.int64)
    omega = np.zeros((n, length), dtype=np.float64)
    eta = np.zeros((n, length), dtype=np.float64)
    depth = np.full((n, length), -1, dtype=np.int64)
    chain = np.full((n, length), -1, dtype=np.int64)
    for i, rec in enumerate(distinct):
        ids[i] = encode_tokens(rec.tokens, vocab, length)
        m = min(len(rec), length)
        omega[i, :m] = rec.omega[:m]
        eta[i, :m] = rec.eta[:m]
        depth[i, :m] = rec.depth[:m]
        chain[i, :m] = rec.chain[:m]
    return Corpus(
        ids=ids[inverse], weights=np.ones(len(records)), vocab=vocab, omega=omega[inverse],
        eta=eta[inverse], depth=depth[inverse], chain=chain[inverse],
    )


# -- JSONL serialization ---------------------------------------------------


_TOKEN_FIELDS = ("text", "kind", "start", "end")
_TOKEN_ROW = itemgetter(*_TOKEN_FIELDS)
_ARRAY_FIELDS = ("node_id", "depth", "omega", "eta", "mu")
_RECORD_FIELDS = frozenset({"id", "source", "tokens", *_ARRAY_FIELDS})


def _token_rows(tokens: list[Token]) -> list[tuple[str, str, int, int]]:
    """Each token as its stored ``(text, kind, start, end)``. The kind's
    ``_value_`` is its ``value`` without the Python-level property call."""
    return [(t.text, t.kind._value_, t.start, t.end) for t in tokens]


def _record_to_dict(rec: DatasetRecord) -> dict:
    return {
        "id": rec.record_id,
        "source": rec.source,
        "tokens": [dict(zip(_TOKEN_FIELDS, row)) for row in _token_rows(rec.tokens)],
        **{name: getattr(rec, name).tolist() for name in _ARRAY_FIELDS},
    }


def _same_tokens(stored, rows: list[tuple]) -> bool:
    """Whether a stored token list equals the dict form of ``rows``: a list
    of dicts, each with exactly the four fields, whose values equal the
    rows'. A token that is not a dict, or lacks a field, fails the lookup."""
    if type(stored) is not list:
        return False
    try:
        stored_rows = list(map(_TOKEN_ROW, stored))
    except (KeyError, TypeError):
        return False
    return stored_rows == rows and sum(map(len, stored)) == len(_TOKEN_FIELDS) * len(rows)


def _record_from_dict(data: dict, config: AnchorConfig, annotated: dict) -> DatasetRecord:
    """The record of ``data``'s ``source`` annotated under ``config``.

    Identifiers are split at the length of the longest stored Identifier
    token, which reproduces the chunks of a split dataset and splits nothing
    in an unsplit one. ``annotated`` maps each (source, split length) met
    so far in the load to its annotation, so a repeated program is annotated
    once. Every stored field must still equal ``_record_to_dict`` of the
    annotation: the tokens as rows, the arrays as lists, and a key the form
    lacks only as ``null``. The id is the line's own and the source keys the
    memo, so neither can disagree.
    """
    if not isinstance(data["id"], str):
        raise ValueError(f"id must be a string, got {data['id']!r}")
    identifier = TokenKind.IDENTIFIER.value
    lengths = [len(t["text"]) for t in data["tokens"] if t["kind"] == identifier]
    key = (data["source"], max(lengths, default=None))
    if key not in annotated:
        annotated[key] = annotate_program(key[0], config, split_max_len=key[1])
    rec = annotated[key]
    wrong = [k for k in data.keys() - _RECORD_FIELDS if data[k] is not None]
    if not _same_tokens(data["tokens"], _token_rows(rec.tokens)):
        wrong.append("tokens")
    wrong.extend(k for k in _ARRAY_FIELDS if getattr(rec, k).tolist() != data.get(k))
    if wrong:
        wrong.sort()
        raise ValueError(f"fields disagree with the source's annotation: {', '.join(wrong)}")
    return replace(rec, record_id=data["id"])


def dataset_to_jsonl(records: list[DatasetRecord], config: AnchorConfig) -> str:
    header = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "count": len(records),
        "anchor": config.to_dict(),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(
        json.dumps(_record_to_dict(r), sort_keys=True, separators=(",", ":"))
        for r in records
    )
    lines.append("")  # the final newline, so the text is made by one join
    return "\n".join(lines)


def _config_from_header(header: dict, n_records: int) -> AnchorConfig:
    """The header's anchor config. Each fault raises ValueError, which
    ``_from_line`` reports as an IngestError naming line 1."""
    if header.get("schema") != SCHEMA_NAME:
        raise ValueError("not an anchordiff dataset")
    if header.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {header.get('version')}")
    _header_int(header, "version")
    if _header_int(header, "count") != n_records:
        raise ValueError(f"the header counts {header['count']} records; the file has {n_records}")
    return AnchorConfig.from_dict(header["anchor"])


def _header_int(header: dict, key: str) -> int:
    """The header's ``key``, which must be a JSON integer: a bool or a float
    equal to an int is not one."""
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"header {key!r} must be of type int, got {value!r}")
    return value


def _from_line(number: int, line: str, build):
    """``build`` applied to one JSON line; a malformed line, one nested past
    the JSON decoder's recursion limit included, is an IngestError naming it."""
    try:
        return build(json.loads(line))
    except (ValueError, KeyError, TypeError, AttributeError, ParseError, RecursionError) as exc:
        raise IngestError(
            f"line {number}: malformed dataset line ({type(exc).__name__}: {exc})"
        ) from exc


def _numbered_lines(physical_lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The non-blank lines, each with its number as ``str.splitlines`` of
    the whole text numbers it. Physical lines end at ``\\n``, ``\\r`` or
    ``\\r\\n``; splitting each again breaks it at the other boundaries that
    ``splitlines`` knows, such as ``\\x0c`` and ``\\u2028``."""
    number = 0
    for physical in physical_lines:
        for line in physical.splitlines():
            number += 1
            if line.strip():
                yield number, line


# A line's first "id" member, as ``json.dumps`` writes one: the key, then
# its value as one JSON string literal (group 1), which may not decode.
_ID_MEMBER = re.compile(r'"id"[ \t\n\r]*:[ \t\n\r]*("(?:[^"\\]|\\.)*")')
# A key that decodes to "id", in any of its escaped forms. It also finds a
# key whose text ends in a quote and "id", which only makes the memo of
# _read_dataset pass over a line it could have taken.
_ID_KEY = re.compile(r'"(?:i|\\u0069)(?:d|\\u0064)"[ \t\n\r]*:')


def _read_dataset(physical_lines) -> tuple[list[DatasetRecord], AnchorConfig]:
    """The dataset of the text that ``physical_lines()`` yields, read twice.
    The first pass counts the records, so the whole text is read (and a
    file decoded) before the header is checked against the count; the
    second checks and annotates one line at a time.

    A line equal to an already checked line but for the string literal of
    its id takes that line's verdict: the checked line's record under the
    new id. That holds only where ``json.loads`` of the new line would give
    the checked line's dict with another id, so a line is memoized only
    when its one key that decodes to ``id`` is the member ``_ID_MEMBER``
    finds, and a new literal is used only when it decodes on its own.
    """
    n_lines = sum(1 for _ in _numbered_lines(physical_lines()))
    if not n_lines:
        raise EmptyCorpusError("empty dataset file")
    lines = _numbered_lines(physical_lines())
    config = _from_line(*next(lines), lambda header: _config_from_header(header, n_lines - 1))
    annotated: dict = {}  # for this call only
    # The text before and after a checked line's id literal -> its record.
    checked: dict[tuple[str, str], DatasetRecord] = {}
    records = []
    for number, line in lines:
        member = _ID_MEMBER.search(line)
        if member is not None:
            around = (line[: member.start(1)], line[member.end(1) :])
            rec = checked.get(around)
            if rec is not None:
                try:
                    record_id = json.loads(member.group(1))
                except ValueError:  # not a JSON string: the line is checked in full
                    pass
                else:
                    records.append(replace(rec, record_id=record_id))
                    continue
        rec = _from_line(number, line, lambda data: _record_from_dict(data, config, annotated))
        if (
            member is not None
            and len(_ID_KEY.findall(line)) == 1
            and json.loads(member.group(1)) == rec.record_id
        ):
            checked[around] = rec
        records.append(rec)
    return records, config


def dataset_from_jsonl(payload: str) -> tuple[list[DatasetRecord], AnchorConfig]:
    # newline="" splits physical lines as load_dataset's open(...) does.
    return _read_dataset(lambda: io.StringIO(payload, newline=""))


def load_dataset(path: str | Path) -> tuple[list[DatasetRecord], AnchorConfig]:
    """The dataset in the file at ``path``, streamed: the whole text is
    never held, only one line and the records made so far."""
    with open(path, encoding="utf-8", newline="") as stream:

        def physical_lines():
            stream.seek(0)
            return stream

        try:
            return _read_dataset(physical_lines)
        except UnicodeDecodeError:
            # Raised in the first pass, at an offset into the chunk being
            # decoded. Decoding the whole text raises it at its offset in
            # the file.
            Path(path).read_text(encoding="utf-8")
            raise


# -- synthetic corpus -------------------------------------------------------
#
# The generator emits programs over one fixed token skeleton per corpus:
# every program has the same number of tokens with the same structural
# positions, so padding and layout carry no information. Variation lives in
# the token choices at a fixed set of slots. Choices are hierarchical: the
# loop form steers the nested condition's operator, which steers the inner
# assignment's operator and operand (with a little noise at each link),
# while function/parameter/accumulator names are drawn independently from
# small pools. Ancestor tokens are therefore genuinely informative about
# the tokens nested beneath them.

_FN_NAMES = ["scan", "tally"]
_SEQ_PARAMS = ["xs", "ys"]
_SCALAR_PARAMS = ["n", "k"]
_ACC_BY_BRANCH = ["acc", "total", "out", "best"]
_LOOP_VARS = ["v", "u"]
_COP_BY_BRANCH = ["<", ">", "<=", "=="]
_COPS = ["<", ">", "<=", "=="]
_OPR_BY_COP = {"<": "+", ">": "-", "<=": "*", "==": "+"}
_OPRS = ["+", "-", "*"]

# Per-link choice noise: loose upstream, tight near the leaves, so a token
# correlates strongly with its immediate ancestors and only weakly with
# distant context. Slots independent of the hierarchy (names, initial
# value) are skewed binary choices, keeping their entropy low.
_NOISE_BRANCH = 0.3
_NOISE_COND = 0.25
_NOISE_LEAF = 0.1
_NOISE_FREE = 0.4


def synth_corpus(seed: int, n_programs: int = 120, max_depth: int = 6) -> list[str]:
    """Generate parse-valid programs sharing one token skeleton.

    ``max_depth`` sets how many if-layers nest inside the loop (one layer
    reaches tree depth 6). Deterministic under ``seed``; duplicates across
    programs are expected and act as corpus weights. Only text is made
    here: each caller parses the programs it annotates, so a program that
    does not parse raises ParseError there.
    """
    if max_depth < 3:
        raise ValueError("max_depth must be >= 3 to admit ancestor chains")
    layers = min(max(max_depth - 5, 1), 3)
    rnd = random.Random(seed)
    return [_generate_program(rnd, layers) for _ in range(n_programs)]


def _pick(rnd: random.Random, noise: float, primary: str, pool: list[str]) -> str:
    """Mostly the primary choice, with uniform noise at the given rate."""
    if rnd.random() < noise:
        return rnd.choice(pool)
    return primary


def _generate_program(rnd: random.Random, layers: int) -> str:
    name = _pick(rnd, _NOISE_FREE, _FN_NAMES[0], _FN_NAMES)
    seq = _pick(rnd, _NOISE_FREE, _SEQ_PARAMS[0], _SEQ_PARAMS)
    lim = _pick(rnd, _NOISE_FREE, _SCALAR_PARAMS[0], _SCALAR_PARAMS)
    init = _pick(rnd, _NOISE_FREE, "0", ["0", "1"])

    branch = rnd.randrange(4)
    acc = _pick(rnd, _NOISE_BRANCH, _ACC_BY_BRANCH[branch], _ACC_BY_BRANCH)
    if branch in (0, 1):
        lvar = _LOOP_VARS[branch]
        loop = f"for {lvar} in {seq}"
    else:
        lvar = acc
        loop = f"while {acc} {'<' if branch == 2 else '<='} {lim}"

    lines = [
        f"def {name}({seq}, {lim}):",
        f"    {acc} = {init}",
        f"    {loop}:",
    ]
    cop = _pick(rnd, _NOISE_COND, _COP_BY_BRANCH[branch], _COPS)
    for d in range(layers):
        kw = _pick(
            rnd, _NOISE_COND, "if" if (branch + d) % 2 == 0 else "while",
            ["if", "while"],
        )
        right = _pick(
            rnd, _NOISE_LEAF, lim if cop in ("<", "<=") else init,
            [lim, "0", "1", "2"],
        )
        lines.append("    " * (2 + d) + f"{kw} {lvar} {cop} {right}:")
        if d < layers - 1:
            cop = _pick(rnd, _NOISE_COND, _COP_BY_BRANCH[(branch + d + 1) % 4], _COPS)
    opr = _pick(rnd, _NOISE_LEAF, _OPR_BY_COP[cop], _OPRS)
    operand = _pick(
        rnd, _NOISE_LEAF, {"+": lim, "-": "1", "*": "2"}[opr], [lim, "1", "2", lvar]
    )
    lines.append("    " * (2 + layers) + f"{acc} = {lvar} {opr} {operand}")
    lines.append(f"    return {acc}")
    return "\n".join(lines) + "\n"
