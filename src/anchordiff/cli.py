"""Command-line entry point.

Subcommands: annotate, corrupt, sample, probe, eval. Each option is
declared once, in ``OPTIONS``, which builds every subcommand's parser, the
defaults and the config-file check. Configuration comes from a JSON config
file (--config) with command-line flags taking precedence; a config key is
a key of ``OPTIONS``, and its value must have that option's type and
choices. The resolved configuration is checked and the corpus loaded, then
the subcommand computes its files in memory. Only a run that succeeds makes
its run directory, in ``write_run``: the manifest with the fully resolved
configuration, then every file. So a run that exits 2, 3 or 4 leaves no run
directory, and a run writes into no used ``--out`` (exit 2) and no
timestamped directory it did not make. All outputs are deterministic under
a fixed seed (timestamps live only in the manifest).

Exit codes: 0 success, 2 input error, 3 predictor/runtime error,
4 infeasible experiment. Running out of memory is an input error while the
inputs load and a runtime error in the subcommand.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .anchors import AnchorConfig, AnchorStrategy, compute_omega
from .corpus_io import (
    DatasetRecord,
    EmptyCorpusError,
    IngestError,
    annotator,
    build_corpus,
    dataset_to_jsonl,
    ingest,
    load_dataset,
    reweight_records,
    synth_corpus,
)
from .denoisers import Corpus, ExactPosteriorDenoiser
from .diffusion import DiffusionError, LatentSequence, corrupt
from .experiments import (
    PREDICTOR_KINDS,
    ancestry_probe,
    build_strategy_predictors,
    compare_strategies,
    csv_number,
    eval_rows_to_csv,
    render_ids,
    validity_eval,
)
from .hierarchy import InsufficientDepth
from .sampler import SamplerConfig, default_remask_rate, generate
from .schedule import NoiseSchedule, ScheduleKind

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_INFEASIBLE = 4

OUTPUT_ROOT_ENV = "ANCHORDIFF_OUT"
SYNTH_SEED = 20260809

SUBCOMMANDS = {
    "annotate": "write annotated JSONL dataset",
    "corrupt": "emit forward-noised samples",
    "sample": "generate programs",
    "probe": "run the ancestry probe",
    "eval": "strategy comparison grid",
}


@dataclass(frozen=True)
class Option:
    """An option's default, its flag's type, choices and help, and the
    subcommands that take the flag. Its key in ``OPTIONS`` is its dest and
    config key; ``flag`` is set where the flag is not that key dashed."""

    default: object
    type: type = str
    choices: tuple | None = None
    commands: tuple[str, ...] = tuple(SUBCOMMANDS)
    help: str | None = None
    flag: str | None = None


OPTIONS = {
    "corpus": Option("synth", help="directory, dataset .jsonl, or 'synth'"),
    "strategy": Option("anchor_tree", help="null|keyword|identifier|anchor_tree "
                       "(a comma list on eval only)"),
    "gamma": Option(None, float, help="anchor weight scale"),
    "beta": Option(None, float, help="depth-decay rate"),
    "d0": Option(2, int, help="depth where decay begins"),
    "schedule": Option("cosine", choices=("cosine", "linear"),
                       commands=("corrupt", "sample", "eval"), help="noise schedule"),
    "steps": Option("16", commands=("corrupt", "sample", "eval"),
                    help="denoising steps (comma grid for eval)"),
    "temperature": Option(0.8, float, commands=("sample", "eval"),
                          help="sampling temperature, above 0 (default 0.8)"),
    "remask_rate": Option(None, float, commands=("sample", "eval"),
                          help="remask probability per step (default 0.1 anchored, 0 null)"),
    "seed": Option(0, int, help="random seed, at least 0"),
    "workers": Option(1, int, help="sample's worker processes; 1 on the other subcommands"),
    "n_samples": Option(16, int, commands=("sample", "probe", "eval"),
                        help="generations per strategy and step count, "
                        "or probes per noise level"),
    "t": Option(0.5, float, commands=("corrupt",), help="noise level in [0, 1]"),
    "probe_k": Option(3, int, commands=("probe",), help="ancestor chain length"),
    "probe_t": Option("0.85,0.95", commands=("probe",), help="comma-separated noise levels"),
    "predictor": Option("exact", choices=PREDICTOR_KINDS, commands=("sample", "eval"),
                        help="Bayes-exact table or smoothed count model"),
    "length": Option(64, int, help="sequence length L"),
    "synth_programs": Option(200, int, help="programs in the synth corpus"),
    "synth_depth": Option(6, int, help="tree depth of the synth programs, at least 3"),
    "split_max_len": Option(None, int, flag="--split-identifiers",
                            help="split identifiers longer than this many characters"),
    "probe_rule": Option("keyword_first", choices=("keyword_first", "first_token"),
                         commands=("probe",), help="which token stands in for an ancestor node"),
}
DEFAULTS = {name: option.default for name, option in OPTIONS.items()}


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand: ``--config``, ``--out`` and its ``OPTIONS``
    flags, which default to None so that ``resolve_config`` sees one left out."""
    parser = argparse.ArgumentParser(
        prog="anchordiff",
        description="Anchored masked diffusion over mini-language syntax trees",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default: timestamped)")
        for name, option in OPTIONS.items():
            if command in option.commands:
                p.add_argument(option.flag or "--" + name.replace("_", "-"), dest=name,
                               type=option.type, choices=option.choices, help=option.help)
    return parser


def _config_value(key: str, value):
    """A config-file value checked as its flag checks its text: it must have
    the flag's type (a JSON string is not a number), a number may stand for
    a text option, and it must be one of the flag's choices. ``null`` keeps
    a default that is None."""
    option = OPTIONS[key]
    if value is None and option.default is None:
        return None
    allowed = {int: (int,), float: (int, float), str: (str, int, float)}[option.type]
    if isinstance(value, bool) or not isinstance(value, allowed):
        kind = option.type.__name__
        raise ValueError(f"config {key!r} must be of type {kind}, got {value!r}")
    try:
        value = option.type(value)
    except OverflowError:
        raise ValueError(f"config {key!r} is out of range, got {value!r}") from None
    if option.choices is not None and value not in option.choices:
        raise ValueError(
            f"config {key!r} must be one of {sorted(option.choices)}, got {value!r}"
        )
    return value


def _finite_number(text: str) -> float:
    """A JSON number or constant of a config file, which must be finite:
    ``NaN``, ``Infinity`` and literals such as ``1e400`` that overflow a
    double are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config file holds {text}, which is not a finite number")
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    """Layer defaults, then the config file, then explicit flags. A config
    key must name an option of ``OPTIONS``, whichever subcommand takes its
    flag, so one config file can serve a whole pipeline; its value passes
    ``_config_value``."""
    resolved = dict(DEFAULTS)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        if not isinstance(config, dict):
            raise ValueError(
                f"config file must hold a JSON object, got {type(config).__name__}"
            )
        for key, value in config.items():
            if key not in OPTIONS:
                raise ValueError(f"config key {key!r} names no option a config file sets")
            resolved[key] = _config_value(key, value)
    resolved |= {k: v for k, v in vars(args).items() if k in OPTIONS and v is not None}
    resolved["command"] = args.command
    resolved["out"] = args.out
    return resolved


def _anchor_config(resolved: dict, strategy: str | None = None) -> AnchorConfig:
    """The anchor config of ``strategy``, or else of ``--strategy``, which
    names one strategy: only eval sweeps a comma list, one name at a time."""
    name = str(resolved["strategy"]) if strategy is None else strategy
    if "," in name:
        raise ValueError(
            f"--strategy takes a comma list on eval only; {resolved['command']} got {name!r}"
        )
    return AnchorConfig.for_strategy(
        AnchorStrategy(name),
        gamma=resolved["gamma"],
        beta=resolved["beta"],
        d0=resolved["d0"],
    )


def load_records(resolved: dict, anchor: AnchorConfig) -> list[DatasetRecord]:
    """The corpus's programs under ``anchor``, each distinct program
    annotated once: its duplicates are records of their own ids that share
    its tokens, tree and read-only arrays.

    Synth records take their index as id and a directory's records their
    file name; each directory file that does not read or parse is named on
    stderr. A dataset file's records keep their ids and tokens, so such a
    corpus takes no ``--split-identifiers``; each line is checked against
    its source's annotation under the header's config, and the records are
    reweighted, once per distinct program, only where ``anchor`` differs.
    """
    spec = resolved["corpus"]
    path = Path(spec)
    split = resolved["split_max_len"]
    if spec == "synth":
        sources = synth_corpus(
            seed=SYNTH_SEED,
            n_programs=resolved["synth_programs"],
            max_depth=resolved["synth_depth"],
        )
        annotate = annotator(anchor, split)
        records = [annotate(s, str(i)) for i, s in enumerate(sources)]
    elif not path.exists():
        raise IngestError(f"no such corpus path: {path}")
    elif path.is_file() and path.suffix == ".jsonl":
        if split is not None:
            raise ValueError("a .jsonl corpus keeps its own tokens; drop --split-identifiers")
        records, stored = load_dataset(path)
        if _weight_key(stored) != _weight_key(anchor):
            records = reweight_records(records, anchor)
    else:
        result = ingest([path], anchor, split)
        for skipped, reason in result.skipped:
            print(f"skipped {skipped}: {reason}", file=sys.stderr)
        records = result.records
    if not records:
        raise EmptyCorpusError(f"no parseable programs in corpus {path}")
    if not any(rec.tokens for rec in records):
        raise EmptyCorpusError(f"no tokens in corpus {path}: every program is empty")
    return records


def _weight_key(config: AnchorConfig) -> tuple:
    """What the anchor arrays depend on: the config, and the sign of a zero
    gamma, which ``0.0 == -0.0`` leaves out but eta's zeros carry."""
    return config, math.copysign(1.0, config.gamma)


def _sampler_config(resolved: dict, anchor: AnchorConfig, T: int) -> SamplerConfig:
    remask = resolved["remask_rate"]
    return SamplerConfig(
        T=T,
        temperature=resolved["temperature"],
        remask_rate=default_remask_rate(anchor.strategy) if remask is None else remask,
        strategy=anchor,
        seed=resolved["seed"],
    )


def _noise_level(value) -> float:
    t = float(value)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"noise level must lie in [0, 1], got {t}")
    return t


@dataclass
class Inputs:
    """A subcommand's checked inputs. ``records`` hold the corpus's
    programs, annotated once under ``anchor``. ``anchor`` is None for eval,
    which sweeps strategies; its records are annotated under the first one
    and reweighted per strategy. Eval and annotate have no ``corpus``."""

    anchor: AnchorConfig | None
    records: list[DatasetRecord] = field(default_factory=list)
    corpus: Corpus | None = None
    schedules: list[NoiseSchedule] = field(default_factory=list)  # one per step count
    samplers: list[SamplerConfig] = field(default_factory=list)  # eval: one per strategy
    t_values: list[float] = field(default_factory=list)  # corrupt's and probe's noise levels


def load_inputs(resolved: dict) -> Inputs:
    """Check the options the subcommand uses, then load its corpus with
    ``load_records``: every distinct program is tokenized and parsed once,
    here, and the corpus encodes it once.

    Rejected input, an ``--out`` that already holds something included,
    raises ValueError or an ingest error; main reports it as exit 2.
    Nothing is written before the subcommand has returned its files, so a
    probe that finds no position with a chain of ``--probe-k``, a check
    that ``ancestry_probe`` makes, also leaves no run directory.
    """
    command = resolved["command"]
    for key, value in resolved.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be a finite number, got {value}")
    inputs = Inputs(None if command == "eval" else _anchor_config(resolved))
    if command in ("corrupt", "sample", "eval"):
        steps = str(resolved["steps"]).split(",") if command == "eval" else [resolved["steps"]]
        kind = ScheduleKind(resolved["schedule"])
        inputs.schedules = [NoiseSchedule(kind, int(v)) for v in steps]
    if command == "sample":
        inputs.samplers = [_sampler_config(resolved, inputs.anchor, inputs.schedules[0].T)]
    if command == "eval":
        names = str(resolved["strategy"]).split(",")
        anchors = [_anchor_config(resolved, name.strip()) for name in names]
        inputs.samplers = [_sampler_config(resolved, a, inputs.schedules[0].T) for a in anchors]
    if resolved["seed"] < 0:
        raise ValueError(f"--seed must be >= 0, got {resolved['seed']}")
    if resolved["workers"] < 1:
        raise ValueError(f"--workers must be >= 1, got {resolved['workers']}")
    if command != "sample" and resolved["workers"] > 1:
        raise ValueError(f"--workers above 1 applies to sample only; {command} runs in one process")
    if resolved["synth_programs"] < 1:
        raise ValueError(f"--synth-programs must be >= 1, got {resolved['synth_programs']}")
    if command != "annotate" and resolved["length"] < 1:
        raise ValueError(f"--length must be >= 1, got {resolved['length']}")
    if command in ("sample", "eval") and resolved["n_samples"] < 1:
        raise ValueError(f"--n-samples must be >= 1, got {resolved['n_samples']}")
    if command == "corrupt":
        inputs.t_values = [_noise_level(resolved["t"])]
    if command == "probe":
        inputs.t_values = [_noise_level(v) for v in str(resolved["probe_t"]).split(",")]
        if resolved["n_samples"] < 2:
            raise ValueError("probe needs --n-samples >= 2 for a standard error")
        if resolved["probe_k"] < 0:
            raise ValueError(f"--probe-k must be >= 0, got {resolved['probe_k']}")
    # A metric CSV has one row per strategy and one column per step count,
    # and probe.csv one block of rows per noise level.
    for flag, values in (
        ("--strategy", [c.strategy.strategy.value for c in inputs.samplers]),
        ("--steps", [s.T for s in inputs.schedules]),
        ("--probe-t", inputs.t_values),
    ):
        if len(set(values)) < len(values):
            raise ValueError(f"{flag} repeats a value: {','.join(map(str, values))}")
    out = resolved["out"] and Path(resolved["out"])
    if out and out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(f"--out {out} exists and is not an empty directory")
    inputs.records = load_records(resolved, inputs.anchor or inputs.samplers[0].strategy)
    n = len(inputs.records)
    for anchor in (s.strategy for s in inputs.samplers):
        # An anchored profile adds up to gamma per program (eta <= gamma),
        # so half the float range leaves room for the rounding of the sum.
        if anchor.strategy is not AnchorStrategy.NULL and not math.isfinite(2 * anchor.gamma * n):
            raise ValueError(
                f"--gamma {anchor.gamma} is too large for {n} programs: the anchor "
                f"profile sums it over them, so {n} x gamma must stay below "
                f"{sys.float_info.max / 2:.4g}"
            )
    if command not in ("annotate", "eval"):
        # The vocabulary comes from the records' tokens, so it holds the
        # chunks of any split identifier.
        inputs.corpus = build_corpus(inputs.records, length=resolved["length"])
    return inputs


def write_run(resolved: dict, anchor: AnchorConfig | None, files: dict[str, str]) -> Path:
    """Make the run directory, the ``--out`` path or a timestamped one, and
    write ``manifest.json`` and every ``{relative path: text}`` of ``files``
    into it, with the subdirectories they name. The one place a run writes.
    A timestamped name that another run holds gets the first free ``-2``,
    ``-3``, ... suffix: a run never writes into a directory it did not make."""
    if resolved["out"]:
        run_dir = Path(resolved["out"])
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        root.mkdir(parents=True, exist_ok=True)
        stem = f"{time.strftime('%Y%m%dT%H%M%S')}-{resolved['command']}"
        for n in itertools.count(1):
            run_dir = root / (stem if n == 1 else f"{stem}-{n}")
            try:
                run_dir.mkdir()  # FileExistsError if another run made it
                break
            except FileExistsError:
                pass
    manifest = {
        "tool": "anchordiff",
        "version": __version__,
        "created_unix": time.time(),
        "config": {k: v for k, v in sorted(resolved.items()) if k != "out"},
    }
    if anchor is not None:
        manifest["anchor"] = anchor.to_dict()
    for name, text in {"manifest.json": _json_document(manifest), **files}.items():
        path = run_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return run_dir


def _json_document(value: dict) -> str:
    # allow_nan=False: a non-finite value that slipped past the checks fails
    # loudly instead of writing NaN or Infinity, which are not JSON.
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


# -- subcommands --------------------------------------------------------------
# Each maps its checked inputs to its files, ``{relative path: text}``, and
# the one-line message that main prints with the run directory.


def cmd_annotate(resolved: dict, inputs: Inputs) -> tuple[dict[str, str], str]:
    records = inputs.records
    depth_hist = np.bincount(np.concatenate([rec.depth for rec in records]))
    tokens = [tok for rec in records for tok in rec.tokens]
    density = {
        s.value: int(compute_omega(tokens, AnchorConfig.for_strategy(s)).sum()) / len(tokens)
        for s in AnchorStrategy
    }
    summary = {
        "records": len(records),
        "tokens": len(tokens),
        "anchor_density": density,
        "depth_histogram": {str(d): int(n) for d, n in enumerate(depth_hist) if n},
    }
    files = {
        "dataset.jsonl": dataset_to_jsonl(records, inputs.anchor),
        "summary.json": _json_document(summary),
    }
    return files, f"annotated {len(records)} records"


def cmd_corrupt(resolved: dict, inputs: Inputs) -> tuple[dict[str, str], str]:
    corpus = inputs.corpus
    vocab = corpus.vocab
    t = inputs.t_values[0]
    rng = np.random.default_rng(resolved["seed"])
    lines = []
    for i in range(corpus.n):
        x = LatentSequence(corpus.ids[i].copy(), vocab.mask_id)
        z = corrupt(x, t, inputs.schedules[0], rng)
        lines.append(
            json.dumps(
                {
                    "id": inputs.records[i].record_id,
                    "t": t,
                    "masked": int(z.is_masked.sum()),
                    "text": render_ids(z.ids, vocab),
                },
                sort_keys=True,
                allow_nan=False,
            )
        )
    return {"corrupted.jsonl": "\n".join(lines) + "\n"}, f"corrupted {corpus.n} records at t={t}"


def _one_sample(predictors, task):
    cfg, schedule, length, seed, index = task
    rng = np.random.default_rng([seed, index])
    out, trace = generate([], length, predictors, cfg, schedule, rng)
    return index, out, trace


# The pair of a pool worker process, set once by its initializer, so that a
# task carries only its own small arguments.
_worker_predictors = None


def _init_worker(predictors) -> None:
    global _worker_predictors
    _worker_predictors = predictors


def _worker_sample(task):
    return _one_sample(_worker_predictors, task)


def cmd_sample(resolved: dict, inputs: Inputs) -> tuple[dict[str, str], str]:
    corpus = inputs.corpus
    sampler_cfg = inputs.samplers[0]
    predictors = build_strategy_predictors(
        corpus, sampler_cfg.strategy.strategy, resolved["predictor"]
    )
    files = {}
    if resolved["predictor"] == "backoff":
        files["counts.json"] = predictors.predictor.to_json() + "\n"
    n = resolved["n_samples"]
    tasks = [
        (sampler_cfg, inputs.schedules[0], corpus.length, resolved["seed"], j)
        for j in range(n)
    ]
    # Each worker is a process, started up front: never more than there are
    # samples or CPUs. The pair goes to each worker once, not with every task.
    workers = min(resolved["workers"], n, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(predictors,)
        ) as pool:
            results = sorted(pool.map(_worker_sample, tasks), key=lambda r: r[0])
    else:
        results = [_one_sample(predictors, t) for t in tasks]
    texts = []
    for index, out, trace in results:
        text = render_ids(out, corpus.vocab)
        texts.append(text)
        files[f"samples/{index:04d}.txt"] = text
        files[f"traces/{index:04d}.jsonl"] = trace.to_jsonl()
    report = validity_eval(texts)
    files["validity.json"] = json.dumps(
        {"fraction": report.fraction, "verdicts": report.verdicts},
        sort_keys=True,
        allow_nan=False,
    ) + "\n"
    return files, f"sampled {n} programs (validity {report.fraction})"


def cmd_probe(resolved: dict, inputs: Inputs) -> tuple[dict[str, str], str]:
    corpus = inputs.corpus
    run = ancestry_probe(
        inputs.records,
        corpus,
        ExactPosteriorDenoiser(corpus),
        t_values=inputs.t_values,
        k=resolved["probe_k"],
        n_probes=resolved["n_samples"],
        rng=resolved["seed"],
        rule=resolved["probe_rule"],
    )
    summary = {
        "k": run.k,
        "achievable_k": run.achievable_k,
        "n_probes": run.n_probes,
        "skipped": run.n_skipped,
    }
    files = {
        "probe.csv": run.to_csv(),
        "probe_summary.json": json.dumps(summary, sort_keys=True, allow_nan=False) + "\n",
    }
    return files, f"probe k={run.k} over t={inputs.t_values}"


def cmd_eval(resolved: dict, inputs: Inputs) -> tuple[dict[str, str], str]:
    t_grid = [s.T for s in inputs.schedules]
    strategies = [c.strategy.strategy.value for c in inputs.samplers]
    rows = compare_strategies(
        inputs.records,
        inputs.samplers,
        t_grid,
        resolved["n_samples"],
        inputs.schedules[0].kind,
        resolved["seed"],
        length=resolved["length"],
        predictor_kind=resolved["predictor"],
    )
    files = {"eval.csv": eval_rows_to_csv(rows)}
    for metric in ("syntax_fraction", "mean_unmask_depth_corr", "nelbo"):
        lines = ["strategy," + ",".join(f"T{t}" for t in t_grid)]
        for name in strategies:
            vals = [
                next(getattr(r, metric) for r in rows if r.strategy == name and r.T == t)
                for t in t_grid
            ]
            lines.append(name + "," + ",".join(csv_number(v) for v in vals))
        files[f"metric_{metric}.csv"] = "\n".join(lines) + "\n"
    return files, f"eval {strategies} x T{t_grid}"


COMMANDS = {
    "annotate": cmd_annotate,
    "corrupt": cmd_corrupt,
    "sample": cmd_sample,
    "probe": cmd_probe,
    "eval": cmd_eval,
}

INPUT_ERRORS = (IngestError, EmptyCorpusError, OSError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = resolve_config(args)
        inputs = load_inputs(resolved)
    except (ValueError, RecursionError, MemoryError, *INPUT_ERRORS) as exc:  # JSON nested too deep
        print(f"input error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT
    try:
        files, message = COMMANDS[args.command](resolved, inputs)
        run_dir = write_run(resolved, inputs.anchor, files)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InsufficientDepth as exc:
        print(f"infeasible experiment: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DiffusionError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{message} -> {run_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
