"""Command-line entry point.

Subcommands: annotate, corrupt, sample, probe, eval. Configuration comes
from a JSON config file (--config) with command-line flags taking
precedence; a config value must have its flag's type and choices. The
resolved configuration is checked and the corpus loaded
before the run directory is made, so rejected input exits 2 and leaves no
run directory. The run then writes a manifest with the fully resolved
configuration before doing any work. All outputs are deterministic under a
fixed seed (timestamps live only in the manifest).

Exit codes: 0 success, 2 input error, 3 predictor/runtime error,
4 infeasible experiment.
"""

from __future__ import annotations

import argparse
import json
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
    annotate_program,
    build_corpus,
    dataset_to_jsonl,
    ingest,
    load_dataset,
    synth_corpus,
)
from .denoisers import Corpus, ExactPosteriorDenoiser
from .diffusion import DiffusionError, LatentSequence, corrupt
from .experiments import (
    PREDICTOR_KINDS,
    ancestry_probe,
    build_strategy_predictors,
    compare_strategies,
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

DEFAULTS = {
    "corpus": "synth",
    "strategy": "anchor_tree",
    "gamma": None,
    "beta": None,
    "d0": 2,
    "schedule": "cosine",
    "steps": "16",
    "temperature": 0.8,
    "remask_rate": None,
    "seed": 0,
    "workers": 1,
    "n_samples": 16,
    "t": 0.5,
    "probe_k": 3,
    "probe_t": "0.85,0.95",
    "predictor": "exact",
    "length": 64,
    "synth_programs": 200,
    "synth_depth": 6,
    "split_max_len": None,
    "probe_rule": "keyword_first",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchordiff",
        description="Anchored masked diffusion over mini-language syntax trees",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--corpus", help="directory, dataset .jsonl, or 'synth'")
    common.add_argument(
        "--strategy",
        help="null|keyword|identifier|anchor_tree (comma-separated for eval)",
    )
    common.add_argument("--gamma", type=float, help="anchor weight scale")
    common.add_argument("--beta", type=float, help="depth-decay rate")
    common.add_argument("--d0", type=int, help="depth where decay begins")
    common.add_argument("--schedule", choices=["cosine", "linear"])
    common.add_argument("--steps", help="denoising steps (comma grid for eval)")
    common.add_argument("--temperature", type=float)
    common.add_argument("--remask-rate", type=float, dest="remask_rate")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory (default: timestamped)")
    common.add_argument("--workers", type=int)
    common.add_argument("--n-samples", type=int, dest="n_samples")
    common.add_argument("--length", type=int, help="sequence length L")
    common.add_argument("--synth-programs", type=int, dest="synth_programs")
    common.add_argument("--synth-depth", type=int, dest="synth_depth")
    common.add_argument(
        "--split-identifiers", type=int, dest="split_max_len",
        help="split identifiers longer than this many characters",
    )

    sub.add_parser("annotate", parents=[common], help="write annotated JSONL dataset")
    p_corrupt = sub.add_parser("corrupt", parents=[common], help="emit forward-noised samples")
    p_corrupt.add_argument("--t", type=float, help="noise level in [0, 1]")
    p_sample = sub.add_parser("sample", parents=[common], help="generate programs")
    p_sample.add_argument("--predictor", choices=PREDICTOR_KINDS)
    p_probe = sub.add_parser("probe", parents=[common], help="run the ancestry probe")
    p_probe.add_argument("--probe-k", type=int, dest="probe_k")
    p_probe.add_argument("--probe-t", dest="probe_t", help="comma-separated noise levels")
    p_probe.add_argument(
        "--probe-rule", dest="probe_rule", choices=["keyword_first", "first_token"],
        help="which token stands in for an ancestor node",
    )
    p_eval = sub.add_parser("eval", parents=[common], help="strategy comparison grid")
    p_eval.add_argument("--predictor", choices=PREDICTOR_KINDS)
    return parser


def _config_value(action: argparse.Action, value):
    """A config-file value checked as its flag checks its text: it must have
    the flag's type (a JSON string is not a number), a number may stand for
    a text option, and it must be one of the flag's choices. ``null`` keeps
    a default that is None."""
    if value is None and DEFAULTS[action.dest] is None:
        return None
    kind = action.type or str
    allowed = {int: (int,), float: (int, float), str: (str, int, float)}[kind]
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(
            f"config {action.dest!r} must be of type {kind.__name__}, got {value!r}"
        )
    value = kind(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config {action.dest!r} must be one of {sorted(action.choices)}, got {value!r}"
        )
    return value


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Layer defaults, then the config file, then explicit flags. A config
    value for one of the subcommand's options passes ``_config_value``."""
    resolved = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(
                f"config file must hold a JSON object, got {type(config).__name__}"
            )
        subcommands = next(
            a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        actions = {a.dest: a for a in subcommands[args.command]._actions}
        for key, value in config.items():
            if key in DEFAULTS and key in actions:
                value = _config_value(actions[key], value)
            resolved[key] = value
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    resolved["command"] = args.command
    resolved["out"] = getattr(args, "out", None)
    return resolved


def _anchor_config(resolved: dict, strategy: str | None = None) -> AnchorConfig:
    name = strategy or str(resolved["strategy"]).split(",")[0]
    return AnchorConfig.for_strategy(
        AnchorStrategy(name),
        gamma=resolved["gamma"],
        beta=resolved["beta"],
        d0=resolved["d0"],
    )


def load_sources(resolved: dict) -> list[str]:
    spec = resolved["corpus"]
    if spec == "synth":
        return synth_corpus(
            seed=SYNTH_SEED,
            n_programs=resolved["synth_programs"],
            max_depth=resolved["synth_depth"],
        )
    path = Path(spec)
    if not path.exists():
        raise IngestError(f"no such corpus path: {path}")
    if path.is_file() and path.suffix == ".jsonl":
        records, _ = load_dataset(path)
        return [r.source for r in records]
    config = _anchor_config(resolved)
    result = ingest([path], config)
    if not result.records:
        raise IngestError(f"no parseable programs under {path}")
    return [r.source for r in result.records]


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
    """A subcommand's checked inputs. ``anchor`` is None for eval, which
    sweeps strategies. Eval has no ``records``; eval and annotate have no
    ``corpus``."""

    anchor: AnchorConfig | None
    sources: list[str] = field(default_factory=list)
    records: list[DatasetRecord] = field(default_factory=list)
    corpus: Corpus | None = None
    schedules: list[NoiseSchedule] = field(default_factory=list)  # one per step count
    samplers: list[SamplerConfig] = field(default_factory=list)  # eval: one per strategy
    t_values: list[float] = field(default_factory=list)  # corrupt's and probe's noise levels


def load_inputs(resolved: dict) -> Inputs:
    """Check the options the subcommand uses, then load its corpus.

    Rejected input raises ValueError or an ingest error before any output
    exists; main reports it as exit 2.
    """
    command = resolved["command"]
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
        if resolved["split_max_len"] is not None:
            # compare_strategies annotates the unsplit sources.
            raise ValueError("eval does not support --split-identifiers")
    if resolved["seed"] < 0:
        raise ValueError(f"--seed must be >= 0, got {resolved['seed']}")
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
    inputs.sources = load_sources(resolved)
    if command == "eval":
        return inputs
    split = resolved["split_max_len"]
    inputs.records = [
        annotate_program(s, inputs.anchor, record_id=str(i), split_max_len=split)
        for i, s in enumerate(inputs.sources)
    ]
    if command != "annotate":
        # The vocabulary comes from the records' tokens, which carry any
        # identifier splits, not from the unsplit sources.
        inputs.corpus = build_corpus(inputs.records, length=resolved["length"])
    return inputs


def make_run_dir(resolved: dict) -> Path:
    if resolved["out"]:
        run_dir = Path(resolved["out"])
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        stamp = time.strftime("%Y%m%dT%H%M%S")
        run_dir = root / f"{stamp}-{resolved['command']}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def write_manifest(run_dir: Path, resolved: dict, anchor: AnchorConfig | None) -> None:
    manifest = {
        "tool": "anchordiff",
        "version": __version__,
        "created_unix": time.time(),
        "config": {k: v for k, v in sorted(resolved.items()) if k != "out"},
    }
    if anchor is not None:
        manifest["anchor"] = {
            "strategy": anchor.strategy.value,
            "gamma": anchor.gamma,
            "beta": anchor.beta,
            "d0": anchor.d0,
        }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write(run_dir: Path, name: str, payload: str) -> None:
    (run_dir / name).write_text(payload, encoding="utf-8")


# -- subcommands --------------------------------------------------------------


def cmd_annotate(resolved: dict, inputs: Inputs, run_dir: Path) -> int:
    records = inputs.records
    _write(run_dir, "dataset.jsonl", dataset_to_jsonl(records, inputs.anchor))
    depth_hist: dict[int, int] = {}
    for rec in records:
        for ann in rec.annotations:
            depth_hist[ann.depth] = depth_hist.get(ann.depth, 0) + 1
    total = sum(len(r) for r in records)
    density = {}
    for name in ("null", "keyword", "identifier", "anchor_tree"):
        cfg = AnchorConfig.for_strategy(AnchorStrategy(name))
        hits = sum(int(compute_omega(r.annotations, cfg).sum()) for r in records)
        density[name] = hits / total
    summary = {
        "records": len(records),
        "tokens": total,
        "anchor_density": density,
        "depth_histogram": {str(k): v for k, v in sorted(depth_hist.items())},
    }
    _write(run_dir, "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"annotated {len(records)} records -> {run_dir}")
    return EXIT_OK


def cmd_corrupt(resolved: dict, inputs: Inputs, run_dir: Path) -> int:
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
            )
        )
    _write(run_dir, "corrupted.jsonl", "\n".join(lines) + "\n")
    print(f"corrupted {corpus.n} records at t={t} -> {run_dir}")
    return EXIT_OK


def _one_sample(task):
    predictors, cfg, schedule, length, seed, index = task
    rng = np.random.default_rng([seed, index])
    out, trace = generate([], length, predictors, cfg, schedule, rng)
    return index, out, trace


def cmd_sample(resolved: dict, inputs: Inputs, run_dir: Path) -> int:
    corpus = inputs.corpus
    sampler_cfg = inputs.samplers[0]
    predictors = build_strategy_predictors(
        corpus, sampler_cfg.strategy.strategy, resolved["predictor"]
    )
    if resolved["predictor"] == "backoff":
        _write(run_dir, "counts.json", predictors.predictor.to_json() + "\n")
    n = resolved["n_samples"]
    tasks = [
        (predictors, sampler_cfg, inputs.schedules[0], corpus.length, resolved["seed"], j)
        for j in range(n)
    ]
    if resolved["workers"] > 1:
        with ProcessPoolExecutor(max_workers=resolved["workers"]) as pool:
            results = sorted(pool.map(_one_sample, tasks), key=lambda r: r[0])
    else:
        results = [_one_sample(t) for t in tasks]
    (run_dir / "samples").mkdir(exist_ok=True)
    (run_dir / "traces").mkdir(exist_ok=True)
    texts = []
    for index, out, trace in results:
        text = render_ids(out, corpus.vocab)
        texts.append(text)
        _write(run_dir, f"samples/{index:04d}.txt", text)
        _write(run_dir, f"traces/{index:04d}.jsonl", trace.to_jsonl())
    report = validity_eval(texts)
    _write(
        run_dir,
        "validity.json",
        json.dumps(
            {"fraction": report.fraction, "verdicts": report.verdicts},
            sort_keys=True,
        )
        + "\n",
    )
    print(f"sampled {n} programs (validity {report.fraction}) -> {run_dir}")
    return EXIT_OK


def cmd_probe(resolved: dict, inputs: Inputs, run_dir: Path) -> int:
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
    _write(run_dir, "probe.csv", run.to_csv())
    _write(
        run_dir,
        "probe_summary.json",
        json.dumps(
            {
                "k": run.k,
                "achievable_k": run.achievable_k,
                "n_probes": run.n_probes,
                "skipped": run.n_skipped,
            },
            sort_keys=True,
        )
        + "\n",
    )
    print(f"probe k={run.k} over t={inputs.t_values} -> {run_dir}")
    return EXIT_OK


def cmd_eval(resolved: dict, inputs: Inputs, run_dir: Path) -> int:
    t_grid = [s.T for s in inputs.schedules]
    strategies = [c.strategy.strategy.value for c in inputs.samplers]
    rows = compare_strategies(
        inputs.sources,
        inputs.samplers,
        t_grid,
        resolved["n_samples"],
        inputs.schedules[0].kind,
        resolved["seed"],
        length=resolved["length"],
        predictor_kind=resolved["predictor"],
    )
    _write(run_dir, "eval.csv", eval_rows_to_csv(rows))
    for metric in ("syntax_fraction", "mean_unmask_depth_corr", "nelbo"):
        lines = ["strategy," + ",".join(f"T{t}" for t in t_grid)]
        for name in strategies:
            vals = [
                next(getattr(r, metric) for r in rows if r.strategy == name and r.T == t)
                for t in t_grid
            ]
            lines.append(name + "," + ",".join(repr(v) for v in vals))
        _write(run_dir, f"metric_{metric}.csv", "\n".join(lines) + "\n")
    print(f"eval {strategies} x T{t_grid} -> {run_dir}")
    return EXIT_OK


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
        resolved = resolve_config(args, parser)
        inputs = load_inputs(resolved)
    except (ValueError, *INPUT_ERRORS) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        run_dir = make_run_dir(resolved)
        write_manifest(run_dir, resolved, inputs.anchor)
        return COMMANDS[args.command](resolved, inputs, run_dir)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InsufficientDepth as exc:
        print(f"infeasible experiment: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DiffusionError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
