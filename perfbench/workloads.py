"""The benchmark's workloads: inputs made from the workload seed, one call,
its output checks, and the matching CLI run.

Library functions are always reached through their module (``sampler.
generate``, not a name imported into this file), so the tracer's wrappers
see the benchmark's own calls as well as the library's internal ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from anchordiff import (
    anchors,
    corpus_io,
    denoisers,
    diffusion,
    experiments,
    minilang,
    sampler,
    schedule,
)

LENGTH = 64
ANCHOR_TREE = anchors.AnchorStrategy.ANCHOR_TREE
NULL = anchors.AnchorStrategy.NULL


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class State:
    seed: int
    config: anchors.AnchorConfig
    records: list
    corpus: denoisers.Corpus
    extra: dict = field(default_factory=dict)


def build_state(seed: int, n_programs: int) -> State:
    """The front end every workload sets up: the synth corpus of the seed,
    annotated under the anchor_tree config and padded to LENGTH."""
    sources = corpus_io.synth_corpus(seed=seed, n_programs=n_programs)
    config = anchors.AnchorConfig.for_strategy(ANCHOR_TREE)
    records = [
        corpus_io.annotate_program(src, config, record_id=str(i))
        for i, src in enumerate(sources)
    ]
    vocab = corpus_io.build_vocab(sources)
    corpus = corpus_io.build_corpus(records, vocab, LENGTH)
    return State(seed, config, records, corpus)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """One named workload. Every untraced run makes at least ``work_calls``
    calls, whose outputs are digested and whose time is ``work_s``; the
    traced run makes ``trace_calls``. The first calls are compared with the
    CLI run's outputs."""

    name = ""
    n_programs = 0
    work_calls = 0
    trace_calls = 0
    op_name = ""
    # the speed.SpeedMeter kernel that slows down as a call and the CLI run do
    kernel = "interpreter"

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def call(self, state: State, c: int):
        raise NotImplementedError

    def check(self, state: State, c: int, result) -> tuple[int, bytes]:
        """Raise CheckFailed on a wrong output; return (ops, digest bytes)."""
        raise NotImplementedError

    def cli_args(self, state: State) -> list[str]:
        raise NotImplementedError

    def check_cli(self, state: State, run_dir: Path, results: list) -> bytes:
        raise NotImplementedError


# -- sample-exact-2000 ----------------------------------------------------------


class SampleExact(Workload):
    name = "sample-exact-2000"
    n_programs = 2000
    work_calls = 360
    trace_calls = 96
    op_name = "generated program"
    mix = ((ANCHOR_TREE, 64), (ANCHOR_TREE, 16), (NULL, 64))
    cli_samples = 16

    def setup(self, seed: int) -> State:
        state = build_state(seed, self.n_programs)
        state.extra["predictors"] = {
            s: experiments.build_strategy_predictors(state.corpus, s, "exact")
            for s in (ANCHOR_TREE, NULL)
        }
        state.extra["configs"] = [
            (
                sampler.SamplerConfig(
                    T=T,
                    temperature=0.8,
                    remask_rate=sampler.default_remask_rate(s),
                    strategy=anchors.AnchorConfig.for_strategy(s),
                    seed=seed,
                ),
                schedule.NoiseSchedule(schedule.ScheduleKind.COSINE, T),
            )
            for s, T in self.mix
        ]
        return state

    def call(self, state: State, c: int):
        strategy, _ = self.mix[c % 3]
        cfg, sched = state.extra["configs"][c % 3]
        rng = np.random.default_rng([state.seed, c // 3])
        return sampler.generate(
            [], LENGTH, state.extra["predictors"][strategy], cfg, sched, rng
        )

    def check(self, state: State, c: int, result) -> tuple[int, bytes]:
        out, trace = result
        corpus = state.corpus
        _expect(len(out) == LENGTH, f"call {c}: output length {len(out)}")
        _expect(not np.any(out == corpus.vocab.mask_id), f"call {c}: residual mask id")
        _expect(
            bool((corpus.ids == out[None, :]).all(axis=1).any()),
            f"call {c}: exact sample is not a corpus row",
        )
        text = experiments.render_ids(out, corpus.vocab)
        _expect(minilang.is_syntactically_valid(text), f"call {c}: sample does not parse")
        return 1, out.tobytes() + trace.to_jsonl().encode()

    def cli_args(self, state: State) -> list[str]:
        return [
            "sample", "--steps", "64", "--n-samples", str(self.cli_samples),
            "--strategy", "anchor_tree", "--predictor", "exact",
            "--temperature", "0.8", "--seed", str(state.seed),
        ]

    def check_cli(self, state: State, run_dir: Path, results: list) -> bytes:
        # CLI sample j uses rng [seed, j], as does anchor_tree T=64 call 3j.
        blob = b""
        for j in range(self.cli_samples):
            out, trace = results[3 * j]
            text = (run_dir / f"samples/{j:04d}.txt").read_text(encoding="utf-8")
            events = (run_dir / f"traces/{j:04d}.jsonl").read_text(encoding="utf-8")
            _expect(
                text == experiments.render_ids(out, state.corpus.vocab),
                f"cli sample {j} differs from library call {3 * j}",
            )
            _expect(events == trace.to_jsonl(), f"cli trace {j} differs from library call {3 * j}")
            blob += text.encode() + events.encode()
        validity = json.loads((run_dir / "validity.json").read_text(encoding="utf-8"))
        _expect(validity["fraction"] == 1.0, f"cli validity {validity['fraction']}")
        return blob


# -- nelbo-backoff-200 ----------------------------------------------------------


class NelboBackoff(Workload):
    """One call is a pair of loss estimates on one record with the same
    corruption draws: the null NELBO, then the anchored NELBO. A 50/50 mix
    of single estimates would put the median latency on the tail of one
    of two modes; a pair has one mode."""

    name = "nelbo-backoff-200"
    n_programs = 200
    work_calls = 100
    trace_calls = 12
    op_name = "Monte Carlo draw"
    kernel = "small_arrays"
    T = 16
    draws = 96
    eval_records = 6  # records whose loss `eval` averages

    def setup(self, seed: int) -> State:
        state = build_state(seed, self.n_programs)
        corpus = state.corpus
        model = denoisers.BackoffCountModel.fit(corpus)
        mask_id = corpus.vocab.mask_id
        state.extra["model"] = model
        state.extra["schedule"] = schedule.NoiseSchedule(T=self.T)
        state.extra["rows"] = [
            (
                diffusion.LatentSequence(ids=corpus.ids[i].copy(), mask_id=mask_id),
                denoisers.TwoStagePredictor(model, model, corpus.omega[i], corpus.eta[i]),
                anchors.compute_anchor_targets(corpus.ids[i], corpus.omega[i], mask_id),
                corpus.omega[i] * corpus.eta[i],
            )
            for i in range(corpus.n)
        ]
        return state

    def call(self, state: State, c: int):
        x, two_stage, targets, mu = state.extra["rows"][c % state.corpus.n]
        sched = state.extra["schedule"]
        null = diffusion.nelbo(
            x, state.extra["model"], sched, self.draws,
            np.random.default_rng([state.seed, 7, c]),
        )
        anchored = diffusion.anelbo(
            x, targets, two_stage, sched, mu, self.draws,
            np.random.default_rng([state.seed, 7, c]),
        )
        return null, anchored

    def check(self, state: State, c: int, result) -> tuple[int, bytes]:
        blob = b""
        for kind, report in zip(("null", "anchor_tree"), result):
            where = f"call {c} {kind}"
            _expect(report.n_infinite == 0, f"{where}: {report.n_infinite} infinite terms")
            _expect(
                bool(np.isfinite(report.estimate) and np.isfinite(report.stderr)),
                f"{where}: non-finite estimate {report.estimate!r}",
            )
            _expect(report.estimate >= 0.0, f"{where}: negative estimate {report.estimate!r}")
            _expect(report.n_samples == self.draws, f"{where}: {report.n_samples} draws")
            blob += f"{report.estimate!r},{report.stderr!r};".encode()
        return 2 * self.draws, blob

    def cli_args(self, state: State) -> list[str]:
        return [
            "eval", "--strategy", "null,anchor_tree", "--steps", str(self.T),
            "--predictor", "backoff", "--n-samples", "16", "--seed", str(state.seed),
        ]

    def check_cli(self, state: State, run_dir: Path, results: list) -> bytes:
        payload = (run_dir / "eval.csv").read_text(encoding="utf-8")
        lines = payload.splitlines()
        header = lines[0].split(",")
        rows = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in lines[1:]}
        # eval's null loss averages nelbo on records 0..5 with rng [seed, 7, i],
        # which are the null halves of library calls 0..5.
        total = 0.0
        for i in range(self.eval_records):
            total += results[i][0].estimate
        expected = total / self.eval_records
        _expect(
            float(rows["null"]["nelbo"]) == expected,
            f"cli null nelbo {rows['null']['nelbo']} != library {expected!r}",
        )
        _expect(
            bool(np.isfinite(float(rows["anchor_tree"]["nelbo"]))),
            "cli anchor_tree nelbo is not finite",
        )
        return payload.encode()


# -- probe-exact-2000 -----------------------------------------------------------


class ProbeExact(Workload):
    name = "probe-exact-2000"
    n_programs = 2000
    # A call costs about 0.5 s whatever n_probes is, most of it fixed chain
    # scanning. 30 calls leave ten beyond rank 20, so call_ms.p95 reads the
    # 66.7th percentile, above the median; with fewer than 22 it would be
    # the median itself.
    work_calls = 30
    trace_calls = 6
    op_name = "probe"
    t_values = (0.85, 0.95)
    k = 3
    n_probes = 16

    @staticmethod
    def probe_seed(seed: int, c: int) -> int:
        return 1_000_000 * seed + c

    def setup(self, seed: int) -> State:
        state = build_state(seed, self.n_programs)
        state.extra["denoiser"] = denoisers.ExactPosteriorDenoiser(state.corpus)
        return state

    def call(self, state: State, c: int):
        return experiments.ancestry_probe(
            state.records,
            state.corpus,
            state.extra["denoiser"],
            t_values=list(self.t_values),
            k=self.k,
            n_probes=self.n_probes,
            rng=self.probe_seed(state.seed, c),
            rule="keyword_first",
        )

    def check(self, state: State, c: int, result) -> tuple[int, bytes]:
        _expect(result.n_probes == self.n_probes, f"call {c}: {result.n_probes} probes")
        _expect(len(result.raw) == 3 * len(self.t_values), f"call {c}: {len(result.raw)} series")
        for key, mat in result.raw.items():
            _expect(mat.shape == (self.n_probes, self.k + 1), f"call {c}: {key} shape {mat.shape}")
            _expect(
                bool(np.all(np.isfinite(mat)) and np.all((mat >= 0) & (mat <= 1))),
                f"call {c}: {key} probability outside [0, 1]",
            )
        for r in result.results:
            _expect(
                bool(np.isfinite(r.mean_prob) and np.isfinite(r.stderr_prob)),
                f"call {c}: non-finite summary row",
            )
        return self.n_probes * len(self.t_values), result.to_csv().encode()

    def cli_args(self, state: State) -> list[str]:
        return [
            "probe", "--probe-k", str(self.k),
            "--probe-t", ",".join(str(t) for t in self.t_values),
            "--n-samples", str(self.n_probes), "--probe-rule", "keyword_first",
            "--seed", str(self.probe_seed(state.seed, 0)),
        ]

    def check_cli(self, state: State, run_dir: Path, results: list) -> bytes:
        payload = (run_dir / "probe.csv").read_text(encoding="utf-8")
        _expect(payload == results[0].to_csv(), "cli probe.csv differs from library call 0")
        return payload.encode()


WORKLOADS = {w.name: w for w in (SampleExact(), NelboBackoff(), ProbeExact())}


# -- ms per generation table ------------------------------------------------------

GENERATIONS_PER_CELL = 10


def generation_table(seed: int, big: State) -> list[dict]:
    """Mean ms per generation at L=64 for each (corpus size, strategy,
    predictor, T), timed untraced; ``big`` is an already built 2000-program
    state of the same seed."""
    n_gens = GENERATIONS_PER_CELL
    rows = []
    for state in (build_state(seed, 200), big):
        for kind in ("exact", "backoff"):
            for strategy in (NULL, ANCHOR_TREE):
                predictors = experiments.build_strategy_predictors(
                    state.corpus, strategy, kind
                )
                for T in (16, 64):
                    cfg = sampler.SamplerConfig(
                        T=T,
                        temperature=0.8,
                        remask_rate=sampler.default_remask_rate(strategy),
                        strategy=anchors.AnchorConfig.for_strategy(strategy),
                        seed=seed,
                    )
                    sched = schedule.NoiseSchedule(schedule.ScheduleKind.COSINE, T)
                    start = time.perf_counter()
                    for j in range(n_gens):
                        rng = np.random.default_rng([seed, 500 + j])
                        sampler.generate([], LENGTH, predictors, cfg, sched, rng)
                    elapsed = time.perf_counter() - start
                    rows.append(
                        {
                            "corpus": state.corpus.n,
                            "strategy": strategy.value,
                            "predictor": kind,
                            "T": T,
                            "ms_per_gen": 1000.0 * elapsed / n_gens,
                            "n_gens": n_gens,
                        }
                    )
    return rows
