"""Which layer functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

``schedule`` is a layer too, but each of its calls costs less than a span
would, so it is not wrapped.
"""

from __future__ import annotations


def _count_query(tracer, args, result) -> None:
    if tracer.is_open("sampler.generate"):
        tracer.count("sampler.queries")


def _scan_bytes(tracer, args, result) -> None:
    n, length = args[0].corpus.ids.shape
    tracer.count("denoisers.exact.scan_bytes_computed", n * length * 8)


def _generation(tracer, args, result) -> None:
    prompt, length = args[0], args[1]
    _, trace = result
    tracer.count("sampler.positions", length - len(prompt))
    for event in trace.events:
        tracer.count(f"sampler.{event.event}_events")


def _loss(tracer, args, result) -> None:
    tracer.count("diffusion.draws", result.n_samples)
    tracer.count("diffusion.infinite", result.n_infinite)


def _probe(tracer, args, result) -> None:
    t_values = {t for _, t in result.raw}
    tracer.count("experiments.probes", result.n_probes * len(t_values))


# (span name, module, attribute or Class.method, result hook)
TARGETS = [
    ("corpus_io.synth_corpus", "anchordiff.corpus_io", "synth_corpus", None),
    ("corpus_io.annotate_program", "anchordiff.corpus_io", "annotate_program", None),
    ("corpus_io.build_vocab", "anchordiff.corpus_io", "build_vocab", None),
    ("corpus_io.build_corpus", "anchordiff.corpus_io", "build_corpus", None),
    ("corpus_io.load_dataset", "anchordiff.corpus_io", "load_dataset", None),
    ("minilang.tokenize", "anchordiff.minilang.lexer", "tokenize", None),
    ("minilang.parse", "anchordiff.minilang.parser", "parse", None),
    ("hierarchy.assign_nodes", "anchordiff.hierarchy", "assign_nodes", None),
    ("hierarchy.max_chain_length", "anchordiff.hierarchy", "max_chain_length", None),
    ("hierarchy.ancestor_chain", "anchordiff.hierarchy", "ancestor_chain", None),
    ("anchors.compute_weights", "anchordiff.anchors", "compute_weights", None),
    ("anchors.compute_weights", "anchordiff.anchors", "compute_omega", None),
    ("anchors.compute_weights", "anchordiff.anchors", "compute_eta", None),
    ("diffusion.corrupt", "anchordiff.diffusion", "corrupt", None),
    ("diffusion.apply_constraints", "anchordiff.diffusion", "apply_constraints", None),
    ("diffusion.loss", "anchordiff.diffusion", "nelbo", _loss),
    ("diffusion.loss", "anchordiff.diffusion", "anelbo", _loss),
    ("denoisers.exact.predict_row", "anchordiff.denoisers",
     "ExactPosteriorDenoiser.predict_row", _count_query),
    ("denoisers.exact.match_mask", "anchordiff.denoisers",
     "ExactPosteriorDenoiser.match_mask", _scan_bytes),
    ("denoisers.posterior_profile", "anchordiff.denoisers",
     "PosteriorAnchorProfile.__call__", None),
    ("denoisers.backoff.predict_row", "anchordiff.denoisers",
     "BackoffCountModel.predict_row", _count_query),
    ("denoisers.backoff.fit", "anchordiff.denoisers", "BackoffCountModel.fit", None),
    ("denoisers.two_stage_predict", "anchordiff.denoisers", "two_stage_predict", None),
    ("sampler.generate", "anchordiff.sampler", "generate", _generation),
    ("experiments.ancestry_probe", "anchordiff.experiments", "ancestry_probe", _probe),
    ("experiments.validity_eval", "anchordiff.experiments", "validity_eval", None),
    ("experiments.compare_strategies", "anchordiff.experiments", "compare_strategies", None),
]

# (metric, unit, better); BENCHMARK.json lists the same names and units.
PER_LAYER = [
    ("corpus_io.annotate_program.calls", "count", "lower"),
    ("corpus_io.annotate_program.s", "s", "lower"),
    ("corpus_io.annotate_program.self_s", "s", "lower"),
    ("corpus_io.synth_corpus.s", "s", "lower"),
    ("corpus_io.build_corpus.s", "s", "lower"),
    ("minilang.tokenize.calls", "count", "lower"),
    ("minilang.tokenize.s", "s", "lower"),
    ("minilang.parse.calls", "count", "lower"),
    ("minilang.parse.s", "s", "lower"),
    ("hierarchy.assign_nodes.s", "s", "lower"),
    ("anchors.compute_weights.s", "s", "lower"),
    ("denoisers.exact.predict_row.calls", "count", "lower"),
    ("denoisers.exact.predict_row.us_per_call", "us", "lower"),
    ("denoisers.exact.match_mask.calls", "count", "lower"),
    ("denoisers.exact.scan_bytes_computed", "bytes", "lower"),
    ("denoisers.posterior_profile.calls", "count", "lower"),
    ("denoisers.posterior_profile.us_per_call", "us", "lower"),
    ("sampler.generate.calls", "count", "lower"),
    ("sampler.generate.self_s", "s", "lower"),
    ("sampler.unmask_events", "count", "lower"),
    ("sampler.remask_events", "count", "lower"),
    ("sampler.useful_unmask_ratio", "ratio", "higher"),
    ("sampler.queries_per_gen", "queries/gen", "lower"),
    ("denoisers.backoff.predict_row.calls", "count", "lower"),
    ("denoisers.backoff.predict_row.us_per_call", "us", "lower"),
    ("denoisers.backoff.fit.s", "s", "lower"),
    ("denoisers.two_stage_predict.calls", "count", "lower"),
    ("denoisers.two_stage_predict.s", "s", "lower"),
    ("diffusion.corrupt.calls", "count", "lower"),
    ("diffusion.corrupt.s", "s", "lower"),
    ("diffusion.apply_constraints.calls", "count", "lower"),
    ("diffusion.apply_constraints.s", "s", "lower"),
    ("diffusion.loss.self_s", "s", "lower"),
    ("diffusion.draws", "count", "higher"),
    ("diffusion.inf_draw_frac", "ratio", "lower"),
    ("hierarchy.max_chain_length.calls", "count", "lower"),
    ("hierarchy.max_chain_length.s", "s", "lower"),
    ("hierarchy.ancestor_chain.calls", "count", "lower"),
    ("hierarchy.ancestor_chain.s", "s", "lower"),
    ("experiments.ancestry_probe.self_s", "s", "lower"),
    ("experiments.probes", "count", "higher"),
    ("experiments.validity_eval.s", "s", "lower"),
    ("experiments.compare_strategies.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Metrics that count work; they must repeat exactly at one seed.
COUNTED_UNITS = ("count", "bytes", "ratio", "queries/gen")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead_s: float, untraced_s: float) -> dict[str, float]:
    """Every PER_LAYER value, summed over set-up, work and CLI phases."""
    values: dict[str, float] = {}
    for name in {n for n, *_ in TARGETS} | {"cli"}:
        calls, total, own = tracer.totals(name)
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = own
        values[f"{name}.us_per_call"] = 1e6 * _ratio(total, calls)
    counters = tracer.counters
    unmask = counters["sampler.unmask_events"]
    values.update(
        {
            "denoisers.exact.scan_bytes_computed": counters["denoisers.exact.scan_bytes_computed"],
            "sampler.unmask_events": unmask,
            "sampler.remask_events": counters["sampler.remask_events"],
            "sampler.useful_unmask_ratio": _ratio(counters["sampler.positions"], unmask),
            "sampler.queries_per_gen": _ratio(
                counters["sampler.queries"], values["sampler.generate.calls"]
            ),
            "diffusion.draws": counters["diffusion.draws"],
            "diffusion.inf_draw_frac": _ratio(
                counters["diffusion.infinite"], counters["diffusion.draws"]
            ),
            "experiments.probes": counters["experiments.probes"],
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": _ratio(overhead_s, untraced_s),
        }
    )
    return {name: values[name] for name, *_ in PER_LAYER}
