#!/usr/bin/env python3
"""anchordiff benchmark: one closed-loop caller per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample-exact-2000 --seed 1 --seconds 12 --trace 0

``--trace 0`` sets the workload up several times, calls the library back
to back for ``--seconds`` seconds with the matching CLI subcommand run in
process after each third, and prints the end-to-end metrics. ``--trace 1``
makes a fixed amount of work, each piece untraced and then traced, and
prints the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object; details go to ``.perfbench_out/``. See
perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# At least this many set-ups and this many seconds of them, so that a
# cheap set-up is repeated more and its median steadies.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SEGMENTS = 3  # CLI runs per untraced run, one after each third of the calls
TAIL_Q = 0.95  # the tail percentile of call_ms, lowered as tail_percentile says

END_TO_END = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_ms.p50", "ms"),
    ("call_ms.p95", "ms"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Ledger:
    """Attempted and failed calls, the first errors, and the output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def run_call(wl, state, c, ledger, tracer=None):
    """One call and its checks. Returns (result, start, end, ops, digest
    bytes), the times bracketing the call alone; a call that raises or
    fails a check counts as failed."""
    from workloads import CheckFailed

    ledger.attempted += 1
    start = time.perf_counter()
    try:
        if tracer:
            result = tracer.run("bench.call", wl.call, state, c)
        else:
            result = wl.call(state, c)
    except Exception as exc:  # a failing call is counted, not fatal
        end = time.perf_counter()
        ledger.fail(f"call {c}: {type(exc).__name__}: {exc}")
        return None, start, end, 0, f"error:{type(exc).__name__}".encode()
    end = time.perf_counter()
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            ops, blob = wl.check(state, c, result)
        except CheckFailed as exc:
            ledger.fail(str(exc))
            return result, start, end, 0, b"check-failed"
    return result, start, end, ops, blob


def run_cli(wl, state, corpus_path, run_dir, ledger, tracer=None):
    """The workload's CLI subcommand in process. Returns (start, end, exited 0)."""
    from anchordiff import cli
    from workloads import LENGTH

    argv = wl.cli_args(state) + [
        "--corpus", str(corpus_path), "--out", str(run_dir),
        "--length", str(LENGTH), "--workers", "1",
    ]
    ledger.attempted += 1
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = tracer.run("cli", cli.main, argv) if tracer else cli.main(argv)
    except (Exception, SystemExit) as exc:
        ledger.fail(f"cli {argv[0]}: {type(exc).__name__}: {exc}")
        return start, time.perf_counter(), False
    end = time.perf_counter()
    if code != 0:
        ledger.fail(f"cli {argv[0]} exited {code}: {sink.getvalue().strip()}")
        return start, end, False
    return start, end, True


def check_cli(wl, state, run_dir, results, ledger) -> bytes:
    """Compare a finished CLI run with the library calls sharing its inputs.
    Returns the bytes of the CLI outputs, for the digest."""
    from workloads import CheckFailed

    try:
        return wl.check_cli(state, run_dir, results)
    except Exception as exc:  # a None result of a failed call lands here too
        ledger.fail(f"cli {run_dir.name}: {type(exc).__name__}: {exc}")
        return b""


def write_corpus(state, path: Path) -> None:
    from anchordiff import corpus_io

    path.write_text(corpus_io.dataset_to_jsonl(state.records, state.config), encoding="utf-8")


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Nearest-rank percentile TAIL_Q, lowered until at least ten samples lie
    beyond it (never below the median). Returns (value, percentile used)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(TAIL_Q * n), n - 10)
    rank = max(rank, math.ceil(0.5 * n), 1)
    return ordered[rank - 1], rank / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


# -- untraced run: end-to-end metrics ---------------------------------------------


def measure(wl, seed: int, seconds: float, tmp: Path) -> dict:
    ledger = Ledger()
    setup_units = []  # (start, end) of each timed unit
    call_units = []
    cli_units = []
    cli_dirs = []
    results = []
    work_ops = 0
    with SpeedMeter() as meter:
        setup_start = time.perf_counter()
        while (
            len(setup_units) < SETUP_REPEATS
            or time.perf_counter() - setup_start < SETUP_SECONDS
        ):
            state = None  # free the previous set-up before timing the next
            gc.collect()
            start = time.perf_counter()
            state = wl.setup(seed)
            setup_units.append((start, time.perf_counter()))
        corpus_path = tmp / "corpus.jsonl"
        write_corpus(state, corpus_path)
        gc.collect()

        # Warm-up: call 0 once untimed; the timed call 0 must repeat its output.
        warm_blob = run_call(wl, state, 0, ledger)[-1]
        # The calls and CLI runs alternate in segments, so that a slow spell
        # of the machine touches few of the CLI samples.
        loop_start = time.perf_counter()
        c = 0
        for segment in range(1, SEGMENTS + 1):
            segment_end = loop_start + seconds * segment / SEGMENTS
            while time.perf_counter() < segment_end or (
                segment == SEGMENTS and c < wl.work_calls
            ):
                result, start, end, ops, blob = run_call(wl, state, c, ledger)
                call_units.append((start, end))
                if c < wl.work_calls:
                    work_ops += ops
                    ledger.digest.update(blob)
                if c < wl.trace_calls:
                    results.append(result)
                if c == 0 and blob != warm_blob:
                    ledger.fail("call 0 did not repeat its warm-up output")
                c += 1
            gc.collect()
            run_dir = tmp / f"cli{segment}"
            start, end, ok = run_cli(wl, state, corpus_path, run_dir, ledger)
            cli_units.append((start, end))
            if ok:
                cli_dirs.append(run_dir)
        loop_s = time.perf_counter() - loop_start

    cli_blobs = {check_cli(wl, state, d, results, ledger) for d in cli_dirs}
    if len(cli_blobs) > 1:
        ledger.fail("CLI runs gave different outputs")

    def corrected(units, kernel="interpreter"):
        return [meter.corrected(start, end, kernel) for start, end in units]

    def raw(units):
        return [end - start for start, end in units]

    # The timing metrics use the first work_calls calls, the same work at
    # every run of a seed; the calls after them keep the loop going for
    # --seconds, and are checked but not timed.
    work_units = call_units[: wl.work_calls]
    latencies = corrected(work_units, wl.kernel)
    work_s = sum(latencies)
    p95, p95_at = tail_percentile(latencies)
    raw_latencies = raw(work_units)
    metrics = {
        "setup_s": statistics.median(corrected(setup_units)),
        "work_s": work_s,
        "ops_per_s": work_ops / work_s,
        "call_ms.p50": 1000.0 * nearest_rank(sorted(latencies), 0.5),
        "call_ms.p95": 1000.0 * p95,
        "cli_s": statistics.median(corrected(cli_units, wl.kernel)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "ledger": ledger,
        "details": {
            "op": wl.op_name,
            "work_ops": work_ops,
            "calls": len(call_units),
            "work_calls": wl.work_calls,
            "loop_s": loop_s,
            "call_ms_samples": len(latencies),
            "call_ms.p95_percentile": round(100 * p95_at, 2),
            "setup_s_samples": corrected(setup_units),
            "cli_s_samples": corrected(cli_units, wl.kernel),
            "raw": {
                "setup_s": statistics.median(raw(setup_units)),
                "work_s": sum(raw_latencies),
                "call_ms.p50": 1000.0 * nearest_rank(sorted(raw_latencies), 0.5),
                "call_ms.p95": 1000.0 * tail_percentile(raw_latencies)[0],
                "cli_s": statistics.median(raw(cli_units)),
            },
            "speed": meter.summary(),
            "output_digest": ledger.digest.hexdigest(),
            "cli_digest": hashlib.sha256(b"".join(sorted(cli_blobs))).hexdigest(),
        },
    }


# -- traced run: per-layer metrics --------------------------------------------------


def traced_work(wl, seed: int, tmp: Path, ledger: Ledger, tracer: Tracer):
    """Set-up, the first ``trace_calls`` calls and one CLI run, each made
    untraced and then traced right after, so that a change in the machine's
    speed lands on both sides of the overhead. Returns the untraced and
    traced wall times, the digests of both sides' outputs and the state."""
    walls = {False: 0.0, True: 0.0}
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}

    @contextlib.contextmanager
    def side(traced: bool, phase: str):
        if not traced:
            yield None
            return
        tracer.set_phase(phase)
        tracer.install(layers.TARGETS)
        try:
            yield tracer
        finally:
            tracer.uninstall()

    for traced in (False, True):
        with side(traced, "setup") as t:
            start = time.perf_counter()
            state = t.run("bench.setup", wl.setup, seed) if t else wl.setup(seed)
            walls[traced] += time.perf_counter() - start
    corpus_path = tmp / "corpus.jsonl"
    write_corpus(state, corpus_path)
    results = []
    for c in range(wl.trace_calls):
        for traced in (False, True):
            with side(traced, "work") as t:
                result, start, end, _, blob = run_call(wl, state, c, ledger, t)
            walls[traced] += end - start
            digests[traced].update(blob)
        results.append(result)
    for traced in (False, True):
        run_dir = tmp / ("cli-traced" if traced else "cli")
        with side(traced, "cli") as t:
            start, end, ok = run_cli(wl, state, corpus_path, run_dir, ledger, t)
        walls[traced] += end - start
        if ok:
            digests[traced].update(check_cli(wl, state, run_dir, results, ledger))
    return (
        walls[False], walls[True],
        digests[False].hexdigest(), digests[True].hexdigest(), state,
    )


def trace(wl, seed: int, tmp: Path) -> dict:
    from workloads import generation_table

    ledger = Ledger()
    tracer = Tracer()
    tracer.calibrate()
    untraced_s, traced_s, plain_digest, traced_digest, state = traced_work(
        wl, seed, tmp, ledger, tracer
    )
    if traced_digest != plain_digest:
        ledger.fail("traced outputs differ from untraced outputs")
    overhead = traced_s - untraced_s
    metrics = layers.per_layer_metrics(tracer, overhead, untraced_s)
    counted = {
        name: metrics[name]
        for name, unit, _ in layers.PER_LAYER
        if unit in layers.COUNTED_UNITS and not name.startswith("trace.")
    }
    counted["spans"] = {
        phase: {name: entry[0] for name, entry in spans.items()}
        for phase, spans in tracer.by_phase().items()
    }
    details = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "output_digest": plain_digest,
        "counters_digest": hashlib.sha256(
            json.dumps(counted, sort_keys=True).encode()
        ).hexdigest(),
        "span_cost_ns": [round(tracer.cost_inside_ns, 1), round(tracer.cost_outside_ns, 1)],
        "spans_recorded": tracer.n_spans,
        "spans_logged": min(tracer.n_spans, tracer.max_logged),
        "by_phase": tracer.by_phase(),
    }
    tracer.write_spans(OUT / f"{wl.name}.seed{seed}.spans.json.gz")
    if wl.name == "sample-exact-2000":
        details["generation_table"] = generation_table(seed, state)
    return {"metrics": metrics, "ledger": ledger, "details": details}


def main() -> int:
    parser = argparse.ArgumentParser(description="anchordiff benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "anchordiff" / "__init__.py").is_file():
        print(f"perfbench: no anchordiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anchordiff

    if not Path(anchordiff.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: anchordiff imported from {anchordiff.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            outcome = trace(wl, args.seed, tmp)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            outcome = measure(wl, args.seed, args.seconds, tmp)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ledger = outcome["ledger"]
    details = outcome["details"]
    meta = metadata()
    failed_frac = ledger.failed / ledger.attempted
    metrics = {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()}
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": failed_frac,
        "errors": ledger.errors,
        "details": details,
    }
    name = f"{wl.name}.seed{args.seed}.trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for key, value in details.items():
        if key not in ("by_phase", "generation_table"):
            print(f"# {key} {value}")
    for row in details.get("generation_table", []):
        print(
            "# ms_per_gen corpus={corpus} {strategy}/{predictor} T={T}: "
            "{ms_per_gen:.2f} ms over {n_gens} generations".format(**row)
        )
    for key, value in outcome["metrics"].items():
        print(f"# {key} = {value:.6g} {units[key]}")
    print(f"# failed_frac = {failed_frac} ({ledger.failed}/{ledger.attempted})")
    for error in ledger.errors:
        print(f"# error: {error}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
