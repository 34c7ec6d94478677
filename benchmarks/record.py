#!/usr/bin/env python3
"""Record the benchmark trajectory: one ``BENCH_<pr>.json`` per change.

Usage, from the root of a checkout:

    python3 benchmarks/record.py --pr 18
    python3 benchmarks/record.py --pr 18 --before ../parent

For each workload of ``BENCHMARK.json``, at seed 1 and for the
benchmark's ``run_seconds``, it runs ``perfbench/run.py`` once untraced
(``--trace 0``) and once traced (``--trace 1``), reads the two reports
that run.py leaves in
``.perfbench_out/<workload>.seed1.trace{0,1}.json`` and writes one row to
``BENCH_<pr>.json`` at the root of the checkout. A row holds the gated
end-to-end metrics and their raw times, the per-layer metrics, the
ms-per-generation table, the output, CLI and counters digests, the speed
meter's slow share per kernel, the failed share, and the Python and numpy
versions and ``src/`` line count of the code measured.

``--before DIR`` names a second checkout, normally the change's parent.
Each of its runs is made right before the same run of this checkout, and
its rows go under ``before``, and ten untraced pairs per workload are
added, at seeds 601 to 610, the side that runs first alternating from
pair to pair, with the number of pairs in which this checkout wins on
each gated metric.

The file also lists the perfbench notes known to be stale (``perfbench/``
is the benchmark's own code, which a change to the library leaves alone).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PAIR_SEEDS = range(601, 611)  # away from the seeds used to develop

STALE_NOTES = [
    {
        "where": "perfbench/layers.py _scan_bytes",
        "metric": "denoisers.exact.scan_bytes_computed",
        "note": "charges n x L x 8 bytes of the full corpus per match_mask call; the "
        "match state reads one column of the consistent unique rows per commit, and "
        "neither the sampler nor the anchor profile calls match_mask.",
    },
    {
        "where": "perfbench/README.md workloads table, nelbo-backoff-200 row",
        "metric": None,
        "note": "names BackoffCountModel.predict_row and apply_constraints as loss costs; "
        "the loss asks target_probs, and the traced run makes no apply_constraints call "
        "and one two_stage_predict call per scored anchored batch.",
    },
    {
        "where": "perfbench/README.md workloads table and call_ms.p95 row, "
        "perfbench/workloads.py ProbeExact",
        "metric": None,
        "note": "say a probe call is mostly fixed chain scanning over every position of "
        "every record; chain lengths are counted once per record into Corpus.chain.",
    },
    {
        "where": "perfbench/README.md workloads table, sample-exact-2000 row",
        "metric": None,
        "note": "says the time goes to ExactPosteriorDenoiser.match_mask; sampling reads "
        "the consistent set through predict_row and the anchor profile instead.",
    },
]


class MetricError(ValueError):
    """A report lacks a metric the benchmark declares, or has one it does not."""


def declared_metrics(benchmark: dict) -> tuple[list[str], list[str]]:
    """The end-to-end and per-layer metric names of a BENCHMARK.json."""
    return (
        [m["name"] for m in benchmark["end_to_end"]],
        [m["name"] for m in benchmark["per_layer"]],
    )


def _values(report: dict, names: list[str], kind: str) -> dict[str, float]:
    metrics = report["metrics"]
    missing = [n for n in names if n not in metrics]
    unknown = sorted(set(metrics) - set(names))
    if missing or unknown:
        raise MetricError(
            f"{report['workload']} {kind} report: missing {missing}, unknown {unknown}"
        )
    return {n: metrics[n]["value"] for n in names}


def summarise(untraced: dict, traced: dict, benchmark: dict) -> dict:
    """One row of BENCH_<pr>.json from the untraced and traced reports of
    one workload and seed."""
    end_to_end, per_layer = declared_metrics(benchmark)
    if untraced["trace"] != 0 or traced["trace"] != 1:
        raise MetricError("expected one untraced and one traced report")
    if (untraced["workload"], untraced["seed"]) != (traced["workload"], traced["seed"]):
        raise MetricError("the reports are of different workloads or seeds")
    details, trace_details = untraced["details"], traced["details"]
    meta = untraced["meta"]
    return {
        "workload": untraced["workload"],
        "seed": untraced["seed"],
        "seconds": untraced["seconds"],
        "metrics": _values(untraced, end_to_end, "untraced"),
        "raw": details["raw"],
        "failed_frac": untraced["failed_frac"],
        "traced_failed_frac": traced["failed_frac"],
        "output_digest": details["output_digest"],
        "cli_digest": details["cli_digest"],
        "traced_output_digest": trace_details["output_digest"],
        "counters_digest": trace_details["counters_digest"],
        "slow_share": {
            kernel: speed["slow_share"]
            for kernel, speed in sorted(details["speed"].items())
            if isinstance(speed, dict)
        },
        "per_layer": _values(traced, per_layer, "traced"),
        "generation_table": trace_details.get("generation_table", []),
        "python": meta["python"],
        "numpy": meta["numpy"],
        "src_lines": meta["src_lines"],
    }


def pair_summary(before: list[dict], after: list[dict], benchmark: dict) -> dict:
    """Alternating before/after untraced reports of one workload, paired by
    seed: each gated metric's values, the after side's wins, the medians
    and the before side's quartiles, and each run's digests."""
    end_to_end = benchmark["end_to_end"]
    if [r["seed"] for r in before] != [r["seed"] for r in after]:
        raise MetricError("pairs must share their seeds")
    names = [m["name"] for m in end_to_end]
    before_values = [_values(r, names, "untraced") for r in before]
    after_values = [_values(r, names, "untraced") for r in after]
    out = {"seeds": [r["seed"] for r in after], "metrics": {}}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [v[name] for v in before_values]
        a = [v[name] for v in after_values]
        wins = sum((x < y) if lower else (x > y) for y, x in zip(b, a))
        q1, _, q3 = statistics.quantiles(b, n=4) if len(b) > 1 else (b[0], None, b[0])
        out["metrics"][name] = {
            "before": b,
            "after": a,
            "after_wins": wins,
            "median_before": statistics.median(b),
            "median_after": statistics.median(a),
            "before_iqr": q3 - q1,
        }
    for key in ("output_digest", "cli_digest"):
        out[key] = {
            "before": [r["details"][key] for r in before],
            "after": [r["details"][key] for r in after],
        }
    out["failed_frac"] = {
        "before": max(r["failed_frac"] for r in before),
        "after": max(r["failed_frac"] for r in after),
    }
    return out


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one perfbench measurement in ``checkout`` and return its report."""
    subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    path = checkout / ".perfbench_out" / f"{workload}.seed{seed}.trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def commit_of(checkout: Path) -> str | None:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description="write BENCH_<pr>.json")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--before", type=Path, help="a checkout to measure alongside")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    sides = [("after", ROOT)]
    if args.before is not None:
        sides.insert(0, ("before", args.before.resolve()))
    bench = {
        "pr": args.pr,
        "before_commit": commit_of(args.before) if args.before is not None else None,
        "seed": SEED,
        "rows": {side: {} for side, _ in sides},
        "pairs": {},
        "stale_notes": STALE_NOTES,
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        for side, path in sides:
            untraced = run_perfbench(path, workload, SEED, seconds, 0)
            traced = run_perfbench(path, workload, SEED, seconds, 1)
            bench["rows"][side][workload] = summarise(untraced, traced, benchmark)
            print(f"{side} {workload}: {bench['rows'][side][workload]['metrics']}")
    for workload in (w["name"] for w in benchmark["workloads"]) if args.before else ():
        reports = {"before": [], "after": []}
        for i, seed in enumerate(PAIR_SEEDS):
            # The side that runs first alternates, so neither always follows the other.
            for side, path in sides if i % 2 == 0 else sides[::-1]:
                reports[side].append(run_perfbench(path, workload, seed, seconds, 0))
        bench["pairs"][workload] = pair_summary(reports["before"], reports["after"], benchmark)
        p50 = bench["pairs"][workload]["metrics"]["call_ms.p50"]
        print(f"pairs {workload}: call_ms.p50 wins {p50['after_wins']}/{len(PAIR_SEEDS)}")
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
