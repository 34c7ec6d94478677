#!/usr/bin/env python3
"""Does the speed correction change the before/after ratio of a change?

    python3 perfbench/correction_check.py --rounds 100

Two pairs of units stand for the two kinds of change the benchmark has to
judge, each "before" and "after" doing the same job in a different way:

* per-row -> batched moves vocabulary-row numpy work from many small calls
  to whole-array calls, as batched Monte Carlo would (kernel
  ``small_arrays``);
* scan -> scan+cache adds an 8 MB working set next to a 1 MB n x L
  equality scan, as a per-generation posterior cache would (kernel
  ``interpreter``).

The four units run in turn, round after round, under one ``SpeedMeter``.
For each pair it prints the median after/before ratio of raw and of
corrected times, over all rounds and over the third of rounds with the
least and with the most measured slowdown. If the correction is neutral,
raw and corrected ratios agree in every row, whatever the load.
"""

import argparse
import statistics
import time

import numpy as np

from speed import SpeedMeter

rng = np.random.default_rng(0)
ROWS = rng.random((300, 41)) + 0.5
IDS = rng.integers(0, 41, size=(2000, 64))
ROW = IDS[7].copy()
CACHE = np.ones(1_000_000, dtype=np.int64)


def per_row() -> float:
    out = 0.0
    for _ in range(120):
        for row in ROWS:
            smoothed = row.copy()
            smoothed[:40] += 1.0
            smoothed /= smoothed.sum()
            out += smoothed[3]
    return out


def batched() -> float:
    out = 0.0
    for _ in range(4000):
        smoothed = ROWS.copy()
        smoothed[:, :40] += 1.0
        smoothed /= smoothed.sum(axis=1, keepdims=True)
        out += smoothed[:, 3].sum()
    return out


def scan(with_cache: bool) -> int:
    total = 0
    for i in range(1000):
        total += int(((IDS == ROW[None, :]) | (ROW[None, :] == 40)).all(axis=1).sum())
        if with_cache and i % 3 == 0:
            total += int(CACHE[::8].sum())
    return total


UNITS = {
    "per-row": (per_row, "small_arrays"),
    "batched": (batched, "small_arrays"),
    "scan": (lambda: scan(False), "interpreter"),
    "scan+cache": (lambda: scan(True), "interpreter"),
}
PAIRS = (("per-row", "batched"), ("scan", "scan+cache"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, required=True)
    rounds = parser.parse_args().rounds

    spans = []
    with SpeedMeter() as meter:
        for _ in range(rounds):
            span = {}
            for name, (work, _) in UNITS.items():
                start = time.perf_counter()
                work()
                span[name] = (start, time.perf_counter())
            spans.append(span)

    measured = []
    for span in spans:
        raw = {name: end - start for name, (start, end) in span.items()}
        corrected = {
            name: meter.corrected(start, end, UNITS[name][1])
            for name, (start, end) in span.items()
        }
        measured.append((raw["scan"] / corrected["scan"], raw, corrected))
    measured.sort(key=lambda m: m[0])
    third = len(measured) // 3
    for label, part in (
        ("all", measured),
        ("least slowdown", measured[:third]),
        ("most slowdown", measured[-third:]),
    ):
        line = f"{label:15s} rounds {len(part):4d}  slowdown {statistics.median(m[0] for m in part):.2f}"
        for before, after in PAIRS:
            raw_ratio = statistics.median(m[1][after] / m[1][before] for m in part)
            corrected_ratio = statistics.median(m[2][after] / m[2][before] for m in part)
            line += f"  {after}/{before} raw {raw_ratio:.4f} corrected {corrected_ratio:.4f}"
        print(line)


if __name__ == "__main__":
    main()
