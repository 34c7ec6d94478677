"""The trajectory recorder's summariser, on reports built here: no test
runs the benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record", ROOT / "benchmarks" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END, PER_LAYER = record.declared_metrics(BENCHMARK)


def report(trace: int, names: list[str], seed: int = 1, scale: float = 1.0) -> dict:
    """A perfbench report of sample-exact-2000 whose metric i reads
    ``scale * (i + 1)``."""
    details = {
        "output_digest": f"out{trace}",
        "cli_digest": "cli",
        "raw": {"work_s": 2.0},
        "speed": {
            "probes": 40,
            "interpreter": {"slow_share": 0.5, "nominal_ms": 2.9},
            "small_arrays": {"slow_share": 0.25, "nominal_ms": 1.42},
        },
    }
    if trace:
        details.update(counters_digest="counters", generation_table=[{"T": 64}])
    return {
        "workload": "sample-exact-2000",
        "seed": seed,
        "seconds": 10.0,
        "trace": trace,
        "meta": {"python": "3.11.7", "numpy": "2.4.6", "src_lines": 3700},
        "metrics": {n: {"value": scale * (i + 1), "unit": "s"} for i, n in enumerate(names)},
        "failed_frac": 0.0,
        "details": details,
    }


class TestSummarise:
    def test_row_holds_what_the_trajectory_needs(self):
        row = record.summarise(report(0, END_TO_END), report(1, PER_LAYER), BENCHMARK)
        assert list(row["metrics"]) == END_TO_END
        assert row["metrics"]["setup_s"] == 1.0
        assert list(row["per_layer"]) == PER_LAYER
        assert row["output_digest"] == "out0"
        assert row["traced_output_digest"] == "out1"
        assert (row["cli_digest"], row["counters_digest"]) == ("cli", "counters")
        assert row["slow_share"] == {"interpreter": 0.5, "small_arrays": 0.25}
        assert (row["python"], row["numpy"], row["src_lines"]) == ("3.11.7", "2.4.6", 3700)
        assert row["generation_table"] == [{"T": 64}]
        json.dumps(row)  # the row is plain JSON

    @pytest.mark.parametrize("trace", [0, 1])
    def test_missing_metric_fails_loudly(self, trace):
        names = [END_TO_END, PER_LAYER][trace]
        reports = [report(0, END_TO_END), report(1, PER_LAYER)]
        reports[trace] = report(trace, names[1:])
        with pytest.raises(record.MetricError, match=names[0].replace(".", r"\.")):
            record.summarise(*reports, BENCHMARK)

    def test_unknown_metric_fails_loudly(self):
        untraced = report(0, END_TO_END + ["bogus_s"])
        with pytest.raises(record.MetricError, match="bogus_s"):
            record.summarise(untraced, report(1, PER_LAYER), BENCHMARK)

    def test_reports_of_other_seeds_are_refused(self):
        with pytest.raises(record.MetricError, match="seeds"):
            record.summarise(report(0, END_TO_END), report(1, PER_LAYER, seed=2), BENCHMARK)

    def test_reports_swapped_are_refused(self):
        with pytest.raises(record.MetricError, match="traced"):
            record.summarise(report(1, END_TO_END), report(0, PER_LAYER), BENCHMARK)


class TestPairs:
    def test_wins_medians_and_quartiles(self):
        seeds = [601, 602, 603, 604]
        before = [report(0, END_TO_END, s, scale=1.0 + k / 10) for k, s in enumerate(seeds)]
        # The after side is lower on every metric in three of four pairs.
        after = [report(0, END_TO_END, s, scale=0.9 if k < 3 else 2.0) for k, s in enumerate(seeds)]
        pairs = record.pair_summary(before, after, BENCHMARK)
        assert pairs["seeds"] == seeds
        p50 = pairs["metrics"]["call_ms.p50"]
        index = END_TO_END.index("call_ms.p50") + 1
        assert p50["before"] == pytest.approx([index * (1.0 + k / 10) for k in range(4)])
        assert p50["after_wins"] == 3
        assert p50["median_after"] == pytest.approx(0.9 * index)
        assert p50["before_iqr"] > 0
        # Higher is better for ops_per_s, so the lower after side wins once.
        assert pairs["metrics"]["ops_per_s"]["after_wins"] == 1
        assert pairs["output_digest"] == {"before": ["out0"] * 4, "after": ["out0"] * 4}

    def test_unpaired_seeds_are_refused(self):
        with pytest.raises(record.MetricError, match="seeds"):
            record.pair_summary(
                [report(0, END_TO_END, 601)], [report(0, END_TO_END, 602)], BENCHMARK
            )


def test_stale_perfbench_notes_are_listed():
    notes = " ".join(n["where"] + " " + n["note"] for n in record.STALE_NOTES)
    assert "denoisers.exact.scan_bytes_computed" in {n["metric"] for n in record.STALE_NOTES}
    assert "nelbo-backoff-200" in notes
    assert "fixed chain scanning" in notes
