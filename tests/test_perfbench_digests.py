"""The benchmark's digests at seed 1 are pinned: each workload's first
``work_calls`` calls, made and checked through ``perfbench/workloads.py``
and digested as ``perfbench/run.py``'s ledger digests them, and the
workload's CLI subcommand, run in process on the workload's corpus as
``run.py``'s ``run_cli`` runs it and checked against those calls, must
give the recorded SHA-256s. So must the traced run's counters digest: the
per-layer call and event counts of ``run.py --trace 1`` (queries per
generation among them), made by ``run.py``'s own ``trace``. A change
that moves a bit of a sample, a loss estimate, a probe or a CLI output, or
a count of the queries that make them, fails here, not only in a benchmark
run. The perfbench files are read, never written."""

from __future__ import annotations

import hashlib
import importlib
import runpy
import sys
from pathlib import Path

import pytest

from anchordiff import cli
from anchordiff.corpus_io import dataset_to_jsonl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
# run_path compiles the file without writing bytecode next to it.
NAMESPACE = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")
BENCH = NAMESPACE["WORKLOADS"]

PINS = {
    "sample-exact-2000": "bae8220f2360ee2a821d948e1901546ca31e0e2bd480064b84f53f1825ab71c7",
    "nelbo-backoff-200": "4087246a758ab8244385deea37ae3e17e9fdb93365dafb615fcb0f6b70b18fa5",
    "probe-exact-2000": "a30cb500436af901bcf348550a0f3fb0d09e181efcdff09b6a6d931fe2523732",
}
COUNTERS_PINS = {
    "sample-exact-2000": "56265e1a6ce87bfbd73cf553a915ca0f1de82c0266646e75cedededd30d9e3c2",
    "nelbo-backoff-200": "f051509d7e710bee1a87e91d1ef8c7f714b8fe84de7f0fe1f5e0b36297336584",
    "probe-exact-2000": "9c107809a01a67ba41909ac7af8a1bb64691e89370e8b13fafb9bbff2a2b1f6d",
}
# run.py pins these at import; the test puts back what was there.
BLAS_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# The modules of perfbench/ that run.py imports by their bare names.
PERFBENCH_MODULES = ("layers", "speed", "tracing", "workloads")
CLI_PINS = {
    "sample-exact-2000": "430d5b514321e6adaf5e451ac9c881f3176bb498bd34b9e4a1ff20899d9919e6",
    "nelbo-backoff-200": "e1b686cd5f794672deb94e4c6c6d86ac78672b105aed1f8a599bfc0fcccf03e8",
    "probe-exact-2000": "f984875dbdaecef4346d3c5a6cf369ebad15eecef0f2ca206063514d5fdabc1b",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_digest_is_pinned(name, tmp_path):
    wl = BENCH[name]
    state = wl.setup(1)
    digest = hashlib.sha256()
    results = []
    for c in range(wl.work_calls):
        result = wl.call(state, c)
        _, blob = wl.check(state, c, result)
        digest.update(blob)
        results.append(result)
    assert digest.hexdigest() == PINS[name]

    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(dataset_to_jsonl(state.records, state.config), encoding="utf-8")
    argv = wl.cli_args(state) + [
        "--corpus", str(corpus), "--out", str(tmp_path / "cli"),
        "--length", str(NAMESPACE["LENGTH"]), "--workers", "1",
    ]
    assert cli.main(argv) == 0
    blob = wl.check_cli(state, tmp_path / "cli", results)
    assert hashlib.sha256(blob).hexdigest() == CLI_PINS[name]


@pytest.fixture(scope="module")
def traced_run():
    """``perfbench/run.py``'s namespace and the ``workloads`` module it
    imports, with ``perfbench/`` on ``sys.path``, no bytecode written there
    and no spans file written by ``trace``; afterwards the path, the
    environment and ``sys.modules`` are as they were."""
    before = set(sys.modules)
    with pytest.MonkeyPatch.context() as mp:
        for var in BLAS_THREADS:
            mp.setenv(var, "1")
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(PERFBENCH))
        run = runpy.run_path(str(PERFBENCH / "run.py"), run_name="perfbench_run")
        mp.setattr(run["Tracer"], "write_spans", lambda self, path: None)
        yield run, importlib.import_module("workloads")
    for name in PERFBENCH_MODULES:
        if name not in before:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", sorted(COUNTERS_PINS))
def test_counters_digest_is_pinned(name, traced_run, tmp_path):
    # run.py's own trace(): the ledger fails if the traced outputs differ
    # from the untraced ones.
    run, workloads = traced_run
    traced = run["trace"](workloads.WORKLOADS[name], 1, tmp_path)
    ledger = traced["ledger"]
    assert ledger.failed == 0, ledger.errors
    assert traced["details"]["counters_digest"] == COUNTERS_PINS[name]
