"""The benchmark's digests at seed 1 are pinned: each workload's first
``work_calls`` calls, made and checked through ``perfbench/workloads.py``
and digested as ``perfbench/run.py``'s ledger digests them, and the
workload's CLI subcommand, run in process on the workload's corpus as
``run.py``'s ``run_cli`` runs it and checked against those calls, must
give the recorded SHA-256s. A change that moves a bit of a sample, a loss
estimate, a probe or a CLI output fails here, not only in a benchmark run.
The workloads file is read, never written."""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

from anchordiff import cli
from anchordiff.corpus_io import dataset_to_jsonl

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# run_path compiles the file without writing bytecode next to it.
NAMESPACE = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")
BENCH = NAMESPACE["WORKLOADS"]

PINS = {
    "sample-exact-2000": "bae8220f2360ee2a821d948e1901546ca31e0e2bd480064b84f53f1825ab71c7",
    "nelbo-backoff-200": "4087246a758ab8244385deea37ae3e17e9fdb93365dafb615fcb0f6b70b18fa5",
    "probe-exact-2000": "a30cb500436af901bcf348550a0f3fb0d09e181efcdff09b6a6d931fe2523732",
}
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
