"""The benchmark's output digests at seed 1 are pinned: each workload's
first ``work_calls`` calls, made and checked through
``perfbench/workloads.py`` and digested as ``perfbench/run.py``'s ledger
digests them, must give the recorded SHA-256. A change that moves a bit of
a sample, a loss estimate or a probe fails here, not only in a benchmark
run. The workloads file is read, never written."""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# run_path compiles the file without writing bytecode next to it.
BENCH = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")["WORKLOADS"]

PINS = {
    "sample-exact-2000": "bae8220f2360ee2a821d948e1901546ca31e0e2bd480064b84f53f1825ab71c7",
    "nelbo-backoff-200": "4087246a758ab8244385deea37ae3e17e9fdb93365dafb615fcb0f6b70b18fa5",
    "probe-exact-2000": "a30cb500436af901bcf348550a0f3fb0d09e181efcdff09b6a6d931fe2523732",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_digest_is_pinned(name):
    wl = BENCH[name]
    state = wl.setup(1)
    digest = hashlib.sha256()
    for c in range(wl.work_calls):
        _, blob = wl.check(state, c, wl.call(state, c))
        digest.update(blob)
    assert digest.hexdigest() == PINS[name]
