"""Span tracer that wraps the public functions of each anchordiff layer.

Nothing under ``src/`` is changed: while a ``Tracer`` is installed, the
layer functions listed in ``layers.TARGETS`` are replaced, in every
``anchordiff`` module that binds them, by wrappers that record a span
(name, parent, start, end) around each call. ``uninstall`` puts the
originals back, so an untraced run executes the library unmodified.

Aggregates (calls, total time, self time) are kept for every span; the
times reported are corrected by the measured cost of the wrapper itself.
The span log is kept in memory up to ``max_logged`` spans and written out
when the run ends; hot leaf functions such as
``hierarchy.max_chain_length`` can exceed the cap, and the dropped count
is reported.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter_ns
# calibrate() times this many no-op spans, this many times, and keeps the best
CALIBRATION_SPANS = 20_000
CALIBRATION_REPEATS = 5


def _entry() -> list[int]:
    # calls, total ns, self ns, child spans, descendant spans
    return [0, 0, 0, 0, 0]


class Tracer:
    def __init__(self, max_logged: int = 400_000):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []
        self.phases: list[str] = []
        self._agg: dict[str, dict[int, list[int]]] = {}
        self.set_phase("setup")
        self.active = False
        self.max_logged = max_logged
        # flattened (name, parent span, phase, start_ns, end_ns) records
        self.log = array("q")
        self.n_spans = 0
        # open spans, innermost last: [index, child ns, children, descendants]
        self._stack: list[list[int]] = []
        self.counters: dict[str, float] = defaultdict(int)
        # wrapper cost per span inside and outside its own interval
        self.cost_inside_ns = 0.0
        self.cost_outside_ns = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def set_phase(self, phase: str) -> None:
        if phase not in self._agg:
            self.phases.append(phase)
            self._agg[phase] = defaultdict(_entry)
        self.phase = self.phases.index(phase)
        self._current = self._agg[phase]

    def is_open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._open[nid] > 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. around the benchmark's own output checks."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- spans ------------------------------------------------------------------

    def _timed(self, nid: int, fn, args, kwargs):
        stack = self._stack
        index = self.n_spans
        self.n_spans = index + 1
        parent = stack[-1][0] if stack else -1
        frame = [index, 0, 0, 0]
        stack.append(frame)
        self._open[nid] += 1
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self._open[nid] -= 1
            dur = end - start
            entry = self._current[nid]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[1]
            entry[3] += frame[2]
            entry[4] += frame[3]
            if stack:
                up = stack[-1]
                up[1] += dur
                up[2] += 1
                up[3] += 1 + frame[3]
            if index < self.max_logged:
                self.log.extend((nid, parent, self.phase, start, end))

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of the benchmark's own, such as
        one set-up, one workload call or the CLI run."""
        if not self.active:
            return fn(*args)
        return self._timed(self.name_id(name), fn, args, {})

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper recording one span per outermost call of ``name``; calls
        nested inside an open span of the same name are not split out."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or self._open[nid]:
                return fn(*args, **kwargs)
            result = self._timed(nid, fn, args, kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def calibrate(self) -> None:
        """Measure what one span costs: the part inside its own interval
        (which inflates its time) and the part outside (which inflates its
        parent's self time). ``totals`` subtracts both."""
        n, repeats = CALIBRATION_SPANS, CALIBRATION_REPEATS
        probe = Tracer(max_logged=n * repeats)

        def noop():
            return None

        traced = probe.wrap("noop", noop)
        probe.active = True
        best_inside = best_outside = float("inf")
        for r in range(repeats):
            probe.set_phase(f"round{r}")
            start = _clock()
            for _ in range(n):
                noop()
            raw = (_clock() - start) / n
            start = _clock()
            for _ in range(n):
                traced()
            wrapped = (_clock() - start) / n
            inside = probe._current[0][1] / n - raw
            best_inside = min(best_inside, max(inside, 0.0))
            best_outside = min(best_outside, max(wrapped - raw - inside, 0.0))
        self.cost_inside_ns = best_inside
        self.cost_outside_ns = best_outside

    # -- installing wrappers ------------------------------------------------------

    def install(self, targets) -> None:
        for name, module, attr, on_result in targets:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__, on_result))
                else:
                    patched = self.wrap(name, original, on_result)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            patched = self.wrap(name, original, on_result)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("anchordiff") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, patched)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of ``name`` over all phases,
        less the calibrated wrapper cost of the spans nested inside."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        inside, outside = self.cost_inside_ns, self.cost_outside_ns
        calls = total = own = 0.0
        for spans in self._agg.values():
            if nid in spans:
                c, t, s, children, descendants = spans[nid]
                calls += c
                total += t - c * inside - descendants * (inside + outside)
                own += s - c * inside - children * outside
        return int(calls), max(total, 0.0) / 1e9, max(own, 0.0) / 1e9

    def by_phase(self) -> dict[str, dict[str, list[float]]]:
        """Phase -> span name -> [calls, total s, self s], uncorrected."""
        return {
            phase: {
                self.names[nid]: [e[0], round(e[1] / 1e9, 6), round(e[2] / 1e9, 6)]
                for nid, e in sorted(spans.items())
            }
            for phase, spans in self._agg.items()
        }

    def write_spans(self, path) -> None:
        fields = 5
        payload = {
            "fields": ["name", "parent", "phase", "start_ns", "end_ns"],
            "names": self.names,
            "phases": self.phases,
            "spans": [
                list(self.log[i : i + fields]) for i in range(0, len(self.log), fields)
            ],
            "recorded": self.n_spans,
            "dropped": max(0, self.n_spans - self.max_logged),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
