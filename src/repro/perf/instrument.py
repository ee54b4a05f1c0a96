"""Lightweight wall-clock timers and counters for the compilation pipeline.

A ``PerfRecorder`` is a cheap, dependency-free accumulator: stages are
named context managers around the pipeline's hot sections, counters track
discrete work units (optimizer iterations, groups compiled). Recorders are
snapshot into immutable :class:`~repro.perf.report.PerfReport` objects that
``CompiledProgram`` carries, so every compilation exposes where its wall
time went.

Stage names are dotted paths (``dynamic.simgraph``); nesting is by
convention, not enforced, which keeps the per-call overhead to two clock
reads and a locked dict update.

A recorder is also the only copy of the service's counters (store hits,
steals, quorum acks, ...): every ``stats`` surface is a read of it. Stores
and schedulers share one recorder across concurrent batch threads, so
every mutation and every snapshot holds the recorder's lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict

from repro.perf.report import PerfReport, StageStat


class PerfRecorder:
    """Accumulates named stage timings and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.stages: Dict[str, StageStat] = {}
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    @contextmanager
    def stage(self, name: str):
        """Time a block of work under ``name`` (additive across calls)."""
        start = self._clock()
        try:
            yield self
        finally:
            self.record(name, self._clock() - start)

    def record(self, name: str, seconds: float) -> None:
        """Add one timed call to a stage."""
        with self._lock:
            stat = self.stages.get(name)
            if stat is None:
                stat = self.stages[name] = StageStat(name=name)
            stat.calls += 1
            stat.total_s += float(seconds)

    def record_since(self, name: str, start: float) -> None:
        """Close an open-ended interval: ``start`` is an earlier reading of
        this recorder's clock. For waits that span tasks or threads (a
        request sitting in the serve queue, a part waiting for a pool
        slot), where no single ``with stage(...)`` block encloses the
        interval."""
        self.record(name, self._clock() - start)

    def now(self) -> float:
        """A clock reading to later pass to :meth:`record_since`."""
        return self._clock()

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def merge_report(self, report: PerfReport, prefix: str = "") -> None:
        """Fold a finished :class:`PerfReport` into this recorder.

        Stage totals and call counts add; counters add. ``prefix`` namespaces
        the incoming names (``worker0.`` + ``solve`` -> ``worker0.solve``) —
        this is how per-worker recorders from the service's process pool are
        folded back into the batch-level recorder.
        """
        with self._lock:
            for stat in report.stages:
                name = prefix + stat.name
                mine = self.stages.get(name)
                if mine is None:
                    mine = self.stages[name] = StageStat(name=name)
                mine.calls += stat.calls
                mine.total_s += stat.total_s
            for name, value in report.counters.items():
                name = prefix + name
                self.counters[name] = self.counters.get(name, 0) + int(value)

    def report(self, label: str = "") -> PerfReport:
        """Immutable snapshot of everything recorded so far."""
        with self._lock:
            return PerfReport(
                label=label,
                stages=[
                    StageStat(name=s.name, calls=s.calls, total_s=s.total_s)
                    for s in self.stages.values()
                ],
                counters=dict(self.counters),
            )


def recorder_or_null(perf: "PerfRecorder | None") -> PerfRecorder:
    """Hand back ``perf`` or a fresh throwaway recorder.

    Lets instrumented code call ``perf.stage(...)`` unconditionally; when no
    recorder was supplied the caller gets its own private recorder, so
    un-instrumented instances never share (or leak) accumulated state.
    """
    return perf if perf is not None else PerfRecorder()
