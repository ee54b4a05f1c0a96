"""Latency binary search (paper Sec IV-D).

"The latency of a certain group is determined by a binary search. Short
latency leads to more iterations ... and does not guarantee convergence,
while long latency loses the advantages of quantum optimal control."

We search over the integer number of dt slices: the upper bracket starts at
an estimate guaranteed (or repeatedly doubled until observed) to converge;
the search returns the shortest converged probe and its pulse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.qoc.grape import GrapeResult, run_grape
from repro.qoc.hamiltonian import ControlModel
from repro.qoc.pulse import Pulse
from repro.utils.config import RunConfig


@dataclass
class BinarySearchResult:
    """Shortest converged solve plus the full probe history."""

    best: GrapeResult
    probes: List[GrapeResult] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.best.duration

    @property
    def total_iterations(self) -> int:
        """Compile cost of the whole search (paper's cost metric)."""
        return sum(p.iterations for p in self.probes)


def binary_search_latency(
    target: np.ndarray,
    model: ControlModel,
    config: RunConfig = RunConfig(),
    hi_steps: int = 64,
    lo_steps: int = 1,
    initial_pulse: Optional[Pulse] = None,
    rng: Optional[np.random.Generator] = None,
    max_doublings: int = 6,
) -> BinarySearchResult:
    """Find the minimal converging latency for ``target``.

    ``initial_pulse`` warm-starts *every* probe (resampled to the probe's
    step count) — this is how MST-accelerated dynamic compilation plugs in.
    """
    state = _SearchState(
        hi_steps, lo_steps, max_doublings, config.binary_search_max_probes
    )
    while not state.done:
        state.absorb(
            run_grape(
                target, model, state.next_steps(), config,
                initial_pulse=initial_pulse, rng=rng,
            )
        )
    return state.result()


class _SearchState:
    """One latency binary search, stepped probe by probe.

    Doubling bracket from ``hi_steps`` until a probe converges (giving up
    with the least-bad probe after ``max_doublings`` doublings), then
    bisection over ``[lo_steps, best]`` bounded by the probe budget. As a
    state machine, one search runs as a loop (:func:`binary_search_latency`)
    and K searches advance in lockstep rounds
    (:func:`~repro.qoc.grape_batched.binary_search_latency_batched`).
    """

    def __init__(
        self,
        hi_steps: int,
        lo_steps: int,
        max_doublings: int,
        max_probes: int,
    ) -> None:
        self.probes: List[GrapeResult] = []
        self.best: Optional[GrapeResult] = None
        self.lo = lo_steps
        self.hi = max(hi_steps, lo_steps, 1)
        self.doublings_left = max_doublings
        self.max_probes = max_probes
        self.bisecting = False
        self.done = False

    def next_steps(self) -> int:
        if self.bisecting:
            return (self.lo + self.hi) // 2
        return self.hi

    def absorb(self, result: GrapeResult) -> None:
        self.probes.append(result)
        if not self.bisecting:
            if result.converged:
                self.best = result
                self.hi = result.n_steps
                self.bisecting = True
                self._check_bisect_done()
            elif self.doublings_left == 0:
                # Give the caller the least-bad pulse; flagged as not converged.
                self.best = min(self.probes, key=lambda p: p.infidelity)
                self.done = True
            else:
                self.doublings_left -= 1
                self.hi *= 2
        else:
            mid = (self.lo + self.hi) // 2  # the probe that just ran
            if result.converged:
                self.best = result
                self.hi = mid
            else:
                self.lo = mid + 1
            self._check_bisect_done()

    def _check_bisect_done(self) -> None:
        if not (self.lo < self.hi and len(self.probes) < self.max_probes):
            self.done = True

    def result(self) -> BinarySearchResult:
        return BinarySearchResult(best=self.best, probes=self.probes)
