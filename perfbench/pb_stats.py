"""Summary statistics of the compile-service benchmark.

Kept free of any import from the program under test: the benchmark's
definition of a percentile or a mean must not move when the code it
measures changes.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Hashable, List, Sequence, Tuple

#: Candidate tail percentiles, lowest first. The reported tail is the
#: highest of these that still has at least ``TAIL_MIN_BEYOND`` samples
#: above it, so a short run never reports a "p99" made of one sample.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie above the ``q`` percentile."""
    return n - 1 - math.floor((q / 100.0) * (n - 1))


def tail_percentile(n: int) -> Tuple[float, int]:
    """(percentile, samples beyond it) for the reported tail of ``n`` samples.

    The highest ladder percentile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it; below that many samples the median is the only honest
    choice, reported with its (short) count.
    """
    if n < 1:
        raise ValueError("no samples")
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen, samples_beyond(n, chosen)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (ratios average this way)."""
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def census(answers: Sequence[Tuple[Hashable, Hashable]]) -> List[int]:
    """Indices of answers that disagree with their program's majority.

    ``answers`` holds one ``(program, outcome)`` pair per answer. Every
    answer for one program must carry the same outcome; the most common
    outcome of a program is taken as its value and every other answer of
    that program is returned (ties go to the outcome seen first).
    """
    by_program: Dict[Hashable, Counter] = {}
    for program, outcome in answers:
        by_program.setdefault(program, Counter())[outcome] += 1
    majority = {
        program: counts.most_common(1)[0][0]
        for program, counts in by_program.items()
    }
    return [
        index
        for index, (program, outcome) in enumerate(answers)
        if outcome != majority[program]
    ]
