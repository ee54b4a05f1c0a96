"""Accelerated dynamic compilation (paper Sec V).

Given a new program's *uncovered* groups, build the similarity graph over
them (plus the identity), extract the Prim compile sequence, and train each
group warm-started from its MST parent's freshly generated pulse. Groups
whose parent is the identity start cold — unless the pre-compiled library
holds a sufficiently similar pulse, which AccQOC also exploits ("keeping
previously generated pulses and selecting the most similar group's pulse as
the initial condition", Sec I).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PulseLibrary
from repro.core.engines import (
    CompileRecord,
    batched_buckets,
    compile_with_engine,
)
from repro.core.similarity import batched_distance_matrix, get_similarity
from repro.core.simgraph import (
    IDENTITY_VERTEX,
    CompileSequence,
    build_similarity_graph,
    prim_compile_sequence,
)
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.qoc.pulse import Pulse


def best_library_seed(
    group: GateGroup,
    library: PulseLibrary,
    similarity: str = "fidelity1",
    threshold: float = 0.5,
) -> Tuple[Optional[Pulse], Optional[GateGroup]]:
    """Most similar same-dimension library pulse below ``threshold``.

    Returns ``(pulse, source_group)`` — both ``None`` when nothing in the
    library is close enough, in which case the caller starts cold. Shared by
    the serial :class:`AcceleratedCompiler` and the batch service executor.
    """
    fn = get_similarity(similarity)
    best: Tuple[float, Optional[Pulse], Optional[GateGroup]] = (
        threshold,
        None,
        None,
    )
    matrix = group.matrix()
    for entry in library.entries():
        if entry.group.dim != group.dim or entry.pulse is None:
            continue
        weight = fn(matrix, entry.group.matrix())
        if weight < best[0]:
            best = (weight, entry.pulse, entry.group)
    return best[1], best[2]


def best_library_seeds(
    groups: Sequence[GateGroup],
    library: PulseLibrary,
    similarity: str = "fidelity1",
    threshold: float = 0.5,
) -> List[Tuple[Optional[Pulse], Optional[GateGroup]]]:
    """Batched :func:`best_library_seed` over many query groups.

    One Gram-matrix distance block per dimension class (queries x library
    entries) instead of a per-pair Python double loop — the same batching
    ``build_similarity_graph`` uses. Ties resolve to the lowest entry index,
    matching the per-pair scan's first-strict-improvement rule.
    """
    get_similarity(similarity)  # validate the name up front
    groups = list(groups)
    results: List[Tuple[Optional[Pulse], Optional[GateGroup]]] = [
        (None, None)
    ] * len(groups)
    entries = [e for e in library.entries() if e.pulse is not None]
    if not entries or not groups:
        return results
    queries_by_dim: Dict[int, List[int]] = {}
    for i, group in enumerate(groups):
        queries_by_dim.setdefault(group.dim, []).append(i)
    entries_by_dim: Dict[int, List[int]] = {}
    for j, entry in enumerate(entries):
        entries_by_dim.setdefault(entry.group.dim, []).append(j)
    for dim, query_idx in queries_by_dim.items():
        entry_idx = entries_by_dim.get(dim)
        if not entry_idx:
            continue
        query_stack = np.stack([groups[i].matrix() for i in query_idx])
        entry_stack = np.stack(
            [entries[j].group.matrix() for j in entry_idx]
        )
        block = batched_distance_matrix(similarity, query_stack, entry_stack)
        best_cols = block.argmin(axis=1)
        for row, i in enumerate(query_idx):
            weight = float(block[row, best_cols[row]])
            if weight < threshold:
                winner = entries[entry_idx[int(best_cols[row])]]
                results[i] = (winner.pulse, winner.group)
    return results


@dataclass
class DynamicCompileReport:
    """Pulses and cost of compiling the uncovered groups."""

    records: List[CompileRecord]
    groups: List[GateGroup]
    sequence: CompileSequence
    total_iterations: int
    wall_time: float

    def latency_of(self) -> Dict[bytes, float]:
        return {
            group.key(): record.latency
            for group, record in zip(self.groups, self.records)
        }


class AcceleratedCompiler:
    """MST-ordered, warm-started compilation of uncovered groups."""

    def __init__(
        self,
        engine,
        similarity: str = "fidelity1",
        use_mst: bool = True,
        library_seed_threshold: float = 0.5,
        perf: Optional[PerfRecorder] = None,
    ):
        self.engine = engine
        self.similarity = similarity
        self.use_mst = use_mst
        # A library pulse seeds an identity-rooted group when its distance is
        # below this threshold (otherwise cold start, as in the paper).
        self.library_seed_threshold = library_seed_threshold
        self.perf = recorder_or_null(perf)

    def compile_uncovered(
        self,
        uncovered: Sequence[GateGroup],
        library: Optional[PulseLibrary] = None,
    ) -> DynamicCompileReport:
        start = time.monotonic()
        groups = list(uncovered)
        if self.use_mst:
            with self.perf.stage("dynamic.simgraph"):
                graph = build_similarity_graph(groups, self.similarity)
            with self.perf.stage("dynamic.prim"):
                sequence = prim_compile_sequence(graph)
        else:
            sequence = CompileSequence(
                order=list(range(len(groups))),
                parent={i: IDENTITY_VERTEX for i in range(len(groups))},
                parent_weight={i: 1.0 for i in range(len(groups))},
                total_weight=float(len(groups)),
            )
        records: List[Optional[CompileRecord]] = [None] * len(groups)
        total_iterations = 0
        # Batched lane: identity-rooted groups have no intra-batch
        # dependency (chain-warm children do), so same-class roots can
        # share one kernel stream. Children below still warm-start from
        # these freshly batched root pulses, exactly as in the serial order.
        buckets = batched_buckets(
            self.engine,
            groups,
            sequence.order,
            {
                i for i in sequence.order
                if sequence.parent[i] != IDENTITY_VERTEX
            },
        )
        if buckets:
            self._compile_buckets(buckets, groups, library, records)
        for index in sequence.order:
            if records[index] is not None:  # solved in the batched lane
                total_iterations += records[index].iterations
                self.perf.count("dynamic.iterations", records[index].iterations)
                continue
            group = groups[index]
            parent = sequence.parent[index]
            warm_pulse: Optional[Pulse] = None
            warm_source: Optional[GateGroup] = None
            if parent != IDENTITY_VERTEX and records[parent] is not None:
                parent_record = records[parent]
                warm_pulse = parent_record.pulse
                warm_source = groups[parent]
            elif library is not None:
                with self.perf.stage("dynamic.library_seed"):
                    warm_pulse, warm_source = self._best_library_seed(
                        group, library
                    )
            with self.perf.stage("dynamic.solve"):
                record = self._compile(
                    group, warm_pulse, warm_source, f"dyn:{index}"
                )
            records[index] = record
            total_iterations += record.iterations
            self.perf.count("dynamic.iterations", record.iterations)
        self.perf.count("dynamic.groups", len(groups))
        final_records = [r for r in records if r is not None]
        return DynamicCompileReport(
            records=final_records,
            groups=groups,
            sequence=sequence,
            total_iterations=total_iterations,
            wall_time=time.monotonic() - start,
        )

    # ------------------------------------------------------------------ impl
    def _compile_buckets(
        self,
        buckets: Sequence[List[int]],
        groups: Sequence[GateGroup],
        library: Optional[PulseLibrary],
        records: List[Optional[CompileRecord]],
    ) -> None:
        """Solve each bucket in one batched stream; fill ``records``.

        The serial loop skips the groups filled here. Stage time lands
        under ``dynamic.solve.batched`` and stream occupancy under the
        ``grape.batched.*`` counters, so ``CompiledProgram.perf`` /
        ``repro perf`` show batch occupancy for one-shot compiles too.
        """
        from repro.qoc.grape_batched import BatchStats

        stats = BatchStats()
        for indices in buckets:
            warm_pulses: List[Optional[Pulse]] = [None] * len(indices)
            if library is not None:
                with self.perf.stage("dynamic.library_seed"):
                    seeds = best_library_seeds(
                        [groups[i] for i in indices],
                        library,
                        self.similarity,
                        self.library_seed_threshold,
                    )
                warm_pulses = [pulse for pulse, _ in seeds]
            with self.perf.stage("dynamic.solve.batched"):
                bucket_records = self.engine.compile_group_batch(
                    [groups[i] for i in indices],
                    warm_pulses=warm_pulses,
                    seed_tags=[f"dyn:{i}" for i in indices],
                    stats=stats,
                )
            for index, record in zip(indices, bucket_records):
                records[index] = record
        for name, value in stats.counters().items():
            self.perf.count(name, value)

    def _compile(self, group, warm_pulse, warm_source, tag) -> CompileRecord:
        return compile_with_engine(
            self.engine, group, warm_pulse, warm_source, seed_tag=tag
        )

    def _best_library_seed(
        self, group: GateGroup, library: PulseLibrary
    ) -> Tuple[Optional[Pulse], Optional[GateGroup]]:
        return best_library_seed(
            group, library, self.similarity, self.library_seed_threshold
        )
