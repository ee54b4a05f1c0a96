"""Span tracing for the benchmark's traced run, from the benchmark's own files.

:func:`install` wraps each layer's entry point where its caller looks it
up — a module global, a class attribute, or an attribute of the store
instance the service holds — so the program under test is never edited.
Each wrapper records a :class:`Span` (name, start, end, parent, thread,
batch, request). Spans stay in memory; :func:`uninstall` restores every
original before the process reports.

A span's parent is the innermost open span of its thread, except where a
batch hands work to other threads: the executor backends' ``map_parts``
register each part under its first task's seed tag, and ``run_part`` —
in a pool thread or a fabric worker thread — picks its parent and batch
up from there. Self time is a span's duration minus the part of it that
its children (in any thread) cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    batch: Optional[int] = None
    request: Optional[str] = None


@dataclass
class BatchInfo:
    """One ``submit_batch`` call as the server ran it."""

    start: float
    end: float
    requests: List[Optional[str]]
    n_compiled: int
    n_coalesced: int


@dataclass
class Tracer:
    """Span and count store shared by every wrapper of one traced run."""

    clock: Callable[[], float] = time.perf_counter
    #: span name -> seconds slept inside that span (attribution self-check)
    delays: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    batches: Dict[int, BatchInfo] = field(default_factory=dict)
    #: request id -> clock reading when its line reached the server
    line_start: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._handoff: Dict[str, Tuple[int, Optional[int]]] = {}
        self._circuit_request: Dict[int, str] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self.last_line = 0.0

    # ------------------------------------------------------------- spans
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self,
        name: str,
        parent: Optional[int] = None,
        batch: Optional[int] = None,
        request: Optional[str] = None,
    ) -> Span:
        stack = self._stack()
        top = stack[-1] if stack else None
        if top is not None:
            parent = top.sid if parent is None else parent
            batch = top.batch if batch is None else batch
            request = top.request if request is None else request
        span = Span(
            sid=next(self._ids),
            name=name,
            start=self.clock(),
            parent=parent,
            thread=threading.get_ident(),
            batch=batch,
            request=request,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        delay = self.delays.get(span.name)
        if delay:
            time.sleep(delay)
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------ patching
    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(args, result)`` runs once the span is closed and records
        the counts this boundary carries.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_ABSENT = object()


# ------------------------------------------------------------------ install
def install(tracer: Tracer, service) -> None:
    """Wrap every layer entry point the benchmark measures (see module doc).

    ``service`` is the running :class:`CompileService`; its store instance
    gets its ``snapshot``/``get_many``/``put``/``flush`` wrapped in place.
    """
    from repro.circuits.circuit import Circuit
    from repro.core import engines, pipeline
    from repro.latency.gate_latency import GateLatencyTable
    from repro.mapping import swaps
    from repro.mapping.astar import AStarMapper
    from repro.qoc import binary_search, grape
    from repro.service import asyncserve, executor, planner, protocol, remote
    from repro.service import service as service_mod

    t = tracer
    count = tracer.count

    # --------------------------------------------------- server intake
    original_line = asyncserve.AsyncCompileServer.handle_line

    @functools.wraps(original_line)
    async def handle_line(self, line, client):
        # The compile path of handle_line does not await before the
        # request's circuit is built, so this reading belongs to it.
        t.last_line = t.clock()
        return await original_line(self, line, client)

    t.patch(asyncserve.AsyncCompileServer, "handle_line", handle_line)

    original_request_circuit = asyncserve.request_circuit

    def request_circuit(request):
        t.line_start[request.id] = t.last_line
        span = t.open("circuits.request", request=request.id)
        try:
            circuit = original_request_circuit(request)
        finally:
            t.close(span)
        t._circuit_request[id(circuit)] = request.id
        return circuit

    t.patch(asyncserve, "request_circuit", request_circuit)
    t.wrap(protocol, "parse_qasm", "circuits.parse_qasm")
    t.wrap(protocol, "resolve_program", "circuits.build")

    # ----------------------------------------------------------- batch
    original_submit = service_mod.CompileService.submit_batch

    @functools.wraps(original_submit)
    def submit_batch(self, circuits):
        batch = next(t._batch_ids)
        requests = [t._circuit_request.pop(id(c), None) for c in circuits]
        span = t.open("service.asyncserve.batch", batch=batch)
        try:
            report = original_submit(self, circuits)
        finally:
            t.close(span)
        t.batches[batch] = BatchInfo(
            start=span.start,
            end=span.end,
            requests=requests,
            n_compiled=report.n_compiled,
            n_coalesced=report.n_coalesced,
        )
        return report

    t.patch(service_mod.CompileService, "submit_batch", submit_batch)

    # ------------------------------------------------------- front end
    original_front_end = pipeline.AccQOC.front_end

    @functools.wraps(original_front_end)
    def front_end(self, circuit):
        t._local.mapped = False  # set by map_circuit in this thread
        span = t.open("pipeline.front_end")
        try:
            result = original_front_end(self, circuit)
        finally:
            t.close(span)
        count("pipeline.front_end_calls")
        if not t._local.mapped:
            count("pipeline.front_end_hits")
        return result

    t.patch(pipeline.AccQOC, "front_end", front_end)
    t.wrap(Circuit, "decompose_to_native", "circuits.decompose")

    def mapped(args, result):
        t._local.mapped = True
        count("mapping.swaps", result.n_swaps)

    t.wrap(AStarMapper, "map_circuit", "mapping.astar", mapped)
    t.wrap(swaps, "decompose_swaps", "mapping.gate_based")
    t.wrap(swaps, "fix_directions", "mapping.gate_based")
    t.wrap(pipeline, "prepare_circuit", "grouping.group")
    t.wrap(
        pipeline, "group_circuit", "grouping.group",
        lambda args, groups: count("grouping.groups", len(groups)),
    )

    def deduped(args, batch):
        count("grouping.dedup_groups", sum(len(g) for g in args[0]))
        count("grouping.dedup_unique", batch.merged.n_unique)

    t.wrap(planner, "dedupe_batch", "grouping.dedup", deduped)

    # ------------------------------------------------------------ core
    t.wrap(
        planner, "build_similarity_graph", "core.simgraph",
        lambda args, graph: (
            count("core.simgraph_calls"),
            count("core.simgraph_vertices", len(args[0])),
        ),
    )
    t.wrap(planner, "prim_compile_sequence", "core.prim")
    t.wrap(planner, "modelled_node_weights", "core.partition")
    t.wrap(
        planner, "partition_tree", "core.partition",
        lambda args, partition: count("core.parts", len(partition.parts)),
    )
    t.wrap(executor, "best_library_seeds", "core.seed")

    def solved(args, record):
        count("core.solves")
        count("core.warm_started", int(bool(record.warm_started)))

    t.wrap(executor, "compile_with_engine", "core.solve", solved)
    t.wrap(service_mod, "compile_with_engine", "core.solve", solved)

    # ------------------------------------------------------------- qoc
    def searched(args, search):
        count("qoc.searches")
        count("qoc.probes", len(search.probes))
        count("qoc.converged", int(bool(search.best.converged)))

    t.wrap(engines, "binary_search_latency", "qoc.binary_search", searched)
    t.wrap(
        binary_search, "run_grape", "qoc.grape",
        lambda args, result: count("qoc.grape_iterations", result.iterations),
    )
    t.wrap(
        grape, "infidelity_and_gradient", "qoc.grape_eval",
        lambda args, result: count("qoc.grape_evals"),
    )

    # --------------------------------------------------------- latency
    t.wrap(pipeline, "overall_latency", "latency.schedule")
    t.wrap(GateLatencyTable, "circuit_latency", "latency.gate_based")

    # ---------------------------------------------------------- store
    store = service.store
    t.wrap(store, "snapshot", "service.store.snapshot")
    t.wrap(
        store, "get_many", "service.store.get_many",
        lambda args, entries: count("service.store.get_many_keys", len(entries)),
    )
    t.wrap(
        store, "put", "service.store.put",
        lambda args, result: count("service.store.puts"),
    )
    t.wrap(store, "flush", "service.store.flush")

    # ------------------------------------------- planner and executor
    t.wrap(planner.CompilePlanner, "plan", "service.planner.plan")
    t.wrap(
        executor.WorkerPoolExecutor, "run_indices", "service.executor.execute"
    )
    _wrap_handoff(t, executor.ThreadBackend, "service.executor.map_parts")
    _wrap_handoff(t, remote.RemoteExecutor, "service.fabric.map_parts")
    _wrap_run_part(t, executor)
    _wrap_run_part(t, remote)


def _part_key(tasks: Sequence) -> Optional[str]:
    """A part's identity across threads and the fabric's pickling: its
    first task's seed tag (unique while the key is claimed by the batch)."""
    return tasks[0].seed_tag if tasks else None


def _wrap_handoff(t: Tracer, backend_cls, name: str) -> None:
    original = backend_cls.map_parts

    @functools.wraps(original)
    def map_parts(self, engine, parts, *args, **kwargs):
        span = t.open(name)
        for _, tasks in parts:
            key = _part_key(tasks)
            if key is not None:
                t._handoff[key] = (span.sid, span.batch)
        try:
            return original(self, engine, parts, *args, **kwargs)
        finally:
            t.close(span)

    t.patch(backend_cls, "map_parts", map_parts)


def _wrap_run_part(t: Tracer, module) -> None:
    original = module.run_part

    @functools.wraps(original)
    def run_part(engine, worker, tasks, *args, **kwargs):
        parent, batch = t._handoff.pop(_part_key(tasks), (None, None))
        span = t.open("service.executor.run_part", parent=parent, batch=batch)
        try:
            return original(engine, worker, tasks, *args, **kwargs)
        finally:
            t.close(span)

    t.patch(module, "run_part", run_part)


# ----------------------------------------------------------------- analysis
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span; children may run in other threads)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = (span.end - span.start) - covered
    return out


def wall_attribution(spans: Sequence[Span]) -> Dict[str, float]:
    """Split wall time among the innermost active spans, by span name.

    At each instant every active span with no active child gets an equal
    share, so concurrent parts in two threads each get half of the
    interval they overlap and the names' totals add up to the wall time
    the spans cover. Pass the spans of one batch.
    """
    if not spans:
        return {}
    events = []
    for span in spans:
        events.append((span.start, 1, span.sid))
        events.append((span.end, 0, span.sid))
    events.sort()
    by_id = {span.sid: span for span in spans}
    active: Dict[int, int] = {}  # sid -> number of active children
    out: Dict[str, float] = {}
    last = events[0][0]
    for when, opening, sid in events:
        if when > last and active:
            leaves = [s for s, n in active.items() if n == 0]
            share = (when - last) / len(leaves)
            for leaf in leaves:
                name = by_id[leaf].name
                out[name] = out.get(name, 0.0) + share
        last = max(last, when)
        parent = by_id[sid].parent
        if opening:
            active[sid] = 0
            if parent in active:
                active[parent] += 1
        else:
            active.pop(sid, None)
            if parent in active:
                active[parent] -= 1
    return out
