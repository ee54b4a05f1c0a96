"""The benchmark's three workloads: how each service stack is built.

Every workload serves through :class:`repro.service.loadgen.InProcessServer`,
the ``AsyncCompileServer`` that ``repro serve --async`` runs, with its
default planning window, batch cap and in-flight limit. All are closed
loops of at most two client connections, sized for a two-CPU machine.

* ``vqe-grape-cold`` — 1 client, real GRAPE built as ``repro serve
  --engine grape`` builds it (serial driver, ``RunConfig.fast()``), 2
  thread workers, an empty local store; requests are inline QASM of a
  3-qubit, 2-layer ansatz. The paper's arbitrary-angle dynamic-compilation
  case: QOC and MST seed choice carry the request, the front end and the
  store do not. One client fixes batch composition, so per-request
  iterations and pulse latencies repeat exactly for a seed.
* ``vqe-model-fabric`` — 2 clients, ``ModelEngine``, a ``remote://`` store
  served by an in-process ``StoreServer``, solves on a 2-worker fabric
  (``RemoteExecutor`` plus two ``worker_loop`` threads), empty store;
  4-qubit, 3-layer ansatz requests. Solves are nearly free, so store
  writes, snapshots, planning, fabric dispatch and the wire carry it: the
  write path.
* ``suite-warm-read`` — 2 clients, ``ModelEngine``, a local store filled
  during set-up with every group of the ``suite-mixed`` traffic mix;
  requests name programs with the mix's weights. Every group is a store
  hit: the read path (front end, dedup, pricing, ``get_many``).
"""

from __future__ import annotations

import os
import shutil
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import pb_requests


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    engine: str  # "grape" | "model"
    fabric: bool  # remote store server + worker fabric
    vqe: Optional[Tuple[int, int]]  # (qubits, layers), None = named programs
    fill: bool  # fill the store with the traffic mix during set-up


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("vqe-grape-cold", 1, "grape", False, (3, 2), False),
        Workload("vqe-model-fabric", 2, "model", True, (4, 3), False),
        Workload("suite-warm-read", 2, "model", False, None, True),
    )
}

TRAFFIC_MIX = "suite-mixed"
N_WORKERS = 2


def request_streams(workload: Workload, seed: int) -> List[Iterator[Dict]]:
    """One endless request stream per client."""
    if workload.vqe is not None:
        qubits, layers = workload.vqe
        return [
            pb_requests.vqe_requests(seed, c, qubits, layers)
            for c in range(workload.clients)
        ]
    from repro.workloads.mixes import traffic_mix

    mix = traffic_mix(TRAFFIC_MIX)
    return [
        pb_requests.named_requests(seed, c, workload.clients, mix)
        for c in range(workload.clients)
    ]


@dataclass
class Stack:
    """A running service stack; :meth:`close` stops all it started."""

    workload: Workload
    root: str
    service: object = None
    port: int = 0
    #: suite-warm-read: program name -> (overall ns, gate-based ns) from a
    #: one-shot ``AccQOC(PipelineConfig()).compile``
    reference: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    store_perf: object = None  # remote store client's PerfRecorder
    _closers: List[Callable[[], None]] = field(default_factory=list)

    def close(self) -> None:
        errors = []
        while self._closers:
            try:
                self._closers.pop()()
            except Exception as exc:  # keep tearing down the rest
                errors.append(exc)
        shutil.rmtree(self.root, ignore_errors=True)
        if errors:
            raise errors[0]


def build_stack(workload: Workload, root: str) -> Stack:
    """Start the workload's store, engine, solve backend and server."""
    from repro.core.engines import GrapeEngine
    from repro.perf.instrument import PerfRecorder
    from repro.service.loadgen import InProcessServer
    from repro.service.service import CompileService
    from repro.service.sharding import open_store
    from repro.utils.config import PipelineConfig

    os.makedirs(root, exist_ok=True)
    stack = Stack(workload=workload, root=root)
    try:
        config = PipelineConfig()
        engine = None
        if workload.engine == "grape":
            engine = GrapeEngine(config.physics, config.run.fast())
        backend = "thread"
        n_workers: Optional[int] = N_WORKERS
        store_dir = os.path.join(root, "store")
        if workload.fabric:
            from repro.service.remote import RemoteExecutor, worker_loop
            from repro.service.store import PulseStore
            from repro.service.storeserver import StoreServer

            store_server = StoreServer(PulseStore(store_dir)).start()
            stack._closers.append(store_server.stop)
            stack.store_perf = PerfRecorder()
            store = open_store(
                f"remote://{store_server.address}", perf=stack.store_perf
            )
            stack._closers.append(store.close)
            backend = RemoteExecutor()
            workers = [
                threading.Thread(
                    target=worker_loop,
                    args=(f"remote://{backend.address}",),
                    name=f"bench-worker{i}",
                    daemon=True,
                )
                for i in range(N_WORKERS)
            ]

            def stop_fabric(executor=backend, threads=workers) -> None:
                executor.close()
                for thread in threads:
                    thread.join(timeout=30)

            stack._closers.append(stop_fabric)
            for thread in workers:
                thread.start()
            n_workers = None  # as `repro serve --workers remote`
        else:
            store = open_store(store_dir)
        service = CompileService(
            store, config=config, engine=engine, backend=backend,
            n_workers=n_workers,
        )
        stack.service = service
        if workload.fill:
            _fill_and_reference(stack)
        server = InProcessServer(service)
        stack.port = server.start()
        stack._closers.append(server.stop)
    except BaseException:
        stack.close()
        raise
    return stack


def _fill_and_reference(stack: Stack) -> None:
    """Fill the store with every group of the traffic mix and price each
    program once through the one-shot pipeline, the census reference."""
    from repro.core.pipeline import AccQOC
    from repro.service.protocol import resolve_program
    from repro.utils.config import PipelineConfig
    from repro.workloads.mixes import traffic_mix

    names = [name for name, _ in traffic_mix(TRAFFIC_MIX)]
    stack.service.submit_batch([resolve_program(name) for name in names])
    for name in names:
        program = AccQOC(PipelineConfig()).compile(resolve_program(name))
        stack.reference[name] = (
            program.overall_latency,
            program.gate_based_latency,
        )


def reference_latencies(
    stack: Stack, requests: Sequence[Dict]
) -> List[Optional[Tuple[float, float]]]:
    """(overall ns, gate-based ns) of each request from a one-shot
    ``AccQOC(PipelineConfig()).compile`` of its program.

    Named programs take the reference computed during set-up. Inline QASM
    is compiled after the run: with ``ModelEngine`` from scratch; with
    GRAPE on a library of the store's pulses, since a fresh solve would not
    reproduce them (its warm starts differ). ``None`` marks a GRAPE request
    whose groups are not all in the store.
    """
    from repro.circuits.qasm import parse_qasm
    from repro.core.cache import PulseLibrary
    from repro.core.pipeline import AccQOC
    from repro.utils.config import PipelineConfig

    library = None
    if stack.workload.engine == "grape":
        library = PulseLibrary()
        for key in stack.service.store.keys():
            entry = stack.service.store.peek_key(key)
            if entry is not None:
                library.add(entry)
    references: List[Optional[Tuple[float, float]]] = []
    for request in requests:
        if "qasm" not in request:
            references.append(stack.reference[request["name"]])
            continue
        circuit = parse_qasm(request["qasm"])
        if library is None:
            pipeline = AccQOC(PipelineConfig())
        else:
            pipeline = AccQOC(PipelineConfig(), engine=stack.service.engine)
            pipeline.library = library
            _, groups = pipeline.groups_of(circuit)
            if library.coverage(groups).uncovered_unique:
                references.append(None)
                continue
        program = pipeline.compile(circuit)
        references.append((program.overall_latency, program.gate_based_latency))
    return references


def stored_pulses_check(stack: Stack) -> Tuple[int, List[str]]:
    """Re-propagate every stored pulse flagged converged on its group's
    ``ControlModel``: (pulses checked, digests of those that miss the
    engine's target infidelity)."""
    from repro.qoc.fidelity import infidelity, propagate
    from repro.service.store import key_digest

    engine = stack.service.engine
    store = stack.service.store
    target = engine.run.target_infidelity
    checked = 0
    failures = []
    for key in store.keys():
        entry = store.peek_key(key)
        if entry is None or entry.pulse is None or not entry.converged:
            continue
        checked += 1
        model = engine.model_for(entry.group.n_qubits)
        result = propagate(entry.pulse.amplitudes, model, entry.pulse.dt)
        if infidelity(result.u_total, entry.group.matrix()) > target:
            failures.append(key_digest(key))
    return checked, failures
