"""One call sequence, four store backends: the derived StoreBackend methods
(``get_key``/``peek_key``/``put``/``in``/``len``/``revalidate``) behave the
same over a single directory, local shards, the wire, and a replica set,
and every backend's ``stats`` is a read of its perf recorder."""

import json
import os

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.core.cache import LibraryEntry, entry_to_dict
from repro.grouping.group import GateGroup
from repro.qoc.pulse import Pulse
from repro.service import (
    PulseStore,
    RemoteStore,
    ShardedStore,
    StoreServer,
    open_store,
)
from repro.service.store import StoreBackend

# The names each backend's ``stats.to_dict()`` reports (5 / 5 / 7 / 10).
_LOCAL_KEYS = {"hits", "misses", "puts", "evictions", "hit_rate"}
_REMOTE_KEYS = _LOCAL_KEYS | {"degraded", "retry_exhausted"}
STATS_KEYS = {
    "pulse": _LOCAL_KEYS,
    "sharded": _LOCAL_KEYS,
    "remote": _REMOTE_KEYS,
    "replicated": _REMOTE_KEYS | {"failovers", "acked", "quorum_failures"},
}


def _group(angle: float) -> GateGroup:
    return GateGroup(gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))])


def _entry(angle: float, converged: bool) -> LibraryEntry:
    pulse = Pulse(
        np.linspace(0, angle + 0.1, 35).reshape(7, 5),
        dt=2.0,
        control_labels=["X0", "Y0", "X1", "Y1", "XX01"],
        n_qubits=2,
    )
    return LibraryEntry(
        group=_group(angle), pulse=pulse, latency=40.0, iterations=11,
        converged=converged,
    )


class _StubEngine:
    """ModelEngine-shaped engine: every retrain costs 7 and converges."""

    name = "stub"
    iterations = None  # compile_with_engine dispatches on this attribute

    def compile_group(self, group, warm_pulse=None, warm_source=None, seed_tag=""):
        from repro.core.engines import CompileRecord

        return CompileRecord(
            latency=33.0, iterations=7, converged=True, pulse=warm_pulse
        )


ANGLES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
MISSING = _group(0.95)


def _exercise(store: StoreBackend) -> dict:
    """The shared call sequence; returns everything it observed."""
    entries = [_entry(a, converged=i % 2 == 0) for i, a in enumerate(ANGLES)]
    store.put(entries[0])
    store.put_many(entries[1:])
    seen = {
        "get_key": [
            store.get_key(_group(0.1).key()) is not None,
            store.get_key(MISSING.key()) is not None,
        ],
        "peek_key": [
            store.peek_key(_group(0.2).key()) is not None,
            store.peek_key(MISSING.key()) is not None,
        ],
        "get_many": [
            e is not None
            for e in store.get_many(
                [_group(0.3).key(), MISSING.key(), _group(0.4).key()]
            )
        ],
        "peek_many": [
            e is not None
            for e in store.get_many(
                [MISSING.key(), _group(0.5).key()], peek=True
            )
        ],
        "in": [_group(0.6) in store, MISSING in store],
        "len": len(store),
    }
    # three non-converged entries, budget for two retrains
    seen["revalidate"] = store.revalidate(_StubEngine(), budget=14)
    stats = store.stats
    seen["stats"] = {
        "hits": stats.hits, "misses": stats.misses, "puts": stats.puts,
    }
    keys = sorted(store.keys())
    # JSON text, not dicts: a pulse's unset infidelity is NaN != NaN
    seen["entries"] = [
        json.dumps(entry_to_dict(e), sort_keys=True)
        for e in store.get_many(keys, peek=True)
    ]
    return seen


def _recorded(store: StoreBackend) -> dict:
    """The counters ``store.stats`` must report, straight from the
    recorder: a shard sum, or the store's own prefix — plus, on a replica
    set, the per-replica failovers and each replica's wire counters."""
    counters = store.perf.counters
    if isinstance(store, ShardedStore):
        parts = [_recorded(shard) for shard in store.shards]
        return {k: sum(p[k] for p in parts) for k in parts[0]}
    view = {k: counters.get(store.stat_prefix + k, 0) for k in store.COUNTERS}
    for i, replica in enumerate(getattr(store, "replicas", [])):
        view["failovers"] += counters.get(f"{store.stat_prefix}failover.r{i}", 0)
        for k in ("degraded", "retry_exhausted"):
            view[k] += counters.get(replica.stat_prefix + k, 0)
    return view


def _entry_files(root: str) -> dict:
    """{filename: bytes} of every entry file anywhere under ``root``."""
    out = {}
    for dirpath, _, names in os.walk(root):
        if os.path.basename(dirpath) != "entries":
            continue
        for name in names:
            with open(os.path.join(dirpath, name), "rb") as handle:
                out[name] = handle.read()
    return out


@pytest.fixture
def backend(request, tmp_path):
    """(kind, store, data directories each holding the full entry set,
    the store servers behind it)."""
    kind = request.param
    servers = []

    def serve(name):
        server = StoreServer(PulseStore(str(tmp_path / name))).start()
        servers.append(server)
        return server.address

    if kind == "pulse":
        made = PulseStore(str(tmp_path / "s")), [tmp_path / "s"]
    elif kind == "sharded":
        made = ShardedStore(str(tmp_path / "s"), n_shards=3), [tmp_path / "s"]
    elif kind == "remote":
        made = RemoteStore(f"remote://{serve('r')}"), [tmp_path / "r"]
    else:
        spec = f"remote://{serve('ra')}|{serve('rb')}?w=majority"
        made = open_store(spec), [tmp_path / "ra", tmp_path / "rb"]
    yield (kind, *made, servers)
    for server in servers:
        server.stop()


@pytest.mark.parametrize(
    "backend", ["pulse", "sharded", "remote", "replicated"], indirect=True
)
def test_every_backend_honors_the_same_contract(backend, tmp_path):
    kind, store, data_dirs, servers = backend
    seen = _exercise(store)
    assert seen["get_key"] == [True, False]
    assert seen["peek_key"] == [True, False]
    assert seen["get_many"] == [True, False, True]
    assert seen["peek_many"] == [False, True]
    assert seen["in"] == [True, False]
    assert seen["len"] == len(ANGLES)
    assert seen["revalidate"] == {
        "retrained": 2, "converged": 2, "iterations": 14, "remaining": 1,
    }
    # peeks (peek_key, peek=True, `in`) count nothing; the revalidate
    # write-back counts one put per retrained entry
    assert seen["stats"] == {"hits": 3, "misses": 2, "puts": len(ANGLES) + 2}

    reference = PulseStore(str(tmp_path / "reference"))
    assert seen == _exercise(reference)
    expected = _entry_files(str(tmp_path / "reference"))
    assert len(expected) == len(ANGLES)
    for data_dir in data_dirs:
        assert _entry_files(str(data_dir)) == expected

    # stats is a view of the recorder: the same key set as ever, and every
    # value is the recorder's counter (hit_rate derives from two of them)
    stats = store.stats.to_dict()
    assert set(stats) == STATS_KEYS[kind]
    assert {k: v for k, v in stats.items() if k != "hit_rate"} == _recorded(store)
    if kind == "replicated":
        servers[0].stop()  # the next read fails over from replica 0
        assert store.get_key(_group(0.1).key()) is not None
        rows = store.stats_by_replica()
        for i, row in enumerate(rows):
            failovers = store.perf.counters.get(f"store.remote.failover.r{i}", 0)
            assert row["failovers"] == failovers
        assert [row["failovers"] for row in rows] == [1, 0]
        assert store.stats.failovers == 1
        assert store.stats.to_dict()["retry_exhausted"] == 1
