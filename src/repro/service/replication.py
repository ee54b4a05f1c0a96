"""Replicated remote store: one digest range, N interchangeable hosts.

A production store cannot treat a dead shard host as a permanent 0%-hit
key range, so the routing table's unit is not a host but a *replica
list*: ``remote://h1a:p|h1b:p`` names one shard whose entries live on
every listed host. :class:`ReplicatedStore` is the
:class:`~repro.service.store.StoreBackend` over such a list, built from
the raising ``fetch_*``/``send_*`` wire primitives of
:class:`~repro.service.remote.RemoteStore`:

* **Reads fail over in order.** ``get_many`` (and so every derived
  ``get``/``peek``), ``keys`` and ``snapshot`` try replica 0 first and
  walk down the list on a wire
  failure; each skip is counted per replica (``stats.failovers``,
  ``stats_by_replica``), so a limping primary is visible in every batch
  report. Only when *every* replica is unreachable does the read degrade
  to a miss (``stats.degraded``) — the service then plans cold, which is
  correct, just slower. Never wrong, never down while one replica lives.

* **Writes fan out to every replica, under a per-route write concern.**
  ``remote://h1a:p|h1b:p?w=majority`` sets the quorum a ``put_many``
  (and so ``put``) or ``flush`` must reach before it counts as
  acknowledged:

  - ``w=1`` (the default) keeps the original best-effort semantics — a
    write that reaches at least one live replica is durable, one that
    reaches none is absorbed as a degraded cache write (the caller keeps
    its record, the batch just plans colder next time);
  - ``w=majority`` requires ``ceil(n/2)`` replicas (1 of 2, 2 of 3 — the
    even-set floor is deliberate, so the canonical 2-replica pair
    survives a single failure);
  - ``w=all`` requires every replica.

  A write that cannot reach its quorum raises a typed
  :class:`QuorumError` — loud, never a silent degradation — and counts
  ``stats.quorum_failures``; one that does reach it counts ``stats.acked``
  (per entry), so every batch report shows the quorum outcome alongside
  the fan-out lag (replicas that missed an acked write still count their
  own ``degraded``, visible per replica and closable by anti-entropy or
  :meth:`ReplicatedStore.repair`).

* **``repair()`` re-syncs lagging replicas from their peers.** It
  compares per-replica key sets (one ``keys`` round trip each) and copies
  the missing entries with ``get_many``/``put_many`` frames. Entries
  cross the wire as the same canonical ``entry_to_dict`` JSON the disk
  files hold, so a repaired replica's entry files are *bit-identical* to
  its peer's — the same guarantee ``repro store reshard`` gives locally.
  An unreachable replica is skipped (the next repair pass catches it up);
  repair after an outage is idempotent.

The engine-fingerprint guard fans out too: every replica is claimed, a
mismatch anywhere is raised loudly, and a claim absorbed while a replica
was down is replayed by that replica's reconnect handshake — an outage
never lets mismatched data slip into one copy of the shard.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.core.cache import LibraryEntry, PulseLibrary
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.service.remote import (
    WRITE_CONCERNS,
    RemoteStore,
    RemoteUnavailable,
    RetryPolicy,
    parse_route,
    retry_from_params,
    split_replicas,
)
from repro.service.store import STORE_COUNTERS, StoreBackend, StoreStats

T = TypeVar("T")


class QuorumError(ConnectionError):
    """A replicated write could not reach its required quorum.

    Deliberately *not* a :class:`~repro.service.remote.RemoteUnavailable`:
    that one is the wire layer's "degrade to a miss" signal and gets
    absorbed; a quorum failure is the caller's contract being broken and
    must surface — through :class:`~repro.service.sharding.ShardedStore`,
    through ``CompileService`` (which fails the batch's claims and
    re-raises), out of the front doors as a loud error.
    """

    def __init__(self, address: str, required: int, delivered: int, n: int) -> None:
        super().__init__(
            f"write to {address} reached {delivered} of {n} replicas; "
            f"the route's write concern requires {required}"
        )
        self.address = address
        self.required = required
        self.delivered = delivered
        self.n_replicas = n


def quorum_required(write_concern: str, n_replicas: int) -> int:
    """Acks ``write_concern`` demands from ``n_replicas`` (see module doc)."""
    if write_concern == "all":
        return n_replicas
    if write_concern == "majority":
        return (n_replicas + 1) // 2
    return 1  # w=1


class ReplicatedStore(StoreBackend):
    """:class:`StoreBackend` over an ordered list of replica hosts.

    Replica order is priority order: replica 0 serves every read while it
    is healthy, so put its closest/fastest copy first. All replicas are
    assumed to hold (eventually, via fan-out writes and :meth:`repair`)
    the same digest range — this class does no routing; a
    :class:`~repro.service.sharding.ShardedStore` routes digest ranges
    *onto* replica sets.

    ``stats`` reports the replica-set counters on top of the
    :class:`~repro.service.remote.RemoteStore` ones. ``failovers`` counts
    reads that had to skip a dead replica and were served by a later one
    (the sum of the per-replica ``failover.r<i>`` counters) — nonzero
    means a replica is down (or flapping) while the data stays fully
    served. ``degraded`` is an operation absorbed after *all* replicas
    failed (reads), plus every replica-level dropped write. ``acked``
    counts entries whose write met the route's quorum; ``quorum_failures``
    counts write operations that could not and raised
    :class:`QuorumError` — the batch-report pair that turns "the fleet is
    degrading" from a log archeology exercise into a column.
    """

    COUNTERS = STORE_COUNTERS

    def __init__(
        self,
        spec,
        timeout_s: float = 30.0,
        perf: Optional[PerfRecorder] = None,
        stat_prefix: str = "store.remote.",
        write_concern: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(spec, str):
            specs, params = parse_route(spec)
            if write_concern is None:
                write_concern = params.get("w")
            if retry is None:
                retry = retry_from_params(params)
        else:
            specs = [s for piece in spec for s in split_replicas(piece)]
        if not specs:
            raise ValueError("ReplicatedStore needs at least one replica spec")
        self.write_concern = write_concern if write_concern is not None else "1"
        if self.write_concern not in WRITE_CONCERNS:
            raise ValueError(
                f"bad write concern {self.write_concern!r}; expected one "
                f"of {'|'.join(WRITE_CONCERNS)}"
            )
        self.perf = recorder_or_null(perf)
        self.stat_prefix = stat_prefix
        self.replicas: List[RemoteStore] = [
            RemoteStore(
                s,
                timeout_s=timeout_s,
                perf=self.perf,
                stat_prefix=f"{stat_prefix}r{i}.",
                retry=retry,
            )
            for i, s in enumerate(specs)
        ]
        self.quorum = quorum_required(self.write_concern, len(self.replicas))

    @property
    def address(self) -> str:
        return "|".join(r.address for r in self.replicas)

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()

    # ------------------------------------------------------------- counters
    def _failovers(self, index: int) -> int:
        return self.perf.counters.get(f"{self.stat_prefix}failover.r{index}", 0)

    @property
    def stats(self) -> StoreStats:
        """This store's own counters, plus ``failovers`` summed over the
        per-replica ``failover.r<i>`` counters and every replica's own
        ``degraded``/``retry_exhausted``."""
        merged = super().stats
        for index, replica in enumerate(self.replicas):
            wire = replica.stats
            merged += StoreStats({
                "failovers": self._failovers(index),
                "degraded": wire.degraded,
                "retry_exhausted": wire.retry_exhausted,
            })
        return merged

    def stats_by_replica(self) -> List[Dict[str, float]]:
        """Per-replica health: each replica's own wire counters plus the
        failovers *it* caused (reads that skipped it because it was down)."""
        rows = []
        for index, replica in enumerate(self.replicas):
            row = replica.stats.to_dict()
            row["failovers"] = self._failovers(index)
            row["address"] = replica.address
            rows.append(row)
        return rows

    # ---------------------------------------------------------------- reads
    def _failover_read(self, op: Callable[[RemoteStore], T]) -> T:
        """``op`` against the first live replica, in priority order.

        A wire failure at replica ``i`` is counted (per replica and in the
        merged ``failovers``) and the next replica is tried; raises
        :class:`RemoteUnavailable` only when the whole set is down.
        """
        last: Optional[RemoteUnavailable] = None
        for index, replica in enumerate(self.replicas):
            try:
                result = op(replica)
            except RemoteUnavailable as exc:
                self._count(f"failover.r{index}")
                last = exc
                continue
            return result
        raise RemoteUnavailable(
            f"all {len(self.replicas)} replicas of {self.address} "
            f"unreachable"
        ) from last

    def keys(self) -> List[bytes]:
        try:
            return self._failover_read(lambda r: r.fetch_keys())
        except RemoteUnavailable:
            self._count("degraded")
            return []

    def snapshot(self) -> PulseLibrary:
        try:
            return self._failover_read(lambda r: r.fetch_snapshot())
        except RemoteUnavailable:
            self._count("degraded")
            return PulseLibrary()

    def get_many(
        self, keys: Sequence[bytes], peek: bool = False
    ) -> List[Optional[LibraryEntry]]:
        if not keys:
            return []
        try:
            entries = self._failover_read(lambda r: r.fetch_many(keys, peek))
        except RemoteUnavailable:
            self._count("degraded")
            if not peek:
                self._count("misses", len(keys))
            return [None] * len(keys)
        if not peek:
            hits = sum(1 for e in entries if e is not None)
            self._count("hits", hits)
            self._count("misses", len(entries) - hits)
        return entries

    def fingerprints(self) -> List[str]:
        """Union of every *reachable* replica's engine stamps — unlike
        reads this deliberately does not stop at the first live replica:
        drift between replicas is exactly what the caller is looking for."""
        seen = set()
        for replica in self.replicas:
            seen.update(replica.fingerprints())
        return sorted(seen)

    # --------------------------------------------------------------- writes
    def _fan_out_write(
        self, send: Callable[[RemoteStore], None], puts_per_delivery: int
    ) -> int:
        """``send`` to every replica; returns how many accepted it.

        A replica that drops the write counts its own ``degraded`` (the
        lag is visible in ``stats_by_replica`` and closable by
        anti-entropy or :meth:`repair`); whether the delivery count is
        *enough* is the caller's write concern, checked by
        :meth:`_check_quorum`.
        """
        delivered = 0
        for replica in self.replicas:
            try:
                send(replica)
            except RemoteUnavailable:
                replica._count("degraded")  # dropped write at this replica
                continue
            if puts_per_delivery:
                replica._count("puts", puts_per_delivery)
            delivered += 1
        return delivered

    def _check_quorum(self, delivered: int, n_entries: int) -> None:
        """Account a fan-out outcome against the route's write concern.

        Quorum met: ``acked`` counts the entries (and ``puts`` keeps its
        logical meaning via the callers). Quorum missed under
        ``w=majority``/``w=all``: count ``quorum_failures`` and raise
        :class:`QuorumError` — loudly, so the caller knows its write is
        *not* durably replicated to spec. Under ``w=1`` a fully-lost
        write stays today's absorbed degradation: the pulse store is a
        cache, the caller keeps its record, and the miss is visible in
        ``stats.degraded`` rather than fatal.
        """
        if delivered >= self.quorum:
            self._count("acked", n_entries)
            return
        if self.write_concern == "1":
            self._count("degraded")  # fully lost cache write; caller keeps its record
            return
        self._count("quorum_failures")
        raise QuorumError(
            self.address, self.quorum, delivered, len(self.replicas)
        )

    def put_many(self, entries: Sequence[LibraryEntry], flush: bool = True) -> None:
        if not entries:
            return
        delivered = self._fan_out_write(
            lambda r: r.send_many(entries, flush),
            puts_per_delivery=len(entries),
        )
        if delivered:
            self._count("puts", len(entries))
        self._check_quorum(delivered, len(entries))

    def flush(self) -> None:
        """Flush every replica; the write concern applies here too — a
        flush that cannot reach quorum under ``w>=majority`` raises (the
        deferred manifest state it was meant to make durable is not)."""
        delivered = self._fan_out_write(
            lambda r: r.send_flush(), puts_per_delivery=0
        )
        self._check_quorum(delivered, 0)

    def claim_fingerprint(self, fingerprint: str) -> None:
        """Every replica is claimed: a mismatch anywhere raises loudly; an
        unreachable replica absorbs the claim and replays it on its
        reconnect handshake (see :meth:`RemoteStore.claim_fingerprint`)."""
        for replica in self.replicas:
            replica.claim_fingerprint(fingerprint)

    # --------------------------------------------------------------- repair
    def repair(self) -> Dict:
        """Re-sync lagging replicas from their peers, bit-identically.

        Per-replica ``keys`` digests are compared; every reachable replica
        missing entries gets them copied over in ``get_many``/``put_many``
        frames from the first peer that holds each key. Entries travel as
        the canonical ``entry_to_dict`` JSON the entry files themselves
        hold, so the repaired replica's files match its peer's byte for
        byte. Unreachable replicas are skipped — run repair again once
        they are back. Returns a summary (``entries`` = union size,
        ``copied`` total, ``copied_by_replica``).

        Safe under concurrent writes: entries are immutable and
        content-addressed (one canonical JSON per group key), so a write
        racing the key-set scan either fans out to every replica itself
        or is copied here — both land the same bytes, and re-putting an
        existing key is a no-op rewrite of identical content. Repair is
        therefore idempotent and never needs the fleet quiesced.
        """
        views: List[Optional[set]] = []
        for replica in self.replicas:
            try:
                views.append(set(replica.fetch_keys()))
            except RemoteUnavailable:
                views.append(None)
        reachable = [i for i, view in enumerate(views) if view is not None]
        if not reachable:
            raise RemoteUnavailable(
                f"no replica of {self.address} reachable; nothing to repair"
            )
        union: set = set()
        for index in reachable:
            union |= views[index]
        copied_by_replica = [0] * len(self.replicas)
        for index in reachable:
            missing = sorted(union - views[index])
            if not missing:
                continue
            by_source: Dict[int, List[bytes]] = {}
            for key in missing:
                source = next(
                    (
                        j
                        for j in reachable
                        if j != index and key in views[j]
                    ),
                    None,
                )
                if source is not None:
                    by_source.setdefault(source, []).append(key)
            fetched: List[LibraryEntry] = []
            for source, keys in sorted(by_source.items()):
                try:
                    fetched.extend(
                        e
                        for e in self.replicas[source].fetch_many(keys)
                        if e is not None
                    )
                except RemoteUnavailable:
                    continue  # source died mid-repair; next pass catches it
            if fetched:
                # Loud on failure: the caller asked for this replica to be
                # repaired, so losing it mid-copy is an error, not a miss.
                self.replicas[index].send_many(fetched)
                copied_by_replica[index] = len(fetched)
        return {
            "replicas": len(self.replicas),
            "reachable": len(reachable),
            "entries": len(union),
            "copied": sum(copied_by_replica),
            "copied_by_replica": copied_by_replica,
        }
