"""Seeded request streams for the compile-service benchmark.

Only the generated request lines reach the program; the seed stays here.

Both generators stratify their draws so that two seeds load the service
alike and a short run still measures the workload's average request:

* Every VQE request gets fresh arbitrary angles, but balanced ones: its
  n angles sit on an evenly spaced comb over the circle with a random
  offset, dealt to the ansatz slots in random order. Each request then
  mixes small and large rotations alike, which roughly halves the spread
  of GRAPE cost and pulse latency from request to request (and so from
  seed to seed) against independent uniform draws.
* Program names are dealt from shuffled decks that hold each program of the
  traffic mix in proportion to its weight (and, for several clients, each
  combination of programs that can share a batch), so every deck has
  exactly the mix's composition and only the order depends on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from typing import Dict, Iterator, List, Sequence, Tuple


def _stream_rng(seed: int, label: str) -> random.Random:
    """Independent, reproducible RNG per (seed, stream label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def ansatz_angle_count(n_qubits: int, layers: int) -> int:
    """An ``ry`` per qubit plus an ``rz`` per neighbour pair, per layer."""
    return layers * (n_qubits + n_qubits - 1)


def ansatz_qasm(n_qubits: int, layers: int, angles: Sequence[float]) -> str:
    """Hardware-efficient VQE ansatz: per layer an ``ry`` on every qubit,
    then a ``cx, rz, cx`` entangler on each neighbouring pair."""
    if len(angles) != ansatz_angle_count(n_qubits, layers):
        raise ValueError("wrong number of angles for the ansatz")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n_qubits}];"]
    it = iter(angles)
    for _ in range(layers):
        for q in range(n_qubits):
            lines.append(f"ry({next(it):.6f}) q[{q}];")
        for q in range(n_qubits - 1):
            lines.append(f"cx q[{q}],q[{q + 1}];")
            lines.append(f"rz({next(it):.6f}) q[{q + 1}];")
            lines.append(f"cx q[{q}],q[{q + 1}];")
    return "\n".join(lines) + "\n"


def vqe_requests(
    seed: int, client: int, n_qubits: int, layers: int
) -> Iterator[Dict]:
    """Endless request stream of one client: inline QASM, fresh angles."""
    n = ansatz_angle_count(n_qubits, layers)
    rng = _stream_rng(seed, f"vqe:{client}")
    index = 0
    while True:
        index += 1
        offset = rng.random()
        slots = list(range(n))
        rng.shuffle(slots)
        angles = [2.0 * math.pi * (slot + offset) / n - math.pi for slot in slots]
        yield {
            "id": f"c{client}-{index}",
            "qasm": ansatz_qasm(n_qubits, layers, angles),
            "program": f"vqe{n_qubits}x{layers}",
        }


def deck(mix: Sequence[Tuple[str, float]]) -> List[str]:
    """One deck: each program repeated in proportion to its weight."""
    smallest = min(weight for _, weight in mix)
    cards: List[str] = []
    for name, weight in mix:
        cards.extend([name] * max(1, round(weight / smallest)))
    return cards


def named_requests(
    seed: int, client: int, clients: int, mix: Sequence[Tuple[str, float]]
) -> Iterator[Dict]:
    """Endless request stream of one of ``clients`` clients: program names
    dealt from shuffled decks of the traffic mix.

    Closed-loop clients of the async server move in step, so each planning
    window batches one request of every client. The deal therefore shuffles
    the deck's ``clients``-fold product, and client ``c`` takes component
    ``c`` of each tuple: every deck of tuples holds each combination of
    programs that can share a batch exactly once.
    """
    rng = _stream_rng(seed, "named")
    tuples = list(itertools.product(deck(mix), repeat=clients))
    index = 0
    while True:
        rng.shuffle(tuples)
        for names in tuples:
            index += 1
            yield {"id": f"c{client}-{index}", "name": names[client]}


def request_key(request: Dict) -> str:
    """Census key: the program a request asks for (its name or its QASM)."""
    if "qasm" in request:
        return "qasm:" + hashlib.sha256(request["qasm"].encode()).hexdigest()
    return "name:" + request["name"]
