"""Closed-loop JSON-lines clients over loopback TCP.

Each client holds one connection and sends its next request only after the
previous answer arrived. A request's latency is client-observed: from just
before the line is written to just after the answer line is read.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Longest a client waits for one answer; a run must end within 180 s.
ANSWER_TIMEOUT_S = 60.0


@dataclass
class Answer:
    client: int
    request: Dict
    sent: float
    received: float
    reply: Optional[Dict]  # None: no answer (connection lost or timed out)

    @property
    def latency_s(self) -> float:
        return self.received - self.sent


def connect(port: int, n: int) -> List[Tuple[socket.socket, object]]:
    conns = []
    for _ in range(n):
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        sock.settimeout(ANSWER_TIMEOUT_S)
        conns.append((sock, sock.makefile("rwb")))
    return conns


def hang_up(conns: Sequence[Tuple[socket.socket, object]]) -> None:
    """Say ``quit`` and wait for the server's goodbye before closing, so
    the server has finished with the connection when it is stopped."""
    for sock, stream in conns:
        try:
            stream.write(b'{"cmd": "quit"}\n')
            stream.flush()
            stream.readline()
        except OSError:
            pass
        for closer in (stream, sock):
            try:
                closer.close()
            except OSError:
                pass


def drive(
    conns: Sequence[Tuple[socket.socket, object]],
    streams: Sequence[Iterator[Dict]],
    seconds: float,
    clock=time.perf_counter,
) -> Tuple[float, List[Answer]]:
    """Run every client until ``seconds`` after the start; return the start
    reading and every answer. Requests already sent when time runs out are
    still answered and counted."""
    answers: List[Answer] = []
    start = clock()
    deadline = start + seconds

    def client(index: int) -> None:
        _, stream = conns[index]
        requests = streams[index]
        while clock() < deadline:
            request = next(requests)
            sent = clock()
            reply = None
            try:
                stream.write((json.dumps(request) + "\n").encode())
                stream.flush()
                line = stream.readline()
                if line:
                    reply = json.loads(line)
            except (OSError, ValueError):
                pass
            answers.append(Answer(index, request, sent, clock(), reply))
            if reply is None:
                return  # this connection is gone

    threads = [
        threading.Thread(
            target=client, args=(i,), name=f"bench-client{i}", daemon=True
        )
        for i in range(len(conns))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + ANSWER_TIMEOUT_S + 30)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a benchmark client never finished")
    return start, answers
