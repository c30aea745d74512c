"""Load generation against the in-process daemon.

Readers are *closed loop*: each thread sends its next read only after
the previous response arrived, over a fresh connection (the daemon
speaks HTTP/1.0), so at most one connection per thread is open.  The
writer is *open loop*: batch ``i`` is due at ``start + i / rate`` and is
timed from that instant, so a stall shows up as the lateness of every
batch queued behind it.  Each thread keeps its own log; logs are merged
only after the threads have joined.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.inputs import Read
from repro.graphs.delta import UpdateBatch

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0


class Client:
    """A minimal JSON-over-HTTP client for one daemon address."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str,
                body: Optional[Dict[str, object]] = None
                ) -> Tuple[int, Dict[str, object], float]:
        """``(status, payload, seconds)``; seconds cover send to last byte."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=REQUEST_TIMEOUT)
        try:
            start = time.perf_counter()
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            seconds = time.perf_counter() - start
        finally:
            connection.close()
        return response.status, json.loads(raw.decode("utf-8")), seconds


def _failure(status: int, payload: Dict[str, object]) -> Optional[str]:
    """Why a read response counts as failed, or ``None``."""
    if status != 200:
        return f"HTTP {status}: {payload.get('error')}"
    if payload.get("path") != "exact":
        return f"served by the {payload.get('path')!r} rung, not 'exact'"
    return None


@dataclass
class ReadLog:
    """What one reader thread observed."""

    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Responses for checked sources, kept for the answer check.
    kept: List[Tuple[Read, Dict[str, object]]] = field(default_factory=list)
    attempted: int = 0
    last_done: float = 0.0


def closed_loop_reader(client: Client, reads: Iterator[Read],
                       deadline: float, checked: frozenset,
                       log: ReadLog) -> None:
    """Send reads back to back until ``deadline``."""
    for read in reads:
        if time.perf_counter() >= deadline:
            break
        log.attempted += 1
        try:
            status, payload, seconds = client.request("GET", read.path())
        except (OSError, http.client.HTTPException, ValueError) as error:
            log.failures.append(f"{read.path()}: {error!r}")
            continue
        finally:
            log.last_done = time.perf_counter()
        problem = _failure(status, payload)
        if problem is not None:
            log.failures.append(f"{read.path()}: {problem}")
            continue
        log.latencies.append(seconds)
        if read.u in checked:
            log.kept.append((read, payload))


@dataclass
class WriteLog:
    """What the writer observed."""

    latencies: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    acked: List[UpdateBatch] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    last_done: float = 0.0


def open_loop_writer(client: Client, batches: Sequence[UpdateBatch],
                     start: float, rate: float, log: WriteLog) -> None:
    """Post ``batches`` on the schedule ``start + i / rate``, waiting each."""
    for index, batch in enumerate(batches):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        log.late.append(time.perf_counter() - due)
        try:
            status, payload, _ = client.request(
                "POST", "/update", {**batch.to_dict(), "wait": True})
        except (OSError, http.client.HTTPException, ValueError) as error:
            log.failures.append(f"update {index}: {error!r}")
            continue
        finally:
            log.last_done = time.perf_counter()
        if status != 200 or payload.get("accepted") is not True:
            log.failures.append(f"update {index}: HTTP {status}: "
                                f"{payload.get('error')}")
            continue
        log.latencies.append(log.last_done - due)
        log.acked.append(batch)


def run_threads(targets: Sequence[Tuple[object, tuple]]) -> None:
    """Start one thread per ``(function, args)`` and join them all."""
    threads = [threading.Thread(target=function, args=args)
               for function, args in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


__all__ = ["Client", "ReadLog", "WriteLog", "closed_loop_reader",
           "open_loop_writer", "run_threads"]
