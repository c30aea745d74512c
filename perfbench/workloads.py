"""The workloads: set-up, warm-up, measured window, answer check, teardown.

A workload object owns one seed's inputs and, between :meth:`setup` and
:meth:`teardown`, the live system under test.  :meth:`warm_up` runs the
workload's operation untimed for a few seconds, so the window does not
start on a cold allocator or a host CPU still ramping up from idle.
:meth:`measure` runs one timed window and returns a :class:`Window`; it
may be called more than once (the traced run measures an untraced and a
traced half on the same set-up).  :meth:`check` then compares the kept
answers with the public API's own answers and returns what failed.
"""

from __future__ import annotations

import gc
import math
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import repro.api as api
from repro.config import RunSpec, ServeConfig, SimRankConfig
from repro.datasets import registry
from repro.experiments.common import QUICK_EXPERIMENT_CONFIG
from repro.graphs.delta import UpdateBatch
from repro.graphs.graph import Graph
from repro.serve import make_daemon
from repro.serve.daemon import ServeDaemon

from perfbench.catalogue import PAPER, READ, WRITE
from perfbench.inputs import (READ_K, Read, checked_sources, read_mix,
                              update_stream)
from perfbench.loadgen import (Client, ReadLog, WriteLog, closed_loop_reader,
                               open_loop_writer, run_threads)
from perfbench.report import Value, median, tail

#: ``paper-pokec`` runs one fixed cell of the paper grid.  Its cost depends
#: on the generated graph (across dataset seeds the cell time differs by
#: ~25% and the peak memory by ~40%), so the cell's seed is fixed and every
#: run measures the same work.  The training budget is
#: QUICK_EXPERIMENT_CONFIG's, with early stopping held off until the budget
#: is spent, so the epoch count cannot drift either.
PAPER_SEED = 0
PAPER_TRAIN = QUICK_EXPERIMENT_CONFIG.with_overrides(
    min_epochs=QUICK_EXPERIMENT_CONFIG.max_epochs)
PAPER_SIMRANK = SimRankConfig(method="localpush", epsilon=0.02, top_k=32)
#: Scale 0.25 (2000 nodes): a cell takes 2.5-3.5 s on 2 vCPUs, so a
#: window holds about ten and ``cell_s`` is a median over them; its peak
#: memory repeats within ~2%.  At scale 1.0 (8000 nodes, ~12.5 s a cell)
#: a window held two, and the precompute's thread pool moved the memory
#: peak by ~10% between runs.  Precompute (~0.9 s) and training (~2 s)
#: still both show at this size.
PAPER_SCALE = 0.25

#: The served graph: synthetic pokec at scale 0.25 (2000 nodes), generated
#: at one fixed seed for every run.  Query cost depends on the graph's
#: structure (same-seed runs agree within a few percent, different graphs
#: differ by ~10%), so ``--seed`` draws the traffic, not the graph, and the
#: spread between runs measures the system.
SERVE_SCALE = 0.25
SERVE_GRAPH_SEED = 0
SERVE_EPSILON = 0.1
#: Warm-up reads per set-up, from their own input stream.
WARMUP_READS = 4
WARMUP_STREAM = 1000
#: Reads generated per reader; far more than a window can send.
READ_BUFFER = 20000
#: Open-loop writer rate in batches per second.
WRITE_RATE = 4.0


@dataclass
class Window:
    """What one measured window observed (times in seconds)."""

    seconds: float
    attempted: int
    failures: List[str]
    #: Headline-operation latencies (cells, reads or updates).
    op_latencies: List[float]
    #: User-visible operations completed.
    ops: int
    #: Workload-specific samples: ``cell``, ``acc``, ``read``, ``repair``,
    #: ``late``.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: ``/metrics`` counter deltas over the window (serve workloads).
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Check:
    """The answer check: operations it added, answers compared, failures."""

    attempted: int
    compared: int
    failures: List[str]


class PaperPokec:
    """One SIGMA cell through :func:`repro.api.run` (no serving at all)."""

    name = PAPER
    load_threads = 0
    #: Each set-up runs a cell, so three keep a run near 47 s.
    setup_repeats = 3

    def __init__(self) -> None:
        self.spec = RunSpec(model="sigma", dataset="pokec",
                            overrides={"final_layers": 2}, train=PAPER_TRAIN,
                            simrank=PAPER_SIMRANK, seed=PAPER_SEED, repeats=1,
                            scale_factor=PAPER_SCALE)
        self.accuracies: List[float] = []

    def setup(self, keep: bool) -> None:
        """Generate the dataset into the memo and run one warm-up cell.

        The cell is this workload's warm-up operation, as the warm-up
        reads are the serve workloads'; its accuracy joins the check.
        Dataset generation alone is pure-Python work whose time moved
        by half between runs of a shared host, where a cell moved by
        about a fifth.  The kept set-up leaves the memo warm.
        """
        registry.clear_dataset_cache()
        registry.load_dataset(self.spec.dataset, seed=self.spec.seed,
                              scale_factor=self.spec.scale_factor)
        self.accuracies.append(api.run(self.spec).summary.mean_accuracy)
        if not keep:
            registry.clear_dataset_cache()

    def warm_up(self, seconds: float) -> Window:
        """Untimed cells before the window; their accuracies are checked."""
        return self.measure(seconds)

    def measure(self, seconds: float) -> Window:
        """Run cells back to back, starting new ones until ``seconds``."""
        cells: List[float] = []
        failures: List[str] = []
        attempted = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            attempted += 1
            # Each cell starts from a collected heap, so neither its time
            # nor the peak memory depends on when the collector last ran.
            gc.collect()
            began = time.perf_counter()
            try:
                result = api.run(self.spec)
            except Exception:  # a failed cell is counted, not fatal
                failures.append(traceback.format_exc(limit=3))
                continue
            elapsed = time.perf_counter() - began
            accuracy = result.summary.mean_accuracy
            if not math.isfinite(accuracy):
                failures.append(f"non-finite accuracy {accuracy!r}")
                continue
            cells.append(elapsed)
            self.accuracies.append(accuracy)
        return Window(seconds=time.perf_counter() - start,
                      attempted=attempted, failures=failures,
                      op_latencies=cells, ops=len(cells),
                      samples={"cell": cells,
                               "acc": self.accuracies[-len(cells):]
                               if cells else []})

    def check(self) -> Check:
        """Every cell of one seed must reach the same accuracy."""
        failures = []
        if len(set(self.accuracies)) > 1:
            failures.append(f"accuracy differs between cells of one seed: "
                            f"{self.accuracies}")
        return Check(0, len(self.accuracies), failures)

    def user_metrics(self, window: Window) -> Dict[str, Value]:
        return {"cell_s": median(window.samples["cell"]),
                "test_acc": median(window.samples["acc"])}

    def teardown(self) -> None:
        """Nothing outlives a cell."""


class _Served:
    """One live daemon stack: its server thread, client and cache dir."""

    def __init__(self, graph: Graph, workdir: str) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.simrank = SimRankConfig(epsilon=SERVE_EPSILON,
                                     cache_dir=self.cache_dir)
        self.daemon: ServeDaemon = make_daemon(
            graph, simrank=self.simrank, serve=ServeConfig(port=0))
        self.thread = threading.Thread(target=self.daemon.serve_forever,
                                       kwargs={"poll_interval": 0.05})
        self.thread.start()
        host, port = self.daemon.server_address[:2]
        self.client = Client(str(host), int(port))

    def counters(self) -> Dict[str, float]:
        status, payload, _ = self.client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered HTTP {status}")
        return dict(payload["counters"])  # type: ignore[arg-type]

    def close(self) -> None:
        self.daemon.shutdown()
        self.daemon.server_close()
        self.thread.join(timeout=30.0)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ServeRead:
    """Closed-loop readers against an in-process daemon, no writes."""

    name = READ
    readers = 2
    writes = False
    setup_repeats = 5

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.served: Optional[_Served] = None
        self.graph: Optional[Graph] = None
        self.checked: frozenset = frozenset()
        self.kept: List[Tuple[Read, Dict[str, object]]] = []
        self.acked: List[UpdateBatch] = []
        self._reads: List[Iterator[Read]] = []
        self._batches: Iterator[UpdateBatch] = iter(())

    @property
    def load_threads(self) -> int:
        return self.readers + int(self.writes)

    # ------------------------------------------------------------------ #
    def setup(self, keep: bool) -> None:
        """Generate the graph, bind the daemon and warm it up."""
        dataset = registry.load_dataset("pokec", seed=SERVE_GRAPH_SEED,
                                        scale_factor=SERVE_SCALE, cache=False)
        self.graph = dataset.graph
        n = self.graph.num_nodes
        self.checked = frozenset(checked_sources(self.seed, n))
        self._reads = [iter(read_mix(self.seed, n, READ_BUFFER, stream))
                       for stream in range(self.readers)]
        self.served = _Served(self.graph, self.workdir)
        for read in read_mix(self.seed, n, WARMUP_READS, WARMUP_STREAM):
            _require_ok(self.served.client.request("GET", read.path()))
        self.kept, self.acked = [], []

    def warm_up(self, seconds: float) -> Window:
        """Untimed reads before the window: no writes, no answers kept."""
        return self._drive(seconds, writes=False, keep=frozenset())

    def measure(self, seconds: float) -> Window:
        """Closed-loop readers (and the writer) for ``seconds``."""
        # Mid-run answers on serve-write are not kept: a response does not
        # say which graph version answered it.
        return self._drive(seconds, writes=self.writes,
                           keep=frozenset() if self.writes else self.checked)

    def _drive(self, seconds: float, writes: bool, keep: frozenset) -> Window:
        served = self.served
        assert served is not None
        before = served.counters()
        logs = [ReadLog() for _ in range(self.readers)]
        start = time.perf_counter()
        targets = [(closed_loop_reader, (served.client, self._reads[i],
                                         start + seconds, keep, logs[i]))
                   for i in range(self.readers)]
        writer = WriteLog()
        if writes:
            batches = [next(self._batches)
                       for _ in range(int(seconds * WRITE_RATE))]
            targets.append((open_loop_writer, (served.client, batches, start,
                                               WRITE_RATE, writer)))
        run_threads(targets)
        end = max([log.last_done for log in logs] + [writer.last_done, start])
        after = served.counters()
        reads = [s for log in logs for s in log.latencies]
        for log in logs:
            self.kept.extend(log.kept)
        self.acked.extend(writer.acked)
        failures = [f for log in logs for f in log.failures] + writer.failures
        attempted = sum(log.attempted for log in logs) + len(writer.late)
        return Window(
            seconds=end - start, attempted=attempted, failures=failures,
            op_latencies=writer.latencies if writes else reads,
            ops=len(reads) + len(writer.latencies),
            samples={"read": reads, "repair": writer.latencies,
                     "late": writer.late},
            counters={name: after[name] - before[name] for name in after})

    def check(self) -> Check:
        """Compare every kept answer with :func:`repro.api.topk`."""
        assert self.graph is not None and self.served is not None
        return Check(0, len(self.kept),
                     _compare(self.kept, self.graph, self.served.simrank))

    def user_metrics(self, window: Window) -> Dict[str, Value]:
        reads = window.samples["read"]
        return {"qps": Value(len(reads) / window.seconds, len(reads)),
                "query_p50_ms": median(reads, 1000.0),
                "query_p95_ms": tail(reads, 95.0, 1000.0)}

    def teardown(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None


class ServeWrite(ServeRead):
    """One closed-loop reader beside an open-loop ``/update`` writer."""

    name = WRITE
    readers = 1
    writes = True

    def __init__(self, seed: int, workdir: str, total_seconds: float) -> None:
        super().__init__(seed, workdir)
        self.num_batches = 1 + int(total_seconds * WRITE_RATE)

    def setup(self, keep: bool) -> None:
        """As for ``serve-read``, plus one warm-up update.

        The warm-up update is the stream's first batch; it lands the
        lazy ``DynamicOperator`` build before timing starts.
        """
        super().setup(keep)
        assert self.graph is not None and self.served is not None
        stream = update_stream(self.seed, self.graph, self.num_batches)
        self._batches = iter(stream)
        warmup = next(self._batches)
        _require_ok(self.served.client.request(
            "POST", "/update", {**warmup.to_dict(), "wait": True}))
        self.acked.append(warmup)

    def check(self) -> Check:
        """Re-query the sample once every repair has landed.

        The answers must equal :func:`repro.api.topk` on the base graph
        replayed through every acknowledged batch.  The reference skips
        the operator cache: the daemon's exact rung computes fresh rows,
        while the cache holds the repaired delta-chain snapshots.
        """
        assert self.graph is not None and self.served is not None
        graph = self.graph
        for batch in self.acked:
            graph = graph.apply_delta(batch)
        kept: List[Tuple[Read, Dict[str, object]]] = []
        failures: List[str] = []
        for source in sorted(self.checked):
            read = Read("topk", source)
            status, payload, _ = self.served.client.request("GET",
                                                            read.path())
            if status != 200 or payload.get("path") != "exact":
                failures.append(f"final {read.path()}: HTTP {status}, path "
                                f"{payload.get('path')!r}")
                continue
            kept.append((read, payload))
        config = self.served.simrank.with_overrides(cache_dir=None)
        return Check(len(self.checked), len(kept),
                     failures + _compare(kept, graph, config))

    def user_metrics(self, window: Window) -> Dict[str, Value]:
        repairs = window.samples["repair"]
        return {**super().user_metrics(window),
                "repair_p50_ms": median(repairs, 1000.0),
                "repair_p90_ms": tail(repairs, 90.0, 1000.0)}


def _require_ok(response: Tuple[int, Dict[str, object], float]) -> None:
    """Fail the set-up on a warm-up request that did not succeed."""
    status, payload, _ = response
    if status != 200:
        raise RuntimeError(f"warm-up request failed: HTTP {status}: "
                           f"{payload.get('error')}")


def _compare(kept: List[Tuple[Read, Dict[str, object]]], graph: Graph,
             config: SimRankConfig) -> List[str]:
    """Bit-for-bit comparison of kept answers with the public API.

    ``/topk`` answers against ``repro.api.topk(graph, u, k)``; ``/score``
    answers against the entry of ``repro.api.topk(graph, u, n)``, which
    the API documents as equal to ``repro.api.score(graph, u, v)``.
    """
    failures: List[str] = []
    tops: Dict[int, List[List[object]]] = {}
    rows: Dict[int, Dict[int, float]] = {}
    for read, payload in kept:
        if read.kind == "topk":
            if read.u not in tops:
                tops[read.u] = [[node, value] for node, value in
                                api.topk(graph, read.u, READ_K, config)]
            if (payload.get("source") != read.u
                    or payload.get("entries") != tops[read.u]):
                failures.append(f"{read.path()}: answer differs from "
                                f"repro.api.topk")
        else:
            if read.u not in rows:
                rows[read.u] = dict(api.topk(graph, read.u, graph.num_nodes,
                                             config))
            if payload.get("score") != rows[read.u].get(read.v, 0.0):
                failures.append(f"{read.path()}: score {payload.get('score')}"
                                f" differs from repro.api")
    return failures


def make_workload(name: str, seed: int, workdir: str,
                  total_seconds: float):
    """The workload object for ``name``."""
    if name == PAPER:
        return PaperPokec()
    if name == READ:
        return ServeRead(seed, workdir)
    if name == WRITE:
        return ServeWrite(seed, workdir, total_seconds)
    raise ValueError(f"unknown workload {name!r}")


def end_to_end(workload, window: Window, setup_seconds: List[float],
               rss_mb: float, extra_attempted: int = 0,
               extra_failed: int = 0) -> Dict[str, Value]:
    """Every end-to-end metric of ``workload`` for one window."""
    attempted = window.attempted + extra_attempted
    failed = len(window.failures) + extra_failed
    return {
        "setup_s": median(setup_seconds),
        "peak_rss_mb": Value(rss_mb, 1),
        "op_p50_ms": median(window.op_latencies, 1000.0),
        "ops_per_s": Value(window.ops / window.seconds, window.ops),
        "fail_frac": Value(failed / attempted if attempted else 0.0,
                           attempted),
        **workload.user_metrics(window),
    }


__all__ = ["Window", "Check", "PaperPokec", "ServeRead", "ServeWrite",
           "make_workload", "end_to_end", "WRITE_RATE"]
