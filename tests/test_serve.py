"""Fault-injection and graph-version suite for the serving layer.

Proves the ``repro.serve`` degradation ladder by *injecting* rung
failures (the ``compute_exact``/``compute_degraded`` hooks raise or
stall on demand) and asserting both the serving path of every answer and
the per-path counters:

* exact rung healthy → ``exact`` answers, ``exact_served``/``batches``;
* exact rung raising + warm operator cache → ``cached`` answers at the
  stored entry's tighter ε′, ``exact_failures``/``cached_served``;
* exact rung raising + no cache → ``degraded`` answers at the loosened
  ε, ``degraded_served``;
* exact rung *slow* + a tiny time budget → the read falls through
  (``budget_overruns``) and the rows stay for the next read;
* every rung failing → :class:`repro.errors.ServeError` + ``failed``.

Plus the graph-version contract: each version's rows are computed at
most once per connected component and shared by every read, every
answer is bit-identical to :func:`repro.api.topk` on the graph whose
fingerprint it reports, an update never waits for a read, and a read is
stale exactly when the version it took had a repair in flight.
"""

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from _simrank_fixtures import disconnected as _disconnected
from _simrank_fixtures import erdos_renyi as _erdos_renyi
from repro.api import apply_updates as api_apply_updates
from repro.api import score as api_score
from repro.api import topk as api_topk
from repro.config import ServeConfig, SimRankConfig
from repro.dynamic import DynamicOperator
from repro.errors import ServeError, SimRankError
from repro.graphs.delta import GraphDelta
from repro.graphs.fingerprint import graph_fingerprint
from repro.serve import QueryBatcher, SimRankService, make_daemon
from repro.serve.daemon import ServeDaemon
from repro.serve.service import SERVE_PATHS, ServiceCounters
from repro.simrank.cache import get_operator_cache
from repro.simrank.topk import simrank_operator


@pytest.fixture()
def graph():
    return _erdos_renyi(60, 0.08, seed=0)


def _failing_compute(graph, nodes, epsilon):
    raise SimRankError("injected compute failure")


def _post(daemon, path, payload):
    """POST a JSON body; returns ``(status, decoded JSON)``."""
    host, port = daemon.server_address[0], daemon.server_address[1]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _absent_pairs(graph):
    dense = graph.adjacency.toarray()
    n = graph.num_nodes
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if dense[u, v] == 0]


def _absent_pair(graph):
    return _absent_pairs(graph)[0]


def _counters(service, **expected):
    """Assert the named counters and that every *unnamed* one is zero."""
    actual = service.counters.to_dict()
    for name, value in actual.items():
        assert value == expected.get(name, 0), (
            f"counter {name}: expected {expected.get(name, 0)}, got {value}")


class TestExactPath:
    def test_exact_answer_and_counters(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        answer = service.topk(3, k=5)
        assert answer.path == "exact"
        assert answer.epsilon == 0.1
        assert answer.source == 3
        assert answer.k == 5
        scores = [value for _, value in answer.entries]
        assert scores == sorted(scores, reverse=True)
        _counters(service, queries=1, batches=1, exact_served=1)

    def test_service_matches_the_public_api(self, graph):
        """The exact rung serves exactly ``repro.api.topk``'s answer."""
        config = SimRankConfig(epsilon=0.1)
        service = SimRankService(graph, simrank=config)
        answer = service.topk(7, k=5)
        assert answer.entries == api_topk(graph, 7, 5, config)  # bitwise

    def test_batch_shares_one_round_and_coalesces(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        answers = service.topk_batch([2, 9, 2], k=4)
        assert [answer.source for answer in answers] == [2, 9, 2]
        assert answers[0].entries == answers[2].entries  # duplicates share
        assert all(answer.batch_size == 3 for answer in answers)
        # One shared round, but every query is counted under its path —
        # the repeated source included — so the paths partition queries.
        _counters(service, queries=3, batches=1, exact_served=3)

    def test_score_uses_the_full_row(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        answer = service.score(3, 17)
        assert answer.path == "exact"
        full = dict(api_topk(graph, 3, graph.num_nodes,
                             SimRankConfig(epsilon=0.1)))
        assert answer.value == full.get(17, 0.0)


class TestDegradationLadder:
    def test_exact_failure_falls_to_degraded(self, graph):
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            serve=ServeConfig(degraded_epsilon_factor=5.0),
            compute_exact=_failing_compute)
        answer = service.topk(3, k=5)
        assert answer.path == "degraded"
        assert answer.epsilon == pytest.approx(0.5)
        _counters(service, queries=1, exact_failures=1, degraded_served=1)

    def test_exact_failure_with_warm_cache_serves_cached(self, graph,
                                                         tmp_path):
        # Warm the operator cache with a *tighter* all-pairs entry …
        cache_dir = str(tmp_path / "operators")
        simrank_operator(graph, SimRankConfig(
            method="localpush", epsilon=0.05, top_k=None,
            cache_dir=cache_dir))
        cache = get_operator_cache(cache_dir)
        # … then fail the exact rung: the entry dominates ε=0.1 requests.
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1, cache_dir=cache_dir),
            compute_exact=_failing_compute)
        answer = service.topk(3, k=5)
        assert answer.path == "cached"
        assert answer.epsilon == 0.05  # the bound the row actually satisfies
        _counters(service, queries=1, exact_failures=1, cached_served=1)
        assert cache.stats()["row_hits"] == 1

    def test_repeated_sources_count_per_query_on_the_cached_rung(
            self, graph, tmp_path):
        cache_dir = str(tmp_path / "operators")
        simrank_operator(graph, SimRankConfig(
            method="localpush", epsilon=0.05, top_k=None,
            cache_dir=cache_dir))
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1, cache_dir=cache_dir),
            compute_exact=_failing_compute)
        answers = service.topk_batch([3, 3, 7], k=5)
        assert [answer.path for answer in answers] == ["cached"] * 3
        assert answers[0].entries == answers[1].entries
        _counters(service, queries=3, exact_failures=3, cached_served=3)
        # One row lookup per distinct source; the counters count queries.
        assert get_operator_cache(cache_dir).stats()["row_hits"] == 2

    def test_repeated_sources_count_per_query_on_the_degraded_rung(
            self, graph):
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            compute_exact=_failing_compute)
        answers = service.topk_batch([7, 3, 7, 7], k=5)
        assert [answer.path for answer in answers] == ["degraded"] * 4
        _counters(service, queries=4, exact_failures=4, degraded_served=4)

    def test_admission_cap_trips_the_exact_rung(self, graph):
        # ε=0.01 needs ~8k pushes on this graph, the degraded ε=0.1 ~550:
        # a cap of 2000 admits only the degraded recompute.
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.01),
            serve=ServeConfig(max_pushes_per_query=2000))
        answer = service.topk(3, k=5)
        assert answer.path == "degraded"
        _counters(service, queries=1, exact_failures=1, degraded_served=1)

    def test_slow_exact_is_discarded_as_over_budget(self, graph):
        inner = {}

        def slow_exact(graph, nodes, epsilon):
            rows = inner["service"]._engine_rows(graph, nodes, epsilon)
            time.sleep(0.05)
            return rows

        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            serve=ServeConfig(time_budget_seconds=0.001),
            compute_exact=slow_exact)
        inner["service"] = service
        answer = service.topk(3, k=5)
        assert answer.path == "degraded"  # completed, but too late
        _counters(service, queries=1, batches=1, budget_overruns=1,
                  degraded_served=1)

    def test_repeated_sources_count_per_query_on_a_budget_overrun(
            self, graph):
        inner = {}

        def slow_exact(graph, nodes, epsilon):
            rows = inner["service"]._engine_rows(graph, nodes, epsilon)
            time.sleep(0.05)
            return rows

        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            serve=ServeConfig(time_budget_seconds=0.001),
            compute_exact=slow_exact)
        inner["service"] = service
        answers = service.topk_batch([3, 7, 3], k=5)
        assert [answer.path for answer in answers] == ["degraded"] * 3
        _counters(service, queries=3, batches=1, budget_overruns=3,
                  degraded_served=3)

    def test_exact_disabled_skips_straight_past_the_rung(self, graph):
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            serve=ServeConfig(exact_enabled=False))
        answer = service.topk(3, k=5)
        assert answer.path == "degraded"
        _counters(service, queries=1, degraded_served=1)  # no exact_failures

    def test_every_rung_failing_raises_serve_error(self, graph):
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            compute_exact=_failing_compute,
            compute_degraded=_failing_compute)
        with pytest.raises(ServeError):
            service.topk(3, k=5)
        counters = service.counters.to_dict()
        assert counters["failed"] == 1
        assert counters["exact_failures"] == 1
        # Served-path partition: only *answered* queries count.
        assert counters["queries"] == (counters["exact_served"]
                                       + counters["cached_served"]
                                       + counters["degraded_served"]) == 0

    def test_repeated_source_counts_every_failed_query(self, graph):
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1),
            compute_exact=_failing_compute,
            compute_degraded=_failing_compute)
        with pytest.raises(ServeError):
            service.topk_batch([3, 3], k=5)
        _counters(service, exact_failures=2, failed=2)

    def test_degraded_answer_equals_the_loosened_contract(self, graph):
        """The degraded rung is the real engine at the loosened ε."""
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.02),
            serve=ServeConfig(degraded_epsilon_factor=5.0),
            compute_exact=_failing_compute)
        answer = service.topk(3, k=5)
        reference = api_topk(graph, 3, 5, SimRankConfig(epsilon=0.1))
        assert answer.entries == reference  # 0.02 × 5 = 0.1, bitwise

    def test_invalid_source_rejected_before_the_ladder(self, graph):
        service = SimRankService(graph)
        with pytest.raises(SimRankError):
            service.topk(graph.num_nodes)
        with pytest.raises(SimRankError):
            service.topk_batch([])
        # Never truncated or parsed: 3.7 is not node 3, True not node 1.
        for source in (3.7, True, np.True_, "3"):
            with pytest.raises(SimRankError):
                service.topk(source)
            with pytest.raises(SimRankError):
                service.score(0, source)
        _counters(service)  # nothing counted

    def test_a_numpy_integer_is_the_node_it_names(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        assert service.topk(np.int64(3), k=5).entries \
            == service.topk(3, k=5).entries \
            == api_topk(graph, 3, 5, SimRankConfig(epsilon=0.1))
        answer = service.score(np.int64(3), np.int64(7))
        assert (answer.u, answer.v) == (3, 7)
        assert answer.value == service.score(3, 7).value


class TestQueryBatcher:
    def test_concurrent_clients_share_one_computation_and_match_solo(
            self, graph):
        sources = [1, 5, 9, 23]
        solo_service = SimRankService(graph,
                                      simrank=SimRankConfig(epsilon=0.1))
        solo = {source: solo_service.topk(source, k=5).entries
                for source in sources}

        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        batcher = QueryBatcher(service)
        barrier = threading.Barrier(len(sources))
        answers = {}

        def client(source):
            barrier.wait()
            answers[source] = batcher.submit(source, 5)

        threads = [threading.Thread(target=client, args=(source,))
                   for source in sources]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        for source in sources:
            assert answers[source].entries == solo[source]  # bitwise
            assert answers[source].path == "exact"
        # The four sources share one component, so one row computation.
        _counters(service, queries=4, batches=1, exact_served=4)

    def test_sequential_submits_share_the_version_rows(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        batcher = QueryBatcher(service)
        first = batcher.submit(3, 5)
        second = batcher.submit(3, 5)
        assert first.entries == second.entries
        assert first.batch_size == 1
        _counters(service, queries=2, batches=1, exact_served=2)

    def test_batch_errors_propagate_to_every_submitter(self, graph):
        service = SimRankService(graph, compute_exact=_failing_compute,
                                 compute_degraded=_failing_compute)
        batcher = QueryBatcher(service)
        with pytest.raises(ServeError):
            batcher.submit(3, 5)
        # The batcher is reusable after a failed query.
        with pytest.raises(ServeError):
            batcher.submit(4, 5)


class TestGraphVersions:
    """Each version's rows are computed once per component and shared."""

    def test_concurrent_first_readers_share_one_computation(self, graph):
        config = SimRankConfig(epsilon=0.1)
        calls = []
        inner = {}

        def counting_exact(graph, nodes, epsilon):
            calls.append(nodes.size)
            time.sleep(0.05)  # keep the computation in flight
            return inner["service"]._engine_rows(graph, nodes, epsilon)

        service = SimRankService(graph, simrank=config,
                                 compute_exact=counting_exact)
        inner["service"] = service
        # More readers than cores, sources repeated; node 28 is isolated.
        pool = [0, 3, 7, 11, 19, 23, 42]
        sources = [pool[i % len(pool)]
                   for i in range(max(8, (os.cpu_count() or 1) + 2))]
        barrier = threading.Barrier(len(sources))
        answers = [None] * len(sources)

        def reader(index):
            barrier.wait()
            answers[index] = service.topk(sources[index], k=5)

        threads = [threading.Thread(target=reader, args=(index,))
                   for index in range(len(sources))]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == [graph.num_nodes - 1]  # node 28 is isolated
        for source, answer in zip(sources, answers):
            assert answer.path == "exact"
            assert answer.entries == api_topk(graph, source, 5, config)
        _counters(service, queries=len(sources), batches=1,
                  exact_served=len(sources))

    def test_an_update_never_waits_for_a_read(self, graph):
        config = SimRankConfig(epsilon=0.1)
        entered, release = threading.Event(), threading.Event()
        inner = {}

        def blocking_exact(graph, nodes, epsilon):
            entered.set()
            assert release.wait(timeout=60)
            return inner["service"]._engine_rows(graph, nodes, epsilon)

        service = SimRankService(graph, simrank=config,
                                 compute_exact=blocking_exact)
        inner["service"] = service
        before = service.version
        reads, acks = [], []
        reader = threading.Thread(
            target=lambda: reads.append(service.topk(3, k=5)))
        reader.start()
        try:
            assert entered.wait(timeout=30)
            u, v = _absent_pair(graph)
            batch = [GraphDelta("insert", u, v)]
            updater = threading.Thread(target=lambda: acks.append(
                service.apply_update(batch, wait=True)))
            updater.start()
            updater.join(timeout=60)
            assert not updater.is_alive()
            assert reader.is_alive()  # the read is still in its computation
            updated = graph.apply_delta(batch)
            assert acks[0]["version"] == graph_fingerprint(updated) \
                == service.version != before
        finally:
            release.set()
            reader.join(timeout=60)
        assert not reader.is_alive()
        # The blocked read finished on the version it started on.
        assert reads[0].version == before == graph_fingerprint(graph)
        assert reads[0].path == "exact"
        assert reads[0].entries == api_topk(graph, 3, 5, config)
        after = service.topk(u, k=5)
        assert after.version == acks[0]["version"]
        assert after.entries == api_topk(updated, u, 5, config)

    def test_stale_is_decided_by_the_version_a_read_took(self, graph,
                                                          monkeypatch):
        config = SimRankConfig(epsilon=0.1)
        repair_entered, repair_release = threading.Event(), threading.Event()
        read_entered, read_release = threading.Event(), threading.Event()
        apply = DynamicOperator.apply

        def blocking_apply(operator, batch, *args):
            repair_entered.set()
            assert repair_release.wait(timeout=60)
            return apply(operator, batch, *args)

        monkeypatch.setattr(DynamicOperator, "apply", blocking_apply)
        inner = {}

        def blocking_exact(graph, nodes, epsilon):
            read_entered.set()
            assert read_release.wait(timeout=60)
            return inner["service"]._engine_rows(graph, nodes, epsilon)

        service = SimRankService(graph, simrank=config,
                                 compute_exact=blocking_exact)
        inner["service"] = service
        before = service.version
        u, v = _absent_pair(graph)
        service.apply_update([GraphDelta("insert", u, v)], wait=False)
        assert repair_entered.wait(timeout=60)
        reads = []
        reader = threading.Thread(
            target=lambda: reads.append(service.topk(3, k=5)))
        reader.start()
        try:
            assert read_entered.wait(timeout=30)
            # The repair lands while the read is still computing its rows.
            repair_release.set()
            _wait_until(lambda: service.version != before)
        finally:
            repair_release.set()
            read_release.set()
            reader.join(timeout=60)
        assert not reader.is_alive()
        # It took the pre-update version with the repair pending: stale.
        assert reads[0].version == before == graph_fingerprint(graph)
        counters = service.counters.to_dict()
        assert (counters["queries"], counters["stale_served"],
                counters["updates_applied"]) == (1, 1, 1)
        # A read of the landed version is not, with nothing pending.
        assert service.topk(3, k=5).version == service.version
        counters = service.counters.to_dict()
        assert (counters["queries"], counters["stale_served"]) == (2, 1)

    def test_an_empty_synchronous_update_reports_its_version(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        assert service.apply_update([], wait=True) == {
            "accepted": True, "num_deltas": 0, "background": False,
            "version": graph_fingerprint(graph)}
        ack = service.apply_update(
            [GraphDelta("insert", *_absent_pair(graph))], wait=True)
        empty = service.apply_update([], wait=True)
        assert empty["version"] == ack["version"] == service.version
        _counters(service, updates_applied=1,
                  repair_seconds=service.counters.value("repair_seconds"))

    def test_a_synchronous_update_applies_and_normalises_once(
            self, graph, monkeypatch):
        """The repair reuses the graph the validation built and the walk
        matrices the operator keeps: one ``Graph.apply_delta`` and one
        ``column_normalize`` per update once the operator is built."""
        import repro.dynamic.operator as operator_module
        import repro.simrank.engine as engine_module
        from repro.graphs.graph import Graph

        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        first, second = _absent_pairs(graph)[:2]
        service.apply_update([GraphDelta("insert", *first)], wait=True)
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Graph, "apply_delta",
                            counted("apply_delta", Graph.apply_delta))
        for module in (operator_module, engine_module):
            monkeypatch.setattr(
                module, "column_normalize",
                counted("column_normalize", module.column_normalize))
        ack = service.apply_update([GraphDelta("insert", *second)],
                                   wait=True)
        assert ack["warm_start"] == "maintained"
        assert sorted(calls) == ["apply_delta", "column_normalize"]
        updated = graph.apply_delta([GraphDelta("insert", *first),
                                     GraphDelta("insert", *second)])
        assert ack["version"] == graph_fingerprint(updated)

    def test_a_failure_that_is_not_a_simrank_error_reaches_every_reader(
            self, graph):
        entered, release = threading.Event(), threading.Event()
        calls = []

        def broken_exact(graph, nodes, epsilon):
            calls.append(nodes.size)
            entered.set()
            assert release.wait(timeout=60)
            raise RuntimeError("injected bug")

        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                 compute_exact=broken_exact)
        barrier = threading.Barrier(2)
        errors = {}

        def reader(source):
            barrier.wait()
            try:
                service.topk(source, k=5)
            except Exception as error:  # asserted below
                errors[source] = error

        threads = [threading.Thread(target=reader, args=(source,))
                   for source in (3, 7)]
        for thread in threads:
            thread.start()
        try:
            assert entered.wait(timeout=30)
            # Release only once the other reader waits on the computation.
            _wait_until(lambda: any(_waiting_in(thread, "rows")
                                    for thread in threads))
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == [graph.num_nodes - 1]  # one shared computation
        assert sorted(errors) == [3, 7]
        assert all(type(error) is RuntimeError for error in errors.values())
        _counters(service)  # neither read fell through the ladder

    @pytest.mark.parametrize("budget", [None, 1e10])
    def test_a_budget_beyond_the_wait_limit_waits_like_no_budget(
            self, graph, budget):
        """``Event.wait`` overflows above ``threading.TIMEOUT_MAX``
        (about 9.2e9 s); a larger budget must still let a second reader
        wait for the rows the first one computes."""
        assert budget is None or budget > threading.TIMEOUT_MAX
        entered, release = threading.Event(), threading.Event()
        inner = {}

        def held_exact(graph, nodes, epsilon):
            entered.set()
            assert release.wait(timeout=60)
            return inner["service"]._engine_rows(graph, nodes, epsilon)

        config = SimRankConfig(epsilon=0.1)
        service = SimRankService(
            graph, simrank=config,
            serve=ServeConfig(time_budget_seconds=budget),
            compute_exact=held_exact)
        inner["service"] = service
        answers, errors = {}, {}

        def reader(source):
            try:
                answers[source] = service.topk(source, k=5)
            except Exception as error:  # asserted below
                errors[source] = error

        first = threading.Thread(target=reader, args=(3,))
        second = threading.Thread(target=reader, args=(7,))
        first.start()
        try:
            assert entered.wait(timeout=30)
            second.start()
            _wait_until(lambda: _waiting_in(second, "rows")
                        or not second.is_alive())
        finally:
            release.set()
            for thread in (first, second):
                if thread.ident is not None:
                    thread.join(timeout=60)
        assert not first.is_alive() and not second.is_alive()
        assert errors == {}
        for source in (3, 7):
            assert answers[source].path == "exact"
            assert answers[source].entries == api_topk(graph, source, 5,
                                                       config)
        _counters(service, queries=2, batches=1, exact_served=2)

    def test_disconnected_graph_computes_each_component_once(self):
        graph = _disconnected()  # components 0–29 and 30–49, 5 isolated
        config = SimRankConfig(epsilon=0.1)
        service = SimRankService(graph, simrank=config)
        for source in range(50):
            for k in (5, None):
                if k is None:
                    answer = service.score(source, (source + 3) % 50)
                    assert answer.value == api_score(
                        graph, source, (source + 3) % 50, config)
                else:
                    answer = service.topk(source, k=k)
                    assert answer.entries == api_topk(graph, source, k,
                                                      config)
                assert answer.path == "exact"
        _counters(service, queries=100, batches=2, exact_served=100)

    def test_a_read_over_budget_falls_through_and_the_rows_stay(self, graph):
        inner = {}

        def slow_exact(graph, nodes, epsilon):
            time.sleep(0.05)
            return inner["service"]._engine_rows(graph, nodes, epsilon)

        config = SimRankConfig(epsilon=0.1)
        service = SimRankService(
            graph, simrank=config,
            serve=ServeConfig(time_budget_seconds=0.01),
            compute_exact=slow_exact)
        inner["service"] = service
        assert service.topk(3, k=5).path == "degraded"
        answer = service.topk(7, k=5)
        assert answer.path == "exact"
        assert answer.entries == api_topk(graph, 7, 5, config)
        _counters(service, queries=2, batches=1, budget_overruns=1,
                  degraded_served=1, exact_served=1)

    def test_a_failed_computation_is_not_kept(self, graph):
        failures = []
        inner = {}

        def failing_once(graph, nodes, epsilon):
            if not failures:
                failures.append(nodes.size)
                raise SimRankError("injected cap")
            return inner["service"]._engine_rows(graph, nodes, epsilon)

        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                 compute_exact=failing_once)
        inner["service"] = service
        assert service.topk(3, k=5).path == "degraded"
        assert service.topk(3, k=5).path == "exact"
        _counters(service, queries=2, batches=1, exact_failures=1,
                  degraded_served=1, exact_served=1)

    def test_answers_report_the_graph_that_reproduces_them(self, graph):
        config = SimRankConfig(epsilon=0.1)
        daemon = make_daemon(graph, simrank=config,
                             serve=ServeConfig(port=0))
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            served = graph
            for batch in (None, [GraphDelta("insert", *_absent_pair(graph))]):
                if batch is not None:
                    status, ack = _post(daemon, "/update", {
                        "deltas": [delta.to_dict() for delta in batch],
                        "wait": True})
                    assert status == 200
                    served = served.apply_delta(batch)
                    assert ack["version"] == graph_fingerprint(served)
                version = graph_fingerprint(served)
                assert TestDaemon._get(daemon, "/healthz")[1]["version"] \
                    == version
                status, top = TestDaemon._get(daemon, "/topk?u=3&k=5")
                assert status == 200 and top["version"] == version
                assert [tuple(entry) for entry in top["entries"]] \
                    == api_topk(served, 3, 5, config)
                status, pair = TestDaemon._get(daemon, "/score?u=3&v=17")
                assert status == 200 and pair["version"] == version
                assert pair["score"] == api_score(served, 3, 17, config)
        finally:
            daemon.shutdown()
            daemon.server_close()
            thread.join(timeout=5)


class TestDaemon:
    @pytest.fixture()
    def daemon(self, graph):
        daemon = make_daemon(graph, simrank=SimRankConfig(epsilon=0.1),
                             serve=ServeConfig(port=0))
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        yield daemon
        daemon.shutdown()
        daemon.server_close()
        thread.join(timeout=5)

    @staticmethod
    def _get(daemon, path):
        host, port = daemon.server_address[0], daemon.server_address[1]
        try:
            with urllib.request.urlopen(
                    f"http://{host}:{port}{path}", timeout=10) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            return error.code, json.load(error)

    def test_healthz(self, daemon, graph):
        status, payload = self._get(daemon, "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "num_nodes": graph.num_nodes,
                           "version": graph_fingerprint(graph)}

    def test_topk_roundtrip(self, daemon, graph):
        status, payload = self._get(daemon, "/topk?u=3&k=5")
        assert status == 200
        assert payload["source"] == 3 and payload["k"] == 5
        assert payload["path"] == "exact"
        assert payload["epsilon"] == 0.1
        expected = api_topk(graph, 3, 5, SimRankConfig(epsilon=0.1))
        assert [(node, value) for node, value in payload["entries"]] \
            == expected
        assert payload["counters"]["exact_served"] == 1

    def test_score_roundtrip(self, daemon, graph):
        status, payload = self._get(daemon, "/score?u=3&v=17")
        assert status == 200
        assert payload["u"] == 3 and payload["v"] == 17
        assert payload["path"] == "exact"
        full = dict(api_topk(graph, 3, graph.num_nodes,
                             SimRankConfig(epsilon=0.1)))
        assert payload["score"] == full.get(17, 0.0)

    def test_metrics_shape(self, daemon):
        self._get(daemon, "/topk?u=3")
        status, payload = self._get(daemon, "/metrics")
        assert status == 200
        assert set(payload) == {"counters", "latency", "cache", "graph",
                                "config"}
        assert payload["counters"]["queries"] == 1
        assert payload["graph"]["num_nodes"] == 60
        assert payload["config"]["epsilon"] == 0.1
        assert not {"kernel", "backend"} & set(payload["config"])
        assert payload["config"]["dtype"] == "float64"
        assert payload["cache"] is None  # no cache_dir configured
        latency = payload["latency"]
        assert set(latency) == {"paths", "qps", "window_size"}
        assert latency["window_size"] is None  # every query since start
        assert set(latency["paths"]) == set(SERVE_PATHS)
        exact = latency["paths"]["exact"]
        assert exact["count"] == 1
        assert 0.0 <= exact["p50_seconds"] <= exact["p95_seconds"] \
            <= exact["p99_seconds"]
        assert latency["paths"]["cached"] is None
        assert latency["paths"]["degraded"] is None

    def test_bad_requests_are_400(self, daemon, graph):
        assert self._get(daemon, f"/topk?u={graph.num_nodes}")[0] == 400
        assert self._get(daemon, "/topk")[0] == 400  # missing u
        assert self._get(daemon, "/topk?u=abc")[0] == 400
        assert self._get(daemon, "/score?u=1")[0] == 400  # missing v

    @pytest.mark.parametrize("k", [0, -3])
    def test_out_of_range_k_is_400_and_counts_nothing(self, daemon, k):
        status, payload = self._get(daemon, f"/topk?u=1&k={k}")
        assert status == 400
        assert "k must be a positive integer" in payload["error"]
        counters = daemon.service.counters.to_dict()
        assert counters["queries"] == 0
        assert counters["exact_failures"] == 0 and counters["failed"] == 0

    @staticmethod
    def _post_with_length(daemon, content_length):
        """POST /update with a hand-set Content-Length header."""
        import http.client

        host, port = daemon.server_address[0], daemon.server_address[1]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("POST", "/update")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", content_length)
            connection.endheaders(b"{}")
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_non_numeric_content_length_is_400(self, daemon):
        status, payload = self._post_with_length(daemon, "abc")
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert self._get(daemon, "/healthz")[0] == 200

    def test_negative_content_length_is_400(self, daemon):
        status, payload = self._post_with_length(daemon, "-1")
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert self._get(daemon, "/healthz")[0] == 200

    def test_an_empty_waited_update_reports_its_version(self, daemon,
                                                         graph):
        status, payload = _post(daemon, "/update",
                                {"deltas": [], "wait": True})
        assert status == 200
        assert payload["num_deltas"] == 0 and not payload["background"]
        assert payload["version"] == graph_fingerprint(graph)
        assert payload["counters"]["updates_applied"] == 0

    def test_non_integral_update_endpoint_is_400(self, daemon, graph):
        # A truncating int() would read 0.5 above an edge's endpoint as
        # that endpoint and delete a real edge.
        u, v = (int(node) for node in graph.edge_list()[0])
        status, payload = _post(daemon, "/update", {
            "deltas": [{"kind": "delete", "u": u + 0.5, "v": v}],
            "wait": True})
        assert status == 400
        assert "must be integers" in payload["error"]
        assert daemon.service.graph.num_edges == graph.num_edges
        assert daemon.service.counters.to_dict()["updates_applied"] == 0

    def test_unknown_path_is_404(self, daemon):
        assert self._get(daemon, "/nope")[0] == 404

    def test_prometheus_endpoint(self, daemon):
        self._get(daemon, "/topk?u=3")
        host, port = daemon.server_address[0], daemon.server_address[1]
        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics/prometheus",
                timeout=10) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_serve_queries_total counter" in text
        assert "repro_serve_queries_total 1" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert 'repro_serve_latency_seconds_count{path="exact"} 1' in text
        assert "quantile=" not in text  # no scrape-time quantile gauge
        assert "repro_serve_graph_nodes 60" in text

    def test_exhausted_ladder_is_503_and_the_daemon_survives(self, graph):
        service = SimRankService(graph, compute_exact=_failing_compute,
                                 compute_degraded=_failing_compute)
        daemon = ServeDaemon(("127.0.0.1", 0), service)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            status, payload = self._get(daemon, "/topk?u=3")
            assert status == 503
            assert "every serving rung failed" in payload["error"]
            assert self._get(daemon, "/healthz")[0] == 200  # still alive
        finally:
            daemon.shutdown()
            daemon.server_close()
            thread.join(timeout=5)


def _full_disk(*args, **kwargs):
    raise OSError(28, "No space left on device")


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never reached"
        time.sleep(0.01)


def _waiting_in(thread, caller):
    """Whether ``thread`` is blocked in a ``wait`` that ``caller`` called."""
    frame = sys._current_frames().get(thread.ident)
    while frame is not None and frame.f_back is not None:
        if (frame.f_code.co_name, frame.f_back.f_code.co_name) \
                == ("wait", caller):
            return True
        frame = frame.f_back
    return False


class TestChainStoreFailure:
    """A failed snapshot cache write must not wedge the service."""

    @pytest.mark.parametrize("wait", [False, True],
                             ids=["background", "wait"])
    def test_repair_lands_and_the_error_is_recorded(
            self, graph, tmp_path, monkeypatch, wait):
        service = SimRankService(graph, simrank=SimRankConfig(
            epsilon=0.1, cache_dir=str(tmp_path / "operators")))
        monkeypatch.setattr(service.cache, "store", _full_disk)
        u, v = _absent_pair(graph)
        ack = service.apply_update([GraphDelta("insert", u, v)], wait=wait)
        assert ack["accepted"] is True
        _wait_until(lambda: service.last_update_error is not None)
        assert "No space left on device" in service.last_update_error
        # The repair landed: the graph swapped and the counters count it.
        assert service.graph.num_edges == graph.num_edges + 1
        counters = service.counters.to_dict()
        assert counters["updates_applied"] == 1
        assert counters["repair_seconds"] > 0.0
        # Nothing is left pending, so later queries are not stale.
        assert service.topk(u, k=5).path == "exact"
        assert service.counters.to_dict()["stale_served"] == 0
        assert service.cache.stats()["stores"] == 0

    def test_synchronous_http_update_answers_200(self, graph, tmp_path,
                                                 monkeypatch):
        daemon = make_daemon(
            graph, simrank=SimRankConfig(
                epsilon=0.1, cache_dir=str(tmp_path / "operators")),
            serve=ServeConfig(port=0))
        monkeypatch.setattr(daemon.service.cache, "store", _full_disk)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            u, v = _absent_pair(graph)
            status, payload = _post(daemon, "/update", {
                "deltas": [{"kind": "insert", "u": u, "v": v}],
                "wait": True})
            assert status == 200
            assert payload["background"] is False
            assert payload["counters"]["updates_applied"] == 1
            daemon.service.close()  # "wait" covers the repair, not the write
            assert "No space left" in daemon.service.last_update_error
        finally:
            daemon.shutdown()
            daemon.server_close()
            thread.join(timeout=5)


class TestChainWriteWindow:
    """Between the swap and the snapshot write, the cached rung has no row."""

    def test_query_answers_degraded_until_the_write_lands(
            self, graph, tmp_path, monkeypatch):
        config = SimRankConfig(epsilon=0.1,
                               cache_dir=str(tmp_path / "operators"))
        # A pre-update entry the cached rung can serve.
        simrank_operator(graph, config.with_overrides(method="localpush"))
        service = SimRankService(graph, simrank=config,
                                 compute_exact=_failing_compute)
        u, v = _absent_pair(graph)
        assert service.topk(u, k=5).path == "cached"
        entered, release = threading.Event(), threading.Event()
        store = service.cache.store

        def blocking_store(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=30)
            return store(*args, **kwargs)

        monkeypatch.setattr(service.cache, "store", blocking_store)
        service.apply_update([GraphDelta("insert", u, v)], wait=True)
        assert entered.wait(timeout=30)
        assert service.graph.num_edges == graph.num_edges + 1
        # Never the pre-update entry: the served graph's fingerprint moved.
        assert service.topk(u, k=5).path == "degraded"
        release.set()
        service.close()
        answer = service.topk(u, k=5)
        assert (answer.path, answer.epsilon) == ("cached", 0.1)
        assert service.last_update_error is None


class TestConcurrentUpdatesAndQueries:
    def test_background_updates_beside_queries(self, tmp_path):
        graph = _erdos_renyi(50, 0.08, seed=3)
        config = SimRankConfig(epsilon=0.1,
                               cache_dir=str(tmp_path / "operators"))
        service = SimRankService(graph, simrank=config)
        pairs = iter(_absent_pairs(graph))
        # More sender threads than cores, beside two query threads.
        senders, per_sender = (os.cpu_count() or 1) + 2, 2
        chunks = [[[GraphDelta("insert", *next(pairs))]
                   for _ in range(per_sender)] for _ in range(senders)]
        errors = []

        def send(chunk):
            try:
                for batch in chunk:
                    service.apply_update(batch, wait=False)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        def query(offset):
            try:
                for i in range(15):
                    service.topk((offset + 7 * i) % graph.num_nodes, k=5)
            except Exception as error:
                errors.append(error)

        threads = ([threading.Thread(target=send, args=(chunk,))
                    for chunk in chunks]
                   + [threading.Thread(target=query, args=(offset,))
                      for offset in (0, 3)])
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            sent = senders * per_sender
            _wait_until(lambda: service.counters.to_dict()["updates_applied"]
                        == sent, timeout=120)
            service.close()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert service.counters.to_dict()["updates_applied"] == sent
        assert service.last_update_error is None
        operator = service._dynamic_op
        assert operator.updates_applied == sent
        # The newest state was written last, under its graph's key.
        replayed = DynamicOperator(operator.graph, simrank=config)
        assert replayed.build_cache_hit and replayed.build_pushes == 0
        expected = operator.operator().matrix
        actual = replayed.operator().matrix
        assert np.array_equal(expected.indptr, actual.indptr)
        assert np.array_equal(expected.indices, actual.indices)
        assert np.array_equal(expected.data, actual.data)
        assert list((tmp_path / "operators").glob("*.tmp*")) == []


class TestServeProcessStop:
    def test_sigterm_drains_the_snapshot_write_and_exits_zero(self,
                                                              tmp_path):
        import repro
        from repro.datasets.registry import load_dataset

        cache_dir = tmp_path / "cache"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "texas",
             "--port", "0", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60)
            assert ready, "the daemon printed nothing within 60 s"
            banner = process.stdout.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            graph = load_dataset("texas").graph
            u, v = _absent_pair(graph)
            batch = [GraphDelta("insert", u, v)]
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/update", method="POST",
                data=json.dumps({"deltas": [delta.to_dict()
                                            for delta in batch],
                                 "wait": True}).encode())
            with urllib.request.urlopen(request, timeout=60) as response:
                assert json.load(response)["counters"]["updates_applied"] == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0, process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()
        replayed = api_apply_updates(
            graph, batch, config=SimRankConfig(cache_dir=str(cache_dir)))
        assert replayed.build_cache_hit
        assert replayed.build_pushes == 0 and replayed.repair_pushes == 0
        assert list(cache_dir.glob("*.tmp*")) == []


class TestLatencyWindow:
    """The ``/metrics`` latency section, read back from the histogram."""

    def test_no_queries_yet(self):
        counters = ServiceCounters()
        summary = counters.latency_summary()
        assert all(summary["paths"][path] is None for path in SERVE_PATHS)
        assert summary["qps"] is None
        assert summary["window_size"] is None

    def test_single_sample_quantiles_lie_in_its_bucket(self):
        counters = ServiceCounters()
        counters.record_latency("exact", 0.125)  # bucket (0.1, 0.25]
        exact = counters.latency_summary()["paths"]["exact"]
        assert exact["count"] == 1
        assert 0.1 < exact["p50_seconds"] <= exact["p95_seconds"] \
            <= exact["p99_seconds"] <= 0.25
        # Linear interpolation across the bucket, Prometheus-style.
        assert exact["p50_seconds"] == pytest.approx(0.175)
        assert exact["p99_seconds"] == pytest.approx(0.2485)
        # The other paths stay untouched.
        assert counters.latency_summary()["paths"]["cached"] is None

    def test_quantiles_cover_every_query_since_start(self):
        counters = ServiceCounters()
        for _ in range(3):
            counters.record_latency("exact", 0.001)
        counters.record_latency("exact", 100.0)  # past the top bound
        exact = counters.latency_summary()["paths"]["exact"]
        assert exact["count"] == 4
        assert 0.0 < exact["p50_seconds"] <= 0.005
        assert exact["p99_seconds"] == 10.0  # +Inf clamps to the top bound

    def test_summary_reads_the_registry_histogram(self):
        counters = ServiceCounters()
        counters.record_latency("cached", 0.02)
        counters.record_latency("cached", 0.06)
        histogram = counters.registry.histogram("repro_serve_latency_seconds")
        assert histogram.series()[(("path", "cached"),)].count == 2
        cached = counters.latency_summary()["paths"]["cached"]
        assert cached["p50_seconds"] == histogram.quantile(0.5, path="cached")

    def test_qps_needs_two_distinct_instants(self):
        counters = ServiceCounters()
        counters.record_latency("exact", 0.1)
        # A single instant gives no span; qps stays None rather than inf.
        first = counters.latency_summary()["qps"]
        assert first is None or first > 0.0  # same-tick second sample races
        time.sleep(0.01)
        counters.record_latency("exact", 0.1)
        assert counters.latency_summary()["qps"] > 0.0


class TestCounterThreadSafety:
    """The satellite the registry re-base exists for: no lost updates."""

    def test_concurrent_increments_are_atomic(self):
        counters = ServiceCounters()
        increments, threads = 2000, 8

        def worker():
            for _ in range(increments):
                counters.inc("queries")
                counters.inc("repair_seconds", 0.5)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        totals = counters.to_dict()
        assert totals["queries"] == threads * increments
        assert totals["repair_seconds"] == pytest.approx(
            0.5 * threads * increments)

    def test_concurrent_latency_recording(self):
        counters = ServiceCounters()

        def worker(path):
            for _ in range(500):
                counters.record_latency(path, 0.01)

        pool = [threading.Thread(target=worker, args=(path,))
                for path in SERVE_PATHS for _ in range(2)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        summary = counters.latency_summary()
        for path in SERVE_PATHS:
            assert summary["paths"][path]["count"] == 1000

    def test_counters_view_matches_the_registry(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        service.topk(3, k=5)
        assert service.counters.value("queries") == 1.0
        registry_counter = service.counters.registry.counter(
            "repro_serve_queries_total")
        assert registry_counter.value() == 1.0
