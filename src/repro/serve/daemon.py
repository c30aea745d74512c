"""Long-lived HTTP daemon exposing the serving layer (stdlib only).

Endpoints (all ``GET``, all JSON):

``/topk?u=<node>[&k=<k>]``
    Top-k most similar nodes to ``u``, answered at once through the
    :class:`repro.serve.batching.QueryBatcher` (no coalescing window: a
    read slices the served graph version's shared rows).  The response
    carries the serving ``path`` (exact/degraded), the
    ``epsilon`` the answer satisfies, the ``version`` (fingerprint of
    the graph that answered) and the live counters.
``/score?u=<node>&v=<node>``
    The single-pair score, same provenance fields.
``/metrics``
    :meth:`repro.serve.service.SimRankService.metrics` — per-path
    counters, operator cache statistics, graph and config echo.
``/metrics/prometheus``
    The same numbers in the Prometheus text exposition format — the
    service registry, then the operator cache's
    (:meth:`repro.serve.service.SimRankService.prometheus_metrics`);
    the one non-JSON endpoint, served with the standard
    ``text/plain; version=0.0.4`` content type for scrapers.
``/healthz``
    Liveness probe; reports the node count and the current ``version``.
``/update`` (``POST``)
    Apply an edge-update batch to the served graph.  The JSON body is
    the :meth:`repro.graphs.delta.UpdateBatch.to_dict` shape —
    ``{"deltas": [{"kind": "insert", "u": 0, "v": 1}, ...]}``.  The
    response comes once the repair has landed and the graph version has
    swapped, and carries the repair telemetry and the new ``version``.
    An optional boolean ``"wait"`` is accepted and changes nothing (any
    other value is a 400).  The response does not cover the repaired
    snapshot's cache entry: a background writer stores it afterwards
    (see :class:`repro.dynamic.operator.DynamicOperator`).  Queries
    answer from the pre-update version until the update answers; an
    update never waits for a read.

Bad parameters (and invalid deltas) are a 400, an exhausted degradation
ladder a 503 — the daemon never dies on a query.  ``main`` is the
``repro.cli serve`` subcommand: it builds the four configs from its
flags (a value they reject exits 2 with one line, before anything
loads), loads a registry dataset, builds the service stack and blocks
in ``serve_forever`` until Ctrl-C or SIGTERM.
Either way :meth:`ServeDaemon.server_close` then runs, which calls
:meth:`repro.serve.service.SimRankService.close`: it waits for the
update in progress and drains its snapshot write, so the newest entry is
on disk (and no temporary file is left) before the process exits 0.
"""

from __future__ import annotations

import argparse
import json
import signal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.config import (DynamicConfig, ServeConfig, SimRankConfig,
                          TelemetryConfig)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.telemetry.runtime import Telemetry
from repro.errors import (ConfigError, GraphError, ReproError, ServeError,
                          SimRankError)
from repro.graphs.graph import Graph
from repro.serve.batching import QueryBatcher
from repro.serve.service import SimRankService


class ServeDaemon(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one service + batcher stack."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SimRankService,
                 batcher: Optional[QueryBatcher] = None) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.batcher = batcher if batcher is not None else QueryBatcher(service)

    def server_close(self) -> None:
        """Close the socket, then drain the service's snapshot write.

        :meth:`repro.serve.service.SimRankService.close` waits for the
        update in progress and its repaired snapshot's cache entry.
        """
        super().server_close()
        self.service.close()


def _content_length(raw: Optional[str]) -> int:
    """The request body size: a missing header is 0, anything but a
    non-negative integer is a :class:`ConfigError` (a 400)."""
    if not raw:
        return 0
    try:
        length = int(raw)
    except ValueError:
        raise ConfigError(
            f"Content-Length must be a non-negative integer, "
            f"got {raw!r}") from None
    if length < 0:
        raise ConfigError(
            f"Content-Length must be a non-negative integer, got {length}")
    return length


def _query_int(params: Dict[str, List[str]], name: str,
               required: bool = True) -> Optional[int]:
    values = params.get(name, [])
    if not values:
        if required:
            raise ConfigError(f"missing required query parameter {name!r}")
        return None
    try:
        return int(values[-1])
    except ValueError:
        raise ConfigError(
            f"query parameter {name!r} must be an integer, "
            f"got {values[-1]!r}") from None


class _Handler(BaseHTTPRequestHandler):
    server: ServeDaemon

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging; /metrics is the record."""

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        service = self.server.service
        try:
            if parsed.path == "/healthz":
                self._send_json(200, {
                    "status": "ok",
                    "num_nodes": int(service.graph.num_nodes),
                    "version": service.version,
                })
            elif parsed.path == "/metrics":
                self._send_json(200, service.metrics())
            elif parsed.path == "/metrics/prometheus":
                from repro.telemetry.exposition import PROMETHEUS_CONTENT_TYPE

                self._send_text(200, service.prometheus_metrics(),
                                PROMETHEUS_CONTENT_TYPE)
            elif parsed.path == "/topk":
                u = _query_int(params, "u")
                k = _query_int(params, "k", required=False)
                assert u is not None
                answer = self.server.batcher.submit(u, k)
                self._send_json(200, {
                    "source": answer.source,
                    "k": answer.k,
                    "entries": [[node, value]
                                for node, value in answer.entries],
                    "path": answer.path,
                    "epsilon": answer.epsilon,
                    "elapsed_seconds": answer.elapsed_seconds,
                    "batch_size": answer.batch_size,
                    "version": answer.version,
                    "counters": service.counters.to_dict(),
                })
            elif parsed.path == "/score":
                u = _query_int(params, "u")
                v = _query_int(params, "v")
                assert u is not None and v is not None
                answer = service.score(u, v)
                self._send_json(200, {
                    "u": answer.u,
                    "v": answer.v,
                    "score": answer.value,
                    "path": answer.path,
                    "epsilon": answer.epsilon,
                    "elapsed_seconds": answer.elapsed_seconds,
                    "version": answer.version,
                    "counters": service.counters.to_dict(),
                })
            else:
                self._send_json(404, {"error": f"unknown path {parsed.path!r}"})
        except ServeError as error:
            self._send_json(503, {"error": str(error)})
        except (ConfigError, GraphError, SimRankError) as error:
            self._send_json(400, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        service = self.server.service
        try:
            if parsed.path != "/update":
                self._send_json(404, {"error": f"unknown path {parsed.path!r}"})
                return
            length = _content_length(self.headers.get("Content-Length"))
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ConfigError(
                    f"/update body must be a JSON object: {error}") from None
            if not isinstance(payload, dict):
                raise ConfigError("/update body must be a JSON object with "
                                  "a 'deltas' list")
            # Every update answers once it has landed; a boolean "wait"
            # from older clients is accepted and changes nothing.
            wait = payload.pop("wait", None)
            if wait is not None and not isinstance(wait, bool):
                raise ConfigError(f"'wait' must be a boolean, got {wait!r}")
            from repro.graphs.delta import UpdateBatch

            batch = UpdateBatch.from_dict(payload)
            result = service.apply_update(batch)
            self._send_json(200, {
                **result,
                "counters": service.counters.to_dict(),
            })
        except ServeError as error:
            self._send_json(503, {"error": str(error)})
        except (ConfigError, GraphError, SimRankError) as error:
            self._send_json(400, {"error": str(error)})


def make_daemon(graph: Graph, *, simrank: Optional[SimRankConfig] = None,
                serve: Optional[ServeConfig] = None,
                dynamic: Optional[DynamicConfig] = None,
                telemetry: Optional["Telemetry"] = None) -> ServeDaemon:
    """Build the full daemon stack (service → batcher → HTTP server).

    Binds immediately; ``serve.port=0`` picks a free port
    (``daemon.server_address`` reports the bound one).  The caller owns
    the lifecycle: ``serve_forever()`` to run, ``shutdown()`` +
    ``server_close()`` to stop (the latter drains the snapshot write).
    ``telemetry`` threads an enabled handle through the whole stack
    (service counters and spans — see
    :class:`repro.serve.service.SimRankService`).
    """
    serve = serve if serve is not None else ServeConfig()
    service = SimRankService(graph, simrank=simrank, serve=serve,
                             dynamic=dynamic, telemetry=telemetry)
    return ServeDaemon((serve.host, serve.port), service)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve single-source SimRank queries over HTTP.")
    parser.add_argument("dataset",
                        help="registry dataset to load and serve")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset generation seed (default 0)")
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="dataset down-scaling factor")
    parser.add_argument("--host", default=None, help="bind host")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (0 picks a free one)")
    parser.add_argument("--serve-top-k", type=int, default=None,
                        help="default k for /topk requests")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="per-query wall budget in seconds for the "
                             "exact rows to be ready")
    parser.add_argument("--max-pushes-per-query", type=int, default=None,
                        help="admission cap on the frontier absorptions "
                             "of one row computation")
    parser.add_argument("--degraded-epsilon-factor", type=float, default=None,
                        help="looser-ε fallback multiplier")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="operator error bound ε")
    parser.add_argument("--decay", type=float, default=None,
                        help="SimRank decay factor c")
    parser.add_argument("--cache-dir", default=None,
                        dest="simrank_cache_dir", metavar="CACHE_DIR",
                        help="operator cache directory (the update "
                             "repair's warm start and snapshots)")
    parser.add_argument("--max-batch-edges", type=int, default=None,
                        help="largest /update batch accepted")
    parser.add_argument("--repair-max-pushes", type=int, default=None,
                        help="admission cap on repair frontier absorptions")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the telemetry subsystem: spans are "
                             "recorded in memory and every instrumented "
                             "layer shares the /metrics/prometheus registry")
    parser.add_argument("--trace-path", default=None, metavar="PATH",
                        help="append finished spans to a JSONL trace file "
                             "(implies --telemetry; summarise with "
                             "repro-trace)")
    parser.add_argument("--max-recorded-spans", type=int, default=None,
                        help="cap on the in-memory span recorder")
    return parser


def _interrupt(signum: int, frame: object) -> None:
    """SIGTERM handler: end ``serve_forever`` the way Ctrl-C does."""
    raise KeyboardInterrupt


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro.cli serve`` entry point: load, bind, serve forever."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        simrank_config = SimRankConfig.from_cli_args(args)
        serve_config = ServeConfig.from_cli_args(args)
        dynamic_config = DynamicConfig.from_cli_args(args)
        telemetry_config = TelemetryConfig.from_cli_args(args)
    except ConfigError as error:
        parser.error(str(error))

    from repro.datasets.registry import load_dataset

    try:
        dataset = load_dataset(args.dataset, seed=args.seed,
                               scale_factor=args.scale_factor)
    except ReproError as error:
        parser.error(str(error))
    from repro.telemetry import telemetry_from_config

    telemetry = telemetry_from_config(telemetry_config)
    daemon = make_daemon(dataset.graph, simrank=simrank_config,
                         serve=serve_config, dynamic=dynamic_config,
                         telemetry=telemetry)
    host, port = daemon.server_address[0], daemon.server_address[1]
    print(f"serving {args.dataset} ({dataset.graph.num_nodes} nodes) "
          f"on http://{host}:{port} — endpoints: /topk /score /metrics "
          f"/metrics/prometheus /healthz /update")
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # A second SIGTERM while draining kills the process outright.
        signal.signal(signal.SIGTERM, previous)
        daemon.server_close()
        telemetry.close()
    return 0


__all__ = ["ServeDaemon", "make_daemon", "build_parser", "main"]
