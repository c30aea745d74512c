"""The daemon's ``/topk`` entry point.

:class:`QueryBatcher` sits between the daemon's thread-per-request
handlers and the :class:`repro.serve.service.SimRankService`.  Each
submission is answered at once by :meth:`SimRankService.topk` on the
graph version current when it arrives.  There is no coalescing window:
the work worth sharing is a version's row computation, which concurrent
first readers of a component already share inside the service, after
which a read is a row slice.  Waiting for company would only add
latency.
"""

from __future__ import annotations

from typing import Optional

from repro.serve.service import QueryAnswer, SimRankService


class QueryBatcher:
    """Answer ``/topk`` submissions through one service."""

    def __init__(self, service: SimRankService) -> None:
        self.service = service

    def submit(self, source: int, k: Optional[int] = None) -> QueryAnswer:
        """Answer one query; raises what :meth:`SimRankService.topk` raises."""
        return self.service.topk(source, k)


__all__ = ["QueryBatcher"]
