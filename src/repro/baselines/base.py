"""Common interface and accounting for all tracing frameworks.

The evaluation charges every framework through the same two meters:

* **network** — bytes crossing from application nodes to the tracing
  backend (trace data, breadcrumbs, Bloom filters, control messages);
* **storage** — bytes the backend persists.

A framework receives complete traces (the generator plays the role of
instrumented applications) and decides what to ship and keep.  Every
framework is also a :class:`~repro.query.engine.QueryEngine`: it
answers the unified :class:`~repro.query.result.QueryResult` for point
lookups and accepts declarative :class:`~repro.query.spec.QuerySpec`
queries through ``execute`` — one query surface, one result model,
whether the store underneath is '1 or 0' traces or Mint's
pattern + parameter split.
"""

from __future__ import annotations

import abc
from typing import Iterable

from repro.model.trace import Trace
from repro.query.cursor import QueryCursor
from repro.query.planner import PlanStats
from repro.query.result import QueryResult, QueryStatus
from repro.query.spec import QuerySpec, matches_result
from repro.sim.meters import OverheadLedger


class TracingFramework(abc.ABC):
    """Base class: meters plus the ingest/query contract."""

    name: str = "framework"

    def __init__(self) -> None:
        self.ledger = OverheadLedger()

    @property
    def network_bytes(self) -> int:
        """Total agent->backend bytes."""
        return self.ledger.network.total_bytes

    @property
    def storage_bytes(self) -> int:
        """Total persisted bytes."""
        return self.ledger.storage.total_bytes

    @abc.abstractmethod
    def process_trace(self, trace: Trace, now: float = 0.0) -> None:
        """Ingest one complete trace generated at time ``now``."""

    def finalize(self, now: float = 0.0) -> None:
        """Flush any buffered state at the end of a run."""

    @abc.abstractmethod
    def query(self, trace_id: str) -> QueryResult:
        """Answer a trace-id query."""

    def execute(self, spec: QuerySpec) -> QueryCursor:
        """Run one declarative query spec against this framework.

        The default engine suits every '1 or 0' store: point/batch
        specs answer one result per requested id (misses included);
        predicate specs sweep the candidate universe — the spec's
        ``trace_ids``, falling back to the framework's enumerable
        stored population — and yield only matching hits.  Evaluation
        is lazy and bounded by ``spec.limit``.  ``pull_params`` is a
        no-op here: only Mint's collectors buffer anything to pull.
        """
        stats = PlanStats()

        def results():
            # The enumerable-population fallback applies to *predicate*
            # sweeps only: a bare batch answers exactly the ids it was
            # given, so an empty batch yields nothing (matching the
            # planner's candidate rules — a baseline must not inflate a
            # Fig. 12 sweep just because the id list came up empty).
            ids = spec.trace_ids
            if not ids and spec.has_predicates:
                ids = tuple(sorted(self.stored_trace_ids()))
            for trace_id in ids:
                if spec.limit is not None and stats.yielded >= spec.limit:
                    return
                stats.candidates += 1
                result = self.query(trace_id)
                if spec.has_predicates and not matches_result(spec, result):
                    if result.status is not QueryStatus.MISS:
                        stats.predicate_rejected += 1
                    continue
                stats.yielded += 1
                yield result

        return QueryCursor(spec, results(), stats)

    def query_many(self, trace_ids: Iterable[str]) -> QueryCursor:
        """Batch lookup: one result per id, request order, misses kept."""
        return self.execute(QuerySpec.batch(trace_ids))

    def stored_trace_ids(self) -> set[str]:
        """Trace ids the framework can answer exactly (for RCA feeds)."""
        return set()
