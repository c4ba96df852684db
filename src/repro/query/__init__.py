"""The unified query plane (paper Section 4.3, Figs. 3 and 12).

One declarative surface for every after-the-fact trace query, shared by
the Mint framework and all baselines:

* :class:`QuerySpec` — a frozen description of *what* to fetch: a point
  lookup, a batch of trace ids, or a predicate query (service,
  operation, error status, time window, topo-pattern id), plus options
  (retroactive parameter pull, result limit);
* :class:`QueryPlanner` — compiles a spec into a plan that runs the
  reference querier over the store, one ``patterns_matching_trace``
  lookup per id (the merged view pushes the OR'd Bloom negative
  pre-screen down to every shard), with predicate filters judged on
  each reconstruction and repeated ids served from a per-plan memo;
* :class:`QueryCursor` — a streaming iterator of typed results, so a
  batch over thousands of ids never materialises the full result set;
* :class:`QueryResult` / :class:`QueryStatus` — the one result model:
  ``exact`` (full reconstruction), ``partial`` (approximate trace) or
  ``miss``, replacing both the backend's stringly status and the
  baselines' former parallel result wrapper;
* :class:`QueryEngine` — the protocol every framework implements
  (``execute`` / ``query`` / ``query_many``).

Correctness contract (the bit-identity gate,
``benchmarks/perf/run.py query --check``): a point lookup
compiled through the planner returns exactly the reference
:class:`~repro.backend.querier.Querier` answer — same status, same
reconstructed spans, same approximate segments — for every deployment
topology, and a batch yields exactly the looped point lookups' answers:
the pre-screen may skip probes it proves fruitless, never change an
answer.
"""

from repro.query.cursor import QueryCursor
from repro.query.engine import QueryEngine
from repro.query.planner import PlanStats, QueryPlanner
from repro.query.result import (
    ApproximateSegment,
    ApproximateTrace,
    QueryResult,
    QueryStatus,
)
from repro.query.spec import QuerySpec, matches_result

__all__ = [
    "ApproximateSegment",
    "ApproximateTrace",
    "PlanStats",
    "QueryCursor",
    "QueryEngine",
    "QueryPlanner",
    "QueryResult",
    "QuerySpec",
    "QueryStatus",
    "matches_result",
]
