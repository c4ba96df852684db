"""The SRE query workload model behind Figs. 3 and 12.

The paper's key empirical finding (RQ2) is that *which traces get
queried cannot be predicted at sampling time*: analysts query specific
trace ids days later, many of them ordinary traces near an incident
window.  :class:`QueryWorkload` reproduces that behaviour: a fraction
of queries target known-abnormal traces, the rest are drawn (seeded,
uniformly) from the whole population — the unpredictable tail that
drives the ~27 % miss rate of '1 or 0' sampling.

:func:`incident_window_spec` expresses the paper's
Mar. 21 investigation ("all error traces for service X in the incident
window") as one declarative predicate query whose candidate universe
is the analyst's request log — exactly the after-the-fact setting the
paper models, since a pattern-based store can only *answer about* ids,
never enumerate them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.query.spec import QuerySpec


@dataclass(frozen=True)
class TraceRecord:
    """What the query model knows about each generated trace."""

    trace_id: str
    timestamp: float
    is_abnormal: bool


class QueryWorkload:
    """Generates the trace ids analysts query after the fact."""

    def __init__(
        self,
        abnormal_bias: float = 0.45,
        seed: int = 11,
    ) -> None:
        """``abnormal_bias`` is the fraction of queries that target
        abnormal traces; the remainder hit arbitrary traces."""
        if not 0.0 <= abnormal_bias <= 1.0:
            raise ValueError("abnormal_bias must be in [0, 1]")
        self.abnormal_bias = abnormal_bias
        self._rng = random.Random(seed)

    def sample_queries(
        self, records: list[TraceRecord], count: int
    ) -> list[str]:
        """Draw ``count`` queried trace ids from the population."""
        if not records:
            return []
        abnormal = [r for r in records if r.is_abnormal]
        queries: list[str] = []
        for _ in range(count):
            use_abnormal = abnormal and self._rng.random() < self.abnormal_bias
            pool = abnormal if use_abnormal else records
            queries.append(self._rng.choice(pool).trace_id)
        return queries

    def storm_schedule(
        self, qps: float, count: int, seed: int = 0
    ) -> list[float]:
        """Deterministic arrival times of a sustained-QPS query storm.

        A pure function of ``(qps, count, seed)`` — its own seeded RNG,
        never the instance's, and no wall clock anywhere: arrival *i*
        lands uniformly inside its own ``1/qps`` slot, so the schedule
        sustains exactly ``qps`` arrivals per simulated second with
        seeded jitter, and is strictly increasing (one arrival per
        slot).  The storm harness replays it against the ingest clock;
        identical arguments give identical storms on every machine.
        """
        if qps <= 0:
            raise ValueError("qps must be positive")
        if count < 0:
            raise ValueError("count must be >= 0")
        rng = random.Random(f"storm:{qps}:{seed}")
        return [(i + rng.random()) / qps for i in range(count)]


def incident_window_spec(
    records: list[TraceRecord],
    window_start: float,
    window_end: float,
    service: str | None = None,
    operation: str | None = None,
    error_only: bool = False,
    limit: int | None = None,
    pull_params: bool = False,
) -> QuerySpec:
    """Compile an incident investigation into one predicate spec.

    The candidate universe is the request log's ids inside the window
    (time pushdown happens here, where the timestamps live — the store
    keeps none for unsampled traces), and the content predicates
    (service / operation / error status) are pushed down to the
    engine, which evaluates them against each reconstruction.  The
    window is also recorded on the spec so exact reconstructions are
    re-checked against real span timestamps.
    """
    in_window = [r for r in records if window_start <= r.timestamp < window_end]
    return QuerySpec.where(
        candidates=[r.trace_id for r in in_window],
        service=service,
        operation=operation,
        error_only=error_only,
        time_range=(window_start, window_end),
        limit=limit,
        pull_params=pull_params,
    )
