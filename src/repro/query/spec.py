"""Declarative query specifications.

A :class:`QuerySpec` is a frozen value describing *what* to fetch —
never *how*: compilation into per-shard probe plans is the
:class:`~repro.query.planner.QueryPlanner`'s job, and every engine
(Mint's backend plane, each baseline) accepts the same spec grammar.

Spec grammar
------------

* **Targets** — ``trace_ids`` names the traces to fetch.  With no
  predicates it is a point/batch lookup: one result per id, in request
  order, misses included (the Fig. 12 contract — the analyst asked
  about *that* id and deserves an answer either way).  With
  predicates, ``trace_ids`` is the *candidate universe* and only
  matching hits are yielded.
* **Predicates** — ``service`` / ``operation`` / ``error_only`` are
  span-level and conjunctive: a trace matches when some single span
  satisfies all three (the "error traces *of* service X" reading,
  which is the one RCA wants).  ``time_range`` is trace-level and
  tests the reconstructed envelope's start; approximate traces store
  no timestamps at rest, so the window never excludes them — a
  false miss would break Mint's headline no-miss property, a false
  hit only costs the analyst a glance.  ``topo_pattern_id`` matches
  on pattern evidence: an approximate segment of that pattern, or
  (on pattern-based engines) confirmed Bloom membership.
* **Candidate universe** — pattern-based stores cannot enumerate
  trace ids (Bloom filters only answer membership — that is the
  paper's whole storage bargain), so a predicate spec with empty
  ``trace_ids`` is evaluated over the engine's *enumerable* stored
  population (exact-capable ids).  Analysts with a request log —
  the paper's after-the-fact setting — should build the spec from it:
  see :func:`repro.workloads.queries.incident_window_spec`.
* **Options** — ``pull_params`` requests the retroactive parameter
  pull on partial hits (paper Fig. 9); ``limit`` caps *yielded*
  results and lets the streaming cursor stop early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.model.span import SpanStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.result import QueryResult


@dataclass(frozen=True)
class QuerySpec:
    """One declarative trace query (see module docstring for grammar)."""

    trace_ids: tuple[str, ...] = ()
    service: str | None = None
    operation: str | None = None
    error_only: bool = False
    time_range: tuple[float, float] | None = None
    topo_pattern_id: str | None = None
    pull_params: bool = False
    limit: int | None = None

    def __post_init__(self) -> None:
        # Accept any iterable of ids; store the canonical tuple.  A bare
        # string would silently iterate into per-character "ids" (and
        # query as that many misses) — reject it loudly instead.
        if isinstance(self.trace_ids, str):
            raise TypeError(
                "trace_ids must be an iterable of trace ids, not a single "
                "string — use QuerySpec.point(trace_id) for one lookup"
            )
        if not isinstance(self.trace_ids, tuple):
            object.__setattr__(self, "trace_ids", tuple(self.trace_ids))
        if self.limit is not None and self.limit <= 0:
            raise ValueError(f"limit must be positive, got {self.limit}")
        if self.time_range is not None:
            start, end = self.time_range
            if end < start:
                raise ValueError(f"time_range end {end} precedes start {start}")
            object.__setattr__(self, "time_range", (float(start), float(end)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, trace_id: str, pull_params: bool = False) -> "QuerySpec":
        """A single-id lookup — the historical ``query(trace_id)``."""
        return cls(trace_ids=(trace_id,), pull_params=pull_params)

    @classmethod
    def batch(
        cls,
        trace_ids: Iterable[str],
        pull_params: bool = False,
        limit: int | None = None,
    ) -> "QuerySpec":
        """A batch lookup: one result per id, request order, misses kept."""
        return cls(trace_ids=trace_ids, pull_params=pull_params, limit=limit)

    @classmethod
    def where(
        cls,
        candidates: Iterable[str] = (),
        service: str | None = None,
        operation: str | None = None,
        error_only: bool = False,
        time_range: tuple[float, float] | None = None,
        topo_pattern_id: str | None = None,
        pull_params: bool = False,
        limit: int | None = None,
    ) -> "QuerySpec":
        """A predicate query over ``candidates`` (or the engine's
        enumerable stored population when empty)."""
        return cls(
            trace_ids=candidates,
            service=service,
            operation=operation,
            error_only=error_only,
            time_range=time_range,
            topo_pattern_id=topo_pattern_id,
            pull_params=pull_params,
            limit=limit,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def has_predicates(self) -> bool:
        """True when results are filtered (vs a pure point/batch fetch)."""
        return (
            self.has_span_predicates
            or self.time_range is not None
            or self.topo_pattern_id is not None
        )

    @property
    def has_span_predicates(self) -> bool:
        """True when ``service``, ``operation`` or ``error_only`` is set."""
        return self.service is not None or self.operation is not None or self.error_only

    def matches_span(self, service: str, operation: str, status: str | None) -> bool:
        """One span's facts against the span-level predicates."""
        return (
            (self.service is None or service == self.service)
            and (self.operation is None or operation == self.operation)
            and (status == SpanStatus.ERROR.value or not self.error_only)
        )

    def describe(self) -> str:
        """Human-readable one-liner (benchmark tables, logs)."""
        parts = [f"ids={len(self.trace_ids)}"]
        for name in ("service", "operation", "topo_pattern_id"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.error_only:
            parts.append("error_only")
        if self.time_range is not None:
            parts.append(f"t=[{self.time_range[0]:g},{self.time_range[1]:g})")
        if self.pull_params:
            parts.append("pull_params")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return "QuerySpec(" + ", ".join(parts) + ")"


def _span_facts(result: "QueryResult") -> Iterable[tuple[str, str, str | None]]:
    """(service, operation, status) per available span, either kind."""
    if result.trace is not None:
        for span in result.trace.spans:
            yield span.service, span.name, span.status.value
    elif result.approximate is not None:
        for segment in result.approximate.segments:
            for view in segment.spans:
                yield view["service"], view["name"], view.get("status")


def matches_result(
    spec: QuerySpec,
    result: "QueryResult",
    pattern_member: Callable[[str, str], bool] | None = None,
) -> bool:
    """Evaluate the spec's predicates against a reconstructed result.

    ``pattern_member(trace_id, topo_pattern_id)`` is the engine's
    confirmed Bloom-membership test, used to evaluate
    ``topo_pattern_id`` on exact results (whose spans carry no pattern
    ids); engines without pattern storage pass None and exact results
    can then only match through approximate segment evidence.
    Misses never match a predicate spec.
    """
    if not result.is_hit:
        return False
    if spec.has_span_predicates and not any(
        spec.matches_span(*facts) for facts in _span_facts(result)
    ):
        return False
    if spec.time_range is not None and result.trace is not None:
        # Approximate traces store no timestamps — the window can only
        # exclude exact reconstructions (see module docstring).
        start, end = spec.time_range
        if result.trace.spans:
            first = min(span.start_time for span in result.trace.spans)
            if not start <= first < end:
                return False
    if spec.topo_pattern_id is not None:
        if result.approximate is not None:
            return any(
                segment.topo_pattern_id == spec.topo_pattern_id
                for segment in result.approximate.segments
            )
        if pattern_member is not None:
            return pattern_member(result.trace_id, spec.topo_pattern_id)
        return False
    return True


__all__ = ["QuerySpec", "matches_result"]
