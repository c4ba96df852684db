"""The one result model of the query plane.

Every framework answers every query with a :class:`QueryResult` whose
``status`` is a :class:`QueryStatus` — the hit classification of the
paper's Fig. 12 experiment (``exact`` / ``partial`` / ``miss``).  The
enum is a ``str`` subclass, so all historical call sites keep working:
``result.status == "exact"`` is true, it hashes like the plain string
(Fig. 12-style ``hits`` dicts keyed by ``"exact"`` are unchanged), and
it renders as the bare value in tables and JSON.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.model.trace import Trace


class QueryStatus(str, enum.Enum):
    """Outcome class of one trace query.

    ``EXACT`` — the trace's variable parameters were stored and the
    original spans reconstruct in full; ``PARTIAL`` — only the
    pattern-level approximate trace is available; ``MISS`` — no record
    at all ('1 or 0' baselines know only ``EXACT`` and ``MISS``).
    """

    EXACT = "exact"
    PARTIAL = "partial"
    MISS = "miss"

    # Render as the bare value everywhere (str(), format, f-strings,
    # json) so the fig12/fig03 result tables are byte-identical to the
    # stringly era — and identical across Python 3.10..3.12, which
    # changed Enum's default __str__/__format__ between versions.
    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def is_hit(self) -> bool:
        """Exact or partial — the trace answers at least approximately."""
        return self is not QueryStatus.MISS


@dataclass
class ApproximateSegment:
    """One sub-trace rendered from its topo pattern (variables masked).

    Read-only: ``spans`` / ``entry_ops`` / ``exit_ops`` are the store's
    memoised render of the pattern, shared by every result showing it;
    only ``nodes_reporting`` belongs to this result."""

    topo_pattern_id: str
    nodes_reporting: list[str]
    spans: list[dict[str, Any]] = field(default_factory=list)
    entry_ops: list[tuple[str, str]] = field(default_factory=list)
    exit_ops: list[tuple[str, str]] = field(default_factory=list)

    @property
    def span_count(self) -> int:
        """Spans in this segment."""
        return len(self.spans)


@dataclass
class ApproximateTrace:
    """The masked, pattern-level view of an unsampled trace."""

    trace_id: str
    segments: list[ApproximateSegment] = field(default_factory=list)

    @property
    def span_count(self) -> int:
        """Total spans across all segments."""
        return sum(seg.span_count for seg in self.segments)

    @property
    def services(self) -> set[str]:
        """Services on the (approximate) execution path."""
        return {span["service"] for seg in self.segments for span in seg.spans}


@dataclass
class QueryResult:
    """Outcome of one trace query — the model every framework shares.

    ``trace`` carries the reconstructed (or natively stored) spans of
    an exact hit; ``approximate`` the pattern-level view of a partial
    hit.  '1 or 0' frameworks attach the stored trace and never produce
    ``PARTIAL``; Mint produces all three statuses.  A plain string
    status is coerced to :class:`QueryStatus` on construction, so
    legacy constructors keep working unchanged.

    Read-only: an exact hit's spans and a partial hit's segment renders
    are the store's memoised objects, shared with every other result
    for the same trace or pattern — across queries, not only within a
    batch.
    """

    trace_id: str
    status: QueryStatus
    trace: Trace | None = None
    approximate: ApproximateTrace | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.status, QueryStatus):
            self.status = QueryStatus(self.status)

    @property
    def is_hit(self) -> bool:
        """True for exact or partial hits."""
        return self.status.is_hit

    @property
    def is_exact(self) -> bool:
        """Full-fidelity hit."""
        return self.status is QueryStatus.EXACT

    @property
    def is_miss(self) -> bool:
        """No record at all."""
        return self.status is QueryStatus.MISS

    @property
    def span_count(self) -> int:
        """Spans available from this result (0 for a miss)."""
        if self.trace is not None:
            return len(self.trace.spans)
        if self.approximate is not None:
            return self.approximate.span_count
        return 0
