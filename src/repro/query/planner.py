"""Spec compilation: one plan shape for point, batch and predicate specs.

The planner turns a :class:`~repro.query.spec.QuerySpec` into an
executable plan over a StorageEngine-shaped store (the single engine,
or the sharded deployment's merged view).  Every plan runs the
reference :class:`~repro.backend.querier.Querier` over that store: an
id costs one ``patterns_matching_trace`` lookup, which on the merged
view pushes the OR'd Bloom accumulators down as a negative pre-screen
and confirms survivors through the shards' per-pattern position index
(answers bit-identical to probing everything, as ``run.py query
--check`` pins).  Span predicates are decided per pattern first, so an
id whose patterns cannot match is skipped without a reconstruction.

What a batch adds over looped point lookups is per-plan memoisation of
repeated ids (looped lookups share only the store's memos: the rebuilt
exact spans and the segment renders), and the probe counters each
lookup leaves on the store folded into the plan's :class:`PlanStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.query.result import QueryResult, QueryStatus
from repro.query.spec import QuerySpec, matches_result


@dataclass
class PlanStats:
    """Execution counters of one plan (live while the cursor drains).

    ``filters_probed`` / ``filters_pruned`` are the stored-filter
    counts the plan's lookups left on the store: probed filters were
    tested for membership, pruned ones are the rest of what a
    probe-everything scan would have touched, skipped by the merged
    Bloom pre-screen or (on either store) a predicate screen.  An id
    the screen skips counts in ``candidates``, not ``predicate_rejected``.
    The query bench gate asserts nonzero pruning on sharded runs.
    """

    candidates: int = 0
    yielded: int = 0
    filters_probed: int = 0
    filters_pruned: int = 0
    predicate_rejected: int = 0
    params_pulled: int = 0
    cache_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "candidates": self.candidates,
            "yielded": self.yielded,
            "filters_probed": self.filters_probed,
            "filters_pruned": self.filters_pruned,
            "predicate_rejected": self.predicate_rejected,
            "params_pulled": self.params_pulled,
            "cache_hits": self.cache_hits,
        }


@dataclass
class QueryPlan:
    """A compiled spec: candidate ids + the querier to run them through.

    ``upgrade`` is the engine's retroactive-pull hook (the backend
    plane claims it when ``spec.pull_params`` is set): it runs on each
    partial reconstruction *before* predicate evaluation, so predicates
    judge the best answer the fleet can produce, not the stale pre-pull
    one — exactly what a looped ``query(pull_params=True)`` per id
    would have judged.
    """

    spec: QuerySpec
    querier: Any  # reference Querier over the store
    stats: PlanStats
    upgrade: Callable[[QueryResult], QueryResult] | None = None

    def candidate_ids(self) -> tuple[str, ...]:
        """The id universe this plan sweeps.

        Explicit targets win; a predicate spec without them falls back
        to the store's enumerable population (exact-capable ids) — a
        pattern-based store cannot enumerate what it only holds Bloom
        evidence for (see the spec grammar).
        """
        if self.spec.trace_ids:
            return self.spec.trace_ids
        if self.spec.has_predicates:
            return tuple(sorted(self.querier.storage.params))
        return ()

    def _counted(self, lookup: Callable[..., Any], *args: Any) -> Any:
        """Run one store lookup, adding the filters it probed and
        pruned on the store to this plan's counters."""
        storage = self.querier.storage
        probed, pruned = storage.filters_probed, storage.filters_pruned
        answer = lookup(*args)
        self.stats.filters_probed += storage.filters_probed - probed
        self.stats.filters_pruned += storage.filters_pruned - pruned
        return answer

    def _pattern_member(self, trace_id: str, pattern_id: str) -> bool:
        """Confirmed membership of a trace in one topo pattern: the
        pattern is among the trace's matched stored filters."""
        matches = self._counted(self.querier.storage.patterns_matching_trace, trace_id)
        return any(stored.topo_pattern_id == pattern_id for stored in matches)

    def results(self) -> Iterator[QueryResult]:
        """Lazily execute the plan (one reconstruction per ``next()``).

        Analyst query streams draw ids with replacement (the Fig. 12
        model keeps returning to the incident's traces), so a batch
        memoises per trace id: a repeated id re-yields the first
        result object, not a fresh copy.  Across plans, the store's
        own memos share the rebuilt spans and segment renders between
        results, so every result is read-only (every consumer in this
        repo folds or renders them).  The per-plan cache is disabled
        when ``pull_params`` is set, because a pull upgrades storage
        mid-batch and a repeat must then see the upgraded answer,
        exactly as looped lookups would; the store's memos drop what a
        pull changes.

        Without an upgrade hook, ids :meth:`Querier.may_match` rules out
        (on the store's screen at that id, valid mid-drain) are skipped.
        """
        spec = self.spec
        memo: dict[str, QueryResult | None] | None = None if spec.pull_params else {}
        screened = spec.has_span_predicates and self.upgrade is None
        for trace_id in self.candidate_ids():
            if spec.limit is not None and self.stats.yielded >= spec.limit:
                return
            self.stats.candidates += 1
            if memo is not None and trace_id in memo:
                self.stats.cache_hits += 1
                result = memo[trace_id]
            else:
                result = None
                if not screened or self._counted(self.querier.may_match, trace_id, spec):
                    result = self._counted(self.querier.query, trace_id)
                    if self.upgrade is not None and result.status is QueryStatus.PARTIAL:
                        result = self.upgrade(result)
                if memo is not None:
                    memo[trace_id] = result
            if result is None:
                continue
            if spec.has_predicates and not matches_result(spec, result, self._pattern_member):
                if result.status is not QueryStatus.MISS:
                    self.stats.predicate_rejected += 1
                continue
            self.stats.yielded += 1
            yield result


class QueryPlanner:
    """Compiles :class:`QuerySpec` values against one storage view."""

    def __init__(self, storage: Any) -> None:
        self.storage = storage

    def plan(self, spec: QuerySpec) -> QueryPlan:
        """Compile one spec: the reference querier over the live store."""
        from repro.backend.querier import Querier

        return QueryPlan(spec, Querier(self.storage), PlanStats())
