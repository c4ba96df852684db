"""Spec compilation: batched shard-fanout plans with Bloom pushdown.

The planner turns a :class:`~repro.query.spec.QuerySpec` into an
executable plan over a StorageEngine-shaped store (the single engine,
or the sharded deployment's merged view).  Two pushdowns happen here:

* **Bloom negative pre-screen.**  When the store exposes the merged
  OR'd accumulators (``prescreen_candidates`` — the sharded merge
  layer), each trace id is screened once against the per-pattern
  accumulators; patterns the pre-screen rules out are never probed on
  any shard.  A miss in an OR'd accumulator proves a miss in every
  constituent filter, so pruning can only skip fruitless probes —
  answers are bit-identical to probing everything (the PR 2 contract,
  re-used here as a *batch* pushdown).
* **Amortised per-shard scans.**  A batch builds one per-pattern index
  over every shard's stored filters (one pass over ``storage.blooms``),
  so each of the batch's ids touches only its candidate patterns'
  filters instead of rescanning the whole filter list per query — the
  reason ``query_many`` beats looped point lookups.  Point lookups
  skip the index build and read the live store exactly like the
  reference querier always has.

Reconstruction itself is *not* re-implemented: the plan points the
reference :class:`~repro.backend.querier.Querier` at a view whose only
override is the amortised/pushed-down ``patterns_matching_trace``.
Same code, same answers — bit-identity by construction, which is what
``run.py query --check`` pins across deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.bloom.bloom_filter import _digest_pair
from repro.query.result import QueryResult, QueryStatus
from repro.query.spec import QuerySpec, matches_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.storage import StoredBloom


@dataclass
class PlanStats:
    """Execution counters of one plan (live while the cursor drains).

    ``filters_probed`` / ``filters_pruned`` partition the stored-filter
    probes a naive per-id scan would make: probed ones actually tested
    membership, pruned ones were skipped because the Bloom pre-screen
    (or the batch index) proved them fruitless.  Nonzero pruning on
    sharded runs is asserted by the query bench gate.
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


class _PlannedView:
    """A storage view with the batch's filter index pushed underneath.

    Everything except ``patterns_matching_trace`` delegates to the
    wrapped store (params reads stay live), so the reference querier
    runs unchanged on top.  Filter membership is answered from the
    per-pattern index snapshot taken at plan time — queries execute
    against a settled store (after ``finalize``), matching the
    semantics of the historical one-shot lookups.
    """

    def __init__(self, storage: Any, stats: PlanStats) -> None:
        self._storage = storage
        self.stats = stats
        index: dict[str, list["StoredBloom"]] = {}
        for stored in storage.blooms:
            index.setdefault(stored.topo_pattern_id, []).append(stored)
        self._index = index
        self._total_filters = sum(len(group) for group in index.values())
        # The sharded merge layer's OR'd accumulators; None on a single
        # engine, whose semantics are probe-everything.
        self._prescreen = getattr(storage, "prescreen_candidates", None)

    def patterns_matching_trace(self, trace_id: str) -> list["StoredBloom"]:
        # One digest serves the pre-screen and every shard's filters.
        digest = h1, h2 = _digest_pair(trace_id)
        if self._prescreen is not None:
            candidates = self._prescreen(trace_id, digest)
        else:
            candidates = self._index.keys()
        matched: list["StoredBloom"] = []
        probed = 0
        for pattern_id in candidates:
            for stored in self._index.get(pattern_id, ()):
                probed += 1
                if stored.filter.contains_hashed(h1, h2):
                    matched.append(stored)
        self.stats.filters_probed += probed
        self.stats.filters_pruned += self._total_filters - probed
        return matched

    def pattern_member(self, trace_id: str, pattern_id: str) -> bool:
        """Confirmed membership of a trace in one topo pattern."""
        group = self._index.get(pattern_id, ())
        self.stats.filters_probed += len(group)
        h1, h2 = _digest_pair(trace_id)
        return any(stored.filter.contains_hashed(h1, h2) for stored in group)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._storage, name)


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
    querier: Any  # reference Querier over the (possibly planned) view
    stats: PlanStats
    view: _PlannedView | None = None
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

    def _pattern_member(self, trace_id: str, pattern_id: str) -> bool:
        # Only reachable during predicate evaluation, and the planner
        # always builds an indexed view for predicate specs.
        assert self.view is not None
        return self.view.pattern_member(trace_id, pattern_id)

    def results(self) -> Iterator[QueryResult]:
        """Lazily execute the plan (one reconstruction per ``next()``).

        Analyst query streams draw ids with replacement (the Fig. 12
        model keeps returning to the incident's traces), so a batch
        memoises per trace id: a repeated id re-yields the first
        reconstruction — the *same* result object, not a fresh copy,
        so cursor results are to be treated as read-only (every
        consumer in this repo folds or renders them) — instead of
        rebuilding it span by span.  The cache is per-plan — it can
        never serve stale answers across batches — and is disabled
        when ``pull_params`` is set, because a pull upgrades storage
        mid-batch and a repeat must then see the upgraded answer,
        exactly as looped lookups would.
        """
        spec = self.spec
        memo: dict[str, QueryResult] | None = None
        if self.view is not None and not spec.pull_params:
            memo = {}
        for trace_id in self.candidate_ids():
            if spec.limit is not None and self.stats.yielded >= spec.limit:
                return
            self.stats.candidates += 1
            if memo is not None and trace_id in memo:
                self.stats.cache_hits += 1
                result = memo[trace_id]
            else:
                result = self.querier.query(trace_id)
                if (
                    self.upgrade is not None
                    and result.status is QueryStatus.PARTIAL
                ):
                    result = self.upgrade(result)
                if memo is not None:
                    memo[trace_id] = result
            if spec.has_predicates and not matches_result(
                spec, result, self._pattern_member
            ):
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
        """Compile one spec.

        Batches and predicate sweeps pay one index build and amortise
        it across every candidate; a bare point lookup runs against the
        live store with zero setup, exactly like the historical
        ``Querier.query`` path.
        """
        from repro.backend.querier import Querier

        stats = PlanStats()
        batched = len(spec.trace_ids) > 1 or spec.has_predicates
        if batched:
            view = _PlannedView(self.storage, stats)
            return QueryPlan(spec, Querier(view), stats, view=view)
        return QueryPlan(spec, Querier(self.storage), stats)
