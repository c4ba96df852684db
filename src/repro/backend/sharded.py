"""The sharded multi-agent collection plane.

Scales the Mint backend from one box to N shards, each owning a
hash-partition of the deployment's hosts (and thereby of the services
placed on them).  Every host keeps its own agent + collector exactly as
in the single-backend deployment; a collector's reports land on the
shard that owns its host, into that shard's private
:class:`~repro.backend.storage.StorageEngine`.

The merge layer on top restores the single-backend view:

* **Pattern libraries** union by content-hash id.  Pattern ids are
  SHA1-of-repr, so the same span/topo shape observed on different
  shards carries the same id and is charged for storage exactly once
  globally — identical to what one backend would charge.
* **Bloom filters** of compatible geometry are OR'd into one merged
  filter per topo pattern.  The merged filter is a strict superset of
  every constituent, so it is used only as a *negative* pre-screen:
  a trace absent from the merged filter is provably absent from every
  shard's filters, and candidates are still confirmed against the
  individual stored filters — query answers stay bit-identical to the
  single backend's.
* **Sampled-trace notifications** are reconciled across shards: a
  sampling decision on any shard is broadcast to every registered
  collector on every shard (minus the origin host), so the paper's
  trace-coherence guarantee ("backend notifies all hosts") holds for
  the whole fleet, with one idempotent notification per trace id.

The correctness contract is *shard-count invariance*: for the same
ingest stream, ``ShardedBackend(num_shards=1)`` behaves exactly like
:class:`~repro.backend.backend.MintBackend`, and query results plus
byte tables are identical for any shard count
(tests/test_backend_sharded.py pins this for N in {1, 2, 4, 8}).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.agent.reports import BloomReport, PatternLibraryReport, Report
from repro.backend.querier import Querier
from repro.backend.storage import StorageEngine, StoredBloom
from repro.bloom.bloom_filter import BloomFilter, _digest_pair, entries_containing
from repro.model.encoding import encoded_size
from repro.parsing.span_parser import SpanPattern
from repro.parsing.trace_parser import TopoPattern
from repro.transport.plane import BackendPlane
from repro.transport.wire import NotifyMeter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.elastic.chaos import ShardChaosProfile


def shard_for_key(key: str, num_shards: int) -> int:
    """Stable hash-partition of an owner key (host or service name).

    Content-derived (blake2b of the key), so placement is reproducible
    across processes and restarts — the property that lets per-shard
    state be rebuilt and re-merged deterministically.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards == 1:
        return 0
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class _MergedParams:
    """Read-only fan-out view of every shard's params store.

    A multi-host trace's parameter records are scattered across the
    shards owning its hosts; ``get`` concatenates the per-shard buckets.
    Records are deduplicated at store time by (span_id, node) and a
    host belongs to exactly one shard, so concatenation introduces no
    duplicates — the merged bucket equals the single backend's.
    """

    def __init__(self, shards: list[StorageEngine]) -> None:
        self._shards = shards

    def get(self, trace_id: str, default: Any = None) -> Any:
        combined: list[list[Any]] = []
        for shard in self._shards:
            bucket = shard.params.get(trace_id)
            if bucket:
                combined.extend(bucket)
        return combined if combined else default

    def __contains__(self, trace_id: str) -> bool:
        return any(trace_id in shard.params for shard in self._shards)

    def is_sealed(self, trace_id: str) -> bool:
        """True when any shard's bucket of the trace is sealed."""
        return any(shard.params.is_sealed(trace_id) for shard in self._shards)

    def __iter__(self) -> Iterator[str]:
        seen: set[str] = set()
        for shard in self._shards:
            for trace_id in shard.params:
                if trace_id not in seen:
                    seen.add(trace_id)
                    yield trace_id

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _MergedPatterns:
    """Fan-out lookup over the shards' interned pattern dicts.

    Ids are content hashes: any shard's copy of an id is structurally
    identical to every other shard's, so first hit wins.
    """

    def __init__(self, shards: list[StorageEngine], attr: str) -> None:
        self._shards = shards
        self._attr = attr

    def get(self, pattern_id: str, default: Any = None) -> Any:
        for shard in self._shards:
            found = getattr(shard, self._attr).get(pattern_id)
            if found is not None:
                return found
        return default

    def __contains__(self, pattern_id: str) -> bool:
        return any(pattern_id in getattr(shard, self._attr) for shard in self._shards)

    def __iter__(self) -> Iterator[str]:
        seen: set[str] = set()
        for shard in self._shards:
            for pattern_id in getattr(shard, self._attr):
                if pattern_id not in seen:
                    seen.add(pattern_id)
                    yield pattern_id

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _MergedSampledIds:
    """Live, mutable union view of the fleet's sampled trace ids.

    Reads union every shard's set with the merge layer's own marks;
    ``add`` records on the merge layer — so the MintBackend idiom
    ``storage.sampled_trace_ids.add(trace_id)`` works unchanged against
    the merged view instead of silently mutating a temporary set.
    """

    def __init__(self, shards: list[StorageEngine], extra: set[str]) -> None:
        self._shards = shards
        self._extra = extra

    def add(self, trace_id: str) -> None:
        self._extra.add(trace_id)

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._extra or any(
            trace_id in shard.sampled_trace_ids for shard in self._shards
        )

    def __iter__(self) -> Iterator[str]:
        seen = set(self._extra)
        yield from seen
        for shard in self._shards:
            for trace_id in shard.sampled_trace_ids:
                if trace_id not in seen:
                    seen.add(trace_id)
                    yield trace_id

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _MergedNumericRanges:
    """Min/max union of per-shard numeric display ranges.

    The single backend folds successive reports with min/max; min/max
    is associative and commutative, so folding per shard first and
    merging on read yields the same bounds.
    """

    def __init__(self, shards: list[StorageEngine]) -> None:
        self._shards = shards

    def get(
        self, pattern_id: str, default: Any = None
    ) -> dict[str, tuple[float, float]] | Any:
        merged: dict[str, tuple[float, float]] | None = None
        for shard in self._shards:
            ranges = shard.numeric_ranges.get(pattern_id)
            if not ranges:
                continue
            if merged is None:
                merged = dict(ranges)
                continue
            for key, (lower, upper) in ranges.items():
                current = merged.get(key)
                if current is None:
                    merged[key] = (lower, upper)
                else:
                    merged[key] = (min(current[0], lower), max(current[1], upper))
        return merged if merged is not None else default


class MergedStorageView:
    """The merge layer: one StorageEngine-shaped view over N shards.

    Duck-types everything :class:`~repro.backend.querier.Querier` and
    the analysis layers read from a storage engine, backed by fan-out
    over the shard stores plus two pieces of incremental merge state
    maintained by :meth:`observe_report`:

    * global pattern-byte accounting with cross-shard content-id dedup
      (a pattern reported by hosts on two shards is charged once, as
      the single backend would);
    * the OR'd Bloom pre-screen index, one merged filter per
      (topo pattern, filter geometry).
    """

    def __init__(self, shards: list[StorageEngine]) -> None:
        self.shards = shards
        self.params = _MergedParams(shards)
        self.span_patterns = _MergedPatterns(shards, "span_patterns")
        self.topo_patterns = _MergedPatterns(shards, "topo_patterns")
        self.numeric_ranges = _MergedNumericRanges(shards)
        self._pattern_bytes = 0
        self._seen_span_pattern_ids: set[str] = set()
        self._seen_topo_pattern_ids: set[str] = set()
        # topo_pattern_id -> geometry -> OR of every reported filter.
        self._merged_blooms: dict[str, dict[tuple[int, int], BloomFilter]] = {}
        # The same accumulators as one flat list of node-less entries,
        # the pre-screen's probe input; rebuilt only when an accumulator
        # is added or dropped.
        self._accumulators: list[StoredBloom] = []
        # Patterns whose accumulator saturated past usefulness: treated
        # as unconditional candidates (see _absorb_filter).
        self._prescreen_saturated: set[str] = set()
        self._narrowed: dict[frozenset[str], list[StoredBloom]] = {}  # by screened patterns
        self._extra_sampled: set[str] = set()
        self.sampled_trace_ids = _MergedSampledIds(shards, self._extra_sampled)
        self._segment_renders: dict[str, Any] = {}
        self._segment_orders: dict[tuple[str, ...], Any] = {}
        self._predicate_screens: dict[tuple, Any] = {}
        self._exact_traces: dict[str, list[Any]] = {}
        self._render_token: tuple = ()  # what the memos were filled under
        self.filters_probed = 0
        self.filters_pruned = 0

    # ------------------------------------------------------------------
    # Incremental merge state (fed by ShardedBackend.receive)
    # ------------------------------------------------------------------
    def observe_report(self, report: Report, shard: StorageEngine) -> None:
        """Fold one routed (and already stored) report into the global
        merge state.

        Pattern dedup keys are re-derived from the pattern *content*
        (exactly as the shard's
        :meth:`StorageEngine.store_pattern_report` does) rather than
        read from the report, so the merged accounting can never
        disagree with the stores about identity.  Pattern reports
        shrink to nothing once libraries converge, so the re-derivation
        is off the steady-state hot path.

        Bloom reports reuse the filter the shard just stored (the tail
        of ``shard.blooms``) instead of deserialising the payload a
        second time — flushed filters are the steady-state report
        traffic, so this keeps merge overhead off the wire-size path.
        """
        if isinstance(report, PatternLibraryReport):
            for data in report.span_patterns:
                pattern_id = SpanPattern.from_dict(data).pattern_id
                if pattern_id not in self._seen_span_pattern_ids:
                    self._seen_span_pattern_ids.add(pattern_id)
                    self._pattern_bytes += encoded_size(data)
            for data in report.topo_patterns:
                pattern_id = TopoPattern.from_dict(data).pattern_id
                if pattern_id not in self._seen_topo_pattern_ids:
                    self._seen_topo_pattern_ids.add(pattern_id)
                    self._pattern_bytes += encoded_size(data)
        elif isinstance(report, BloomReport):
            self._absorb_filter(report.topo_pattern_id, shard.blooms[-1].filter)

    # Beyond this saturation an accumulator's false-positive rate is so
    # high it prunes nothing; the pattern is then treated as a
    # candidate unconditionally and the accumulator memory is freed.
    _PRESCREEN_MAX_SATURATION = 0.5

    def _absorb_filter(self, pattern_id: str, filt: BloomFilter) -> None:
        """OR a stored filter into the pre-screen index.

        Accumulators never alias stored filters (mutating one would
        corrupt exact membership checks), so the first absorb pays one
        copy into a fresh filter of the same geometry.  Filters of a
        different geometry (heterogeneously configured shard engines)
        get their own accumulator, never a lossy mix.  Accumulators
        that saturate past :data:`_PRESCREEN_MAX_SATURATION` are
        dropped: the pattern becomes an unconditional candidate, which
        is always correct (the pre-screen is only ever a negative
        filter) and caps both memory and pointless probe work on
        long-running streams.
        """
        if pattern_id in self._prescreen_saturated:
            return
        groups = self._merged_blooms.setdefault(pattern_id, {})
        accumulator = groups.get(filt.geometry())
        reindex = accumulator is None
        if reindex:
            accumulator = BloomFilter(
                filt.expected_insertions, filt.false_positive_probability
            )
            groups[filt.geometry()] = accumulator
        accumulator.absorb(filt)
        if accumulator.saturation > self._PRESCREEN_MAX_SATURATION:
            self._prescreen_saturated.add(pattern_id)
            del self._merged_blooms[pattern_id]
            reindex = True
        if reindex:
            self._accumulators = [
                StoredBloom("", merged_id, merged)
                for merged_id, by_geometry in self._merged_blooms.items()
                for merged in by_geometry.values()
            ]
            self._narrowed = {}

    # ------------------------------------------------------------------
    # StorageEngine-shaped lookups
    # ------------------------------------------------------------------
    def prescreen_candidates(
        self, trace_id: str, digest: tuple[int, int] | None = None
    ) -> set[str]:
        """Topo patterns the merged OR index cannot rule out for a trace.

        The public face of the negative pre-screen: patterns whose
        accumulator saturated out of the index are unconditional
        candidates, the rest are candidates only when some merged
        accumulator (any geometry) reports the trace.  A pattern absent
        here needs no probing on any shard.  ``digest`` is the caller's
        ``_digest_pair(trace_id)`` when it goes on to probe the shards
        with it (one digest per lookup).
        """
        h1, h2 = digest or _digest_pair(trace_id)
        matches = entries_containing(self._accumulators, h1, h2)
        return self._prescreen_saturated.union(entry.topo_pattern_id for entry in matches)

    def patterns_matching_trace(self, trace_id: str) -> list[StoredBloom]:
        """All stored filters (across shards) that may contain the trace.

        The merged OR index screens whole topo patterns out first: if
        ``trace_id`` misses every merged accumulator of a pattern it
        provably misses each constituent filter, and none of them need
        be probed.  Survivors (and patterns whose accumulator saturated
        out of the index) are confirmed against each of their filters
        in one probe pass, so the result set is exactly the single
        backend's.  Only survivors are resolved, so a sealed filter of
        a screened-out pattern never decodes its block.  Every lookup
        adds the filters it probed to :attr:`filters_probed` and the
        rest to :attr:`filters_pruned`.
        """
        digest = _digest_pair(trace_id)
        candidates = self.prescreen_candidates(trace_id, digest)
        probed: list[StoredBloom] = []
        stored_filters = 0
        for shard in self.shards:
            probed += shard.blooms.of_patterns(candidates)
            stored_filters += len(shard.blooms)
        self.filters_probed += len(probed)
        self.filters_pruned += stored_filters - len(probed)
        return entries_containing(probed, *digest)

    def patterns_matching_among(self, trace_id: str, topo_ids: frozenset[str]) -> list[StoredBloom]:
        """:meth:`patterns_matching_trace` over the given topo patterns:
        only their accumulators pre-screen, only their filters are probed."""
        if topo_ids not in self._narrowed:
            accumulators = self._accumulators
            self._narrowed[topo_ids] = [e for e in accumulators if e.topo_pattern_id in topo_ids]
        digest = _digest_pair(trace_id)
        matches = entries_containing(self._narrowed[topo_ids], *digest)
        candidates = {e.topo_pattern_id for e in matches} | (self._prescreen_saturated & topo_ids)
        probed = [e for shard in self.shards for e in shard.blooms.of_patterns(candidates)]
        self.filters_probed += len(probed)
        self.filters_pruned += sum(len(shard.blooms) for shard in self.shards) - len(probed)
        return entries_containing(probed, *digest)

    def _current_memos(self) -> None:
        """Drop the querier's memos unless they were filled under the
        current patterns.

        Renders and exact traces resolve through the fan-out over
        *reachable* shards, so the memos are dropped when any of them
        stored a pattern change or the reachable set moved — an outage
        answer never serves a healthy read, nor the reverse.  A fresh
        exact-trace memo is watched by every reachable shard's params
        store, which drops a trace whenever one of its buckets changes.
        """
        token = tuple((id(shard), shard.pattern_version) for shard in self.shards)
        if token != self._render_token:
            self._render_token = token
            self._segment_renders = {}
            self._segment_orders = {}
            self._predicate_screens = {}
            self._narrowed = {}
            self._exact_traces = {}
            for shard in self.shards:
                shard.params.watch(self, self._exact_traces)

    @property
    def segment_renders(self) -> dict[str, Any]:
        """The querier's render memo, valid for the current patterns."""
        self._current_memos()
        return self._segment_renders

    @property
    def segment_orders(self) -> dict[tuple[str, ...], Any]:
        """The querier's stitched-order memo, dropped with the renders."""
        self._current_memos()
        return self._segment_orders

    @property
    def predicate_screens(self) -> dict[tuple, Any]:
        """The querier's predicate-screen memo, dropped with the renders."""
        self._current_memos()
        return self._predicate_screens

    @property
    def exact_traces(self) -> dict[str, list[Any]]:
        """The querier's exact-trace memo, dropped with the renders."""
        self._current_memos()
        return self._exact_traces

    def has_params(self, trace_id: str) -> bool:
        """True when some shard holds the trace's exact parameters."""
        return trace_id in self.params

    def mark_sampled(self, trace_id: str) -> None:
        """Record a sampling decision that has no params report (yet)."""
        self._extra_sampled.add(trace_id)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def pattern_bytes(self) -> int:
        """Globally deduplicated pattern bytes — the merged table."""
        return self._pattern_bytes

    @property
    def bloom_bytes(self) -> int:
        """Bloom bytes across shards (every upload is persisted)."""
        return sum(shard.bloom_bytes for shard in self.shards)

    @property
    def params_bytes(self) -> int:
        """Parameter bytes across shards (host-disjoint, no dedup gap)."""
        return sum(shard.params_bytes for shard in self.shards)

    def storage_bytes(self) -> int:
        """The merged Fig. 11 storage metric, single-backend-identical."""
        return self.pattern_bytes + self.bloom_bytes + self.params_bytes

    def replicated_pattern_bytes(self) -> int:
        """Merge overhead: pattern bytes held redundantly across shards.

        The sum of per-shard pattern bytes minus the deduplicated
        merged figure — what the fleet physically stores beyond the
        logical (single-backend) table because the same content-id was
        learned on more than one shard.
        """
        return sum(shard.pattern_bytes for shard in self.shards) - self._pattern_bytes

    def cold_savings_bytes(self) -> int:
        """Cold-tier savings across shards (derived, like
        :meth:`replicated_pattern_bytes` — never part of the ruler)."""
        return sum(shard.cold_savings_bytes() for shard in self.shards)

    def physical_storage_bytes(self) -> int:
        """The merged physical split: the logical ruler minus every
        shard's cold-tier savings.  Identical to :meth:`storage_bytes`
        while nothing is sealed."""
        return self.storage_bytes() - self.cold_savings_bytes()

    def cold_stats(self) -> dict[str, Any]:
        """Summed per-shard cold-tier counters (codec from shard 0)."""
        merged: dict[str, Any] = {}
        for shard in self.shards:
            for key, value in shard.cold_stats().items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
                elif key not in merged:
                    merged[key] = value
        merged["logical_storage_bytes"] = self.storage_bytes()
        merged["physical_storage_bytes"] = self.physical_storage_bytes()
        return merged


@dataclass
class ShardSummary:
    """Per-shard meter snapshot for the scaling experiments."""

    shard: int
    hosts: list[str]
    pattern_bytes: int
    bloom_bytes: int
    params_bytes: int
    storage_bytes: int
    sampled_traces: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "hosts": list(self.hosts),
            "pattern_bytes": self.pattern_bytes,
            "bloom_bytes": self.bloom_bytes,
            "params_bytes": self.params_bytes,
            "storage_bytes": self.storage_bytes,
            "sampled_traces": self.sampled_traces,
        }


class ShardRoster:
    """The merged view's window onto the engines under shard chaos.

    List-shaped so :class:`MergedStorageView` and its helpers work
    unchanged: *iteration* yields only the engines of shards that are
    currently reachable (fan-out reads skip a crashed box, degrading
    the answer instead of raising), while *indexing* stays absolute —
    shard ``i`` is engine ``i`` whether or not shard ``i - 1`` is down.
    Backed by the backend's own engine list, so engines appended by a
    reshard appear in every fan-out automatically.  Only a backend with
    a shard supervisor reads through one; every other sharded read
    fans out over the plain list.
    """

    def __init__(self, engines: list[StorageEngine], backend: "ShardedBackend"):
        self._engines = engines
        self._backend = backend

    def __iter__(self) -> Iterator[StorageEngine]:
        down = self._backend.down_shards()
        for index, engine in enumerate(self._engines):
            if index not in down:
                yield engine

    def __getitem__(self, index: int) -> StorageEngine:
        return self._engines[index]

    def __len__(self) -> int:
        return len(self._engines)


class ShardedBackend(BackendPlane):
    """N hash-partitioned shards behind a MintBackend-shaped facade.

    Drop-in for :class:`~repro.backend.backend.MintBackend`: both run
    the same :class:`~repro.transport.plane.BackendPlane` code for
    collector registry, report dispatch, fleet-wide idempotent
    notification and queries — this class only supplies the topology:
    reports route to the shard owning their origin host
    (:meth:`_engine_for`), every stored report folds into the merge
    layer (:meth:`_observe_stored`), and queries are answered by the
    reference :class:`~repro.backend.querier.Querier` over the merged
    view, so "merged result == single-backend result" holds by
    construction.  Sampling notifications broadcast to the whole fleet
    because the dedup set and collector registry live in the plane,
    above the shards.

    The shard map can change while the backend runs:

    * **routing is mutable** — ``num_shards`` is the *routing modulus*
      and may change at a reshard cutover, and per-host overrides let
      the :class:`~repro.elastic.reshard.ReshardCoordinator` move hosts
      one at a time while ingest continues.  The engine list only ever
      *grows* (:meth:`ensure_engines`; ``target_shards`` pre-sizes it)
      and engines are never dropped or reordered: shard index ``i``
      means the same box for the whole run, which keeps the
      transport's per-shard ledgers valid across resharding and keeps
      a retired shard's pattern library resolvable through the merged
      fan-out — content-addressed patterns never need migrating;
    * **commits are supervised under shard chaos** — a non-benign
      ``shard_chaos`` profile attaches a
      :class:`~repro.elastic.supervisor.ShardSupervisor` that every
      store runs through, and reads go through a :class:`ShardRoster`
      that skips crashed shards, so queries during an outage degrade
      to ``partial``/``miss`` instead of raising.
    """

    def __init__(
        self,
        num_shards: int = 1,
        bloom_buffer_bytes: int = 4096,
        bloom_fpp: float = 0.01,
        notify_meter: NotifyMeter | None = None,
        target_shards: int | None = None,
        shard_chaos: "ShardChaosProfile | None" = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        super().__init__(notify_meter=notify_meter)
        self.num_shards = num_shards
        self._bloom_buffer_bytes = bloom_buffer_bytes
        self._bloom_fpp = bloom_fpp
        self._route_overrides: dict[str, int] = {}
        self.shards: list[StorageEngine] = []
        self.ensure_engines(max(num_shards, target_shards or 0))
        if shard_chaos is not None and not shard_chaos.is_benign:
            # Imported here: the elastic package imports this module.
            from repro.elastic.supervisor import ShardSupervisor

            self.supervisor = ShardSupervisor(
                profile=shard_chaos,
                commit=self._commit_direct,
                owner_of=self.shard_for,
            )
        engines = self.shards if self.supervisor is None else ShardRoster(self.shards, self)
        self.merged = MergedStorageView(engines)  # type: ignore[arg-type]
        self.querier = Querier(self.merged)  # type: ignore[arg-type]

    # The framework and tests read ``backend.storage`` for byte tables
    # and stored-trace enumeration; the merged view plays that role.
    @property
    def storage(self) -> MergedStorageView:
        """The single-backend-equivalent merged storage view."""
        return self.merged

    # ------------------------------------------------------------------
    # Topology (the BackendPlane contract)
    # ------------------------------------------------------------------
    def shard_for(self, node: str) -> int:
        """Current owner of ``node``: a migration override, else hash."""
        override = self._route_overrides.get(node)
        if override is not None:
            return override
        return shard_for_key(node, self.num_shards)

    def _engine_for(self, node: str) -> StorageEngine:
        """Route to the engine of the shard owning the origin host."""
        return self.shards[self.shard_for(node)]

    def _observe_stored(self, report: Report, engine: StorageEngine) -> None:
        """Fold every routed, stored report into the merge layer."""
        self.merged.observe_report(report, engine)

    def ensure_engines(self, count: int) -> None:
        """Grow the engine list to at least ``count`` boxes.

        Appending (never replacing) keeps every existing shard index
        stable; the new engines are empty and start receiving traffic
        only once routing points hosts at them.
        """
        while len(self.shards) < count:
            self.shards.append(
                StorageEngine(
                    bloom_buffer_bytes=self._bloom_buffer_bytes,
                    bloom_fpp=self._bloom_fpp,
                )
            )

    def pin_route(self, node: str, shard: int) -> None:
        """Route ``node`` to ``shard`` regardless of the hash map.

        The reshard cutover: the coordinator pins a moving host to its
        destination *before* snapshotting the source engine, so every
        report not in the snapshot is delivered to the destination —
        the two sets are disjoint and nothing is lost or doubled.
        """
        if not 0 <= shard < len(self.shards):
            raise ValueError(f"cannot pin {node!r} to unknown shard {shard}")
        self._route_overrides[node] = shard

    def set_routing_shards(self, num_shards: int) -> None:
        """Flip the hash modulus and drop now-redundant overrides."""
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.ensure_engines(num_shards)
        self.num_shards = num_shards
        self._route_overrides = {
            node: shard
            for node, shard in self._route_overrides.items()
            if shard_for_key(node, num_shards) != shard
        }

    def down_shards(self) -> set[int]:
        """Shards currently unreachable (empty without shard chaos)."""
        if self.supervisor is None:
            return set()
        return self.supervisor.down_shards()

    # ------------------------------------------------------------------
    # The supervised commit path
    # ------------------------------------------------------------------
    def _commit(self, report: Report) -> None:
        if self.supervisor is not None and self.supervisor.intercept(report):
            return
        super()._commit(report)

    def _commit_direct(self, report: Report) -> None:
        """The supervisor's replay path: store without re-interception.

        Routes through :meth:`_engine_for` at *replay* time, so a host
        that migrated while its report was parked commits to its
        current owner."""
        super()._commit(report)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def shard_summaries(self) -> list[ShardSummary]:
        """Per-shard tables over every engine, with live host owners."""
        hosts_by_shard: dict[int, list[str]] = {i: [] for i in range(len(self.shards))}
        for collector in self._collectors:
            hosts_by_shard[self.shard_for(collector.node)].append(collector.node)
        return [
            ShardSummary(
                shard=i,
                hosts=sorted(hosts_by_shard[i]),
                pattern_bytes=shard.pattern_bytes,
                bloom_bytes=shard.bloom_bytes,
                params_bytes=shard.params_bytes,
                storage_bytes=shard.storage_bytes(),
                sampled_traces=len(shard.sampled_trace_ids),
            )
            for i, shard in enumerate(self.shards)
        ]
