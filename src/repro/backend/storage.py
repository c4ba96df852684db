"""The backend's distributed trace storage engine.

Stores the three parts Mint separates (paper Section 3.4): pattern
libraries (merged across nodes by content id), Bloom filters (indexed by
topo pattern), and variable parameters of sampled traces.  Every stored
byte is accounted, because storage overhead is one of the paper's two
headline metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.agent.reports import BloomReport, ParamsReport, PatternLibraryReport
from repro.bloom.bloom_filter import BloomFilter, _digest_pair, entries_containing, sized_for_bytes
from repro.cold.blocks import (
    BLOOM_KIND,
    PARAMS_KIND,
    ColdTier,
    encode_bloom_payload,
    encode_params_payload,
)
from repro.cold.store import TieredBlooms, TieredParams
from repro.model.encoding import encoded_size
from repro.parsing.span_parser import SpanPattern
from repro.parsing.trace_parser import TopoPattern


@dataclass
class StoredBloom:
    """A reported Bloom filter indexed under its topo pattern."""

    node: str
    topo_pattern_id: str
    filter: BloomFilter


class StorageEngine:
    """In-memory storage engine with strict byte accounting.

    Storage is tiered: ``params`` and ``blooms`` are tiered containers
    whose cold side is the engine's :class:`~repro.cold.blocks.ColdTier`
    of sealed, dictionary-compressed blocks.  Sealing never moves the
    logical byte counters — ``storage_bytes`` stays the one fig11
    ruler — while :meth:`physical_storage_bytes` reports what the
    compressed store actually holds.
    """

    def __init__(self, bloom_buffer_bytes: int = 4096, bloom_fpp: float = 0.01) -> None:
        self.bloom_buffer_bytes = bloom_buffer_bytes
        self.bloom_fpp = bloom_fpp
        # Every reported filter has the agents' geometry: derived once.
        self._bloom_capacity = sized_for_bytes(bloom_buffer_bytes, bloom_fpp).expected_insertions
        self.span_patterns: dict[str, SpanPattern] = {}
        self.numeric_ranges: dict[str, dict[str, tuple[float, float]]] = {}
        self.topo_patterns: dict[str, TopoPattern] = {}
        # Bumped whenever store_pattern_report — the one mutation site of
        # the three dicts above — changes any of them; approximate-segment
        # renders, stitched orders and predicate screens (pure functions
        # of them) are memoised until it moves.
        self.pattern_version = 0
        self.segment_renders: dict[str, Any] = {}
        self.segment_orders: dict[tuple[str, ...], Any] = {}
        self.predicate_screens: dict[tuple, Any] = {}
        self.cold = ColdTier()
        self.blooms: TieredBlooms = TieredBlooms(self.cold)
        # trace_id -> compact param records (see ParsedSpan.compact_record)
        self.params: TieredParams = TieredParams(self.cold)
        # Exact traces the querier rebuilt, by trace id: mirrors the hot
        # params buckets (writing or sealing one drops its trace) and is
        # dropped whole with any pattern change.
        self.exact_traces: dict[str, list[Any]] = {}
        self.params.watch(self, self.exact_traces)
        self.sampled_trace_ids: set[str] = set()
        # Stored filters this engine's lookups probed, and those a
        # predicate-screened lookup skipped (a plain lookup prunes none).
        self.filters_probed = 0
        self.filters_pruned = 0
        self._pattern_bytes = 0
        self._bloom_bytes = 0
        self._params_bytes = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def store_pattern_report(self, report: PatternLibraryReport) -> None:
        """Merge a pattern library report; duplicate ids cost nothing."""
        changed = False
        for data in report.span_patterns:
            pattern = SpanPattern.from_dict(data)
            if pattern.pattern_id not in self.span_patterns:
                # Built here, once per stored pattern, not on a first read.
                pattern.reconstruction_plan
                self.span_patterns[pattern.pattern_id] = pattern
                self._pattern_bytes += encoded_size(data)
                changed = True
            reported_ranges = data.get("numeric_ranges", {})
            if reported_ranges:
                merged = self.numeric_ranges.setdefault(pattern.pattern_id, {})
                for key, bounds in reported_ranges.items():
                    lower, upper = float(bounds[0]), float(bounds[1])
                    current = merged.get(key)
                    if current is not None:
                        lower, upper = min(current[0], lower), max(current[1], upper)
                    if current != (lower, upper):
                        merged[key] = (lower, upper)
                        changed = True
        for data in report.topo_patterns:
            pattern = TopoPattern.from_dict(data)
            if pattern.pattern_id not in self.topo_patterns:
                self.topo_patterns[pattern.pattern_id] = pattern
                self._pattern_bytes += encoded_size(data)
                changed = True
        if changed:
            self.pattern_version += 1
            self.segment_renders = {}
            self.segment_orders = {}
            self.predicate_screens = {}
            self.exact_traces.clear()

    def store_bloom_report(self, report: BloomReport) -> None:
        """Index a flushed Bloom filter under its topo pattern."""
        filt = BloomFilter.from_bytes(
            report.payload,
            expected_insertions=self._bloom_capacity,
            false_positive_probability=self.bloom_fpp,
            inserted=report.inserted,
        )
        self.blooms.append(
            StoredBloom(
                node=report.node,
                topo_pattern_id=report.topo_pattern_id,
                filter=filt,
            )
        )
        self._bloom_bytes += report.size_bytes()

    def store_params_report(self, report: ParamsReport) -> None:
        """Persist a sampled trace's parameters from one node.

        Records are compact positional lists
        (``[span_id, parent_id, node, pattern_id, start_time, values]``);
        they stay compact at rest and are expanded lazily at query time.
        """
        bucket = self.params.setdefault(report.trace_id, [])
        # Only records from the report's own nodes can repeat a key, so
        # no key is built for another node's records or an empty bucket.
        known = set()
        if bucket:
            nodes = {record[2] for record in report.records}
            known = {(r[0], r[2]) for r in bucket if r[2] in nodes}
        for record in report.records:
            key = (record[0], record[2])
            if key in known:
                continue
            bucket.append(record)
            known.add(key)
            self._params_bytes += encoded_size(record)
        self.sampled_trace_ids.add(report.trace_id)

    def evict_host(self, host: str) -> tuple[list[StoredBloom], dict[str, list[list[Any]]]]:
        """Remove and return everything this engine stores for ``host``.

        The reshard snapshot: the host's Bloom filters and parameter
        records leave this engine in one step, and the byte counters
        are decremented by exactly the wire sizes the reports were
        charged at store time — so re-storing the returned state on
        another engine conserves the merged byte tables bit for bit.
        Parameter buckets of multi-host traces keep the other hosts'
        records; a bucket emptied by the eviction also releases its
        sampled-id mark (the destination's store re-adds it).
        Patterns stay: they are content-addressed and resolve through
        the merged fan-out from any shard.

        Sealed segments are handled segment-granularly: every cold
        block holding any of the host's state is promoted (unsealed)
        first — blocks provably without the host stay sealed and are
        skipped — so the eviction below always moves hot objects and
        the counter decrements stay exactly the store-time charges.
        """
        self.params.promote_host(host)
        self.blooms.promote_host(host)
        moved_blooms = self.blooms.remove_node(host)
        for stored in moved_blooms:
            self._bloom_bytes -= self._stored_bloom_charge(stored)
        moved_params: dict[str, list[list[Any]]] = {}
        for trace_id in list(self.params):
            if self.params.is_sealed(trace_id):
                # Still-sealed buckets live in blocks whose host set
                # excluded ``host`` — nothing of theirs is moving.
                continue
            bucket = self.params[trace_id]
            moving = [record for record in bucket if record[2] == host]
            if not moving:
                continue
            moved_params[trace_id] = moving
            for record in moving:
                self._params_bytes -= encoded_size(record)
            remaining = [record for record in bucket if record[2] != host]
            if remaining:
                self.params[trace_id] = remaining
            else:
                del self.params[trace_id]
                self.sampled_trace_ids.discard(trace_id)
        return moved_blooms, moved_params

    # ------------------------------------------------------------------
    # Cold tier (sealing surface; selection lives in repro.cold.compactor)
    # ------------------------------------------------------------------
    @staticmethod
    def _stored_bloom_charge(stored: StoredBloom) -> int:
        """The exact bytes a stored filter was charged at store time
        (the one formula eviction and sealing both decrement/carry)."""
        header = encoded_size(
            {
                "node": stored.node,
                "topo_pattern_id": stored.topo_pattern_id,
                "inserted": stored.filter.inserted,
            }
        )
        return header + len(stored.filter.to_bytes())

    def seal_params_block(self, items: list[tuple[str, list[list[Any]]]]) -> int:
        """Seal hot params buckets into one compressed block.

        Logical counters do not move — the block carries the buckets'
        exact store-time charges so unsealing (and eviction through
        promotion) conserves every byte table bit for bit.
        """
        buckets = dict(items)
        raw = encode_params_payload(buckets)
        logical = sum(
            encoded_size(record) for bucket in buckets.values() for record in bucket
        )
        hosts = frozenset(
            record[2] for bucket in buckets.values() for record in bucket
        )
        block_id = self.cold.seal(
            PARAMS_KIND, raw, logical, hosts, tuple(buckets), with_dictionary=True
        )
        self.params.seal(list(buckets), block_id)
        return block_id

    def seal_bloom_block(self, positions: list[int]) -> int:
        """Seal stored Bloom filters (by position) into one block.

        Bit arrays are high-entropy, so the block skips the trained
        dictionary; node/pattern/inserted metadata stays hot on the
        sealed refs for placement checks and eviction scans.
        """
        entries = self.blooms.entries_at(positions)
        raw = encode_bloom_payload(entries)
        logical = sum(self._stored_bloom_charge(stored) for stored in entries)
        hosts = frozenset(stored.node for stored in entries)
        block_id = self.cold.seal(
            BLOOM_KIND, raw, logical, hosts, (len(entries),), with_dictionary=False
        )
        self.blooms.seal(positions, block_id)
        return block_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def patterns_matching_trace(self, trace_id: str) -> list[StoredBloom]:
        """All stored Bloom filters that (probably) contain ``trace_id``."""
        stored = self.blooms.resolved()
        self.filters_probed += len(stored)
        return entries_containing(stored, *_digest_pair(trace_id))

    def patterns_matching_among(self, trace_id: str, topo_ids: frozenset[str]) -> list[StoredBloom]:
        """The given topo patterns' matching filters; others are pruned."""
        stored = self.blooms.of_patterns(topo_ids)
        self.filters_probed += len(stored)
        self.filters_pruned += len(self.blooms) - len(stored)
        return entries_containing(stored, *_digest_pair(trace_id))

    def has_params(self, trace_id: str) -> bool:
        """True when the exact parameters of the trace are stored.

        Sealed buckets answer from hot metadata (only non-empty buckets
        are ever sealed), so the common probe never decodes a block."""
        if self.params.is_sealed(trace_id):
            return True
        return bool(self.params.get(trace_id))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def pattern_bytes(self) -> int:
        """Bytes spent on span + topo patterns."""
        return self._pattern_bytes

    @property
    def bloom_bytes(self) -> int:
        """Bytes spent on Bloom filters (trace metadata of all traces)."""
        return self._bloom_bytes

    @property
    def params_bytes(self) -> int:
        """Bytes spent on sampled traces' variable parameters."""
        return self._params_bytes

    def storage_bytes(self) -> int:
        """Total persisted bytes — the Fig. 11 storage metric.

        This is the *logical* figure: sealing segments into compressed
        cold blocks never moves it (the one-ruler contract).  The
        compressed reality is :meth:`physical_storage_bytes`."""
        return self._pattern_bytes + self._bloom_bytes + self._params_bytes

    def cold_savings_bytes(self) -> int:
        """Logical bytes saved by the cold tier (sealed store-time
        charges minus compressed block + dictionary bytes).  Zero while
        nothing is sealed; honest (possibly negative) on degenerate
        tiny corpora."""
        return self.cold.savings_bytes()

    def physical_storage_bytes(self) -> int:
        """What the store physically holds: the logical ruler minus the
        cold tier's savings — hot state at its charged size, sealed
        segments at their compressed size (plus the shared trained
        dictionary)."""
        return self.storage_bytes() - self.cold_savings_bytes()

    def cold_stats(self) -> dict[str, Any]:
        """Cold-tier counters plus the tiering split, for panels."""
        stats = self.cold.stats()
        stats["sealed_params_traces"] = self.params.sealed_count()
        stats["sealed_bloom_filters"] = self.blooms.sealed_count()
        stats["logical_storage_bytes"] = self.storage_bytes()
        stats["physical_storage_bytes"] = self.physical_storage_bytes()
        return stats
