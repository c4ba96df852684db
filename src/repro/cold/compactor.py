"""The compaction pass: seal cold segments of one storage engine.

A :class:`ColdPolicy` picks *what* is cold by recency over the store's
insertion order: the newest ``keep_hot_traces`` params buckets and
``keep_hot_blooms`` stored filters stay hot, everything older is
sealed in fixed-size blocks (:data:`BLOCK_TRACES`, :data:`BLOCK_BLOOMS`)
against a dictionary trained once per tier.  :func:`compact_engine`
runs one pass over one engine; sharded deployments run it per shard
(the backend plane's ``compact_cold`` fans out).

Fidelity is checked at seal time twice over: every selected bucket
must survive the canonical-JSON frame round trip *before* sealing
(records that would not — exotic value types — simply stay hot and
are counted, never corrupted), and every compressed block must decode
back bit-identical before it is admitted.  Together with the ruler
split (sealing moves no logical counters) this makes the cold
bit-identity gate hold by construction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cold.blocks import decode_params_payload, encode_params_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backend.storage import StorageEngine


# Small params blocks on purpose: a read or promote decodes one block,
# and the trained dictionary amortises across many blocks (sized so the
# dictionary pays for itself — see the bench's trained_vs_plain table).
BLOCK_TRACES = 2  # params buckets per sealed block
BLOCK_BLOOMS = 64  # stored filters per sealed block
DICT_BYTES = 1024  # trained-dictionary budget
TRAIN_SAMPLES = 256  # params records sampled into training


@dataclass(frozen=True)
class ColdPolicy:
    """How much of the store's recent tail stays hot."""

    keep_hot_traces: int = 0  # newest N params buckets stay hot
    keep_hot_blooms: int = 0  # newest N stored filters stay hot
    codec: str = "zlib"  # the only codec; named for existing callers

    def __post_init__(self) -> None:
        if self.keep_hot_traces < 0 or self.keep_hot_blooms < 0:
            raise ValueError("keep_hot_* must be >= 0")
        if self.codec != "zlib":
            raise ValueError(f"the cold tier's only codec is 'zlib', got {self.codec!r}")


@dataclass
class CompactionStats:
    """One compaction pass's outcome (per engine; sum across shards)."""

    blocks: int = 0
    params_traces: int = 0
    bloom_filters: int = 0
    skipped_traces: int = 0  # buckets kept hot by the fidelity check
    logical_bytes: int = 0  # store-time charges moved behind seals
    raw_bytes: int = 0  # frame bytes before compression
    physical_bytes: int = 0  # compressed block bytes added
    elapsed_seconds: float = 0.0
    codec: str = ""
    dict_bytes: int = 0
    labels: list[str] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        """Logical-over-physical for the sealed segments alone."""
        return self.logical_bytes / self.physical_bytes if self.physical_bytes else 0.0

    @property
    def throughput_mb_s(self) -> float:
        """Logical MB sealed per second of compaction wall clock."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.logical_bytes / (1024 * 1024) / self.elapsed_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "blocks": self.blocks,
            "params_traces": self.params_traces,
            "bloom_filters": self.bloom_filters,
            "skipped_traces": self.skipped_traces,
            "logical_bytes": self.logical_bytes,
            "raw_bytes": self.raw_bytes,
            "physical_bytes": self.physical_bytes,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "ratio": round(self.ratio, 3),
            "throughput_mb_s": round(self.throughput_mb_s, 3),
            "codec": self.codec,
            "dict_bytes": self.dict_bytes,
        }

    @classmethod
    def merge(cls, parts: list["CompactionStats"]) -> "CompactionStats":
        """Sum per-engine passes into one deployment-wide figure."""
        total = cls()
        for part in parts:
            total.blocks += part.blocks
            total.params_traces += part.params_traces
            total.bloom_filters += part.bloom_filters
            total.skipped_traces += part.skipped_traces
            total.logical_bytes += part.logical_bytes
            total.raw_bytes += part.raw_bytes
            total.physical_bytes += part.physical_bytes
            total.elapsed_seconds += part.elapsed_seconds
            total.dict_bytes += part.dict_bytes
            if part.codec:
                total.codec = part.codec
        return total


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _corpus_samples(
    engine: "StorageEngine",
    selected: list[tuple[str, list[list[Any]]]],
) -> list[bytes]:
    """Training corpus: the engine's own pattern library plus a capped,
    deterministic sample of the records about to be sealed.  Patterns
    are the templates the params records instantiate, so they are the
    highest-value dictionary content per byte."""
    samples = [_canonical(p.to_dict()) for p in engine.span_patterns.values()]
    samples += [_canonical(p.to_dict()) for p in engine.topo_patterns.values()]
    budget = TRAIN_SAMPLES
    for _, bucket in selected:
        if budget <= 0:
            break
        for record in bucket[:budget]:
            samples.append(_canonical(record))
        budget -= min(len(bucket), budget)
    return samples


def _select_params(
    engine: "StorageEngine", policy: ColdPolicy
) -> list[tuple[str, list[list[Any]]]]:
    hot = [(tid, bucket) for tid, bucket in engine.params.hot_items() if bucket]
    cut = len(hot) - policy.keep_hot_traces
    return hot[: max(cut, 0)]


def _select_blooms(engine: "StorageEngine", policy: ColdPolicy) -> list[int]:
    # Stored filters age by stored order, keeping the newest
    # keep_hot_blooms hot (new flushes append).
    positions = engine.blooms.hot_positions()
    cut = len(positions) - policy.keep_hot_blooms
    return positions[: max(cut, 0)]


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def compact_engine(
    engine: "StorageEngine", policy: ColdPolicy | None = None
) -> CompactionStats:
    """Run one compaction pass over one engine; returns its stats.

    Safe to run repeatedly (already-sealed segments are skipped) and at
    any point of a run — the ruler split guarantees no observable byte
    table or query answer moves.
    """
    policy = policy if policy is not None else ColdPolicy()
    started = time.perf_counter()
    tier = engine.cold
    stats = CompactionStats(codec=tier.codec.name)

    selected = _select_params(engine, policy)
    bloom_positions = _select_blooms(engine, policy)
    if not selected and not bloom_positions:
        stats.elapsed_seconds = time.perf_counter() - started
        return stats

    tier.train(_corpus_samples(engine, selected), DICT_BYTES)

    sealable: list[tuple[str, list[list[Any]]]] = []
    for trace_id, bucket in selected:
        # Records must survive the JSON frame bit for bit; anything
        # exotic stays hot rather than coming back subtly different.
        framed = encode_params_payload({trace_id: bucket})
        if decode_params_payload(framed) == {trace_id: bucket}:
            sealable.append((trace_id, bucket))
        else:
            stats.skipped_traces += 1

    for chunk in _chunks(sealable, BLOCK_TRACES):
        block = tier.block(engine.seal_params_block(chunk))
        stats.blocks += 1
        stats.params_traces += len(chunk)
        stats.logical_bytes += block.logical_bytes
        stats.raw_bytes += block.raw_bytes
        stats.physical_bytes += block.physical_bytes

    for chunk in _chunks(bloom_positions, BLOCK_BLOOMS):
        block = tier.block(engine.seal_bloom_block(chunk))
        stats.blocks += 1
        stats.bloom_filters += len(chunk)
        stats.logical_bytes += block.logical_bytes
        stats.raw_bytes += block.raw_bytes
        stats.physical_bytes += block.physical_bytes

    stats.dict_bytes = tier.dict_bytes
    stats.elapsed_seconds = time.perf_counter() - started
    return stats
