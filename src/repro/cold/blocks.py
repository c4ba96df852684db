"""Sealed blocks: payload framing and the cold block store.

A :class:`SealedBlock` is one compressed segment of an engine's store —
a group of params buckets or a run of stored Bloom filters — plus the
metadata the hot path needs *without* decoding it: which hosts
contributed entries (segment-granular eviction), which trace ids it
holds, and the exact logical bytes its entries were charged at store
time (the conservation invariant: sealing moves no counters).

:class:`ColdTier` owns a store's blocks, its trained dictionary, and a
small LRU of decoded payloads — the lazy block index queries resolve
sealed segments through.  Decode failures raise :class:`ColdReadError`
loudly; a sealed record is never silently served stale or truncated
(every block is roundtrip-verified at seal time, so a later failure
means real corruption).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.cold.codec import ZlibCodec
from repro.obs.trace import NULL_OBSERVER, Observer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backend.storage import StoredBloom

PARAMS_KIND = "params"
BLOOM_KIND = "blooms"

#: Decoded blocks kept hot; a query batch touching one sealed segment
#: pays its inflation once, not per trace.
CACHE_BLOCKS = 8


class ColdTierError(RuntimeError):
    """A seal operation could not uphold the cold tier's contracts."""


class ColdReadError(ColdTierError):
    """A sealed block failed to decode — corruption, never stale data."""


def encode_params_payload(buckets: dict[str, list[list[Any]]]) -> bytes:
    """Canonical-JSON frame of a params block (bucket map, key order
    preserved — Python dicts are ordered and JSON object keys keep
    insertion order through a decode round trip)."""
    return json.dumps(buckets, separators=(",", ":")).encode("utf-8")


def decode_params_payload(raw: bytes) -> dict[str, list[list[Any]]]:
    """Inverse of :func:`encode_params_payload`."""
    return json.loads(raw.decode("utf-8"))


def encode_bloom_payload(entries: list["StoredBloom"]) -> bytes:
    """Binary frame of a bloom block: one JSON header describing every
    filter's geometry, then the concatenated raw bit arrays.  The bit
    arrays are near-incompressible entropy, so they are framed (not
    JSON-inflated) and the block is compressed without the params
    dictionary."""
    meta = []
    blobs = []
    for stored in entries:
        filt = stored.filter
        payload = filt.to_bytes()
        meta.append(
            {
                "node": stored.node,
                "topo": stored.topo_pattern_id,
                "inserted": filt.inserted,
                "expected": filt.expected_insertions,
                "fpp": filt.false_positive_probability,
                "nbytes": len(payload),
            }
        )
        blobs.append(payload)
    header = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return len(header).to_bytes(4, "big") + header + b"".join(blobs)


def decode_bloom_payload(raw: bytes) -> list["StoredBloom"]:
    """Inverse of :func:`encode_bloom_payload`."""
    from repro.backend.storage import StoredBloom
    from repro.bloom.bloom_filter import BloomFilter

    header_len = int.from_bytes(raw[:4], "big")
    meta = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
    out: list[StoredBloom] = []
    offset = 4 + header_len
    for entry in meta:
        nbytes = entry["nbytes"]
        filt = BloomFilter.from_bytes(
            raw[offset : offset + nbytes],
            expected_insertions=entry["expected"],
            false_positive_probability=entry["fpp"],
            inserted=entry["inserted"],
        )
        offset += nbytes
        out.append(
            StoredBloom(node=entry["node"], topo_pattern_id=entry["topo"], filter=filt)
        )
    if offset != len(raw):
        raise ColdReadError(
            f"bloom block frame has {len(raw) - offset} trailing bytes"
        )
    return out


@dataclass(frozen=True)
class SealedBlock:
    """One compressed, immutable segment of an engine's store."""

    block_id: int
    kind: str  # PARAMS_KIND or BLOOM_KIND
    payload: bytes  # compressed frame
    raw_bytes: int  # frame size before compression
    logical_bytes: int  # exact store-time charges of the sealed entries
    hosts: frozenset[str]
    members: tuple  # params: sealed trace ids; blooms: entry count marker
    with_dictionary: bool

    @property
    def physical_bytes(self) -> int:
        """Compressed bytes this block holds on the physical side."""
        return len(self.payload)


class ColdTier:
    """A store's sealed blocks, trained dictionary and decode cache."""

    def __init__(self) -> None:
        self.codec = ZlibCodec()
        self.dictionary = b""
        self._blocks: dict[int, SealedBlock] = {}
        self._next_id = 0
        self._cache: OrderedDict[int, Any] = OrderedDict()
        # Lifetime counters (monotonic — promotion does not roll back).
        self.blocks_sealed = 0
        self.blocks_promoted = 0
        self.blocks_decoded = 0
        self.bind_observer(NULL_OBSERVER)

    def bind_observer(self, observer: Observer) -> None:
        """Attach the observability plane's handle (cache + decode
        instruments cached — the decode path is a query hot path)."""
        self.observer = observer
        self._obs_cache_hits = observer.counter("mint_cold_cache_hits", plane="cold")
        self._obs_cache_misses = observer.counter(
            "mint_cold_cache_misses", plane="cold"
        )
        self._obs_decode_hist = observer.stage_histogram("cold_decode")
        self._obs_promote_hist = observer.stage_histogram("cold_promote")

    # ------------------------------------------------------------------
    # Dictionary
    # ------------------------------------------------------------------
    def train(self, samples: list[bytes], max_dict_bytes: int) -> None:
        """Train the shared dictionary once, on first compaction."""
        if not self.dictionary and samples and max_dict_bytes > 0:
            self.dictionary = self.codec.train(samples, max_dict_bytes)

    @property
    def dict_bytes(self) -> int:
        """Physical cost of the trained dictionary."""
        return len(self.dictionary)

    # ------------------------------------------------------------------
    # Seal / decode / promote
    # ------------------------------------------------------------------
    def seal(
        self,
        kind: str,
        raw: bytes,
        logical_bytes: int,
        hosts: frozenset[str],
        members: tuple,
        with_dictionary: bool = True,
    ) -> int:
        """Compress one frame into a sealed block; returns its id.

        The frame is decoded back immediately and compared — a block
        that cannot reproduce its input bit for bit is never admitted,
        so :class:`ColdReadError` later always means post-seal
        corruption, not a lossy codec."""
        dictionary = self.dictionary if with_dictionary else b""
        payload = self.codec.compress(raw, dictionary)
        if self.codec.decompress(payload, dictionary) != raw:
            raise ColdTierError(
                f"codec {self.codec.name} failed the seal-time roundtrip for "
                f"a {kind} block ({len(raw)} raw bytes)"
            )
        block_id = self._next_id
        self._next_id += 1
        self._blocks[block_id] = SealedBlock(
            block_id=block_id,
            kind=kind,
            payload=payload,
            raw_bytes=len(raw),
            logical_bytes=logical_bytes,
            hosts=hosts,
            members=members,
            with_dictionary=with_dictionary,
        )
        self.blocks_sealed += 1
        return block_id

    def block(self, block_id: int) -> SealedBlock:
        """Metadata lookup (never decodes)."""
        return self._blocks[block_id]

    def block_ids(self, kind: str | None = None) -> list[int]:
        """Ids of all sealed blocks, optionally filtered by kind."""
        return [
            block_id
            for block_id, block in self._blocks.items()
            if kind is None or block.kind == kind
        ]

    def blocks_with_host(self, host: str, kind: str | None = None) -> list[int]:
        """Ids of sealed blocks holding any entry from ``host``."""
        return [
            block_id
            for block_id, block in self._blocks.items()
            if host in block.hosts and (kind is None or block.kind == kind)
        ]

    def decode(self, block_id: int) -> Any:
        """Decoded payload of one block, through the LRU cache.

        Params blocks decode to their bucket map, bloom blocks to their
        :class:`StoredBloom` list (one materialisation per cache
        residency, so repeated probes reuse the same objects)."""
        cached = self._cache.get(block_id)
        if cached is not None:
            self._cache.move_to_end(block_id)
            self._obs_cache_hits.inc()
            return cached
        self._obs_cache_misses.inc()
        decode_start = perf_counter() if self.observer.enabled else 0.0
        block = self._blocks[block_id]
        dictionary = self.dictionary if block.with_dictionary else b""
        try:
            raw = self.codec.decompress(block.payload, dictionary)
        except Exception as exc:
            raise ColdReadError(
                f"sealed {block.kind} block {block_id} failed to decode "
                f"({len(block.payload)} compressed bytes, codec "
                f"{self.codec.name}): {exc}"
            ) from exc
        if len(raw) != block.raw_bytes:
            raise ColdReadError(
                f"sealed {block.kind} block {block_id} decoded to {len(raw)} "
                f"bytes, expected {block.raw_bytes}"
            )
        decoded = (
            decode_params_payload(raw)
            if block.kind == PARAMS_KIND
            else decode_bloom_payload(raw)
        )
        self.blocks_decoded += 1
        self._cache[block_id] = decoded
        while len(self._cache) > CACHE_BLOCKS:
            self._cache.popitem(last=False)
        if self.observer.enabled:
            self._obs_decode_hist.observe(max(0.0, perf_counter() - decode_start))
        return decoded

    def pop(self, block_id: int) -> Any:
        """Decode and remove one block (the promote/unseal step)."""
        promote_start = perf_counter() if self.observer.enabled else 0.0
        decoded = self.decode(block_id)
        del self._blocks[block_id]
        self._cache.pop(block_id, None)
        self.blocks_promoted += 1
        if self.observer.enabled:
            self._obs_promote_hist.observe(max(0.0, perf_counter() - promote_start))
        return decoded

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def sealed_logical_bytes(self) -> int:
        """Store-time charges currently held in sealed form."""
        return sum(block.logical_bytes for block in self._blocks.values())

    def physical_bytes(self) -> int:
        """Compressed bytes actually held: block payloads plus the
        dictionary while any block needs it (an empty tier is free —
        promote-everything returns the store to its hot footprint)."""
        if not self._blocks:
            return 0
        total = sum(block.physical_bytes for block in self._blocks.values())
        if any(block.with_dictionary for block in self._blocks.values()):
            total += self.dict_bytes
        return total

    def savings_bytes(self) -> int:
        """Logical minus physical over the sealed segments (can be
        negative for degenerate tiny corpora — reported honestly)."""
        return self.sealed_logical_bytes() - self.physical_bytes()

    def stats(self) -> dict[str, Any]:
        """Counters for panels and the cold benchmark."""
        return {
            "codec": self.codec.name,
            "dict_bytes": self.dict_bytes,
            "sealed_blocks": len(self._blocks),
            "blocks_sealed": self.blocks_sealed,
            "blocks_promoted": self.blocks_promoted,
            "blocks_decoded": self.blocks_decoded,
            "sealed_logical_bytes": self.sealed_logical_bytes(),
            "physical_block_bytes": self.physical_bytes(),
            "savings_bytes": self.savings_bytes(),
        }
