"""Tiered containers: the engine's dict/list, with a cold side.

:class:`TieredParams` and :class:`TieredBlooms` are drop-ins for the
``StorageEngine``'s ``params`` dict and ``blooms`` list.  Every read
path the queriers, merge layer and elastic plane use keeps
working unchanged; sealed entries resolve lazily through the
:class:`~repro.cold.blocks.ColdTier`'s block index.

Tiering rules:

* **Reads read through.**  A lookup against a sealed entry decodes its
  block (LRU-cached) and answers from the decoded payload — no state
  change, no counter movement.
* **Writes promote.**  Any mutation touching a sealed entry first
  promotes (unseals) the whole containing block — segment-granular
  unseal-on-demand, so a retroactive params upload merges into a hot
  bucket exactly as it would have before sealing, and eviction moves
  hot objects only.
* **Order is preserved.**  Iteration order (params) and list positions
  (blooms) are identical to the never-sealed container's — sealing is
  invisible to any reader, including ones that enumerate.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.cold.blocks import BLOOM_KIND, PARAMS_KIND, ColdTier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backend.storage import StoredBloom

_MISSING = object()


class TieredParams:
    """Dict-protocol params store over a hot dict plus sealed blocks.

    The key registry (``_order``) mirrors a plain dict's insertion
    semantics exactly — new keys append, deletion removes, re-insertion
    re-appends — so ``iter(engine.params)`` is bit-identical to the
    never-sealed engine's whatever was sealed in between.

    Stores that memoise what they derive from a bucket register the
    memo with :meth:`watch`; writing or sealing a bucket drops its key
    from every registered memo (so promoting one finds none to drop).
    """

    def __init__(self, tier: ColdTier) -> None:
        self._tier = tier
        self._hot: dict[str, list[list[Any]]] = {}
        self._cold: dict[str, int] = {}  # trace_id -> sealed block id
        self._order: dict[str, None] = {}
        self._memos: dict[object, dict[str, Any]] = {}  # owner -> memo

    # ------------------------------------------------------------------
    # Reads (read-through, never promote)
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        bucket = self._hot.get(key, _MISSING)
        if bucket is not _MISSING:
            return bucket
        block_id = self._cold.get(key)
        if block_id is None:
            return default
        return self._tier.decode(block_id)[key]

    def __getitem__(self, key: str) -> list[list[Any]]:
        bucket = self.get(key, _MISSING)
        if bucket is _MISSING:
            raise KeyError(key)
        return bucket

    def __contains__(self, key: object) -> bool:
        return key in self._hot or key in self._cold

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def keys(self) -> Iterator[str]:
        return iter(self._order)

    def values(self) -> Iterator[list[list[Any]]]:
        for key in self._order:
            yield self[key]

    def items(self) -> Iterator[tuple[str, list[list[Any]]]]:
        for key in self._order:
            yield key, self[key]

    # ------------------------------------------------------------------
    # Writes (promote-on-write)
    # ------------------------------------------------------------------
    def watch(self, owner: object, memo: dict[str, Any]) -> None:
        """Keep ``memo`` (keyed like the buckets) in step with them:
        one memo per owner, a new one replacing the owner's last."""
        self._memos[owner] = memo

    def _forget(self, key: str) -> None:
        for memo in self._memos.values():
            memo.pop(key, None)

    def setdefault(self, key: str, default: list[list[Any]]) -> list[list[Any]]:
        # The caller may append to the bucket in place.
        self._forget(key)
        block_id = self._cold.get(key)
        if block_id is not None:
            self.promote_block(block_id)
        bucket = self._hot.get(key, _MISSING)
        if bucket is not _MISSING:
            return bucket
        self._hot[key] = default
        self._order[key] = None
        return default

    def __setitem__(self, key: str, value: list[list[Any]]) -> None:
        self._forget(key)
        block_id = self._cold.get(key)
        if block_id is not None:
            self.promote_block(block_id)
        if key not in self._order:
            self._order[key] = None
        self._hot[key] = value

    def __delitem__(self, key: str) -> None:
        self._forget(key)
        block_id = self._cold.get(key)
        if block_id is not None:
            self.promote_block(block_id)
        del self._hot[key]
        del self._order[key]

    # ------------------------------------------------------------------
    # Tiering surface (engine/compactor only)
    # ------------------------------------------------------------------
    def is_sealed(self, key: str) -> bool:
        """True when the bucket lives in a sealed block."""
        return key in self._cold

    def sealed_count(self) -> int:
        """How many buckets are currently sealed."""
        return len(self._cold)

    def hot_items(self) -> list[tuple[str, list[list[Any]]]]:
        """Hot (sealable) buckets in global insertion order."""
        return [
            (key, self._hot[key]) for key in self._order if key in self._hot
        ]

    def seal(self, keys: list[str], block_id: int) -> None:
        """Move hot buckets into a sealed block (payload already built
        and verified by the caller).  Keys keep their registry slots —
        iteration order is untouched."""
        for key in keys:
            self._forget(key)
            del self._hot[key]
            self._cold[key] = block_id

    def promote_block(self, block_id: int) -> None:
        """Unseal one block: its buckets return hot, bit-identical."""
        decoded = self._tier.pop(block_id)
        for key, bucket in decoded.items():
            if self._cold.get(key) == block_id:
                del self._cold[key]
                self._hot[key] = bucket

    def promote_host(self, host: str) -> int:
        """Unseal every block holding records from ``host`` (the
        segment-granular eviction step); returns blocks promoted."""
        block_ids = self._tier.blocks_with_host(host, PARAMS_KIND)
        for block_id in block_ids:
            self.promote_block(block_id)
        return len(block_ids)


class _SealedBloomRef:
    """Placeholder for one sealed filter: hot metadata (node, pattern,
    inserted count — what placement checks and eviction scans read),
    cold bit array (resolved through the block index)."""

    __slots__ = ("node", "topo_pattern_id", "inserted", "block_id", "index")

    def __init__(
        self, node: str, topo_pattern_id: str, inserted: int, block_id: int, index: int
    ) -> None:
        self.node = node
        self.topo_pattern_id = topo_pattern_id
        self.inserted = inserted
        self.block_id = block_id
        self.index = index


class TieredBlooms:
    """List-protocol bloom store preserving exact stored order.

    Entries are hot :class:`StoredBloom` objects or sealed refs in the
    original append positions; resolution decodes the ref's block
    through the tier's LRU cache, so a probe sweep over a sealed run of
    filters inflates each block once.  A topo pattern -> positions
    index lets a lookup visit only its candidate patterns' entries;
    sealing and promotion swap entries in place, so only ``append`` and
    ``remove_node`` move it.
    """

    def __init__(self, tier: ColdTier) -> None:
        self._tier = tier
        self._entries: list[Any] = []
        self._positions: dict[str, list[int]] = {}
        self._sealed = 0  # how many entries are sealed refs

    # ------------------------------------------------------------------
    # List protocol
    # ------------------------------------------------------------------
    def append(self, stored: "StoredBloom") -> None:
        self._positions.setdefault(stored.topo_pattern_id, []).append(len(self._entries))
        self._entries.append(stored)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator["StoredBloom"]:
        return map(self._resolve, self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._resolve(entry) for entry in self._entries[index]]
        return self._resolve(self._entries[index])

    def resolved(self) -> list["StoredBloom"]:
        """``list(self)``, calling ``_resolve`` only for sealed refs:
        blocks decode in ``__iter__``'s order, so decode counts and
        LRU recency are the same."""
        if not self._sealed:
            return self._entries[:]
        resolve = self._resolve
        return [
            resolve(entry) if type(entry) is _SealedBloomRef else entry
            for entry in self._entries
        ]

    def of_patterns(self, pattern_ids: Iterable[str]) -> list["StoredBloom"]:
        """Stored filters of the given topo patterns, in stored order.

        Only the patterns' indexed positions are visited, so a block
        holding only other patterns' filters is never decoded."""
        index = self._positions
        groups = [index[pattern_id] for pattern_id in index.keys() & pattern_ids]
        positions = groups[0] if len(groups) == 1 else sorted(chain.from_iterable(groups))
        entries, resolve = self._entries, self._resolve
        return [resolve(entries[position]) for position in positions]

    def nodes(self) -> Iterator[str]:
        """Each stored filter's node, in stored order — read off the
        hot entry, so sealed filters are never decoded."""
        return (entry.node for entry in self._entries)

    def _resolve(self, entry: Any) -> "StoredBloom":
        if isinstance(entry, _SealedBloomRef):
            return self._tier.decode(entry.block_id)[entry.index]
        return entry

    # ------------------------------------------------------------------
    # Tiering surface (engine/compactor only)
    # ------------------------------------------------------------------
    def sealed_count(self) -> int:
        """How many stored filters are currently sealed."""
        return self._sealed

    def hot_positions(self) -> list[int]:
        """Positions of hot (sealable) entries, in stored order."""
        return [
            i
            for i, entry in enumerate(self._entries)
            if not isinstance(entry, _SealedBloomRef)
        ]

    def entries_at(self, positions: list[int]) -> list["StoredBloom"]:
        """The hot entries at ``positions`` (seal-payload assembly)."""
        return [self._entries[i] for i in positions]

    def seal(self, positions: list[int], block_id: int) -> None:
        """Replace hot entries with refs into their sealed block.

        ``positions`` must match the payload's entry order — ref index
        ``j`` resolves to the block's ``j``-th decoded filter."""
        for j, position in enumerate(positions):
            stored = self._entries[position]
            self._entries[position] = _SealedBloomRef(
                node=stored.node,
                topo_pattern_id=stored.topo_pattern_id,
                inserted=stored.filter.inserted,
                block_id=block_id,
                index=j,
            )
        self._sealed += len(positions)

    def promote_block(self, block_id: int) -> None:
        """Unseal one block: refs become hot filters at their slots."""
        decoded = self._tier.pop(block_id)
        for i, entry in enumerate(self._entries):
            if isinstance(entry, _SealedBloomRef) and entry.block_id == block_id:
                self._entries[i] = decoded[entry.index]
                self._sealed -= 1

    def promote_host(self, host: str) -> int:
        """Unseal every block holding a filter from ``host``."""
        block_ids = self._tier.blocks_with_host(host, BLOOM_KIND)
        for block_id in block_ids:
            self.promote_block(block_id)
        return len(block_ids)

    def remove_node(self, host: str) -> list["StoredBloom"]:
        """Remove and return every hot filter from ``host``.

        Callers promote the host's blocks first; any ref still carrying
        the host afterwards would mean the tier's host index lied, so
        it fails loudly instead of leaving a sealed orphan behind."""
        for entry in self._entries:
            if isinstance(entry, _SealedBloomRef) and entry.node == host:
                raise RuntimeError(
                    f"sealed bloom for host {host!r} survived promote_host "
                    f"(block {entry.block_id})"
                )
        moved = [entry for entry in self._entries if entry.node == host]
        self._entries = [entry for entry in self._entries if entry.node != host]
        self._positions = {}
        for position, entry in enumerate(self._entries):
            self._positions.setdefault(entry.topo_pattern_id, []).append(position)
        return moved
